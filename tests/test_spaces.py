"""Canonical space inventories and the published lift tables."""

import pytest

from acclab.corners import parse_monomial
from acclab.spaces import (PUBLISHED_LIFT_TABLE, build_space, corner_table,
                           face_table, lift_table_rows,
                           published_sc_triple_maps, sc_triple_maps)


def test_b_heat_faces():
    names = [r["name"] for r in face_table("b_heat")]
    assert names == ["F_110", "F_d2", "F_100", "F_010", "F_001"]


def test_conic_heat_faces():
    names = [r["name"] for r in face_table("conic_heat")]
    assert names == ["F_112", "F_d2", "F_100", "F_010", "F_001"]


def test_sc_heat_faces():
    names = [r["name"] for r in face_table("sc_heat")]
    assert names == ["F_220", "F_110", "F_100", "F_010", "F_d2", "F_001"]


def test_acc_double_faces_and_corners():
    names = [r["name"] for r in face_table("acc_double")]
    assert names == ["F_1010", "F_1001", "F_0110", "F_0101"]
    corners = corner_table("acc_double")
    assert [c["name"] for c in corners] == ["C_1110", "C_1101", "C_1011",
                                            "C_0111", "C_1111"]
    assert corners[0]["in_faces"] == ["F_1010", "F_0110"]
    assert corners[-1]["in_faces"] == ["F_1010", "F_1001", "F_0110", "F_0101"]


def test_acc_heat_faces_and_corners():
    names = [r["name"] for r in face_table("acc_heat")]
    assert names == ["F_1010", "F_1001", "F_0110", "F_0101"]
    corners = corner_table("acc_heat")
    assert [c["name"] for c in corners] == ["C_1110", "C_1101", "C_1011",
                                            "C_0111"]


def test_acc_triple_heat_twelve_blowups_in_order():
    names = [r["name"] for r in face_table("acc_triple_heat")]
    assert names == ["S_11122", "S_11020", "S_01102", "S_10122", "S_111",
                     "S_110", "S_011", "S_101", "S_td", "S_d20", "S_d02",
                     "S_d22"]
    assert all(r["origin"] in ("radial_blowup", "parabolic_blowup")
               for r in face_table("acc_triple_heat"))


def test_sc_triple_heat_inventory():
    rows = face_table("sc_triple_heat")
    names = [r["name"] for r in rows]
    assert names[:13] == ["F_11100", "F_11000", "F_01100", "F_10100",
                          "F_22200", "F_22000", "F_02200", "F_20200",
                          "F_d3", "F_d20", "F_d02", "F_d22", "F_00011"]
    rec = {r["name"]: r["reconstructed"] for r in rows}
    assert rec["F_00022"] is True
    assert rec["F_00010"] is False


def test_unknown_kind_rejected():
    with pytest.raises(Exception, match="unknown space kind"):
        build_space("nope")


# -- the 18-row lift table ----------------------------------------------------

def test_published_table_has_eighteen_rows():
    assert len(PUBLISHED_LIFT_TABLE) == 18
    rows = lift_table_rows()
    assert len(rows) == 18
    for (m, rho, pub), row in zip(PUBLISHED_LIFT_TABLE, rows):
        assert row.published == str(parse_monomial(pub))


def test_clean_rows_derive_mechanically():
    mech = {(r.map_name, r.rho): r for r in lift_table_rows()}
    for m in ("beta_L", "beta_R", "beta_C"):
        for rho in ("110", "220", "d2"):
            assert mech[(m, rho)].status == "mechanical", (m, rho)


def test_divergent_rows_are_the_documented_nine():
    divergent = {(r.map_name, r.rho) for r in lift_table_rows()
                 if r.status != "mechanical"}
    assert divergent == {(m, rho) for m in ("beta_L", "beta_R", "beta_C")
                         for rho in ("100", "010", "001")}


def test_specific_published_rows():
    lifts = {(r.map_name, r.rho): r.published for r in lift_table_rows()}
    assert lifts[("beta_L", "110")] == "rho_11000*rho_11100"
    assert lifts[("beta_C", "d2")] == "rho_d22*rho_d3"
    assert lifts[("beta_R", "d2")] == "rho_d02*rho_d3"
    assert lifts[("beta_C", "100")] == "rho_10000*rho_11000"
    assert lifts[("beta_C", "001")] == "rho_00011*rho_00022*rho_d22"


def test_mechanical_maps_are_b_fibrations():
    for name, bmap in sc_triple_maps().items():
        ok, witness = bmap.is_b_fibration()
        assert ok, (name, witness)


def test_published_center_map_fails_b_fibration_with_witness():
    # the printed rho_001 row sends F_d22 into the F_d2 & F_001 corner
    ok, witness = published_sc_triple_maps()["beta_C"].is_b_fibration()
    assert not ok
    assert witness[0] == "d22"
    assert {witness[1], witness[2]} == {"d2", "001"}


def test_artificial_two_row_column_rejected():
    from acclab.corners import BMapSpec, Monomial
    sp = build_space("b_heat")
    bad = BMapSpec("bad", sp, sp, {
        "100": Monomial.from_dict({"110": 1}),
        "010": Monomial.from_dict({"110": 1}),
    })
    ok, witness = bad.is_b_fibration()
    assert not ok and witness[0] == "110"


def test_identity_map_is_b_fibration_with_identity_matrix():
    from acclab.corners import BMapSpec, Monomial
    sp = build_space("b_heat")
    ident = BMapSpec("id", sp, sp, {f.name: Monomial.from_dict({f.name: 1})
                                    for f in sp.faces})
    ok, _ = ident.is_b_fibration()
    assert ok
    mat = ident.lifting_matrix()
    assert all(k[0] == k[1] and v == 1 for k, v in mat.items())
    m = parse_monomial("rho_110^2*rho_001")
    assert str(ident.lift_monomial(m)) == str(m)


def test_interior_faces_of_center_projection():
    maps = sc_triple_maps()
    interior = set(maps["beta_C"].interior_faces())
    assert {"01000", "00010", "00001", "d20", "d02"} <= interior
    assert "11100" not in interior



def test_assemble_positive_for_dirichlet():
    from acclab.geometry import WarpFamily
    from acclab.spectral import SLGrid, assemble_spectra
    fam = WarpFamily.capped(n=3, c=1.0)
    spec, = assemble_spectra(fam, [0.1], SLGrid(256), 3, ell_max=2)
    assert all(e["lam"] > 0 for e in spec.entries)
