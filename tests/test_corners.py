"""Blowup machinery: lifts, order independence, densities."""

import pytest

from acclab.corners import (BMapError, BlowupCenter, CornerSpace, Monomial,
                            Representative, parse_monomial)
from acclab.spaces import (SPACE_KINDS, acc_double_space, acc_heat_space,
                           b_heat_space, build_space, conic_heat_space,
                           heat_half_density_weight, sc_heat_space,
                           sc_triple_heat_space)
from acclab.symbolic import N, affine


def test_monomial_parse_and_format():
    m = parse_monomial("rho_110^2*rho_001")
    assert str(m) == "rho_001*rho_110^2"
    assert parse_monomial("1").is_one()
    with pytest.raises(BMapError):
        parse_monomial("x^2")


def test_b_heat_scalar_lifts():
    sp = b_heat_space()
    assert str(sp.lift("x1")) == "rho_100*rho_110"
    assert str(sp.lift("x2")) == "rho_010*rho_110"
    assert str(sp.lift("t1")) == "rho_001*rho_d2^2"


def test_conic_heat_scalar_lifts():
    sp = conic_heat_space()
    assert str(sp.lift("x1")) == "rho_100*rho_112"
    assert str(sp.lift("t1")) == "rho_001*rho_112^2*rho_d2^2"


def test_sc_heat_scalar_lifts():
    sp = sc_heat_space()
    assert str(sp.lift("x1")) == "rho_100*rho_110*rho_220"
    assert str(sp.lift("t1")) == "rho_001*rho_d2^2"


def test_blowup_missing_face_rejected():
    sp = b_heat_space()
    with pytest.raises(BMapError, match="unknown face"):
        sp.blow_up(BlowupCenter.make(faces=("nope",)), "new")


def test_blowup_away_from_scalars_changes_no_lift():
    sp = b_heat_space()
    before = {k: str(v) for k, v in sp.components.items()}
    sp.blow_up(BlowupCenter.make(faces=(), vanishing={}, codim=2), "extra")
    after = {k: str(v) for k, v in sp.components.items()}
    assert before == after


def test_blowup_order_independence_b_heat():
    # the two centers are disjoint: either order gives the same lifts
    sp = CornerSpace("b_heat_swapped")
    sp.add_boundary_face("100", defines="x1")
    sp.add_boundary_face("010", defines="x2")
    sp.add_boundary_face("001", defines="t1")
    for comp in ("dY12", "dZ12"):
        sp.add_component(comp)
    sp.blow_up(BlowupCenter.make(faces=("001",), vanishing={"dZ12": 1, "dY12": 1},
                                 parabolic=("001",), codim=N + 1), "d2")
    sp.blow_up(BlowupCenter.make(faces=("100", "010"), codim=2), "110")
    ref = b_heat_space()
    assert sorted(f.name for f in sp.faces) == sorted(f.name for f in ref.faces)
    assert {k: str(v) for k, v in sp.components.items()} \
        == {k: str(v) for k, v in ref.components.items()}


def test_blowup_order_independence_triple_pairs(rng_permutations=None):
    # permute the three pairwise spatial corners; lifts must agree
    import itertools
    base = sc_triple_heat_space()
    baseline = {k: str(v) for k, v in base.components.items()}
    pair_events = [ev for ev in base.history
                   if ev.face_name in ("11000", "01100", "10100")]
    other = [ev for ev in base.history
             if ev.face_name not in ("11000", "01100", "10100")]
    for perm in itertools.permutations(pair_events):
        sp = CornerSpace("perm")
        for name, var in (("10000", "x1"), ("01000", "x2"), ("00100", "x3"),
                          ("00010", "t1"), ("00001", "t2")):
            sp.add_boundary_face(name, defines=var)
        for comp in ("dY12", "dY13", "dY23", "dZ12", "dZ13", "dZ23"):
            sp.add_component(comp)
        sp.add_component("t3")
        events = [other[0]] + list(perm) + other[1:]
        for ev in events:
            sp.blow_up(ev.center, ev.face_name)
        assert {k: str(v) for k, v in sp.components.items()} == baseline


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_single_component_representative_lifts_as_the_component(kind):
    sp = build_space(kind)
    assert sp.components
    for comp in sp.components:
        assert sp.lift_representative(Representative(((comp, 1),), 1)) \
            == sp.lift(comp)


def test_every_canonical_lift_is_monomial():
    from acclab.spaces import sc_triple_maps
    for bmap in sc_triple_maps().values():
        for mono in bmap.lifts.values():
            exps = mono.integer_exponents()
            assert all(e >= 1 for e in exps.values())


def test_density_lift_b_heat_weight():
    sp = b_heat_space()
    assert str(heat_half_density_weight(sp)) \
        == "rho_110^(-1/2)*rho_d2^(-1/2*n-1/2)"


def test_density_lift_sc_heat_weight_matches_published_display():
    sp = sc_heat_space()
    assert str(heat_half_density_weight(sp)) \
        == "rho_110^(-1/2)*rho_220^(-1/2*n)*rho_d2^(-1/2*n-1/2)"


def test_density_lift_trivial_chain():
    sp = CornerSpace("bare")
    sp.add_boundary_face("100", defines="x1")
    w = Monomial.from_dict({"100": 2})
    assert str(sp.density_lift(w)) == "rho_100^2"


def test_density_lift_unconfigured_face_errors():
    sp = b_heat_space()
    with pytest.raises(BMapError, match="unconfigured|unknown"):
        sp.jacobian_exponent("nope")


def test_triple_density_lift_matches_published_display():
    sp = sc_triple_heat_space()
    lifted = sp.density_lift(Monomial.one()).as_dict()
    expect = {
        "00011": affine(1),
        "11100": affine(2), "11000": affine(1), "01100": affine(1),
        "10100": affine(1),
        "22200": 2 * N + 1,
        "22000": affine(0) + N, "02200": affine(0) + N, "20200": affine(0) + N,
        "d3": 2 * N + 3,
        "d20": N + 1, "d02": N + 1, "d22": N + 1,
    }
    assert lifted == expect


def test_triple_density_exponent_at_front_corner_is_two():
    sp = sc_triple_heat_space()
    assert sp.density_lift(Monomial.one()).exponent("11100") == affine(2)


def test_jacobian_override_flagged():
    sp = sc_triple_heat_space()
    assert sp.jacobian_overrides["22200"] == 2 * N + 1
    assert any("22200" in note for note in sp.notes)


def test_acc_spaces_epsilon_consistency():
    for sp in (acc_double_space(), acc_heat_space()):
        assert str(sp.components["eps"]) == str(sp.components["eps_prime"])
        assert set(sp.components["eps"].as_dict()) \
            == {"1010", "1001", "0110", "0101"}
