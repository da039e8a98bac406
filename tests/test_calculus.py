"""Composition rules, the pushforward pipeline, canonical kernel orders."""

import random
from fractions import Fraction

import pytest

from acclab.calculus import (CalculusOrders, CompositionError,
                             acc_compose, b_compose, canonical_kernel_orders,
                             conic_compose, lifted_heat_operator_table,
                             orders_from_jsonable, orders_to_jsonable,
                             pullback_orders, pushforward_orders, sc_compose,
                             sc_compose_pipeline, _pipeline)
from acclab.indexsets import INFINITE_ORDER, IndexSet, IndexTerm, leading_order
from acclab.symbolic import N, affine


def sc_el(k, e110, e220):
    return CalculusOrders("sc", k, {"110": e110, "220": e220})


def conic_el(k, e100, e010, e112):
    return CalculusOrders("conic", k,
                          {"100": IndexSet.of(e100), "010": IndexSet.of(e010),
                           "112": IndexSet.of(e112)})


# -- b calculus ---------------------------------------------------------------

def test_b_compose_orders_add():
    a = CalculusOrders("b", -2, {"110": IndexSet.of(0)})
    out = b_compose(a, a)
    assert out.k == affine(-4)
    assert leading_order(out.face_set("110")).alpha == affine(0)


def test_b_compose_identity_order_element():
    ident = CalculusOrders("b", 0, {"110": IndexSet.of(0)})
    a = CalculusOrders("b", -2, {"110": IndexSet.of((3, 1))})
    out = b_compose(ident, a)
    assert out.k == affine(-2)
    assert out.face_set("110").terms == a.face_set("110").terms


def test_b_compose_log_addition():
    a = CalculusOrders("b", -1, {"110": IndexSet.of((0, 1))})
    out = b_compose(a, a)
    assert leading_order(out.face_set("110")).p == 2


def test_b_compose_rejects_mixed_calculi():
    a = CalculusOrders("b", -2, {"110": IndexSet.of(0)})
    s = sc_el(-2, IndexSet.of(0), IndexSet.of(0))
    with pytest.raises(CompositionError, match="mixed"):
        b_compose(a, s)


# -- conic calculus ------------------------------------------------------------

def test_conic_compose_closed_form():
    a = conic_el(-2, 1, 1, 2)
    out = conic_compose(a, a)
    assert out.k == affine(-4)
    assert leading_order(out.face_set("100")).alpha == affine(1)
    assert leading_order(out.face_set("010")).alpha == affine(1)
    assert leading_order(out.face_set("112")).alpha == affine(4)


def test_conic_compose_named_precondition_k():
    a = conic_el(0, 1, 1, 2)
    b = conic_el(-2, 1, 1, 2)
    with pytest.raises(CompositionError, match="-k_a > 0 violated"):
        conic_compose(a, b)


def test_conic_compose_named_precondition_front():
    a = conic_el(-2, 1, 1, 2)
    b = conic_el(-2, 1, 1, -2)
    with pytest.raises(CompositionError, match="beta_112 \\+ alpha_010 > 0"):
        conic_compose(a, b)


@pytest.mark.parametrize("name,a_vals,b_vals,a_ok", [
    # each case sits exactly on one threshold (the other leaders are kept
    # safely valid); nudging the named leader by +1/2 flips to accept
    ("beta_112 + alpha_010",
     (1, -2, 2), (4, 1, 2), (1, Fraction(-3, 2), 2)),
    ("alpha_112 + beta_100",
     (1, 2, 2), (-2, 1, 2), (1, 2, Fraction(5, 2))),
    ("beta_100 + alpha_010",
     (1, 0, 2), (-1, 1, 2), (1, Fraction(1, 2), 2)),
])
def test_conic_preconditions_flip_at_threshold(name, a_vals, b_vals, a_ok):
    a_th = conic_el(-2, *a_vals)
    b_th = conic_el(-2, *b_vals)
    with pytest.raises(CompositionError) as err:
        conic_compose(a_th, b_th)
    assert name in str(err.value)
    assert "; " not in str(err.value)  # exactly one named violation
    conic_compose(conic_el(-2, *a_ok), b_th)


def test_conic_k_threshold_flip():
    b = conic_el(-2, 1, 1, 2)
    with pytest.raises(CompositionError, match="-k_a > 0 violated"):
        conic_compose(conic_el(0, 1, 1, 2), b)
    conic_compose(conic_el(Fraction(-1, 2), 1, 1, 2), b)


# -- sc calculus ---------------------------------------------------------------

def test_sc_compose_closed_form_example():
    a = sc_el(-2, IndexSet.of(0), IndexSet.of(0))
    out = sc_compose(a, a)
    assert out.k == affine(-4)
    assert leading_order(out.normalized_order("110")).alpha.subs() \
        == Fraction(-1, 2)
    assert leading_order(out.normalized_order("220"), n=3).alpha.subs(n=3) \
        == Fraction(-5, 2)  # -(n+2)/2 at n=3
    # diagonal order -(n+3)/2 - (k_a+k_b) = -(n+3)/2 + 4
    assert out.diagonal_order().subs(n=3) == Fraction(1, 1)


def test_sc_pipeline_matches_closed_form_on_random_orders():
    rng = random.Random(20240817)

    def rnd_set():
        terms = []
        for _ in range(rng.randint(1, 3)):
            alpha = Fraction(rng.randint(0, 10), rng.choice([1, 2]))
            terms.append((alpha, rng.randint(0, 2)))
        return IndexSet.of(*terms)

    for _ in range(25):
        ka = -Fraction(rng.randint(1, 9), rng.choice([1, 2]))
        kb = -Fraction(rng.randint(1, 9), rng.choice([1, 2]))
        a = sc_el(ka, rnd_set(), rnd_set())
        b = sc_el(kb, rnd_set(), rnd_set())
        closed = sc_compose(a, b)
        piped = sc_compose_pipeline(a, b)
        assert piped.k == closed.k
        assert piped.face_set("110").terms == closed.face_set("110").terms
        assert piped.face_set("220").terms == closed.face_set("220").terms


def test_sc_pipeline_infinite_absorbs():
    a = CalculusOrders("sc", -2, {"110": INFINITE_ORDER, "220": IndexSet.of(0)})
    b = sc_el(-2, IndexSet.of(0), IndexSet.of(0))
    out = sc_compose_pipeline(a, b)
    assert out.face_set("110") is INFINITE_ORDER


def test_sc_pipeline_integrability_precondition():
    a = sc_el(1, IndexSet.of(0), IndexSet.of(0))  # k_a = 1 breaks -k_a > 0
    b = sc_el(-2, IndexSet.of(0), IndexSet.of(0))
    with pytest.raises(CompositionError, match="integrability.*d20"):
        sc_compose_pipeline(a, b)


def test_sc_compose_associative_in_k_and_sets():
    a = sc_el(-1, IndexSet.of((1, 1)), IndexSet.of(0))
    b = sc_el(-2, IndexSet.of(2), IndexSet.of((0, 1)))
    c = sc_el(-3, IndexSet.of(Fraction(1, 2)), IndexSet.of(3))
    lhs = sc_compose(sc_compose(a, b), c)
    rhs = sc_compose(a, sc_compose(b, c))
    assert lhs.k == rhs.k
    assert lhs.face_set("110").terms == rhs.face_set("110").terms
    assert lhs.face_set("220").terms == rhs.face_set("220").terms


# -- pushforward ----------------------------------------------------------------

def test_pullback_gives_smooth_set_on_faces_without_lift():
    maps, _ = _pipeline()
    lift = maps["beta_L"]
    bare = [f for f, column in lift.columns.items() if not column]
    assert bare
    orders = {"110": IndexSet.of(1), "220": IndexSet.of((2, 1))}
    out = pullback_orders(lift, orders)
    assert set(out) == set(lift.columns)
    for f in bare:
        assert out[f] is IndexSet.smooth()
        assert out[f].terms == (IndexTerm(affine(0), 0),)
    hit = [f for f, column in lift.columns.items()
           if any(g in orders for g, _ in column)]
    assert hit and all(out[f] is not IndexSet.smooth() for f in hit)


def test_pushforward_all_infinite_stays_infinite():
    maps, density = _pipeline()
    orders = {f: INFINITE_ORDER for f in maps["beta_C"].source.face_names()}
    out = pushforward_orders(maps["beta_C"], orders, density)
    assert all(v is INFINITE_ORDER for v in out.values())


def test_pushforward_rejects_non_b_fibration():
    from acclab.spaces import published_sc_triple_maps
    maps, density = _pipeline()
    orders = {f: INFINITE_ORDER for f in maps["beta_C"].source.face_names()}
    with pytest.raises(CompositionError, match="not a b-fibration"):
        pushforward_orders(published_sc_triple_maps()["beta_C"],
                           orders, density)


def test_pushforward_single_face_passthrough():
    maps, density = _pipeline()
    orders = {f: INFINITE_ORDER for f in maps["beta_C"].source.face_names()}
    orders["11100"] = IndexSet.of(5)
    out = pushforward_orders(maps["beta_C"], orders, density)
    lead = leading_order(out["110"], n=3)
    # 5 plus the density correction 3/2 at F_11100
    assert lead.alpha.subs(n=3) == Fraction(13, 2)


def test_pushforward_flags_coincident_orders():
    maps, density = _pipeline()
    orders = {f: INFINITE_ORDER for f in maps["beta_C"].source.face_names()}
    orders["d3"] = IndexSet.of(affine(5) - (N + 5) / 2)
    orders["d22"] = IndexSet.of(affine(5) - (N + 3) / 2)  # same corrected leader
    out = pushforward_orders(maps["beta_C"], orders, density)
    assert out["d2"].name and "coincident" in out["d2"].name


# -- acc calculus -----------------------------------------------------------------

def acc_parametrix_element(k=-2, eps_order=2):
    """An error-term style element: high coefficient orders, so the conic
    coefficient preconditions hold (the kernel composed with itself sits on
    the threshold beta_100 + alpha_010 = -(n+1) + 2 mu_0 and is excluded by
    the strict inequalities)."""
    return CalculusOrders("acc", k, {
        "1010": IndexSet.of(eps_order), "0101": IndexSet.of(eps_order),
        "1001": IndexSet.of(eps_order), "0110": IndexSet.of(eps_order)},
        coefficients={
            "1010": CalculusOrders("b", k, {"110": IndexSet.of(2)}),
            "0101": conic_el(k, 3, 3, 5),
        })


def test_acc_compose_adds_epsilon_sets_and_flags_conjectural():
    a = acc_parametrix_element()
    out = acc_compose(a, a)
    assert leading_order(out.face_set("1010")).alpha == affine(4)
    assert leading_order(out.face_set("1001")).alpha == affine(4)
    assert out.k == affine(-4)
    assert "conjectural" in out.meta["status"]
    # coefficient calculi composed in their own rules
    assert out.coefficients["1010"].calculus == "b"
    assert out.coefficients["1010"].k == affine(-4)
    assert leading_order(out.coefficients["1010"].face_set("110")).alpha \
        == affine(4)
    assert out.coefficients["0101"].calculus == "conic"
    assert leading_order(out.coefficients["0101"].face_set("112")).alpha \
        == affine(10)


def test_acc_compose_identity_epsilon_set():
    a = acc_parametrix_element()
    ident = CalculusOrders("acc", -2, {
        "1010": IndexSet.of(0), "0101": IndexSet.of(0),
        "1001": IndexSet.of(0), "0110": IndexSet.of(0)},
        coefficients={"1010": CalculusOrders("b", -2, {"110": IndexSet.of(0)}),
                      "0101": conic_el(-2, 1, 1, 2)})
    out = acc_compose(ident, a)
    assert leading_order(out.face_set("1010")).alpha == affine(2)
    assert leading_order(out.face_set("0110")).alpha == affine(2)


def test_acc_compose_propagates_conic_precondition_errors():
    a = acc_parametrix_element()
    b = acc_parametrix_element(k=1)  # -k_b > 0 fails in the conic coefficient
    with pytest.raises(CompositionError, match="-k_b > 0 violated"):
        acc_compose(a, b)


def test_conic_kernel_self_composition_sits_on_threshold():
    # mu_0-symbolic leaders: beta_100 + alpha_010 = -(n+1) + 2 mu_0 <= -1
    # for mu_0 <= n/2, so the strict preconditions reject self-composition
    kernel = canonical_kernel_orders("conic_heat_kernel")
    with pytest.raises(CompositionError, match="violated"):
        conic_compose(kernel, kernel)


# -- canonical kernels and the operator table ------------------------------------

def test_b_heat_kernel_table():
    el = canonical_kernel_orders("b_heat_kernel")
    t = el.leading_orders()
    assert t["F_110"] == "0"
    assert el.diagonal_order() == -(N + 3) / 2 + 2


def test_conic_heat_kernel_table_at_n3_mu0_zero():
    el = canonical_kernel_orders("conic_heat_kernel")
    lead_112 = leading_order(el.face_set("112"), n=3, mu0=0)
    lead_100 = leading_order(el.face_set("100"), n=3, mu0=0)
    assert lead_112.alpha.subs(n=3, mu0=0) == 2
    assert lead_100.alpha.subs(n=3, mu0=0) == -2


def test_sc_heat_kernel_vanishes_at_front_face():
    el = canonical_kernel_orders("sc_heat_kernel")
    assert el.face_set("110") is INFINITE_ORDER
    assert leading_order(el.face_set("220")).alpha == affine(0)


def test_acc_kernel_coefficient_compatibility():
    acc = canonical_kernel_orders("acc_heat_kernel")
    b = canonical_kernel_orders("b_heat_kernel")
    conic = canonical_kernel_orders("conic_heat_kernel")
    assert acc.coefficients["1010"].face_sets["110"].terms \
        == b.face_sets["110"].terms
    assert acc.coefficients["0101"].face_sets["112"].terms \
        == conic.face_sets["112"].terms
    assert leading_order(acc.face_set("1010")).alpha == affine(2)
    assert leading_order(acc.face_set("0101")).alpha == affine(0)
    assert acc.meta["time_1010"].startswith("tau")


def test_lifted_heat_operator_table():
    rows = {r.face: r for r in lifted_heat_operator_table()}
    assert str(rows["1010"].prefactor) == "rho_1010^-2"
    assert rows["1010"].model_operator == "b_laplacian_on_cylinder"
    assert rows["1010"].rescaled_time == "tau = t/(rho_1001*rho_0110)^2"
    assert rows["0101"].prefactor.is_one()
    assert rows["0101"].rescaled_time == "t' = t/(rho_1010)^2"
    assert str(rows["0110"].prefactor) == "rho_0110^-2"
    assert str(rows["1001"].prefactor) == "rho_1001^-2"
    assert rows["0110"].model_operator == "none"


def test_orders_json_round_trip():
    el = canonical_kernel_orders("acc_heat_kernel")
    back = orders_from_jsonable(orders_to_jsonable(el))
    assert back.calculus == "acc"
    assert back.k == el.k
    assert back.face_sets["1010"].terms == el.face_sets["1010"].terms
    assert back.coefficients["0101"].face_sets["112"].terms \
        == el.coefficients["0101"].face_sets["112"].terms
