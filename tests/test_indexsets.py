"""Index-set arithmetic: worked examples and algebra laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acclab.indexsets import (INFINITE_ORDER, IndexSet, IndexTerm, _canonical,
                              indexset_shift, indexset_sum, indexset_union,
                              leading_order, order_from_jsonable,
                              order_to_jsonable)
from acclab.symbolic import MU0, N, AffineExpr, affine


def test_sum_additive_identity():
    e = IndexSet.of((2, 1), (Fraction(7, 2), 0))
    assert indexset_sum(IndexSet.of(0), e).terms == e.terms


def test_sum_exponents_add():
    out = indexset_sum(IndexSet.of(1), IndexSet.of(2))
    assert leading_order(out) == IndexTerm(affine(3), 0)


def test_sum_log_powers_add():
    out = indexset_sum(IndexSet.of((1, 1)), IndexSet.of((1, 1)))
    assert leading_order(out) == IndexTerm(affine(2), 2)


def test_leading_min_alpha():
    e = IndexSet.of((2, 0), (3, 1))
    assert leading_order(e) == IndexTerm(affine(2), 0)


def test_leading_log_dominates_at_equal_alpha():
    e = IndexSet.of((2, 0), (2, 3))
    assert leading_order(e) == IndexTerm(affine(2), 3)


def test_union_removes_step_shifted_copy():
    e = IndexSet.of(0)
    out = indexset_union([e, indexset_shift(e, 5)])
    assert leading_order(out) == IndexTerm(affine(0), 0)
    assert out.terms == (IndexTerm(affine(0), 0),)


def test_shift_half_density_normalization():
    assert indexset_shift(IndexSet.of(0), Fraction(-1, 2)).terms == (
        IndexTerm(affine(Fraction(-1, 2)), 0),)


def test_shift_zero_identity():
    e = IndexSet.of((1, 2), (Fraction(5, 3), 0))
    assert indexset_shift(e, 0).terms == e.terms


def test_shift_symbolic_dimension_offset():
    # alpha = 1 shifted by -(n+2)/2 evaluates to -3/2 at n = 3
    out = indexset_shift(IndexSet.of((1, 2)), -(N + 2) / 2)
    lead = leading_order(out, n=3)
    assert lead.alpha.subs(n=3) == Fraction(-3, 2)
    assert lead.p == 2


def test_sum_with_smooth_set_is_unnamed():
    e = IndexSet.of((2, 1), name="E_110")
    out = indexset_sum(IndexSet.smooth(), e)
    assert out.name is None and out.terms == e.terms
    assert indexset_sum(e, IndexSet.smooth()).name is None
    bare = IndexSet.of((2, 1))
    assert indexset_sum(IndexSet.smooth(), bare) is bare
    assert indexset_sum(bare, IndexSet.smooth()) is bare


def test_named_smooth_set_keeps_its_name():
    e = IndexSet.smooth("E_220")
    assert e.name == "E_220"
    assert e.terms == IndexSet.smooth().terms == (IndexTerm(affine(0), 0),)
    assert IndexSet.smooth().name is None
    assert indexset_sum(IndexSet.smooth(), e).name is None


def test_empty_set_rejected():
    with pytest.raises(ValueError, match="INFINITE_ORDER"):
        IndexSet(())


def test_infinite_absorbs():
    e = IndexSet.of(1)
    assert indexset_sum(INFINITE_ORDER, e) is INFINITE_ORDER
    assert indexset_sum(e, INFINITE_ORDER) is INFINITE_ORDER
    assert indexset_union([INFINITE_ORDER, INFINITE_ORDER]) is INFINITE_ORDER


def test_leading_of_infinite_rejected():
    with pytest.raises(ValueError):
        leading_order(INFINITE_ORDER)


def test_json_round_trip():
    e = IndexSet.of((Fraction(-1, 2), 0), (2, 1), name="E_110")
    assert order_from_jsonable(order_to_jsonable(e)).terms == e.terms
    assert order_from_jsonable(order_to_jsonable(INFINITE_ORDER)) is INFINITE_ORDER
    sym = IndexSet.of((-(N + 2) / 2, 1))
    assert order_from_jsonable(order_to_jsonable(sym)).terms == sym.terms


# -- randomized algebra laws (fixed seeds via derandomize) -------------------

alphas = st.fractions(min_value=-4, max_value=4, max_denominator=4)
terms = st.tuples(alphas, st.integers(min_value=0, max_value=3))
small_sets = st.lists(terms, min_size=1, max_size=4).map(
    lambda ts: IndexSet.of(*ts))


@settings(max_examples=120, derandomize=True)
@given(small_sets, small_sets)
def test_sum_commutative(e, f):
    assert indexset_sum(e, f).terms == indexset_sum(f, e).terms


@settings(max_examples=120, derandomize=True)
@given(small_sets, small_sets, small_sets)
def test_sum_associative(e, f, g):
    lhs = indexset_sum(indexset_sum(e, f), g)
    rhs = indexset_sum(e, indexset_sum(f, g))
    assert lhs.terms == rhs.terms


@settings(max_examples=120, derandomize=True)
@given(small_sets, small_sets)
def test_leading_alpha_additive(e, f):
    lead = leading_order(indexset_sum(e, f))
    assert lead.alpha.subs() == (leading_order(e).alpha
                                 + leading_order(f).alpha).subs()


@settings(max_examples=120, derandomize=True)
@given(small_sets)
def test_canonicalization_idempotent(e):
    assert IndexSet(e.terms).terms == e.terms


@settings(max_examples=120, derandomize=True)
@given(small_sets, st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_shift_preserves_log_powers(e, c):
    shifted = indexset_shift(e, c)
    assert sorted(t.p for t in shifted.terms) == sorted(t.p for t in e.terms)


# -- the sorted sweep against the pairwise rule it replaced -------------------

def _pairwise_canonical(terms):
    """Every term that no other term generates, by checking all pairs."""
    def dominates(u, t):
        diff = t.alpha - u.alpha
        return (diff.is_constant() and diff.const.denominator == 1
                and diff.const >= 0 and t.p <= u.p
                and (diff.const > 0 or t.p < u.p))

    terms = sorted(set(terms), key=lambda t: (t.alpha.sort_key(), t.p))
    return tuple(t for t in terms
                 if not any(dominates(u, t) for u in terms if u != t))


log_powers = st.integers(min_value=0, max_value=3)
exponents = st.builds(
    AffineExpr,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([0, 1, Fraction(-1, 2)]),
    st.sampled_from([0, 0, 1]))


@st.composite
def term_lists(draw):
    """Terms with exact duplicates, repeated exponents at other log powers,
    integer-step copies and copies a non-integer gap away mixed in, in
    random order."""
    base = draw(st.lists(st.tuples(exponents, log_powers), max_size=6))
    extra = []
    for alpha, p in base:
        kind = draw(st.sampled_from(["none", "copy", "log", "step", "gap"]))
        if kind == "copy":
            extra.append((alpha, p))
        elif kind == "log":
            extra.append((alpha, draw(log_powers)))
        elif kind == "step":
            extra.append((alpha + draw(st.integers(-2, 2)), draw(log_powers)))
        elif kind == "gap":
            gap = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                        Fraction(-1, 3)]))
            extra.append((alpha + gap, draw(log_powers)))
    terms = [IndexTerm(a, p) for a, p in base + extra]
    return draw(st.permutations(terms))


def test_canonical_sweep_worked_example():
    terms = [IndexTerm(affine(a), p) for a, p in [
        (0, 0), (0, 0), (1, 0), (Fraction(1, 2), 0), (Fraction(3, 2), 1),
        (Fraction(1, 3), 2), (Fraction(4, 3), 2), (Fraction(2, 3), 1),
        (2, 0), (2, 2), (1, 1)]]
    terms += [IndexTerm(N, 0), IndexTerm(N + 1, 1), IndexTerm(N + 2, 1),
              IndexTerm(MU0 - 1, 0), IndexTerm(MU0 + Fraction(1, 2), 0)]
    kept = _canonical(terms)
    assert kept == _pairwise_canonical(terms)
    assert [str(t) for t in kept] == [
        "(0,0)", "(1/3,2)", "(1/2,0)", "(2/3,1)", "(1,1)", "(3/2,1)", "(2,2)",
        "(mu0-1,0)", "(mu0+1/2,0)", "(n,0)", "(n+1,1)"]


@settings(max_examples=300, derandomize=True)
@given(term_lists())
def test_canonical_sweep_matches_pairwise_rule(terms):
    assert _canonical(terms) == _pairwise_canonical(terms)
    assert _canonical(_canonical(terms)) == _canonical(terms)
