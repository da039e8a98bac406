"""Arithmetic of polyhomogeneous index sets.

An index set is a discrete collection of (exponent, log-power) pairs closed
under integer exponent steps; it governs the allowed terms
x^alpha (log x)^p of an expansion at a boundary face.  Exponents are exact
affine expressions in the formal dimension (see :mod:`acclab.symbolic`);
log powers are nonnegative integers.

Composition rules add index sets (Minkowski sum), and "vanishes to infinite
order" is modelled by the absorbing sentinel :data:`INFINITE_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .symbolic import AffineExpr, affine

#: generating step for exponents; the composition statements only ever need 1
STEP = 1


class InfiniteOrder:
    """Absorbing sentinel for faces where kernels vanish to infinite order."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE_ORDER"

    def __str__(self):
        return "infinity"


INFINITE_ORDER = InfiniteOrder()

OrderData = Union["IndexSet", InfiniteOrder]


@dataclass(frozen=True)
class IndexTerm:
    """One generator (alpha, p): exponent alpha, log power p >= 0."""

    alpha: AffineExpr
    p: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", affine(self.alpha))
        if self.p < 0 or int(self.p) != self.p:
            raise ValueError(f"log power must be a nonnegative integer: {self.p}")
        object.__setattr__(self, "p", int(self.p))

    def __str__(self):
        return f"({self.alpha},{self.p})"


def _term_order(t: IndexTerm):
    return t.alpha.sort_key(), t.p


def _canonical(terms: Iterable[IndexTerm]) -> Tuple[IndexTerm, ...]:
    """Sort the generators and drop the redundant ones.

    (beta, q) is redundant next to a different term (alpha, p) when
    beta - alpha is a nonnegative integer multiple of the step and q <= p:
    the closure of (alpha, p) already holds it.  So terms compete only
    within a class of equal (cn, cmu, const mod 1), and a term survives
    exactly when every different term of its class at an exponent no
    larger has a smaller log power (exact duplicates count once).

    One sort into the output order (alpha.sort_key(), p) makes the
    exponents of each class ascend and puts equal exponents (and exact
    duplicates) next to each other, largest log power last.  One sweep then
    keeps the last term of each run of equal exponents when its log power
    exceeds the largest one seen so far in its class.
    """
    terms = tuple(terms)
    if len(terms) < 2:
        return terms
    ordered = sorted(terms, key=_term_order)
    keep = []
    symbol = None  # (cn, cmu) of the classes in `best`
    best = {}      # const mod 1 -> largest log power so far
    for t, after in zip(ordered, ordered[1:] + [None]):
        alpha = t.alpha
        if after is not None and after.alpha == alpha:
            continue
        if (alpha.cn, alpha.cmu) != symbol:
            symbol, best = (alpha.cn, alpha.cmu), {}
        c = alpha.const
        cls = (c.numerator % c.denominator, c.denominator)
        if t.p > best.get(cls, -1):
            best[cls] = t.p
            keep.append(t)
    return tuple(keep)


@dataclass(frozen=True)
class IndexSet:
    """Finite generators plus the step 1 closure (alpha + k, p), k in N0."""

    terms: Tuple[IndexTerm, ...]
    name: Optional[str] = None

    def __post_init__(self):
        canon = _canonical(self.terms)
        if not canon:
            raise ValueError(
                "empty index set; use INFINITE_ORDER for infinite-order vanishing")
        object.__setattr__(self, "terms", canon)

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(*pairs, name=None) -> "IndexSet":
        """Build from (alpha, p) pairs; bare numbers mean log power 0."""
        terms = []
        for item in pairs:
            if isinstance(item, IndexTerm):
                terms.append(item)
            elif isinstance(item, tuple):
                terms.append(IndexTerm(affine(item[0]), item[1]))
            else:
                terms.append(IndexTerm(affine(item), 0))
        return IndexSet(tuple(terms), name=name)

    @staticmethod
    def smooth(name=None) -> "IndexSet":
        """The index set of a smooth nonvanishing coefficient: {(0,0)}.

        Without a name this is one shared instance (the class is frozen).
        """
        return _SMOOTH if name is None else IndexSet.of(0, name=name)

    # -- algebra --------------------------------------------------------
    def shifted(self, c) -> "IndexSet":
        return indexset_shift(self, c)

    def __iter__(self):
        return iter(self.terms)

    def __str__(self):
        body = ",".join(str(t) for t in self.terms)
        return f"{{{body}}}"


_SMOOTH = IndexSet.of(0)


def indexset_sum(e: OrderData, f: OrderData) -> OrderData:
    """Minkowski sum: multiplication of the corresponding expansions.

    The result carries no name; an unnamed operand summed with the shared
    smooth set is returned as it is.
    """
    if isinstance(e, InfiniteOrder) or isinstance(f, InfiniteOrder):
        return INFINITE_ORDER
    if e is _SMOOTH and f.name is None:
        return f
    if f is _SMOOTH and e.name is None:
        return e
    terms = [IndexTerm(a.alpha + b.alpha, a.p + b.p)
             for a in e.terms for b in f.terms]
    return IndexSet(tuple(terms))


def indexset_shift(e: OrderData, c) -> OrderData:
    """Shift every exponent by c, e.g. the -1/2 half-density normalization."""
    if isinstance(e, InfiniteOrder):
        return INFINITE_ORDER
    c = affine(c)
    return IndexSet(tuple(IndexTerm(t.alpha + c, t.p) for t in e.terms),
                    name=e.name)


def indexset_scale(e: OrderData, m: int) -> OrderData:
    """Pull an index set back through x = rho^m (exponents multiply by m)."""
    if isinstance(e, InfiniteOrder):
        return INFINITE_ORDER
    if m == 0:
        return IndexSet.smooth()
    return IndexSet(tuple(IndexTerm(t.alpha * m, t.p) for t in e.terms),
                    name=e.name)


def indexset_union(sets: Iterable[OrderData]) -> OrderData:
    """Union-then-canonicalize; the 'minimum' of orders under pushforward."""
    finite = [s for s in sets if not isinstance(s, InfiniteOrder)]
    if not finite:
        return INFINITE_ORDER
    terms = []
    for s in finite:
        terms.extend(s.terms)
    return IndexSet(tuple(terms))


def leading_order(e: OrderData, n=3, mu0=0) -> IndexTerm:
    """Term with minimal exponent; ties resolved by maximal log power.

    Exponents are compared after substituting n and mu0 (default n=3,
    mu0=0, the dimension at which every composition rule orders them).
    """
    if isinstance(e, InfiniteOrder):
        raise ValueError("leading order of the infinite-order sentinel is undefined")
    best = None
    best_key = None
    for t in e.terms:
        key = (t.alpha.subs(n=n, mu0=mu0), -t.p)
        if best_key is None or key < best_key:
            best, best_key = t, key
    return best


# -- JSON round trip -----------------------------------------------------

def order_to_jsonable(e: OrderData):
    """Serialize; constant exponents become [num, den, p] triples."""
    if isinstance(e, InfiniteOrder):
        return "infinity"
    out = []
    for t in e.terms:
        a = t.alpha
        if a.is_constant():
            out.append([a.const.numerator, a.const.denominator, t.p])
        else:
            out.append({
                "const": [a.const.numerator, a.const.denominator],
                "n": [a.cn.numerator, a.cn.denominator],
                "mu0": [a.cmu.numerator, a.cmu.denominator],
                "p": t.p,
            })
    return {"terms": out, "step": STEP, **({"name": e.name} if e.name else {})}


def order_from_jsonable(data) -> OrderData:
    if data == "infinity":
        return INFINITE_ORDER
    if isinstance(data, dict) and "terms" in data:
        name = data.get("name")
        items = data["terms"]
    else:
        name, items = None, data
    terms = []
    for item in items:
        if isinstance(item, dict):
            alpha = AffineExpr(Fraction(*item["const"]), Fraction(*item["n"]),
                               Fraction(*item.get("mu0", [0, 1])))
            terms.append(IndexTerm(alpha, item["p"]))
        else:
            num, den, p = item
            terms.append(IndexTerm(affine(Fraction(num, den)), p))
    return IndexSet(tuple(terms), name=name)
