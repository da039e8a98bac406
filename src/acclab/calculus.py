"""Heat-calculus order data and composition rules.

A calculus element is recorded by its diagonal order parameter k and the
index sets of its expansions at the non-diagonal boundary faces.  The
normalizations live in the calculus definitions: the b and scattering
calculi carry offsets -1/2 (front face) and -(n+2)/2 (diagonal-boundary
face), the diagonal face order is always -(n+3)/2 - k, and the conic
calculus carries its index sets unnormalized.

The scattering composition rule is implemented twice: as a closed-form
rule and as the full pushforward pipeline over the triple heat space (lift both factors, multiply, add the density weight, push
forward along the center projection).  The two must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .corners import BMapSpec, Monomial
from .indexsets import (INFINITE_ORDER, IndexSet, IndexTerm, InfiniteOrder,
                        OrderData, indexset_scale, indexset_shift,
                        indexset_sum, indexset_union, leading_order)
from .spaces import heat_half_density_weight, sc_triple_maps
from .symbolic import AffineExpr, MU0, N, affine


class CompositionError(ValueError):
    """A composition precondition or pushforward integrability failure."""


_CALCULUS_FACES = {
    "b": ("110",),
    "conic": ("100", "010", "112"),
    "sc": ("110", "220"),
    "acc": ("1010", "0101", "1001", "0110"),
}

# offsets of the polyhomogeneous normalizations per calculus and face
_OFFSETS = {
    ("b", "110"): affine(Fraction(-1, 2)),
    ("sc", "110"): affine(Fraction(-1, 2)),
    ("sc", "220"): -(N + 2) / 2,
}


@dataclass
class CalculusOrders:
    """Order data of a heat-calculus element."""

    calculus: str
    k: AffineExpr
    face_sets: Dict[str, OrderData]
    coefficients: Dict[str, "CalculusOrders"] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.calculus not in _CALCULUS_FACES:
            raise CompositionError(f"unknown calculus {self.calculus!r}")
        self.k = affine(self.k)
        for f in _CALCULUS_FACES[self.calculus]:
            if f not in self.face_sets:
                raise CompositionError(
                    f"{self.calculus} element missing index set at F_{f}")

    def face_set(self, face: str) -> OrderData:
        return self.face_sets[face]

    def diagonal_order(self) -> AffineExpr:
        """Order at the diagonal face: -(n+3)/2 - k."""
        return -(N + 3) / 2 - self.k

    def normalized_order(self, face: str) -> OrderData:
        """Index set at the face including the calculus normalization."""
        off = _OFFSETS.get((self.calculus, face))
        e = self.face_sets[face]
        return e if off is None else indexset_shift(e, off)

    def leading_orders(self) -> Dict[str, str]:
        """Published-style leading-order table (E-part leaders; diagonal order)."""
        out = {}
        for f in _CALCULUS_FACES[self.calculus]:
            e = self.face_sets[f]
            out[f"F_{f}"] = ("infinity" if isinstance(e, InfiniteOrder)
                             else str(leading_order(e).alpha))
        out["F_d2" if self.calculus != "acc" else "diagonal"] = str(self.diagonal_order())
        return out


def _require_same(a: CalculusOrders, b: CalculusOrders, calc: str):
    if a.calculus != calc or b.calculus != calc:
        raise CompositionError(
            f"mixed calculi: {a.calculus} vs {b.calculus}, expected {calc}")


def b_compose(a: CalculusOrders, b: CalculusOrders) -> CalculusOrders:
    """Composition in the cylindrical-end heat calculus: orders add."""
    _require_same(a, b, "b")
    return CalculusOrders("b", a.k + b.k,
                          {"110": indexset_sum(a.face_set("110"), b.face_set("110"))})


def conic_compose(a: CalculusOrders, b: CalculusOrders) -> CalculusOrders:
    """Conic heat calculus composition, with its stated preconditions.

    Each precondition is enforced on the leading exponents and reported by
    name when violated.
    """
    _require_same(a, b, "conic")
    alpha_010 = leading_order(a.face_set("010")).alpha
    alpha_112 = leading_order(a.face_set("112")).alpha
    beta_100 = leading_order(b.face_set("100")).alpha
    beta_112 = leading_order(b.face_set("112")).alpha
    checks = [
        ("beta_112 + alpha_010 > 0", (beta_112 + alpha_010).subs() > 0),
        ("alpha_112 + beta_100 > 0", (alpha_112 + beta_100).subs() > 0),
        ("-k_a > 0", (-a.k).subs() > 0),
        ("-k_b > 0", (-b.k).subs() > 0),
        ("beta_100 + alpha_010 > -1", (beta_100 + alpha_010).subs() > -1),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise CompositionError("conic composition preconditions violated: "
                               + "; ".join(f"{name} violated" for name in failed))
    return CalculusOrders("conic", a.k + b.k, {
        "100": a.face_set("100"),
        "010": b.face_set("010"),
        "112": indexset_sum(a.face_set("112"), b.face_set("112")),
    })


def sc_compose(a: CalculusOrders, b: CalculusOrders) -> CalculusOrders:
    """Scattering heat calculus composition, closed form."""
    _require_same(a, b, "sc")
    return CalculusOrders("sc", a.k + b.k, {
        "110": indexset_sum(a.face_set("110"), b.face_set("110")),
        "220": indexset_sum(a.face_set("220"), b.face_set("220")),
    })


def acc_compose(a: CalculusOrders, b: CalculusOrders) -> CalculusOrders:
    """Composition of the parameter-dependent calculus.

    The epsilon-direction index sets add and the coefficient elements
    compose in their own calculi (b at the scattering front face, conic at
    the conic front face).  The underlying composition rule is stated as an
    expectation, so results carry a 'conjectural' flag.
    """
    _require_same(a, b, "acc")
    face_sets = {f: indexset_sum(a.face_set(f), b.face_set(f))
                 for f in _CALCULUS_FACES["acc"]}
    coeffs = {}
    if "1010" in a.coefficients and "1010" in b.coefficients:
        coeffs["1010"] = b_compose(a.coefficients["1010"], b.coefficients["1010"])
    if "0101" in a.coefficients and "0101" in b.coefficients:
        coeffs["0101"] = conic_compose(a.coefficients["0101"], b.coefficients["0101"])
    return CalculusOrders("acc", a.k + b.k, face_sets, coefficients=coeffs,
                          meta={"status": "conjectural per the published "
                                          "composition expectation"})


# ---------------------------------------------------------------------------
# pushforward pipeline
# ---------------------------------------------------------------------------

def pullback_orders(lift: BMapSpec, orders: Dict[str, OrderData]) -> Dict[str, OrderData]:
    """Pull polyhomogeneous orders back through a b-map.

    The order at a source face F is the sum over target faces G of the
    order at G scaled by the lifting exponent e(G, F); faces not hit by any
    lift carry the smooth set {(0,0)}.
    """
    out: Dict[str, OrderData] = {}
    for f, column in lift.columns.items():
        acc: Optional[OrderData] = None
        for g, e in column:
            if g in orders:
                scaled = indexset_scale(orders[g], e)
                acc = scaled if acc is None else indexset_sum(acc, scaled)
        out[f] = IndexSet.smooth() if acc is None else acc
    return out


def pushforward_orders(map_c: BMapSpec, orders: Dict[str, OrderData],
                       bweight: Monomial) -> Dict[str, OrderData]:
    """Push b-density orders forward along a b-fibration.

    `orders` are measured against the total b-density; `bweight` is a
    monomial correction added to them first.  The output order at a target
    face is the union (canonicalized: the minimum) over its preimage faces
    of the corrected orders, scaled by 1/e.  At every face mapping to the
    interior the corrected leading order must be strictly positive.

    Coincident leading orders from different preimage faces may generate
    logarithmic terms; these are not synthesized, only flagged in the
    returned sets' names.
    """
    ok, witness = map_c.is_b_fibration()
    if not ok:
        raise CompositionError(f"{map_c.name} is not a b-fibration; "
                               f"source face {witness[0]} maps into the corner "
                               f"{witness[1]} & {witness[2]}")
    weights = bweight.as_dict()
    corrected: Dict[str, OrderData] = {}
    for f in map_c.columns:
        w = weights.get(f)
        o = orders.get(f, IndexSet.smooth())
        if w is not None:
            o = indexset_sum(o, IndexSet.of(w))
        corrected[f] = o

    for f in map_c.interior_faces():
        if f not in corrected:
            continue
        o = corrected[f]
        if isinstance(o, InfiniteOrder):
            continue
        alpha = leading_order(o).alpha
        if alpha.subs() <= 0:
            raise CompositionError(
                f"pushforward integrability violated at interior face {f}: "
                f"b-density order {alpha} is not positive")

    out: Dict[str, OrderData] = {}
    for g, preimage in map_c.rows.items():
        pieces = []
        for f, e in preimage:
            o = corrected[f]
            if isinstance(o, InfiniteOrder):
                pieces.append(INFINITE_ORDER)
            elif e == 1:
                pieces.append(o)
            else:
                pieces.append(IndexSet(tuple(IndexTerm(t.alpha / e, t.p)
                                             for t in o.terms)))
        finite = [p for p in pieces if not isinstance(p, InfiniteOrder)]
        if len(finite) >= 2:
            leaders = sorted(leading_order(p).alpha.subs() for p in finite)
            if leaders[0] == leaders[1]:
                merged = indexset_union(pieces)
                out[g] = IndexSet(merged.terms,
                                  name="coincident-orders(log terms not synthesized)")
                continue
        out[g] = indexset_union(pieces)
    return out


@lru_cache(maxsize=None)
def _pipeline() -> Tuple[Dict[str, BMapSpec], Monomial]:
    """The projections beta_L, beta_R and beta_C off the triple heat space,
    and the total density correction of the pipeline as b-density orders.

    The correction pulls the heat half-density normalization back through
    all three projections, multiplies by the Jacobian factors of the
    triple-space blowups and by one extra power of every face (density to
    b-density).
    """
    maps = sc_triple_maps()
    triple, double = maps["beta_C"].source, maps["beta_C"].target
    half = heat_half_density_weight(double)  # nu against the lift of mu
    density = Monomial.one()
    for name in ("beta_L", "beta_R", "beta_C"):
        density = density * maps[name].lift_monomial(half)
    density = triple.density_lift(density)
    for f in triple.faces:
        if not f.reconstructed:
            density = density.times_face(f.name, 1)
    return maps, density


def _full_orders(el: CalculusOrders) -> Dict[str, OrderData]:
    """Normalized orders of an sc element at every double-space face."""
    return {
        "110": el.normalized_order("110"),
        "220": el.normalized_order("220"),
        "d2": IndexSet.of(el.diagonal_order()),
        "100": INFINITE_ORDER,
        "010": INFINITE_ORDER,
        "001": INFINITE_ORDER,
    }


def sc_compose_pipeline(a: CalculusOrders, b: CalculusOrders) -> CalculusOrders:
    """Scattering composition via the triple-space pushforward.

    Lift the first factor by the left projection and the second by the
    right one, add the density corrections, push forward along the center
    projection, then peel the calculus normalizations back off.  Must agree
    with :func:`sc_compose` wherever the integrability preconditions
    (-k_a > 0, -k_b > 0) hold.
    """
    _require_same(a, b, "sc")
    maps, density = _pipeline()
    pa = pullback_orders(maps["beta_L"], _full_orders(a))
    pb = pullback_orders(maps["beta_R"], _full_orders(b))
    combined = {f: indexset_sum(pa[f], pb[f]) for f in pa}
    pushed = pushforward_orders(maps["beta_C"], combined, density)
    for side in ("100", "010", "001"):
        if not isinstance(pushed[side], InfiniteOrder):
            raise CompositionError(f"pipeline produced a finite order at the "
                                   f"side face F_{side}: {pushed[side]}")
    e110 = indexset_shift(pushed["110"], -_OFFSETS[("sc", "110")] + affine(-1))
    e220 = indexset_shift(pushed["220"], -_OFFSETS[("sc", "220")] + affine(-1))
    d2_lead = leading_order(pushed["d2"]).alpha - 1
    k_out = -(N + 3) / 2 - d2_lead
    return CalculusOrders("sc", k_out, {"110": e110, "220": e220},
                          meta={"route": "pushforward-pipeline"})


# ---------------------------------------------------------------------------
# canonical kernels and the lifted operator table
# ---------------------------------------------------------------------------

def canonical_kernel_orders(kind: str) -> CalculusOrders:
    """Published leading-order data of the four model heat kernels."""
    if kind == "b_heat_kernel":
        return CalculusOrders("b", -2, {"110": IndexSet.smooth(name="E_110")},
                              meta={"F_110_long_time": "O(t^-1/2) as t->infinity"})
    if kind == "conic_heat_kernel":
        front = affine(Fraction(-3, 2)) + (2 * N + 1) / 2 + 2 * MU0
        side = -(N + 1) / 2 + MU0
        return CalculusOrders("conic", -2, {
            "112": IndexSet.of(front, name="E_112"),
            "100": IndexSet.of(side, name="E_100"),
            "010": IndexSet.of(side, name="E_010"),
        }, meta={"mu0": "leading exponent at the boundary faces, set by the "
                        "cross-section spectrum"})
    if kind == "sc_heat_kernel":
        return CalculusOrders("sc", -2, {
            "110": INFINITE_ORDER,
            "220": IndexSet.smooth(name="E_220"),
        })
    if kind == "acc_heat_kernel":
        return CalculusOrders("acc", -2, {
            "1010": IndexSet.of(2, name="E_1010"),
            "0101": IndexSet.smooth(name="E_0101"),
            "1001": IndexSet.of(2, name="E_1001"),
            "0110": IndexSet.of(2, name="E_0110"),
        }, coefficients={
            "1010": canonical_kernel_orders("b_heat_kernel"),
            "0101": canonical_kernel_orders("conic_heat_kernel"),
        }, meta={"time_1010": "tau = t/(rho_1001*rho_0110)^2",
                 "time_0101": "t' = t/(rho_1010)^2"})
    raise CompositionError(f"unknown kernel kind {kind!r}")


@dataclass(frozen=True)
class LiftedOperatorFace:
    face: str
    prefactor: Monomial
    model_operator: str
    rescaled_time: Optional[str]


def lifted_heat_operator_table() -> List[LiftedOperatorFace]:
    """Leading behaviour of the lifted heat operator at the eps=0 faces."""
    return [
        LiftedOperatorFace("1010", Monomial.from_dict({"1010": -2}),
                           "b_laplacian_on_cylinder",
                           "tau = t/(rho_1001*rho_0110)^2"),
        LiftedOperatorFace("0101", Monomial.one(),
                           "conic_laplacian_on_cone",
                           "t' = t/(rho_1010)^2"),
        LiftedOperatorFace("0110", Monomial.from_dict({"0110": -2}), "none", None),
        LiftedOperatorFace("1001", Monomial.from_dict({"1001": -2}), "none", None),
    ]


# ---------------------------------------------------------------------------
# JSON round trip for CLI use
# ---------------------------------------------------------------------------

def orders_to_jsonable(el: CalculusOrders) -> dict:
    from .indexsets import order_to_jsonable
    out = {
        "calculus": el.calculus,
        "k": str(el.k),
        "faces": {f: order_to_jsonable(s) for f, s in el.face_sets.items()},
    }
    if el.coefficients:
        out["coefficients"] = {f: orders_to_jsonable(c)
                               for f, c in el.coefficients.items()}
    if el.meta:
        out["meta"] = dict(el.meta)
    return out


def orders_from_jsonable(data: dict) -> CalculusOrders:
    from .indexsets import order_from_jsonable
    k = affine(data["k"])
    faces = {f: order_from_jsonable(s) for f, s in data["faces"].items()}
    coeffs = {f: orders_from_jsonable(c)
              for f, c in data.get("coefficients", {}).items()}
    return CalculusOrders(data["calculus"], k, faces, coefficients=coeffs,
                          meta=dict(data.get("meta", {})))
