"""Combinatorial manifolds with corners: faces, blowups, monomial lifts.

Spaces are modelled by their boundary-face combinatorics only: a space is a
list of faces, an ordered blowup history and a table of tracked *components*
(boundary defining scalars like x, x', t plus diagonal distance functions)
whose lifts are exact monomials in the face defining functions.  That is all
the downstream order bookkeeping consumes.

A blowup center is identified by the faces containing it, the components
vanishing on it residually, the directions that scale quadratically
(parabolic blowups), and its configured codimension.  When a center is blown
up, every tracked component v acquires a factor rho_new^w where w is the
order of vanishing of v at the center and quadratic directions count twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .symbolic import AffineExpr, affine

ORIGIN_BOUNDARY = "original_boundary"
ORIGIN_RADIAL = "radial_blowup"
ORIGIN_PARABOLIC = "parabolic_blowup"
ORIGIN_RECONSTRUCTED = "reconstructed"


class BMapError(ValueError):
    """A lift failed to be a monomial, or referenced an unknown face."""


# ---------------------------------------------------------------------------
# monomials in boundary defining functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """Product of face defining functions with exact (affine) exponents."""

    exponents: Tuple[Tuple[str, AffineExpr], ...] = ()

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "Monomial":
        items = []
        for k in sorted(d):
            e = affine(d[k])
            if e != affine(0):
                items.append((k, e))
        return Monomial(tuple(items))

    @staticmethod
    def one() -> "Monomial":
        return Monomial()

    def as_dict(self) -> Dict[str, AffineExpr]:
        return dict(self.exponents)

    def exponent(self, face: str) -> AffineExpr:
        return self.as_dict().get(face, affine(0))

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for k, e in other.exponents:
            d[k] = d.get(k, affine(0)) + e
        return Monomial.from_dict(d)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for k, e in other.exponents:
            d[k] = d.get(k, affine(0)) - e
        return Monomial.from_dict(d)

    def __pow__(self, m) -> "Monomial":
        return Monomial.from_dict({k: e * m for k, e in self.exponents})

    def times_face(self, face: str, power) -> "Monomial":
        d = self.as_dict()
        d[face] = d.get(face, affine(0)) + affine(power)
        return Monomial.from_dict(d)

    def is_one(self) -> bool:
        return not self.exponents

    def integer_exponents(self) -> Dict[str, int]:
        out = {}
        for k, e in self.exponents:
            if not e.is_integer() or e.const < 0:
                raise BMapError(f"non-monomial lift: exponent {e} at {k}")
            out[k] = int(e.const)
        return out

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        bits = []
        for k, e in self.exponents:
            if e == affine(1):
                bits.append(f"rho_{k}")
            elif e.is_constant() and e.const.denominator == 1:
                bits.append(f"rho_{k}^{e.const}")
            else:
                bits.append(f"rho_{k}^({e})")
        return "*".join(bits)


def parse_monomial(text: str) -> Monomial:
    """Parse 'rho_110^2*rho_001' (also '1' for the trivial monomial)."""
    text = text.strip()
    if text in ("1", ""):
        return Monomial.one()
    d: Dict[str, AffineExpr] = {}
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor.startswith("rho_"):
            raise BMapError(f"cannot parse monomial factor {factor!r}")
        body = factor[4:]
        if "^" in body:
            face, power = body.split("^", 1)
            e = affine(power.strip("()"))
        else:
            face, e = body, affine(1)
        d[face] = d.get(face, affine(0)) + e
    return Monomial.from_dict(d)


# ---------------------------------------------------------------------------
# faces, centers, history
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representative:
    """A radial-type distance function (sum_i c_i^{m_i})^{1/m}.

    Its order of vanishing at a center is min_i(m_i * ord(c_i)) / m; the
    lift machinery checks that this is a nonnegative integer.
    """

    components: Tuple[Tuple[str, int], ...]
    root: int = 1

    def order_at(self, comp_orders: Dict[str, Fraction]) -> Fraction:
        vals = [Fraction(m) * Fraction(comp_orders.get(c, 0))
                for c, m in self.components]
        return min(vals) / self.root


@dataclass(frozen=True)
class Face:
    name: str
    origin: str
    codim: Optional[AffineExpr] = None
    geometry: Optional[str] = None
    reconstructed: bool = False


@dataclass(frozen=True)
class BlowupCenter:
    """Center data: face membership, residual vanishing, quadratic scaling.

    `vanishing` lists components that vanish at the center beyond what face
    membership implies (diagonal distances, mainly), with their orders.
    `parabolic` labels directions scaling quadratically; a label naming a
    face doubles that face's contribution, a label naming a component
    doubles its residual entry.
    """

    contained_in_faces: FrozenSet[str] = frozenset()
    vanishing: Tuple[Tuple[str, int], ...] = ()
    parabolic: FrozenSet[str] = frozenset()
    codim: AffineExpr = affine(2)

    @staticmethod
    def make(faces=(), vanishing=None, parabolic=(), codim=2):
        van = tuple(sorted((vanishing or {}).items()))
        return BlowupCenter(frozenset(faces), van, frozenset(parabolic),
                            affine(codim))


@dataclass(frozen=True)
class HistoryEvent:
    center: BlowupCenter
    face_name: str


@dataclass
class CornerSpace:
    """Faces + blowup history + monomial lifts of the tracked components."""

    name: str
    faces: List[Face] = field(default_factory=list)
    components: Dict[str, Monomial] = field(default_factory=dict)
    history: List[HistoryEvent] = field(default_factory=list)
    display_faces: Optional[List[str]] = None
    corners: List[Tuple[str, Tuple[str, ...], str]] = field(default_factory=list)
    jacobian_overrides: Dict[str, AffineExpr] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    # -- queries ----------------------------------------------------------
    def face(self, name: str) -> Face:
        for f in self.faces:
            if f.name == name:
                return f
        raise BMapError(f"{self.name}: unknown face {name!r}")

    def face_names(self) -> List[str]:
        return [f.name for f in self.faces]

    def has_face(self, name: str) -> bool:
        return any(f.name == name for f in self.faces)

    def lift(self, var: str) -> Monomial:
        if var not in self.components:
            raise BMapError(f"{self.name}: unknown scalar/component {var!r}")
        return self.components[var]

    # -- construction -----------------------------------------------------
    def add_boundary_face(self, name: str, defines: Optional[str] = None,
                          geometry: Optional[str] = None) -> None:
        """Append an original boundary hypersurface; `defines` names the
        scalar component that is its defining function."""
        self.faces.append(Face(name, ORIGIN_BOUNDARY, geometry=geometry))
        if defines is not None:
            self.components[defines] = Monomial.from_dict({name: 1})

    def add_component(self, comp: str) -> None:
        """Track a component that vanishes at no original face (a diagonal
        distance or a total-time variable; both lift the same way)."""
        self.components[comp] = Monomial.one()

    def vanishing_orders(self, center: BlowupCenter) -> Dict[str, Fraction]:
        """Order of vanishing of every tracked component at the center."""
        for fname in center.contained_in_faces:
            if not self.has_face(fname):
                raise BMapError(f"{self.name}: center references unknown face {fname!r}")
        residual = dict(center.vanishing)
        orders: Dict[str, Fraction] = {}
        for comp, mono in self.components.items():
            w = Fraction(0)
            for fname in center.contained_in_faces:
                e = mono.exponent(fname)
                if not e.is_integer():
                    raise BMapError(f"symbolic exponent in lift of {comp}")
                mult = 2 if fname in center.parabolic else 1
                w += Fraction(int(e.const) * mult)
            res = residual.get(comp, 0)
            if res:
                mult = 2 if comp in center.parabolic else 1
                w += Fraction(res * mult)
            orders[comp] = w
        return orders

    def blow_up(self, center: BlowupCenter, name: str,
                geometry: Optional[str] = None) -> None:
        """Blow up `center`, appending the face `name` and updating lifts."""
        if self.has_face(name):
            raise BMapError(f"{self.name}: face {name!r} already exists")
        origin = ORIGIN_PARABOLIC if center.parabolic else ORIGIN_RADIAL
        orders = self.vanishing_orders(center)
        for comp, w in orders.items():
            if w:
                self.components[comp] = self.components[comp].times_face(name, w)
        self.faces.append(Face(name, origin, codim=center.codim,
                               geometry=geometry))
        self.history.append(HistoryEvent(center, name))

    # -- representative lifts ----------------------------------------------
    def lift_representative(self, rep: Representative) -> Monomial:
        """Exact monomial lift of a radial-type distance function.

        Blowups only append faces, so the exponent of a face in a component's
        lift is that component's order of vanishing at the face.
        """
        lifts = {c: self.components[c].integer_exponents()
                 for c, _ in rep.components if c in self.components}
        out: Dict[str, int] = {}
        for f in self.faces:
            w = rep.order_at({c: e.get(f.name, 0) for c, e in lifts.items()})
            if w < 0 or w.denominator != 1:
                raise BMapError(f"representative lifts with non-integral "
                                f"order {w} at {f.name}")
            if w:
                out[f.name] = int(w)
        return Monomial.from_dict(out)

    # -- densities ----------------------------------------------------------
    def jacobian_exponent(self, face_name: str) -> AffineExpr:
        """Density lift exponent at a blown-up face.

        Default rule: codim - 1 for a radial center, plus one per quadratic
        direction.  Per-face overrides (calibrated against published half
        density displays) take precedence.
        """
        if face_name in self.jacobian_overrides:
            return self.jacobian_overrides[face_name]
        for ev in self.history:
            if ev.face_name == face_name:
                return ev.center.codim - 1 + len(ev.center.parabolic)
        face = self.face(face_name)
        if face.origin == ORIGIN_BOUNDARY:
            return affine(0)
        raise BMapError(f"{self.name}: unconfigured face {face_name!r}")

    def density_lift(self, weight: Monomial) -> Monomial:
        """Lift a density weight through the blowup history.

        The input weight is a monomial over this space's faces; the result
        multiplies in rho_F^{J_F} for every blown-up face F.
        """
        out = weight
        for ev in self.history:
            out = out.times_face(ev.face_name,
                                 self.jacobian_exponent(ev.face_name))
        return out


# ---------------------------------------------------------------------------
# b-maps
# ---------------------------------------------------------------------------

@dataclass
class BMapSpec:
    """A b-map recorded by the monomial lifts of target defining functions.

    The lifts are read once into the nonzero integer lifting exponents
    e(target, source), and every query reads those tables: `rows` maps each
    target face to its preimage faces (source face, e), sorted by source
    face; `columns` maps each source face that carries orders (reconstructed
    faces are left out) to its (target face, e) pairs, empty when no lift
    hits it.
    """

    name: str
    source: CornerSpace
    target: CornerSpace
    lifts: Dict[str, Monomial]
    rows: Dict[str, Tuple[Tuple[str, int], ...]] = field(init=False, repr=False)
    columns: Dict[str, Tuple[Tuple[str, int], ...]] = field(init=False, repr=False)

    def __post_init__(self):
        known_order = self.source.face_names()
        known = set(known_order)
        self.rows = {}
        for tface, mono in self.lifts.items():
            row = tuple((sface, e) for sface, e
                        in sorted(mono.integer_exponents().items()) if e)
            for sface, _ in row:
                if sface not in known:
                    raise BMapError(f"{self.name}: lift references unknown "
                                    f"source face {sface!r}")
            self.rows[tface] = row
        self.columns = {f.name: tuple((tface, e)
                                      for tface, row in self.rows.items()
                                      for sface, e in row if sface == f.name)
                        for f in self.source.faces if not f.reconstructed}
        hit = {sface for row in self.rows.values() for sface, _ in row}
        self._interior = tuple(f for f in known_order if f not in hit)
        owner: Dict[str, str] = {}
        witness = None  # the first column, in sorted target order, with two rows
        for tface in sorted(self.rows):
            for sface, _ in self.rows[tface]:
                if witness is None and owner.setdefault(sface, tface) != tface:
                    witness = (sface, owner[sface], tface)
        self._fibration = (witness is None, witness)

    def lift_of(self, target_face: str) -> Monomial:
        if target_face not in self.lifts:
            raise BMapError(f"{self.name}: no lift recorded for {target_face!r}")
        return self.lifts[target_face]

    def lift_monomial(self, m: Monomial) -> Monomial:
        """Pull back a monomial in target defining functions."""
        out = Monomial.one()
        for fname, e in m.exponents:
            out = out * (self.lift_of(fname) ** e)
        return out

    def lifting_matrix(self) -> Dict[Tuple[str, str], int]:
        """e(i, j): exponent of source face j in the lift of target face i."""
        return {(tface, sface): e for tface, row in self.rows.items()
                for sface, e in row}

    def interior_faces(self) -> Tuple[str, ...]:
        """Source faces mapping to the target interior (all-zero column)."""
        return self._interior

    def is_b_fibration(self) -> Tuple[bool, Optional[Tuple[str, str, str]]]:
        """Check no source face maps into a corner of the target.

        Returns (True, None), or (False, (source_face, target_i1, target_i2))
        naming a column with two nonzero rows.
        """
        return self._fibration
