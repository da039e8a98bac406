"""Exact affine expressions in the formal dimension n and the cone exponent mu0.

All order bookkeeping in this package is done with rational coefficients so
that golden-table comparisons are exact.  An :class:`AffineExpr` is a linear
expression ``const + cn*n + cmu*mu0``; comparisons that need a total order go
through :meth:`AffineExpr.subs` with a concrete dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class AffineExpr:
    """Exact expression const + cn*n + cmu*mu0 with Fraction coefficients."""

    const: Fraction = Fraction(0)
    cn: Fraction = Fraction(0)
    cmu: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "const", _frac(self.const))
        object.__setattr__(self, "cn", _frac(self.cn))
        object.__setattr__(self, "cmu", _frac(self.cmu))

    @classmethod
    def _of(cls, const: Fraction, cn: Fraction, cmu: Fraction) -> "AffineExpr":
        """Build from coefficients that are already Fractions, skipping the
        coercion of the public constructor (the arithmetic below)."""
        out = object.__new__(cls)
        fields = out.__dict__
        fields["const"] = const
        fields["cn"] = cn
        fields["cmu"] = cmu
        return out

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other) -> "AffineExpr":
        other = affine(other)
        return AffineExpr._of(self.const + other.const, self.cn + other.cn,
                              self.cmu + other.cmu)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr._of(-self.const, -self.cn, -self.cmu)

    def __sub__(self, other) -> "AffineExpr":
        return self + (-affine(other))

    def __rsub__(self, other) -> "AffineExpr":
        return affine(other) + (-self)

    def __mul__(self, scalar) -> "AffineExpr":
        if isinstance(scalar, AffineExpr):
            if scalar.is_constant():
                scalar = scalar.const
            elif self.is_constant():
                self, scalar = scalar, self.const
            else:
                raise TypeError("product of two non-constant affine expressions")
        s = _frac(scalar)
        return AffineExpr._of(self.const * s, self.cn * s, self.cmu * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "AffineExpr":
        s = _frac(scalar)
        return AffineExpr._of(self.const / s, self.cn / s, self.cmu / s)

    # -- queries ----------------------------------------------------------
    def is_constant(self) -> bool:
        return self.cn == 0 and self.cmu == 0

    def is_integer(self) -> bool:
        return self.is_constant() and self.const.denominator == 1

    def subs(self, n: Rat = 3, mu0: Rat = 0) -> Fraction:
        """Substitute concrete values for n and mu0."""
        return self.const + self.cn * _frac(n) + self.cmu * _frac(mu0)

    def sort_key(self):
        return (self.cn, self.cmu, self.const)

    # -- display ----------------------------------------------------------
    def __str__(self) -> str:
        parts = []
        if self.cn:
            parts.append("n" if self.cn == 1 else
                         "-n" if self.cn == -1 else f"{self.cn}*n")
        if self.cmu:
            parts.append("mu0" if self.cmu == 1 else
                         "-mu0" if self.cmu == -1 else f"{self.cmu}*mu0")
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return f"AffineExpr({self})"


def affine(x) -> AffineExpr:
    """Coerce ints, Fractions and strings like '-3/2+1/2*n' to AffineExpr."""
    if isinstance(x, AffineExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return AffineExpr(const=_frac(x))
    if isinstance(x, str):
        return _parse(x)
    raise TypeError(f"cannot coerce {x!r} to AffineExpr")


def _parse(text: str) -> AffineExpr:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty affine expression")
    # split into signed monomial chunks
    chunks, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*/":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    const = cn = cmu = Fraction(0)
    for chunk in chunks:
        sign = Fraction(1)
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if chunk.endswith("*n") or chunk == "n":
            coeff = Fraction(chunk[:-2]) if chunk != "n" else Fraction(1)
            cn += sign * coeff
        elif chunk.endswith("*mu0") or chunk == "mu0":
            coeff = Fraction(chunk[:-4]) if chunk != "mu0" else Fraction(1)
            cmu += sign * coeff
        elif chunk.startswith("n/"):
            cn += sign / Fraction(chunk[2:])
        else:
            const += sign * Fraction(chunk)
    return AffineExpr(const, cn, cmu)


#: the formal dimension symbol
N = AffineExpr(cn=Fraction(1))
#: the conic leading-exponent symbol of the cross-section Laplacian
MU0 = AffineExpr(cmu=Fraction(1))
ZERO = AffineExpr()
ONE = AffineExpr(const=Fraction(1))
