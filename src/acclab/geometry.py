"""Degenerating warped-product model families and their radial reductions.

A family carries the metric g_eps = dx^2 + f_eps(x)^2 h on a fixed interval,
with the cross section (Y, h) held constant in x so that exact-cone
references apply.  Two profiles are shipped:

* ``neck``: f_eps(x) = sqrt(eps^2 + c^2 x^2) on [-1, 1]; the limit c|x| has
  one conic point joining two cones.
* ``capped``: f_eps(x) = eps * F(x/eps) on [0, 1] with a smooth cap profile
  F equal to rho near 0 and to c*rho outside a fixed matching radius, so
  the 1/eps^2-rescaled metric is exactly the fixed complete space with
  asymptotic slope c, truncated at radius 1/eps.

Separation of variables reduces the Laplacian to one Sturm-Liouville
operator per cross-section eigenvalue mu, with coefficients
p = w = f^(n-1) and q = mu * f^(n-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

def sphere_multiplicity(d: int, ell: int) -> int:
    """Dimension of the degree-ell spherical harmonics on S^d."""
    if ell == 0:
        return 1
    if d == 1:
        return 2
    return (2 * ell + d - 1) * math.factorial(ell + d - 2) \
        // (math.factorial(ell) * math.factorial(d - 1))


def sphere_volume(d: int) -> float:
    """Volume of the unit round sphere S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


@dataclass(frozen=True)
class CrossSection:
    """Spectrum of the cross-section Laplacian: (mu, multiplicity) pairs."""

    modes: Tuple[Tuple[float, int], ...]
    volume: Optional[float] = None

    def __post_init__(self):
        mus = [m for m, _ in self.modes]
        if any(m < 0 for m in mus):
            raise ValueError("cross-section eigenvalues must be >= 0")
        if sorted(mus) != mus:
            raise ValueError("cross-section eigenvalues must be nondecreasing")
        if not self.modes or self.modes[0][0] != 0:
            raise ValueError("a connected cross section starts with mu = 0")

    @staticmethod
    def round_sphere(dim_y: int, count: int) -> "CrossSection":
        """Unit round sphere: mu_l = l(l+dim_y-1)."""
        modes = tuple((float(ell * (ell + dim_y - 1)),
                       sphere_multiplicity(dim_y, ell))
                      for ell in range(count))
        return CrossSection(modes, volume=sphere_volume(dim_y))

    @staticmethod
    def explicit(modes, volume=None) -> "CrossSection":
        return CrossSection(tuple(modes), volume=volume)

    def mu(self, ell: int) -> float:
        return self.modes[ell][0]

    def multiplicity(self, ell: int) -> int:
        return self.modes[ell][1]

    def __len__(self):
        return len(self.modes)


# ---------------------------------------------------------------------------
# cap profile
# ---------------------------------------------------------------------------

class CapProfile:
    """Smooth cap F: identity near 0, slope c beyond the matching radius.

    F(rho) = rho for rho <= rho_a, F(rho) = c*rho for rho >= rho_b, with the
    unique quintic C^2 blend in between.  For c = 1 the blend is exactly the
    identity, so the capped family is the flat ball for every eps.
    """

    rho_a = 0.5
    rho_b = 2.0

    def __init__(self, c: float):
        if c <= 0:
            raise ValueError("cone slope c must be positive")
        self.c = float(c)
        a, b = self.rho_a, self.rho_b
        rows = []
        rhs = []
        for x, vals in ((a, (a, 1.0, 0.0)), (b, (c * b, c, 0.0))):
            rows.append([x ** j for j in range(6)])
            rows.append([j * x ** (j - 1) if j >= 1 else 0.0 for j in range(6)])
            rows.append([j * (j - 1) * x ** (j - 2) if j >= 2 else 0.0
                         for j in range(6)])
            rhs.extend(vals)
        self.coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
        self._check_positive()

    def _check_positive(self):
        rho = np.linspace(self.rho_a, self.rho_b, 201)
        if np.any(self(rho) <= 0):
            raise ValueError(f"cap blend not positive for c = {self.c}")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        mid = np.polyval(self.coeffs[::-1], rho)
        return np.where(rho <= self.rho_a, rho,
                        np.where(rho >= self.rho_b, self.c * rho, mid))

    def deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        dcf = np.polyder(np.poly1d(self.coeffs[::-1]))
        return np.where(rho <= self.rho_a, 1.0,
                        np.where(rho >= self.rho_b, self.c, dcf(rho)))

    def c2_defect(self) -> float:
        """Numerical jump of F'' across the matching radii (should be ~0)."""
        out = 0.0
        d2 = np.polyder(np.poly1d(self.coeffs[::-1]), 2)
        for rho, outside in ((self.rho_a, 0.0), (self.rho_b, 0.0)):
            out = max(out, abs(float(d2(rho)) - outside))
        return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpFamily:
    """The degenerating metric family dx^2 + f_eps(x)^2 h."""

    n: int
    cross_section: CrossSection
    profile: str  # 'neck' or 'capped'
    c: float = 1.0
    # derived from profile and c, so it takes no part in equality or hashing
    cap: Optional[CapProfile] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension n >= 3 required")
        if self.c <= 0:
            raise ValueError("cone slope c must be positive")
        if not math.isfinite(self.c):
            raise ValueError(f"cone slope c must be finite, got {self.c}")
        if self.profile not in ("neck", "capped"):
            raise ValueError(f"unknown profile {self.profile!r}")
        object.__setattr__(self, "cap", CapProfile(self.c)
                           if self.profile == "capped" else None)

    @staticmethod
    def capped(n=3, c=1.0, mode_count=6) -> "WarpFamily":
        cs = CrossSection.round_sphere(n - 1, mode_count)
        return WarpFamily(n, cs, "capped", c=c)

    @staticmethod
    def neck(n=3, c=1.0, mode_count=6) -> "WarpFamily":
        cs = CrossSection.round_sphere(n - 1, mode_count)
        return WarpFamily(n, cs, "neck", c=c)

    # -- profile -----------------------------------------------------------
    @property
    def domain(self) -> Tuple[float, float]:
        """The x-interval, the same at every eps."""
        return (-1.0, 1.0) if self.profile == "neck" else (0.0, 1.0)

    def f(self, x, eps: float):
        x = np.asarray(x, dtype=float)
        if self.profile == "neck":
            return np.sqrt(eps ** 2 + self.c ** 2 * x ** 2)
        if eps == 0.0:
            return self.c * x
        return eps * self.cap(x / eps)

    def fprime(self, x, eps: float):
        x = np.asarray(x, dtype=float)
        if self.profile == "neck":
            return self.c ** 2 * x / np.sqrt(eps ** 2 + self.c ** 2 * x ** 2)
        if eps == 0.0:
            return np.full_like(x, self.c)
        return self.cap.deriv(x / eps)

    def f_over_x(self, x, eps: float):
        """f(x)/x evaluated stably through x = 0 (capped/cone only)."""
        x = np.asarray(x, dtype=float)
        if self.profile == "neck":
            raise ValueError("f/x is singular for the neck profile")
        if eps == 0.0:
            return np.full_like(x, self.c)
        rho = x / eps
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(rho > 0, self.cap(rho) / np.where(rho > 0, rho, 1.0), 1.0)
        return ratio

    # -- radial operators ----------------------------------------------------
    def radial_operator(self, mu: float, eps: float) -> "RadialOperator":
        """The mode-mu operator on the whole domain: the cone tip (eps = 0)
        takes the Friedrichs gamma_+ of slope c and the smooth cap that of
        slope 1; the neck has no singular end, so both its ends are outer
        ends.  Every outer end is Dirichlet, as in the conic references."""
        if mu < 0:
            raise ValueError("cross-section eigenvalue mu must be >= 0")
        if eps == 0.0 and self.profile == "neck":
            raise ValueError("the neck limit at eps = 0 is two cones joined at "
                             "the tip, not one radial operator: its spectrum "
                             "is the doubled conic reference")
        gamma = 0.0 if self.profile == "neck" else indicial_roots(
            self.n, mu, self.c if eps == 0.0 else 1.0).gamma_plus
        return RadialOperator(self, mu, eps, self.domain, gamma,
                              (self.profile == "neck", True))

    def radial_operators_split(self, mu: float, eps: float) -> List[Tuple[str, "RadialOperator"]]:
        """Operators whose spectra merge to the full one, with branch labels.

        The neck at eps > 0 splits into the even/odd half-problems on [0, 1]
        (f is even in x): Neumann at x = 0 for the even half, Dirichlet for
        the odd one.  Other cases are a single branch.
        """
        if self.profile == "neck" and eps > 0.0:
            return [(branch, RadialOperator(self, mu, eps, (0.0, 1.0), 0.0,
                                            (branch == "odd", True)))
                    for branch in ("even", "odd")]
        return [("", self.radial_operator(mu, eps))]

    def radial_operator_fixed_space(self, mu: float, radius: float) -> "RadialOperator":
        """Per-mode operator of the rescaled complete space on [0, radius],
        Dirichlet at the truncation radius."""
        if self.profile != "capped":
            raise ValueError("fixed-space operators need the capped profile")
        return RadialOperator(self, mu, 1.0, (0.0, radius),
                              indicial_roots(self.n, mu, 1.0).gamma_plus,
                              (False, True))


# ---------------------------------------------------------------------------
# indicial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicialData:
    n: int
    mu: float
    c: float
    nu: float
    gamma_plus: float
    gamma_minus: float


def indicial_roots(n: int, mu: float, c: float = 1.0) -> IndicialData:
    """Exponents gamma with x^gamma in the kernel of the model cone operator.

    gamma_pm = -(n-2)/2 +- nu with nu = sqrt(((n-2)/2)^2 + mu/c^2).
    """
    if n < 3 or mu < 0 or c <= 0:
        raise ValueError("need n >= 3, mu >= 0, c > 0")
    half = (n - 2) / 2.0
    nu = math.sqrt(half ** 2 + mu / c ** 2)
    return IndicialData(n, mu, c, nu, -half + nu, -half - nu)


# ---------------------------------------------------------------------------
# the per-mode Sturm-Liouville reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialOperator:
    """One separated mode: u -> (-(p u')' + q u)/w with p = w = f^(n-1).

    The boundary treatment is resolved by the `WarpFamily` factories: the
    operator acts on `domain` = (lo, hi), a singular left endpoint is
    handled through u = x^gamma v (gamma = 0 where there is none), and
    `dirichlet` = (left, right) says which ends carry a Dirichlet condition;
    the others are natural.
    """

    family: WarpFamily
    mu: float
    eps: float
    domain: Tuple[float, float]
    gamma: float
    dirichlet: Tuple[bool, bool]

    def p(self, x):
        return self.family.f(x, self.eps) ** (self.family.n - 1)

    def w(self, x):
        return self.p(x)

    def q(self, x):
        return self.mu * self.family.f(x, self.eps) ** (self.family.n - 3)

    def substituted_coefficients(self):
        """Coefficients of the regularized problem in v = u / x^gamma.

        Returns callables (p~, q~, w~) with p~ = w~ = f^(n-1) x^(2 gamma)
        and q~ = f^(n-3) x^(2 gamma) [mu - gamma(n-1) f f'/x /(f/x)^2 ... ]
        evaluated stably; q~ vanishes identically wherever f is exactly
        conic with the matching slope.  With gamma = 0 (no singular endpoint,
        or mu = 0) they are p, q and w themselves.
        """
        g = self.gamma
        if g == 0.0:
            return self.p, self.q, self.w
        n = self.family.n
        fam, eps, mu = self.family, self.eps, self.mu

        def ptil(x):
            x = np.asarray(x, dtype=float)
            return fam.f(x, eps) ** (n - 1) * x ** (2 * g)

        def qtil(x):
            x = np.asarray(x, dtype=float)
            fx = fam.f_over_x(x, eps)          # f/x
            fp = fam.fprime(x, eps)
            bracket = mu - g * (n - 1) * fx * fp - g * (g - 1) * fx ** 2
            return fam.f(x, eps) ** (n - 3) * x ** (2 * g) * bracket

        return ptil, qtil, ptil

    def symmetry_defect(self) -> float:
        """Quadrature check of <Lu,v>_w = <u,Lv>_w on three random test
        functions drawn from a generator seeded with 0."""
        rng = np.random.default_rng(0)
        lo, hi = self.domain
        xs = np.linspace(lo + 1e-9, hi - 1e-9, 4001)
        p, q = self.p(xs), self.q(xs)

        def strong(u):
            return -np.gradient(p * np.gradient(u, xs), xs) + q * u

        out = 0.0
        for _ in range(3):
            a1, a2, b1, b2 = rng.uniform(1.0, 3.0, size=4)
            cut = ((xs - lo) * (hi - xs)) ** 2
            u = np.sin(a1 * np.pi * xs) * cut + a2 * cut ** 2
            v = np.cos(b1 * np.pi * xs) * cut + b2 * cut ** 2
            lhs = np.trapezoid(strong(u) * v, xs)
            rhs = np.trapezoid(u * strong(v), xs)
            out = max(out, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        return out
