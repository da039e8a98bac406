"""Model heat kernels, degeneration probes and Volterra machinery.

Kernels are function-normalized (against the Riemannian density): the mode
kernel of the exact cone is

    k_nu(x, x', t) = (x x')^(-(n-2)/2) (2t)^(-1)
                     * exp(-(x^2+x'^2)/(4t)) I_nu(x x'/(2t)),

evaluated through the exponentially scaled Bessel function, and the full
kernel at coincident cross-section points is the multiplicity-weighted mode
sum divided by the cross-section volume.

The degeneration probes compare eigenexpansion kernels of the family
against the conic limit kernel (interior regime) and against the kernel of
the fixed rescaled complete space (scaled regime, computed on matched
truncated domains so that the domain-monotone wall effect is resolved).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import ive, jv

from .geometry import WarpFamily, indicial_roots
from .spectral import (ModeSolution, SLGrid, SolverError, _discretize,
                       _run_jobs, bessel_j_zeros, solve_mode)


# ---------------------------------------------------------------------------
# closed-form model kernels
# ---------------------------------------------------------------------------

def euclidean_kernel(n: int, z, zp, t: float):
    """Euclidean heat kernel (4 pi t)^(-n/2) exp(-|z-z'|^2/(4t)).

    The Gaussian decay rate is 1/(4t): this normalizes to total mass one,
    which pins down the exponent against the prefactor.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    zp = np.atleast_1d(np.asarray(zp, dtype=float))
    d2 = np.sum((z - zp) ** 2, axis=-1)
    return (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-d2 / (4.0 * t))


def cone_mode_kernel(nu: float, n: int, x, xp, t):
    """Heat kernel of one separated mode on the exact infinite cone.

    Overflow-safe: the Bessel factor is evaluated as e^(-z) I_nu(z) against
    the completed Gaussian exp(-(x-x')^2/(4t)).
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x <= 0) or np.any(xp <= 0) or np.any(t <= 0):
        raise ValueError("cone mode kernel needs x, x', t > 0")
    z = x * xp / (2.0 * t)
    return ((x * xp) ** (-(n - 2) / 2.0) / (2.0 * t)
            * np.exp(-(x - xp) ** 2 / (4.0 * t)) * ive(nu, z))


# ---------------------------------------------------------------------------
# eigenexpansion kernels
# ---------------------------------------------------------------------------

# an eigenexpansion at time t is complete once e^(-lambda_max t) <= TAIL_TOL
TAIL_TOL = 1e-14


def _tail_lam_top(t: float) -> float:
    """Smallest lambda_max that pushes e^(-lambda_max t) to TAIL_TOL."""
    return -math.log(TAIL_TOL) / t


def _eigensum(lam: np.ndarray, ux: np.ndarray, uxp: np.ndarray,
              t: float) -> float:
    """sum_k e^(-lambda_k t) u_k(x) u_k(x') over the given eigenpairs.

    Errors out when the available eigenvalue range cannot push the tail
    factor e^(-lambda_max t) below TAIL_TOL.
    """
    if math.exp(-float(lam[-1]) * t) > TAIL_TOL:
        raise SolverError(f"tail tolerance unreachable at t = {t}: have "
                          f"lambda_max = {lam[-1]:.3g}")
    return float(np.sum(np.exp(-lam * t) * ux * uxp))


def heat_from_spectrum(sol: ModeSolution, x, xp, t: float) -> float:
    """Mode kernel sum_k e^(-lambda_k t) u_k(x) u_k(x'), w-normalized,
    behind the TAIL_TOL guard of `_eigensum`."""
    return _eigensum(sol.lam, sol.interp(x)[0], sol.interp(xp)[0], t)


@dataclass
class ExactConeMode:
    """Exact eigendata of one mode of the finite cone (Dirichlet at x=1).

    lambda_k = j_{nu,k}^2, u_k = c_k x^(-(n-2)/2) J_nu(j_{nu,k} x) with c_k
    normalizing against the weight (c x)^(n-1); an independent reference for
    the discretized solver outputs.
    """

    family: WarpFamily
    mu: float
    count: int

    def __post_init__(self):
        ind = indicial_roots(self.family.n, self.mu, self.family.c)
        self.nu = ind.nu
        zeros = np.array(bessel_j_zeros(self.nu, self.count))
        self.lam = zeros ** 2
        self.zeros = zeros
        # ||x^(-(n-2)/2) J_nu(j x)||^2 against c^(n-1) x^(n-1) dx
        #   = c^(n-1) * J_{nu+1}(j)^2 / 2
        n, c = self.family.n, self.family.c
        self.norms = np.sqrt(c ** (n - 1) * jv(self.nu + 1, zeros) ** 2 / 2.0)

    def u(self, x) -> np.ndarray:
        """Eigenfunction values at points x, one column per zero."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = self.family.n
        return ((x ** (-(n - 2) / 2.0))[:, None]
                * jv(self.nu, np.outer(x, self.zeros)) / self.norms)

    def kernel(self, x, xp, t: float) -> float:
        return _eigensum(self.lam, self.u(x)[0], self.u(xp)[0], t)


def coincident_angular_weight(family: WarpFamily, ell: int) -> float:
    """Weight of mode ell in the full kernel at equal cross-section points:
    sum_m |phi_(ell,m)(y)|^2 = multiplicity / vol(Y) on round spheres."""
    vol = family.cross_section.volume
    if vol is None:
        raise SolverError("cross-section volume required for full kernels")
    return family.cross_section.multiplicity(ell) / vol


# ---------------------------------------------------------------------------
# Crank-Nicolson time stepping (independent oracle)
# ---------------------------------------------------------------------------

def crank_nicolson_mode(op, grid: SLGrid, xp: float, times: Sequence[float],
                        probe_x: float, substeps: int = 400) -> List[float]:
    """Mode kernel column u(t) = H(., xp, t) by Crank-Nicolson stepping.

    Starts from a discrete delta at xp (w-weighted), marches with uniform
    steps between the requested times and reads off the probe value.  The
    implicit tridiagonal matrix of each interval is LU-factored once
    (LAPACK gttrf) and every substep is one gttrs solve, which performs the
    same operations as a gtsv solve of that matrix.
    """
    disc = _discretize(op, grid)
    diag, off, mass = disc.diag, disc.off, disc.mass
    xn = disc.xs[disc.idx]
    j0 = int(np.argmin(np.abs(xn - xp)))
    u = np.zeros(len(xn))
    u[j0] = 1.0 / mass[j0]
    g = op.gamma

    out = []
    t_prev = 0.0
    for t in times:
        dt = (t - t_prev) / substeps
        if dt <= 0:
            raise SolverError("times must be increasing")
        *lu, info = dgttrf(0.5 * dt * off / mass[1:],
                           1.0 + 0.5 * dt * diag / mass,
                           0.5 * dt * off / mass[:-1])
        if info != 0:
            raise SolverError(f"Crank-Nicolson matrix singular at t = {t}")
        for _ in range(substeps):
            rhs = u - 0.5 * dt / mass * (
                np.r_[0.0, off * u[:-1]] + diag * u + np.r_[off * u[1:], 0.0])
            u, _ = dgttrs(*lu, rhs)
        t_prev = t
        val = np.interp(probe_x, xn, u)
        if g != 0.0:
            # v-space kernel back to the function kernel: H = x^g x'^g H_v
            val *= probe_x ** g * xn[j0] ** g
        out.append(float(val))
    return out


# ---------------------------------------------------------------------------
# degeneration probes
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    regime: str
    schedule: List[float]
    times: List[float]
    model_values: np.ndarray          # len(times)
    eps_values: np.ndarray            # len(schedule) x len(times)
    distances: np.ndarray             # len(schedule)
    strictly_decreasing: bool
    final_relative: float
    meta: dict


def _probe_result(regime: str, schedule: Sequence[float],
                  times: Sequence[float], model: np.ndarray,
                  eps_values: np.ndarray, meta: dict) -> ProbeResult:
    """The probes' one verdict on H_eps (rows of `eps_values`, one column
    per time) against the limit H_0 (`model`, one value per time).

    The distance at each eps is the max over time of the relative gap
    |H_eps - H_0| / |H_0|: the kernel decays like e^(-lambda_1 t), so a
    uniform-in-t statement must be relative to H_0(t).  The verdict is that
    the distances strictly decrease along the schedule.
    """
    rel = np.abs(eps_values - model[None, :]) / np.abs(model[None, :])
    dists = np.max(rel, axis=1)
    return ProbeResult(regime, list(schedule), list(times), model, eps_values,
                       dists, bool(np.all(np.diff(dists) < 0)),
                       float(dists[-1]), meta)


def _weighted_sum(weights: Sequence[float],
                  modes: Sequence[Sequence[float]]) -> List[float]:
    """sum_ell w_ell H_ell, one value per time, summed over ell ascending;
    `modes[ell]` holds mode ell's kernel values, one per time."""
    return [sum(w * m[j] for w, m in zip(weights, modes))
            for j in range(len(modes[0]))]


def _mode_kernel(job: tuple) -> List[float]:
    """One probe job: one radial mode solved up to lam_top by `solve`, and
    its kernel at (x, x') at each time."""
    solve, args, lam_top, x, xp, times = job
    sol = solve(*args, lam_top)
    return [heat_from_spectrum(sol, x, xp, t) for t in times]


@contextmanager
def _mode_sums(weights: Sequence[float],
               jobs: list) -> Iterator[Callable[[], List[float]]]:
    """Runs the `_mode_kernel` jobs, one per (row, mode) in row-major order,
    through `spectral._run_jobs`, and yields `next_sum()`: the weighted mode
    sum `_weighted_sum` over the next len(weights) jobs, one value per time.

    Results are read lazily, so a caller that checks early sums before it
    reads later ones raises the error it would raise serially.
    """
    with _run_jobs(_mode_kernel, jobs) as values:
        def next_sum() -> List[float]:
            return _weighted_sum(weights, [next(values) for _ in weights])

        yield next_sum


def _family_mode_solution(family: WarpFamily, mu: float, eps: float,
                          grid: SLGrid, lam_top: float) -> ModeSolution:
    return solve_mode(family.radial_operator(mu, eps), grid, lam_top=lam_top)


def interior_probe(family: WarpFamily, schedule: Sequence[float],
                   x: float = 0.5, xp: float = 0.5,
                   times: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
                   ell_max: int = 8,
                   grid: Optional[SLGrid] = None) -> ProbeResult:
    """Fixed-point convergence of the family kernel to the conic limit.

    H_eps is the eigenexpansion kernel of (M, g_eps); the limit H_0 is the
    exact Bessel eigenexpansion of the cone.  The distance is the max over
    the time grid of the relative gap |H_eps - H_0| / |H_0|
    (`_probe_result`).  Each mode is solved up to the eigenvalue the
    TAIL_TOL guard needs at the smallest time.

    H_eps is reproducible to about 1e-8 relative, not to the last digit:
    eigh_tridiagonal bisects to an absolute tolerance of eps ||T||_1
    (about 1e-8 at N = 4096), so the low eigenvalues already move by about
    6e-10 relative when only the number of requested pairs changes, and
    H_eps by about 1e-8.  That is below the Richardson estimate lam_err.
    """
    grid = grid or SLGrid(2048)
    times = list(times)
    lam_top = _tail_lam_top(min(times))
    weights = [coincident_angular_weight(family, ell) for ell in range(ell_max + 1)]
    mus = [family.cross_section.mu(ell) for ell in range(ell_max + 1)]

    # n >= 3 gives nu >= 1/2, so j_(nu,k) >= k pi and this many zeros reach
    # lam_top; the tail guard in the kernel sum checks it
    zero_count = math.ceil(math.sqrt(lam_top) / math.pi)
    h0_modes = [ExactConeMode(family, mu, zero_count) for mu in mus]
    model = np.array(_weighted_sum(
        weights, [[m.kernel(x, xp, t) for t in times] for m in h0_modes]))

    jobs = [(_family_mode_solution, (family, mu, eps, grid), lam_top, x, xp,
             times) for eps in schedule for mu in mus]
    with _mode_sums(weights, jobs) as next_sum:
        eps_vals = np.array([next_sum() for _ in schedule])
    return _probe_result("interior_F0101", schedule, times, model, eps_vals,
                         {})


def _truncated_mode_solution(family: WarpFamily, mu: float, radius: float,
                             h: float, rho: float, rhop: float,
                             lam_top: float) -> ModeSolution:
    for name, point in (("rho", rho), ("rhop", rhop)):
        if point > radius:
            raise SolverError(f"probe point {name} = {point} lies beyond the "
                              f"truncation radius {radius}")
    op = family.radial_operator_fixed_space(mu, radius)
    n = int(round(radius / h))
    if abs(n * h - radius) > 1e-12:
        raise SolverError(f"grid step h = {h} does not divide the "
                          f"truncation radius {radius}")
    if n < 16:
        raise SolverError(f"grid step h = {h} leaves {n} cells on the "
                          f"truncation radius {radius}; need at least 16")
    try:
        return solve_mode(op, SLGrid(n), lam_top=lam_top)
    except SolverError as exc:
        raise SolverError(f"grid step h = {h} on the truncation radius "
                          f"{radius}: {exc}") from exc


def scaled_probe(family: WarpFamily, schedule: Sequence[float],
                 rho: float = 1.0, rhop: float = 1.0, tau: float = 0.5,
                 ell_max: int = 8, h: float = 1.0 / 128.0,
                 ref_radius: float = 6.0) -> ProbeResult:
    """Front-face convergence of the rescaled kernels to the fixed space.

    For the capped profile the rescaled family eps^n H_eps(eps rho,
    eps rho', eps^2 tau) equals exactly the kernel of the fixed complete
    space truncated at radius 1/eps (the scaling identity is exact), so the
    probe distance is the domain-monotone wall effect, computed on matched
    uniform grids.  Every 1/eps must be a multiple of the grid step h.
    Each mode is solved up to the eigenvalue the TAIL_TOL guard needs at tau.
    A row whose truncation radius is below rho or rho' is refused when it
    is read.
    The reference kernel is taken at radius 2 ref_radius; it must agree with
    the one at ref_radius to max(1e-6, 0.2 h^2) relative, or the call fails.
    """
    if family.profile != "capped":
        raise SolverError("the scaled probe requires the capped profile "
                          "(exact rescaling)")
    weights = [coincident_angular_weight(family, ell) for ell in range(ell_max + 1)]
    mus = [family.cross_section.mu(ell) for ell in range(ell_max + 1)]
    lam_top = _tail_lam_top(tau)

    radii = [2.0 * ref_radius, ref_radius] + [1.0 / eps for eps in schedule]
    jobs = [(_truncated_mode_solution, (family, mu, radius, h, rho, rhop),
             lam_top, rho, rhop, [tau]) for radius in radii for mu in mus]

    # cross-domain h^2 discretization errors do not cancel exactly and
    # floor the monitor near 0.1 h^2 of the value; genuine truncation
    # influence shows up orders of magnitude above that
    monitor_rel_tol = max(1e-6, 0.2 * h * h)
    with _mode_sums(weights, jobs) as next_sum:
        # the drift check comes before any schedule row is read, so it wins
        # over a schedule radius's own refusal
        ref = next_sum()
        drift = abs(ref[0] - next_sum()[0])
        if drift > monitor_rel_tol * abs(ref[0]):
            raise SolverError(
                f"truncation-domain influence detected: reference radius "
                f"{ref_radius} moves the probe by {drift:.3e}")
        vals = np.array([next_sum() for _ in schedule])
    return _probe_result("scaled_F1010", schedule, [tau], np.array(ref),
                         vals, {"h": h, "ref_radius": ref_radius,
                                "reference_drift": drift,
                                "identity": "eps^n H_eps(eps rho, eps rho', "
                                            "eps^2 tau) = H_{Z cut at 1/eps}"})


def scaling_identity_defect(family: WarpFamily, s: float) -> float:
    """Exactness of H_(s^2 g)(z, z', t) = s^(-n) H_g(z, z', t/s^2).

    Checked for the mu = 0 mode at x = 0.5, x' = 0.4, t = 0.3, from the
    first 80 eigenpairs on 1024 cells.  Both sides come from independent
    eigensolves on [0, 1] and [0, s]; on the flat-ball family with dyadic s
    the discretizations scale exactly, so the defect is pure solver
    roundoff.
    """
    if family.profile != "capped":
        raise SolverError("scaling identity check uses the capped family")
    n = family.n
    x, xp, t, mu, grid_n, count = 0.5, 0.4, 0.3, 0.0, 1024, 80
    op1 = family.radial_operator(mu, 0.0)
    sol1 = solve_mode(op1, SLGrid(grid_n), count)
    lhs_ref = heat_from_spectrum(sol1, x, xp, t / s ** 2) * s ** (-n)

    op_s = family.radial_operator_fixed_space(mu, s)
    # identical family at eps = 0 ... rescaled ball of radius s
    sol_s = solve_mode(op_s, SLGrid(grid_n), count)
    lhs = heat_from_spectrum(sol_s, x * s, xp * s, t)
    scale = max(abs(lhs), abs(lhs_ref))
    return abs(lhs - lhs_ref) / scale


# ---------------------------------------------------------------------------
# fiber model solution checks
# ---------------------------------------------------------------------------

def _trapezoid_cosines(f: np.ndarray, x0: float, dx: float, xi0: float,
                       dxi: float, count: int) -> np.ndarray:
    """np.trapezoid(f * cos(xi_k x), x) on the uniform grid x_j = x0 + j dx,
    for xi_k = xi0 + k dxi, k < count, all by one FFT convolution.

    Bluestein's identity j k = (j^2 + k^2 - (k - j)^2) / 2 turns the sums
    over j into the chirp a_j = w_j f_j e^(i (xi0 dx j + alpha j^2/2))
    (w_j the trapezoid weights) convolved with e^(-i alpha m^2/2),
    alpha = dx dxi, times a phase in k.  The FFT length covers all
    len(f) + count - 1 lags, so no wanted output wraps around.
    """
    m = len(f)
    alpha = dx * dxi
    j = np.arange(m, dtype=float)
    k = np.arange(count, dtype=float)
    lags = np.arange(1 - m, count, dtype=float)
    wf = f * dx
    wf[[0, -1]] *= 0.5
    a = wf * np.exp(1j * (xi0 * dx * j + 0.5 * alpha * j * j))
    b = np.exp(-0.5j * alpha * lags * lags)
    nfft = 1 << (m + count - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(a, nfft) * np.fft.fft(b, nfft))
    phase = (xi0 + k * dxi) * x0 + 0.5 * alpha * k * k
    return (np.exp(1j * phase) * conv[m - 1:m - 1 + count]).real


def g0_fiber_check(n: int = 1, h: float = 1e-3) -> dict:
    """Residual checks of the fiber model solution at the diagonal face.

    The normalized Gaussian G0 = (4 pi)^(-n/2) exp(-|X|^2/4) must satisfy
    [-Laplacian - (R + n)/2] G0 = 0 (R the radial vector field) and its
    unit-normalized Fourier transform solves (xi d_xi + 2 |xi|^2) u = 0 with
    u(0) = 1.  Both residuals are measured by second-order differencing with
    step h on [-10, 10]; h must be positive, divide 10 and leave at least
    16 cells on it, and halving h divides the PDE residual by about 4.  The
    transform is the trapezoidal rule on that grid at 2401 points of
    [-6, 6], all evaluated by one FFT convolution (`_trapezoid_cosines`); it
    agrees with the direct sum to about 1e-12.
    """
    if n != 1:
        raise SolverError("fiber grids implemented for n = 1")
    length = 10.0
    if not h > 0:
        raise SolverError(f"grid step h = {h} must be positive")
    m = int(round(length / h))
    if abs(m * h - length) > 1e-12:
        raise SolverError(f"grid step h = {h} does not divide the fiber "
                          f"half-length {length}")
    if m < 16:
        raise SolverError(f"grid step h = {h} leaves {m} cells on the fiber "
                          f"half-length {length}; need at least 16")
    xs = np.linspace(-length, length, 2 * m + 1)
    g0 = (4.0 * math.pi) ** (-n / 2.0) * np.exp(-xs ** 2 / 4.0)

    lap = (np.roll(g0, -1) - 2 * g0 + np.roll(g0, 1)) / h ** 2
    dg = (np.roll(g0, -1) - np.roll(g0, 1)) / (2 * h)
    residual = (-lap - 0.5 * (xs * dg + n * g0))[2:-2]
    pde_res = float(np.max(np.abs(residual)))

    mass = float(np.trapezoid(g0, xs))
    xi = np.linspace(-6.0, 6.0, 2401)
    u_hat = _trapezoid_cosines(g0, -length, length / m, -6.0,
                               12.0 / (len(xi) - 1), len(xi)) / mass
    du = np.gradient(u_hat, xi)
    t_res = float(np.max(np.abs(xi * du + 2 * xi ** 2 * u_hat)))
    sym = float(np.max(np.abs(g0 - g0[::-1])))
    return {"pde_residual": pde_res, "transform_residual": t_res,
            "normalized_mass": mass, "u_hat_at_0": float(
                np.interp(0.0, xi, u_hat)), "symmetry_defect": sym}


# ---------------------------------------------------------------------------
# time convolution and the Volterra series
# ---------------------------------------------------------------------------

@dataclass
class GridKernel:
    """Kernel sampled on (space, space, time) with spatial weights."""

    values: np.ndarray        # (nx, nx, nt)
    t: np.ndarray             # uniform, starting at 0
    weights: np.ndarray       # spatial quadrature weights (nx,)

    @staticmethod
    def scalar(profile: Callable[[np.ndarray], np.ndarray], t: np.ndarray) -> "GridKernel":
        vals = np.asarray(profile(t), dtype=float)[None, None, :]
        return GridKernel(vals, np.asarray(t, dtype=float), np.array([1.0]))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def t_convolve(a: GridKernel, b: GridKernel) -> GridKernel:
    """(A * B)(z, z', t) = int_0^t int A(z, w, t-s) B(w, z', s) dw ds.

    Composite trapezoidal rule in s on the shared uniform time grid, which
    starts at 0 and has one time per sample; the spatial integral is the
    weighted matrix product.  Both kernels must share their time grid and
    spatial weights.  The terms are summed one lag l at a time over every
    output time at once, and each time index k still sums its terms
    l = 0, ..., k in order.
    """
    if a.values.shape != b.values.shape:
        raise ValueError("kernels must share their sample grids")
    if len(a.t) < 2:
        raise ValueError("time grid needs at least two samples")
    if not np.array_equal(a.t, b.t):
        raise ValueError("kernels must share their time grid")
    if not np.array_equal(a.weights, b.weights):
        raise ValueError("kernels must share their spatial weights")
    nt = a.values.shape[2]
    if len(a.t) != nt:
        raise ValueError(f"time grid has {len(a.t)} times for {nt} samples")
    if a.t[0] != 0.0:
        raise ValueError(f"time grid must start at 0, not {a.t[0]}")
    dt = a.t[1] - a.t[0]
    if not np.allclose(np.diff(a.t), dt):
        raise ValueError("time grid must be uniform")
    # time-major stacks, so each lag's product runs over contiguous blocks
    aw = np.ascontiguousarray(
        np.moveaxis(a.values * a.weights[None, :, None], 2, 0))
    bs = np.ascontiguousarray(np.moveaxis(b.values, 2, 0))
    acc = np.zeros_like(aw)
    for l in range(nt):
        # term l of time index k = l + i is A(k - l) W B(l), halved at the
        # trapezoid's ends l = 0 and l = k (i = 0)
        term = aw[:nt - l] @ bs[l]
        if l == 0:
            term *= 0.5
        else:
            term[0] *= 0.5
        acc[l:] += term
    return GridKernel(np.ascontiguousarray(np.moveaxis(acc * dt, 0, 2)),
                      a.t, a.weights)


@dataclass
class VolterraReport:
    sup_norms: List[float]
    ratios: List[float]
    fitted_c: float
    factorial_decay: bool
    envelope_ok: bool


def volterra_neumann(k: GridKernel, j_max: int) -> VolterraReport:
    """Iterated convolution powers K^(*j) with sup norms and decay verdict.

    Fits the smallest C-hat with sup|K^(*j)| <= C * C-hat^j T^j / (j+1)!
    (C fixed by j = 1) and runs the ratio test sup_(j+1)/sup_j <= T/(j+1).
    """
    T = float(k.t[-1])
    sups = [k.sup_norm()]
    cur = k
    for _ in range(2, j_max + 1):
        cur = t_convolve(k, cur)
        sups.append(cur.sup_norm())
    ratios = [sups[i + 1] / sups[i] if sups[i] > 0 else 0.0
              for i in range(len(sups) - 1)]
    growth = any(r > max(1.0, T) for r in ratios[1:])
    if growth:
        raise SolverError("growth detected: kernel is not Volterra-regular")
    c0 = sups[0] * 2.0 / max(T, 1e-300)
    chat = 0.0
    for j in range(2, len(sups) + 1):
        s = sups[j - 1]
        if s <= 0.0:
            continue
        chat = max(chat, (s * math.factorial(j + 1)
                          / (c0 * T ** j)) ** (1.0 / (j - 1)))
    # ratio_j = sup_(j+1)/sup_j against the t^j/(j+1)! display: < T/j
    envelope_ok = all(ratios[i] < T / (i + 1) * (1.0 + 1e-12)
                      for i in range(len(ratios)))
    factorial = all(ratios[i + 1] < ratios[i] * (1.0 + 1e-12)
                    for i in range(len(ratios) - 1))
    return VolterraReport(sups, ratios, chat, factorial, envelope_ok)


# exact scalar convolution of polynomial kernels ----------------------------

@dataclass(frozen=True)
class PolyKernel:
    """Scalar kernel polynomial in t with exact rational coefficients."""

    coeffs: Tuple[Fraction, ...]  # coeffs[a] multiplies t^a

    @staticmethod
    def monomial(power: int, coeff=1) -> "PolyKernel":
        c = [Fraction(0)] * (power + 1)
        c[power] = Fraction(coeff)
        return PolyKernel(tuple(c))

    def convolve(self, other: "PolyKernel") -> "PolyKernel":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                if not cb:
                    continue
                # int_0^t (t-s)^a s^b ds = a! b!/(a+b+1)! t^(a+b+1)
                beta = Fraction(math.factorial(a) * math.factorial(b),
                                math.factorial(a + b + 1))
                out[a + b + 1] += ca * cb * beta
        return PolyKernel(tuple(out))

    def power(self, j: int) -> "PolyKernel":
        out = self
        for _ in range(j - 1):
            out = out.convolve(self)
        return out

    def __call__(self, t: float) -> float:
        return float(sum(float(c) * t ** a for a, c in enumerate(self.coeffs)))
