"""Model kernels, degeneration probes, Volterra series."""

import dataclasses
import math
import multiprocessing
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.special import jv

from acclab.geometry import WarpFamily, indicial_roots, sphere_volume
from acclab.heat import (TAIL_TOL, ExactConeMode, GridKernel, PolyKernel,
                         _probe_result, _tail_lam_top, _trapezoid_cosines,
                         coincident_angular_weight, cone_mode_kernel,
                         crank_nicolson_mode, euclidean_kernel, g0_fiber_check,
                         heat_from_spectrum, interior_probe, scaled_probe,
                         scaling_identity_defect, t_convolve, volterra_neumann)
from acclab.spectral import SLGrid, SolverError, _discretize, solve_mode


# -- closed-form kernels -------------------------------------------------------

def test_euclidean_normalization_and_peak():
    from scipy.integrate import quad
    t = 0.17
    for n in (1, 2, 3):
        def radial(r, n=n):
            sphere = 2.0 if n == 1 else sphere_volume(n - 1) * r ** (n - 1)
            return float(euclidean_kernel(n, [r] + [0.0] * (n - 1),
                                          [0.0] * n, t)) * sphere
        total, _ = quad(radial, 0, 20, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abs(total - 1.0) < 1e-8
    assert euclidean_kernel(3, [0.0, 0, 0], [0.0, 0, 0], t) \
        == pytest.approx((4 * math.pi * t) ** -1.5)
    with pytest.raises(ValueError):
        euclidean_kernel(3, [0.0], [0.0], 0.0)


def test_euclidean_heat_equation_fd_residual_second_order():
    t0, z0 = 0.3, 0.4

    def residual(h):
        dt = (euclidean_kernel(1, [z0], [0.0], t0 + h)
              - euclidean_kernel(1, [z0], [0.0], t0 - h)) / (2 * h)
        dzz = (euclidean_kernel(1, [z0 + h], [0.0], t0)
               - 2 * euclidean_kernel(1, [z0], [0.0], t0)
               + euclidean_kernel(1, [z0 - h], [0.0], t0)) / h ** 2
        return abs(dt - dzz)

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 < 1e-4
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_cone_mode_kernel_half_integer_closed_form():
    # nu = 1/2 at n = 3 is the image kernel on the half line over (x x')
    x, xp = 0.3, 0.45
    for t in (0.01, 0.08, 0.3):
        a = cone_mode_kernel(0.5, 3, x, xp, t)
        images = (4.0 * math.pi * t) ** -0.5 * (
            math.exp(-(x - xp) ** 2 / (4 * t))
            - math.exp(-(x + xp) ** 2 / (4 * t)))
        assert a == pytest.approx(images / (x * xp), rel=1e-12)


def test_cone_mode_kernel_vs_eigensum_oracle_pre_boundary(cone_mode_solves):
    for mu, nu in ((0.0, 0.5), (2.0, 1.5)):
        sol = cone_mode_solves[mu]
        for t in (0.01, 0.02, 0.04):
            ev = heat_from_spectrum(sol, 0.3, 0.3, t)
            ck = cone_mode_kernel(nu, 3, 0.3, 0.3, t)
            assert abs(ev - ck) / ck < 1e-4


def test_cone_mode_kernel_off_diagonal_superpolynomial_decay():
    # Gaussian off-diagonal decay beats any power once (x-x')^2/4t dominates
    times = (1e-3, 5e-4, 2.5e-4)
    vals = [cone_mode_kernel(1.5, 3, 0.1, 0.9, t) for t in times]
    scaled = [v / t ** 10 for v, t in zip(vals, times)]
    assert scaled[1] < scaled[0] and scaled[2] < scaled[1]


def test_cone_mode_kernel_friedrichs_boundary_exponent():
    # k_nu(x, x', t) ~ x^(gamma_plus) as x -> 0
    n, mu, c = 3, 2.0, 1.0
    ind = indicial_roots(n, mu, c)
    xs = np.array([1e-3, 5e-4])
    vals = cone_mode_kernel(ind.nu, n, xs, 0.5, 0.1)
    slope = math.log(vals[0] / vals[1]) / math.log(xs[0] / xs[1])
    assert slope == pytest.approx(ind.gamma_plus, abs=1e-3)


def test_cone_mode_kernel_overflow_guard():
    # huge Bessel argument: unscaled I_nu would overflow
    val = cone_mode_kernel(0.5, 3, 40.0, 40.0, 1e-4)
    assert np.isfinite(val) and val > 0


def test_cone_mode_kernel_symmetry_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, xp = rng.uniform(0.05, 1.0, 2)
        t = rng.uniform(0.005, 0.5)
        nu = rng.uniform(0.5, 4.0)
        a = cone_mode_kernel(nu, 3, x, xp, t)
        b = cone_mode_kernel(nu, 3, xp, x, t)
        assert a == pytest.approx(b, rel=1e-12)
        assert a > 0


# -- eigenexpansion kernels ------------------------------------------------------

def test_heat_from_spectrum_long_time_and_reproducing():
    fam = WarpFamily.capped(n=3, c=1.0)
    sol = solve_mode(fam.radial_operator(0.0, 0.1), SLGrid(1024), 60)
    assert heat_from_spectrum(sol, 0.5, 0.5, 40.0) < 1e-8  # lambda_1 > 0
    # reproducing property: int K(x, x', t) u1(x') w dx' = e^(-lambda_1 t) u1(x)
    g = sol.operator.gamma
    xs, t = sol.xs, 0.2
    u1 = sol.u[:, 0]
    lamt = np.exp(-sol.lam * t)
    probe = 0.52
    ux = sol.interp(probe)[0]
    kvals = np.array([np.sum(lamt * ux * sol.u[j, :]) for j in range(len(xs))])
    if g:
        weights = sol.mass  # mass is for w~ = w x^(2g); u = x^g v absorbs it
        v1 = np.where(xs > 0, u1 / np.where(xs > 0, xs ** g, 1.0), 0.0)
        kv = np.where(xs > 0, kvals / np.where(xs > 0, xs ** g, 1.0), 0.0)
        lhs = float(np.sum(kv * v1 * weights))
    else:
        lhs = float(np.sum(kvals * u1 * sol.mass))
    rhs = math.exp(-sol.lam[0] * t) * float(np.interp(probe, xs, u1))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_heat_from_spectrum_tail_guard():
    fam = WarpFamily.capped(n=3, c=1.0)
    sol = solve_mode(fam.radial_operator(0.0, 0.1), SLGrid(256), 5)
    with pytest.raises(SolverError, match="tail"):
        heat_from_spectrum(sol, 0.5, 0.5, 1e-4)


@pytest.mark.parametrize("t", [0.05, 0.1, 0.5])
@pytest.mark.parametrize("mu", [0.0, 6.0, 20.0])
def test_tail_truncated_heat_sum_matches_the_count_sum(mu, t):
    # solving only up to ln(1/TAIL_TOL)/t passes the tail guard at t and
    # changes the kernel by no more than the eigensolver's reproducibility
    op = WarpFamily.capped(n=3, c=0.8).radial_operator(mu, 0.05)
    lam_top = math.log(1.0 / TAIL_TOL) / t
    sol = solve_mode(op, SLGrid(1024), lam_top=lam_top)
    assert math.exp(-sol.lam[-1] * t) <= TAIL_TOL
    full = solve_mode(op, SLGrid(1024), 60)
    for x, xp in [(0.5, 0.5), (0.3, 0.7), (0.9, 0.2)]:
        assert heat_from_spectrum(sol, x, xp, t) == pytest.approx(
            heat_from_spectrum(full, x, xp, t), rel=1e-8, abs=1e-300)


def test_semigroup_property_quadrature():
    fam = WarpFamily.capped(n=3, c=1.0)
    sol = solve_mode(fam.radial_operator(0.0, 0.1), SLGrid(2048), 80)
    xs = sol.xs
    w = fam.f(xs, 0.1) ** 2
    t1, t2 = 0.15, 0.1
    probe_i = np.searchsorted(xs, 0.5)
    probe_j = np.searchsorted(xs, 0.3)
    lam1 = np.exp(-sol.lam * t1)
    lam2 = np.exp(-sol.lam * t2)
    ui = sol.u[probe_i, :]
    uj = sol.u[probe_j, :]
    left = np.array([np.sum(lam1 * ui * sol.u[m, :]) for m in range(len(xs))])
    right = np.array([np.sum(lam2 * sol.u[m, :] * uj) for m in range(len(xs))])
    composed = np.trapezoid(left * right * w, xs)
    direct = float(np.sum(np.exp(-sol.lam * (t1 + t2)) * ui * uj))
    assert composed == pytest.approx(direct, rel=1e-6)


def test_stochastic_mass_bound():
    # Dirichlet: mass strictly below one; closed (Neumann) neck: exactly one
    fam = WarpFamily.capped(n=3, c=1.0)
    sol = solve_mode(fam.radial_operator(0.0, 0.1), SLGrid(1024), 60)
    xs, t = sol.xs, 0.05
    lamt = np.exp(-sol.lam * t)
    ux = sol.interp(0.5)[0]
    mass_total = float(np.sum(
        np.array([np.sum(lamt * ux * sol.u[j, :]) for j in range(len(xs))])
        * sol.mass))
    assert mass_total < 1.0 + 1e-10
    assert 0.5 < mass_total  # boundary loss only

    closed = dataclasses.replace(
        WarpFamily.neck(n=3, c=1.0).radial_operator(0.0, 0.2),
        dirichlet=(False, False))
    soln = solve_mode(closed, SLGrid(1024), 40)
    lamt = np.exp(-soln.lam * t)
    ux = soln.interp(0.4)[0]
    mass_closed = float(np.sum(
        np.array([np.sum(lamt * ux * soln.u[j, :]) for j in range(len(soln.xs))])
        * soln.mass))
    assert mass_closed == pytest.approx(1.0, abs=1e-9)


def test_crank_nicolson_oracle_agreement():
    fam = WarpFamily.capped(n=3, c=0.8)
    op = fam.radial_operator(0.0, 0.05)
    sol = solve_mode(op, SLGrid(1024), 80)
    times = [0.1, 0.3]
    cn = crank_nicolson_mode(op, SLGrid(1024), 0.35, times, 0.5, substeps=600)
    for t, v in zip(times, cn):
        ev = heat_from_spectrum(sol, 0.5, 0.35, t)
        assert abs(v - ev) / abs(ev) < 1e-3


def _crank_nicolson_solve_banded(op, grid, xp, times, probe_x, substeps):
    """Reference stepping: one solve_banded call, so one tridiagonal
    factorisation, per substep."""
    disc = _discretize(op, grid)
    diag, off, mass = disc.diag, disc.off, disc.mass
    xn = disc.xs[disc.idx]
    j0 = int(np.argmin(np.abs(xn - xp)))
    u = np.zeros(len(xn))
    u[j0] = 1.0 / mass[j0]
    out = []
    t_prev = 0.0
    for t in times:
        dt = (t - t_prev) / substeps
        ab_l = np.zeros((3, len(xn)))
        ab_l[0, 1:] = 0.5 * dt * off / mass[:-1]
        ab_l[1] = 1.0 + 0.5 * dt * diag / mass
        ab_l[2, :-1] = 0.5 * dt * off / mass[1:]
        for _ in range(substeps):
            rhs = u - 0.5 * dt / mass * (
                np.r_[0.0, off * u[:-1]] + diag * u + np.r_[off * u[1:], 0.0])
            u = solve_banded((1, 1), ab_l, rhs)
        t_prev = t
        val = np.interp(probe_x, xn, u)
        if op.gamma != 0.0:
            val *= probe_x ** op.gamma * xn[j0] ** op.gamma
        out.append(float(val))
    return out


@pytest.mark.parametrize("profile,mu", [("capped", 0.0), ("capped", 2.0),
                                        ("neck", 2.0)])
def test_crank_nicolson_equals_the_per_step_banded_solve(profile, mu):
    op = getattr(WarpFamily, profile)(n=3, c=0.8).radial_operator(mu, 0.05)
    # the capped mu = 2 mode carries the x^gamma rescaling of the probe value
    assert (op.gamma != 0.0) == (profile == "capped" and mu == 2.0)
    args = (op, SLGrid(256), 0.35, [0.1, 0.3], 0.5, 50)
    assert crank_nicolson_mode(*args) == _crank_nicolson_solve_banded(*args)


def test_exact_cone_mode_matches_closed_form():
    fam = WarpFamily.capped(n=3, c=1.0)
    em = ExactConeMode(fam, 0.0, 140)
    val = em.kernel(0.3, 0.3, 0.02)
    assert val == pytest.approx(cone_mode_kernel(0.5, 3, 0.3, 0.3, 0.02),
                                rel=1e-6)


def test_exact_cone_mode_u_matches_the_per_column_loop():
    # one jv table over np.outer(x, zeros), bit-identical to one column at a
    # time with the same arithmetic per element
    em = ExactConeMode(WarpFamily.capped(n=4, c=0.8), 6.0, 12)
    x = np.linspace(0.01, 1.0, 37)
    loop = np.empty((len(x), em.count))
    for k in range(em.count):
        loop[:, k] = (x ** (-(4 - 2) / 2.0) * jv(em.nu, em.zeros[k] * x)
                      / em.norms[k])
    assert np.array_equal(em.u(x), loop)


def test_exact_cone_mode_kernel_tail_guard():
    # three zeros reach lambda = (3 pi)^2, far short of ln(1/TAIL_TOL)/0.1
    em = ExactConeMode(WarpFamily.capped(n=3, c=1.0), 0.0, 3)
    with pytest.raises(SolverError, match="tail"):
        em.kernel(0.5, 0.5, 0.1)


@pytest.mark.parametrize("c", [0.8, 1.0])
def test_interior_probe_model_from_tail_rule_zeros(c):
    # the conic limit kernel the probe builds from the tail rule's zeros per
    # mode equals the 160-zero sum to the last bit: the omitted terms sit
    # below half an ulp of the sum
    fam = WarpFamily.capped(n=3, c=c, mode_count=12)
    times = (0.1, 0.25, 0.5, 1.0)
    res = interior_probe(fam, [0.2], times=times, ell_max=8, grid=SLGrid(256))
    modes = [(coincident_angular_weight(fam, ell),
              ExactConeMode(fam, fam.cross_section.mu(ell), 160))
             for ell in range(9)]
    full = [sum(w * m.kernel(0.5, 0.5, t) for w, m in modes) for t in times]
    assert res.model_values.tolist() == full


# -- degeneration probes -----------------------------------------------------------

def test_interior_probe_small_schedule():
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    res = interior_probe(fam, [0.2, 0.1, 0.05, 0.025], times=(0.1, 0.5),
                         ell_max=6, grid=SLGrid(512))
    assert res.strictly_decreasing
    assert res.distances[-1] < 1e-2
    assert res.regime == "interior_F0101"


def test_scaled_probe_small_schedule():
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    res = scaled_probe(fam, [1 / 2, 1 / 2.25, 1 / 2.5], ell_max=6,
                       h=1 / 64, ref_radius=5.0)
    assert res.strictly_decreasing
    assert res.distances[-1] < 5e-2
    wall = [math.exp(-(2 * (1 / e - 1)) ** 2 / 2.0) for e in res.schedule]
    # measured decay tracks the image-charge wall estimate within a factor 3
    for d, w in zip(res.distances, wall):
        assert w / 3 < d < 3 * w


def test_scaled_probe_detects_tight_truncation():
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    with pytest.raises(SolverError, match="truncation-domain influence"):
        scaled_probe(fam, [1 / 2, 1 / 2.25, 1 / 2.5], ell_max=4,
                     h=1 / 64, ref_radius=2.0)


def test_scaled_probe_refuses_a_grid_coarser_than_16_cells():
    # 2 ref_radius = 2 is 4 steps of h = 0.5: no silent switch to 16 cells
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    with pytest.raises(SolverError, match="h = 0.5 leaves 4 cells"):
        scaled_probe(fam, [0.5], ell_max=2, h=0.5, ref_radius=1.0)


def test_scaled_probe_requires_capped():
    with pytest.raises(SolverError, match="capped"):
        scaled_probe(WarpFamily.neck(n=3, c=1.0), [0.5, 0.4, 0.3])


def _probe_run(probe):
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    if probe == "interior":
        return interior_probe(fam, [0.2, 0.1], times=(0.1, 0.5), ell_max=4,
                              grid=SLGrid(256))
    return scaled_probe(fam, [1 / 2, 1 / 2.25], ell_max=4, h=1 / 64,
                        ref_radius=5.0)


@pytest.mark.parametrize("probe", ["interior", "scaled"])
def test_pooled_probes_match_the_serial_path(cpus, pools, probe):
    cpus(2)
    pooled = _probe_run(probe)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    cpus(1)
    serial = _probe_run(probe)
    assert pools == [2]
    for name in ("eps_values", "model_values", "distances"):
        assert np.array_equal(getattr(pooled, name), getattr(serial, name))


@pytest.mark.parametrize("schedule, h, ref_radius, message", [
    # every job refuses: 2 ref_radius = 2 is 4 steps of h = 0.5
    ([0.5], 0.5, 1.0, "h = 0.5 leaves 4 cells"),
    # the drift check fails before the schedule radius 1/0.3, which is no
    # grid multiple, is read
    ([1 / 2, 0.3], 1 / 64, 2.0, "truncation-domain influence"),
])
def test_pooled_probe_refusals_match_the_serial_path(cpus, pools, schedule, h,
                                                     ref_radius, message):
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    errors = []
    for count in (2, 1):
        cpus(count)
        with pytest.raises(SolverError, match=message) as info:
            scaled_probe(fam, schedule, ell_max=2, h=h, ref_radius=ref_radius)
        assert multiprocessing.active_children() == []
        errors.append(str(info.value))
    assert pools == [2]
    assert errors[0] == errors[1]


def test_probes_fork_no_workers_beside_other_threads(cpus, no_fork,
                                                     another_thread):
    cpus(2)
    assert _probe_run("scaled").strictly_decreasing


@lru_cache(maxsize=None)
def _probe_mode(mu, eps):
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    return solve_mode(fam.radial_operator(mu, eps), SLGrid(256),
                      lam_top=_tail_lam_top(0.1))


_probe_points = st.floats(0.05, 0.95)
_probe_modes = st.tuples(st.sampled_from([0.0, 2.0, 6.0, 12.0]),
                         st.sampled_from([0.2, 0.05]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_probe_modes, _probe_points, _probe_points, st.floats(0.1, 2.0))
def test_heat_from_spectrum_symmetric_in_the_probe_pair(mode, x, xp, t):
    sol = _probe_mode(*mode)
    assert heat_from_spectrum(sol, x, xp, t) == pytest.approx(
        heat_from_spectrum(sol, xp, x, t), rel=1e-13, abs=0)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_probe_modes, _probe_points, _probe_points, st.floats(0.1, 2.0))
def test_heat_from_spectrum_positive_at_interior_pairs(mode, x, xp, t):
    assert heat_from_spectrum(_probe_mode(*mode), x, xp, t) > 0.0


_node_indices = st.integers(1, 511)  # interior nodes of the refined grid


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_probe_modes, _node_indices, _node_indices, st.floats(0.1, 1.0),
       st.floats(0.1, 1.0))
def test_heat_from_spectrum_semigroup_at_grid_nodes(mode, i, j, t1, t2):
    # sum_m H_t1(x_i, x_m) H_t2(x_m, x_j) q_m = H_(t1+t2)(x_i, x_j), with q
    # the node weights of the w-inner product of the unsubstituted modes
    sol = _probe_mode(*mode)
    xs, g = sol.xs, sol.operator.gamma
    assert len(xs) == 513
    q = np.zeros_like(xs)
    keep = (xs > 0) | (g == 0)
    q[keep] = sol.mass[keep] / xs[keep] ** (2 * g)
    # H_t(x_k, x_m) for every node m: the eigen-sum at the nodes
    left, right = (sol.u @ (np.exp(-sol.lam * t) * sol.u[k])
                   for k, t in ((i, t1), (j, t2)))
    assert np.sum(left * right * q) == pytest.approx(
        heat_from_spectrum(sol, xs[i], xs[j], t1 + t2), rel=1e-10, abs=0)


def test_probe_result_strict_decrease():
    model = np.array([2.0, 1.0])
    vals = np.array([[2.4, 1.1], [2.2, 1.05], [2.1, 1.02]])
    res = _probe_result("r", [0.4, 0.2, 0.1], [0.1, 0.5], model, vals, {})
    assert res.strictly_decreasing
    assert res.distances == pytest.approx([0.2, 0.1, 0.05])
    assert res.final_relative == res.distances[-1]


def test_probe_result_tie_is_not_a_decrease():
    # equal distances, as on a family whose kernel sits at the noise floor
    model = np.array([2.0, 1.0])
    vals = np.array([[2.4, 1.1], [2.2, 1.05], [2.2, 1.05]])
    res = _probe_result("r", [0.4, 0.2, 0.1], [0.1, 0.5], model, vals, {})
    assert res.distances[1] == res.distances[2]
    assert not res.strictly_decreasing


def test_probe_result_distance_is_max_relative_gap_over_time():
    # the max sits at the second time in row 0 and at the first in row 1;
    # below-model values count by their absolute gap
    model = np.array([2.0, -1.0])
    vals = np.array([[1.6, -1.3], [2.2, -0.95]])
    res = _probe_result("r", [0.2, 0.1], [0.1, 0.5], model, vals, {"k": 1})
    assert res.distances == pytest.approx([0.3, 0.1])
    assert res.final_relative == pytest.approx(0.1)
    assert res.meta == {"k": 1}


def test_probe_result_one_column_scaled_input():
    schedule = [0.5, 0.4, 0.3]
    vals = np.array([[1.3], [1.1], [1.01]])
    res = _probe_result("scaled_F1010", schedule, [0.5], np.array([1.0]),
                        vals, {})
    assert res.eps_values.shape == (len(schedule), 1)
    assert res.times == [0.5]
    assert res.distances == pytest.approx([0.3, 0.1, 0.01])
    assert res.strictly_decreasing


def test_scaling_identity_flat_ball():
    flat = WarpFamily.capped(n=3, c=1.0)
    for s in (0.5, 0.25, 0.125):
        assert scaling_identity_defect(flat, s) < 1e-8


# -- fiber model checks ---------------------------------------------------------

def test_g0_fiber_residuals():
    res = g0_fiber_check(1, 1e-3)
    assert res["pde_residual"] < 1e-5
    assert res["transform_residual"] < 1e-4
    assert res["u_hat_at_0"] == pytest.approx(1.0, abs=1e-9)
    assert res["normalized_mass"] == pytest.approx(1.0, abs=1e-10)
    assert res["symmetry_defect"] < 1e-14


def test_g0_fiber_check_refuses_a_step_that_does_not_divide_the_fiber():
    for h in (3e-3, 7e-4):
        with pytest.raises(SolverError, match=f"h = {h} does not divide"):
            g0_fiber_check(1, h)


@pytest.mark.parametrize("h, reason", [(5.0, "leaves 2 cells"),
                                       (10.0, "leaves 1 cells"),
                                       (-1e-3, "must be positive")])
def test_g0_fiber_check_refuses_a_step_below_sixteen_cells(h, reason):
    with pytest.raises(SolverError, match=f"h = {h} {reason}"):
        g0_fiber_check(1, h)


def test_g0_fiber_pde_residual_scales_as_h_squared():
    ratios = [g0_fiber_check(1, h)["pde_residual"] / h ** 2
              for h in (4e-3, 2e-3, 1e-3)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-2)


def test_trapezoid_cosines_equal_the_per_row_trapezoid():
    # odd lengths and grids not symmetric about 0, so a phase error shows
    xs = np.linspace(-3.0, 7.0, 1001)
    xi = np.linspace(-2.0, 5.0, 141)
    f = np.exp(-(xs - 1.0) ** 2) * (1.0 + xs)
    direct = np.array([np.trapezoid(f * np.cos(k * xs), xs) for k in xi])
    fast = _trapezoid_cosines(f, -3.0, 0.01, -2.0, 0.05, len(xi))
    assert np.max(np.abs(fast - direct)) < 1e-12


# -- Volterra machinery -----------------------------------------------------------

def test_polykernel_closed_forms():
    one = PolyKernel.monomial(0)
    for j in (1, 2, 3, 6):
        pj = one.power(j)
        expect = [Fraction(0)] * j
        expect[j - 1] = Fraction(1, math.factorial(j - 1))
        assert list(pj.coeffs)[:j] == expect  # t^(j-1)/(j-1)!
    tkern = PolyKernel.monomial(1)
    t2 = tkern.convolve(tkern)
    assert t2.coeffs[3] == Fraction(1, 6)  # t*t = t^3/6
    assert t2(2.0) == pytest.approx(8 / 6)


def test_t_convolve_scalar_identities():
    ts = np.linspace(0, 1.0, 201)
    k1 = GridKernel.scalar(np.ones_like, ts)
    twice = t_convolve(k1, k1)
    assert twice.values[0, 0, -1] == pytest.approx(1.0, abs=1e-12)
    thrice = t_convolve(k1, twice)
    assert thrice.values[0, 0, -1] == pytest.approx(0.5, abs=1e-4)
    with pytest.raises(ValueError, match="uniform"):
        t_convolve(GridKernel.scalar(np.ones_like, np.array([0, 0.1, 0.3])),
                   GridKernel.scalar(np.ones_like, np.array([0, 0.1, 0.3])))


def test_t_convolve_spatial_grid_kernel():
    # rank-one spatial kernel: A(z,z',t) = phi(z) phi(z') t with unit mass
    nx = 16
    zs = np.linspace(0, 1, nx)
    wts = np.full(nx, zs[1] - zs[0])
    phi = np.sin(math.pi * zs)
    ts = np.linspace(0, 1, 161)
    vals = phi[:, None, None] * phi[None, :, None] * ts[None, None, :]
    k = GridKernel(vals, ts, wts)
    out = t_convolve(k, k)
    # closed form: <phi,phi>_w * phi phi' * t^3/6
    ip = float(np.sum(phi * phi * wts))
    expect = ip * phi[4] * phi[9] * ts[-1] ** 3 / 6.0
    assert out.values[4, 9, -1] == pytest.approx(expect, rel=1e-3)


def _t_convolve_loop(a, b):
    """Reference convolution: one matrix product per (k, l) pair, summed
    over l = 0, ..., k in order."""
    dt = a.t[1] - a.t[0]
    nx, _, nt = a.values.shape
    w = a.weights
    out = np.zeros_like(a.values)
    for k in range(nt):
        acc = np.zeros((nx, nx))
        for l in range(k + 1):
            coeff = 0.5 if l in (0, k) else 1.0
            acc += coeff * (a.values[:, :, k - l] * w[None, :]) @ b.values[:, :, l]
        out[:, :, k] = acc * dt
    return out


@pytest.mark.parametrize("nx", [1, 12])
@pytest.mark.parametrize("nt", [2, 3, 161])
def test_t_convolve_equals_the_per_pair_loop(nx, nt):
    rng = np.random.default_rng(nx * 1000 + nt)
    ts = np.linspace(0, 1.0, nt)
    w = rng.random(nx)
    a = GridKernel(rng.standard_normal((nx, nx, nt)), ts, w)
    b = GridKernel(rng.standard_normal((nx, nx, nt)), ts, w)
    assert np.array_equal(t_convolve(a, b).values, _t_convolve_loop(a, b))


def test_t_convolve_refuses_a_single_time_sample():
    k = GridKernel.scalar(np.ones_like, np.array([0.0]))
    with pytest.raises(ValueError, match="two samples"):
        t_convolve(k, k)


def test_t_convolve_refuses_a_time_grid_longer_than_the_samples():
    k = GridKernel(np.ones((1, 1, 3)), np.linspace(0.0, 1.0, 5), np.ones(1))
    with pytest.raises(ValueError, match="5 times for 3 samples"):
        t_convolve(k, k)


def test_t_convolve_refuses_a_time_grid_that_does_not_start_at_0():
    k = GridKernel.scalar(np.ones_like, np.array([0.5, 0.75, 1.0]))
    with pytest.raises(ValueError, match="start at 0, not 0.5"):
        t_convolve(k, k)


def test_t_convolve_refuses_kernels_on_different_time_grids():
    with pytest.raises(ValueError, match="share their time grid"):
        t_convolve(GridKernel.scalar(np.ones_like, np.array([0.0, 1.0])),
                   GridKernel.scalar(np.ones_like, np.array([0.0, 2.0])))


def test_t_convolve_refuses_kernels_with_different_weights():
    ts = np.array([0.0, 1.0])
    ones = np.ones((1, 1, 2))
    with pytest.raises(ValueError, match="spatial weights"):
        t_convolve(GridKernel(ones, ts, np.array([1.0])),
                   GridKernel(ones, ts, np.array([5.0])))


def test_volterra_neumann_factorial_decay():
    ts = np.linspace(0, 1.0, 161)
    k = GridKernel.scalar(lambda t: t ** 2, ts)
    rep = volterra_neumann(k, 6)
    assert rep.factorial_decay and rep.envelope_ok
    assert rep.sup_norms[3] < 1e-6  # j = 4 at t = 1
    assert rep.fitted_c > 0
    exact = PolyKernel.monomial(2)
    for j in (2, 3, 4):
        assert rep.sup_norms[j - 1] == pytest.approx(exact.power(j)(1.0),
                                                     rel=1e-3)


def test_volterra_growth_detected():
    ts = np.linspace(0, 3.0, 301)
    k = GridKernel.scalar(lambda t: 5.0 * np.ones_like(t), ts)
    with pytest.raises(SolverError, match="growth"):
        volterra_neumann(k, 6)

