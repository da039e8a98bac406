"""Eigensolver oracles, spectral flow, minimax bounds."""

import dataclasses
import math
import multiprocessing
import os
import time

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import jv

from acclab import spectral
from acclab.geometry import WarpFamily, indicial_roots
from acclab.spectral import (ModeSolution, SLGrid, SolverError,
                             assemble_spectra, bessel_j_zeros,
                             conic_reference_spectrum, mode_rayleigh_bound,
                             solve_mode, spectral_flow)
from acclab.heat import ExactConeMode

SCHEDULE = [0.2, 0.1, 0.05, 0.025, 0.0125]


def test_cone_mu0_matches_sine_spectrum():
    # nu = 1/2: J_(1/2)(z) ~ sin z, so lambda_k = (k pi)^2 in closed form
    fam = WarpFamily.capped(n=3, c=1.0)
    sol = solve_mode(fam.radial_operator(0.0, 0.0), SLGrid(1024), 6)
    exact = np.array([(k * math.pi) ** 2 for k in range(1, 7)])
    assert np.max(np.abs(sol.lam - exact) / exact) < 1e-6


def test_cone_mu2_matches_tan_equation_zero():
    # nu = 3/2: zeros of J_(3/2) solve tan z = z; frozen first root
    root = brentq(lambda z: math.tan(z) - z, math.pi * 1.3, math.pi * 1.49)
    assert root == pytest.approx(4.493409457909064, abs=1e-12)
    assert bessel_j_zeros(1.5, 1)[0] == pytest.approx(root, abs=1e-10)
    fam = WarpFamily.capped(n=3, c=1.0)
    sol = solve_mode(fam.radial_operator(2.0, 0.0), SLGrid(1024), 2)
    assert sol.lam[0] == pytest.approx(root ** 2, rel=1e-6)


def test_bessel_zeros_against_scipy_brentq():
    nu = 2.3
    zeros = bessel_j_zeros(nu, 4)
    for z in zeros:
        assert abs(jv(nu, z)) < 1e-10
        assert jv(nu, z - 0.1) * jv(nu, z + 0.1) < 0  # simple sign change
        root = brentq(lambda y: jv(nu, y), z - 0.1, z + 0.1)
        assert root == pytest.approx(z, abs=1e-10)
    assert all(b > a for a, b in zip(zeros, zeros[1:]))


def _mpmath_zero(nu, k):
    return float(mpmath.besseljzero(mpmath.mpf(nu), k))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(0.0, 30.0), st.integers(1, 200), st.data())
def test_bessel_zeros_match_mpmath(nu, count, data):
    zeros = np.array(bessel_j_zeros(nu, count))
    assert len(zeros) == count
    assert np.all(np.diff(zeros) > 0)
    # J_nu changes sign across every zero; consecutive zeros are more than
    # 3 apart, so +-0.25 stays between the neighbours
    assert np.all(np.signbit(jv(nu, zeros - 0.25)) != np.signbit(jv(nu, zeros + 0.25)))
    # mpmath is too slow for every zero of every draw: check the first, the
    # last and a few drawn in between
    ks = {1, count} | set(data.draw(st.lists(st.integers(1, count), max_size=3)))
    for k in sorted(ks):
        ref = _mpmath_zero(nu, k)
        assert abs(zeros[k - 1] - ref) <= 1e-15 * ref


@pytest.mark.parametrize("nu, count", [(0.0, 1), (0.0, 5), (30.0, 1), (0.5, 1)])
def test_bessel_zeros_edge_orders_and_counts(nu, count):
    zeros = bessel_j_zeros(nu, count)
    assert len(zeros) == count
    for k, z in enumerate(zeros, start=1):
        ref = _mpmath_zero(nu, k)
        assert abs(z - ref) <= 1e-15 * ref


def test_bessel_zeros_reject_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        bessel_j_zeros(-0.5, 3)


def _random_mode_solution(seed, nodes, cols):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.01, 1.0, nodes)) - rng.uniform(0.0, 2.0)
    return ModeSolution(None, xs, None, None, rng.normal(size=(nodes, cols)), None)


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(1, 6))
def test_interp_matches_per_column_np_interp(seed, nodes, cols):
    sol = _random_mode_solution(seed, nodes, cols)
    xs = sol.xs
    rng = np.random.default_rng(seed + 1)
    x = np.concatenate([rng.uniform(xs[0], xs[-1], 50), xs, [xs[0], xs[-1]]])
    expected = np.stack([np.interp(x, xs, sol.u[:, j]) for j in range(cols)],
                        axis=1)
    assert np.array_equal(sol.interp(x), expected)
    assert np.array_equal(sol.interp(float(x[0])), expected[:1])


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40),
       st.floats(1e-12, 1e3), st.booleans())
def test_interp_rejects_points_outside_domain(seed, nodes, dist, right):
    sol = _random_mode_solution(seed, nodes, 2)
    xs = sol.xs
    outside = xs[-1] + dist if right else xs[0] - dist
    with pytest.raises(ValueError, match="outside the domain"):
        sol.interp([0.5 * (xs[0] + xs[-1]), outside])
    with pytest.raises(ValueError, match="outside the domain"):
        sol.interp(np.nextafter(xs[-1], np.inf) if right
                   else np.nextafter(xs[0], -np.inf))


def test_scale_c_enters_through_nu():
    # c = 2 rescales nu: nu = sqrt(1/4 + mu/4) at n = 3
    assert indicial_roots(3, 3.0, 2.0).nu == pytest.approx(1.0)
    fam = WarpFamily.capped(n=3, c=2.0)
    sol = solve_mode(fam.radial_operator(3.0, 0.0), SLGrid(1024), 1)
    z = bessel_j_zeros(1.0, 1)[0]
    assert sol.lam[0] == pytest.approx(z ** 2, rel=1e-6)


# the neck's unsplit mode operator at ell = 4, eps = 0.0125: eigenvalue pairs
# equal to the last bit, so the cluster path meets clusters of two
_NECK = WarpFamily.neck(n=3, c=1.0, mode_count=7)
_NECK_OP = _NECK.radial_operator(_NECK.cross_section.mu(4), 0.0125)


def _mode_solution(request, case):
    if case == "capped":
        fam = WarpFamily.capped(n=3, c=1.0)
        return solve_mode(fam.radial_operator(2.0, 0.1), SLGrid(512), 5)
    if case == "neck":
        return solve_mode(_NECK_OP, SLGrid(4096), 48)
    return request.getfixturevalue("cone_mode_solves")[{"cone mu=0": 0.0,
                                                        "cone mu=2": 2.0}[case]]


def _unit_vectors(sol):
    """The fine grid's discretization and its orthonormal eigenvectors
    sqrt(M) u / x^gamma on the unknowns, which `sol.u` was built from.

    Where gamma > 0 makes u = 0 at a tip node x = 0, the tip component
    follows from the first row of the eigen-equation of the mass-scaled
    tridiagonal, so the w inner product keeps the tip's mass.
    """
    disc = spectral._discretize(sol.operator, SLGrid(len(sol.xs) - 1))
    x = disc.xs[disc.idx, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = sol.u[disc.idx] / x ** sol.operator.gamma
    vec *= np.sqrt(disc.mass)[:, None]
    if x[0, 0] == 0.0 and sol.operator.gamma > 0:
        vec[0] = disc.bo[0] * vec[1] / (sol.lam_raw - disc.bd[0])
    return disc, vec


_SOLVES = ["capped", "cone mu=0", "cone mu=2", "neck"]


@pytest.mark.parametrize("case", _SOLVES)
def test_eigenvectors_w_orthonormal(request, case):
    _, vec = _unit_vectors(_mode_solution(request, case))
    assert np.max(np.abs(vec.T @ vec - np.eye(vec.shape[1]))) < 1e-13


@pytest.mark.parametrize("case", _SOLVES[1:])
def test_cluster_path_eigenpairs_match_lapack(request, case):
    # columns up to sign; inside a cluster of equal eigenvalues, where the
    # basis is arbitrary, the spectral projector
    sol = _mode_solution(request, case)
    disc, vec = _unit_vectors(sol)
    count = vec.shape[1]
    assert len(disc.bd) * count ** 2 >= spectral._CLUSTER_WORK
    lam, ref = scipy.linalg.eigh_tridiagonal(disc.bd, disc.bo, select="i",
                                             select_range=(0, count - 1))
    # one stebz call per index part of `solve_mode`'s split
    k0 = spectral._split_at(len(disc.bd), count)
    assert np.array_equal(np.r_[tuple(scipy.linalg.eigh_tridiagonal(
        disc.bd, disc.bo, eigvals_only=True, select="i",
        select_range=half) for half in ((0, k0 - 1), (k0, count - 1)))],
        sol.lam_raw)
    norm = np.abs(disc.bd)
    norm[:-1] += np.abs(disc.bo)
    norm[1:] += np.abs(disc.bo)
    gap = math.sqrt(np.finfo(float).eps) * np.max(norm)
    starts = np.r_[0, np.flatnonzero(np.diff(lam) > gap) + 1, count]
    for lo, hi in zip(starts[:-1], starts[1:]):
        ours, theirs = vec[:, lo:hi], ref[:, lo:hi]
        if hi - lo == 1:
            err = min(np.max(np.abs(ours - theirs)),
                      np.max(np.abs(ours + theirs)))
        else:
            err = np.max(np.abs(ours - theirs @ (theirs.T @ ours)))
        assert err < 1e-9, (lo, hi)
    if case == "neck":
        assert np.any(np.diff(starts) > 1)


def test_solve_below_the_cluster_rule_keeps_the_single_stein_bits():
    op = _OVERLAP_OP
    sol = solve_mode(op, SLGrid(1024), 80)
    disc = spectral._discretize(op, SLGrid(2048))
    assert len(disc.bd) * 80 ** 2 < spectral._CLUSTER_WORK
    lam, vec = scipy.linalg.eigh_tridiagonal(disc.bd, disc.bo, select="i",
                                             select_range=(0, 79))
    vec *= (1.0 / np.sqrt(disc.mass))[:, None]
    u = np.zeros((len(disc.xs), 80))
    u[disc.idx] = vec
    u *= disc.xs[:, None] ** op.gamma
    assert np.array_equal(sol.lam_raw, lam)
    assert np.array_equal(sol.u, u)


def test_cluster_path_orders_split_blocks():
    # a zero off-diagonal splits T into two blocks with interleaved
    # spectra, so stebz's block order is not ascending
    disc = spectral._discretize(_OVERLAP_OP, SLGrid(2048))
    d = np.r_[disc.bd, 1.7 * disc.bd]
    e = np.r_[disc.bo, 0.0, 1.7 * disc.bo]
    count = 80
    assert len(d) * count ** 2 >= spectral._CLUSTER_WORK
    out = np.full((len(d), count), np.nan)
    lam, vec = spectral.eigh_tridiagonal(d, e, select="i",
                                         select_range=(0, count - 1), out=out)
    assert vec is out
    ref_lam, ref = scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                                 select_range=(0, count - 1))
    assert np.array_equal(lam, ref_lam)
    assert np.max(np.abs(vec.T @ vec - np.eye(count))) < 1e-13
    sign = np.sign(np.sum(vec * ref, axis=0))
    assert np.max(np.abs(vec * sign - ref)) < 1e-9


@pytest.mark.parametrize("case", ["cone", "cone_out", "split", "by_value",
                                  "values_only"])
def test_eigh_tridiagonal_equals_scipy_bit_for_bit(case):
    if case == "split":
        # a zero off-diagonal splits T into blocks, so stebz's block order
        # is not ascending and the columns must be reordered
        d = np.array([5.0, 1.0, 3.0, 0.5, 4.0, 2.0])
        e = np.array([0.1, 0.2, 0.0, 0.3, 0.1])
    else:
        fam = WarpFamily.capped(n=3, c=0.8)
        disc = spectral._discretize(fam.radial_operator(2.0, 0.05),
                                    SLGrid(512))
        d, e = disc.bd, disc.bo
    kwargs = {"cone": dict(select="i", select_range=(0, 39)),
              "cone_out": dict(select="i", select_range=(0, 39),
                               out=np.empty((len(d), 40))),
              "split": dict(select="i", select_range=(0, 4)),
              "by_value": dict(select="v", select_range=(-1.0, 500.0)),
              "values_only": dict(eigvals_only=True, select="i",
                                  select_range=(3, 9))}[case]
    ours = spectral.eigh_tridiagonal(d, e, **kwargs)
    theirs = scipy.linalg.eigh_tridiagonal(
        d, e, **{k: v for k, v in kwargs.items() if k != "out"})
    if "out" in kwargs:
        assert ours[1] is kwargs["out"]
    if not isinstance(ours, tuple):
        ours, theirs = (ours,), (theirs,)
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    if case == "split":
        assert np.all(np.diff(ours[0]) >= 0)


def test_richardson_second_order_convergence():
    fam = WarpFamily.capped(n=3, c=1.0)
    op = fam.radial_operator(0.0, 0.0)
    lam_exact = math.pi ** 2
    errs = []
    for n in (128, 256, 512):
        sol = solve_mode(op, SLGrid(n), 1)
        errs.append(abs(sol.lam_raw[0] - lam_exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_solver_guard_rails():
    fam = WarpFamily.capped(n=3, c=1.0)
    op = fam.radial_operator(0.0, 0.1)
    with pytest.raises(SolverError, match="count"):
        solve_mode(op, SLGrid(16), 10)
    with pytest.raises(ValueError, match="16"):
        SLGrid(8)


def _boundary_cases():
    capped = WarpFamily.capped(n=3, c=0.8)
    neck = WarpFamily.neck(n=3, c=0.8)
    halves = dict(neck.radial_operators_split(2.0, 0.1))
    cap_gamma = indicial_roots(3, 2.0, 1.0).gamma_plus
    cone_gamma = indicial_roots(3, 2.0, 0.8).gamma_plus
    # (operator, domain, substitution exponent, (left kept, right kept))
    return {
        "capped": (capped.radial_operator(2.0, 0.1), (0.0, 1.0), cap_gamma,
                   (True, False)),
        "cone": (capped.radial_operator(2.0, 0.0), (0.0, 1.0), cone_gamma,
                 (True, False)),
        "neck dirichlet": (neck.radial_operator(2.0, 0.1), (-1.0, 1.0), 0.0,
                           (False, False)),
        "neck neumann": (dataclasses.replace(neck.radial_operator(2.0, 0.1),
                                             dirichlet=(False, False)),
                         (-1.0, 1.0), 0.0, (True, True)),
        "neck even": (halves["even"], (0.0, 1.0), 0.0, (True, False)),
        "neck odd": (halves["odd"], (0.0, 1.0), 0.0, (False, False)),
        "fixed space": (capped.radial_operator_fixed_space(2.0, 3.0),
                        (0.0, 3.0), cap_gamma, (True, False)),
    }


@pytest.mark.parametrize("kind", list(_boundary_cases()))
def test_discretize_keeps_natural_ends_and_drops_dirichlet_ones(kind):
    # the weight after u = x^gamma v is f^(n-1) x^(2 gamma); a kept end node
    # carries its half cell of mass and stiffness, a Dirichlet one is dropped
    op, (lo, hi), gamma, (left, right) = _boundary_cases()[kind]
    disc = spectral._discretize(op, SLGrid(16))
    xs = disc.xs
    assert (xs[0], xs[-1], len(xs)) == (lo, hi, 17)
    assert np.array_equal(disc.idx, np.arange(0 if left else 1,
                                              17 if right else 16))

    mids, h = 0.5 * (xs[:-1] + xs[1:]), np.diff(xs)
    wm = (op.family.f(mids, op.eps) ** (op.family.n - 1)
          * np.abs(mids) ** (2 * gamma))
    qm = op.substituted_coefficients()[1](mids)

    def half_cells(per_cell):
        return np.r_[per_cell, 0.0] + np.r_[0.0, per_cell]

    mass = half_cells(0.5 * wm * h)
    diag = half_cells(wm / h) + half_cells(0.5 * qm * h)
    np.testing.assert_allclose(disc.mass, mass[disc.idx], rtol=1e-12, atol=0)
    np.testing.assert_allclose(disc.diag, diag[disc.idx], rtol=1e-12, atol=0)


def _lam_top_operators():
    capped = WarpFamily.capped(n=3, c=0.8, mode_count=10)
    neck = WarpFamily.neck(n=3, c=0.8, mode_count=10)
    ops = [("capped mu=0", capped.radial_operator(0.0, 0.1)),
           ("capped mu=12", capped.radial_operator(12.0, 0.05)),
           ("cone mu=2", capped.radial_operator(2.0, 0.0)),
           ("scaled space", capped.radial_operator_fixed_space(6.0, 3.0))]
    ops += [(f"neck {branch}", op)
            for branch, op in neck.radial_operators_split(2.0, 0.1)]
    return ops


@pytest.mark.parametrize("lam_top", [30.0, 322.0, 2500.0])
@pytest.mark.parametrize("name, op", _lam_top_operators())
def test_lam_top_solve_is_the_tail_prefix_of_the_count_solve(name, op, lam_top):
    grid = SLGrid(512)
    sol = solve_mode(op, grid, lam_top=lam_top)
    full = solve_mode(op, grid, 60)
    m = len(sol.lam)
    assert full.lam[-1] > lam_top  # the count=60 reference covers the range
    # the last extrapolated eigenvalue reaches lam_top ...
    assert sol.lam[-1] >= lam_top
    # ... every eigenvalue at or below lam_top is there ...
    assert m >= np.count_nonzero(full.lam <= lam_top)
    # ... and the result is a prefix of the count=60 solve
    assert sol.u.shape == (len(full.xs), m)
    np.testing.assert_allclose(sol.lam, full.lam[:m], rtol=1e-8, atol=0)
    np.testing.assert_allclose(sol.lam_err, full.lam_err[:m], rtol=1e-6,
                               atol=1e-9 * lam_top)
    # eigenvectors up to sign, against the node scale of the mode
    signs = np.sign(np.sum(sol.u * full.u[:, :m], axis=0))
    scale = np.max(np.abs(full.u[:, :m]), axis=0)
    assert np.all(np.max(np.abs(sol.u * signs - full.u[:, :m]), axis=0)
                  <= 1e-6 * scale)


def test_lam_top_and_count_are_exclusive():
    op = WarpFamily.capped(n=3, c=0.8).radial_operator(0.0, 0.1)
    with pytest.raises(ValueError, match="exactly one"):
        solve_mode(op, SLGrid(256), 5, lam_top=100.0)
    with pytest.raises(ValueError, match="exactly one"):
        solve_mode(op, SLGrid(256))


def test_lam_top_beyond_quarter_grid_raises():
    op = WarpFamily.capped(n=3, c=0.8).radial_operator(0.0, 0.1)
    grid = SLGrid(64)  # at most 16 pairs
    solve_mode(op, grid, lam_top=(12 * math.pi) ** 2)
    with pytest.raises(SolverError, match="count > N/4"):
        solve_mode(op, grid, lam_top=(20 * math.pi) ** 2)


def test_lam_top_short_spectrum_raises(monkeypatch):
    # the coarse grid converges from below, so its count never falls short
    # in practice; an undercount must still not return a short spectrum
    op = WarpFamily.capped(n=3, c=0.8).radial_operator(0.0, 0.1)
    monkeypatch.setattr(spectral, "_count_below", lambda disc, lam_top: 0)
    with pytest.raises(SolverError, match="below lam_top"):
        solve_mode(op, SLGrid(256), lam_top=322.0)


def _count_operators():
    for c in (0.8, 1.0):
        capped = WarpFamily.capped(n=3, c=c, mode_count=10)
        neck = WarpFamily.neck(n=3, c=c, mode_count=10)
        for mu in (0.0, 2.0, 12.0):
            for eps in (0.2, 0.0125):
                yield f"capped c={c} mu={mu} eps={eps}", \
                    capped.radial_operator(mu, eps)
                for branch, op in neck.radial_operators_split(mu, eps):
                    yield f"neck {branch} c={c} mu={mu} eps={eps}", op


@pytest.mark.parametrize("n", [256, 512])
def test_count_below_equals_the_bisected_count(n):
    # the Sturm count alone (infinite bisection tolerance) against the
    # length of the bisected eigenvalue-only result, with lam_top at random
    # points, exactly on an eigenvalue and one ulp to either side of it
    rng = np.random.default_rng(7)
    for name, op in _count_operators():
        disc = spectral._discretize(op, SLGrid(n))
        lam = scipy.linalg.eigh_tridiagonal(disc.bd, disc.bo,
                                            eigvals_only=True)
        radius = 2.0 * float(np.max(np.abs(disc.bo)))
        tops = list(rng.uniform(lam[0] - 1.0, lam[n // 16], size=3))
        for k in (0, n // 16):
            tops += [np.nextafter(lam[k], -np.inf), lam[k],
                     np.nextafter(lam[k], np.inf)]
        for lam_top in tops:
            lo = min(float(np.min(disc.bd)) - radius, lam_top) - 1.0
            bisected = spectral.eigh_tridiagonal(
                disc.bd, disc.bo, eigvals_only=True, select="v",
                select_range=(lo, lam_top))
            assert spectral._count_below(disc, float(lam_top)) \
                == len(bisected), (name, lam_top)


def test_conic_reference_closed_forms_and_neck_doubling():
    fam = WarpFamily.capped(n=3, c=1.0)
    ref = conic_reference_spectrum(fam, 3, ell_max=1)
    mu0 = [e for e in ref.entries if e["mu"] == 0]
    assert [e["lam"] for e in mu0] == pytest.approx(
        [math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2])
    assert all(e["mult"] == 1 for e in mu0)
    neck = conic_reference_spectrum(WarpFamily.neck(n=3, c=1.0), 3, ell_max=1)
    assert [e["lam"] for e in neck.entries] == [e["lam"] for e in ref.entries]
    assert [e["mult"] for e in neck.entries] \
        == [2 * e["mult"] for e in ref.entries]


def test_assemble_spectrum_sorted_union_with_multiplicities():
    fam = WarpFamily.capped(n=3, c=1.0)
    spec, = assemble_spectra(fam, [0.1], SLGrid(256), 3, ell_max=2)
    lams = [e["lam"] for e in spec.entries]
    assert lams == sorted(lams)
    ell1 = [e for e in spec.entries if e["ell"] == 1]
    assert all(e["mult"] == 3 for e in ell1)  # dim of degree-1 harmonics
    per_mode = {}
    for e in spec.entries:
        per_mode.setdefault(e["ell"], []).append(e["lam"])
    merged = sorted(v for vals in per_mode.values() for v in vals)
    assert merged == lams


def test_assemble_spectrum_truncation_guard():
    # the mode truncation is recorded on the result, not enforced
    fam = WarpFamily.capped(n=3, c=1.0, mode_count=8)
    spec, = assemble_spectra(fam, [0.1], SLGrid(256), 8, ell_max=1)
    assert spec.complete_below < spec.entries[-1]["lam"]


def test_capped_c1_spectrum_constant_in_eps():
    # removable singularity: the flat ball for every eps
    fam = WarpFamily.capped(n=3, c=1.0)
    ref = solve_mode(fam.radial_operator(2.0, 0.0), SLGrid(512), 3)
    for eps in (0.2, 0.05):
        sol = solve_mode(fam.radial_operator(2.0, eps), SLGrid(512), 3)
        assert np.max(np.abs(sol.lam - ref.lam) / ref.lam) < 1e-12


def test_first_eigenvalue_capped_close_to_pi_squared():
    fam = WarpFamily.capped(n=3, c=1.0)
    spec, = assemble_spectra(fam, [0.05], SLGrid(512), 4, ell_max=3)
    assert spec.entries[0]["lam"] == pytest.approx(math.pi ** 2, rel=0.05)


def test_mode_decoupling_against_2d_tensor_solve():
    """Brute-force oracle: zonal 2D eigensolve on the product grid equals
    the merged per-mode spectra within the cross-discretization tolerance."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    fam = WarpFamily.neck(n=3, c=1.0)
    eps = 0.3
    nx, nt = 220, 110
    xs = np.linspace(-1, 1, nx + 1)
    th = np.linspace(0.0, math.pi, nt + 1)

    def fv_matrices(nodes, pfun, wfun, dirichlet):
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        h = np.diff(nodes)
        pm, wm = pfun(mids), wfun(mids)
        m = len(nodes)
        diag = np.zeros(m); off = -pm / h; mass = np.zeros(m)
        diag[:-1] += pm / h; diag[1:] += pm / h
        mass[:-1] += 0.5 * wm * h; mass[1:] += 0.5 * wm * h
        sl = slice(1, -1) if dirichlet else slice(None)
        A = sp.diags([off, diag, off], [-1, 0, 1],
                     shape=(m, m), format="csr")[sl, sl]
        M = sp.diags(mass, format="csr")[sl, sl]
        return A, M

    f2 = lambda x: fam.f(x, eps) ** 2
    one = lambda x: np.ones_like(x)
    sin_t = lambda t: np.sin(t)
    Ax, MxF = fv_matrices(xs, f2, f2, dirichlet=True)     # x-stiffness, f^2 mass
    _, Mx1 = fv_matrices(xs, one, one, dirichlet=True)    # plain mass
    At, Mt = fv_matrices(th, sin_t, sin_t, dirichlet=False)

    A = sp.kron(Ax, Mt) + sp.kron(Mx1, At)
    M = sp.kron(MxF, Mt)
    vals = spla.eigsh(A, k=8, M=M.tocsc(), sigma=0.0, which="LM",
                      return_eigenvectors=False)
    vals = np.sort(vals)

    # zonal reduction: each ell contributes once
    ref = []
    for ell in range(4):
        mu = float(ell * (ell + 1))
        for _, op in fam.radial_operators_split(mu, eps):
            sol = solve_mode(op, SLGrid(256), 4)
            ref.extend(sol.lam)
    ref = np.sort(np.array(ref))[:8]
    assert np.max(np.abs(vals - ref) / ref) < 1.5e-2


def test_spectral_flow_both_families_and_inclusions():
    for profile, mult0 in (("capped", 1), ("neck", 2)):
        fam = getattr(WarpFamily, profile)(n=3, c=1.0)
        flow = spectral_flow(fam, SCHEDULE, SLGrid(512), count=3, ell_max=2)
        v = flow.verdict
        assert v["forward_inclusion"] and v["reverse_inclusion"]
        assert v["multiplicities_match"]
        first = min(flow.clusters, key=lambda c: c.center)
        assert first.matched_reference == pytest.approx(math.pi ** 2)
        assert first.multiplicity == mult0


def test_spectral_flow_schedule_validation():
    fam = WarpFamily.capped(n=3, c=1.0)
    with pytest.raises(SolverError, match="decreasing"):
        spectral_flow(fam, [0.1, 0.2, 0.05, 0.01], SLGrid(256), 2, 1)
    with pytest.raises(SolverError, match="4 points"):
        spectral_flow(fam, [0.2, 0.1], SLGrid(256), 2, 1)
    for last in (0.0, -0.05):  # no rate reading or verdict on eps <= 0
        with pytest.raises(SolverError, match="positive"):
            spectral_flow(fam, [0.2, 0.1, 0.05, last], SLGrid(256), 3, 2)


def _brute_force_verdict(flow, reference):
    """The verdict lists and per-cluster matches of `flow`, recomputed from
    its clusters and the reference by full pairwise scans."""
    values = [e["lam"] for e in reference.entries]

    def same(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a))

    # a distinct reference value is one with no equal value before it; its
    # multiplicity sums every entry equal to it
    distinct = [(v, sum(e["mult"] for e in reference.entries
                        if same(v, e["lam"])))
                for i, v in enumerate(values)
                if not any(same(u, v) for u in values[:i])]
    matches, unmatched_clusters, mismatches = [], [], []
    for cl in flow.clusters:
        gaps = [abs(v - cl.center) for v, _ in distinct]
        value, mult = distinct[gaps.index(min(gaps))]
        if min(gaps) <= cl.tolerance:
            matches.append((value, min(gaps)))
            if cl.multiplicity != mult:
                mismatches.append((cl.center, cl.multiplicity, mult))
        else:
            matches.append((None, min(gaps)))
            unmatched_clusters.append(cl.center)
    top = max(cl.center + cl.tolerance for cl in flow.clusters)
    matched = [value for value, _ in matches]
    unmatched_refs = [v for v, _ in distinct if v <= top and v not in matched]
    return matches, {"unmatched_clusters": unmatched_clusters,
                     "unmatched_references": unmatched_refs,
                     "multiplicity_mismatches": mismatches}


@pytest.mark.parametrize("profile, c, unmatched, unmatched_refs, mismatched", [
    ("capped", 0.8, 2, 2, 0),
    ("neck", 1.0, 3, 0, 3),
])
def test_failing_flow_verdict_equals_brute_force(profile, c, unmatched,
                                                  unmatched_refs, mismatched):
    # a tolerance far below the grid error fails the verdict on purpose
    fam = getattr(WarpFamily, profile)(n=3, c=c)
    flow = spectral_flow(fam, SCHEDULE, SLGrid(256), count=3, ell_max=2,
                         rel_tol=1e-6)
    matches, lists = _brute_force_verdict(
        flow, conic_reference_spectrum(fam, 3, 2))
    v = flow.verdict
    assert [(cl.matched_reference, cl.gap) for cl in flow.clusters] == matches
    assert {key: v[key] for key in lists} == lists
    assert (len(v["unmatched_clusters"]), len(v["unmatched_references"]),
            len(v["multiplicity_mismatches"])) == (unmatched, unmatched_refs,
                                                   mismatched)
    assert v["forward_inclusion"] is (unmatched == 0)
    assert v["reverse_inclusion"] is (unmatched_refs == 0)
    assert v["multiplicities_match"] is (mismatched == 0)


@pytest.mark.parametrize("schedule, rate", [
    ([0.2, 0.1, 0.05, 0.025], 2.0),    # geometric tail: the true order
    ([0.2, 0.1, 0.05, 0.04], math.nan),  # not geometric: no reading
])
def test_tail_fit_reads_rates_on_geometric_tails_only(schedule, rate):
    vals = [1.0 + 2.0 * e ** 2 for e in schedule]
    got = spectral.tail_fit(schedule, vals, (0, 1, 2, 3)).rate
    if math.isnan(rate):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(rate, rel=1e-9)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([(0, 1, 2, 3), (0, 2, 3), (0, 3.674, 5.674)]),
       st.floats(1.0, 100.0),
       st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_tail_fit_recovers_a_sum_of_its_model_terms(powers, a0, rest):
    vals = [a0 + sum(a * e ** p for a, p in zip(rest, powers[1:]))
            for e in SCHEDULE]
    fit = spectral.tail_fit(SCHEDULE, vals, powers)
    assert fit.status == "ok"
    assert abs(fit.limit - a0) <= 1e-12 * a0


@pytest.mark.parametrize("steps, vals, status", [
    # a zig-zag on an arithmetic tail extrapolates far outside its spread
    ([0.4, 0.3, 0.2, 0.1], [1.0, 0.0, 1.0, 0.0], "diverged"),
    ([0.2, 0.1, 0.1, 0.05], [1.0, 2.0, 2.0, 3.0], "singular"),
])
def test_tail_fit_falls_back_to_the_last_value(steps, vals, status):
    fit = spectral.tail_fit(steps, vals, (0, 1, 2, 3))
    assert (fit.limit, fit.status) == (vals[-1], status)


# -- negative controls: the flow verdict against a known-wrong limit -----------

def _wrong_reference(monkeypatch, delta=0.0, extra_ell=None):
    """Make `spectral_flow` compare with the reference at cone slope
    c (1 + delta), with one more multiplicity on every ell = extra_ell
    entry."""
    exact = spectral.conic_reference_spectrum

    def reference(family, count, ell_max):
        ref = exact(dataclasses.replace(family, c=family.c * (1 + delta)),
                    count, ell_max)
        for e in ref.entries:
            if e["ell"] == extra_ell:
                e["mult"] += 1
        return ref
    monkeypatch.setattr(spectral, "conic_reference_spectrum", reference)


@pytest.mark.parametrize("profile", ["capped", "neck"])
@pytest.mark.parametrize("delta, extra_ell, failures", [
    (0.0, None, (0, 0, 0)),
    (3e-4, None, (0, 0, 0)),
    (1e-3, None, (1, 1, 0)),
    (0.0, 1, (0, 0, 3)),  # both inclusions hold, multiplicities do not
])
def test_flow_verdict_against_a_wrong_reference(monkeypatch, profile, delta,
                                                extra_ell, failures):
    _wrong_reference(monkeypatch, delta, extra_ell)
    fam = getattr(WarpFamily, profile)(n=3, c=1.0)
    v = spectral_flow(fam, SCHEDULE, SLGrid(256), count=3, ell_max=2).verdict
    assert (len(v["unmatched_clusters"]), len(v["unmatched_references"]),
            len(v["multiplicity_mismatches"])) == failures
    assert v["multiplicities_match"] is (failures[2] == 0)


def test_flow_upper_bound_direction_capped():
    # lambda_(l,k)(eps) <= bar-lambda_(l,k) + tol for small eps: the minimax
    # direction, checked per curve against its own mode's reference
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=8)
    flow = spectral_flow(fam, SCHEDULE, SLGrid(512), count=3, ell_max=2)
    for (ell, _, k), vals in flow.curves.items():
        nu = indicial_roots(3, float(ell * (ell + 1)), 0.8).nu
        bar = bessel_j_zeros(nu, k)[k - 1] ** 2
        assert vals[-1] <= bar * (1 + 2e-2) + 2e-2


# -- pooled and overlapped solves ---------------------------------------------

def _schedule_run(kind, grid=SLGrid(256), count=3):
    """Everything a `spectrum` or `flow` run computes that must not depend
    on the number of CPUs (flow rates hold nan, which equals nothing)."""
    fam = WarpFamily.neck(n=3, c=1.0)
    if kind == "spectrum":
        return [(s.eps, s.entries, s.complete_below)
                for s in assemble_spectra(fam, SCHEDULE, grid, count, 2)]
    flow = spectral_flow(fam, SCHEDULE, grid, count=count, ell_max=2)
    return flow.curves, flow.clusters, flow.verdict


@pytest.mark.parametrize("kind", ["spectrum", "flow"])
def test_pooled_schedule_matches_the_serial_path(cpus, pools, kind):
    cpus(2)
    pooled = _schedule_run(kind)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    cpus(1)
    assert _schedule_run(kind) == pooled
    assert pools == [2]


@pytest.mark.parametrize("kind", ["spectrum", "flow"])
def test_pooled_schedule_refusal_matches_the_serial_path(cpus, pools, kind):
    errors = []
    for count in (2, 1):
        cpus(count)
        with pytest.raises(SolverError, match="count > N/4") as info:
            _schedule_run(kind, SLGrid(64), 17)
        assert multiprocessing.active_children() == []
        errors.append(str(info.value))
    assert pools == [2]
    assert errors[0] == errors[1]


@pytest.mark.parametrize("kind", ["spectrum", "flow"])
def test_schedule_forks_nothing_beside_other_threads(cpus, no_fork,
                                                     another_thread, kind):
    cpus(2)
    _schedule_run(kind)


def test_assemble_spectra_equals_one_call_per_eps():
    # the neck at eps = 0 is the conic reference, between solved rows
    fam = WarpFamily.neck(n=3, c=1.0)
    schedule = [0.1, 0.0, 0.05]
    spectra = assemble_spectra(fam, schedule, SLGrid(256), 3, 2)
    for eps, spec in zip(schedule, spectra):
        one, = assemble_spectra(fam, [eps], SLGrid(256), 3, 2)
        assert (spec.eps, spec.entries, spec.complete_below) \
            == (one.eps, one.entries, one.complete_below)


@pytest.mark.parametrize("name, op", _lam_top_operators())
def test_eigenvalue_only_solve_equals_the_full_solve(name, op):
    full = solve_mode(op, SLGrid(512), 20)
    only = solve_mode(op, SLGrid(512), 20, vectors=False)
    for field in ("xs", "lam", "lam_err", "lam_raw", "mass"):
        assert np.array_equal(getattr(only, field), getattr(full, field))
    assert only.u.shape == (len(full.xs), 0)


_OVERLAP_OP = WarpFamily.capped(n=3, c=0.8).radial_operator(2.0, 0.05)


@pytest.mark.parametrize("count", [80, 96])
def test_overlapped_solve_matches_the_serial_path(cpus, forks, count):
    # 1024 cells x 80 pairs lies beyond the overlap's size rule; 96 pairs on
    # the 2048 fine rows lie beyond the cluster path's as well
    assert (2048 * count ** 2 >= spectral._CLUSTER_WORK) == (count == 96)
    cpus(2)
    overlapped = solve_mode(_OVERLAP_OP, SLGrid(1024), count)
    assert forks == [1]
    assert multiprocessing.active_children() == []
    cpus(1)
    serial = solve_mode(_OVERLAP_OP, SLGrid(1024), count)
    assert forks == [1]
    for field in ("lam", "lam_err", "lam_raw", "u", "mass"):
        assert np.array_equal(getattr(overlapped, field),
                              getattr(serial, field))


def test_overlapped_solve_reraises_a_fine_solve_error(monkeypatch, cpus,
                                                      forks):
    # the coarse pass would take a minute: the child must be stopped, not
    # waited for
    cpus(2)

    def fine_fails(*args, **kwargs):
        raise scipy.linalg.LinAlgError("fine solve failed")

    monkeypatch.setattr(spectral, "eigh_tridiagonal", fine_fails)
    monkeypatch.setattr(spectral, "_eigenvalues",
                        lambda disc, count: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(scipy.linalg.LinAlgError, match="fine solve failed"):
        solve_mode(_OVERLAP_OP, SLGrid(1024), 80)
    assert time.monotonic() - start < 30
    assert forks == [1]
    assert multiprocessing.active_children() == []


def test_overlapped_solve_reraises_a_coarse_solve_error(monkeypatch, cpus,
                                                        forks):
    cpus(2)

    def coarse_fails(disc, count):
        raise SolverError(f"coarse solve of {count} pairs failed")

    monkeypatch.setattr(spectral, "_eigenvalues", coarse_fails)
    with pytest.raises(SolverError, match="coarse solve of 80 pairs failed"):
        solve_mode(_OVERLAP_OP, SLGrid(1024), 80)
    assert forks == [1]
    assert multiprocessing.active_children() == []


def test_no_overlap_below_the_size_rule(cpus, forks):
    cpus(2)
    solve_mode(_OVERLAP_OP, SLGrid(1024), 8)
    assert forks == [0]


def _forks_in_worker(job):
    """A runner job: `solve_mode(*job)` and the number of processes it
    forked, counted inside the worker."""
    started = []
    fork = os.fork
    os.fork = lambda: started.append(1) or fork()
    try:
        solve_mode(*job)
    finally:
        os.fork = fork
    return len(started)


def test_no_overlap_inside_a_runner_worker(cpus, pools):
    cpus(2)
    jobs = [(_OVERLAP_OP, SLGrid(1024), 80)] * 2
    with spectral._run_jobs(_forks_in_worker, jobs) as results:
        assert list(results) == [0, 0]
    assert pools == [2]
    assert multiprocessing.active_children() == []


# 50 pairs on the neck's 8192 cells split at k0 = 33, inside the pair of
# equal eigenvalues (32, 33)
_SPLIT = (_NECK_OP, SLGrid(4096), 50)


def test_split_solve_matches_the_serial_path_and_lapack(cpus, forks):
    disc = spectral._discretize(_NECK_OP, SLGrid(8192))
    lam, ref = scipy.linalg.eigh_tridiagonal(disc.bd, disc.bo, select="i",
                                             select_range=(0, 49))
    starts = spectral._cluster_starts(disc.bd, disc.bo, lam)
    assert spectral._split_at(len(disc.bd), 50) == 33
    assert 32 in starts and 33 not in starts and 34 in starts
    cpus(2)
    split = solve_mode(*_SPLIT)
    assert forks == [1]
    assert multiprocessing.active_children() == []
    cpus(1)
    serial = solve_mode(*_SPLIT)
    assert forks == [1]
    for field in ("lam", "lam_err", "lam_raw", "u", "mass"):
        assert np.array_equal(getattr(split, field), getattr(serial, field))
    cpus(2)
    assert np.array_equal(solve_mode(*_SPLIT, vectors=False).lam_raw,
                          split.lam_raw)
    _, vec = _unit_vectors(split)
    assert np.max(np.abs(vec.T @ vec - np.eye(50))) < 1e-13
    # spectral projectors, which a sign or a basis inside a cluster leaves
    for lo, hi in zip(starts[:-1], starts[1:]):
        ours, theirs = vec[:, lo:hi], ref[:, lo:hi]
        assert np.max(np.abs(ours - theirs @ (theirs.T @ ours))) < 1e-9


def _twin_blocks(op, grid):
    """A stand-in for `spectral._discretize`: two equal second-difference
    blocks joined by a coupling far below the bisection tolerance, so the
    eigenvalues come in pairs that separate stebz calls return equal to the
    last bit, and separate stein calls would return one vector twice."""
    rows = grid.n
    bd = np.full(rows, 2.0)
    bo = np.full(rows - 1, -1.0)
    bo[rows // 2 - 1] = -1e-15
    return spectral._Discretization(np.linspace(0.0, 1.0, rows + 2),
                                    np.arange(1, rows + 1), bd, bo,
                                    np.ones(rows), bd, bo)


def test_split_solve_solves_the_straddling_cluster_again(monkeypatch, cpus):
    monkeypatch.setattr(spectral, "_discretize", _twin_blocks)
    disc = _twin_blocks(None, SLGrid(8192))
    lam, ref = scipy.linalg.eigh_tridiagonal(disc.bd, disc.bo, select="i",
                                             select_range=(0, 49))
    starts = spectral._cluster_starts(disc.bd, disc.bo, lam)
    assert 32 in starts and 33 not in starts and 34 in starts
    cpus(2)
    vec = solve_mode(_NECK_OP, SLGrid(4096), 50).u[disc.idx]
    assert np.max(np.abs(vec.T @ vec - np.eye(50))) < 1e-13
    for lo, hi in zip(starts[:-1], starts[1:]):
        ours, theirs = vec[:, lo:hi], ref[:, lo:hi]
        assert np.max(np.abs(ours - theirs @ (theirs.T @ ours))) < 1e-9


@pytest.mark.parametrize("half", ["lower", "upper"])
def test_split_solve_reraises_a_half_error(monkeypatch, cpus, forks, half):
    # the lower part runs here and the upper part in the child; a failing
    # lower part must stop the child, which would take a minute, not wait
    cpus(2)
    pairs = spectral._pairs

    def one_half_fails(d, e, lo, hi, out, clusters=True):
        if (lo == 0) == (half == "lower"):
            raise scipy.linalg.LinAlgError(f"{half} half failed")
        if half == "lower":
            time.sleep(60)
        return pairs(d, e, lo, hi, out, clusters)

    monkeypatch.setattr(spectral, "_pairs", one_half_fails)
    start = time.monotonic()
    with pytest.raises(scipy.linalg.LinAlgError, match=f"{half} half failed"):
        solve_mode(*_SPLIT)
    assert time.monotonic() - start < 30
    assert forks == [1]
    assert multiprocessing.active_children() == []


def _blas_thread_counts(job):
    """A runner job: the thread count of each OpenBLAS that scipy and numpy
    bundle, in the process that runs it."""
    return [getattr(lib, name % "get")() for lib, name in spectral._openblas()]


def test_forked_processes_run_blas_on_one_thread(cpus, pools):
    if not spectral._openblas():
        pytest.skip("no bundled OpenBLAS with a thread-count setter")
    ones = [1] * len(spectral._openblas())
    here = _blas_thread_counts(None)
    cpus(2)
    with spectral._run_jobs(_blas_thread_counts, [0, 1]) as results:
        assert list(results) == [ones, ones]
    assert pools == [2]
    with spectral._beside(True, _blas_thread_counts, None) as result:
        assert result() == ones
    spectral._orthonormalize(np.eye(4))
    assert _blas_thread_counts(None) == here
    assert multiprocessing.active_children() == []


# -- minimax bounds -----------------------------------------------------------

def test_minimax_attained_on_exact_eigenvectors():
    fam = WarpFamily.capped(n=3, c=1.0)
    mode = ExactConeMode(fam, 0.0, 3)
    basis = [(lambda k: (lambda x: mode.u(np.asarray(x))[:, k]))(k)
             for k in range(3)]
    op = fam.radial_operator(0.0, 0.0)
    bounds = mode_rayleigh_bound(op, basis, npoints=20001)
    assert np.allclose(bounds, mode.lam, rtol=1e-6)


def test_minimax_upper_bound_never_below_solver():
    rng = np.random.default_rng(11)
    fam = WarpFamily.capped(n=3, c=1.0)
    op = fam.radial_operator(0.0, 0.1)
    sol = solve_mode(op, SLGrid(1024), 4)
    for _ in range(6):
        coeffs = rng.normal(size=(3, 4))
        basis = [(lambda cs: (lambda x: sum(
            c * np.sin((j + 1) * math.pi * np.asarray(x)) for j, c in
            enumerate(cs))))(row) for row in coeffs]
        bounds = mode_rayleigh_bound(op, basis)
        for l in range(3):
            assert bounds[l] >= sol.lam[l] * (1 - 1e-8)


def test_minimax_cutoff_conic_eigenfunctions():
    # chi * u_l with a smooth cutoff at x = 2 eps: the upper bound exceeds
    # bar-lambda_l by an O(eps) cutoff penalty that shrinks with eps
    fam = WarpFamily.capped(n=3, c=1.0)
    mode = ExactConeMode(fam, 0.0, 3)

    def penalties(eps):
        def cutoff(x):
            x = np.asarray(x)
            s = np.clip((x - eps) / eps, 0.0, 1.0)
            return s * s * (3 - 2 * s)

        basis = [(lambda k: (lambda x: cutoff(x)
                             * mode.u(np.asarray(x))[:, k]))(k)
                 for k in range(3)]
        op = fam.radial_operator(0.0, eps)
        return mode_rayleigh_bound(op, basis, npoints=40001) - mode.lam

    p1, p2 = penalties(0.01), penalties(0.002)
    assert np.all(p1 > -1e-9) and np.all(p2 > -1e-9)  # never below the limit
    assert np.all(p2 < p1 / 3.0)                      # O(eps) decay
    assert np.all(p2 < np.array([0.2, 0.6, 1.2]))


def test_minimax_singular_gram_rejected():
    fam = WarpFamily.capped(n=3, c=1.0)
    op = fam.radial_operator(0.0, 0.1)
    f = lambda x: np.sin(math.pi * np.asarray(x))
    with pytest.raises(SolverError, match="Gram"):
        mode_rayleigh_bound(op, [f, f])
