"""Per-mode Sturm-Liouville eigensolver and the spectral-flow study.

The radial problems -(p u')' + q u = lambda w u are discretized by a
flux-form finite volume scheme on uniform grids, after the
substitution u = x^gamma v at a singular endpoint.  Exact references for the
degenerate limit come from Bessel zeros: per cross-section eigenvalue mu the
cone on (0, 1] with Dirichlet outer boundary has spectrum j_{nu(mu),k}^2
with nu = sqrt(((n-2)/2)^2 + mu/c^2).
"""

from __future__ import annotations

import ctypes
import glob
import math
import mmap
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np
import scipy
from scipy import linalg
from scipy.linalg import eigh
from scipy.special import jv, jvp

from .geometry import RadialOperator, WarpFamily, indicial_roots


class SolverError(RuntimeError):
    pass


# pairs solved beyond the coarse-grid count at or below lam_top
_LAM_TOP_MARGIN = 2


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

# count x N from which `solve_mode` runs its coarse pass in a forked child
# beside the fine one (from `_CLUSTER_WORK` on, the upper part of the fine
# grid's index range as well).  Measured on a 2-CPU host, next to a 150 MB
# array that the fork has to map: 2048 x 4 = 8192 lost (16.0 ms against
# 13.6 ms serially), 2048 x 8 = 16384 won (20.3 against 22.4 ms), and from
# about 32768 on the overlap saves 17-23%.
_OVERLAP_WORK = 16384

# rows x count^2 from which `eigh_tridiagonal` computes its eigenvectors one
# eigenvalue cluster at a time, and `solve_mode` splits its fine index range
# between two processes (`_split_at`).  Measured in-process on a 2-CPU
# host, eigenvalues plus vectors of the capped c = 0.8, mu = 2, eps = 0.05
# mode, one stein call against clusters: 2048 x 80 0.064 s against 0.121 s,
# 4096 x 64 0.099 against 0.118, 16384 x 100 0.576 against 0.523; criterion
# 6's 16384 x 200 solves save a fifth of their time and one eigenvector
# array.  Below the rule stay the solves of the heat probes.
_CLUSTER_WORK = 2 ** 24
# rows of an eigenvector block multiplied by R^(-1) at once
_QR_CHUNK = 2048

# true in every process that `_run_jobs` or `_beside` forks, and set once
# there: those already hold their share of the CPUs, so they fork no further
_in_child = False


@lru_cache(maxsize=None)
def _openblas() -> Tuple[Tuple[ctypes.CDLL, str], ...]:
    """The OpenBLAS builds that scipy and numpy bundle, each with its own
    thread count, and the name pattern of their thread-count functions."""
    found = []
    for module, pattern, name in (
            (scipy, "libscipy_openblas-*.so", "scipy_openblas_%s_num_threads"),
            (np, "libscipy_openblas64_-*.so",
             "scipy_openblas_%s_num_threads64_")):
        libs = os.path.join(module.__path__[0], os.pardir,
                            module.__name__ + ".libs", pattern)
        for lib in map(ctypes.CDLL, glob.glob(libs)):
            if hasattr(lib, name % "set"):
                getattr(lib, name % "set").argtypes = [ctypes.c_int]
                getattr(lib, name % "get").restype = ctypes.c_int
                found.append((lib, name))
    return tuple(found)


def _blas_threads(counts: Sequence[int]) -> List[int]:
    """Gives each library of `_openblas` its entry of `counts` threads in
    this process, and returns the counts it had.  A library that has its
    count already is left alone: a set call starts the thread pool that a
    fork stopped, and new pool threads spin for a while."""
    had = [getattr(lib, name % "get")() for lib, name in _openblas()]
    for (lib, name), count, old in zip(_openblas(), counts, had):
        if count != old:
            getattr(lib, name % "set")(count)
    return had


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Runs the block, and every process forked in it, with BLAS on one
    thread.  Threaded OpenBLAS in two processes oversubscribes the CPUs,
    and a thread count changes the summation order of long level-1 loops;
    a forked process inherits the count without starting a thread pool."""
    had = _blas_threads((1, 1))
    try:
        yield
    finally:
        _blas_threads(had)


def _enter_child() -> None:
    global _in_child
    _in_child = True


def _usable_cpus() -> int:
    # without an affinity mask (macOS, Windows) there is no fork to rely on
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def _may_fork() -> bool:
    """A fork helps with a second usable CPU, and is safe only from a
    process that runs no other Python thread: it copies every lock but no
    thread.  Forked workers and children never fork again."""
    return (not _in_child and _usable_cpus() > 1
            and threading.active_count() == 1)


@contextmanager
def _run_jobs(fn: Callable, jobs: list) -> Iterator[Iterator]:
    """Yields an iterator over fn(job) for each job, in job order: the one
    job runner of the mode solves.

    The jobs run on one worker process per usable CPU, or in this process
    when `_may_fork` says no or there is one job.  Results are read
    lazily, so a caller that checks early results before it reads later
    ones raises the error it would raise serially; a job's error carries
    the serial path's message.  On leaving the block, jobs not yet started
    are cancelled and every worker is joined.  Workers are forked: a
    spawned worker would import numpy and scipy again, which costs more
    than most mode solves.  `fn` and everything in a job is pickled, so
    `fn` must be a module-level name.  BLAS runs on one thread in the
    workers and, while they run, here (`_one_blas_thread`).
    """
    if not (len(jobs) > 1 and _may_fork()):
        yield map(fn, jobs)
        return
    # imported here: only the mode solves start processes, and every
    # process that loads this module would otherwise carry these too
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with _one_blas_thread():
        pool = ProcessPoolExecutor(
            min(_usable_cpus(), len(jobs)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_enter_child)
        try:
            yield pool.map(fn, jobs)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _send_result(conn, fn: Callable, args: tuple) -> None:
    """The body of a `_beside` child: fn(*args), or its error, down `conn`."""
    _enter_child()
    try:
        reply = (True, fn(*args))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


@contextmanager
def _beside(fork: bool, fn: Callable, *args) -> Iterator[Callable]:
    """Yields `result()`, which returns fn(*args).

    With `fork` and `_may_fork`, fn runs in a child forked on entry, with
    its arguments already in memory, while the caller works in the block.
    A pool job would wait for the caller instead: scipy's LAPACK wrappers
    hold the GIL, so the pool's feeder thread would hand the job over only
    after the caller's own solve.  The result comes back through a one-way
    pipe and is received before the child is joined; a child that has not
    sent when the block ends (the caller raised) is terminated and joined.
    BLAS runs on one thread in both processes (`_one_blas_thread`).
    Otherwise result() calls fn in this process.
    """
    if not (fork and _may_fork()):
        yield lambda: fn(*args)
        return
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    with _one_blas_thread(), receiver:
        with sender:
            child = ctx.Process(target=_send_result, args=(sender, fn, args))
            child.start()
        received = False

        def result():
            nonlocal received
            ok, value = receiver.recv()
            received = True
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            if not received:
                child.terminate()
            child.join()


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLGrid:
    """Uniform node layout with n cells.

    The singular-endpoint substitution u = x^gamma v already restores
    second-order accuracy on uniform grids, so no grading toward the tip is
    needed; strong grading combined with the degenerate weight
    x^(n-1+2 gamma) would make the mass-scaled tridiagonal transform
    ill-conditioned at large n.
    """

    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid too coarse: need at least 16 nodes")

    def nodes(self, lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * np.linspace(0.0, 1.0, self.n + 1)

    def refined(self) -> "SLGrid":
        return SLGrid(2 * self.n)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def _assemble(ptil, qtil, wtil, xs: np.ndarray, dirichlet: Tuple[bool, bool]):
    """Symmetric tridiagonal (A, M) for -(p v')' + q v = lambda w v.

    Fluxes use midpoint values of p; mass and potential use half-cell
    midpoint quadrature.  A singular left endpoint (p(lo) = 0) gets the
    natural boundary condition simply by keeping the node with zero left
    flux, which is the variational realization of the substituted problem.
    """
    mids = 0.5 * (xs[:-1] + xs[1:])
    h = np.diff(xs)
    pm = np.asarray(ptil(mids), dtype=float)
    wm = np.asarray(wtil(mids), dtype=float)
    qm = np.asarray(qtil(mids), dtype=float)
    if np.any(wm <= 0):
        raise SolverError("nonpositive weight in the discretization")

    m = len(xs)
    diag = np.zeros(m)
    off = np.zeros(m - 1)
    mass = np.zeros(m)
    pot = np.zeros(m)
    flux = pm / h
    diag[:-1] += flux
    diag[1:] += flux
    off -= flux
    mass[:-1] += 0.5 * wm * h
    mass[1:] += 0.5 * wm * h
    pot[:-1] += 0.5 * qm * h
    pot[1:] += 0.5 * qm * h
    diag += pot

    sl = slice(1 if dirichlet[0] else 0, -1 if dirichlet[1] else None)
    idx = np.arange(m)[sl]
    return diag[idx], off[idx[:-1]] if len(idx) > 1 else off[:0], mass[idx], idx


@dataclass
class ModeSolution:
    """Eigendata of one separated mode."""

    operator: RadialOperator
    xs: np.ndarray
    lam: np.ndarray
    lam_err: np.ndarray
    # nodes x count, weighted-orthonormal; nodes x 0 with vectors=False
    u: np.ndarray
    lam_raw: np.ndarray
    mass: np.ndarray = None  # node quadrature weights of the w-inner product

    def interp(self, x) -> np.ndarray:
        """Eigenfunction values at points of the domain, one column per mode.

        Piecewise linear with np.interp's formula, all columns at once;
        points outside [xs[0], xs[-1]] raise ValueError.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs, u = self.xs, self.u
        if not np.all((x >= xs[0]) & (x <= xs[-1])):
            raise ValueError(f"interpolation points outside the domain "
                             f"[{xs[0]}, {xs[-1]}]")
        j = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
        slope = (u[j + 1] - u[j]) / (xs[j + 1] - xs[j])[:, None]
        out = slope * (x - xs[j])[:, None] + u[j]
        out[x == xs[-1]] = u[-1]
        return out


class _Discretization(NamedTuple):
    """One radial operator on one grid, boundary conditions applied."""

    xs: np.ndarray     # all nodes
    idx: np.ndarray    # indices of the unknowns (Dirichlet nodes dropped)
    diag: np.ndarray   # stiffness tridiagonal A on the unknowns
    off: np.ndarray
    mass: np.ndarray   # lumped mass M of the substituted weight
    bd: np.ndarray     # M^(-1/2) A M^(-1/2), the symmetric eigenproblem
    bo: np.ndarray


def _discretize(op: RadialOperator, grid: SLGrid) -> _Discretization:
    """Node layout and the u = x^gamma v substitution of `op` on `grid`,
    with its Dirichlet ends dropped and the mass-scaled tridiagonal."""
    xs = grid.nodes(*op.domain)
    diag, off, mass, idx = _assemble(*op.substituted_coefficients(), xs,
                                     op.dirichlet)
    d = 1.0 / np.sqrt(mass)
    return _Discretization(xs, idx, diag, off, mass, diag * d * d,
                           off * d[:-1] * d[1:])


def _cluster_starts(d, e, w) -> np.ndarray:
    """The first index of each cluster of `w`, then len(w): a new cluster
    wherever consecutive eigenvalues lie more than sqrt(eps) ||T||_1 apart."""
    norm = np.abs(d) + np.r_[np.abs(e), 0.0] + np.r_[0.0, np.abs(e)]
    gap = math.sqrt(np.finfo(float).eps) * float(np.max(norm))
    return np.r_[0, np.flatnonzero(np.diff(w) > gap) + 1, len(w)]


def _pairs(d, e, lo: int, hi: int, out, clusters: bool = True) -> np.ndarray:
    """Eigenvalues lo..hi-1 of the tridiagonal (d, e), ascending, from one
    LAPACK stebz call; with `out` (rows x (hi - lo)), their eigenvectors go
    into its columns from one LAPACK stein call per cluster, or for all
    with `clusters=False`.  Each stein call seeds itself, so the bits do
    not depend on the call's neighbours.
    """
    stebz, stein = linalg.get_lapack_funcs(("stebz", "stein"), (d, e))

    def checked(info):
        if info:
            raise linalg.LinAlgError(f"eigh_tridiagonal: LAPACK info {info}")

    # range 2: by 1-based index; order "B": grouped by diagonal block
    m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, lo + 1, hi, 0.0, "B")
    checked(info)
    w = w[:m]
    order = np.argsort(w)
    if out is not None:
        # column j of stebz's order is column place[j] of the ascending one
        place = np.argsort(order)
        starts = _cluster_starts(d, e, w) if clusters else (0, m)
        # stein reads the first (cluster size) entries of a length-rows iblock
        ib = np.zeros_like(iblock)
        for a, b in zip(starts[:-1], starts[1:]):
            ib[:b - a] = iblock[a:b]
            vec, info = stein(d, e, w[a:b], ib, isplit)
            checked(info)
            out[:, place[a:b]] = vec
    return w[order]


def eigh_tridiagonal(d, e, eigvals_only=False, select="a", select_range=None,
                     out=None):
    """scipy.linalg.eigh_tridiagonal, with the eigenvalues bit for bit.

    With `select="i"` and vectors, the eigenvalues come from one LAPACK
    stebz call; `out`, if given, receives the eigenvectors (rows x count)
    and is returned in place of a new array.  Below rows x count^2 =
    `_CLUSTER_WORK` the vectors come from one LAPACK stein call, as
    scipy's do.  From there on stein would take every pair for one cluster
    (its rule is 1e-3 ||T||_1) and orthogonalise each vector against all
    earlier ones, at a cost growing as count^2; instead stein runs once per
    cluster of eigenvalues (`_pairs`), writing straight into `out`, and one
    Cholesky-QR pass (`_orthonormalize`) restores orthonormality across
    clusters.  Those vectors agree with LAPACK's to about 1e-11 up to sign
    (spectral projectors, within a cluster).
    """
    if eigvals_only or select != "i":
        return linalg.eigh_tridiagonal(d, e, eigvals_only=eigvals_only,
                                       select=select, select_range=select_range)
    lo, hi = select_range[0], select_range[1] + 1
    clusters = len(d) * (hi - lo) ** 2 >= _CLUSTER_WORK
    if out is None:
        out = np.empty((len(d), hi - lo))
    w = _pairs(d, e, lo, hi, out, clusters)
    if clusters:
        _orthonormalize(out)
    return w, out


def _orthonormalize(q: np.ndarray) -> None:
    """q <- q R^(-1) in place, with R^T R = q^T q (one Cholesky-QR pass).

    R^(-1) is applied `_QR_CHUNK` rows at a time, so no temporary of the
    size of q exists.  BLAS runs on one thread: on a 2-CPU host criterion
    6's 16385 x 200 pass took 0.045 s, against 0.17-0.22 s on two.
    """
    with _one_blas_thread():
        r = linalg.cholesky(q.T @ q)
        r_inv = linalg.solve_triangular(r, np.eye(len(r)))
        for i in range(0, len(q), _QR_CHUNK):
            q[i:i + _QR_CHUNK] = q[i:i + _QR_CHUNK] @ r_inv


def _count_below(disc: _Discretization, lam_top: float) -> int:
    """Number of eigenvalues <= lam_top, from Sturm counts alone."""
    # below every Gershgorin disc, so (lo, lam_top] holds all of them
    radius = 2.0 * float(np.max(np.abs(disc.bo)))
    lo = min(float(np.min(disc.bd)) - radius, lam_top) - 1.0
    # LAPACK stebz takes the count from Sturm counts at the interval ends
    # before it bisects; an infinite tolerance leaves nothing to bisect, and
    # only the length of the result (interval midpoints) is used
    return len(linalg.eigh_tridiagonal(disc.bd, disc.bo, eigvals_only=True,
                                       select="v", select_range=(lo, lam_top),
                                       tol=math.inf))


def _eigenvalues(disc: _Discretization, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues of a discretization, no vectors."""
    return eigh_tridiagonal(disc.bd, disc.bo, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def _split_at(rows: int, count: int) -> int:
    """Where `solve_mode` splits the fine grid's index range: from the
    cluster rule on, its child solves indices k0..count-1 after the coarse
    pass, which costs about half a fine stebz call over all count indices,
    so k0 = 2 count / 3 gives both processes the same work; count below."""
    return 2 * count // 3 if rows * count ** 2 >= _CLUSTER_WORK else count


def _coarse_and_upper(coarse: _Discretization, fine: _Discretization,
                      count: int, k0: int, out):
    """The share of `solve_mode` that may run beside it: the coarse
    eigenvalues and, if k0 < count, the fine grid's pairs k0..count-1."""
    return (_eigenvalues(coarse, count),
            _pairs(fine.bd, fine.bo, k0, count, out) if k0 < count else None)


def solve_mode(op: RadialOperator, grid: SLGrid, count: Optional[int] = None,
               *, lam_top: Optional[float] = None,
               vectors: bool = True) -> ModeSolution:
    """First `count` eigenpairs of a radial operator, or every eigenpair up
    to `lam_top` (give exactly one of the two).

    Eigenvalues carry a Richardson error estimate from the (N, 2N) pair and
    are extrapolated to fourth order; eigenvectors come from the fine grid
    and are w-orthonormal.  With `lam_top` the pair count is the number of
    coarse-grid eigenvalues at or below it plus a margin of two, and the
    call fails unless the last extrapolated eigenvalue reaches `lam_top`.
    With `vectors=False` no eigenvector is computed and `u` has no columns;
    the eigenvalues are the same to the bit.  The fine grid's eigenvectors
    are written straight into the rows of `u` that hold the unknowns.
    Below fine rows x count^2 = `_CLUSTER_WORK` the fine grid is one
    `eigh_tridiagonal` call, and its pairs are LAPACK's, bit for bit.  From
    there on the index range splits at k0 = 2 count / 3 (`_split_at`),
    with one stebz call per part, so the fine eigenvalues are scipy's for
    the two parts, concatenated.  Each part's eigenvectors are computed one
    eigenvalue cluster at a time (a new cluster wherever consecutive
    eigenvalues lie more than sqrt(eps) ||T||_1 apart); the one cluster
    that straddles k0, if any, is computed again from one stebz and one
    stein call, and one Cholesky-QR pass orthonormalises all columns.  They
    agree with LAPACK's single stein call to about 1e-9 (spectral
    projectors, within a cluster).

    From count x N = `_OVERLAP_WORK` on, a forked child computes the
    coarse-grid eigenvalues, and the upper part of a split index range,
    while this process solves the rest (see `_beside`); the child writes
    its eigenvectors into `u` through a shared mapping, and the results
    are the serial ones to the bit.
    """
    if (count is None) == (lam_top is None):
        raise ValueError("give exactly one of count and lam_top")
    coarse = _discretize(op, grid)
    if lam_top is not None:
        count = _count_below(coarse, lam_top) + _LAM_TOP_MARGIN
    if count > grid.n // 4:
        raise SolverError("count > N/4: refine the grid")

    fine = _discretize(op, grid.refined())
    xs2 = fine.xs
    k0 = _split_at(len(fine.bd), count)
    if vectors and k0 < count:
        # shared with the child, which writes the upper part's columns
        u2 = np.ndarray((len(xs2), count),
                        buffer=mmap.mmap(-1, 8 * len(xs2) * count))
    else:
        u2 = np.zeros((len(xs2), count if vectors else 0))
    # the unknowns are contiguous rows of u2; their view receives the
    # eigenvectors and is scaled in place, so no second eigenvector-sized
    # array exists on the cluster path
    vec = u2[fine.idx[0]:fine.idx[-1] + 1] if vectors else None
    parts = (vec[:, :k0], vec[:, k0:]) if vectors else (None, None)
    with _beside(count * grid.n >= _OVERLAP_WORK, _coarse_and_upper, coarse,
                 fine, count, k0, parts[1]) as beside:
        if k0 < count:
            lower = _pairs(fine.bd, fine.bo, 0, k0, parts[0])
        elif vectors:
            lam2, _ = eigh_tridiagonal(fine.bd, fine.bo, select="i",
                                       select_range=(0, count - 1), out=vec)
        else:
            lam2 = _eigenvalues(fine, count)
        lam1, upper = beside()
        if k0 < count:
            lam2 = np.r_[lower, upper]
        if vectors and k0 < count:
            # the cluster that straddles k0, if any, again in one piece
            starts = _cluster_starts(fine.bd, fine.bo, lam2)
            if k0 not in starts:
                a, b = starts[starts < k0][-1], starts[starts > k0][0]
                _pairs(fine.bd, fine.bo, a, b, vec[:, a:b])
            _orthonormalize(vec)
        if vectors:
            vec *= (1.0 / np.sqrt(fine.mass))[:, None]
            if op.gamma != 0.0:
                u2 *= xs2[:, None] ** op.gamma
    # quadrature weights of the ORIGINAL w-inner product on all nodes:
    # mass entries are for the substituted weight w~ = w x^(2 gamma),
    # so int f g w dx ~= sum (f/x^g)(g/x^g) mass
    mass2 = np.zeros(len(xs2))
    mass2[fine.idx] = fine.mass
    err = np.abs(lam2 - lam1) / 3.0
    lam = lam2 + (lam2 - lam1) / 3.0
    if lam_top is not None and lam[-1] < lam_top:
        raise SolverError(f"{count} pairs reach only lambda = {lam[-1]:.6g}, "
                          f"below lam_top = {lam_top:.6g}: refine the grid")
    return ModeSolution(op, xs2, lam, err, u2, lam_raw=lam2, mass=mass2)


# ---------------------------------------------------------------------------
# Bessel-zero references
# ---------------------------------------------------------------------------

_ZERO_SCAN_STEP = 0.25  # below the spacing of consecutive zeros of J_nu
_ZERO_BISECTIONS = 12   # bracket width 0.25 / 2^12 before Newton
_ZERO_NEWTON_STEPS = 4  # quadratic from there; the last steps sit at rounding


@lru_cache(maxsize=None)
def bessel_j_zeros(nu: float, count: int) -> Tuple[float, ...]:
    """First `count` positive zeros of J_nu (nu >= 0), to a few ulp.

    A sign-change scan of J_nu on a 0.25 step from 0, widened until `count`
    brackets exist, then a vectorized bisection and Newton polish of all
    brackets at once.
    """
    if nu < 0:
        raise ValueError(f"order must be nonnegative, got {nu}")
    # McMahon: j_{nu,k} ~ (k + nu/2 - 1/4) pi, from below for nu > 1/2
    hi = (count + 0.5 * nu + 1.0) * math.pi
    while True:
        xs = _ZERO_SCAN_STEP * np.arange(1, int(hi / _ZERO_SCAN_STEP) + 2)
        neg = np.signbit(jv(nu, xs))
        idx = np.flatnonzero(neg[:-1] != neg[1:])[:count]
        if len(idx) == count:
            break
        hi *= 2.0
    a, b, a_neg = xs[idx], xs[idx + 1], neg[idx]
    for _ in range(_ZERO_BISECTIONS):
        m = 0.5 * (a + b)
        left = np.signbit(jv(nu, m)) != a_neg
        a, b = np.where(left, a, m), np.where(left, m, b)
    z = 0.5 * (a + b)
    for _ in range(_ZERO_NEWTON_STEPS):
        z = z - jv(nu, z) / jvp(nu, z)
    return tuple(z.tolist())


@dataclass
class EigenResult:
    """Merged spectrum with mode labels and multiplicities."""

    eps: float
    entries: List[dict] = field(default_factory=list)  # keys: lam, mu, mult, ell, k, err
    complete_below: float = math.inf  # tail bound of the mode truncation

    def sorted(self) -> "EigenResult":
        return EigenResult(self.eps, sorted(self.entries, key=lambda e: e["lam"]),
                           self.complete_below)


def conic_reference_spectrum(family: WarpFamily, count_per_mode: int,
                             ell_max: int) -> EigenResult:
    """Exact limiting spectrum from Bessel zeros, per cross-section mode
    ell <= ell_max.

    For the neck profile the tip separates the two cone halves, so every
    eigenvalue is doubled.
    """
    doubling = 2 if family.profile == "neck" else 1
    res = EigenResult(0.0)
    for ell in range(ell_max + 1):
        mu = family.cross_section.mu(ell)
        mult = family.cross_section.multiplicity(ell)
        nu = indicial_roots(family.n, mu, family.c).nu
        for k, z in enumerate(bessel_j_zeros(nu, count_per_mode), start=1):
            res.entries.append({"lam": z * z, "mu": mu,
                                "mult": mult * doubling, "ell": ell, "k": k,
                                "err": 0.0})
    return res.sorted()


def _mode_eigenvalues(job: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """One spectrum job: the eigenvalues and Richardson estimates of the
    first `count` pairs of one radial operator."""
    op, grid, count = job
    sol = solve_mode(op, grid, count, vectors=False)
    return sol.lam, sol.lam_err


def assemble_spectra(family: WarpFamily, schedule: Sequence[float],
                     grid: SLGrid, count: int,
                     ell_max: int) -> List[EigenResult]:
    """Merged spectrum over modes ell <= ell_max with multiplicities, one
    per eps of `schedule`.

    Every (eps, ell, branch) mode solve of the schedule goes through one
    `_run_jobs` call, eigenvalues only.  The neck at eps = 0 is the doubled
    conic reference.  The smallest possible eigenvalue of the first omitted
    mode, mu_(ell_max+1)/max(f)^2, bounds the range on which the merged
    list is the complete spectrum; the bound is recorded on the result as
    `complete_below`.
    """
    cs = family.cross_section
    modes = [[] if eps == 0.0 and family.profile == "neck" else
             [(ell, branch, op) for ell in range(ell_max + 1)
              for branch, op in family.radial_operators_split(cs.mu(ell), eps)]
             for eps in schedule]
    jobs = [(op, grid, count) for row in modes for _, _, op in row]
    out = []
    with _run_jobs(_mode_eigenvalues, jobs) as solved:
        for eps, row in zip(schedule, modes):
            if not row:
                out.append(conic_reference_spectrum(family, count, ell_max))
                continue
            res = EigenResult(eps)
            for ell, branch, _ in row:
                lam, err = next(solved)
                for k in range(count):
                    res.entries.append({"lam": float(lam[k]), "mu": cs.mu(ell),
                                        "mult": cs.multiplicity(ell),
                                        "ell": ell, "k": k + 1,
                                        "branch": branch,
                                        "err": float(err[k])})
            res = res.sorted()
            if ell_max + 1 < len(cs):
                xs = np.linspace(*family.domain, 512)
                fmax = float(np.max(family.f(xs, eps)))
                res.complete_below = cs.mu(ell_max + 1) / fmax ** 2
            out.append(res)
    return out


# ---------------------------------------------------------------------------
# spectral flow and clustering
# ---------------------------------------------------------------------------

@dataclass
class Cluster:
    center: float
    multiplicity: int
    members: List[dict]
    matched_reference: Optional[float]
    gap: float
    tolerance: float


CurveKey = Tuple[int, str, int]  # (ell, branch, k)


class TailFit(NamedTuple):
    limit: float  # a_0, or the last value when status is not "ok"
    rate: float   # order read from the last three points, or nan
    status: str   # "ok", "diverged" or "singular"


@dataclass
class SpectralFlow:
    schedule: List[float]
    curves: Dict[CurveKey, List[float]]
    clusters: List[Cluster]
    fits: Dict[CurveKey, TailFit]
    verdict: dict


def tail_fit(steps: Sequence[float], values: Sequence[float],
             powers: Sequence[float]) -> TailFit:
    """Fit values = sum_j a_j steps^(p_j) on the last len(powers) points
    (powers start with 0, may be floats); the limit is a_0.  A singular fit,
    or an a_0 further than 4x the window's spread from the last value
    ("diverged"), falls back to that last value.  The rate is the order p of
    values ~ a_0 + a steps^p, log(d1/d2) / log(step ratio) on the last three
    points: nan unless those steps are geometric to a relative 1e-12 and the
    differences keep one sign and shrink."""
    rate = math.nan
    if len(values) >= 3:
        r = steps[-2] / steps[-1]
        d1, d2 = values[-2] - values[-3], values[-1] - values[-2]
        if (abs(steps[-3] / steps[-2] - r) <= 1e-12 * r
                and d1 * d2 > 0 and abs(d2) < abs(d1)):
            rate = math.log(abs(d1 / d2)) / math.log(r)
    k = len(powers)
    e = np.asarray(steps[-k:], dtype=float)
    l = np.asarray(values[-k:], dtype=float)
    try:
        coef = np.linalg.solve(np.stack([e ** p for p in powers], axis=1), l)
    except np.linalg.LinAlgError:
        return TailFit(float(l[-1]), rate, "singular")
    est = float(coef[0])
    if abs(est - l[-1]) > 4.0 * max(float(np.max(l) - np.min(l)), 1e-12):
        return TailFit(float(l[-1]), rate, "diverged")
    return TailFit(est, rate, "ok")


#: the fewest eps values `spectral_flow` takes: one per power of the largest
#: extrapolation model in `curve_powers`
FLOW_MIN_POINTS = 4


def curve_powers(family: WarpFamily, branch: str) -> Tuple[int, ...]:
    """Extrapolation model per curve: even neck branches have no linear
    term (even eigenfunctions see the neck at second order)."""
    if family.profile == "neck" and branch == "even":
        return (0, 2, 3)
    return (0, 1, 2, 3)


def spectral_flow(family: WarpFamily, schedule: Sequence[float], grid: SLGrid,
                  count: int, ell_max: int,
                  rel_tol: float = 1e-3) -> SpectralFlow:
    """Track per-mode eigenvalue curves along a decreasing eps schedule.

    Each curve's `tail_fit` limit is matched against the Bessel-zero
    reference; the cluster window ties multiplicity counting to 3x the
    Richardson estimate floored by rel_tol * lambda.  Both inclusions are
    checked within the mode universe ell <= ell_max.
    """
    schedule = list(schedule)
    if (len(schedule) < FLOW_MIN_POINTS or schedule[-1] <= 0
            or any(b >= a for a, b in zip(schedule, schedule[1:]))):
        raise SolverError(f"need a strictly decreasing list of positive eps "
                          f"values with >= {FLOW_MIN_POINTS} points")

    curves: Dict[CurveKey, List[float]] = {}
    errs: Dict[CurveKey, float] = {}
    meta: Dict[CurveKey, dict] = {}
    complete_below = math.inf
    for spec in assemble_spectra(family, schedule, grid, count, ell_max):
        complete_below = min(complete_below, spec.complete_below)
        for e in spec.entries:
            key = (e["ell"], e.get("branch", ""), e["k"])
            curves.setdefault(key, []).append(e["lam"])
            errs[key] = max(errs.get(key, 0.0), e["err"])
            meta[key] = {"mu": e["mu"], "mult": e["mult"]}

    fits = {key: tail_fit(schedule, vals, curve_powers(family, key[1]))
            for key, vals in curves.items()}

    # each curve joins the first cluster whose window holds it, or starts one;
    # no doubling factor on the cluster side: the neck's even/odd curve
    # pairs enter clusters separately and double the count on their own
    clusters: List[Cluster] = []
    for key in sorted(fits, key=lambda k: fits[k].limit):
        est = fits[key].limit
        tol = max(3.0 * errs[key], rel_tol * abs(est))
        cl = next((cl for cl in clusters
                   if abs(cl.center - est) <= max(tol, cl.tolerance)), None)
        if cl is None:
            cl = Cluster(est, 0, [], None, math.inf, tol)
            clusters.append(cl)
        cl.members.append({"key": key, **meta[key], "estimate": est})
        cl.multiplicity += meta[key]["mult"]
        cl.tolerance = max(cl.tolerance, tol)

    # the reference is sorted, so a value can equal only the last distinct one
    ref_distinct: List[Tuple[float, int]] = []
    for e in conic_reference_spectrum(family, count, ell_max).entries:
        if ref_distinct:
            c, m = ref_distinct[-1]
            if abs(c - e["lam"]) <= 1e-9 * max(1.0, abs(c)):
                ref_distinct[-1] = (c, m + e["mult"])
                continue
        ref_distinct.append((e["lam"], e["mult"]))

    unmatched_clusters, mult_mismatch = [], []
    for cl in clusters:
        best = min(ref_distinct, key=lambda rm: abs(rm[0] - cl.center))
        cl.gap = abs(best[0] - cl.center)
        if cl.gap <= cl.tolerance:
            cl.matched_reference = best[0]
            if cl.multiplicity != best[1]:
                mult_mismatch.append((cl.center, cl.multiplicity, best[1]))
        else:
            unmatched_clusters.append(cl.center)

    top = max((cl.center + cl.tolerance for cl in clusters), default=0.0)
    matched = {cl.matched_reference for cl in clusters}
    unmatched_refs = [c for c, _ in ref_distinct
                      if c <= top and c not in matched]

    verdict = {
        "forward_inclusion": not unmatched_clusters,
        "reverse_inclusion": not unmatched_refs,
        "multiplicities_match": not mult_mismatch,
        "unmatched_clusters": unmatched_clusters,
        "unmatched_references": unmatched_refs,
        "multiplicity_mismatches": mult_mismatch,
        "mode_universe_ell_max": ell_max,
        "complete_below": complete_below,
        "fit_fallbacks": [(key, fit.status) for key, fit in sorted(fits.items())
                          if fit.status != "ok"],
    }
    return SpectralFlow(schedule, curves, clusters, fits, verdict)


# ---------------------------------------------------------------------------
# Rayleigh quotient upper bounds
# ---------------------------------------------------------------------------

def mode_rayleigh_bound(op: RadialOperator,
                        trial_basis: Sequence[Callable[[np.ndarray], np.ndarray]],
                        npoints: int = 4001) -> np.ndarray:
    """Galerkin upper bounds for the first len(trial_basis) eigenvalues of
    one separated mode (the form includes the q-term).

    Trial functions must be piecewise smooth, lie in the form domain
    (bounded near the tip, vanishing at a Dirichlet outer boundary) and be
    supplied as callables; derivatives are taken by dense differencing.
    """
    lo, hi = op.domain
    xs = np.linspace(lo + (1e-12 if lo == 0 else 0.0), hi, npoints)
    p = op.p(xs)
    q = op.q(xs)
    w = op.w(xs)
    vals = np.stack([np.asarray(f(xs), dtype=float) for f in trial_basis])
    ders = np.stack([np.gradient(v, xs) for v in vals])
    dim = len(trial_basis)
    Q = np.empty((dim, dim))
    G = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            Q[i, j] = Q[j, i] = np.trapezoid(p * ders[i] * ders[j] + q * vals[i] * vals[j], xs)
            G[i, j] = G[j, i] = np.trapezoid(w * vals[i] * vals[j], xs)
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise SolverError("Gram matrix numerically singular")
    return eigh(Q, G, eigvals_only=True)
