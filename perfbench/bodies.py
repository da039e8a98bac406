"""Workload bodies and their correctness gates.

Each `run_*` function takes the run seed and an output directory (and, for
exact_compose, the half of the pair stream), times its own body with
`time.perf_counter`, and returns an `Outcome`: the wall time,
one (label, ok) entry per correctness check, a sha256 of the science output
and, for compositions, one latency per sc pair.  Inputs are built before the
clock starts.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from acclab import cli
from acclab.calculus import (CalculusOrders, CompositionError, acc_compose,
                             b_compose, canonical_kernel_orders, conic_compose,
                             orders_to_jsonable, sc_compose, sc_compose_pipeline)
from acclab.geometry import WarpFamily, sphere_volume
from acclab.heat import (GridKernel, PolyKernel, cone_mode_kernel,
                         crank_nicolson_mode, euclidean_kernel, g0_fiber_check,
                         heat_from_spectrum, t_convolve, volterra_neumann)
from acclab.indexsets import IndexSet, leading_order
from acclab.spaces import (SPACE_KINDS, corner_table, face_table,
                           lift_table_rows)
from acclab.spectral import SLGrid, solve_mode, spectral_flow

PROBE_INI = Path(__file__).with_name("probe_c08.ini")
SC_PAIRS = 1000          # >= 1000 so that >= 10 latencies lie beyond p99
MIXED_EVERY = 50         # one b, one conic and one acc composition
REBUILD_EVERY = 100      # rebuild every canonical table, compare to golden


@dataclass
class Outcome:
    wall_s: float = 0.0
    checks: list = field(default_factory=list)
    digest: str = ""
    pair_ms: list = field(default_factory=list)

    def check(self, label: str, ok) -> None:
        self.checks.append((label, bool(ok)))


# ---------------------------------------------------------------------------
# probe_interior, probe_scaled: the CLI at the criterion-5 family
# ---------------------------------------------------------------------------

def _probe(regime: str, threshold: float, out_dir: Path) -> Outcome:
    argv = ["--config", str(PROBE_INI), "--out", str(out_dir),
            "heat", "--regime", regime]
    o = Outcome()
    start = perf_counter()
    code = cli.main(argv)
    o.wall_s = perf_counter() - start
    o.check("cli exit code 0", code == 0)
    names = [f"heat_{regime}.csv", f"heat_{regime}_summary.json"]
    summary = json.loads((out_dir / names[1]).read_text())
    o.check("strictly decreasing", summary["strictly_decreasing"] is True)
    o.check(f"final relative < {threshold:g}",
            summary["final_relative"] < threshold)
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    o.digest = h.hexdigest()
    return o


def run_probe_interior(seed: int, out_dir: Path) -> Outcome:
    return _probe("interior", 1e-2, out_dir)


def run_probe_scaled(seed: int, out_dir: Path) -> Outcome:
    return _probe("scaled", 5e-2, out_dir)


# ---------------------------------------------------------------------------
# exact_compose: seeded composition stream plus golden-table rebuilds
# ---------------------------------------------------------------------------

def _index_set(rng: random.Random, terms: int) -> IndexSet:
    return IndexSet.of(*[(Fraction(rng.randint(0, 10), rng.choice([1, 2])),
                          rng.randint(0, 2))
                         for _ in range(terms)])


def _k(rng: random.Random) -> Fraction:
    return -Fraction(rng.randint(1, 9), rng.choice([1, 2]))


def sc_pairs(seed: int, count: int = SC_PAIRS):
    """The seeded sc order pairs, identical for every workload.

    The number of terms of each index set (1 to 6) follows one fixed
    sequence, the same for every seed, so that every seed asks for about the
    same amount of set arithmetic; the seed picks exponents, log powers and
    the orders k.
    """
    rng = random.Random(f"sc-{seed}")
    sizes = random.Random("sc-sizes")

    def element():
        return CalculusOrders("sc", _k(rng), {
            "110": _index_set(rng, sizes.randint(1, 6)),
            "220": _index_set(rng, sizes.randint(1, 6))})
    return [(element(), element()) for _ in range(count)]


def _mixed_pairs(rng: random.Random):
    """One b, one conic and one acc pair, all inside the preconditions."""
    def small():
        return _index_set(rng, rng.randint(1, 3))

    def b_el():
        return CalculusOrders("b", _k(rng), {"110": small()})

    def conic_el():
        return CalculusOrders("conic", _k(rng), {
            "100": small(), "010": small(), "112": small().shifted(1)})

    def acc_el():
        return CalculusOrders("acc", _k(rng), {
            f: small() for f in ("1010", "0101", "1001", "0110")},
            coefficients={"1010": b_el(), "0101": conic_el()})

    return [("b", b_el(), b_el()), ("conic", conic_el(), conic_el()),
            ("acc", acc_el(), acc_el())]


def _leading_adds(out, a, b, face: str) -> bool:
    lo, la, lb = (leading_order(x.face_set(face)) for x in (out, a, b))
    return (lo.alpha == la.alpha + lb.alpha) and lo.p == la.p + lb.p


def _check_mixed(o: Outcome, kind: str, a, b, h) -> None:
    rule = {"b": b_compose, "conic": conic_compose, "acc": acc_compose}[kind]
    out = rule(a, b)
    ok = out.k == a.k + b.k
    if kind == "b":
        ok &= _leading_adds(out, a, b, "110")
    elif kind == "conic":
        ok &= out.face_set("100").terms == a.face_set("100").terms
        ok &= out.face_set("010").terms == b.face_set("010").terms
        ok &= _leading_adds(out, a, b, "112")
    else:
        ok &= all(_leading_adds(out, a, b, f)
                  for f in ("1010", "0101", "1001", "0110"))
        ok &= "conjectural" in out.meta.get("status", "")
        ok &= out.coefficients["1010"].calculus == "b"
        ok &= _leading_adds(out.coefficients["0101"], a.coefficients["0101"],
                            b.coefficients["0101"], "112")
    o.check(f"{kind} composition laws", ok)
    h.update(json.dumps(orders_to_jsonable(out), sort_keys=True).encode())


def _check_tables(o: Outcome, golden: dict, h) -> None:
    for kind in SPACE_KINDS:
        faces, corners = face_table(kind), corner_table(kind)
        o.check(f"face table {kind}", faces == golden["face_tables"].get(kind))
        o.check(f"corner table {kind}",
                corners == golden["corner_tables"].get(kind, []))
        h.update(json.dumps([faces, corners], sort_keys=True).encode())
    rows = [[r.map_name, r.rho, r.published, r.mechanical, r.status]
            for r in lift_table_rows()]
    o.check("lift table", rows == golden["lift_table"])
    kernels = {k: {f: str(s) for f, s in
                   canonical_kernel_orders(k).leading_orders().items()}
               for k in golden["kernel_orders"]}
    o.check("kernel order tables", kernels == golden["kernel_orders"])
    h.update(json.dumps([rows, kernels], sort_keys=True).encode())


def _conic(k, e100, e010, e112):
    return CalculusOrders("conic", k, {"100": IndexSet.of(e100),
                                       "010": IndexSet.of(e010),
                                       "112": IndexSet.of(e112)})


# criterion 2's threshold cases: each must be refused, naming the condition
THRESHOLD_FLIPS = (
    ((0, 1, 1, 2), (-2, 1, 1, 2), "-k_a > 0"),
    ((-2, 1, 1, 2), (0, 1, 1, 2), "-k_b > 0"),
    ((-2, 1, -2, 2), (-2, 4, 1, 2), "beta_112 + alpha_010 > 0"),
    ((-2, 1, 2, 2), (-2, -2, 1, 2), "alpha_112 + beta_100 > 0"),
    ((-2, 1, 0, 2), (-2, -1, 1, 2), "beta_100 + alpha_010 > -1"),
)


def _check_known_answers(o: Outcome) -> None:
    a = CalculusOrders("sc", -2, {"110": IndexSet.of(0), "220": IndexSet.of(0)})
    out = sc_compose(a, a)
    o.check("sc closed form F_110",
            leading_order(out.normalized_order("110")).alpha.subs(n=3)
            == Fraction(-1, 2))
    o.check("sc closed form F_220",
            leading_order(out.normalized_order("220")).alpha.subs(n=3)
            == Fraction(-5, 2))
    o.check("sc closed form diagonal", out.diagonal_order().subs(n=3) == 1)
    for ea, eb, name in THRESHOLD_FLIPS:
        try:
            conic_compose(_conic(*ea), _conic(*eb))
            o.check(f"conic refuses {name}", False)
        except CompositionError as exc:
            o.check(f"conic refuses {name}", name in str(exc))


def _compose_pairs(o: Outcome, pairs, h=None) -> None:
    for a, b in pairs:
        start = perf_counter()
        closed, piped = sc_compose(a, b), sc_compose_pipeline(a, b)
        ok = (closed.k == piped.k
              and closed.face_set("110").terms == piped.face_set("110").terms
              and closed.face_set("220").terms == piped.face_set("220").terms)
        o.pair_ms.append((perf_counter() - start) * 1e3)
        o.check("sc closed form == pipeline", ok)
        if h is not None:
            h.update(json.dumps(orders_to_jsonable(closed),
                                sort_keys=True).encode())


def run_exact_compose(seed: int, out_dir: Path, half: int) -> Outcome:
    """Half `half` (0 or 1) of the seeded stream: 500 sc pairs with their
    mixed compositions and table rebuilds, and the known answers."""
    pairs = sc_pairs(seed)
    rng = random.Random(f"mixed-{seed}")
    mixed = [_mixed_pairs(rng) for _ in range(0, len(pairs), MIXED_EVERY)]
    golden = cli.load_golden()
    size = len(pairs) // 2
    o = Outcome()
    h = hashlib.sha256()
    start = perf_counter()
    _check_known_answers(o)
    for i in range(half * size, (half + 1) * size, MIXED_EVERY):
        _compose_pairs(o, pairs[i:i + MIXED_EVERY], h)
        for kind, a, b in mixed[i // MIXED_EVERY]:
            _check_mixed(o, kind, a, b, h)
        if (i + MIXED_EVERY) % REBUILD_EVERY == 0:
            _check_tables(o, golden, h)
    o.wall_s = perf_counter() - start
    o.digest = h.hexdigest()
    return o


def run_compose_side_stream(seed: int, out_dir: Path) -> Outcome:
    """The sc pairs of exact_compose, alone: one pass of the compose latency
    stream of the numeric workloads."""
    pairs = sc_pairs(seed)
    o = Outcome()
    start = perf_counter()
    _compose_pairs(o, pairs)
    o.wall_s = perf_counter() - start
    return o


# ---------------------------------------------------------------------------
# verify_oracles: criteria 4, 6, 7 and the Crank-Nicolson oracle
# ---------------------------------------------------------------------------

SCHEDULE = [0.2, 0.1, 0.05, 0.025, 0.0125]


def _criterion_4(o: Outcome, values: list) -> None:
    for profile, doubling in (("capped", 1), ("neck", 2)):
        fam = getattr(WarpFamily, profile)(n=3, c=1.0, mode_count=7)
        flow = spectral_flow(fam, SCHEDULE, SLGrid(2048), count=4, ell_max=4,
                             rel_tol=1e-3)
        v = flow.verdict
        o.check(f"c4 {profile} inclusions",
                v["forward_inclusion"] and v["reverse_inclusion"])
        o.check(f"c4 {profile} multiplicities", v["multiplicities_match"])
        clusters = sorted(flow.clusters, key=lambda c: c.center)[:10]
        o.check(f"c4 {profile} ten clusters", len(clusters) == 10)
        for cl in clusters:
            tol = max(1e-3 * abs(cl.center), cl.tolerance)
            ell = cl.members[0]["key"][0]
            o.check(f"c4 {profile} cluster {cl.center:.6g}",
                    cl.matched_reference is not None and cl.gap <= tol
                    and cl.multiplicity == doubling * (2 * ell + 1))
            values += [cl.center, cl.gap]


def _criterion_6(o: Outcome, values: list) -> None:
    fam = WarpFamily.capped(n=3, c=1.0)
    for mu, nu in ((0.0, 0.5), (2.0, 1.5)):
        sol = solve_mode(fam.radial_operator(mu, 0.0), SLGrid(8192), 200)
        for t in (0.01, 0.02, 0.04):
            ev = heat_from_spectrum(sol, 0.3, 0.3, t)
            ck = float(cone_mode_kernel(nu, 3, 0.3, 0.3, t))
            o.check(f"c6 oracle nu={nu} t={t}", abs(ev - ck) / ck < 1e-4)
            values += [ev, ck]
    r1 = g0_fiber_check(1, 2e-3)["pde_residual"]
    r2 = g0_fiber_check(1, 1e-3)["pde_residual"]
    o.check("c6 fiber residual ratio in [3.5, 4.5]", 3.5 <= r1 / r2 <= 4.5)
    values += [r1, r2]
    t = 0.2
    for n in (1, 3):
        def radial(r, n=n):
            sphere = 2.0 if n == 1 else sphere_volume(n - 1) * r ** (n - 1)
            return float(euclidean_kernel(n, [r] + [0.0] * (n - 1),
                                          [0.0] * n, t)) * sphere
        total, _ = quad(radial, 0, 25, epsabs=1e-13, epsrel=1e-13, limit=300)
        o.check(f"c6 euclidean normalization n={n}", abs(total - 1.0) < 1e-8)
        values.append(total)


def _criterion_7(o: Outcome, values: list) -> None:
    one = PolyKernel.monomial(0)
    ok = True
    for j in range(1, 7):
        coeffs = one.power(j).coeffs
        ok &= coeffs[j - 1] == Fraction(1, math.factorial(j - 1))
        ok &= all(c == 0 for i, c in enumerate(coeffs) if i != j - 1)
    o.check("c7 scalar closed forms exact", ok)
    ts = np.linspace(0, 1.0, 161)
    rep = volterra_neumann(GridKernel.scalar(lambda t: t ** 2, ts), 6)
    o.check("c7 envelope and factorial decay",
            rep.envelope_ok and rep.factorial_decay)
    o.check("c7 ratios below 1/j",
            all(r < 1.0 / j for j, r in enumerate(rep.ratios, start=1)))
    values += rep.sup_norms
    # the spatial kernel of demo 06: phi(z) phi(z') t^2, so that
    # K*K = <phi, phi>_w phi(z) phi(z') t^5 / 30
    phi = np.sin(np.pi * np.linspace(0, 1, 12))
    w = np.full(12, 1 / 11)
    vals = phi[:, None, None] * phi[None, :, None] * ts[None, None, :] ** 2
    kern = GridKernel(vals, ts, w)
    twice = t_convolve(kern, kern)
    got = float(twice.values[6, 6, -1])
    expect = float(np.sum(phi * phi * w)) * phi[6] * phi[6] / 30.0
    o.check("c7 spatial t_convolve closed form", abs(got - expect) < 1e-3 * expect)
    values.append(got)


def _crank_nicolson(o: Outcome, values: list) -> None:
    fam = WarpFamily.capped(n=3, c=0.8)
    op = fam.radial_operator(0.0, 0.05)
    sol = solve_mode(op, SLGrid(1024), 80)
    times = [0.1, 0.3]
    cn = crank_nicolson_mode(op, SLGrid(1024), 0.35, times, 0.5, substeps=600)
    for t, v in zip(times, cn):
        ev = heat_from_spectrum(sol, 0.5, 0.35, t)
        o.check(f"CN vs eigensum t={t}", abs(v - ev) / abs(ev) < 1e-3)
        values += [v, ev]


def run_verify_oracles(seed: int, out_dir: Path) -> Outcome:
    o = Outcome()
    values: list = []
    start = perf_counter()
    _criterion_4(o, values)
    _criterion_6(o, values)
    _criterion_7(o, values)
    _crank_nicolson(o, values)
    o.wall_s = perf_counter() - start
    text = ",".join(f"{float(v):.17g}" for v in values)
    o.digest = hashlib.sha256(text.encode()).hexdigest()
    return o


RUNNERS = {
    "probe_interior": run_probe_interior,
    "probe_scaled": run_probe_scaled,
    "exact_compose": run_exact_compose,
    "verify_oracles": run_verify_oracles,
}
