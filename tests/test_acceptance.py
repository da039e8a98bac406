"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every tolerance is pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from acclab.calculus import (CalculusOrders, CompositionError, b_compose,
                             conic_compose, sc_compose, sc_compose_pipeline)
from acclab.corners import parse_monomial
from acclab.geometry import WarpFamily
from acclab.heat import (GridKernel, PolyKernel, cone_mode_kernel,
                         euclidean_kernel, g0_fiber_check, interior_probe,
                         scaled_probe, scaling_identity_defect,
                         volterra_neumann, heat_from_spectrum)
from acclab.indexsets import IndexSet, indexset_sum, leading_order
from acclab.spaces import corner_table, face_table, lift_table_rows
from acclab.spectral import (SLGrid, mode_rayleigh_bound, solve_mode,
                             spectral_flow)


def report(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# the published lift table, frozen here as the oracle
PUBLISHED_LIFT_ROWS = {
    ("beta_L", "100"): "rho_10000*rho_10100",
    ("beta_L", "010"): "rho_01000*rho_01100",
    ("beta_L", "110"): "rho_11100*rho_11000",
    ("beta_L", "220"): "rho_22200*rho_22000",
    ("beta_L", "d2"): "rho_d3*rho_d20",
    ("beta_L", "001"): "rho_00010*rho_00011*rho_d22",
    ("beta_R", "100"): "rho_01000*rho_01100",
    ("beta_R", "010"): "rho_00100*rho_10100",
    ("beta_R", "110"): "rho_11100*rho_01100",
    ("beta_R", "220"): "rho_22200*rho_02200",
    ("beta_R", "d2"): "rho_d3*rho_d02",
    ("beta_R", "001"): "rho_00001*rho_00011*rho_d22",
    ("beta_C", "100"): "rho_10000*rho_11000",
    ("beta_C", "010"): "rho_00100*rho_01100",
    ("beta_C", "110"): "rho_11100*rho_10100",
    ("beta_C", "220"): "rho_22200*rho_20200",
    ("beta_C", "d2"): "rho_d3*rho_d22",
    ("beta_C", "001"): "rho_00022*rho_00011*rho_d22",
}


def test_criterion_1_golden_lift_tables():
    start = time.time()
    rows = {(r.map_name, r.rho): r for r in lift_table_rows()}
    ok = len(rows) == 18
    mechanical = 0
    for key, expect in PUBLISHED_LIFT_ROWS.items():
        got = rows[key].published
        ok = ok and got == str(parse_monomial(expect))
        mechanical += rows[key].status == "mechanical"
    # the machinery must also derive the nine rows the published table gets
    # right (the other nine are documented publication slips)
    ok = ok and mechanical == 9
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"18 rows exact, {mechanical} derived clean, {elapsed:.2f}s")


def test_criterion_2_composition_tables():
    start = time.time()
    ok = True

    # closed form against the final composition table
    a = CalculusOrders("sc", -2, {"110": IndexSet.of(0), "220": IndexSet.of(0)})
    out = sc_compose(a, a)
    ok &= leading_order(out.normalized_order("110")).alpha.subs(n=3) \
        == Fraction(-1, 2)
    ok &= leading_order(out.normalized_order("220")).alpha.subs(n=3) \
        == Fraction(-5, 2)
    ok &= out.diagonal_order().subs(n=3) == Fraction(-3 - 3, 2) + 4

    # pipeline equality on >= 20 randomized order assignments
    rng = random.Random(49)

    def rnd_set():
        return IndexSet.of(*[(Fraction(rng.randint(0, 10), rng.choice([1, 2])),
                              rng.randint(0, 2))
                             for _ in range(rng.randint(1, 3))])

    trials = 0
    for _ in range(22):
        A = CalculusOrders("sc", -Fraction(rng.randint(1, 9), rng.choice([1, 2])),
                           {"110": rnd_set(), "220": rnd_set()})
        B = CalculusOrders("sc", -Fraction(rng.randint(1, 9), rng.choice([1, 2])),
                           {"110": rnd_set(), "220": rnd_set()})
        closed, piped = sc_compose(A, B), sc_compose_pipeline(A, B)
        ok &= closed.k == piped.k
        ok &= closed.face_set("110").terms == piped.face_set("110").terms
        ok &= closed.face_set("220").terms == piped.face_set("220").terms
        trials += 1

    # cylindrical-end composition rule: orders add
    bel = CalculusOrders("b", -2, {"110": IndexSet.of((1, 1))})
    bout = b_compose(bel, bel)
    ok &= bout.k == -4 + 0 * bout.k and \
        leading_order(bout.face_set("110")).alpha.subs() == 2 \
        and leading_order(bout.face_set("110")).p == 2

    # conic composition rule and threshold flips
    def conic(k, e100, e010, e112):
        return CalculusOrders("conic", k, {"100": IndexSet.of(e100),
                                           "010": IndexSet.of(e010),
                                           "112": IndexSet.of(e112)})

    cout = conic_compose(conic(-2, 1, 1, 2), conic(-2, 1, 1, 2))
    ok &= leading_order(cout.face_set("112")).alpha.subs() == 4
    ok &= cout.k.subs() == -4
    flips = [
        (conic(0, 1, 1, 2), conic(-2, 1, 1, 2), "-k_a > 0"),
        (conic(-2, 1, 1, 2), conic(0, 1, 1, 2), "-k_b > 0"),
        (conic(-2, 1, -2, 2), conic(-2, 4, 1, 2), "beta_112 + alpha_010 > 0"),
        (conic(-2, 1, 2, 2), conic(-2, -2, 1, 2), "alpha_112 + beta_100 > 0"),
        (conic(-2, 1, 0, 2), conic(-2, -1, 1, 2), "beta_100 + alpha_010 > -1"),
    ]
    for A, B, name in flips:
        try:
            conic_compose(A, B)
            ok = False
        except CompositionError as exc:
            ok &= name in str(exc)
    # and just past each threshold the composition is accepted
    conic_compose(conic(Fraction(-1, 2), 1, 1, 2), conic(-2, 1, 1, 2))
    conic_compose(conic(-2, 1, Fraction(-3, 2), 2), conic(-2, 4, 1, 2))

    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report(2, ok, f"{trials} randomized pipeline matches, {elapsed:.2f}s")


def test_criterion_3_face_inventories():
    ok = True
    ok &= [r["name"] for r in face_table("b_heat")] \
        == ["F_110", "F_d2", "F_100", "F_010", "F_001"]
    ok &= [r["name"] for r in face_table("conic_heat")] \
        == ["F_112", "F_d2", "F_100", "F_010", "F_001"]
    ok &= [r["name"] for r in face_table("sc_heat")] \
        == ["F_220", "F_110", "F_100", "F_010", "F_d2", "F_001"]
    ok &= [r["name"] for r in face_table("acc_heat")] \
        == ["F_1010", "F_1001", "F_0110", "F_0101"]
    ok &= [c["name"] for c in corner_table("acc_heat")] \
        == ["C_1110", "C_1101", "C_1011", "C_0111"]
    ok &= [r["name"] for r in face_table("acc_triple_heat")] \
        == ["S_11122", "S_11020", "S_01102", "S_10122", "S_111", "S_110",
            "S_011", "S_101", "S_td", "S_d20", "S_d02", "S_d22"]
    report(3, ok, "b 5, conic 5, sc 6, acc 4+4, acc triple 12")


SCHEDULE = [0.2, 0.1, 0.05, 0.025, 0.0125]


def test_criterion_4_spectral_convergence_quantitative():
    start = time.time()
    ok = True
    details = []
    for profile, doubling in (("capped", 1), ("neck", 2)):
        fam = getattr(WarpFamily, profile)(n=3, c=1.0, mode_count=7)
        flow = spectral_flow(fam, SCHEDULE, SLGrid(2048), count=4, ell_max=4,
                             rel_tol=1e-3)
        v = flow.verdict
        ok &= v["forward_inclusion"] and v["reverse_inclusion"]
        ok &= v["multiplicities_match"]
        clusters = sorted(flow.clusters, key=lambda c: c.center)[:10]
        ok &= len(clusters) == 10
        worst = 0.0
        for cl in clusters:
            ok &= cl.matched_reference is not None
            tol = max(1e-3 * abs(cl.center), cl.tolerance)
            ok &= cl.gap <= tol
            worst = max(worst, cl.gap / abs(cl.center))
            ell = cl.members[0]["key"][0]
            expect_mult = doubling * (2 * ell + 1)
            ok &= cl.multiplicity == expect_mult
        details.append(f"{profile}: worst rel gap {worst:.1e}")
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    report(4, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_heat_kernel_probes():
    start = time.time()
    fam = WarpFamily.capped(n=3, c=0.8, mode_count=12)

    res_a = interior_probe(fam, SCHEDULE, x=0.5, xp=0.5,
                           times=(0.1, 0.25, 0.5, 1.0), ell_max=8)
    ok_a = res_a.strictly_decreasing and res_a.final_relative < 1e-2

    # at the spectral schedule the scaled-face discrepancy is the wall
    # effect exp(-(2(1/eps-1))^2/(4 tau)), which underflows doubles below
    # eps ~ 0.2; the probe schedule sits where the effect is representable
    sched_b = [1 / 2, 1 / 2.25, 1 / 2.5, 1 / 2.75, 1 / 3]
    res_b = scaled_probe(fam, sched_b, rho=1.0, rhop=1.0, tau=0.5, ell_max=8)
    ok_b = res_b.strictly_decreasing and res_b.final_relative < 5e-2

    flat = WarpFamily.capped(n=3, c=1.0)
    defect = max(scaling_identity_defect(flat, s) for s in (0.5, 0.25, 0.125))
    ok_c = defect < 1e-8

    elapsed = time.time() - start
    ok = ok_a and ok_b and ok_c and elapsed < 300.0
    report(5, ok, f"interior final {res_a.final_relative:.1e}, scaled final "
                  f"{res_b.final_relative:.1e}, identity defect {defect:.1e}, "
                  f"{elapsed:.1f}s")


def test_criterion_6_model_kernel_properties(cone_mode_solves):
    ok = True
    # cone mode kernel against the eigenexpansion oracle, pre-boundary window
    worst = 0.0
    for mu, nu in ((0.0, 0.5), (2.0, 1.5)):
        sol = cone_mode_solves[mu]
        for t in (0.01, 0.02, 0.04):
            ev = heat_from_spectrum(sol, 0.3, 0.3, t)
            ck = cone_mode_kernel(nu, 3, 0.3, 0.3, t)
            worst = max(worst, abs(ev - ck) / ck)
    ok &= worst < 1e-4

    # fiber model solution: residual refinement ratio in [3.5, 4.5]
    r1 = g0_fiber_check(1, 2e-3)["pde_residual"]
    r2 = g0_fiber_check(1, 1e-3)["pde_residual"]
    ratio = r1 / r2
    ok &= 3.5 <= ratio <= 4.5

    # euclidean normalization
    from scipy.integrate import quad
    from acclab.geometry import sphere_volume
    t = 0.2
    defect = 0.0
    for n in (1, 3):
        def radial(r, n=n):
            sphere = 2.0 if n == 1 else sphere_volume(n - 1) * r ** (n - 1)
            return float(euclidean_kernel(n, [r] + [0.0] * (n - 1),
                                          [0.0] * n, t)) * sphere
        total, _ = quad(radial, 0, 25, epsabs=1e-13, epsrel=1e-13, limit=300)
        defect = max(defect, abs(total - 1.0))
    ok &= defect < 1e-8
    report(6, ok, f"oracle gap {worst:.1e}, ratio {ratio:.2f}, "
                  f"normalization defect {defect:.1e}")


def test_criterion_7_volterra_machinery():
    ok = True
    # scalar closed forms, exact rational equality
    one = PolyKernel.monomial(0)
    for j in range(1, 7):
        coeffs = one.power(j).coeffs
        ok &= coeffs[j - 1] == Fraction(1, math.factorial(j - 1))
        ok &= all(c == 0 for i, c in enumerate(coeffs) if i != j - 1)

    # grid kernel ratio test against the t^j/(j+1)! display envelope
    ts = np.linspace(0, 1.0, 161)
    k = GridKernel.scalar(lambda t: t ** 2, ts)
    rep = volterra_neumann(k, 6)
    ok &= rep.envelope_ok and rep.factorial_decay
    for j, ratio in enumerate(rep.ratios, start=1):
        ok &= ratio < 1.0 / j  # T = 1
    report(7, ok, f"ratios {['%.1e' % r for r in rep.ratios]}")


def test_criterion_8_property_suites():
    ok = True
    rng = random.Random(2718)
    nprng = np.random.default_rng(2718)

    # index-set algebra laws on random small sets
    def rnd_set():
        return IndexSet.of(*[(Fraction(rng.randint(-6, 8), rng.choice([1, 2, 3])),
                              rng.randint(0, 3))
                             for _ in range(rng.randint(1, 4))])

    for _ in range(200):
        e, f, g = rnd_set(), rnd_set(), rnd_set()
        ok &= indexset_sum(e, f).terms == indexset_sum(f, e).terms
        ok &= indexset_sum(indexset_sum(e, f), g).terms \
            == indexset_sum(e, indexset_sum(f, g)).terms
        ok &= leading_order(indexset_sum(e, f)).alpha.subs() \
            == leading_order(e).alpha.subs() + leading_order(f).alpha.subs()
        ok &= IndexSet(e.terms).terms == e.terms

    # minimax upper bound never below the solver eigenvalues
    fam = WarpFamily.capped(n=3, c=1.0)
    op = fam.radial_operator(0.0, 0.1)
    sol = solve_mode(op, SLGrid(512), 3)
    for _ in range(8):
        coeffs = nprng.normal(size=(3, 4))
        basis = [(lambda cs: (lambda x: sum(
            c * np.sin((j + 1) * math.pi * np.asarray(x))
            for j, c in enumerate(cs))))(row) for row in coeffs]
        bounds = mode_rayleigh_bound(op, basis)
        ok &= all(bounds[l] >= sol.lam[l] * (1 - 1e-8) for l in range(3))

    # kernel symmetry and positivity
    for _ in range(60):
        x, xp = nprng.uniform(0.05, 1.0, 2)
        t = nprng.uniform(0.005, 0.5)
        nu = nprng.uniform(0.5, 4.0)
        a = cone_mode_kernel(nu, 3, x, xp, t)
        b = cone_mode_kernel(nu, 3, xp, x, t)
        ok &= abs(a - b) <= 1e-12 * abs(a) and a > 0

    # blowup order independence under permitted reorderings
    import itertools
    from acclab.corners import CornerSpace
    from acclab.spaces import sc_triple_heat_space
    base = sc_triple_heat_space()
    baseline = {k: str(v) for k, v in base.components.items()}
    swappable = [ev for ev in base.history
                 if ev.face_name in ("11000", "01100", "10100")]
    rest = [ev for ev in base.history
            if ev.face_name not in ("11000", "01100", "10100")]
    perms = list(itertools.permutations(swappable))
    rng.shuffle(perms)
    for perm in perms[:4]:
        sp = CornerSpace("perm")
        for name, var in (("10000", "x1"), ("01000", "x2"), ("00100", "x3"),
                          ("00010", "t1"), ("00001", "t2")):
            sp.add_boundary_face(name, defines=var)
        for comp in ("dY12", "dY13", "dY23", "dZ12", "dZ13", "dZ23"):
            sp.add_component(comp)
        sp.add_component("t3")
        for ev in [rest[0]] + list(perm) + rest[1:]:
            sp.blow_up(ev.center, ev.face_name)
        ok &= {k: str(v) for k, v in sp.components.items()} == baseline

    report(8, ok, "index sets, minimax, kernels, blowup reordering")
