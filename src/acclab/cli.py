"""Configuration-driven command line harness.

Subcommands: faces, lift, compose, spectrum, flow, heat, verify-tables.
Outputs are deterministic (fixed summation orders, no timestamps); floats
print with 17 significant digits.  Golden tables live in a versioned data
file next to the package; ACCLAB_DATA_DIR overrides the location.

Import boundary: this module, its parser, `read_config` and the exact
subcommands (faces, lift, compose, verify-tables) load no numpy or scipy.
`geometry`, `spectral` and `heat` are imported only inside the functions
that use them (`family_from_config`, `grid_from_config`, `_numerical`,
`cmd_spectrum`, `cmd_flow`, `cmd_heat`); keep every new numerical import
there too.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from . import spaces as _spaces
from .calculus import (CompositionError, acc_compose, b_compose,
                       canonical_kernel_orders, conic_compose,
                       orders_from_jsonable, orders_to_jsonable, sc_compose,
                       sc_compose_pipeline)
from .corners import parse_monomial

if TYPE_CHECKING:
    from .geometry import WarpFamily
    from .spectral import SLGrid

DATA_VERSION = 1


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def data_path() -> Path:
    override = os.environ.get("ACCLAB_DATA_DIR")
    if override:
        return Path(override) / "golden_tables.json"
    return Path(__file__).parent / "data" / "golden_tables.json"


def load_golden() -> dict:
    with open(data_path()) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "model": {"n": "3", "c": "1.0", "profile": "capped", "mode_count": "12"},
    "schedule": {"eps": "0.2,0.1,0.05,0.025,0.0125"},
    "solver": {"grid_n": "2048", "count": "10", "ell_max": "4",
               "rel_tol": "1e-3"},
    "probes": {"x": "0.5", "xprime": "0.5", "times": "0.1,0.25,0.5,1.0",
               "rho": "1.0", "rhop": "1.0", "tau": "0.5",
               "scaled_eps": "0.5,0.4444444444444444,0.4,"
                             "0.36363636363636365,0.3333333333333333",
               "ell_max": "8", "h": "0.0078125", "ref_radius": "6.0"},
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("need a finite value")
    return value


def _float_list(text: str) -> List[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


# the parser of each value, by key (the same in every section); keys not
# named here hold text
_PARSERS = {
    "n": int, "mode_count": int, "grid_n": int, "count": int, "ell_max": int,
    "c": _finite, "rel_tol": _finite, "x": _finite, "xprime": _finite,
    "rho": _finite, "rhop": _finite, "tau": _finite, "h": _finite,
    "ref_radius": _finite,
    "eps": _float_list, "times": _float_list, "scaled_eps": _float_list,
}


def _reject(cp: configparser.ConfigParser, section: str, key: str, why) -> None:
    raise SystemExit(f"config error: [{section}] {key} = "
                     f"{cp[section][key]}: {why}")


def _require_schedule(cp: configparser.ConfigParser, section: str,
                      key: str) -> None:
    """`[schedule] eps` and `[probes] scaled_eps` take one rule: a
    non-empty, strictly decreasing list of positive values."""
    eps = _float_list(cp[section][key])
    if (not eps or any(not e > 0 for e in eps)
            or any(b >= a for a, b in zip(eps, eps[1:]))):
        _reject(cp, section, key,
                "need a strictly decreasing list of positive values")


def read_config(path: Optional[str], reads: str) -> configparser.ConfigParser:
    """The defaults overlaid with the file at `path`, every section, key and
    value checked, and the ranges of the run section that the command
    `reads` ("solver" for spectrum and flow, "probes" for heat); any fault
    ends the run with a `config error:` message."""
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULT_CONFIG)
    if path:
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise SystemExit(f"config error: cannot read {path}: {exc}")

    for section in cp.sections():
        known = DEFAULT_CONFIG.get(section)
        if known is None:
            raise SystemExit(f"config error: unknown section [{section}]")
        for key, value in cp[section].items():
            if key not in known:
                raise SystemExit(f"config error: unknown key {key!r} "
                                 f"in [{section}]")
            try:
                _PARSERS.get(key, str)(value)
            except ValueError as exc:
                _reject(cp, section, key, exc)
    _require_schedule(cp, "schedule", "eps")
    if float(cp["solver"]["rel_tol"]) <= 0:
        raise SystemExit("config error: tolerances must be positive")
    if cp["model"]["profile"] not in ("capped", "neck"):
        raise SystemExit(f"config error: unknown profile {cp['model']['profile']}")
    # values of the right type that the command's solver or probe cannot use
    top = int(cp["model"]["mode_count"]) - 1
    if not 0 <= int(cp[reads]["ell_max"]) <= top:
        _reject(cp, reads, "ell_max",
                f"need 0 <= ell_max <= mode_count - 1 = {top}")
    if reads == "solver" and int(cp["solver"]["count"]) < 1:
        _reject(cp, "solver", "count", "need at least one eigenvalue per mode")
    if reads == "probes":
        for key in ("times", "scaled_eps"):
            values = _float_list(cp["probes"][key])
            if not values or min(values) <= 0:
                _reject(cp, "probes", key,
                        "need a non-empty list of positive values")
        _require_schedule(cp, "probes", "scaled_eps")
        for key in ("rho", "rhop", "tau", "h", "ref_radius"):
            if not float(cp["probes"][key]) > 0:
                _reject(cp, "probes", key, "need a positive value")
    return cp


def family_from_config(cp) -> WarpFamily:
    from .geometry import WarpFamily
    m = cp["model"]
    maker = WarpFamily.capped if m["profile"] == "capped" else WarpFamily.neck
    try:
        return maker(n=int(m["n"]), c=float(m["c"]),
                     mode_count=int(m["mode_count"]))
    except ValueError as exc:  # a family the model section cannot describe
        raise SystemExit(f"config error: [model] {exc}")


def _check_probe_points(cp, fam: WarpFamily) -> None:
    """`x` and `xprime` must lie in the radial domain that the interior
    probe solves on, below its outer Dirichlet end (where both kernels
    vanish, so the relative gap is 0/0), and off the cone tip: the conic
    limit kernel is defined for x > 0 only."""
    lo, hi = fam.domain
    for key in ("x", "xprime"):
        value = float(cp["probes"][key])
        if not lo <= value <= hi:
            _reject(cp, "probes", key, f"outside the radial domain "
                    f"[{lo}, {hi}] of the interior probe")
        if value == hi:
            _reject(cp, "probes", key, f"on the outer Dirichlet end {hi} of "
                    f"the interior probe, where both kernels vanish")
    for key in ("x", "xprime"):
        if not float(cp["probes"][key]) > 0:
            _reject(cp, "probes", key, "need a positive value: the conic "
                    "limit kernel is defined for x > 0 only")


def grid_from_config(cp) -> SLGrid:
    from .spectral import SLGrid
    grid_n = cp["solver"]["grid_n"]
    try:
        return SLGrid(int(grid_n))
    except ValueError as exc:  # a grid SLGrid refuses, such as too coarse
        raise SystemExit(f"config error: [solver] grid_n = {grid_n}: {exc}")


def _numerical(cmd):
    """A numerical subcommand whose solver refusal (`SolverError`) ends the
    run with one `solver error:` line on stderr and exit code 3."""
    @functools.wraps(cmd)
    def run(args) -> int:
        from .spectral import SolverError
        try:
            return cmd(args)
        except SolverError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return 3
    return run


def _outdir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_faces(args) -> int:
    kind = args.kind
    rows = _spaces.face_table(kind)
    corners = _spaces.corner_table(kind)
    data = load_golden()
    golden = data["face_tables"].get(kind)
    gold_corners = data["corner_tables"].get(kind, [])
    width = max(len(r["name"]) for r in rows) + 2
    print(f"# boundary faces of {kind}")
    for r in rows:
        geom = r["geometry"] or ""
        extra = " [reconstructed]" if r["reconstructed"] else ""
        print(f"{r['name']:<{width}} {r['origin']:<18} {geom}{extra}")
    for c in corners:
        print(f"{c['name']:<{width}} corner of {', '.join(c['in_faces'])}")
    ok = golden is not None and rows == golden and corners == gold_corners
    if not ok:
        print("MISMATCH against the golden face table", file=sys.stderr)
        if golden is not None:
            for r, g in zip(rows, golden):
                if r != g:
                    print(f"  got {r}\n  want {g}", file=sys.stderr)
    if args.out:
        payload = {"space": kind, "faces": rows, "corners": corners}
        (_outdir(args) / f"faces_{kind}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_lift(args) -> int:
    maps = _spaces.sc_triple_maps()
    if args.map not in maps:
        print(f"unknown map {args.map!r}; choose from {sorted(maps)}",
              file=sys.stderr)
        return 2
    text = args.monomial
    bare = text.startswith("rho_") and "^" not in text and "*" not in text
    try:
        mono = parse_monomial(text)
        lifted = maps[args.map].lift_monomial(mono)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        # a malformed monomial or exponent, or a face the map does not know
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"({args.map})*({mono}) = {lifted}")
    if bare:
        rho = text[4:]
        rows = [r for r in _spaces.lift_table_rows()
                if r.map_name == args.map and r.rho == rho]
        if rows:
            row = rows[0]
            print(f"published: {row.published}   [{row.status}]")
            if row.status != "mechanical":
                print("note: published row differs from the derived b-map; "
                      "see the golden table notes")
    return 0


# what a malformed element file raises while it is read and parsed: no file,
# no JSON, a missing key, a value of the wrong type or shape, a zero
# denominator, or an unknown calculus or missing face
_MALFORMED_ELEMENT = (OSError, ValueError, KeyError, TypeError, AttributeError,
                      ZeroDivisionError, CompositionError)


def _read_element(path: str):
    with open(path) as fh:
        return orders_from_jsonable(json.load(fh))


def cmd_compose(args) -> int:
    rules = {"b": b_compose, "conic": conic_compose, "sc": sc_compose,
             "acc": acc_compose}
    if args.calculus not in rules:
        print(f"unknown calculus {args.calculus!r}", file=sys.stderr)
        return 2
    if args.pipeline and args.calculus != "sc":
        print(f"--pipeline applies to the sc calculus only, not "
              f"{args.calculus!r}", file=sys.stderr)
        return 2
    rule = sc_compose_pipeline if args.pipeline else rules[args.calculus]
    try:
        a, b = _read_element(args.a), _read_element(args.b)
    except _MALFORMED_ELEMENT as exc:
        print(f"malformed element: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    try:
        out = rule(a, b)
    except CompositionError as exc:
        print(f"composition error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(orders_to_jsonable(out), indent=2, sort_keys=True))
    print()
    print("Face        Index set / leading order")
    for face, label in sorted(out.leading_orders().items()):
        print(f"{face:<11} {label}")
    if out.meta.get("status"):
        print(f"status: {out.meta['status']}")
    return 0


@_numerical
def cmd_spectrum(args) -> int:
    from .spectral import assemble_spectra, conic_reference_spectrum
    cp = read_config(args.config, "solver")
    fam = family_from_config(cp)
    grid = grid_from_config(cp)
    count = int(cp["solver"]["count"])
    ell_max = int(cp["solver"]["ell_max"])
    eps_list = _float_list(cp["schedule"]["eps"])
    out = _outdir(args)
    lines = ["eps,mode_mu,mode_mult,k,lambda,err_est"]
    ref = conic_reference_spectrum(fam, count, ell_max)
    for e in ref.entries:
        lines.append(f"0,{fmt(e['mu'])},{e['mult']},{e['k']},{fmt(e['lam'])},0")
    for spec in assemble_spectra(fam, eps_list, grid, count, ell_max):
        for e in spec.entries:
            lines.append(f"{fmt(spec.eps)},{fmt(e['mu'])},{e['mult']},"
                         f"{e['k']},{fmt(e['lam'])},{fmt(e['err'])}")
    path = out / "spectrum.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


@_numerical
def cmd_flow(args) -> int:
    from .spectral import FLOW_MIN_POINTS, spectral_flow
    cp = read_config(args.config, "solver")
    eps_list = _float_list(cp["schedule"]["eps"])
    if len(eps_list) < FLOW_MIN_POINTS:
        _reject(cp, "schedule", "eps",
                f"flow needs at least {FLOW_MIN_POINTS} values")
    fam = family_from_config(cp)
    grid = grid_from_config(cp)
    flow = spectral_flow(fam, eps_list, grid,
                         count=int(cp["solver"]["count"]),
                         ell_max=int(cp["solver"]["ell_max"]),
                         rel_tol=float(cp["solver"]["rel_tol"]))
    out = _outdir(args)
    lines = ["eps,ell,branch,k,lambda"]
    for key in sorted(flow.curves):
        for eps, lam in zip(flow.schedule, flow.curves[key]):
            lines.append(f"{fmt(eps)},{key[0]},{key[1] or '-'},{key[2]},{fmt(lam)}")
    (out / "flow.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "clusters": [{
            "center": cl.center, "multiplicity": cl.multiplicity,
            "matched_reference": cl.matched_reference, "gap": cl.gap,
            "tolerance": cl.tolerance,
        } for cl in flow.clusters],
        "verdict": flow.verdict,
        "empirical_rates": {f"{k[0]}/{k[1] or '-'}/{k[2]}": flow.fits[k].rate
                            for k in sorted(flow.fits)},
    }
    (out / "clusters.json").write_text(json.dumps(summary, indent=2,
                                                  sort_keys=True, default=str))
    v = flow.verdict
    both = v["forward_inclusion"] and v["reverse_inclusion"]
    print("verdict:", "both inclusions hold" if both else "inclusion failure",
          "| multiplicities", "match" if v["multiplicities_match"] else "MISMATCH")
    print(f"wrote {out/'flow.csv'} and {out/'clusters.json'}")
    return 0 if both and v["multiplicities_match"] else 1


@_numerical
def cmd_heat(args) -> int:
    from .heat import interior_probe, scaled_probe, scaling_identity_defect
    cp = read_config(args.config, "probes")
    fam = family_from_config(cp)
    if args.regime == "interior":
        _check_probe_points(cp, fam)
    pr = cp["probes"]
    out = _outdir(args)
    regime = args.regime
    rows = ["regime,eps,t_or_tau,x,xprime,value_model,value_eps,abs_err"]
    if regime == "interior":
        res = interior_probe(fam, _float_list(cp["schedule"]["eps"]),
                             x=float(pr["x"]), xp=float(pr["xprime"]),
                             times=_float_list(pr["times"]),
                             ell_max=int(pr["ell_max"]))
    elif regime == "scaled":
        res = scaled_probe(fam, _float_list(pr["scaled_eps"]),
                           rho=float(pr["rho"]), rhop=float(pr["rhop"]),
                           tau=float(pr["tau"]), ell_max=int(pr["ell_max"]),
                           h=float(pr["h"]), ref_radius=float(pr["ref_radius"]))
    else:  # flat_ball; argparse's choices admit no other regime
        from .geometry import WarpFamily
        defect = max(scaling_identity_defect(WarpFamily.capped(n=fam.n, c=1.0), s)
                     for s in (0.5, 0.25))
        (out / "heat_flat_ball.json").write_text(json.dumps(
            {"regime": "flat_ball", "identity_defect": defect}, indent=2))
        print(f"scaling identity defect: {fmt(defect)}")
        return 0 if defect < 1e-8 else 1
    x0 = float(pr["x"]) if regime == "interior" else float(pr["rho"])
    x1 = float(pr["xprime"]) if regime == "interior" else float(pr["rhop"])
    for i, eps in enumerate(res.schedule):
        for j, t in enumerate(res.times):
            model = res.model_values[j]
            val = res.eps_values[i, j]
            rows.append(f"{regime},{fmt(eps)},{fmt(t)},{fmt(x0)},{fmt(x1)},"
                        f"{fmt(model)},{fmt(val)},{fmt(abs(val - model))}")
    (out / f"heat_{regime}.csv").write_text("\n".join(rows) + "\n")
    summary = {"regime": res.regime, "schedule": res.schedule,
               "relative_distances": list(map(float, res.distances)),
               "strictly_decreasing": res.strictly_decreasing,
               "final_relative": res.final_relative, "meta": res.meta}
    (out / f"heat_{regime}_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True))
    print(f"{regime}: strictly decreasing = {res.strictly_decreasing}, "
          f"final relative = {fmt(res.final_relative)}")
    print(f"wrote {out}/heat_{regime}.csv")
    return 0 if res.strictly_decreasing else 1


def cmd_verify_tables(args) -> int:
    golden = load_golden()
    failures = []
    if golden.get("version") != DATA_VERSION:
        failures.append("data file version mismatch")
    for kind in _spaces.SPACE_KINDS:
        if _spaces.face_table(kind) != golden["face_tables"].get(kind):
            failures.append(f"face table {kind}")
        if _spaces.corner_table(kind) != golden["corner_tables"].get(kind, []):
            failures.append(f"corner table {kind}")
    rows = [[r.map_name, r.rho, r.published, r.mechanical, r.status]
            for r in _spaces.lift_table_rows()]
    if rows != golden["lift_table"]:
        failures.append("lift table")
    kernels = {k: {f: str(s) for f, s in
                   canonical_kernel_orders(k).leading_orders().items()}
               for k in ("b_heat_kernel", "conic_heat_kernel",
                         "sc_heat_kernel", "acc_heat_kernel")}
    if kernels != golden["kernel_orders"]:
        failures.append("kernel order tables")
    for name in sorted(golden["face_tables"]):
        status = "fail" if any(name in f for f in failures) else "ok"
        print(f"faces {name:<18} {status}")
    print(f"lift table            {'fail' if 'lift table' in failures else 'ok'}")
    print(f"kernel order tables   "
          f"{'fail' if 'kernel order tables' in failures else 'ok'}")
    if failures:
        print("failing tables: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="acclab",
        description="conic-degeneration bookkeeping and spectral verification")
    ap.add_argument("--config", help="INI experiment configuration")
    ap.add_argument("--out", help="output directory (default ./out)")
    sub = ap.add_subparsers(dest="command", required=False)

    p = sub.add_parser("faces", help="face inventory of a canonical space")
    p.add_argument("kind", choices=_spaces.SPACE_KINDS)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("lift", help="lift a monomial through beta_L/R/C")
    p.add_argument("map", help="beta_L, beta_R or beta_C")
    p.add_argument("monomial", help="e.g. rho_110 or rho_110^2*rho_001 or 1")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("compose", help="compose two calculus elements")
    p.add_argument("--calculus", required=True)
    p.add_argument("--pipeline", action="store_true",
                   help="sc only: use the triple-space pushforward route")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("spectrum", help="per-mode spectra along the schedule")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("flow", help="spectral flow, clusters and verdict")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("heat", help="heat kernel degeneration probes")
    p.add_argument("--regime", default="interior",
                   choices=("interior", "scaled", "flat_ball"))
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("verify-tables", help="run all golden-table checks")
    p.set_defaults(func=cmd_verify_tables)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
