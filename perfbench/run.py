"""acclab benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition of a workload body runs in a
fresh interpreter (`child.py`), one at a time, so this is a closed loop with
a single caller.  With `--trace 0` a run spends about `--seconds` in whole
children: bodies repeat while the next one still fits (at least one; for
exact_compose, which alternates the two halves of its pair stream, at least
four and whole passes), and the end-to-end metrics of BENCHMARK.json are
reported as medians over the repetitions; with `--trace 1` the per-layer
metrics come from two traced repetitions, next to one untraced repetition
that gives the tracing overhead.  The last line of standard output is the
JSON result; the lines above it print every metric with its unit, the
failed checks, the output digest and the environment.  Each run also writes
`.perfbench_out/<workload>-seed<N>-trace<T>/record.json` with everything,
and the spans of traced repetitions next to it.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("probe_interior", "probe_scaled", "exact_compose", "verify_oracles")
MIN_SETUP_SAMPLES = 5
MIN_COMPOSE_REPS = 4
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Run:
    """Child processes of one benchmark invocation and their checks."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.results: list = []          # (mode, result dict or None)
        self.attempted = 0
        self.failed_labels: list = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed_labels.append(label)

    def spawn(self, mode: str, half: int = 0):
        out = self.run_dir / f"{len(self.results):02d}-{mode}"
        out.mkdir()
        result_path = out / "result.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        with open(out / "log.txt", "w") as log:
            spawned_at = time.monotonic()
            cmd = [sys.executable, str(HERE / "child.py"), self.workload,
                   str(self.seed), mode, str(half), repr(spawned_at),
                   str(out), str(result_path)]
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, cwd=ROOT,
                                      timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
        result = None
        if code == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
        self.check(f"{mode} process {out.name} exited 0 with a result",
                   result is not None)
        if result is not None:
            for label, ok in result.get("checks", []):
                self.check(label, ok)
        self.results.append((mode, result))
        return result

    def completed(self, *modes) -> list:
        return [r for m, r in self.results
                if m in modes and r is not None and r.get("completed")]

    def setup_samples(self) -> list:
        return [r["setup_s"] for _, r in self.results if r is not None]

    def check_repeats(self, label: str, values: list) -> None:
        if len(values) >= 2:
            self.check(label, all(v == values[0] for v in values))

    def check_digests(self, results: list) -> None:
        # an exact_compose body runs one half of the pair stream, so its
        # output repeats every other body
        for half in (0, 1):
            self.check_repeats("science output digest repeats",
                               [r["digest"] for r in results
                                if r["half"] == half])


def measure_end_to_end(run: Run, seconds: int) -> tuple:
    # The run spends about `seconds` in whole child processes.  The numeric
    # workloads take their compose latencies from two passes over the sc
    # pairs of exact_compose, one before their bodies and one after, so that
    # the 2 x 1000 samples span the run.  A body starts only if, going by the
    # last one, it and the closing side pass still end in time.
    # exact_compose alternates the two halves of its pair stream, so that
    # many short bodies sample the machine's drifting speed, and stops only
    # after whole passes over the stream (the last may end one body late).
    deadline = time.monotonic() + seconds
    numeric = run.workload != "exact_compose"
    closing = timed_spawn(run, "side") if numeric else 0.0
    min_reps, step = (1, 1) if numeric else (MIN_COMPOSE_REPS, 2)
    body_s = 0.0
    for rep in itertools.count():
        if (rep >= min_reps and rep % step == 0
                and time.monotonic() + body_s + closing > deadline):
            break
        body_s = timed_spawn(run, "body", half=rep % step)
    if numeric:
        run.spawn("side")
    for _ in range(2 * MIN_SETUP_SAMPLES):
        if len(run.setup_samples()) >= MIN_SETUP_SAMPLES:
            break
        run.spawn("setup")
    bodies = run.completed("body")
    run.check_digests(bodies)
    pairs = sorted(ms for r in run.completed("side" if numeric else "body")
                   for ms in r["pair_ms"])
    if not bodies or len(pairs) < 1000 or not run.setup_samples():
        return {}, {}
    return {
        "setup_s": statistics.median(run.setup_samples()),
        "wall_s": statistics.median(r["wall_s"] for r in bodies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in bodies),
        "compose_p50_ms": statistics.median(pairs),
        # nearest rank: with n >= 1000, at least 10 samples lie above it
        "compose_p99_ms": pairs[-(-99 * len(pairs) // 100) - 1],
    }, {"body_reps": len(bodies), "setup": len(run.setup_samples()),
        "compose_pairs": len(pairs)}


def timed_spawn(run: Run, mode: str, half: int = 0) -> float:
    """Spawn one child and return how long it took, start to exit."""
    start = time.monotonic()
    run.spawn(mode, half)
    return time.monotonic() - start


def measure_layers(run: Run, seconds: int) -> tuple:
    # exactly one untraced and two traced bodies (half 0 of the stream for
    # exact_compose), whatever `seconds` says
    for mode in ("body", "traced", "traced"):
        run.spawn(mode)
    traced, plain = run.completed("traced"), run.completed("body")
    run.check_repeats("traced counts repeat",
                      [r["counters"] for r in traced])
    run.check_digests(traced + plain)
    if not traced or not plain:
        return {}, {}
    out = {}
    for name in traced[0]["layers"]:
        samples = [r["layers"][name] for r in traced]
        # counts repeat exactly (checked above); keep them whole numbers
        out[name] = (samples[0] if isinstance(samples[0], int)
                     else statistics.median(samples))
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out, {"traced_reps": len(traced), "untraced_reps": len(plain)}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "note": "no CPU pinning, thread or machine setting is changed",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "acclab" / "__init__.py").is_file():
        print(f"error: no acclab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    run = Run(args.workload, args.seed, run_dir)
    measure = measure_layers if args.trace else measure_end_to_end
    values, samples = measure(run, args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}; "
              f"see the logs under {run_dir}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    digests = sorted({r["digest"] for r in run.completed("body", "traced")})
    reference = json.loads((HERE / "reference_digests.json").read_text())
    ref_key = (f"{args.workload}/seed{args.seed}"
               if args.workload == "exact_compose" else args.workload)
    failed = len(run.failed_labels)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "samples": samples,
        "attempted": run.attempted, "failed": failed,
        "fail_frac": failed / run.attempted,
        "failed_checks": run.failed_labels,
        "digests": digests, "reference_digest": reference.get(ref_key),
        "environment": environment(),
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2))

    print(f"acclab benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, samples {samples}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {record['fail_frac']:.6g} ratio "
          f"({failed} of {run.attempted} checks failed)")
    for label, count in collections.Counter(run.failed_labels).items():
        print(f"  FAILED {count}x: {label}")
    if digests:
        known = record["reference_digest"]
        verdict = ("no reference recorded" if known is None
                   else "matches the reference" if digests == sorted(known)
                   else "differs from the reference " + ", ".join(known))
        print(f"  science output sha256 {', '.join(digests)} ({verdict})")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  record {run_dir / 'record.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
