"""One fresh interpreter of the benchmark: set up, run one body, report.

    python3 child.py WORKLOAD SEED MODE HALF SPAWNED_AT OUT_DIR RESULT_JSON

MODE is `setup` (set up and stop), `body` (one untraced body), `traced`
(one body under the layer tracer), or `side` (one pass of the compose side
stream).
HALF picks the half of the sc pair stream that an exact_compose body runs.
SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, `import acclab.cli` and, for
exact_compose, the lazy build of the sc pushforward pipeline.
"""

import json
import sys
import time


def main() -> int:
    (workload, seed, mode, half, spawned_at, out_dir,
     result_path) = sys.argv[1:8]
    import acclab.cli  # noqa: F401  (the set-up being measured)
    if workload == "exact_compose":
        _build_sc_pipeline()
    result = {"setup_s": time.monotonic() - float(spawned_at)}

    if mode != "setup":
        import functools
        import resource
        import traceback
        from pathlib import Path

        import bodies
        runner = bodies.RUNNERS[workload]
        if mode == "side":
            _build_sc_pipeline()
            runner = bodies.run_compose_side_stream
        elif workload == "exact_compose":
            runner = functools.partial(runner, half=int(half))
        tracer = None
        if mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(extra_modules=[bodies])
        try:
            outcome = runner(int(seed), Path(out_dir))
            completed = True
        except Exception:
            traceback.print_exc()
            outcome = bodies.Outcome(checks=[("body raised", False)])
            completed = False
        result.update(completed=completed, half=int(half),
                      wall_s=outcome.wall_s, checks=outcome.checks,
                      digest=outcome.digest, pair_ms=outcome.pair_ms,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None and completed:
            result["layers"] = tracer.summary(outcome.wall_s)
            result["counters"] = dict(tracer.counters)
            tracer.dump(Path(out_dir) / "spans.json")

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _build_sc_pipeline() -> None:
    """Trigger the one-time lazy build of the sc pushforward pipeline through
    the public API, with the smallest valid pair."""
    from acclab.calculus import CalculusOrders, sc_compose_pipeline
    from acclab.indexsets import IndexSet
    el = CalculusOrders("sc", -2, {"110": IndexSet.of(0), "220": IndexSet.of(0)})
    sc_compose_pipeline(el, el)


if __name__ == "__main__":
    sys.exit(main())
