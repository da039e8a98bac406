"""Layer spans and counters, recorded from outside the library.

`Tracer.install` replaces the public functions of the traced acclab modules
with timing wrappers, on every module attribute that binds them (so
`acclab.spectral.solve_mode` and `acclab.heat.solve_mode` both record), and
on a few methods named in `METHODS`.  `symbolic` and `geometry` are not
wrapped: they are called too often, and their time shows up in the self
time of the calling layer.  In `cli` only `main` is wrapped, so that
`cli.main.self_s` holds config parsing and CSV/JSON writing.

Spans (name, start, end, parent) and counters stay in memory; `summary`
reduces them to the per-layer metrics and `dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from acclab import calculus, cli, corners, heat, indexsets, spaces, spectral

LAYER_MODULES = (spectral, heat, calculus, spaces, corners, indexsets)
METHODS = ((corners.CornerSpace, "blow_up", "corners.CornerSpace.blow_up"),
           (heat.ExactConeMode, "__post_init__", "heat.ExactConeMode"),
           (heat.ExactConeMode, "u", "heat.ExactConeMode"),
           (heat.ExactConeMode, "kernel", "heat.ExactConeMode"))


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.name_ids: dict = {}  # span name -> index, in first-use order
        self.spans: list = []     # [name_id, start, end, parent index, outermost]
        self.stack: list = []
        self.active = defaultdict(int)
        self.counters = defaultdict(int)

    # -- recording ----------------------------------------------------------
    def wrap(self, name: str, fn, count=None):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        calls = name + ".calls"
        spans, stack, active, counters = (self.spans, self.stack, self.active,
                                          self.counters)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, not active[nid]]
            stack.append(len(spans))
            spans.append(span)
            active[nid] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[nid] -= 1
                stack.pop()
            counters[calls] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key] += value
            return result

        return wrapper

    def install(self, extra_modules=()):
        """Wrap every traced function wherever a module binds it."""
        targets = {}
        for module in LAYER_MODULES:
            for name, fn in _public_functions(module):
                short = module.__name__.rsplit(".", 1)[-1]
                targets[id(fn)] = (fn, f"{short}.{name}")
        targets[id(cli.main)] = (cli.main, "cli.main")
        eigh = spectral.eigh_tridiagonal
        targets[id(eigh)] = (eigh, "spectral.eigh_tridiagonal")
        self.bessel_cache = spectral.bessel_j_zeros
        counts = _counters()
        wrapped = {key: self.wrap(name, fn, counts.get(name))
                   for key, (fn, name) in targets.items()}
        binders = [m for n, m in list(sys.modules.items())
                   if n == "acclab" or n.startswith("acclab.")]
        for module in binders + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        for cls, attr, name in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    # -- reduction ------------------------------------------------------------
    def totals(self):
        """Inclusive (outermost spans only) and self seconds per name."""
        names = list(self.name_ids)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for nid, start, end, parent, outermost in self.spans:
            dur = end - start
            own[names[nid]] += dur
            if outermost:
                inclusive[names[nid]] += dur
            if parent >= 0:
                own[names[self.spans[parent][0]]] -= dur
        return inclusive, own

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced body, keyed by metric name."""
        inc, own = self.totals()
        c = self.counters
        info = self.bessel_cache.cache_info()
        lookups = info.hits + info.misses
        computed_vectors = c["spectral.eigh_tridiagonal.vectors"]
        out = {
            "spectral.bessel_j_zeros.s": inc["spectral.bessel_j_zeros"],
            "spectral.bessel_j_zeros.zeros": c["spectral.bessel_j_zeros.zeros"],
            "spectral.bessel_j_zeros.hit_ratio":
                info.hits / lookups if lookups else 0.0,
            "spectral.bessel_j_zeros.wall_share":
                inc["spectral.bessel_j_zeros"] / wall_s,
            "spectral.eigh_tridiagonal.s": inc["spectral.eigh_tridiagonal"],
            "spectral.eigh_tridiagonal.calls": c["spectral.eigh_tridiagonal.calls"],
            "spectral.eigh_tridiagonal.vectors": computed_vectors,
            "spectral.eigh_tridiagonal.vector_bytes":
                c["spectral.eigh_tridiagonal.vector_bytes"],
            "spectral.eigh_tridiagonal.wall_share":
                inc["spectral.eigh_tridiagonal"] / wall_s,
            "spectral.eigvec_useful_ratio":
                (c["spectral.solve_mode.vectors"] / computed_vectors
                 if computed_vectors else 0.0),
            "spectral.solve_mode.calls": c["spectral.solve_mode.calls"],
            "spectral.solve_mode.eigenpairs": c["spectral.solve_mode.eigenpairs"],
            "spectral.solve_mode.self_s": own["spectral.solve_mode"],
            "spectral.spectral_flow.self_s": own["spectral.spectral_flow"],
            "heat.heat_from_spectrum.s": inc["heat.heat_from_spectrum"],
            "heat.heat_from_spectrum.calls": c["heat.heat_from_spectrum.calls"],
            "heat.ExactConeMode.s": inc["heat.ExactConeMode"],
            "heat.ExactConeMode.self_s": own["heat.ExactConeMode"],
            "heat.crank_nicolson_mode.s": inc["heat.crank_nicolson_mode"],
            "heat.crank_nicolson_mode.steps": c["heat.crank_nicolson_mode.steps"],
            "heat.t_convolve.s": inc["heat.t_convolve"],
            "heat.t_convolve.calls": c["heat.t_convolve.calls"],
            "heat.t_convolve.flops": c["heat.t_convolve.flops"],
            "heat.g0_fiber_check.s": inc["heat.g0_fiber_check"],
            "calculus.sc_compose.s": inc["calculus.sc_compose"],
            "calculus.sc_compose_pipeline.self_s": own["calculus.sc_compose_pipeline"],
            "calculus.pullback_orders.s": inc["calculus.pullback_orders"],
            "calculus.pushforward_orders.s": inc["calculus.pushforward_orders"],
            "indexsets.indexset_sum.calls": c["indexsets.indexset_sum.calls"],
            "indexsets.indexset_sum.s": inc["indexsets.indexset_sum"],
            "spaces.build_space.s": inc["spaces.build_space"],
            "spaces.lift_table_rows.s": inc["spaces.lift_table_rows"],
            "corners.CornerSpace.blow_up.calls": c["corners.CornerSpace.blow_up.calls"],
            "cli.main.self_s": own["cli.main"],
            "trace.spans": len(self.spans),
        }
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": list(self.name_ids), "spans": self.spans,
                       "counters": dict(self.counters)}, fh,
                      separators=(",", ":"))


def _counters() -> dict:
    """Work counters computed from arguments and results, per wrapped name."""
    bessel = spectral.bessel_j_zeros
    seen_misses = [bessel.cache_info().misses]

    def bessel_count(args, kwargs, result):
        misses = bessel.cache_info().misses
        computed = len(result) if misses > seen_misses[0] else 0
        seen_misses[0] = misses
        return {"spectral.bessel_j_zeros.zeros": computed}

    def eigh_count(args, kwargs, result):
        if not isinstance(result, tuple):
            return {}
        vec = result[1]
        return {"spectral.eigh_tridiagonal.vectors": vec.shape[1],
                "spectral.eigh_tridiagonal.vector_bytes":
                    vec.shape[0] * vec.shape[1] * vec.dtype.itemsize}

    def solve_count(args, kwargs, result):
        return {"spectral.solve_mode.eigenpairs": len(result.lam),
                "spectral.solve_mode.vectors": result.u.shape[1]}

    cn_sig = inspect.signature(heat.crank_nicolson_mode)

    def cn_count(args, kwargs, result):
        bound = cn_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        steps = bound.arguments["substeps"] * len(bound.arguments["times"])
        return {"heat.crank_nicolson_mode.steps": steps}

    def convolve_count(args, kwargs, result):
        nx, _, nt = args[0].values.shape
        # sum over k of (k + 1) products of nx x nx matrices, 2 nx^3 each
        return {"heat.t_convolve.flops": 2 * nx ** 3 * nt * (nt + 1) // 2}

    return {"spectral.bessel_j_zeros": bessel_count,
            "spectral.eigh_tridiagonal": eigh_count,
            "spectral.solve_mode": solve_count,
            "heat.crank_nicolson_mode": cn_count,
            "heat.t_convolve": convolve_count}
