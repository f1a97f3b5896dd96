"""Spans and counts at the package's layer boundaries, recorded from outside.

A layer boundary is a module-level binding that callers look up at call
time.  A function imported by name is wrapped where it was imported: for
example ``simulate`` does ``from .sampling import invert_uniform_rows``, so
the wrapper goes on ``suspension_lab.simulate.invert_uniform_rows``.

Each call of a wrapped binding records a span (binding, start, end, parent
span).  A call made while a span of the same layer group is already open
records nothing, so recursion (``cli._sanitize``) and nesting inside one
layer are counted once.  All spans are kept in memory and written out by
the caller when the run ends.  Spans are kept on one stack, which assumes
one thread: the benchmark pins ``SUSPENSION_LAB_WORKERS`` to 1.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

#: (layer group, module, attribute) for every wrapped binding.
BINDINGS = (
    ("sampling.invert", "simulate", "invert_uniform_rows"),
    ("sampling.invert", "simulate", "invert_uniform"),
    ("sampling.cdf_tables", "simulate", "poisson_cdf_tables"),
    *(("simulate", "simulate", name) for name in (
        "clt_experiment", "stopping_time_experiment", "scan_intensity",
        "hopf_diagnostic", "increment_tail_decay")),
    *(("intensity.check_condition", mod, "check_condition")
      for mod in ("cli", "criteria", "simulate", "intensity")),
    *(("intensity.epsilon_at", mod, "epsilon_at") for mod in ("criteria", "simulate", "intensity")),
    ("criteria.classify", "criteria", "classify"),
    *(("criteria.series", "criteria", name) for name in (
        "rn_square_integral", "hellinger_growth", "rn_slope_fit", "hellinger_slope_fit")),
    *(("numerics.fit_log_slope", mod, "fit_log_slope") for mod in ("criteria", "simulate")),
    ("numerics.semi_infinite_sum", "criteria", "semi_infinite_sum"),
    *(("dist.skellam_tail", mod, "skellam_tail") for mod in ("cli", "simulate")),
    *(("cli.parse", "cli", name) for name in ("parse_profile", "parse_rng")),
    *(("cli.render", "cli", name) for name in ("_sanitize", "build_report", "render_report")),
)


def _draws(args, kwargs, result) -> int:
    u = kwargs["u"] if "u" in kwargs else args[1]
    return int(u.size)


#: Counts taken at a binding, from its arguments and result.
COUNTS = {
    "invert_uniform_rows": ("sampling.invert.draws", _draws),
    "invert_uniform": ("sampling.invert.draws", _draws),
    "poisson_cdf_tables": ("sampling.cdf_tables.cells", lambda a, k, r: int(r.size)),
    "render_report": ("cli.report_bytes", lambda a, k, r: len(r.encode())),
}


class CountingGenerator:
    """Delegates to a numpy Generator and counts the uniforms it returns."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        out = self._gen.random(*args, **kwargs)
        self._tracer.counts["sampling.uniforms"] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self, package):
        self._modules = {name: getattr(package, name) for name in
                         ("cli", "criteria", "intensity", "sampling", "simulate")}
        self.bindings = [(group, mod, attr) for group, mod, attr in BINDINGS
                         if callable(getattr(self._modules[mod], attr, None))]
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: Counter = Counter()
        self.count_max: Counter = Counter()
        self.cache_stats: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def _wrap(self, index: int, fn):
        group, _, attr = self.bindings[index]
        count = COUNTS.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[group]:
                return fn(*args, **kwargs)
            slot = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((index, 0.0, 0.0, parent))
            self._stack.append(slot)
            self._open[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open[group] -= 1
                self._stack.pop()
                self.spans[slot] = (index, start, end, parent)
            if count is not None:
                key, amount = count[0], count[1](args, kwargs, result)
                self.counts[key] += amount
                self.count_max[key] = max(self.count_max[key], amount)
            return result

        return wrapper

    def _lru_caches(self):
        crit = self._modules["criteria"]
        return [fn for fn in vars(crit).values() if hasattr(fn, "cache_info") and hasattr(fn, "cache_clear")]

    def clear_caches(self) -> None:
        for fn in self._lru_caches():
            fn.cache_clear()

    @contextmanager
    def recording(self):
        """Install every wrapper and the uniform counter for the duration; on
        exit, add the criteria lru cache statistics, which the caller clears
        before each op."""
        originals = []
        for index, (_, mod, attr) in enumerate(self.bindings):
            module = self._modules[mod]
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(index, fn))
        rngspec = self._modules["sampling"].RNGSpec
        make_generator = rngspec.generator
        originals.append((rngspec, "generator", make_generator))
        rngspec.generator = lambda spec: CountingGenerator(make_generator(spec), self)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
            for fn in self._lru_caches():
                info = fn.cache_info()
                self.cache_stats["hits"] += info.hits
                self.cache_stats["misses"] += info.misses

    def reset_counts(self) -> None:
        self.counts.clear()
        self.count_max.clear()
        self.cache_stats.clear()

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer calls, inclusive seconds, self seconds and counts, over
        the spans from ``first_span`` on and the counts since the last reset."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        child_seconds: Counter = Counter()
        spans = list(enumerate(self.spans))[first_span:]
        for _, (index, start, end, parent) in spans:
            group = self.bindings[index][0]
            calls[group] += 1
            seconds[group] += end - start
            if parent >= 0:
                child_seconds[parent] += end - start
        simulate_self = sum(end - start - child_seconds[slot]
                            for slot, (index, start, end, _) in spans
                            if self.bindings[index][0] == "simulate")
        draws = self.counts["sampling.invert.draws"]
        lookups = self.cache_stats["hits"] + self.cache_stats["misses"]
        out = {}
        for group in ("sampling.invert", "sampling.cdf_tables", "intensity.check_condition",
                      "intensity.epsilon_at", "criteria.classify", "numerics.fit_log_slope",
                      "numerics.semi_infinite_sum", "dist.skellam_tail"):
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.s"] = seconds[group]
        out.update({
            "sampling.invert.draws": draws,
            "sampling.invert.ns_per_draw": 1e9 * seconds["sampling.invert"] / draws if draws else 0.0,
            "sampling.cdf_tables.cells": self.counts["sampling.cdf_tables.cells"],
            "sampling.uniforms": self.counts["sampling.uniforms"],
            "simulate.s": seconds["simulate"],
            "simulate.self_s": simulate_self,
            "criteria.series.s": seconds["criteria.series"],
            "criteria.series.misses": self.cache_stats["misses"],
            "criteria.series.hit_ratio": self.cache_stats["hits"] / lookups if lookups else 0.0,
            "cli.parse.s": seconds["cli.parse"],
            "cli.render.s": seconds["cli.render"],
            "cli.report_bytes": self.counts["cli.report_bytes"],
        })
        return out

    def dump(self) -> dict:
        return {
            "bindings": [f"{mod}.{attr}" for _, mod, attr in self.bindings],
            "groups": [group for group, _, _ in self.bindings],
            "spans": [list(span) for span in self.spans],
        }
