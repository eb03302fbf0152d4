"""Run the stme command line with the public functions of every layer wrapped
in timing spans, then write the spans to a JSON file.

    python3 perfbench/trace_cli.py SPANS_JSON [--pooled] [--setup-only] -- STME_ARGS...

Each wrapper replaces every module-level name in the stme package that is
bound to the wrapped function, because that is the name its caller looks up
(`location_series` is imported by name into `experiments` and `cli`, while
`evd.fit_gpd` calls `fit_gpd_mle` through its own module). Spans stay in
memory until the command returns.

With --pooled the command runs a process pool: the replicate function that
`pool.map` pickles is left unwrapped, and forked workers restore the original
functions, so pool numbers come from parent-side timing only.

With --setup-only just `load_catalog` and `select_region` are wrapped, without
counts: the benchmark's timed runs use this to measure set-up time inside
each command at the cost of a few wrapped calls.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import stme.cli

BOUNDARY_MESSAGE = "shape at search boundary"


def _fit_counts(report, args):
    return {
        "nonconverged": int(not report.converged),
        "iterations": getattr(report, "iterations", 0),
        "boundary": int(report.message == BOUNDARY_MESSAGE),
    }


def _estimate_counts(estimate, args):
    return {"at_upper_bound": int(estimate.flag == "at_upper_bound")}


def _footprint_rows(catalog, args):
    # Counted from the input file so the count does not depend on how the
    # catalog stores its events.
    with open(args[0], "rb") as fh:
        return {"rows": sum(1 for _ in fh) - 1}


def _bytes_written(result, args):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, function, counts read from the call's return value)
SPANS = {
    "catalog.load_catalog": ("stme.catalog", "load_catalog", _footprint_rows),
    "catalog.select_region": ("stme.catalog", "select_region", None),
    "catalog.extract_stm": ("stme.catalog", "extract_stm", None),
    "catalog.extract_exposures": ("stme.catalog", "extract_exposures", None),
    "catalog.top_n_events": ("stme.catalog", "top_n_events", None),
    "evd.fit_mle": ("stme.evd", "fit_gpd_mle", _fit_counts),
    "evd.fit_pwm": ("stme.evd", "fit_gpd_pwm", _fit_counts),
    "returns.return_value": ("stme.returns", "return_value", _estimate_counts),
    "returns.exposure_ecdf": ("stme.returns", "exposure_ecdf", None),
    "baselines.location_series": ("stme.baselines", "location_series", None),
    "baselines.single_location_rv": ("stme.baselines", "single_location_rv", None),
    "baselines.empirical_rv": ("stme.baselines", "empirical_rv", None),
    "diagnostics.tau_map": ("stme.diagnostics", "tau_map", None),
    "diagnostics.trend_permutation_test": ("stme.diagnostics", "trend_permutation_test", None),
    "diagnostics.exposure_kl_test": ("stme.diagnostics", "exposure_kl_test", None),
    "experiments.sample_period": ("stme.experiments", "sample_period", None),
    "experiments.replicate": ("stme.experiments", "_run_replicate", None),
    "experiments.summarize": ("stme.experiments", "summarize", None),
    "experiments.performance_metrics": ("stme.experiments", "performance_metrics", None),
    "cli.write_csv": ("stme.cli", "_write_csv", _bytes_written),
    "cli.read_replicate": ("stme.cli", "_read_replicate", None),
}

# Called about 27 times per return value: counted, not spanned, to keep the
# tracing overhead small.
COUNTED = {"returns.swh_cdf.calls": ("stme.returns", "swh_cdf")}

POOL_MAPPED = "experiments.replicate"
SETUP_SPANS = ("catalog.load_catalog", "catalog.select_region")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end, counts or None)
        self.counters = {}
        self._stack = []
        self._next_id = 0
        self._patched = []  # (module, attribute, original)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                counts = {"raised": 1}
                raise
            else:
                end = time.perf_counter()
                if observe is not None:
                    counts = observe(result, args)
                return result
            finally:
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, counts))

        return traced

    def counted(self, name, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counting

    def _replace(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "stme" or module_name.startswith("stme.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self, pooled: bool, setup_only: bool):
        for name, (module_name, attr, observe) in SPANS.items():
            if (pooled and name == POOL_MAPPED) or (setup_only and name not in SETUP_SPANS):
                continue
            original = getattr(sys.modules[module_name], attr)
            self._replace(original, self.wrap(name, original, None if setup_only else observe))
        if setup_only:
            return
        for name, (module_name, attr) in COUNTED.items():
            original = getattr(sys.modules[module_name], attr)
            self._replace(original, self.counted(name, original))
        self._replace(ProcessPoolExecutor, _traced_pool(self))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _traced_pool(tracer: Tracer):
    """ProcessPoolExecutor whose map records the parent-side wait and the
    pickled size of each task's arguments."""

    class TracedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, timeout=None, chunksize=1):
            tasks = list(zip(*iterables))
            if not tasks:
                return iter(())
            tracer.count("experiments.pool.tasks", len(tasks))
            tracer.count(
                "experiments.pool.task_bytes",
                sum(len(pickle.dumps((fn, task))) for task in tasks),
            )
            parent_map = functools.partial(
                ProcessPoolExecutor.map, self, fn, timeout=timeout, chunksize=chunksize
            )
            collect = tracer.wrap("experiments.pool.map", lambda: list(parent_map(*zip(*tasks))))
            return iter(collect())

    return TracedPool


def main(argv) -> int:
    if len(argv) < 2 or "--" not in argv:
        print("usage: trace_cli.py SPANS_JSON [--pooled] [--setup-only] -- STME_ARGS...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    spans_path, options, cli_args = argv[0], argv[1:split], argv[split + 1 :]
    tracer = Tracer()
    tracer.install(pooled="--pooled" in options, setup_only="--setup-only" in options)
    os.register_at_fork(after_in_child=tracer.uninstall)
    try:
        return tracer.wrap("cli.main", stme.cli.main)(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
