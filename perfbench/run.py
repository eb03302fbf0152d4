"""Benchmark of the stme package: time to solution, throughput, set-up time and
peak memory of the command line on seeded synthetic worlds, with a traced run
that splits the time by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 20 --trace 0

Workloads are `experiment`, `experiment-jobs2` and `regional`; README.md next
to this file says why each exists and which layer metric should move which
end-to-end metric. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
print every metric by name and unit and an environment record.

The seed picks one of N_SCENARIOS recorded scenarios (world seed 11 + seed mod
N_SCENARIOS), whose input hashes and reference return values are stored in
reference.json; make_reference.py regenerates that file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_CLI = HERE / "trace_cli.py"
WORK_ROOT = ROOT / ".bench_work"

N_SCENARIOS = 8
FIRST_WORLD_SEED = 11  # scenario 0 is the acceptance-criterion-6 world
RV_TOLERANCE_M = 1e-3
INPUT_FILES = ("footprints.csv", "locations.csv")
CHILD_TIMEOUT_S = 60

# One BLAS thread per process: with at most nproc pool workers, each running
# one thread, computing threads never exceed nproc.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Acceptance criterion 6: 3200 years (1,920 events, 35 locations), first 20
# locations analysed, both regimes back to back.
EXPERIMENT_WORLD = {"years": 3200.0, "args": ("--years", "3200")}
EXPERIMENT_LOCATIONS = tuple(range(1, 21))
REGIMES = (
    {"T0": "200", "T": "500", "ladder": ("20", "30", "60")},
    {"T0": "50", "T": "100", "ladder": ("10", "15", "20")},
)
REPLICATES = 4

# Dense world: 425 locations on a 0.05 degree grid, 480 events, 204k
# footprint rows. 800 years keeps T = 500 below the catalog span, which the
# empirical estimator needs. return-values exits 1 when any single-location
# MLE fit hits the shape boundary; with n = 30 that happened on 7 of world
# seeds 11-26, with n = 60 on none.
REGIONAL_WORLD = {"years": 800.0, "args": ("--years", "800", "--spacing", "0.05")}
REGIONAL_RETURN_VALUES = (
    "--method", "mle", "--estimator", "stme", "--estimator", "single",
    "--estimator", "empirical", "--T", "500", "--T0", "200", "--n", "60",
)
EXPERIMENT_CSVS = ("results.csv", "summary.csv", "metrics.csv")

WORKLOADS = ("experiment", "experiment-jobs2", "regional")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB"}

SELF_TIME_SPANS = (
    "evd.fit_mle", "evd.fit_pwm", "returns.return_value", "returns.exposure_ecdf",
    "catalog.load_catalog", "catalog.select_region", "catalog.extract_stm",
    "catalog.extract_exposures", "catalog.top_n_events", "baselines.location_series",
    "baselines.single_location_rv", "baselines.empirical_rv", "diagnostics.tau_map",
    "diagnostics.trend_permutation_test", "diagnostics.exposure_kl_test",
    "experiments.sample_period", "experiments.replicate", "experiments.summarize",
    "experiments.performance_metrics", "cli.main", "cli.write_csv", "cli.read_replicate",
)


@contextlib.contextmanager
def work_directory(prefix: str):
    """A fresh directory under WORK_ROOT, removed with its contents on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # not empty: another run is using it
            pass


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


@dataclass(frozen=True)
class Child:
    """One finished stme process: exit code, wall time, peak RSS, output."""

    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], log_dir: Path, env: dict[str, str]) -> Child:
    """Run one process in its own session and reap it with wait4, which gives
    the peak RSS of that process and of every descendant it waited for."""
    out_path = log_dir / "child.out"
    err_path = log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers of a killed command
    return Child(
        proc.returncode, wall_s, usage.ru_maxrss,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Bench:
    """State of one benchmark run: work directory, scenario, process log."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.scenario = seed % N_SCENARIOS
        self.world_seed = FIRST_WORLD_SEED + self.scenario
        self.workdir = workdir
        self.env = child_env()
        # never more pool workers than cores
        self.jobs = min(2, os.cpu_count() or 1) if workload == "experiment-jobs2" else 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._runs = 0

    def problem(self, text: str):
        self.problems.append(text)
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    def stme(self, args: list[str], spans: Path | None = None, traced: bool = False,
             pooled: bool = False) -> Child:
        """Run one stme command. With `spans`, run it through trace_cli.py and
        write its spans there: every layer when `traced`, else set-up only."""
        self._runs += 1
        log_dir = self.workdir / f"log{self._runs:04d}"
        log_dir.mkdir()
        if spans is None:
            argv = [sys.executable, "-m", "stme.cli", *args]
        else:
            argv = [sys.executable, str(TRACE_CLI), str(spans)]
            argv += ["--pooled"] if pooled else []
            argv += [] if traced else ["--setup-only"]
            argv += ["--", *args]
        child = run_child(argv, log_dir, self.env)
        shutil.rmtree(log_dir)
        self.attempted += 1
        resumed = "resuming:" in child.stdout
        if child.code != 0 or resumed:
            self.failed += 1
            reason = "resumed from existing replicates" if resumed else f"exit code {child.code}"
            self.problem(f"stme {args[0]}: {reason}: {child.stderr.strip()[-500:]}")
        return child

    def make_world(self, world: dict, name: str) -> dict:
        out = self.workdir / name
        child = self.stme(["synth", "--out", str(out), *world["args"],
                           "--seed", str(self.world_seed)])
        if child.code != 0:
            raise BenchError(f"stme synth failed: {child.stderr.strip()[-500:]}")
        return {
            "inputs": {f: sha256(out / f) for f in INPUT_FILES},
            "args": [
                "--footprints", str(out / "footprints.csv"),
                "--locations", str(out / "locations.csv"),
                "--duration", format(world["years"], "g"),
            ],
        }


# --- workloads -----------------------------------------------------------


def setup_time(data: dict) -> float:
    """load_catalog plus the select_region that follows it, in one command."""
    spans = sorted(data["spans"], key=lambda span: span[3])
    load = next(span for span in spans if span[2] == "catalog.load_catalog")
    select = next(span for span in spans
                  if span[2] == "catalog.select_region" and span[3] >= load[4])
    return (load[4] - load[3]) + (select[4] - select[3])


def experiment_config(bench: Bench) -> Path:
    """INI file restricting the analysis, not the region, to the first 20
    locations, as acceptance criterion 6 does."""
    path = bench.workdir / "experiment.ini"
    ids = " ".join(str(i) for i in EXPERIMENT_LOCATIONS)
    path.write_text(f"[analysis]\nlocation_ids = {ids}\n", encoding="utf-8")
    return path


def experiment_repeat(bench: Bench, world: dict, config: Path, jobs: int, traced: bool,
                      keep: bool = False) -> dict:
    """Both criterion-6 regimes, each into a fresh output directory."""
    rep_dir = Path(tempfile.mkdtemp(prefix="rep", dir=bench.workdir))
    walls, rss, spans, hashes, parsed = [], [], [], {}, {}
    cells = failure_rows = 0
    for regime in REGIMES:
        tag = f"{regime['T0']}/{regime['T']}"
        out = rep_dir / f"T0_{regime['T0']}"
        span_file = rep_dir / f"spans_{regime['T0']}.json"
        args = ["experiment", *world["args"], "--config", str(config), "--out", str(out),
                "--T", regime["T"], "--T0", regime["T0"],
                *[a for n in regime["ladder"] for a in ("--n", n)],
                "--replicates", str(REPLICATES), "--seed", str(bench.world_seed),
                "--jobs", str(jobs)]
        child = bench.stme(args, spans=span_file, traced=traced, pooled=jobs > 1)
        walls.append(child.wall_s)
        rss.append(child.maxrss_kb)
        if child.code != 0:
            continue
        spans.append(json.loads(span_file.read_text(encoding="utf-8")))
        for name in EXPERIMENT_CSVS:
            hashes[f"{tag}/{name}"] = sha256(out / name)
        rows, failures = read_results(out / "results.csv")
        cells += rows
        failure_rows += failures
        if keep:
            parsed[tag] = read_cells(out / "summary.csv", ("estimator", "method", "n"), "median")
    shutil.rmtree(rep_dir)
    return {"wall_s": sum(walls), "maxrss_kb": max(rss), "cells": cells,
            "failure_rows": failure_rows, "hashes": hashes, "spans": spans,
            "setup_s": [setup_time(data) for data in spans], "medians": parsed,
            "traced": traced}


def read_results(path: Path) -> tuple[int, int]:
    rows = failures = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            failures += row["value_m"] == ""
    return rows, failures


def read_cells(path: Path, key_fields: tuple[str, ...], value_field: str) -> dict:
    """One column of a per-location CSV as {"KEY/FIELDS": {location_id: value}}."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = "/".join(row[field] for field in key_fields)
            out.setdefault(key, {})[row["location_id"]] = float(row[value_field])
    return out


def regional_repeat(bench: Bench, world: dict, traced: bool, keep: bool = False) -> dict:
    """stm, return-values and diagnostics, each reloading the catalog."""
    rep_dir = Path(tempfile.mkdtemp(prefix="rep", dir=bench.workdir))
    commands = {
        "stm": ["stm"],
        "return-values": ["return-values", *REGIONAL_RETURN_VALUES],
        "diagnostics": ["diagnostics", "--seed", str(bench.world_seed)],
    }
    walls, rss, spans, hashes, facts = [], [], [], {}, {}
    cells = failed_commands = 0
    for name, head in commands.items():
        out = rep_dir / name
        span_file = rep_dir / f"spans_{name}.json"
        child = bench.stme([*head, *world["args"], "--out", str(out)], spans=span_file,
                           traced=traced)
        walls.append(child.wall_s)
        rss.append(child.maxrss_kb)
        if child.code != 0:
            failed_commands += 1
            continue
        spans.append(json.loads(span_file.read_text(encoding="utf-8")))
        if name == "stm":
            facts["events"] = count_rows(out / "stm.csv")
            facts["exposure_rows"] = count_rows(out / "exposures.csv")
            hashes["stm.csv"] = sha256(out / "stm.csv")
        elif name == "return-values":
            cells = count_rows(out / "estimates.csv")
            hashes["estimates.csv"] = sha256(out / "estimates.csv")
            if keep:
                facts["estimates"] = read_cells(out / "estimates.csv", ("estimator", "method"),
                                                "value_m")
        else:
            report = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
            facts["tau_exceedance_fraction"] = report["tau_exceedance_fraction"]
            facts["tau_rows"] = count_rows(out / "tau_map.csv")
            hashes["diagnostics.json"] = sha256(out / "diagnostics.json")
    shutil.rmtree(rep_dir)
    return {"wall_s": sum(walls), "maxrss_kb": max(rss), "cells": cells,
            "commands": len(commands), "failed_commands": failed_commands, "hashes": hashes,
            "spans": spans, "setup_s": [setup_time(data) for data in spans], "facts": facts,
            "traced": traced}


# --- correctness ---------------------------------------------------------


def max_deviation(bench: Bench, what: str, got: dict, want: dict) -> float:
    """Largest |got - want| over cells; a cell present on one side only is a
    failed check."""
    worst = 0.0
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key, {}), want.get(key, {})
        if set(g) != set(w):
            bench.problem(f"{what} {key}: cells differ from the reference "
                          f"({sorted(set(g) ^ set(w))[:10]})")
            continue
        for loc, value in g.items():
            worst = max(worst, abs(value - w[loc]))
    return worst


def check_inputs(bench: Bench, world: dict, ref: dict):
    if world["inputs"] != ref["inputs"]:
        bench.problem(f"generated world (seed {bench.world_seed}) differs from the recorded "
                      f"one: {world['inputs']} != {ref['inputs']}")


def check_repeats(bench: Bench, repeats: list[dict]):
    first = repeats[0]["hashes"]
    for i, rep in enumerate(repeats[1:], start=1):
        if rep["hashes"] != first:
            bench.problem(f"repeat {i} wrote different outputs from repeat 0")


def check_experiment(bench: Bench, repeats: list[dict], ref: dict) -> float:
    check_repeats(bench, repeats)
    rep = repeats[0]
    if rep["cells"] != ref["cells"]:
        bench.problem(f"results.csv rows {rep['cells']} != reference {ref['cells']}")
    deviation = 0.0
    for tag, want in ref["medians"].items():
        got = rep["medians"].get(tag, {})
        deviation = max(deviation, max_deviation(bench, f"regime {tag}", got, want))
    return deviation


def check_regional(bench: Bench, repeats: list[dict], ref: dict) -> float:
    check_repeats(bench, repeats)
    facts = repeats[0]["facts"]
    for key in ("events", "exposure_rows", "tau_rows"):
        if facts.get(key) != ref[key]:
            bench.problem(f"{key} {facts.get(key)} != reference {ref[key]}")
    tau = facts.get("tau_exceedance_fraction", math.nan)
    if not abs(tau - ref["tau_exceedance_fraction"]) <= 1e-12:
        bench.problem(f"tau exceedance fraction {tau} != reference "
                      f"{ref['tau_exceedance_fraction']}")
    return max_deviation(bench, "estimates", facts.get("estimates", {}), ref["estimates"])


# --- metrics -------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if that
    percentile is at least the median; nearest-rank definition."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return p, sorted(values)[rank - 1]


def describe(name: str, unit: str, values: list[float]) -> dict:
    if not values:
        raise BenchError(f"no successful repeat measured {name}")
    tail = tail_percentile(values)
    line = f"{name:40s} {statistics.median(values):14.6g} {unit:10s} median of {len(values)}"
    line += f", p{tail[0]} {tail[1]:.6g}" if tail else ", no tail percentile (needs >= 20 samples)"
    print(line)
    entry = {"median": statistics.median(values), "n": len(values)}
    if tail:
        entry[f"p{tail[0]}"] = tail[1]
    return entry


def span_metrics(span_sets: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repeat from its span files. Self time
    is a span's duration minus the durations of its direct children."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    counters: dict[str, float] = {}
    for data in span_sets:
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in data["spans"]:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
        for span_id, _, name, start, end, extra in data["spans"]:
            self_s[name] = self_s.get(name, 0.0) + end - start - child_time.get(span_id, 0.0)
            calls[name] = calls.get(name, 0) + 1
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    for fit in ("evd.fit_mle", "evd.fit_pwm"):
        out[f"{fit}.calls"] = calls.get(fit, 0)
        out[f"{fit}.nonconverged"] = counts.get(f"{fit}.nonconverged", 0)
    out["evd.fit_mle.iterations_mean"] = ratio(counts.get("evd.fit_mle.iterations", 0),
                                               calls.get("evd.fit_mle", 0))
    out["evd.fit_mle.boundary"] = counts.get("evd.fit_mle.boundary", 0)
    out["returns.return_value.calls"] = calls.get("returns.return_value", 0)
    out["returns.swh_cdf.calls_per_estimate"] = ratio(
        counters.get("returns.swh_cdf.calls", 0), calls.get("returns.return_value", 0))
    out["returns.at_upper_bound"] = counts.get("returns.return_value.at_upper_bound", 0)
    out["catalog.load_catalog.rows_per_s"] = ratio(
        counts.get("catalog.load_catalog.rows", 0), self_s.get("catalog.load_catalog", 0.0))
    out["baselines.location_series.calls"] = calls.get("baselines.location_series", 0)
    out["baselines.single_location_rv.failed"] = counts.get(
        "baselines.single_location_rv.raised", 0)
    out["experiments.pool.task_bytes"] = ratio(counters.get("experiments.pool.task_bytes", 0),
                                               counters.get("experiments.pool.tasks", 0))
    out["experiments.pool.map_s"] = self_s.get("experiments.pool.map", 0.0)
    out["cli.write_csv.bytes"] = counts.get("cli.write_csv.bytes", 0)
    return out


PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    "evd.fit_mle.calls": "count", "evd.fit_mle.iterations_mean": "iterations",
    "evd.fit_mle.nonconverged": "count", "evd.fit_mle.boundary": "count",
    "evd.fit_pwm.calls": "count", "evd.fit_pwm.nonconverged": "count",
    "returns.return_value.calls": "count", "returns.swh_cdf.calls_per_estimate": "calls/estimate",
    "returns.at_upper_bound": "count", "catalog.load_catalog.rows_per_s": "rows/s",
    "baselines.location_series.calls": "count", "baselines.single_location_rv.failed": "count",
    "experiments.pool.task_bytes": "bytes", "experiments.pool.map_s": "s",
    "cli.write_csv.bytes": "bytes", "trace.overhead_s": "s",
    "failed_frac": "ratio", "rv_max_dev_m": "m",
}


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "stme").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_sha": git_sha, "src_sha256": source.hexdigest(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(), **versions, "blas_threads": 1,
    }


# --- main loop -----------------------------------------------------------


def measure(seconds: float, trace: bool, repeat) -> list[dict]:
    """Closed loop: one repeat after another, stopping at the whole number of
    repeats that ends nearest to `seconds`; with tracing, untraced and traced
    repeats alternate."""
    repeats = []
    start = time.perf_counter()
    while True:
        traced = trace and len(repeats) % 2 == 1
        repeats.append(repeat(traced, keep=not repeats))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in repeats)
        if elapsed + typical / 2 >= seconds and (not trace or len(repeats) >= 2):
            return repeats


def run(bench: Bench, seconds: float, trace: bool) -> dict:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref = reference["scenarios"][str(bench.scenario)]
    regional = bench.workload == "regional"
    world = bench.make_world(REGIONAL_WORLD if regional else EXPERIMENT_WORLD, "world")
    check_inputs(bench, world, ref["regional" if regional else "experiment"])

    if regional:
        def repeat(traced, keep=False):
            return regional_repeat(bench, world, traced, keep)
    else:
        config = experiment_config(bench)

        def repeat(traced, keep=False):
            return experiment_repeat(bench, world, config, bench.jobs, traced, keep)

    repeats = measure(seconds, trace, repeat)

    if regional:
        deviation = check_regional(bench, repeats, ref["regional"])
        failed_frac = (sum(r["failed_commands"] for r in repeats)
                       / sum(r["commands"] for r in repeats))
    else:
        deviation = check_experiment(bench, repeats, ref["experiment"])
        failed_frac = repeats[0]["failure_rows"] / max(repeats[0]["cells"], 1)
        if bench.jobs > 1:
            # The serial twin, run once after the timed loop: --jobs must not
            # change a byte of the results.
            twin = experiment_repeat(bench, world, config, 1, False)
            if twin["hashes"] != repeats[0]["hashes"]:
                bench.problem("--jobs 2 outputs differ from the serial run")
    if deviation > RV_TOLERANCE_M:
        bench.problem(f"rv_max_dev_m {deviation:.3g} exceeds tolerance {RV_TOLERANCE_M} m")

    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    details, metrics = {}, {}
    for name, values in (
        ("setup_s", [t for r in untraced for t in r["setup_s"]]),
        ("wall_s", [r["wall_s"] for r in untraced]),
        ("cells_per_s", [r["cells"] / r["wall_s"] for r in untraced]),
        ("peak_rss_mb", [r["maxrss_kb"] / 1024 for r in untraced]),
    ):
        details[name] = describe(name, END_TO_END_UNITS[name], values)
        metrics[name] = statistics.median(values)
    print(f"{'failed_frac':40s} {failed_frac:14.6g} {'ratio':10s} "
          f"{'failure rows over results rows' if not regional else 'failed subcommands'}")
    print(f"{'rv_max_dev_m':40s} {deviation:14.6g} {'m':10s} tolerance {RV_TOLERANCE_M} m")

    if trace:
        per_repeat = [span_metrics(r["spans"]) for r in traced]
        layer = {}
        for name in sorted(per_repeat[0]):
            values = [m[name] for m in per_repeat]
            details[name] = describe(name, PER_LAYER_UNITS[name], values)
            layer[name] = statistics.median(values)
        layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                     - metrics["wall_s"])
        layer["failed_frac"] = failed_frac
        layer["rv_max_dev_m"] = deviation
        print(f"{'trace.overhead_s':40s} {layer['trace.overhead_s']:14.6g} s")
        reported = {name: {"value": layer[name], "unit": PER_LAYER_UNITS[name]}
                    for name in PER_LAYER_UNITS}
    else:
        reported = {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]}
                    for name in END_TO_END_UNITS}

    record = {
        "workload": bench.workload, "seed": bench.seed, "scenario": bench.scenario,
        "world_seed": bench.world_seed, "jobs": bench.jobs, "seconds": seconds,
        "trace": int(trace), "repeats": len(untraced), "traced_repeats": len(traced),
        "inputs": world["inputs"], "environment": environment(), "metrics": details,
        "problems": bench.problems,
    }
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": reported}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stme" / "cli.py").is_file():
        print(f"error: no stme sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    with work_directory(f"{args.workload}-") as workdir:
        try:
            result = run(Bench(args.workload, args.seed, workdir), args.seconds, bool(args.trace))
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
