"""Command-line interface.

Subcommands: synth, stm, fit, return-values, diagnostics, experiment.
Exit codes: 0 success, 1 compute failure (return-values: no estimate at all),
2 usage/validation error.
All outputs go to the --out directory; randomized commands take --seed and
are reproducible from it (independently of --jobs).
Each option is declared once, in `_OPTIONS`, which builds both the argument
parser and the config-file schema.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from .baselines import empirical_rv, location_series
from .catalog import (
    CatalogError,
    CycloneCatalog,
    ExposureMatrix,
    RegionSpec,
    StmSeries,
    extract_exposures,
    extract_stm,
    load_catalog,
    select_region,
    top_n_events,
)
from .diagnostics import (
    DiagnosticsError,
    exposure_kl_test,
    ks_uniformity,
    tau_map,
    trend_permutation_test,
)
from .evd import EvdError, fit_gpd
from .experiments import (
    ExperimentConfig,
    ReplicateResult,
    SynthWorldConfig,
    analysis_locations,
    estimate_cells,
    performance_metrics,
    run_replicates,
    summarize,
    synth_catalog,
)


class UsageError(ValueError):
    """Invalid configuration or input; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


@contextlib.contextmanager
def _replacing(path):
    """Open a temporary file next to `path` for writing; it replaces `path`
    only once the block completes, so a failed or killed write never leaves
    a truncated file at `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path, header, rows):
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload, sort_keys=False):
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _write_metadata(outdir, command, args_echo):
    payload = {"tool": "stme", "version": __version__, "command": command, "config": args_echo}
    _write_json(os.path.join(outdir, "metadata.json"), payload, sort_keys=True)


# Cells that _cells turns into Python objects at a time: bounds the memory
# that writing a large events x locations table takes.
_CHUNK_CELLS = 1 << 14


def _cells(event_ids, location_ids, values):
    """(event id, location id, value) for every non-NaN cell of an events x
    locations table, row by row, converted a block of rows at a time."""
    location_ids = np.asarray(location_ids)
    step = max(1, _CHUNK_CELLS // max(1, values.shape[1]))
    for start in range(0, len(values), step):
        block = values[start : start + step]
        rows, cols = np.nonzero(~np.isnan(block))
        yield from zip(
            event_ids[start + rows].tolist(), location_ids[cols].tolist(),
            block[rows, cols].tolist(),
        )


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r} (use one of {', '.join(states)})")
    return states[text.lower()]


class Option:
    """One row of the option table: the flag and/or the config key that set
    the option, the parser of one flag argument or config item, the commands
    that take it, its default or whether it is required (True, or a test of
    the command's other settings), and any further `add_argument` keywords.
    A list option (`nargs` or `action="append"`) splits a config value on
    commas and spaces."""

    def __init__(self, flag, section, key, type, commands, default=None, required=False, **kwargs):
        self.flag, self.section, self.key, self.type = flag, section, key, type
        self.commands, self.default, self.required = commands, default, required
        self.kwargs = kwargs

    @property
    def is_list(self) -> bool:
        return "nargs" in self.kwargs or self.kwargs.get("action") == "append"


def _fits_a_tail(s) -> bool:
    """False only for return-values with the EMPIRICAL estimator alone."""
    return set(s[None].get("estimator", ())) != {"EMPIRICAL"}


_CATALOG = ("stm", "fit", "return-values", "diagnostics", "experiment")
_SYNTH, _RV, _DIAG, _EXP = ("synth",), ("return-values",), ("diagnostics",), ("experiment",)
_METHODS = ["MLE", "PWM"]

# Every option of every command. A flag wins over its config key, which wins
# over the default. `--location-ids` sets both the region and the analysed
# locations; `[analysis] location_ids` only the latter.
_OPTIONS = (
    Option("--out", "output", "dir", str, _SYNTH + _CATALOG, required=True,
           help="output directory"),
    Option("--footprints", "input", "footprints", str, _CATALOG, required=True,
           help="footprints CSV"),
    Option("--locations", "input", "locations", str, _CATALOG, required=True,
           help="locations CSV"),
    Option("--duration", "input", "duration_years", float, _CATALOG, required=True,
           help="catalog duration in years"),
    *(Option(f"--{key.replace('_', '-')}", "region", key, float, _CATALOG)
      for key in ("lon_min", "lon_max", "lat_min", "lat_max", "min_depth")),
    Option("--location-ids", "region", "location_ids", int, _CATALOG, nargs="+"),
    Option("--location-ids", "analysis", "location_ids", int, _RV + _EXP, nargs="+"),
    Option("--T", "analysis", "T", float, _RV + _EXP, required=True,
           help="return period, years"),
    Option("--T0", "analysis", "T0", float, _RV,
           help="observation period, years (default: the catalog duration)"),
    Option("--T0", "analysis", "T0", float, _EXP, required=True,
           help="observation period, years"),
    Option("--n", "analysis", "n", int, ("fit",) + _RV, required=_fits_a_tail,
           help="number of largest STM values"),
    Option("--n", "analysis", "n_ladder", int, _EXP, required=True, action="append",
           help="sample-size ladder (repeatable)"),
    Option("--method", None, "method", str.upper, ("fit",) + _RV, ("MLE",),
           action="append", choices=_METHODS),
    Option("--method", None, "method", str.upper, _EXP, ("MLE", "PWM"),
           action="append", choices=_METHODS),
    Option("--estimator", None, "estimator", str.upper, _RV, ("STME",),
           action="append", choices=["STME", "SINGLE", "EMPIRICAL"]),
    Option("--estimator", None, "estimator", str.upper, _EXP, ("STME", "SINGLE"),
           action="append", choices=["STME", "SINGLE"]),
    Option("--band", None, "band", float, _DIAG, 0.90, help="tau confidence band level"),
    Option("--min-stm", None, "min_stm", float, _DIAG,
           help="keep only events with STM above this (m)"),
    Option("--orientation", None, "orientation", float, _DIAG, (0.0, 45.0, 90.0, 135.0),
           action="append", help="transect orientation in degrees (repeatable)"),
    Option("--n-perm", None, "n_perm", int, _DIAG, 999),
    Option("--n-null", None, "n_null", int, _DIAG, 1000),
    Option("--seed", "experiment", "seed", int, _DIAG + _EXP, 0),
    Option("--replicates", "experiment", "replicates", int, _EXP, 100),
    Option("--jobs", "experiment", "jobs", _jobs, _EXP, 1,
           help="parallel workers (results identical for any value)"),
    # a [synth] key left unset keeps the SynthWorldConfig default
    *(Option(flag, "synth", key, float, _SYNTH) for flag, key in (
        (None, "lon_min"), (None, "lon_max"), (None, "lat_min"), (None, "lat_max"),
        ("--spacing", "spacing_deg"), ("--rate", "rate"), ("--years", "duration_years"),
        (None, "direction_mean_deg"), (None, "direction_sd_deg"),
        (None, "intensity_threshold"), (None, "intensity_scale"), (None, "intensity_shape"),
        ("--decay-km", "decay_km"), ("--noise", "noise_sigma_log"))),
    Option("--poisson", "synth", "poisson_counts", _boolean, _SYNTH,
           action="store_const", const=True),
    Option("--seed", "synth", "seed", int, _SYNTH),
)


def load_config(path) -> dict[str, dict[str, str]]:
    """Read an INI config file into {section: {key: text}}, rejecting unknown
    sections and keys. Keys match case-insensitively."""
    schema: dict[str, dict[str, str]] = {}
    for opt in _OPTIONS:
        if opt.section:
            schema.setdefault(opt.section, {})[opt.key.lower()] = opt.key
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    config: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in schema:
            raise UsageError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in schema[section]:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            config.setdefault(section, {})[schema[section][key]] = value
    return config


def _settings(args, config) -> dict[str | None, dict[str, object]]:
    """Every option of `args.command` by config section (None for flag-only
    options) and key: the flag's value, else the config value, else the
    default. A required option that is not given is a usage error."""
    settings: dict[str | None, dict[str, object]] = {}
    missing = []
    for opt in _OPTIONS:
        if args.command not in opt.commands:
            continue
        value = getattr(args, opt.flag[2:].replace("-", "_")) if opt.flag else None
        if value is not None and opt.is_list:
            value = tuple(value)
        text = config.get(opt.section, {}).get(opt.key)
        if value is None and text is not None:
            try:
                value = (tuple(opt.type(t) for t in text.replace(",", " ").split())
                         if opt.is_list else opt.type(text))
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise UsageError(f"config [{opt.section}] {opt.key}: {err}") from None
        if value is None and opt.required:
            missing.append(opt)
        settings.setdefault(opt.section, {})[opt.key] = opt.default if value is None else value
    for opt in missing:
        if opt.required is True or opt.required(settings):
            raise UsageError(f"{opt.flag} or [{opt.section}] {opt.key} is required")
    return settings


def _region_catalog(s) -> CycloneCatalog:
    inputs = s["input"]
    catalog = load_catalog(inputs["footprints"], inputs["locations"], inputs["duration_years"])
    return select_region(catalog, RegionSpec(**s["region"]))


def _outdir(s) -> str:
    os.makedirs(s["output"]["dir"], exist_ok=True)
    return s["output"]["dir"]


_ESTIMATE_HEADER = ["location_id", "estimator", "method", "n", "T_years", "T0_years", "value_m", "flag"]


def cmd_synth(s) -> int:
    outdir = _outdir(s)
    world = SynthWorldConfig(**{k: v for k, v in s["synth"].items() if v is not None})
    catalog = synth_catalog(world)
    _write_csv(
        os.path.join(outdir, "locations.csv"),
        ["location_id", "lon_deg", "lat_deg", "depth_m"],
        ((loc.id, loc.lon, loc.lat, "" if loc.depth is None else loc.depth) for loc in catalog.locations),
    )
    # grid location ids ascend with the column, so each event's rows come out
    # sorted by location id
    _write_csv(
        os.path.join(outdir, "footprints.csv"),
        ["cyclone_id", "location_id", "max_swh_m"],
        _cells(catalog.event_ids, catalog.location_ids, catalog.swh),
    )
    _write_metadata(outdir, "synth", asdict(world))
    print(f"wrote {len(catalog.event_ids)} events at {len(catalog.locations)} locations "
          f"to {outdir}")
    return 0


def cmd_stm(s) -> int:
    sub = _region_catalog(s)
    outdir = _outdir(s)
    stm = extract_stm(sub)
    exposures = extract_exposures(sub, stm)
    _write_csv(
        os.path.join(outdir, "stm.csv"),
        ["cyclone_id", "stm_m", "argmax_location_id"],
        zip(stm.event_ids.tolist(), stm.values.tolist(), stm.argmax_location_ids.tolist()),
    )
    _write_csv(
        os.path.join(outdir, "exposures.csv"), ["cyclone_id", "location_id", "exposure"],
        _cells(exposures.event_ids, exposures.location_ids, exposures.values),
    )
    _write_metadata(outdir, "stm", {"duration_years": sub.duration_years})
    print(
        f"{len(stm)} events; STM range [{stm.values.min():.3f}, {stm.values.max():.3f}] m"
    )
    return 0


def cmd_fit(s) -> int:
    sub = _region_catalog(s)
    outdir = _outdir(s)
    retained, psi = top_n_events(extract_stm(sub), s["analysis"]["n"])
    reports = []
    for method in s[None]["method"]:
        report = fit_gpd(retained.values, psi, method)
        reports.append(json.loads(report.to_json()))
        print(report.to_json())
    _write_json(os.path.join(outdir, "fit.json"), reports)
    if not all(r["converged"] for r in reports):
        raise EvdError("one or more fits failed to converge")
    return 0


def cmd_return_values(s) -> int:
    sub = _region_catalog(s)
    outdir = _outdir(s)
    analysis, methods, estimators = s["analysis"], s[None]["method"], s[None]["estimator"]
    T, n, T_L = analysis["T"], analysis["n"], sub.duration_years
    T0 = T_L if analysis["T0"] is None else analysis["T0"]
    fitted = [e for e in ("STME", "SINGLE") if e in estimators]
    if fitted and not T > T0 > 0:
        raise UsageError(f"need T > T0 > 0, got T={T}, T0={T0}")
    if "EMPIRICAL" in estimators and not T_L > T > 0:
        raise UsageError(f"need T_L > T > 0, got T_L={T_L}, T={T}")
    targets = analysis_locations(sub, analysis["location_ids"])
    cells = estimate_cells(sub, T, T0, (n,), methods, fitted, targets) if fitted else {}
    rows = []
    for key, result in cells.items():
        value, flag = ("", result) if isinstance(result, str) else (result.value, result.flag)
        rows.append((*key, T, T0, value, flag))
    if "EMPIRICAL" in estimators:
        for loc in targets:
            try:
                e = empirical_rv(location_series(sub, loc), T=T, T_L=T_L)
            except CatalogError as err:
                rows.append((loc, "EMPIRICAL", "", "", T, T_L, "", str(err)))
            else:
                rows.append((e.location_id, e.estimator, e.method, e.n, e.T, e.T0, e.value, e.flag))
    _write_csv(os.path.join(outdir, "estimates.csv"), _ESTIMATE_HEADER, rows)
    _write_metadata(
        outdir, "return-values",
        {"T": T, "T0": T0, "n": n, "methods": methods, "estimators": estimators},
    )
    failed = sum(value == "" for *_, value, flag in rows)
    print(f"wrote {len(rows)} estimates to {outdir} ({failed} without a value)")
    if failed == len(rows):
        raise EvdError("no estimate has a value; see the flag column of estimates.csv")
    return 0


def cmd_diagnostics(s) -> int:
    sub = _region_catalog(s)
    outdir = _outdir(s)
    band, min_stm, seed = s[None]["band"], s[None]["min_stm"], s["experiment"]["seed"]
    stm = extract_stm(sub)
    exposures = extract_exposures(sub, stm)
    if min_stm is not None:
        keep = stm.values > min_stm
        if keep.sum() < 3:
            raise UsageError(f"fewer than 3 STM values above {min_stm} m")
        stm = StmSeries(stm.event_ids[keep], stm.values[keep], stm.argmax_location_ids[keep])
        exposures = ExposureMatrix(
            exposures.event_ids[keep], exposures.location_ids, exposures.values[keep]
        )
    taus, frac = tau_map(stm, exposures, band=band)
    rng = np.random.default_rng(seed)
    loc_by_id = {loc.id: loc for loc in sub.locations}
    lons = np.array([loc_by_id[j].lon for j in stm.argmax_location_ids.tolist()])
    lats = np.array([loc_by_id[j].lat for j in stm.argmax_location_ids.tolist()])
    trend = {}
    for orientation in s[None]["orientation"]:
        trend[str(orientation)] = trend_permutation_test(
            stm, lons, lats, orientation, n_perm=s[None]["n_perm"], rng=rng
        )
    kl = exposure_kl_test(
        exposures, stm, location_id=taus[0].location_id, n_null=s[None]["n_null"], rng=rng
    )
    report = {
        "band": band,
        "tau": [asdict(t) for t in taus],
        "tau_exceedance_fraction": frac,
        "trend_p_values": trend,
        "kl": {
            "location_id": kl.location_id,
            "n_events": kl.n_events,
            "kl_star": kl.kl_star,
            "non_exceedance": kl.non_exceedance,
        },
    }
    probs = list(trend.values())
    if len(probs) >= 5:
        stat, p = ks_uniformity(probs)
        report["trend_ks_uniformity"] = {"statistic": stat, "p_value": p}
    _write_json(os.path.join(outdir, "diagnostics.json"), report)
    _write_csv(
        os.path.join(outdir, "tau_map.csv"),
        ["location_id", "lon_deg", "lat_deg", "tau", "flag"],
        (
            (t.location_id, loc_by_id[t.location_id].lon, loc_by_id[t.location_id].lat, t.tau, t.flag)
            for t in taus
        ),
    )
    _write_metadata(outdir, "diagnostics", {"band": band, "seed": seed, "min_stm": min_stm})
    print(f"tau band exceedance fraction: {frac:.3f}")
    return 0


_REPLICATE_HEADER = ["replicate", "location_id", "estimator", "method", "n", "value_m", "flag"]


def _replicate_path(outdir, index):
    return os.path.join(outdir, "replicates", f"rep_{index:04d}.csv")


def _replicate_rows(result: ReplicateResult):
    for (loc, estimator, method, n), value in sorted(result.estimates.items()):
        yield (result.index, loc, estimator, method, n, value, "")
    for (loc, estimator, method, n), reason in sorted(result.failures.items()):
        yield (result.index, loc, estimator, method, n, "", reason)


def _read_replicate(outdir, index) -> ReplicateResult:
    estimates, failures = {}, {}
    with open(_replicate_path(outdir, index), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["location_id"]), row["estimator"], row["method"], int(row["n"]))
            if row["value_m"]:
                estimates[key] = float(row["value_m"])
            else:
                failures[key] = row["flag"]
    return ReplicateResult(index=index, estimates=estimates, failures=failures)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_manifest(outdir, manifest: dict):
    """Replicate files in `outdir` may be reused only when they were computed
    from the same inputs and experiment settings as this run."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        rep_dir = os.path.join(outdir, "replicates")
        if os.path.isdir(rep_dir) and os.listdir(rep_dir):
            raise UsageError(f"{outdir} holds replicate files but no manifest.json")
        return
    with open(path, encoding="utf-8") as fh:
        old = json.load(fh)
    new = json.loads(json.dumps(manifest))  # tuples -> lists, as read back
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            raise UsageError(
                f"{outdir} holds replicates of another experiment: {key} is "
                f"{old.get(key)!r} there, {new.get(key)!r} now"
            )


def cmd_experiment(s) -> int:
    regional = _region_catalog(s)
    outdir = _outdir(s)
    analysis, experiment = s["analysis"], s["experiment"]
    T, T0, ladder = analysis["T"], analysis["T0"], analysis["n_ladder"]
    methods, estimators = s[None]["method"], s[None]["estimator"]
    replicates, seed = experiment["replicates"], experiment["seed"]
    exp_config = ExperimentConfig(
        T0=T0, T=T, n_ladder=ladder, replicates=replicates, methods=methods,
        estimators=estimators, location_ids=analysis["location_ids"] or None, master_seed=seed,
    )
    manifest = {
        "footprints_sha256": _sha256(s["input"]["footprints"]),
        "locations_sha256": _sha256(s["input"]["locations"]),
        "duration_years": regional.duration_years,
        "region": s["region"],
        **asdict(exp_config),
    }
    _check_manifest(outdir, manifest)
    pending = [i for i in range(replicates) if not os.path.exists(_replicate_path(outdir, i))]
    # run_replicates checks the ids before any write
    fresh = run_replicates(regional, exp_config, pending, experiment["jobs"])
    os.makedirs(os.path.join(outdir, "replicates"), exist_ok=True)
    _write_json(os.path.join(outdir, "manifest.json"), manifest, sort_keys=True)
    done = replicates - len(pending)
    if done:
        print(f"resuming: {done} completed replicates found")
    for result in fresh:
        path = _replicate_path(outdir, result.index)
        _write_csv(path, _REPLICATE_HEADER, _replicate_rows(result))
        print(f"replicate {result.index + 1}/{replicates} done", file=sys.stderr)
    results = [_read_replicate(outdir, i) for i in range(replicates)]

    _write_csv(
        os.path.join(outdir, "results.csv"), _REPLICATE_HEADER,
        (row for result in results for row in _replicate_rows(result)),
    )

    summary = summarize(results)
    _write_csv(
        os.path.join(outdir, "summary.csv"),
        ["location_id", "estimator", "method", "n", "count", "mean", "median",
         "q2.5", "q25", "q75", "q97.5", "n_outliers"],
        (
            (loc, estimator, method, n, c.count, c.mean, c.median, c.q025, c.q25,
             c.q75, c.q975, len(c.outliers))
            for (loc, estimator, method, n), c in sorted(summary.cells.items())
        ),
    )

    metrics_rows = []
    try:
        empirical = [
            empirical_rv(location_series(regional, loc), T=T, T_L=regional.duration_years)
            for loc in analysis_locations(regional, exp_config.location_ids)
        ]
    except CatalogError as err:
        print(f"metrics skipped: {err}", file=sys.stderr)
    else:
        with warnings.catch_warnings(record=True) as skipped:
            warnings.simplefilter("always")
            metrics_rows = [astuple(m) for m in performance_metrics(summary, empirical)]
        for warning in skipped:
            print(f"metrics row skipped: {warning.message}", file=sys.stderr)
    _write_csv(
        os.path.join(outdir, "metrics.csv"),
        ["estimator", "method", "n", "bias_mean_m", "bias_median_m", "w50_m",
         "width_ratio_u", "n_locations"],
        metrics_rows,
    )
    _write_metadata(
        outdir, "experiment",
        {"T": T, "T0": T0, "n_ladder": ladder, "replicates": replicates,
         "methods": methods, "estimators": estimators, "seed": seed},
    )
    print(f"experiment complete: {replicates} replicates, outputs in {outdir}")
    return 0


_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic cyclone catalog"),
    "stm": (cmd_stm, "extract STM series and exposure matrix"),
    "fit": (cmd_fit, "fit the GPD tail to the STM series"),
    "return-values": (cmd_return_values, "estimate T-year return values"),
    "diagnostics": (cmd_diagnostics, "run STM-E assumption diagnostics"),
    "experiment": (cmd_experiment, "run the resampling experiment"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stme",
        description="Regional return-value estimation for cyclone-induced SWH",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="config file (flat key-value sections)")
        added = set()
        for opt in _OPTIONS:
            if opt.flag and command in opt.commands and opt.flag not in added:
                added.add(opt.flag)
                typed = {} if opt.kwargs.get("action") == "store_const" else {"type": opt.type}
                p.add_argument(opt.flag, **typed, **opt.kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(_settings(args, config))
    except (UsageError, CatalogError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (EvdError, DiagnosticsError, RuntimeError) as err:
        print(f"compute error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
