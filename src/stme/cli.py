"""Command-line interface.

Subcommands: synth, stm, fit, return-values, diagnostics, experiment.
Exit codes: 0 success, 1 compute failure (return-values: no estimate at all),
2 usage/validation error.
All outputs go to the --out directory; randomized commands take --seed and
are reproducible from it (independently of --jobs).
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
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from .baselines import empirical_rv, location_series
from .catalog import (
    CatalogError,
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


def _cells(event_ids, location_ids, values):
    """(event id, location id, value) for every non-NaN cell of an events x
    locations table, row by row."""
    rows, cols = np.nonzero(~np.isnan(values))
    return zip(
        event_ids[rows].tolist(), np.asarray(location_ids)[cols].tolist(),
        values[rows, cols].tolist(),
    )


# Config file: flat key-value sections mirroring module names; CLI flags
# override config values; unknown keys rejected.
_CONFIG_SCHEMA = {
    "input": {"footprints", "locations", "duration_years"},
    "region": {"lon_min", "lon_max", "lat_min", "lat_max", "location_ids", "min_depth"},
    "analysis": {"T", "T0", "n", "n_ladder", "location_ids"},
    "experiment": {"replicates", "seed", "jobs"},
    "synth": {
        "lon_min", "lon_max", "lat_min", "lat_max", "spacing_deg", "rate",
        "duration_years", "direction_mean_deg", "direction_sd_deg",
        "intensity_threshold", "intensity_scale", "intensity_shape",
        "decay_km", "noise_sigma_log", "poisson_counts", "seed",
    },
    "output": {"dir"},
}


def load_config(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    config: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise UsageError(f"unknown config section [{section}]")
        allowed = _CONFIG_SCHEMA[section]
        for key, value in parser.items(section):
            if key not in allowed:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            config.setdefault(section, {})[key] = value
    return config


def _resolve(args, config, section, key, cast=str, default=None):
    """CLI flag wins over config file value; both fall back to default."""
    attr = key.replace("-", "_")
    value = getattr(args, attr, None)
    if value is not None:
        return value
    raw = config.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as err:
        raise UsageError(f"config [{section}] {key}: {err}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _region_from(args, config) -> RegionSpec:
    return RegionSpec(
        lon_min=_resolve(args, config, "region", "lon_min", float),
        lon_max=_resolve(args, config, "region", "lon_max", float),
        lat_min=_resolve(args, config, "region", "lat_min", float),
        lat_max=_resolve(args, config, "region", "lat_max", float),
        location_ids=_resolve(args, config, "region", "location_ids", _parse_int_list),
        min_depth=_resolve(args, config, "region", "min_depth", float),
    )


def _catalog_from(args, config):
    footprints = _resolve(args, config, "input", "footprints")
    locations = _resolve(args, config, "input", "locations")
    duration = _resolve(args, config, "input", "duration_years", float)
    if footprints is None or locations is None:
        raise UsageError("footprints and locations files are required")
    if duration is None:
        raise UsageError("catalog duration (--duration years) is required")
    return load_catalog(footprints, locations, duration)


def _outdir(args, config) -> str:
    outdir = _resolve(args, config, "output", "dir")
    if outdir is None:
        raise UsageError("output directory (--out) is required")
    os.makedirs(outdir, exist_ok=True)
    return outdir


_ESTIMATE_HEADER = ["location_id", "estimator", "method", "n", "T_years", "T0_years", "value_m", "flag"]


def cmd_synth(args, config) -> int:
    outdir = _outdir(args, config)
    casts = {"seed": int, "poisson_counts": lambda raw: raw.lower() in ("1", "true", "yes")}
    fields = {}
    for key in _CONFIG_SCHEMA["synth"]:
        value = _resolve(args, config, "synth", key, casts.get(key, float))
        if value is not None:
            fields[key] = value
    world = SynthWorldConfig(**fields)
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


def cmd_stm(args, config) -> int:
    catalog = _catalog_from(args, config)
    sub = select_region(catalog, _region_from(args, config))
    outdir = _outdir(args, config)
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


def cmd_fit(args, config) -> int:
    catalog = _catalog_from(args, config)
    sub = select_region(catalog, _region_from(args, config))
    outdir = _outdir(args, config)
    n = _resolve(args, config, "analysis", "n", int)
    if n is None:
        raise UsageError("sample size --n is required")
    stm = extract_stm(sub)
    retained, psi = top_n_events(stm, n)
    reports = []
    for method in args.method or ["MLE"]:
        report = fit_gpd(retained.values, psi, method)
        reports.append(json.loads(report.to_json()))
        print(report.to_json())
    _write_json(os.path.join(outdir, "fit.json"), reports)
    if not all(r["converged"] for r in reports):
        raise EvdError("one or more fits failed to converge")
    return 0


def cmd_return_values(args, config) -> int:
    catalog = _catalog_from(args, config)
    sub = select_region(catalog, _region_from(args, config))
    outdir = _outdir(args, config)
    T = _resolve(args, config, "analysis", "T", float)
    n = _resolve(args, config, "analysis", "n", int)
    if T is None or n is None:
        raise UsageError("--T and --n are required")
    T0 = _resolve(args, config, "analysis", "T0", float, default=catalog.duration_years)
    methods = args.method or ["MLE"]
    estimators = args.estimator or ["STME"]
    fitted = [e for e in ("STME", "SINGLE") if e in estimators]
    if fitted and not T > T0 > 0:
        raise UsageError(f"need T > T0 > 0, got T={T}, T0={T0}")
    loc_ids = _resolve(args, config, "analysis", "location_ids", _parse_int_list)
    targets = analysis_locations(sub, loc_ids)
    cells = estimate_cells(sub, T, T0, (n,), methods, fitted, targets) if fitted else {}
    rows = []
    for key, result in cells.items():
        value, flag = ("", result) if isinstance(result, str) else (result.value, result.flag)
        rows.append((*key, T, T0, value, flag))
    if "EMPIRICAL" in estimators:
        for loc in targets:
            e = empirical_rv(location_series(sub, loc), T=T, T_L=catalog.duration_years)
            rows.append((e.location_id, e.estimator, e.method, e.n, e.T, e.T0, e.value, e.flag))
    _write_csv(os.path.join(outdir, "estimates.csv"), _ESTIMATE_HEADER, rows)
    _write_metadata(
        outdir, "return-values",
        {"T": T, "T0": T0, "n": n, "methods": methods, "estimators": estimators},
    )
    failed = sum(isinstance(result, str) for result in cells.values())
    print(f"wrote {len(rows)} estimates to {outdir} ({failed} without a value)")
    if failed == len(rows):
        raise EvdError("no estimate has a value; see the flag column of estimates.csv")
    return 0


def cmd_diagnostics(args, config) -> int:
    catalog = _catalog_from(args, config)
    sub = select_region(catalog, _region_from(args, config))
    outdir = _outdir(args, config)
    band = args.band
    seed = _resolve(args, config, "experiment", "seed", int, default=0)
    stm = extract_stm(sub)
    exposures = extract_exposures(sub, stm)
    if args.min_stm is not None:
        keep = stm.values > args.min_stm
        if keep.sum() < 3:
            raise UsageError(f"fewer than 3 STM values above {args.min_stm} m")
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
    for orientation in args.orientation or [0.0, 45.0, 90.0, 135.0]:
        trend[str(orientation)] = trend_permutation_test(
            stm, lons, lats, orientation, n_perm=args.n_perm, rng=rng
        )
    kl = exposure_kl_test(
        exposures, stm, location_id=taus[0].location_id, n_null=args.n_null, rng=rng
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
    _write_metadata(outdir, "diagnostics", {"band": band, "seed": seed, "min_stm": args.min_stm})
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


def cmd_experiment(args, config) -> int:
    catalog = _catalog_from(args, config)
    region = _region_from(args, config)
    outdir = _outdir(args, config)
    T = _resolve(args, config, "analysis", "T", float)
    T0 = _resolve(args, config, "analysis", "T0", float)
    ladder = tuple(args.n) if args.n else _resolve(args, config, "analysis", "n_ladder", _parse_int_list)
    if T is None or T0 is None or not ladder:
        raise UsageError("--T, --T0 and at least one --n are required")
    methods = tuple(args.method or ["MLE", "PWM"])
    estimators = tuple(args.estimator or ["STME", "SINGLE"])
    replicates = _resolve(args, config, "experiment", "replicates", int, default=100)
    seed = _resolve(args, config, "experiment", "seed", int, default=0)
    jobs = args.jobs or _resolve(args, config, "experiment", "jobs", int, default=1)
    loc_ids = _resolve(args, config, "analysis", "location_ids", _parse_int_list)
    loc_ids = tuple(loc_ids) if loc_ids else None
    exp_config = ExperimentConfig(
        T0=T0, T=T, n_ladder=ladder, replicates=replicates, methods=methods,
        estimators=estimators, location_ids=loc_ids, master_seed=seed,
    )
    regional = select_region(catalog, region)
    manifest = {
        "footprints_sha256": _sha256(_resolve(args, config, "input", "footprints")),
        "locations_sha256": _sha256(_resolve(args, config, "input", "locations")),
        "duration_years": catalog.duration_years,
        "region": asdict(region),
        **asdict(exp_config),
    }
    _check_manifest(outdir, manifest)
    pending = [i for i in range(replicates) if not os.path.exists(_replicate_path(outdir, i))]
    fresh = run_replicates(regional, exp_config, pending, jobs)  # checks ids before any write
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
            for loc in analysis_locations(regional, loc_ids)
        ]
        metrics_rows = [astuple(m) for m in performance_metrics(summary, empirical)]
    except CatalogError as err:
        print(f"metrics skipped: {err}", file=sys.stderr)
    _write_csv(
        os.path.join(outdir, "metrics.csv"),
        ["estimator", "method", "n", "bias_mean_m", "bias_median_m", "w50_m",
         "width_ratio_u", "n_locations"],
        metrics_rows,
    )
    _write_metadata(
        outdir, "experiment",
        {"T": T, "T0": T0, "n_ladder": list(ladder), "replicates": replicates,
         "methods": list(methods), "estimators": list(estimators), "seed": seed},
    )
    print(f"experiment complete: {replicates} replicates, outputs in {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stme",
        description="Regional return-value estimation for cyclone-induced SWH",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, catalog=True):
        p.add_argument("--config", help="config file (flat key-value sections)")
        p.add_argument("--out", dest="dir", help="output directory")
        if catalog:
            p.add_argument("--footprints", help="footprints CSV")
            p.add_argument("--locations", help="locations CSV")
            p.add_argument("--duration", dest="duration_years", type=float,
                           help="catalog duration in years")
            p.add_argument("--lon-min", type=float)
            p.add_argument("--lon-max", type=float)
            p.add_argument("--lat-min", type=float)
            p.add_argument("--lat-max", type=float)
            p.add_argument("--min-depth", type=float)
            p.add_argument("--location-ids", dest="location_ids", type=int, nargs="+")

    p = sub.add_parser("synth", help="generate a synthetic cyclone catalog")
    add_common(p, catalog=False)
    p.add_argument("--years", dest="duration_years", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--spacing", dest="spacing_deg", type=float)
    p.add_argument("--decay-km", dest="decay_km", type=float)
    p.add_argument("--noise", dest="noise_sigma_log", type=float)
    p.add_argument("--poisson", dest="poisson_counts", action="store_const", const=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stm", help="extract STM series and exposure matrix")
    add_common(p)
    p.set_defaults(func=cmd_stm)

    p = sub.add_parser("fit", help="fit the GPD tail to the STM series")
    add_common(p)
    p.add_argument("--n", type=int, help="number of largest STM values")
    p.add_argument("--method", action="append", type=str.upper, choices=["MLE", "PWM"])
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("return-values", help="estimate T-year return values")
    add_common(p)
    p.add_argument("--T", dest="T", type=float, help="return period, years")
    p.add_argument("--T0", dest="T0", type=float, help="observation period, years")
    p.add_argument("--n", type=int)
    p.add_argument("--method", action="append", type=str.upper, choices=["MLE", "PWM"])
    p.add_argument("--estimator", action="append", type=str.upper,
                   choices=["STME", "SINGLE", "EMPIRICAL"])
    p.set_defaults(func=cmd_return_values)

    p = sub.add_parser("diagnostics", help="run STM-E assumption diagnostics")
    add_common(p)
    p.add_argument("--band", type=float, default=0.90, help="tau confidence band level")
    p.add_argument("--min-stm", type=float, help="keep only events with STM above this (m)")
    p.add_argument("--orientation", type=float, action="append",
                   help="transect orientation in degrees (repeatable)")
    p.add_argument("--n-perm", type=int, default=999)
    p.add_argument("--n-null", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("experiment", help="run the resampling experiment")
    add_common(p)
    p.add_argument("--T", dest="T", type=float)
    p.add_argument("--T0", dest="T0", type=float)
    p.add_argument("--n", type=int, action="append", help="sample-size ladder (repeatable)")
    p.add_argument("--method", action="append", type=str.upper, choices=["MLE", "PWM"])
    p.add_argument("--estimator", action="append", type=str.upper, choices=["STME", "SINGLE"])
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help="parallel workers (results identical for any value)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except (UsageError, CatalogError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (EvdError, DiagnosticsError, RuntimeError) as err:
        print(f"compute error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
