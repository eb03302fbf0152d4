"""Command-line interface.

Subcommands: synth, stm, fit, return-values, diagnostics, experiment.
Exit codes: 0 success, 1 compute failure (return-values: no estimate at all),
2 usage/validation error, including a number that is not finite.
All outputs go to the --out directory; randomized commands take --seed and
are reproducible from it (independently of --jobs).
Each option is declared once, in `_OPTIONS`, which builds both the argument
parser and the config-file schema.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict, astuple, replace

import numpy as np

from . import __version__, diagnostics
from .catalog import (
    CatalogError,
    CycloneCatalog,
    RegionSpec,
    _csv_rows,
    _parse,
    extract_exposures,
    extract_stm,
    load_catalog,
    select_region,
    top_n_events,
)
from .diagnostics import (
    DiagnosticsError,
    check_band,
    check_sample_sizes,
    exposure_profiles,
    kl_profile_test,
    ks_uniformity,
    tau_map,
    trend_permutation_test,
)
from .evd import METHODS, MIN_TAIL_N, EvdError, fit_gpd
from .experiments import (
    ESTIMATORS,
    CellTable,
    ExperimentConfig,
    SynthWorldConfig,
    analysis_locations,
    cell_keys,
    empirical_estimates,
    estimate_cells,
    performance_metrics,
    run_replicates,
    stack_cells,
    summarize,
    synth_catalog,
)


class UsageError(ValueError):
    """Invalid configuration or input; maps to exit code 2."""


# Characters that make the csv module quote a field (QUOTE_MINIMAL).
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _conversion(column) -> tuple[str, list]:
    """The printf conversion of a column and the values it takes: an integer
    array through %d, a float64 array without NaN through %.10g, anything
    else as text (a float through .10g, NaN as "", the rest through str),
    quoted as csv.writer quotes it."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return "%d", column.tolist()
    if isinstance(column, np.ndarray) and column.dtype == np.float64 and not np.isnan(column).any():
        return "%.10g", column.tolist()
    text = ["" if v != v else format(v, ".10g") if isinstance(v, float) else str(v)
            for v in np.asarray(column, dtype=object).tolist()]
    if _NEEDS_QUOTES.search("".join(text)):
        text = ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in text]
    return "%s", text


def _block_text(block) -> str:
    """The CSV lines of a block of equal-length columns, formatted with one
    printf template repeated once per row."""
    conversions = [_conversion(column) for column in block]
    if not conversions:
        return ""
    formats, columns = zip(*conversions)
    if len(columns) == 1:  # csv.writer quotes a row of one empty field
        columns = (['""' if v == "" else v for v in columns[0]],)
    template = ",".join(formats) + "\r\n"
    return template * len(columns[0]) % tuple(itertools.chain.from_iterable(zip(*columns)))


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


def _write_csv(path, header, blocks):
    """Write `header` to `path`, then the rows of each block of `blocks`: a
    block is a sequence of equal-length columns. The bytes are those that
    csv.writer gives for the text of each column, CRLF line ends included."""
    with _replacing(path) as fh:
        fh.write(_block_text([[name] for name in header]))
        for block in blocks:
            fh.write(_block_text(block))


def _write_json(path, payload, sort_keys=False):
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _write_metadata(outdir, command, args_echo):
    payload = {"tool": "stme", "version": __version__, "command": command, "config": args_echo}
    _write_json(os.path.join(outdir, "metadata.json"), payload, sort_keys=True)


# Cells that _cells gives at a time: bounds the memory that writing a large
# events x locations table takes.
_CHUNK_CELLS = 1 << 12


def _cells(event_ids, location_ids, values):
    """The (event id, location id, value) columns of every non-NaN cell of an
    events x locations table, row by row, in blocks of whole rows of about
    _CHUNK_CELLS cells."""
    location_ids = np.asarray(location_ids)
    step = max(1, _CHUNK_CELLS // max(1, values.shape[1]))
    for start in range(0, len(values), step):
        block = values[start : start + step]
        rows, cols = np.nonzero(~np.isnan(block))
        yield event_ids[start + rows], location_ids[cols], block[rows, cols]


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def finite(text: str) -> float:
    """A finite float; argparse names the type `finite` in its messages."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


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
    Option("--duration", "input", "duration_years", finite, _CATALOG, required=True,
           help="catalog duration in years"),
    *(Option(f"--{key.replace('_', '-')}", "region", key, finite, _CATALOG)
      for key in ("lon_min", "lon_max", "lat_min", "lat_max", "min_depth")),
    Option("--location-ids", "region", "location_ids", int, _CATALOG, nargs="+"),
    Option("--location-ids", "analysis", "location_ids", int, _RV + _EXP, nargs="+"),
    Option("--T", "analysis", "T", finite, _RV + _EXP, required=True,
           help="return period, years"),
    Option("--T0", "analysis", "T0", finite, _RV,
           help="observation period, years (default: the catalog duration)"),
    Option("--T0", "analysis", "T0", finite, _EXP, required=True,
           help="observation period, years"),
    Option("--n", "analysis", "n", int, ("fit",) + _RV, required=_fits_a_tail,
           help="number of largest STM values"),
    Option("--n", "analysis", "n_ladder", int, _EXP, required=True, action="append",
           help="sample-size ladder (repeatable)"),
    Option("--method", None, "method", str.upper, ("fit",) + _RV, METHODS[:1],
           action="append", choices=METHODS),
    Option("--method", None, "method", str.upper, _EXP, METHODS,
           action="append", choices=METHODS),
    Option("--estimator", None, "estimator", str.upper, _RV, ESTIMATORS[:1],
           action="append", choices=(*ESTIMATORS, "EMPIRICAL")),
    Option("--estimator", None, "estimator", str.upper, _EXP, ESTIMATORS,
           action="append", choices=ESTIMATORS),
    Option("--band", None, "band", finite, _DIAG, 0.90, help="tau confidence band level"),
    Option("--min-stm", None, "min_stm", finite, _DIAG,
           help="keep only events with STM above this (m)"),
    Option("--orientation", None, "orientation", finite, _DIAG, (0.0, 45.0, 90.0, 135.0),
           action="append", help="transect orientation in degrees (repeatable)"),
    Option("--n-perm", None, "n_perm", int, _DIAG, 999),
    Option("--n-null", None, "n_null", int, _DIAG, 1000),
    Option("--seed", "experiment", "seed", _seed, _DIAG + _EXP, 0),
    Option("--replicates", "experiment", "replicates", int, _EXP, 100),
    Option("--jobs", "experiment", "jobs", _jobs, _EXP, 1,
           help="parallel workers (results identical for any value)"),
    # a [synth] key left unset keeps the SynthWorldConfig default
    *(Option(flag, "synth", key, finite, _SYNTH) for flag, key in (
        (None, "lon_min"), (None, "lon_max"), (None, "lat_min"), (None, "lat_max"),
        ("--spacing", "spacing_deg"), ("--rate", "rate"), ("--years", "duration_years"),
        (None, "direction_mean_deg"), (None, "direction_sd_deg"),
        (None, "intensity_threshold"), (None, "intensity_scale"), (None, "intensity_shape"),
        ("--decay-km", "decay_km"), ("--noise", "noise_sigma_log"))),
    Option("--poisson", "synth", "poisson_counts", _boolean, _SYNTH,
           action="store_const", const=True),
    Option("--seed", "synth", "seed", _seed, _SYNTH),
)


def _config_error(path, err: configparser.Error) -> UsageError:
    """One of the four ConfigParser.read_string errors as a usage error naming the line."""
    if isinstance(err, configparser.MissingSectionHeaderError):
        return UsageError(f"{path}:{err.lineno}: no [section] header before {err.line.strip()!r}")
    if isinstance(err, configparser.DuplicateSectionError):
        return UsageError(f"{path}:{err.lineno}: section [{err.section}] repeated")
    if isinstance(err, configparser.DuplicateOptionError):
        return UsageError(f"{path}:{err.lineno}: key {err.option!r} repeated in [{err.section}]")
    return UsageError(f"{path}:{err.errors[0][0]}: neither a [section] nor a key = value")


def load_config(path) -> dict[str, dict[str, str]]:
    """Read a UTF-8 INI config file into {section: {key: text}}, rejecting
    unknown sections and keys. Keys match case-insensitively; values are
    read as they are, without % interpolation. [DEFAULT] is an ordinary
    section, and so an unknown one: it sets no defaults."""
    schema: dict[str, dict[str, str]] = {}
    for opt in _OPTIONS:
        if opt.section:
            schema.setdefault(opt.section, {})[opt.key.lower()] = opt.key
    with open(path, "rb") as fh:
        data = fh.read()
    parser = configparser.ConfigParser(interpolation=None, default_section="\0")
    try:
        parser.read_string(data.decode("utf-8"), source=str(path))
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise UsageError(f"{path}:{line}: not UTF-8 text") from None
    except configparser.Error as err:
        raise _config_error(path, err) from None
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
    world = SynthWorldConfig(**{k: v for k, v in s["synth"].items() if v is not None})
    catalog = synth_catalog(world)
    outdir = _outdir(s)
    _write_csv(
        os.path.join(outdir, "locations.csv"),
        ["location_id", "lon_deg", "lat_deg", "depth_m"],
        [zip(*((loc.id, loc.lon, loc.lat, "" if loc.depth is None else loc.depth)
               for loc in catalog.locations))],
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
        [(stm.event_ids, stm.values, stm.argmax_location_ids)],
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


def _check_tail_n(n: int):
    if n < MIN_TAIL_N:
        raise UsageError(f"n must be >= {MIN_TAIL_N} for a tail fit, got {n}")


def cmd_fit(s) -> int:
    n = s["analysis"]["n"]
    _check_tail_n(n)
    retained, psi = top_n_events(extract_stm(_region_catalog(s)), n)
    outdir = _outdir(s)
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
    analysis, methods, estimators = s["analysis"], s[None]["method"], s[None]["estimator"]
    fitted = [e for e in ESTIMATORS if e in estimators]
    T, n, T_L = analysis["T"], analysis["n"], s["input"]["duration_years"]
    T0 = T_L if analysis["T0"] is None else analysis["T0"]
    if fitted:
        _check_tail_n(n)
        if not T > T0 > 0:
            raise UsageError(f"need T > T0 > 0, got T={T}, T0={T0}")
    sub = _region_catalog(s)
    targets = analysis_locations(sub, analysis["location_ids"])
    empirical = empirical_estimates(sub, T, targets) if "EMPIRICAL" in estimators else {}
    keys, (values,), (flags,) = estimate_cells(sub, T, T0, (n,), methods, fitted, targets)
    outdir = _outdir(s)
    _write_csv(os.path.join(outdir, "estimates.csv"), _ESTIMATE_HEADER, [
        (*zip(*keys), [T] * len(keys), [T0] * len(keys), values, flags),
        zip(*((loc, "EMPIRICAL", "", "", T, T_L, "", e) if isinstance(e, str)
              else (loc, "EMPIRICAL", "", e.n, T, T_L, e.value, e.flag)
              for loc, e in empirical.items()))])
    _write_metadata(
        outdir, "return-values",
        {"T": T, "T0": T0, "n": n, "methods": methods, "estimators": estimators},
    )
    rows = len(keys) + len(empirical)
    failed = int(np.isnan(values).sum()) + sum(isinstance(e, str) for e in empirical.values())
    print(f"wrote {rows} estimates to {outdir} ({failed} without a value)")
    if failed == rows:
        raise EvdError("no estimate has a value; see the flag column of estimates.csv")
    return 0


def _diagnostics_inputs(s):
    """The STM series and exposure matrix of the region catalog, events with
    an STM above --min-stm only when it is given, and the region's locations
    by id. The footprint table is released on return: from here on the
    exposure matrix is the one events x locations table held."""
    sub = _region_catalog(s)
    min_stm = s[None]["min_stm"]
    if min_stm is not None:
        keep = extract_stm(sub).values > min_stm
        if keep.sum() < (least := diagnostics.MIN_TREND_EVENTS):
            raise UsageError(f"fewer than {least} STM values above {min_stm} m")
        sub = replace(sub, event_ids=sub.event_ids[keep], swh=sub.swh[keep])
    stm = extract_stm(sub)
    return stm, extract_exposures(sub, stm), {loc.id: loc for loc in sub.locations}


def cmd_diagnostics(s) -> int:
    band, min_stm, seed = s[None]["band"], s[None]["min_stm"], s["experiment"]["seed"]
    n_perm, n_null = s[None]["n_perm"], s[None]["n_null"]
    check_band(band)
    check_sample_sizes(n_perm, n_null)
    stm, exposures, loc_by_id = _diagnostics_inputs(s)
    taus, frac = tau_map(stm, exposures, band=band)
    profiles = exposure_profiles(exposures.values)
    del exposures  # released before numpy.random (and OpenSSL) loads
    rng = np.random.default_rng(seed)
    lons = np.array([loc_by_id[j].lon for j in stm.argmax_location_ids.tolist()])
    lats = np.array([loc_by_id[j].lat for j in stm.argmax_location_ids.tolist()])
    trend = {str(o): trend_permutation_test(stm, lons, lats, o, n_perm=n_perm, rng=rng)
             for o in s[None]["orientation"]}
    kl = kl_profile_test(profiles, stm, taus[0].location_id, n_null=n_null, rng=rng)
    report = {
        "band": band,
        "tau": [asdict(t) for t in taus],
        "tau_exceedance_fraction": frac,
        "trend_p_values": trend,
        "kl": {k: v for k, v in vars(kl).items() if k != "null_sample"},
    }
    probs = list(trend.values())
    if len(probs) >= diagnostics.MIN_KS_PROBABILITIES:
        stat, p = ks_uniformity(probs)
        report["trend_ks_uniformity"] = {"statistic": stat, "p_value": p}
    outdir = _outdir(s)
    _write_json(os.path.join(outdir, "diagnostics.json"), report)
    _write_csv(
        os.path.join(outdir, "tau_map.csv"),
        ["location_id", "lon_deg", "lat_deg", "tau", "flag"],
        [zip(*((t.location_id, loc_by_id[t.location_id].lon, loc_by_id[t.location_id].lat,
                t.tau, t.flag) for t in taus))],
    )
    _write_metadata(outdir, "diagnostics", {"band": band, "seed": seed, "min_stm": min_stm})
    print(f"tau band exceedance fraction: {frac:.3f}")
    return 0


_REPLICATE_HEADER = ["replicate", "location_id", "estimator", "method", "n", "value_m", "flag"]


def _replicate_path(outdir, index):
    return os.path.join(outdir, "replicates", f"rep_{index:04d}.csv")


def _replicate_blocks(indices, table: CellTable):
    """The rows of each replicate, a block each, replicate indices[r] being
    row r of `table`: its cells with a value, then those without, each in
    key order."""
    by_key = sorted(range(len(table.keys)), key=table.keys.__getitem__)
    columns = [np.array(column) for column in zip(*(table.keys[c] for c in by_key))]
    for index, values, flags in zip(indices, table.values[:, by_key], table.flags[:, by_key]):
        order = np.argsort(np.isnan(values), kind="stable")
        yield [index] * len(order), *(c[order] for c in columns), values[order], flags[order]


def _read_replicate(outdir, index, keys) -> CellTable:
    """Replicate `index` from its file, which must hold one row for each of
    `keys` and no other row, as a one-row table."""
    path = _replicate_path(outdir, index)
    position = {key: c for c, key in enumerate(keys)}
    values, reasons = np.full(len(keys), np.nan), np.full(len(keys), None, dtype=object)
    with _csv_rows(path, set(_REPLICATE_HEADER)) as rows:
        for row in rows:
            if None in row or None in row.values():
                raise CatalogError(f"expected {len(_REPLICATE_HEADER)} fields")
            if _parse(int, row["replicate"], "replicate") != index:
                raise CatalogError(f"row of replicate {row['replicate']} in the file of {index}")
            key = (_parse(int, row["location_id"], "location_id"), row["estimator"],
                   row["method"], _parse(int, row["n"], "n"))
            c = position.get(key)
            if c is None or reasons[c] is not None:
                raise CatalogError(f"cell {key} is not in this experiment or repeated")
            values[c] = _parse(finite, row["value_m"], "value_m") if row["value_m"] else np.nan
            reasons[c] = "" if row["value_m"] else row["flag"]
    missing = [key for key, reason in zip(keys, reasons) if reason is None]
    if missing:
        raise CatalogError(f"{path}: no row for {len(missing)} cells, such as {min(missing)}")
    return CellTable(keys, values[None], reasons[None])


def _sha256(*paths) -> str:
    """The SHA-256 of the files' bytes, concatenated in the order given."""
    # CPython's built-in SHA-256 first: hashlib loads OpenSSL (libcrypto),
    # +3.6 MB of peak RSS in a bare interpreter, which the --jobs coordinator
    # would load for the manifest digests alone
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    digest = sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
    return digest.hexdigest()


def _code_version() -> dict:
    """What identifies the code that computes replicates: the stme version,
    the SHA-256 of the package's .py sources in sorted name order, and the
    numpy version, whose Generator streams may change between releases."""
    package = os.path.dirname(os.path.abspath(__file__))
    sources = sorted(os.path.join(package, name) for name in os.listdir(package)
                     if name.endswith(".py"))
    return {"numpy": np.__version__, "stme": __version__, "stme_sources_sha256": _sha256(*sources)}


def _check_manifest(outdir, manifest: dict):
    """Replicate files in `outdir` may be reused only when they were computed
    from the same inputs and experiment settings, by the same code, as this
    run."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        rep_dir = os.path.join(outdir, "replicates")
        if os.path.isdir(rep_dir) and os.listdir(rep_dir):
            raise UsageError(f"{outdir} holds replicate files but no manifest.json")
        return
    with open(path, encoding="utf-8") as fh:
        try:
            old = json.load(fh)
        except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
            raise UsageError(f"{path}: unreadable manifest: {err}") from None
    if not isinstance(old, dict):
        raise UsageError(f"{path}: unreadable manifest: not a JSON object")
    new = json.loads(json.dumps(manifest))  # tuples -> lists, as read back
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            raise UsageError(
                f"{outdir} holds replicates of another experiment: {key} is "
                f"{old.get(key)!r} there, {new.get(key)!r} now"
            )


def cmd_experiment(s) -> int:
    analysis, experiment = s["analysis"], s["experiment"]
    config = ExperimentConfig(
        T0=analysis["T0"], T=analysis["T"], n_ladder=analysis["n_ladder"],
        replicates=experiment["replicates"], methods=s[None]["method"],
        estimators=s[None]["estimator"], location_ids=analysis["location_ids"] or None,
        master_seed=experiment["seed"],
    )
    regional = _region_catalog(s)
    run_replicates(regional, config, ())  # checks the ids and period size before --out is made
    outdir, replicates = s["output"]["dir"], config.replicates
    manifest = {
        "footprints_sha256": _sha256(s["input"]["footprints"]),
        "locations_sha256": _sha256(s["input"]["locations"]),
        "duration_years": regional.duration_years,
        "region": asdict(RegionSpec(**s["region"])),
        **asdict(config),
        "code": _code_version(),
    }
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, ".lock"), "a") as lock:  # held to the end of the run
        try:  # by this process and its forks; without fcntl (Windows), by none
            import fcntl
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:
            pass
        except BlockingIOError:
            raise UsageError(f"{lock.name} is held by another run") from None
        _check_manifest(outdir, manifest)
        pending = [i for i in range(replicates) if not os.path.exists(_replicate_path(outdir, i))]
        os.makedirs(os.path.join(outdir, "replicates"), exist_ok=True)
        _write_json(os.path.join(outdir, "manifest.json"), manifest, sort_keys=True)
        if len(pending) < replicates:
            print(f"resuming: {replicates - len(pending)} completed replicates found")
        for chunk, table in run_replicates(regional, config, pending, experiment["jobs"]):
            for index, block in zip(chunk, _replicate_blocks(chunk, table)):
                _write_csv(_replicate_path(outdir, index), _REPLICATE_HEADER, [block])
                print(f"replicate {index + 1}/{replicates} done", file=sys.stderr)
        locations = analysis_locations(regional, config.location_ids)
        keys = tuple(sorted(cell_keys(locations, config.n_ladder, config.methods,
                                      config.estimators)))
        results = stack_cells(_read_replicate(outdir, i, keys) for i in range(replicates))

        _write_csv(os.path.join(outdir, "results.csv"), _REPLICATE_HEADER,
                   _replicate_blocks(range(replicates), results))

        summary = summarize(results)
        _write_csv(
            os.path.join(outdir, "summary.csv"),
            ["location_id", "estimator", "method", "n", "count", "mean", "median",
             "q2.5", "q25", "q75", "q97.5", "n_outliers"],
            [zip(*((loc, estimator, method, n, c.count, c.mean, c.median, c.q025, c.q25, c.q75,
                    c.q975, len(c.outliers))
                   for (loc, estimator, method, n), c in sorted(summary.cells.items())))],
        )

        metrics_rows = []
        try:
            empirical = empirical_estimates(regional, config.T, locations)
        except CatalogError as err:
            print(f"metrics skipped: {err}", file=sys.stderr)
        else:
            for reason in (e for e in empirical.values() if isinstance(e, str)):
                print(f"metrics location skipped: {reason}", file=sys.stderr)
            empirical = [e for e in empirical.values() if not isinstance(e, str)]
            with warnings.catch_warnings(record=True) as skipped:
                warnings.simplefilter("always")
                metrics_rows = [astuple(m) for m in performance_metrics(summary, empirical)]
            for warning in skipped:
                print(f"metrics row skipped: {warning.message}", file=sys.stderr)
        _write_csv(
            os.path.join(outdir, "metrics.csv"),
            ["estimator", "method", "n", "bias_mean_m", "bias_median_m", "w50_m",
             "width_ratio_u", "n_locations"],
            [zip(*metrics_rows)],
        )
        _write_metadata(outdir, "experiment", asdict(config))
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
    except (UsageError, CatalogError, DiagnosticsError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # an input too large for what the size checks foresee
        print(f"error: out of memory: {err}".removesuffix(": "), file=sys.stderr)
        return 2
    except (EvdError, RuntimeError) as err:
        print(f"compute error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
