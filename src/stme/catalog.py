"""Cyclone footprint catalogs: loading, region selection, space-time maxima
and per-location exposures.

A catalog holds one footprint per cyclone event: the maximum significant
wave height (SWH, metres) reached at each location over the lifetime of the
event. The space-time maximum (STM) of an event is the largest footprint
value inside the analysis region; the exposure of a location to the event is
its footprint value expressed as a fraction of the STM.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np


class CatalogError(ValueError):
    """Raised for malformed catalog inputs or invalid catalog operations."""


# Ids are stored as 64-bit integers.
ID_MIN, ID_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Location:
    id: int
    lon: float
    lat: float
    depth: float | None = None

    def __post_init__(self):
        if not ID_MIN <= self.id <= ID_MAX:
            raise CatalogError(f"location id {self.id} outside the 64-bit range")
        if not -180.0 <= self.lon <= 180.0:
            raise CatalogError(f"location {self.id}: lon {self.lon} outside [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise CatalogError(f"location {self.id}: lat {self.lat} outside [-90, 90]")
        if self.depth is not None and not 0.0 <= self.depth < math.inf:
            raise CatalogError(f"location {self.id}: invalid depth {self.depth}")


@dataclass(frozen=True)
class CycloneCatalog:
    """Footprints as an events x locations table.

    swh[i, k] is the maximum SWH (m) of event event_ids[i] at locations[k]
    over the event's lifetime, NaN where the event has no footprint entry.
    Columns keep the order of `locations`; event ids ascend down the rows.
    """

    locations: tuple[Location, ...]
    event_ids: np.ndarray  # int, strictly ascending
    swh: np.ndarray  # float, events x locations
    duration_years: float

    def __post_init__(self):
        event_ids = np.asarray(self.event_ids, dtype=int)
        swh = np.asarray(self.swh, dtype=float)
        object.__setattr__(self, "event_ids", event_ids)
        object.__setattr__(self, "swh", swh)
        if not 0 < self.duration_years < math.inf:
            raise CatalogError(f"duration {self.duration_years} is not positive and finite")
        ids = [loc.id for loc in self.locations]
        object.__setattr__(self, "_column", {j: k for k, j in enumerate(ids)})  # id -> column
        if len(self._column) != len(ids):
            raise CatalogError("duplicate location ids in catalog")
        if swh.shape != (len(event_ids), len(ids)):
            raise CatalogError(
                f"footprint table shape {swh.shape} != "
                f"({len(event_ids)} events, {len(ids)} locations)"
            )
        if np.any(np.diff(event_ids) <= 0):
            raise CatalogError("event ids must be unique and ascending")
        bad = np.isinf(swh) | (swh < 0)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise CatalogError(
                f"event {event_ids[i]}: invalid SWH {swh[i, k]} at location {ids[k]}"
            )
        empty = np.isnan(swh).all(axis=1)
        if empty.any():
            raise CatalogError(f"event {event_ids[empty][0]}: empty footprint")

    @property
    def location_ids(self) -> tuple[int, ...]:
        return tuple(loc.id for loc in self.locations)

    def columns(self, location_ids) -> np.ndarray:
        """The column of `swh` that holds each of `location_ids`, in order."""
        try:
            return np.array([self._column[j] for j in location_ids], dtype=int)
        except KeyError as err:
            raise CatalogError(f"unknown location id {err.args[0]}") from None


@dataclass(frozen=True)
class RegionSpec:
    """Analysis region: bounding box and/or explicit id list, optional depth filter.

    When both a bounding box and an id list are given, a location must satisfy
    both. A region must resolve to at least one catalog location.
    """

    lon_min: float | None = None
    lon_max: float | None = None
    lat_min: float | None = None
    lat_max: float | None = None
    location_ids: tuple[int, ...] | None = None
    min_depth: float | None = None

    def __post_init__(self):
        if self.location_ids is not None:  # each id once, at its first place
            object.__setattr__(self, "location_ids", tuple(dict.fromkeys(self.location_ids)))

    def resolve(self, catalog: CycloneCatalog) -> list[int]:
        wanted = set(self.location_ids) if self.location_ids is not None else None
        missing = (wanted or set()) - set(catalog.location_ids)
        if missing:
            raise CatalogError(f"region locations {sorted(missing)} not in catalog")
        out = [
            loc.id for loc in catalog.locations
            if (wanted is None or loc.id in wanted)
            and (self.lon_min is None or loc.lon >= self.lon_min)
            and (self.lon_max is None or loc.lon <= self.lon_max)
            and (self.lat_min is None or loc.lat >= self.lat_min)
            and (self.lat_max is None or loc.lat <= self.lat_max)
            and (self.min_depth is None or (loc.depth is not None and loc.depth >= self.min_depth))
        ]
        if not out:
            raise CatalogError("region resolves to no catalog location")
        return out


@dataclass(frozen=True)
class StmSeries:
    """Per-event space-time maximum within a region."""

    event_ids: np.ndarray  # int
    values: np.ndarray  # metres
    argmax_location_ids: np.ndarray  # int

    def __post_init__(self):
        object.__setattr__(self, "event_ids", np.asarray(self.event_ids, dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(
            self, "argmax_location_ids", np.asarray(self.argmax_location_ids, dtype=int)
        )
        if not (len(self.event_ids) == len(self.values) == len(self.argmax_location_ids)):
            raise CatalogError("StmSeries arrays must have equal length")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ExposureMatrix:
    """Events x locations exposure fractions; NaN marks absent footprint entries."""

    event_ids: np.ndarray  # int, rows
    location_ids: np.ndarray  # int, columns
    values: np.ndarray  # float in [0,1], NaN where no data

    def __post_init__(self):
        object.__setattr__(self, "event_ids", np.asarray(self.event_ids, dtype=int))
        object.__setattr__(self, "location_ids", np.asarray(self.location_ids, dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.event_ids), len(self.location_ids)):
            raise CatalogError("ExposureMatrix shape mismatch")

    def column(self, location_id: int) -> np.ndarray:
        idx = np.nonzero(self.location_ids == location_id)[0]
        if idx.size == 0:
            raise CatalogError(f"location {location_id} not in exposure matrix")
        return self.values[:, idx[0]]


def _parse(cast, text, what: str):
    try:
        return cast(text)
    except (TypeError, ValueError):  # TypeError: field missing from a short row
        raise CatalogError(f"bad {what} value {text!r}") from None


@contextlib.contextmanager
def _csv_rows(path, columns: set[str]):
    """DictReader over a CSV file whose header has `columns`. A CatalogError
    raised while a row is handled gets the file and line number in front.
    Bytes that are not UTF-8 are kept as escapes, so a field holding one
    fails its parser."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not columns.issubset(reader.fieldnames):
            raise CatalogError(f"{path}: expected header {sorted(columns)}")
        try:
            yield reader
        except (CatalogError, csv.Error) as err:
            raise CatalogError(f"{path}:{reader.line_num}: {err}") from None


# Footprint cells handled at a time: the lines np.loadtxt parses, the table
# cells extract_stm compares. Bounds the memory taken on top of the table.
BLOCK_LINES = 4096
_FOOTPRINT_COLUMNS = ("cyclone_id", "location_id", "max_swh_m")
_FOOTPRINT_DTYPE = np.dtype([("event", np.int64), ("location", np.int64), ("swh", np.float64)])
# The only bytes a block may hold: with nothing else, np.loadtxt splits lines
# and fields as the csv module does, and parses ids and values as int() and
# float() do or rejects them.
_NUMERIC_BYTES = b"0123456789eE.+-,\r\n"


def _footprint_blocks(path, location_ids) -> tuple[np.ndarray, np.ndarray] | None:
    """Event ids and events x locations table of a footprint file whose rows
    are grouped by ascending event id, parsed BLOCK_LINES lines at a time by
    np.loadtxt and checked with numpy.

    Returns None when a block holds anything but numbers, commas and line
    ends, does not parse, or fails a check (unknown location, invalid SWH,
    event ids out of order, a duplicate pair). _footprint_rows then reads the
    file: it gives the same table, or raises the error with its line.
    """
    ids = np.asarray(location_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    # one table and its event ids, grown geometrically so that all copying
    # costs at most about twice the table; no block keeps a table of its own
    events, table = np.empty(0, dtype=np.int64), np.empty((0, len(ids)))
    n_events, n_rows, last = 0, 0, None
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            header = next(csv.reader(fh), [])
        except csv.Error:
            return None
        # a repeated name reads its last column, as in csv.DictReader
        column = {name: k for k, name in enumerate(header)}
        if not set(_FOOTPRINT_COLUMNS) <= column.keys() or not len(ids):
            return None
        usecols = [column[name] for name in _FOOTPRINT_COLUMNS]
        limit = csv.field_size_limit()
        while lines := list(itertools.islice(fh, BLOCK_LINES)):
            text = "".join(lines)
            if len(text) > limit and max(map(len, lines)) > limit:
                return None  # a field the csv module may refuse
            if not text.strip("\r\n"):
                continue  # blank lines only, which both readers skip
            try:
                if text.encode("ascii").translate(None, _NUMERIC_BYTES):
                    return None
                rows = np.loadtxt(
                    lines, dtype=_FOOTPRINT_DTYPE, delimiter=",", usecols=usecols,
                    comments=None, quotechar=None, ndmin=1,
                )
            except (ValueError, Warning):  # UnicodeEncodeError is a ValueError
                return None
            event, swh = rows["event"], rows["swh"]
            pos = np.minimum(np.searchsorted(sorted_ids, rows["location"]), len(ids) - 1)
            if not (
                np.isfinite(swh).all() and (swh >= 0).all()
                and (sorted_ids[pos] == rows["location"]).all()
                and (event[1:] >= event[:-1]).all() and (last is None or event[0] >= last)
            ):
                return None
            change = event[1:] != event[:-1]
            starts = event[np.concatenate(([True], change))]
            # the table row of the block's first event: the last one so far
            # when the block starts inside it
            first = n_events - int(last is not None and starts[0] == last)
            if first + len(starts) > len(table):  # in place: no view of either outlives a block
                for a in (events, table):
                    a.resize((2 * (first + len(starts)), *a.shape[1:]), refcheck=False)
            table[n_events : first + len(starts)] = np.nan
            events[first : first + len(starts)] = starts
            row = first + np.concatenate(([0], np.cumsum(change)))
            table[row, order[pos]] = swh  # a duplicate pair overwrites: counted below
            n_events, n_rows, last = first + len(starts), n_rows + len(event), event[-1]
    table.resize((n_events, len(ids)), refcheck=False)  # in place: a copy would hold it twice
    if np.count_nonzero(~np.isnan(table)) != n_rows:
        return None
    return events[:n_events], table


def _footprint_rows(path, location_ids) -> tuple[np.ndarray, np.ndarray]:
    """Event ids and events x locations table of a footprint file in any row
    order, read a row at a time. Every error names the file and line."""
    column = {loc_id: k for k, loc_id in enumerate(location_ids)}
    rows: dict[int, np.ndarray] = {}  # event id -> footprint row, NaN where no entry
    with _csv_rows(path, set(_FOOTPRINT_COLUMNS)) as reader:
        for row in reader:
            ev_id = _parse(int, row["cyclone_id"], "cyclone_id")
            loc_id = _parse(int, row["location_id"], "location_id")
            swh = _parse(float, row["max_swh_m"], "max_swh_m")
            if not math.isfinite(swh) or swh < 0:
                raise CatalogError(f"invalid SWH {swh}")
            k = column.get(loc_id)
            if k is None:
                raise CatalogError(f"unknown location id {loc_id}")
            fp = rows.get(ev_id)
            if fp is None:
                if not ID_MIN <= ev_id <= ID_MAX:
                    raise CatalogError(f"cyclone_id {ev_id} outside the 64-bit range")
                fp = rows[ev_id] = np.full(len(column), np.nan)
            if not math.isnan(fp[k]):
                raise CatalogError(f"duplicate (event {ev_id}, location {loc_id})")
            fp[k] = swh
    event_ids = np.array(sorted(rows), dtype=int)
    swh = np.array([rows[e] for e in event_ids.tolist()]).reshape(len(event_ids), len(column))
    return event_ids, swh


def load_catalog(footprint_file, locations_file, duration_years: float) -> CycloneCatalog:
    """Load a catalog from footprint and location CSV files.

    Schemas: footprints `cyclone_id,location_id,max_swh_m`, one row per
    (event, location); locations `location_id,lon_deg,lat_deg,depth_m`
    (depth may be empty). Events whose footprint is entirely zero carry no
    exposure information and are dropped with a warning. Footprint rows
    grouped by ascending cyclone_id are read block-wise; any other order,
    or an error, is read row by row.
    """
    locations = []
    with _csv_rows(locations_file, {"location_id", "lon_deg", "lat_deg", "depth_m"}) as reader:
        for row in reader:
            depth_text = (row["depth_m"] or "").strip()
            locations.append(
                Location(
                    id=_parse(int, row["location_id"], "location_id"),
                    lon=_parse(float, row["lon_deg"], "lon"),
                    lat=_parse(float, row["lat_deg"], "lat"),
                    depth=_parse(float, depth_text, "depth") if depth_text else None,
                )
            )
    ids = [loc.id for loc in locations]
    table = _footprint_blocks(footprint_file, ids)
    event_ids, swh = table if table is not None else _footprint_rows(footprint_file, ids)
    zero = ~(swh > 0.0).any(axis=1)  # every row has an entry, so: all entries zero
    for ev_id in event_ids[zero].tolist():
        warnings.warn(
            f"event {ev_id}: all-zero footprint, dropped (no defined exposure)",
            stacklevel=2,
        )
    if zero.any():  # else keep the table as it is: a copy would double the peak
        event_ids, swh = event_ids[~zero], swh[~zero]
    return CycloneCatalog(
        locations=tuple(locations), event_ids=event_ids, swh=swh,
        duration_years=float(duration_years),
    )


def select_region(catalog: CycloneCatalog, region: RegionSpec) -> CycloneCatalog:
    """Restrict a catalog to a region.

    Events with no footprint entry inside the region are dropped; events whose
    in-region footprint is entirely zero are dropped with a warning (the
    within-region STM would be zero, leaving exposures undefined). The
    duration is unchanged: later STM extraction is conditional on the region.
    A region that keeps every location and event gives the input catalog
    itself; any result may share the input's arrays, which no stme function
    writes into.
    """
    keep_ids = set(region.resolve(catalog))
    in_region = np.array([loc.id in keep_ids for loc in catalog.locations])
    swh = catalog.swh if in_region.all() else catalog.swh[:, in_region]
    peak = np.fmax.reduce(swh, axis=1)  # NaN: no entry in the region
    for ev_id in catalog.event_ids[peak == 0.0].tolist():
        warnings.warn(f"event {ev_id}: zero footprint within region, dropped", stacklevel=2)
    keep = peak > 0.0
    if not keep.any():
        raise CatalogError("region drops all events")
    if keep.all() and swh is catalog.swh:
        return catalog
    return CycloneCatalog(
        locations=tuple(loc for loc in catalog.locations if loc.id in keep_ids),
        event_ids=catalog.event_ids[keep], swh=swh[keep], duration_years=catalog.duration_years,
    )


def extract_stm(catalog: CycloneCatalog) -> StmSeries:
    """Space-time maximum per event: the largest footprint value in the catalog's
    region. Argmax ties break to the lowest location id, whatever the column order."""
    if not len(catalog.event_ids):
        raise CatalogError("empty catalog")
    swh, loc_ids = catalog.swh, np.array(catalog.location_ids, dtype=int)
    values = np.fmax.reduce(swh, axis=1)
    step = max(1, BLOCK_LINES // len(loc_ids))  # rows at a time: no events x locations id table
    argmax_ids = np.concatenate([
        np.where(swh[i : i + step] == values[i : i + step, None], loc_ids, ID_MAX).min(axis=1)
        for i in range(0, len(swh), step)
    ])
    return StmSeries(catalog.event_ids, values, argmax_ids)


def _check_stm(catalog: CycloneCatalog, stm: StmSeries):
    """Exposures need an STM above zero for each of the catalog's events."""
    if not np.array_equal(stm.event_ids, catalog.event_ids):
        raise CatalogError("STM series does not cover the catalog's events")
    degenerate = stm.values <= 0
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise CatalogError(f"event {stm.event_ids[i]}: degenerate STM {stm.values[i]}")


def extract_exposures(catalog: CycloneCatalog, stm: StmSeries) -> ExposureMatrix:
    """Exposure E_j = footprint(j) / STM per event; absent entries stay NaN."""
    _check_stm(catalog, stm)
    return ExposureMatrix(catalog.event_ids, catalog.location_ids, catalog.swh / stm.values[:, None])


def exposure_atoms(catalog: CycloneCatalog, stm: StmSeries, rows: np.ndarray,
                   columns: np.ndarray) -> np.ndarray:
    """The entries of extract_exposures(catalog, stm) at the table rows
    `rows`, an integer array of any shape, and the table columns `columns`,
    by the same division: an array of shape rows.shape + (len(columns),)
    that holds only those entries, not the whole matrix."""
    _check_stm(catalog, stm)
    return catalog.swh[rows[..., None], columns] / stm.values[rows][..., None]


def tail_thresholds(desc: np.ndarray, n: int) -> np.ndarray:
    """Peaks-over-threshold level of each row of `desc`, which holds values in
    descending order along its last axis with NaN past a row's last value,
    that leaves the row's n largest values strictly above it: the (n+1)-th
    largest value, or the n-th largest less a machine-scale margin when the
    two tie or there is no (n+1)-th."""
    if not 1 <= n <= desc.shape[-1]:
        raise CatalogError(f"n={n} outside [1, {desc.shape[-1]}]")
    nth = desc[..., n - 1]
    below = desc[..., n] if n < desc.shape[-1] else np.nan
    return np.where(below < nth, below, nth - np.maximum(1e-12, np.abs(nth) * 1e-12))


def top_n_positions(values: np.ndarray, event_ids: np.ndarray, n: int):
    """Positions of the n largest of `values` along its last axis, ties
    going to the lower of the matching `event_ids`, in their original order,
    with the threshold of each row; see tail_thresholds."""
    order = np.lexsort((event_ids, -values))
    psi = tail_thresholds(np.take_along_axis(values, order, axis=-1), n)  # checks n
    return np.sort(order[..., :n], axis=-1), psi


def top_n_events(stm: StmSeries, n: int) -> tuple[StmSeries, float]:
    """Retain the n largest STM values and return them with the threshold.

    Ties are resolved by retaining exactly n events, preferring lower event
    id, so the selection is deterministic; the retained events keep their
    original order.
    """
    keep, psi = top_n_positions(stm.values, stm.event_ids, n)
    retained = StmSeries(
        stm.event_ids[keep], stm.values[keep], stm.argmax_location_ids[keep]
    )
    return retained, float(psi)
