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
        if self.duration_years <= 0:
            raise CatalogError(f"non-positive duration {self.duration_years}")
        ids = [loc.id for loc in self.locations]
        if len(set(ids)) != len(ids):
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
    def rate(self) -> float:
        """Implied event rate (events per year)."""
        return len(self.event_ids) / self.duration_years

    @property
    def location_ids(self) -> tuple[int, ...]:
        return tuple(loc.id for loc in self.locations)


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


def load_catalog(footprint_file, locations_file, duration_years: float) -> CycloneCatalog:
    """Load a catalog from footprint and location CSV files.

    Schemas: footprints `cyclone_id,location_id,max_swh_m`, one row per
    (event, location); locations `location_id,lon_deg,lat_deg,depth_m`
    (depth may be empty). Events whose footprint is entirely zero carry no
    exposure information and are dropped with a warning.
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
    column = {loc.id: k for k, loc in enumerate(locations)}

    rows: dict[int, np.ndarray] = {}  # event id -> footprint row, NaN where no entry
    with _csv_rows(footprint_file, {"cyclone_id", "location_id", "max_swh_m"}) as reader:
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
                fp = rows[ev_id] = np.full(len(locations), np.nan)
            if not math.isnan(fp[k]):
                raise CatalogError(f"duplicate (event {ev_id}, location {loc_id})")
            fp[k] = swh

    event_ids = np.array(sorted(rows), dtype=int)
    swh = np.array([rows[e] for e in event_ids.tolist()]).reshape(len(event_ids), len(locations))
    zero = ~(swh > 0.0).any(axis=1)  # every row has an entry, so: all entries zero
    for ev_id in event_ids[zero].tolist():
        warnings.warn(
            f"event {ev_id}: all-zero footprint, dropped (no defined exposure)",
            stacklevel=2,
        )
    return CycloneCatalog(
        locations=tuple(locations), event_ids=event_ids[~zero], swh=swh[~zero],
        duration_years=float(duration_years),
    )


def select_region(catalog: CycloneCatalog, region: RegionSpec) -> CycloneCatalog:
    """Restrict a catalog to a region.

    Events with no footprint entry inside the region are dropped; events whose
    in-region footprint is entirely zero are dropped with a warning (the
    within-region STM would be zero, leaving exposures undefined). The
    duration is unchanged: later STM extraction is conditional on the region.
    """
    keep_ids = set(region.resolve(catalog))
    in_region = np.array([loc.id in keep_ids for loc in catalog.locations])
    swh = catalog.swh[:, in_region]
    peak = np.where(np.isnan(swh), -np.inf, swh).max(axis=1)  # -inf: no entry in the region
    for ev_id in catalog.event_ids[peak == 0.0].tolist():
        warnings.warn(f"event {ev_id}: zero footprint within region, dropped", stacklevel=2)
    keep = peak > 0.0
    if not keep.any():
        raise CatalogError("region drops all events")
    return CycloneCatalog(
        locations=tuple(loc for loc in catalog.locations if loc.id in keep_ids),
        event_ids=catalog.event_ids[keep], swh=swh[keep], duration_years=catalog.duration_years,
    )


def extract_stm(catalog: CycloneCatalog) -> StmSeries:
    """Space-time maximum per event: the largest footprint value in the catalog's
    region. Argmax ties break to the lowest location id, whatever the column order."""
    if not len(catalog.event_ids):
        raise CatalogError("empty catalog")
    values = np.nanmax(catalog.swh, axis=1)
    loc_ids = np.array(catalog.location_ids, dtype=int)
    at_max = catalog.swh == values[:, None]
    argmax_ids = np.where(at_max, loc_ids, np.iinfo(loc_ids.dtype).max).min(axis=1)
    return StmSeries(catalog.event_ids, values, argmax_ids)


def extract_exposures(catalog: CycloneCatalog, stm: StmSeries) -> ExposureMatrix:
    """Exposure E_j = footprint(j) / STM per event; absent entries stay NaN."""
    if not np.array_equal(stm.event_ids, catalog.event_ids):
        raise CatalogError("STM series does not cover the catalog's events")
    degenerate = stm.values <= 0
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise CatalogError(f"event {stm.event_ids[i]}: degenerate STM {stm.values[i]}")
    return ExposureMatrix(catalog.event_ids, catalog.location_ids, catalog.swh / stm.values[:, None])


def threshold_for_top_n(values: np.ndarray, n: int) -> float:
    """Peaks-over-threshold level leaving the n largest values above it.

    For n < len(values) this is the (n+1)-th largest value; for n equal to the
    sample size it is the sample minimum less a machine-scale margin. When the
    n-th and (n+1)-th largest tie, the level is nudged below the tie so that
    the n retained values strictly exceed it.
    """
    values = np.asarray(values, dtype=float)
    n0 = values.size
    if not 1 <= n <= n0:
        raise CatalogError(f"n={n} outside [1, {n0}]")
    desc = np.sort(values)[::-1]
    if n == n0:
        m = desc[-1]
        return m - max(1e-12, abs(m) * 1e-12)
    psi = desc[n]
    if psi == desc[n - 1]:  # tie at the threshold
        psi = psi - max(1e-12, abs(psi) * 1e-12)
    return float(psi)


def top_n_events(stm: StmSeries, n: int) -> tuple[StmSeries, float]:
    """Retain the n largest STM values and return them with the threshold.

    Ties are resolved by retaining exactly n events, preferring lower event
    id, so the selection is deterministic.
    """
    psi = threshold_for_top_n(stm.values, n)  # checks 1 <= n <= len(stm)
    order = sorted(range(len(stm)), key=lambda i: (-stm.values[i], stm.event_ids[i]))
    keep = sorted(order[:n])  # preserve original event order
    retained = StmSeries(
        stm.event_ids[keep], stm.values[keep], stm.argmax_location_ids[keep]
    )
    return retained, psi
