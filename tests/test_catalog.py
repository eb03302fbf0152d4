import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stme.baselines import location_series
from stme.catalog import (
    CatalogError,
    CycloneCatalog,
    Location,
    RegionSpec,
    StmSeries,
    extract_exposures,
    extract_stm,
    load_catalog,
    select_region,
    threshold_for_top_n,
    top_n_events,
)
from stme.experiments import sample_period


def make_catalog(footprints, duration=10.0, lons=None, loc_ids=None):
    """Dense catalog from {event id: {location id: SWH}}; columns follow
    loc_ids (default: ascending ids)."""
    if loc_ids is None:
        loc_ids = sorted({j for fp in footprints.values() for j in fp})
    locations = tuple(
        Location(id=j, lon=(lons or {}).get(j, -61.0 + 0.01 * j), lat=16.0)
        for j in loc_ids
    )
    event_ids = sorted(footprints)
    swh = np.full((len(event_ids), len(loc_ids)), np.nan)
    for i, e in enumerate(event_ids):
        for j, v in footprints[e].items():
            swh[i, loc_ids.index(j)] = v
    return CycloneCatalog(
        locations=locations, event_ids=np.array(event_ids, dtype=int), swh=swh,
        duration_years=duration,
    )


def footprint_dicts(catalog):
    """{event id: {location id: SWH}} over the cells with data."""
    return {
        e: {j: v for j, v in zip(catalog.location_ids, row.tolist()) if not np.isnan(v)}
        for e, row in zip(catalog.event_ids.tolist(), catalog.swh)
    }


def random_catalog(rng, n_events, n_locs, missing_frac=0.0):
    footprints = {}
    for e in range(1, n_events + 1):
        fp = {}
        for j in range(1, n_locs + 1):
            if rng.uniform() >= missing_frac:
                fp[j] = float(rng.uniform(0.1, 20.0))
        if not fp:
            fp[1] = float(rng.uniform(0.1, 20.0))
        footprints[e] = fp
    return make_catalog(footprints)


class TestLoadCatalog:
    def test_small_file(self, tmp_path):
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,120\n2,-61.3,16.0,\n"
        )
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n1,1,3.5\n1,2,7.0\n2,1,4.0\n"
        )
        cat = load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)
        assert len(cat.event_ids) == 2
        assert cat.locations[0].depth == 120
        assert cat.locations[1].depth is None
        assert footprint_dicts(cat)[1] == {1: 3.5, 2: 7.0}

    def test_long_catalog_rate(self, tmp_path):
        rows = ["cyclone_id,location_id,max_swh_m"]
        rows += [f"{e},1,{5 + e % 7}" for e in range(1, 1972)]
        (tmp_path / "footprints.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n"
        )
        cat = load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 3200.0)
        assert cat.rate == pytest.approx(0.6159, abs=1e-3)

    def test_negative_swh_rejected_with_line(self, tmp_path):
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n"
        )
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n1,1,3.5\n2,1,-1\n"
        )
        with pytest.raises(CatalogError, match="footprints.csv:3"):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)

    @pytest.mark.parametrize("locations, footprints, where", [
        ("1,-61.5,16.2,\n", "1,1,3.5\nx5,1,4.0\n", "footprints.csv:3: bad cyclone_id"),
        ("1,-61.5,16.2,\n", "1,1.0,3.5\n", "footprints.csv:2: bad location_id"),
        ("1,-61.5,16.2,\n", "1,1\n", "footprints.csv:2: bad max_swh_m"),
        ("1,-61.5,16.2,\nA2,-61.3,16.0,\n", "1,1,3.5\n", "locations.csv:3: bad location_id"),
    ])
    def test_bad_field_rejected_with_line(self, tmp_path, locations, footprints, where):
        (tmp_path / "locations.csv").write_text("location_id,lon_deg,lat_deg,depth_m\n" + locations)
        (tmp_path / "footprints.csv").write_text("cyclone_id,location_id,max_swh_m\n" + footprints)
        with pytest.raises(CatalogError, match=where):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)

    def test_duplicate_pair_rejected(self, tmp_path):
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n"
        )
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n1,1,3.5\n1,1,4.0\n"
        )
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)

    def test_unknown_location_rejected(self, tmp_path):
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n"
        )
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n1,9,3.5\n"
        )
        with pytest.raises(CatalogError, match="unknown location"):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)

    def test_non_positive_duration(self, tmp_path):
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n"
        )
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n1,1,3.5\n"
        )
        with pytest.raises(CatalogError, match="duration"):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 0.0)

    def test_all_zero_footprint_dropped(self, tmp_path):
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n"
        )
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n1,1,0.0\n2,1,5.0\n"
        )
        with pytest.warns(UserWarning, match="all-zero footprint"):
            cat = load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)
        assert cat.event_ids.tolist() == [2]


class TestBadInputs:
    @pytest.mark.parametrize("row, message", [
        ("2,-61.3,16.0,nan", "locations.csv:3: location 2: invalid depth nan"),
        ("2,-61.3,16.0,inf", "locations.csv:3: location 2: invalid depth inf"),
        ("2,nan,16.0,", "locations.csv:3: location 2: lon nan"),
        ("99999999999999999999,-61.3,16.0,", "locations.csv:3: location id 9+ outside"),
    ])
    def test_invalid_location_rejected_with_line(self, tmp_path, row, message):
        (tmp_path / "locations.csv").write_text(
            f"location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n{row}\n"
        )
        (tmp_path / "footprints.csv").write_text("cyclone_id,location_id,max_swh_m\n1,1,3.5\n")
        with pytest.raises(CatalogError, match=message):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)

    def test_non_finite_depth_rejected(self):
        for depth in (float("nan"), float("inf"), -1.0):
            with pytest.raises(CatalogError, match="invalid depth"):
                Location(id=1, lon=0.0, lat=0.0, depth=depth)
        assert Location(id=1, lon=0.0, lat=0.0, depth=0.0).depth == 0.0

    @pytest.mark.parametrize("footprints, message", [
        (b"1,1,3.5\n2,1,\xff4.0\n", "footprints.csv:3: bad max_swh_m"),
        (b"1,1,3.5\n2\xc3,1,4.0\n", "footprints.csv:3: bad cyclone_id"),
        (b"1,1,3.5\n99999999999999999999,1,4.0\n", "footprints.csv:3: cyclone_id 9+ outside"),
    ])
    def test_bad_footprint_bytes_rejected_with_line(self, tmp_path, footprints, message):
        (tmp_path / "locations.csv").write_text("location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n")
        (tmp_path / "footprints.csv").write_bytes(b"cyclone_id,location_id,max_swh_m\n" + footprints)
        with pytest.raises(CatalogError, match=message):
            load_catalog(tmp_path / "footprints.csv", tmp_path / "locations.csv", 10.0)


# location 3 has no footprint rows, so its row can change freely
VALID_LOCATIONS = b"location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,120\n2,-61.3,16.0,\n3,-61.1,16.4,80\n"
VALID_FOOTPRINTS = b"cyclone_id,location_id,max_swh_m\n1,1,3.5\n1,2,2.0\n2,2,4.25\n3,1,0\n"
# bytes and fields that reach the parsers' edge cases
TOKENS = [b",", b"\n", b"\r", b'"', b"-", b".", b"e", b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf",
          b"nan", b"inf", b"-1", b"1e400", b"99999999999999999999", b"1_0", b" ", b"x"]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` with up to two fields replaced by tokens, then up to three byte
    edits (a run of up to three bytes replaced by a token or random bytes)."""
    lines = [line.split(b",") for line in data.split(b"\n")]
    for _ in range(draw(st.integers(0, 2))):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
    out = bytearray(b"\n".join(b",".join(fields) for fields in lines))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(out)))
        cut = draw(st.integers(0, 3))
        out[pos:pos + cut] = draw(st.one_of(st.sampled_from(TOKENS), st.binary(max_size=3)))
    return bytes(out)


class TestLoadFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        locations=st.one_of(st.just(VALID_LOCATIONS), mutated(VALID_LOCATIONS)),
        footprints=st.one_of(st.just(VALID_FOOTPRINTS), mutated(VALID_FOOTPRINTS)),
    )
    def test_mutated_csv_loads_or_raises_catalog_error(self, locations, footprints):
        with tempfile.TemporaryDirectory() as tmp:
            loc_path = os.path.join(tmp, "locations.csv")
            fp_path = os.path.join(tmp, "footprints.csv")
            with open(loc_path, "wb") as fh:
                fh.write(locations)
            with open(fp_path, "wb") as fh:
                fh.write(footprints)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    cat = load_catalog(fp_path, loc_path, 10.0)
                    # what loads must also go through the first pipeline steps
                    sub = select_region(cat, RegionSpec())
                    extract_exposures(sub, extract_stm(sub))
                except CatalogError:
                    pass


class TestSelectRegion:
    def test_unknown_region_id_rejected(self):
        cat = make_catalog({1: {1: 3.0, 2: 5.0}})
        with pytest.raises(CatalogError, match=r"region locations \[98, 99\] not in catalog"):
            RegionSpec(location_ids=(99, 1, 98)).resolve(cat)
        with pytest.raises(CatalogError, match=r"\[99\] not in catalog"):
            select_region(cat, RegionSpec(location_ids=(1, 99)))

    def test_identity(self):
        cat = make_catalog({1: {1: 3.0, 2: 5.0}, 2: {1: 4.0}})
        same = select_region(cat, RegionSpec(location_ids=(1, 2)))
        assert same.location_ids == cat.location_ids
        assert footprint_dicts(same) == footprint_dicts(cat)

    def test_restriction_keeps_partial_event(self):
        cat = make_catalog({1: {1: 8.0, 2: 12.0}})
        sub = select_region(cat, RegionSpec(location_ids=(1,)))
        assert footprint_dicts(sub)[1] == {1: 8.0}

    def test_bounding_box(self):
        cat = make_catalog(
            {1: {1: 3.0, 2: 5.0}}, lons={1: -61.5, 2: -60.2}
        )
        sub = select_region(cat, RegionSpec(lon_min=-62.0, lon_max=-60.8))
        assert sub.location_ids == (1,)

    def test_events_without_region_data_dropped(self):
        cat = make_catalog({1: {1: 3.0}, 2: {2: 5.0}})
        sub = select_region(cat, RegionSpec(location_ids=(1,)))
        assert sub.event_ids.tolist() == [1]

    def test_empty_region_error(self):
        cat = make_catalog({1: {1: 3.0}})
        with pytest.raises(CatalogError):
            select_region(cat, RegionSpec(location_ids=(99,)))

    def test_region_dropping_all_events_error(self):
        cat = make_catalog({1: {1: 3.0}, 2: {1: 4.0}})
        cat2 = make_catalog({1: {1: 3.0, 2: 0.0}})
        with pytest.warns(UserWarning, match="zero footprint"):
            with pytest.raises(CatalogError, match="drops all events"):
                select_region(cat2, RegionSpec(location_ids=(2,)))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        cat = random_catalog(rng, 20, 6, missing_frac=0.3)
        spec = RegionSpec(location_ids=(1, 2, 3))
        once = select_region(cat, spec)
        twice = select_region(once, spec)
        assert once.location_ids == twice.location_ids
        assert footprint_dicts(once) == footprint_dicts(twice)

    def test_shrinking_never_increases_stm(self):
        rng = np.random.default_rng(1)
        cat = random_catalog(rng, 30, 8, missing_frac=0.2)
        full = extract_stm(select_region(cat, RegionSpec(location_ids=tuple(range(1, 9)))))
        small = extract_stm(select_region(cat, RegionSpec(location_ids=(1, 2, 3))))
        full_by_event = dict(zip(full.event_ids.tolist(), full.values.tolist()))
        for e, v in zip(small.event_ids.tolist(), small.values.tolist()):
            assert v <= full_by_event[e]


class TestExtractStm:
    def test_max_of_three(self):
        cat = make_catalog({1: {1: 3.0, 2: 5.0, 3: 2.0}})
        stm = extract_stm(cat)
        assert stm.values[0] == 5.0
        assert stm.argmax_location_ids[0] == 2

    def test_argmax_tie_lowest_id(self):
        cat = make_catalog({1: {3: 5.0, 1: 5.0, 2: 4.0}})
        stm = extract_stm(cat)
        assert stm.argmax_location_ids[0] == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        cat = random_catalog(rng, 50, 10, missing_frac=0.4)
        stm = extract_stm(cat)
        for i, fp in enumerate(footprint_dicts(cat).values()):
            best = max(fp.values())  # exhaustive scan
            assert stm.values[i] == best


class TestExtractExposures:
    def test_ratio_and_argmax(self):
        cat = make_catalog({1: {1: 2.5, 2: 5.0}})
        stm = extract_stm(cat)
        mat = extract_exposures(cat, stm)
        assert mat.column(1)[0] == 0.5
        assert mat.column(2)[0] == 1.0

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        cat = random_catalog(rng, 5, 4, missing_frac=0.2)
        stm = extract_stm(cat)
        mat = extract_exposures(cat, stm)
        for i, fp in enumerate(footprint_dicts(cat).values()):
            s = stm.values[i]
            for k, j in enumerate(mat.location_ids.tolist()):
                if j in fp:
                    assert mat.values[i, k] * s == pytest.approx(fp[j], rel=1e-12)
                else:
                    assert np.isnan(mat.values[i, k])

    def test_each_row_has_unit_entry(self):
        rng = np.random.default_rng(3)
        cat = random_catalog(rng, 25, 5, missing_frac=0.3)
        stm = extract_stm(cat)
        mat = extract_exposures(cat, stm)
        for row in mat.values:
            assert np.nanmax(row) == 1.0


class TestTopNEvents:
    def test_order_statistics(self):
        cat = make_catalog({1: {1: 4.0}, 2: {1: 7.0}, 3: {1: 9.0}, 4: {1: 12.0}})
        stm = extract_stm(cat)
        retained, psi = top_n_events(stm, 2)
        assert sorted(retained.values.tolist()) == [9.0, 12.0]
        assert psi == 7.0

    def test_n_equals_n0(self):
        cat = make_catalog({1: {1: 4.0}, 2: {1: 7.0}})
        stm = extract_stm(cat)
        retained, psi = top_n_events(stm, 2)
        assert len(retained) == 2
        assert np.all(retained.values > psi)

    def test_n_too_large(self):
        cat = make_catalog({1: {1: 4.0}})
        stm = extract_stm(cat)
        with pytest.raises(CatalogError):
            top_n_events(stm, 2)

    def test_tie_at_threshold_prefers_lower_event_id(self):
        cat = make_catalog({1: {1: 9.0}, 2: {1: 9.0}, 3: {1: 9.0}, 4: {1: 12.0}})
        stm = extract_stm(cat)
        retained, psi = top_n_events(stm, 2)
        assert len(retained) == 2
        assert retained.event_ids.tolist() == [1, 4]
        assert np.all(retained.values > psi)

    def test_larger_sample(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(1, 30, size=124)
        cat = make_catalog({e + 1: {1: float(v)} for e, v in enumerate(values)})
        stm = extract_stm(cat)
        retained, psi = top_n_events(stm, 30)
        assert len(retained) == 30
        assert set(retained.values.tolist()) == set(np.sort(values)[-30:].tolist())
        assert np.all(retained.values > psi)


# --- dense catalog against a per-event dict walk ---------------------------

class TestThresholdForTopN:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 1e6)),
                        min_size=1, max_size=60),
        data=st.data(),
    )
    def test_keeps_exactly_n_values(self, values, data):
        n = data.draw(st.integers(1, len(values)))
        values = np.asarray(values)
        psi = threshold_for_top_n(values, n)
        desc = np.sort(values)[::-1]
        assert desc[n - 1] > psi  # the n largest lie above the threshold
        if n == values.size or desc[n - 1] > desc[n]:
            assert int(np.sum(values > psi)) == n
        # a tie across the n-th largest keeps all tied values above psi;
        # top_n_events then retains exactly n of them
        stm = StmSeries(np.arange(1, values.size + 1), values, np.ones(values.size, dtype=int))
        retained, same_psi = top_n_events(stm, n)
        assert len(retained) == n and same_psi == psi


def reference_select(footprints, keep_ids):
    out = {}
    for e, fp in sorted(footprints.items()):
        sub = {j: v for j, v in fp.items() if j in keep_ids}
        if sub and max(sub.values()) > 0.0:
            out[e] = sub
    return out


def reference_argmax(fp):
    return min(fp, key=lambda j: (-fp[j], j))  # max value, lowest id on ties


# missing cells, zeros and repeated values give absent entries, all-zero
# events and tied maxima
CELLS = st.one_of(st.none(), st.just(0.0), st.sampled_from([0.5, 2.5]), st.floats(0.01, 20.0))


@st.composite
def footprint_tables(draw):
    """(location ids in file order, {event id: {location id: SWH}})."""
    loc_ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    event_ids = draw(st.lists(st.integers(1, 500), min_size=1, max_size=8, unique=True))
    footprints = {}
    for e in event_ids:
        cells = draw(st.lists(CELLS, min_size=len(loc_ids), max_size=len(loc_ids)))
        fp = {j: v for j, v in zip(loc_ids, cells) if v is not None}
        footprints[e] = fp or {loc_ids[0]: 1.0}
    return loc_ids, footprints


class TestDenseCatalogProperties:
    @settings(max_examples=300, deadline=None)
    @given(table=footprint_tables(), data=st.data())
    def test_matches_dict_reference(self, table, data):
        loc_ids, footprints = table
        cat = make_catalog(footprints, duration=10.0, loc_ids=loc_ids)
        keep = data.draw(st.lists(st.sampled_from(loc_ids), min_size=1, unique=True))
        spec = RegionSpec(location_ids=tuple(keep))
        expected = reference_select(footprints, set(keep))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            if not expected:
                with pytest.raises(CatalogError, match="drops all events"):
                    select_region(cat, spec)
                return
            sub = select_region(cat, spec)
        assert sub.location_ids == tuple(j for j in loc_ids if j in keep)
        assert footprint_dicts(sub) == expected

        stm = extract_stm(sub)
        assert stm.event_ids.tolist() == list(expected)
        for i, fp in enumerate(expected.values()):
            best = reference_argmax(fp)
            assert stm.values[i] == fp[best]
            assert stm.argmax_location_ids[i] == best

        mat = extract_exposures(sub, stm)
        assert mat.location_ids.tolist() == list(sub.location_ids)
        for i, fp in enumerate(expected.values()):
            s = fp[reference_argmax(fp)]
            for k, j in enumerate(sub.location_ids):
                if j in fp:
                    assert mat.values[i, k] == fp[j] / s
                else:
                    assert np.isnan(mat.values[i, k])

        for j in sub.location_ids:
            column = [fp[j] for fp in expected.values() if j in fp]
            if column:
                assert location_series(sub, j).values.tolist() == column
            else:
                with pytest.raises(CatalogError, match="no footprint data"):
                    location_series(sub, j)

        T0 = data.draw(st.floats(0.5, 10.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        sample = sample_period(sub, T0, np.random.default_rng(seed))
        ids = list(expected)
        m = int(round(len(ids) * T0 / 10.0))
        if m == len(ids):
            chosen = ids
        else:
            rng = np.random.default_rng(seed)
            chosen = [ids[i] for i in np.sort(rng.choice(len(ids), size=m, replace=False))]
        assert sample.duration_years == T0
        assert footprint_dicts(sample) == {e: expected[e] for e in chosen}
