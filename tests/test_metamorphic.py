"""Metamorphic properties of the whole estimation path: relabellings,
reorderings and scalings that the model must respect, checked cell by cell
through experiments.estimate_cells on small synthetic worlds, and byte by
byte through the files the command line writes."""

import csv
import functools
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stme.catalog import CycloneCatalog, Location, RegionSpec, load_catalog, select_region
from stme.cli import main
from stme.evd import GOLDEN_STEPS
from stme.experiments import SynthWorldConfig, empirical_estimates, estimate_cells, synth_catalog
from stme.returns import BISECTION_TOL, target_probability

T, T0, LADDER, METHODS, ESTIMATORS = 500.0, 200.0, (10, 20), ("MLE", "PWM"), ("STME", "SINGLE")


@functools.cache
def world(seed):
    """240 events at 35 locations."""
    return synth_catalog(SynthWorldConfig(duration_years=400.0, seed=seed))


def cells_of(catalog, location_ids, ladder=LADDER):
    """Every cell of estimate_cells as {key: (value or None, flag or reason)}."""
    keys, (values,), (flags,) = estimate_cells(catalog, T, T0, ladder, METHODS, ESTIMATORS,
                                               location_ids)
    assert len(set(keys)) == len(keys)
    return {key: (None if math.isnan(value) else value, flag)
            for key, value, flag in zip(keys, values.tolist(), flags)}


@functools.cache
def base_cells(seed):
    return cells_of(world(seed), world(seed).location_ids)


seeds = st.sampled_from([5, 6, 7])


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, data=st.data())
    def test_location_permutation(self, seed, data):
        # the catalog's columns and the analysed ids, each in any order
        w = world(seed)
        columns = data.draw(st.permutations(range(len(w.locations))))
        ids = data.draw(st.permutations(w.location_ids))
        permuted = CycloneCatalog(tuple(w.locations[k] for k in columns), w.event_ids,
                                  w.swh[:, columns], w.duration_years)
        assert cells_of(permuted, ids) == base_cells(seed)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, first=st.integers(-10**6, 10**6), gaps=st.integers(0, 2**32 - 1))
    def test_monotone_event_relabelling(self, seed, first, gaps):
        w = world(seed)
        steps = np.random.default_rng(gaps).integers(1, 1000, size=len(w.event_ids))
        relabelled = replace(w, event_ids=first + np.cumsum(steps))
        assert cells_of(relabelled, w.location_ids) == base_cells(seed)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, new_id=st.integers(36, 10**6), data=st.data())
    def test_added_location_without_footprint(self, seed, new_id, data):
        w = world(seed)
        column = data.draw(st.integers(0, len(w.locations)))
        position = data.draw(st.integers(0, len(w.locations)))
        locations = list(w.locations)
        locations.insert(column, Location(id=new_id, lon=-61.0, lat=16.0))
        swh = np.insert(w.swh, column, np.nan, axis=1)
        ids = list(w.location_ids)
        ids.insert(position, new_id)
        cells = cells_of(CycloneCatalog(tuple(locations), w.event_ids, swh, w.duration_years),
                         ids)
        new = {key: cell for key, cell in cells.items() if key[0] == new_id}
        assert {cell[0] for cell in new.values()} == {None}
        assert len(new) == len(LADDER) * len(METHODS) * len(ESTIMATORS)
        assert {k: c for k, c in cells.items() if k[0] != new_id} == base_cells(seed)


# The MLE search climbs a grid of GRID_POINTS per side in theta = shape /
# scale and refines the best point by GOLDEN_STEPS golden-section steps,
# shrinking its bracket by 0.618 ** 40 = 4e-9. Below sqrt(eps) = 1.5e-8
# relative the profile likelihood is flat to rounding, so a fit resolves
# theta to the larger of the two. The T-year value moves by at most
# ln(1 / (1 - p*)) ** 2 times a relative change of theta; a factor 16 covers
# the width of the flat top.
MLE_RESOLUTION = 16 * max(((math.sqrt(5.0) - 1.0) / 2.0) ** GOLDEN_STEPS,
                          math.sqrt(np.finfo(float).eps))


def mle_tolerance(n, T=T, T0=T0):
    return MLE_RESOLUTION * math.log(1.0 / (1.0 - target_probability(T, T0, n))) ** 2


class TestScaling:
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, k=st.sampled_from([0.5, 2.0, 4.0]))
    def test_scaled_swh_scales_every_value(self, seed, k):
        w = world(seed)
        scaled = replace(w, swh=w.swh * k)
        base, cells = base_cells(seed), cells_of(scaled, w.location_ids)
        assert cells.keys() == base.keys()
        for (loc, estimator, method, n), (value, flag) in cells.items():
            want, want_flag = base[loc, estimator, method, n]
            assert (value is None, flag) == (want is None, want_flag)
            if value is None:
                continue
            # a power of two scales the PWM fit and the exposures exactly;
            # bisection stops within BISECTION_TOL of each quantile
            bound = {"PWM": 0.0, "MLE": k * want * mle_tolerance(n)}[method]
            if estimator == "STME":
                bound += (1.0 + k) * BISECTION_TOL
            assert abs(value - k * want) <= bound, (loc, estimator, method, n)
        empirical = empirical_estimates(w, 300.0, w.location_ids)
        for loc, e in empirical_estimates(scaled, 300.0, w.location_ids).items():
            assert e.value == k * empirical[loc].value


STM_INPUTS = ("footprints.csv", "locations.csv")


@pytest.fixture(scope="module")
def stm_world(tmp_path_factory):
    """The input lines of a 400-year world and the stm.csv and exposures.csv
    that `stm` writes from them."""
    world_dir = tmp_path_factory.mktemp("stm_world")
    assert main(["synth", "--out", str(world_dir), "--years", "400", "--seed", "5"]) == 0
    inputs = {name: (world_dir / name).read_text().splitlines() for name in STM_INPUTS}
    return inputs, run_stm(world_dir, inputs)


def run_stm(directory, inputs):
    """stm.csv and exposures.csv, as bytes, of `stm` on the given input lines."""
    for name in STM_INPUTS:
        (directory / name).write_text("\n".join(inputs[name]) + "\n")
    out = directory / "stm"
    assert main(["stm", "--footprints", str(directory / STM_INPUTS[0]), "--locations",
                 str(directory / STM_INPUTS[1]), "--duration", "400", "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ("stm.csv", "exposures.csv")}


# return-values and experiment on the stm_world inputs: T below the 400-year
# catalog, so that EMPIRICAL and metrics.csv have values; the analysed ids
# come from the config file, so that a location added to the region is not
# analysed.
CLI_T, CLI_T0, ANALYSED = 300.0, 200.0, "2 9 16 20 27 34"
ESTIMATE_FILES = ("estimates.csv", "results.csv", "summary.csv", "metrics.csv")


def run_estimates(directory, inputs):
    """The files of ESTIMATE_FILES, as bytes, that return-values (all three
    estimators, both methods) and a 4-replicate experiment write from the
    given input lines."""
    for name in STM_INPUTS:
        (directory / name).write_text("\n".join(inputs[name]) + "\n")
    (directory / "run.ini").write_text(f"[analysis]\nlocation_ids = {ANALYSED}\n")
    common = ["--footprints", str(directory / STM_INPUTS[0]), "--locations",
              str(directory / STM_INPUTS[1]), "--duration", "400", "--T", str(CLI_T),
              "--T0", str(CLI_T0), "--method", "mle", "--method", "pwm",
              "--config", str(directory / "run.ini")]
    assert main(["return-values", *common, "--n", "20", "--estimator", "stme", "--estimator",
                 "single", "--estimator", "empirical", "--out", str(directory / "rv")]) == 0
    assert main(["experiment", *common, "--n", "10", "--n", "20", "--replicates", "4",
                 "--seed", "3", "--out", str(directory / "exp")]) == 0
    return {name: (directory / ("rv" if name == "estimates.csv" else "exp") / name).read_bytes()
            for name in ESTIMATE_FILES}


@pytest.fixture(scope="module")
def estimates_world(stm_world, tmp_path_factory):
    inputs, _ = stm_world
    return inputs, run_estimates(tmp_path_factory.mktemp("estimates_world"), inputs)


def relabelled(footprints, first, gaps):
    """Footprint lines with the event ids relabelled monotonically."""
    rows = [line.split(",") for line in footprints[1:]]
    old = list(dict.fromkeys(int(row[0]) for row in rows))
    steps = np.random.default_rng(gaps).integers(1, 1000, size=len(old))
    label = dict(zip(old, (first + np.cumsum(steps)).tolist()))
    return label, [footprints[0], *(",".join([str(label[int(row[0])]), *row[1:]]) for row in rows)]


def half_unit(text):
    """Half a unit in the last place of a value that %.10g printed."""
    value = abs(float(text))
    return 0.0 if value == 0 else 0.5 * 10.0 ** (math.floor(math.log10(value)) - 9)


def value_rows(data):
    """The rows of an estimates or results file keyed by everything but the
    value, which is kept as text."""
    rows = list(csv.DictReader(data.decode().splitlines()))
    return {tuple((k, v) for k, v in row.items() if k != "value_m"): row["value_m"]
            for row in rows}


class TestCommandLine:
    @settings(max_examples=5, deadline=None)
    @given(first=st.integers(-10**6, 10**6), gaps=st.integers(0, 2**32 - 1))
    def test_stm_monotone_event_relabelling(self, stm_world, first, gaps):
        # only the cyclone_id column of either file changes, to the new label
        inputs, base = stm_world
        label, footprints = relabelled(inputs["footprints.csv"], first, gaps)
        with tempfile.TemporaryDirectory() as tmp:
            got = run_stm(Path(tmp), {**inputs, "footprints.csv": footprints})
        for name, data in base.items():
            want = [line.split(",") for line in data.decode().split("\r\n")]
            want[1:-1] = [[str(label[int(row[0])]), *row[1:]] for row in want[1:-1]]
            assert got[name] == "\r\n".join(",".join(row) for row in want).encode(), name

    @settings(max_examples=5, deadline=None)
    @given(new_id=st.integers(36, 10**6), data=st.data())
    def test_stm_added_location_without_footprint(self, stm_world, new_id, data):
        inputs, base = stm_world
        locations = list(inputs["locations.csv"])
        locations.insert(data.draw(st.integers(1, len(locations))), f"{new_id},-61.0,16.0,")
        with tempfile.TemporaryDirectory() as tmp:
            assert run_stm(Path(tmp), {**inputs, "locations.csv": locations}) == base

    def test_return_values_rows_are_the_cells(self, tmp_path):
        # estimates.csv holds the cells of estimate_cells on the region the
        # command reads (--location-ids sets it too), in any order of the ids
        world_dir = tmp_path / "world"
        assert main(["synth", "--out", str(world_dir), "--years", "400", "--seed", "5"]) == 0
        inputs = [world_dir / "footprints.csv", world_dir / "locations.csv"]
        catalog = select_region(load_catalog(*inputs, 400.0), RegionSpec(location_ids=(1, 2, 3)))
        want = cells_of(catalog, (3, 1, 2), ladder=(20,))
        for ids in (("3", "1", "2"), ("2", "3", "1")):
            out = tmp_path / "-".join(ids)
            assert main(["return-values", "--footprints", str(inputs[0]), "--locations",
                         str(inputs[1]), "--duration", "400", "--T", str(T), "--T0", str(T0),
                         "--n", "20", "--method", "mle", "--method", "pwm", "--estimator",
                         "stme", "--estimator", "single", "--location-ids", *ids,
                         "--out", str(out)]) == 0
            with open(out / "estimates.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            got = {(int(r["location_id"]), r["estimator"], r["method"], int(r["n"])):
                   (r["value_m"], r["flag"]) for r in rows}
            assert len(got) == len(rows) == len(want)
            assert got == {key: ("" if value is None else format(value, ".10g"), flag)
                           for key, (value, flag) in want.items()}

    @settings(max_examples=5, deadline=None)
    @given(first=st.integers(-10**6, 10**6), gaps=st.integers(0, 2**32 - 1))
    def test_estimates_monotone_event_relabelling(self, estimates_world, first, gaps):
        inputs, base = estimates_world
        _, footprints = relabelled(inputs["footprints.csv"], first, gaps)
        with tempfile.TemporaryDirectory() as tmp:
            assert run_estimates(Path(tmp), {**inputs, "footprints.csv": footprints}) == base

    @settings(max_examples=5, deadline=None)
    @given(new_id=st.integers(36, 10**6), data=st.data())
    def test_estimates_added_location_without_footprint(self, estimates_world, new_id, data):
        inputs, base = estimates_world
        locations = list(inputs["locations.csv"])
        locations.insert(data.draw(st.integers(1, len(locations))), f"{new_id},-61.0,16.0,")
        with tempfile.TemporaryDirectory() as tmp:
            assert run_estimates(Path(tmp), {**inputs, "locations.csv": locations}) == base

    def test_scaled_swh_scales_every_estimate(self, stm_world, estimates_world, tmp_path):
        # doubling is exact in binary, and repr writes the doubled input
        # exactly: EMPIRICAL and SINGLE PWM double up to the rounding of the
        # two prints, STME and SINGLE MLE within the bounds of TestScaling
        inputs, base = estimates_world
        footprints = [inputs["footprints.csv"][0]]
        for line in inputs["footprints.csv"][1:]:
            event, loc, swh = line.split(",")
            footprints.append(f"{event},{loc},{2.0 * float(swh)!r}")
        scaled = {**inputs, "footprints.csv": footprints}
        got = run_estimates(tmp_path, scaled)
        checked = set()
        for name in ("estimates.csv", "results.csv"):
            want_rows, got_rows = value_rows(base[name]), value_rows(got[name])
            assert got_rows.keys() == want_rows.keys(), name
            for key, text in got_rows.items():
                row, want = dict(key), want_rows[key]
                assert (text == "") == (want == ""), (name, row)
                if not text:
                    continue
                estimator, method = row["estimator"], row["method"]
                bound = half_unit(text) + 2.0 * half_unit(want)
                if method == "MLE":
                    bound += 2.0 * float(want) * mle_tolerance(int(row["n"]), CLI_T, CLI_T0)
                if estimator == "STME":
                    bound += 3.0 * BISECTION_TOL
                assert abs(float(text) - 2.0 * float(want)) <= bound, (name, row)
                checked.add((estimator, method))
        assert checked == {("EMPIRICAL", ""), *((e, m) for e in ("STME", "SINGLE")
                                                for m in ("MLE", "PWM"))}
        # stm_m is one of the input values, so it doubles to the last digit
        stm_base, stm_scaled = stm_world[1], run_stm(tmp_path, scaled)
        assert stm_scaled["exposures.csv"] == stm_base["exposures.csv"]
        rows = [list(csv.reader(data.decode().splitlines()))
                for data in (stm_base["stm.csv"], stm_scaled["stm.csv"])]
        assert [row[1] for row in rows[1][1:]] == [format(2.0 * float(row[1]), ".10g")
                                                   for row in rows[0][1:]]
        assert [row[::2] for row in rows[1]] == [row[::2] for row in rows[0]]
