import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path

import pytest

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stme.cli import (
    _OPTIONS, _cells, _jobs, _seed, _settings, _sha256, _write_csv, finite, build_parser,
    load_config, main, UsageError,
)
from stme.experiments import MIN_CHUNK_REPLICATES
import stme.cli
import stme.diagnostics
import stme.experiments


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Small synthetic catalog shared by the CLI tests."""
    out = tmp_path_factory.mktemp("world")
    code = run(["synth", "--out", out, "--years", "800", "--seed", "1"])
    assert code == 0
    return out


@pytest.fixture
def small_world(tmp_path):
    """Hand-made catalog: location 1 is hit by all 12 events, location 2 only
    by the three largest, too few for a single-location fit at n = 6."""
    swh = [3.1, 4.7, 2.2, 5.9, 3.8, 6.4, 2.9, 7.7, 4.1, 5.2, 9.3, 3.5]
    rows = [f"{e},1,{v}" for e, v in enumerate(swh, start=1)]
    rows += [f"{e},2,{0.5 * swh[e - 1]}" for e in (6, 8, 11)]
    (tmp_path / "footprints.csv").write_text(
        "cyclone_id,location_id,max_swh_m\n" + "\n".join(rows) + "\n"
    )
    (tmp_path / "locations.csv").write_text(
        "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,120\n2,-61.3,16.0,80\n"
    )
    return ["--footprints", tmp_path / "footprints.csv",
            "--locations", tmp_path / "locations.csv", "--duration", "20"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "locations.csv").exists()
        assert (synth_dir / "footprints.csv").exists()
        meta = json.loads((synth_dir / "metadata.json").read_text())
        assert meta["command"] == "synth"
        assert meta["config"]["seed"] == 1

    def test_schema(self, synth_dir):
        locs = read_csv(synth_dir / "locations.csv")
        assert list(locs[0]) == ["location_id", "lon_deg", "lat_deg", "depth_m"]
        fps = read_csv(synth_dir / "footprints.csv")
        assert list(fps[0]) == ["cyclone_id", "location_id", "max_swh_m"]
        assert all(float(r["max_swh_m"]) >= 0 for r in fps[:200])

    def test_seed_reproducible(self, synth_dir, tmp_path):
        out = tmp_path / "again"
        assert run(["synth", "--out", out, "--years", "800", "--seed", "1"]) == 0
        assert (out / "footprints.csv").read_bytes() == (synth_dir / "footprints.csv").read_bytes()

    def test_different_seed_differs(self, synth_dir, tmp_path):
        out = tmp_path / "other"
        assert run(["synth", "--out", out, "--years", "800", "--seed", "2"]) == 0
        assert (out / "footprints.csv").read_bytes() != (synth_dir / "footprints.csv").read_bytes()

    @pytest.mark.parametrize("args, message", [
        (["--years", "1e300"], "6e+299 events x 35 locations: a table of 1.68e+302 bytes"),
        (["--years", "1e12"], "6e+11 events x 35 locations: a table of 1.68e+14 bytes"),
        (["--config", "empty.ini"], "empty grid: lon 0.0..-1.0, lat 15.8..16.6"),
        (["--years", "0.5"], "0 events in 0.5 years at rate 0.6 a year: the world is empty"),
        (["--rate", "1e-300"], "0 events in 3200 years at rate 1e-300 a year"),
        (["--years", "0.5", "--poisson", "--seed", "1"], "0 events in 0.5 years at rate 0.6"),
    ])
    def test_oversized_or_empty_world_exit_2(self, tmp_path, capsys, args, message):
        (tmp_path / "empty.ini").write_text("[synth]\nlon_min = 0\nlon_max = -1\n")
        args = [tmp_path / a if a.endswith(".ini") else a for a in args]
        assert run(["synth", "--out", tmp_path / "world", *args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "world").exists()

    def test_oversized_grid_exit_2_under_a_memory_limit(self, tmp_path):
        # without the size check this grid is a list of about 10**12 points, so
        # the child runs under a 1 GiB address-space limit
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
               "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        out = subprocess.run(
            [sys.executable, "-m", "stme.cli", "synth", "--out", str(tmp_path / "world"),
             "--spacing", "1e-6"],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120)
        assert out.returncode == 2, out.stderr
        assert "1920 events x 9.60002e+11 locations: a table of" in out.stderr

    @pytest.mark.parametrize("text, printed", [
        ("", "error: out of memory\n"),
        ("Unable to allocate 8 TiB", "error: out of memory: Unable to allocate 8 TiB\n"),
    ])
    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch, text, printed):
        def synth_catalog(world):
            raise MemoryError(text)

        monkeypatch.setattr("stme.cli.synth_catalog", synth_catalog)
        assert run(["synth", "--out", tmp_path / "world"]) == 2
        assert capsys.readouterr().err == printed


    def test_cells_format_as_fmt(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 30, (40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
        values[rng.uniform(size=values.shape) < 0.3] = np.nan
        values[0, :2] = [0.0, 5e-324]
        event_ids, location_ids = np.arange(-20, 20) * 3, [9, 1, 2**63 - 1, 4, 5, -6, 7]
        _write_csv(tmp_path / "a.csv", ["e", "j", "v"], _cells(event_ids, location_ids, values))
        rows = [
            (e, j, v) for e, row in zip(event_ids.tolist(), values.tolist())
            for j, v in zip(location_ids, row) if not np.isnan(v)
        ]
        _write_csv(tmp_path / "b.csv", ["e", "j", "v"], [zip(*rows)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestStm:
    def test_round_trip(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "stm"
        code = run([
            "stm", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv",
            "--duration", "800", "--out", out,
        ])
        assert code == 0
        stm_rows = read_csv(out / "stm.csv")
        assert len(stm_rows) == 480  # 0.6/yr * 800 yr
        exp_rows = read_csv(out / "exposures.csv")
        # every exposure lies in (0, 1]; the argmax row hits exactly 1
        by_event = {}
        for r in exp_rows:
            v = float(r["exposure"])
            assert 0.0 < v <= 1.0
            by_event.setdefault(r["cyclone_id"], []).append(v)
        for vals in by_event.values():
            assert max(vals) == 1.0

    def test_unknown_region_id_exit_2(self, synth_dir, tmp_path, capsys):
        code = run([
            "stm", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "o", "--location-ids", "1", "999",
        ])
        assert code == 2
        assert "region locations [999] not in catalog" in capsys.readouterr().err
        assert not (tmp_path / "o" / "stm.csv").exists()

    def test_unreadable_inputs_exit_2(self, small_world, tmp_path, capsys):
        fp = tmp_path / "footprints.csv"
        inputs = [str(a) for a in small_world]
        # a directory instead of a file
        args = ["stm", *inputs, "--out", tmp_path / "o"]
        args[args.index(str(fp))] = tmp_path
        assert run(args) == 2
        assert "Is a directory" in capsys.readouterr().err
        # a byte that is not UTF-8
        fp.write_bytes(fp.read_bytes().replace(b"3,1,2.2", b"3,1,2.\xff2"))
        assert run(["stm", *inputs, "--out", tmp_path / "o"]) == 2
        assert "footprints.csv:4: bad max_swh_m" in capsys.readouterr().err

    def test_non_finite_depth_exit_2(self, small_world, tmp_path, capsys):
        loc = tmp_path / "locations.csv"
        loc.write_text(loc.read_text().replace("80", "nan"))
        assert run(["stm", *small_world, "--min-depth", "50", "--out", tmp_path / "o"]) == 2
        assert "locations.csv:3: location 2: invalid depth nan" in capsys.readouterr().err

    def test_missing_inputs_exit_2(self, tmp_path):
        code = run(["stm", "--footprints", tmp_path / "nope.csv",
                    "--locations", tmp_path / "nope2.csv", "--duration", "10",
                    "--out", tmp_path / "o"])
        assert code == 2


class TestFit:
    def test_fit_json(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        code = run([
            "fit", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", out, "--n", "60", "--method", "mle", "--method", "pwm",
        ])
        assert code == 0
        reports = json.loads((out / "fit.json").read_text())
        assert [r["method"] for r in reports] == ["MLE", "PWM"]
        for r in reports:
            assert r["converged"]
            assert r["n"] == 60
            assert r["scale"] > 0

    def test_missing_n_exit_2(self, synth_dir, tmp_path, capsys):
        code = run([
            "fit", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "error: --n or [analysis] n is required" in capsys.readouterr().err
        # options are checked before any input is read or output written
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", ["3", "0"])
    def test_n_below_5_exit_2(self, tmp_path, capsys, n):
        # checked before any input is read: the inputs need not exist
        code = run([
            "fit", "--footprints", tmp_path / "none.csv", "--locations", tmp_path / "none.csv",
            "--duration", "800", "--out", tmp_path / "o", "--n", n,
        ])
        assert code == 2
        assert f"error: n must be >= 5 for a tail fit, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, message", [
    (["fit", "--n", "5000"], "n=5000 outside [1, 480]"),
    (["return-values", "--T", "100", "--T0", "200", "--n", "30"],
     "need T > T0 > 0, got T=100.0, T0=200.0"),
    (["diagnostics", "--band", "1.5"], "band 1.5 outside (0, 1)"),
    (["synth", "--rate", "-1"], "rate, decay_km and intensity_scale must be positive"),
], ids=["fit-n-above-events", "rv-T-below-T0", "diag-band", "synth-rate"])
def test_bad_input_leaves_no_out_directory(synth_dir, tmp_path, capsys, args, message):
    inputs = ["--footprints", synth_dir / "footprints.csv",
              "--locations", synth_dir / "locations.csv", "--duration", "800"]
    code = run([*args, *(inputs if args[0] != "synth" else []), "--out", tmp_path / "o"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestReturnValues:
    def test_estimates_schema(self, synth_dir, tmp_path):
        out = tmp_path / "rv"
        code = run([
            "return-values", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", out, "--T", "200", "--T0", "100", "--n", "30",
            "--estimator", "stme", "--estimator", "single", "--estimator", "empirical",
            "--location-ids", "1", "2",
        ])
        assert code == 0
        rows = read_csv(out / "estimates.csv")
        assert list(rows[0]) == [
            "location_id", "estimator", "method", "n", "T_years", "T0_years",
            "value_m", "flag",
        ]
        kinds = {r["estimator"] for r in rows}
        assert kinds == {"STME", "SINGLE", "EMPIRICAL"}
        for r in rows:
            assert float(r["value_m"]) > 0

    @pytest.mark.parametrize("n, estimators", [
        ("3", ["stme"]), ("4", ["single"]), ("0", ["stme"]), ("-3", ["single"]),
        ("3", ["empirical", "stme"]),
    ])
    def test_n_below_5_exit_2(self, tmp_path, capsys, n, estimators):
        # checked before any input is read, as fit does: the inputs need not exist
        code = run(["return-values", "--footprints", tmp_path / "none.csv",
                    "--locations", tmp_path / "none.csv", "--duration", "800",
                    "--out", tmp_path / "o", "--T", "500", "--T0", "200", "--n", n,
                    *(a for e in estimators for a in ("--estimator", e))])
        assert code == 2
        assert f"error: n must be >= 5 for a tail fit, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("periods, message", [
        (["--T", "100", "--T0", "200"], "need T > T0 > 0, got T=100.0, T0=200.0"),
        (["--T", "500"], "need T > T0 > 0, got T=500.0, T0=800.0"),  # T0 from --duration
    ], ids=["T-below-T0", "T-below-duration"])
    def test_periods_checked_before_reading_input(self, tmp_path, capsys, periods, message):
        code = run(["return-values", "--footprints", tmp_path / "none.csv",
                    "--locations", tmp_path / "none.csv", "--duration", "800",
                    "--out", tmp_path / "o", "--n", "30", *periods])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_n_below_5_with_empirical_only_is_not_checked(self, synth_dir, tmp_path):
        out = tmp_path / "rv"
        assert run(["return-values", "--footprints", synth_dir / "footprints.csv",
                    "--locations", synth_dir / "locations.csv", "--duration", "800",
                    "--out", out, "--T", "200", "--n", "3", "--estimator", "empirical",
                    "--location-ids", "1"]) == 0
        assert [r["estimator"] for r in read_csv(out / "estimates.csv")] == ["EMPIRICAL"]

    def test_failed_cell_is_a_row(self, small_world, tmp_path, capsys):
        out = tmp_path / "rv"
        code = run(["return-values", *small_world, "--out", out, "--T", "100", "--n", "6",
                    "--method", "pwm", "--estimator", "single", "--estimator", "stme"])
        assert code == 0
        assert "wrote 4 estimates" in capsys.readouterr().out
        rows = read_csv(out / "estimates.csv")
        assert [(r["location_id"], r["estimator"], r["method"]) for r in rows] == [
            ("1", "STME", "PWM"), ("2", "STME", "PWM"), ("1", "SINGLE", "PWM"),
            ("2", "SINGLE", "PWM"),
        ]
        for r in rows[:3]:
            assert float(r["value_m"]) > 0 and r["flag"] in ("", "at_upper_bound")
        assert rows[3]["value_m"] == ""
        assert rows[3]["flag"] == "location 2: n=6 exceeds 3 values"
        assert all((r["n"], r["T_years"], r["T0_years"]) == ("6", "100", "20") for r in rows)

    def test_no_value_at_all_exit_1(self, small_world, tmp_path, capsys):
        cfg = tmp_path / "only2.ini"
        cfg.write_text("[analysis]\nlocation_ids = 2\n")
        out = tmp_path / "rv"
        code = run(["return-values", *small_world, "--config", cfg, "--out", out,
                    "--T", "100", "--n", "6", "--estimator", "single"])
        assert code == 1
        assert "no estimate has a value" in capsys.readouterr().err
        rows = read_csv(out / "estimates.csv")
        assert [(r["location_id"], r["value_m"]) for r in rows] == [("2", "")]

    def test_tied_stm_tail_is_a_row(self, tmp_path, capsys):
        # the six largest values tie, so every excess over the threshold is equal
        swh = [1.0, 2.0, 3.0, 4.0, 4.5, 4.8] + [5.0] * 6
        rows = [f"{e},1,{v}" for e, v in enumerate(swh, start=1)]
        (tmp_path / "footprints.csv").write_text(
            "cyclone_id,location_id,max_swh_m\n" + "\n".join(rows) + "\n"
        )
        (tmp_path / "locations.csv").write_text(
            "location_id,lon_deg,lat_deg,depth_m\n1,-61.5,16.2,\n2,-61.3,16.0,\n"
        )
        args = ["return-values", "--footprints", tmp_path / "footprints.csv",
                "--locations", tmp_path / "locations.csv", "--duration", "20", "--T", "100",
                "--n", "5", "--method", "pwm", "--estimator", "stme", "--estimator", "single"]
        tie = "degenerate sample: all exceedances equal"
        code = run([*args, "--location-ids", "1", "--out", tmp_path / "rv"])
        assert code == 1  # no row has a value
        assert "compute error: no estimate has a value" in capsys.readouterr().err
        rows = read_csv(tmp_path / "rv" / "estimates.csv")
        assert [(r["estimator"], r["value_m"], r["flag"]) for r in rows] == [
            ("STME", "", f"tail fit failed: {tie}"), ("SINGLE", "", tie),
        ]
        # location 2, below location 1 in every event, leaves the STM tail tied
        # and has a tail of its own
        rows = [f"{e},2,{v * e / 24}" for e, v in enumerate(swh, start=1)]
        with open(tmp_path / "footprints.csv", "a") as fh:
            fh.write("\n".join(rows) + "\n")
        assert run([*args, "--out", tmp_path / "rv2"]) == 0
        rows = read_csv(tmp_path / "rv2" / "estimates.csv")
        assert [(r["location_id"], r["estimator"], r["flag"]) for r in rows[:3]] == [
            ("1", "STME", f"tail fit failed: {tie}"), ("2", "STME", f"tail fit failed: {tie}"),
            ("1", "SINGLE", tie),
        ]
        assert float(rows[3]["value_m"]) > 0

    def test_empirical_failure_is_a_row(self, small_world, tmp_path, capsys):
        out = tmp_path / "rv"
        args = ["return-values", *small_world, "--T", "8", "--T0", "5", "--n", "6",
                "--method", "pwm", "--estimator", "stme", "--estimator", "empirical"]
        assert run([*args, "--out", out]) == 0
        assert "wrote 4 estimates to" in capsys.readouterr().out
        rows = read_csv(out / "estimates.csv")
        assert [(r["location_id"], r["estimator"]) for r in rows] == [
            ("1", "STME"), ("2", "STME"), ("1", "EMPIRICAL"), ("2", "EMPIRICAL"),
        ]
        assert all(float(r["value_m"]) > 0 for r in rows[:3])
        assert (rows[3]["value_m"], rows[3]["flag"]) == (
            "", "location 2: series too short (3 <= ceil(2.5))"
        )
        # a failed EMPIRICAL row counts toward "no value at all"
        cfg = tmp_path / "only2.ini"
        cfg.write_text("[analysis]\nlocation_ids = 2\n")
        code = run(["return-values", *small_world, "--config", cfg, "--out", tmp_path / "o2",
                    "--T", "8", "--n", "6", "--estimator", "empirical"])
        assert code == 1
        # a return period the catalog does not span is an error of the command
        code = run(["return-values", *small_world, "--out", tmp_path / "o3", "--T", "20",
                    "--n", "6", "--estimator", "empirical"])
        assert code == 2
        assert "need T_L > T > 0, got T_L=20.0, T=20.0" in capsys.readouterr().err
        assert not (tmp_path / "o3" / "estimates.csv").exists()

    def test_empirical_alone_needs_no_n(self, small_world, tmp_path):
        out = tmp_path / "rv"
        code = run(["return-values", *small_world, "--out", out, "--T", "8",
                    "--estimator", "empirical"])
        assert code == 0
        rows = read_csv(out / "estimates.csv")
        assert [(r["location_id"], r["estimator"]) for r in rows] == [
            ("1", "EMPIRICAL"), ("2", "EMPIRICAL")]
        assert json.loads((out / "metadata.json").read_text())["config"]["n"] is None

    @pytest.mark.parametrize("estimators", [["stme"], ["single"], ["empirical", "stme"]])
    def test_fitted_estimator_needs_n_before_reading_input(self, tmp_path, capsys, estimators):
        out = tmp_path / "rv"
        code = run(["return-values", "--footprints", tmp_path / "missing.csv",
                    "--locations", tmp_path / "missing.csv", "--duration", "20",
                    "--out", out, "--T", "8",
                    *[a for e in estimators for a in ("--estimator", e)]])
        assert code == 2
        assert "--n or [analysis] n is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["stme", "single", "empirical"])
    def test_location_outside_region_exit_2(self, small_world, tmp_path, capsys, estimator):
        cfg = tmp_path / "ids.ini"
        cfg.write_text("[analysis]\nlocation_ids = 1 999\n")
        code = run(["return-values", *small_world, "--config", cfg, "--out", tmp_path / "o",
                    "--T", "10", "--T0", "5", "--n", "6", "--estimator", estimator])
        assert code == 2
        assert "locations [999] not in region" in capsys.readouterr().err
        assert not (tmp_path / "o" / "estimates.csv").exists()

    def test_bad_period_exit_2(self, synth_dir, tmp_path):
        code = run([
            "return-values", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "o", "--T", "50", "--T0", "100", "--n", "30",
        ])
        assert code == 2


class TestDiagnostics:
    def test_report(self, synth_dir, tmp_path):
        out = tmp_path / "diag"
        code = run([
            "diagnostics", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", out, "--n-perm", "99", "--n-null", "100", "--seed", "0",
        ])
        assert code == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert 0.0 <= report["tau_exceedance_fraction"] <= 1.0
        assert set(report["trend_p_values"]) == {"0.0", "45.0", "90.0", "135.0"}
        assert all(0 < p <= 1 for p in report["trend_p_values"].values())
        assert 0.0 <= report["kl"]["non_exceedance"] <= 1.0
        tau_rows = read_csv(out / "tau_map.csv")
        assert {r["flag"] for r in tau_rows} <= {"inside", "above", "below"}

    @pytest.mark.parametrize("flag, value", [("--band", "1.5"), ("--n-perm", "5"),
                                             ("--n-null", "5")])
    def test_invalid_setting_exit_2(self, synth_dir, tmp_path, capsys, flag, value):
        code = run([
            "diagnostics", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "diag", flag, value,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-perm", "5", "need n_perm >= 99"), ("--n-null", "5", "need n_null >= 100"),
        ("--n-null", "1000000000", "null sample cap"),
        ("--band", "1.5", "band 1.5 outside (0, 1)"), ("--band", "0", "band 0.0 outside (0, 1)"),
    ])
    def test_sample_sizes_checked_before_the_catalog_is_read(self, tmp_path, capsys, flag,
                                                             value, message):
        # the inputs do not exist, so a size (or band) error shows that the
        # settings came first (and nothing was allocated for them either way)
        code = run([
            "diagnostics", "--footprints", tmp_path / "missing.csv",
            "--locations", tmp_path / "missing.csv", "--duration", "800",
            "--out", tmp_path / "diag", flag, value,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("min_stm", ["17", "14.5"], ids=["4-events", "9-events"])
    def test_min_stm_keeps_the_events_the_trend_test_needs(self, synth_dir, tmp_path, capsys,
                                                           monkeypatch, min_stm):
        # fewer STM values above --min-stm than the trend test takes exit 2 at
        # that check, before tau_map runs
        mapped = []
        monkeypatch.setattr(stme.cli, "tau_map", lambda *args, **kwargs: mapped.append(args))
        code = run([
            "diagnostics", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "diag", "--min-stm", min_stm,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: fewer than 10 STM values above {float(min_stm)} m\n")
        assert mapped == [] and not (tmp_path / "diag").exists()

    def test_ks_aggregation_gate_is_the_diagnostics_minimum(self, synth_dir, tmp_path,
                                                            monkeypatch):
        # the default four orientations give four trend p-values: too few for
        # the KS aggregation at its minimum of 5, enough at 4
        reports = []
        for least in (5, 4):
            monkeypatch.setattr(stme.diagnostics, "MIN_KS_PROBABILITIES", least)
            out = tmp_path / str(least)
            assert run([
                "diagnostics", "--footprints", synth_dir / "footprints.csv",
                "--locations", synth_dir / "locations.csv", "--duration", "800",
                "--out", out, "--n-perm", "99", "--n-null", "100",
            ]) == 0
            reports.append(json.loads((out / "diagnostics.json").read_text()))
        assert "trend_ks_uniformity" not in reports[0]
        assert 0.0 <= reports[1]["trend_ks_uniformity"]["p_value"] <= 1.0

    @pytest.mark.parametrize("extra", [(), ("--min-stm", "6")])
    def test_footprint_table_released_before_tau_map(self, synth_dir, tmp_path, monkeypatch,
                                                     extra):
        # from tau_map on, the exposure matrix is the one events x locations
        # table held: every footprint table, unfiltered or filtered, is gone;
        # when numpy.random is first asked for a generator, the exposure
        # matrix is gone as well
        import stme.cli

        tables, matrices, alive, alive_at_rng = [], [], [], []
        region_catalog, extract_exposures = stme.cli._region_catalog, stme.cli.extract_exposures
        tau_map, default_rng = stme.cli.tau_map, np.random.default_rng

        def loaded(s):
            catalog = region_catalog(s)
            tables.append(weakref.ref(catalog.swh))
            return catalog

        def exposures(catalog, stm):
            tables.append(weakref.ref(catalog.swh))
            matrix = extract_exposures(catalog, stm)
            matrices.append(weakref.ref(matrix.values))
            return matrix

        def mapped(*args, **kwargs):
            alive.extend(table() is not None for table in tables)
            return tau_map(*args, **kwargs)

        def generator(*args, **kwargs):
            alive_at_rng.append([ref() is not None for ref in tables + matrices])
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(stme.cli, "_region_catalog", loaded)
        monkeypatch.setattr(stme.cli, "extract_exposures", exposures)
        monkeypatch.setattr(stme.cli, "tau_map", mapped)
        monkeypatch.setattr(np.random, "default_rng", generator)
        code = run([
            "diagnostics", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "diag", "--n-perm", "99", "--n-null", "100", *extra,
        ])
        assert code == 0
        assert len(tables) == 2 and alive == [False, False]
        assert len(matrices) == 1 and alive_at_rng[0] == [False, False, False]
        if extra:  # --min-stm filtered the table: exposures came from a new one
            assert tables[0] is not tables[1]


class TestNonFiniteNumber:
    @pytest.mark.parametrize("command, argv", [
        ("experiment", ["--T", "9.5", "--T0", "9", "--n", "5", "--duration", "nan"]),
        ("stm", ["--duration", "nan"]),
        ("return-values", ["--T", "inf", "--n", "6", "--estimator", "single"]),
        ("diagnostics", ["--lon-min=-inf"]),
        ("synth", ["--rate", "nan"]),
    ], ids=lambda x: x if isinstance(x, str) else " ".join(x))
    def test_flag_exit_2(self, small_world, tmp_path, capsys, command, argv):
        inputs = [] if command == "synth" else small_world
        with pytest.raises(SystemExit) as exit:
            run([command, *inputs, "--out", tmp_path / "o", *argv])
        assert exit.value.code == 2
        assert "invalid finite value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_value_exit_2(self, small_world, tmp_path, capsys):
        cfg = tmp_path / "nan.ini"
        cfg.write_text("[analysis]\nT = nan\n")
        code = run(["return-values", *small_world, "--config", cfg, "--out", tmp_path / "o",
                    "--n", "6"])
        assert code == 2
        assert "config [analysis] T: not a finite number: 'nan'" in capsys.readouterr().err


class TestNegativeSeed:
    ARGV = {"synth": ["--years", "50"],
            "diagnostics": ["--n-perm", "99"],
            "experiment": ["--T", "500", "--T0", "100", "--n", "10", "--replicates", "2"]}

    @pytest.mark.parametrize("command, seed", [("synth", "-1"), ("diagnostics", "-5"),
                                               ("experiment", "-1")])
    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_exit_2_before_reading_or_writing(self, tmp_path, capsys, command, seed, by):
        # the inputs do not exist: the seed is rejected before they are read
        inputs = [] if command == "synth" else [
            "--footprints", tmp_path / "none.csv", "--locations", tmp_path / "none.csv",
            "--duration", "800"]
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[{'synth' if command == 'synth' else 'experiment'}]\nseed = {seed}\n")
        chosen = ["--seed", seed] if by == "flag" else ["--config", cfg]
        out = tmp_path / "o"
        try:
            code = run([command, *inputs, *self.ARGV[command], *chosen, "--out", out])
        except SystemExit as exit:  # argparse rejects the flag itself
            code = exit.code
        assert code == 2
        assert f"seed must be non-negative, got {seed}" in capsys.readouterr().err
        assert not out.exists()


# flag -> (ordinary values, edge values). The synth_dir world is 800 years
# long, so a --T0 of 1e300 lies above its duration. Sizes stay small: at most
# 3 replicates, 199 permutations and 200 null draws.
_VALUES = {
    "--duration": (["800", "1600"], ["0", "-800", "1e300"]),
    "--T": (["300", "500"], ["0", "-1", "1e300"]),
    "--T0": (["200", "50"], ["0", "-1", "1e300"]),
    "--n": (["5", "30"], ["0", "-3", "4", "1000", "1.5"]),
    "--method": (["mle", "pwm"], ["x"]),
    "--estimator": (["stme", "single"], ["empirical", "x"]),  # experiment rejects empirical
    "--location-ids": (["1", "35"], ["0", "-1", "99"]),
    "--min-depth": (["0", "500"], ["-1", "1e300"]),
    "--replicates": (["2", "3"], ["0", "-1", "1"]),
    "--jobs": (["1", "2"], []),
    "--seed": (["0", "7"], ["-1"]),
    "--n-perm": (["99", "199"], ["0", "-1", "19"]),
    "--n-null": (["100", "200"], ["0", "-1", "50"]),
    "--band": (["0.9", "0.5"], ["0", "1", "1.5"]),
}
# command -> flag -> whether an ordinary run passes it: the command needs it,
# or its default lies above the sizes
_FLAGS = {
    "stm": {"--min-depth": False, "--location-ids": False},
    "fit": {"--n": True, "--method": False, "--min-depth": False},
    "return-values": {"--T": True, "--T0": True, "--n": True, "--method": False,
                      "--estimator": False, "--location-ids": False},
    "diagnostics": {"--seed": False, "--n-perm": True, "--n-null": True, "--band": False,
                    "--min-depth": False},
    "experiment": {"--T": True, "--T0": True, "--n": True, "--method": False,
                   "--estimator": False, "--location-ids": False, "--replicates": True,
                   "--jobs": False, "--seed": False},
}


@st.composite
def command_lines(draw):
    """A catalog command with ordinary values, except at up to two flags
    that get edge values or go missing. A flag may be given twice; argparse
    keeps the last value, or both for a list flag such as --n."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {"--duration": True, **_FLAGS[command]}
    edged = draw(st.sets(st.sampled_from([f for f in flags if _VALUES[f][1]]), max_size=2))
    argv = [command]
    for flag, needed in flags.items():
        ordinary, edge = _VALUES[flag]
        values = draw(st.lists(st.sampled_from(edge), max_size=2) if flag in edged else
                      st.lists(st.sampled_from(ordinary), min_size=needed, max_size=2))
        argv += [a for value in values for a in (flag, value)]
    return argv


class TestExitCodes:
    @settings(max_examples=40, deadline=None)
    @given(argv=command_lines())
    @example(argv=["stm", "--duration", "800"])
    @example(argv=["fit", "--duration", "800", "--n", "30"])
    @example(argv=["return-values", "--duration", "800", "--T", "500", "--T0", "200",
                   "--n", "30", "--estimator", "stme", "--estimator", "single"])
    @example(argv=["return-values", "--duration", "800", "--T", "300", "--T0", "200",
                   "--n", "-3", "--estimator", "single"])
    @example(argv=["diagnostics", "--duration", "800", "--n-perm", "99", "--n-null", "100"])
    @example(argv=["experiment", "--duration", "800", "--T", "500", "--T0", "200",
                   "--n", "30", "--replicates", "3", "--jobs", "2"])
    def test_exit_0_1_or_2(self, synth_dir, argv):
        """Every command line ends in exit 0, 1 or 2 (argparse's SystemExit(2)
        included); any other exception is a traceback the user would see."""
        inputs = ["--footprints", synth_dir / "footprints.csv",
                  "--locations", synth_dir / "locations.csv"]
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            try:
                code = run([*argv, *inputs, "--out", Path(tmp) / "out"])
            except SystemExit as exit:
                assert exit.code == 2, argv
                code = 2
        assert code in (0, 1, 2), argv


# Runs `import stme.cli`, then each argument list of argv[1] (JSON) through
# main, and prints the loaded module names after each step as one JSON line.
_FRESH_RUN = (
    "import json, sys; from stme.cli import main; seen = [sorted(sys.modules)]\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    code = main(argv)\n"
    "    if code: sys.exit(code)\n"
    "    seen.append(sorted(sys.modules))\n"
    "print(json.dumps(seen))"
)


def fresh_modules(*argvs, cwd=None) -> list[set[str]]:
    """The modules loaded in a fresh interpreter after `import stme.cli`, then
    after each of `argvs` run through `main` in turn; each run must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argvs = json.dumps([[str(a) for a in argv] for argv in argvs])
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, argvs], capture_output=True,
                         text=True, env=env, cwd=cwd)
    assert out.returncode == 0, out.stderr
    return [set(names) for names in json.loads(out.stdout.splitlines()[-1])]


class TestImports:
    def catalog_args(self, synth_dir):
        return ["--footprints", synth_dir / "footprints.csv",
                "--locations", synth_dir / "locations.csv", "--duration", "800"]

    def test_cli_does_not_import_scipy(self):
        (loaded,) = fresh_modules()
        assert not [m for m in loaded if m.startswith("scipy")]

    def test_diagnostics_does_not_import_scipy(self, synth_dir, tmp_path):
        # neither with the default four orientations nor with five, which add
        # the KS aggregation of the trend p-values
        args = ["diagnostics", *self.catalog_args(synth_dir), "--n-perm", "99", "--n-null", "100"]
        five = [f"--orientation={d}" for d in (0, 30, 60, 90, 120)]
        _, _, loaded = fresh_modules([*args, "--out", tmp_path / "a"],
                                     [*args, *five, "--out", tmp_path / "b"])
        assert not [m for m in loaded if m.startswith("scipy")]
        assert "trend_ks_uniformity" not in json.loads(
            (tmp_path / "a" / "diagnostics.json").read_text())
        report = json.loads((tmp_path / "b" / "diagnostics.json").read_text())
        assert len(report["trend_p_values"]) == 5
        assert 0.0 <= report["trend_ks_uniformity"]["p_value"] <= 1.0

    def test_diagnostics_same_with_scipy_imported_late(self, synth_dir, tmp_path):
        # a fresh process never imports scipy; this one has it imported, as
        # the tests' oracle, and the outputs must not depend on that
        import scipy.stats  # noqa: F401

        args = ["diagnostics", *self.catalog_args(synth_dir), "--n-perm", "99",
                "--n-null", "100", "--seed", "3"]
        fresh_modules([*args, "--out", tmp_path / "a"])
        assert run([*args, "--out", tmp_path / "b"]) == 0
        for name in ("diagnostics.json", "tau_map.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_runtime_needs_only_numpy(self):
        # every import in src/stme is of the standard library, numpy or stme
        # itself, and pyproject.toml lists numpy alone as a dependency; the
        # built-in SHA-256 is _sha2 from Python 3.12 on and _sha256 before,
        # and each interpreter lists only its own name as standard
        import ast

        root = Path(__file__).parents[1]
        allowed = set(sys.stdlib_module_names) | {"_sha2", "_sha256", "numpy", "stme"}
        found = set()
        for path in (root / "src" / "stme").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    found.add(node.module.split(".")[0])
        assert "numpy" in found and found <= allowed, sorted(found - allowed)
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        dependencies = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
        assert re.findall(r'"([^"]*)"', dependencies.group(1)) == ["numpy>=1.24"]

    def test_experiment_does_not_import_numpy_ma(self, synth_dir, tmp_path):
        # np.percentile imports numpy.ma through np.unique; summarize does not
        _, loaded = fresh_modules([
            "experiment", *self.catalog_args(synth_dir), "--T", "200", "--T0", "100",
            "--n", "10", "--replicates", "4", "--location-ids", "1", "2",
            "--out", tmp_path / "exp"])
        assert not [m for m in loaded if m.split(".")[:2] == ["numpy", "ma"]]
        assert (tmp_path / "exp" / "summary.csv").read_text().count("\n") > 1

    def test_catalog_commands_do_not_load_openssl(self, synth_dir, tmp_path):
        # hashlib loads OpenSSL (_hashlib); only experiment hashes its inputs
        heads = (["stm"], ["fit", "--n", "20"],
                 ["return-values", "--T", "500", "--T0", "200", "--n", "20",
                  "--estimator", "stme", "--estimator", "single"])
        loaded = fresh_modules(*([*head, *self.catalog_args(synth_dir), "--out", f"out{i}"]
                                 for i, head in enumerate(heads)), cwd=tmp_path)
        assert ["_hashlib" in names for names in loaded] == [False] * 4

    def test_jobs_coordinator_loads_no_openssl(self, synth_dir, tmp_path):
        # the manifest digests come from CPython's built-in SHA-256, and the
        # random draws happen in the workers only
        _, loaded = fresh_modules([
            "experiment", *self.catalog_args(synth_dir), *TestExperiment.ARGS,
            "--jobs", "2", "--out", tmp_path / "exp"])
        assert "_hashlib" not in loaded and "numpy.random" not in loaded
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        assert len(manifest["footprints_sha256"]) == 64


class TestExperiment:
    ARGS = ["--T", "200", "--T0", "100", "--n", "10", "--method", "pwm",
            "--replicates", "4", "--seed", "9", "--location-ids", "1", "2"]

    def run_experiment(self, synth_dir, out, extra=()):
        return run([
            "experiment", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", out, *self.ARGS, *extra,
        ])

    def test_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "exp"
        assert self.run_experiment(synth_dir, out) == 0
        for name in ("results.csv", "summary.csv", "metrics.csv", "metadata.json"):
            assert (out / name).exists()
        reps = sorted(os.listdir(out / "replicates"))
        assert reps == [f"rep_{i:04d}.csv" for i in range(4)]

    def test_manifest_hashes_inputs(self, synth_dir, tmp_path):
        import hashlib

        assert self.run_experiment(synth_dir, tmp_path / "exp") == 0
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        for name in ("footprints", "locations"):
            digest = hashlib.sha256((synth_dir / f"{name}.csv").read_bytes()).hexdigest()
            assert manifest[f"{name}_sha256"] == digest

    def test_manifest_with_hashlib_digests_resumes(self, synth_dir, tmp_path, capsys):
        # manifests written while the digests came from hashlib still match
        import hashlib

        out = tmp_path / "exp"
        assert self.run_experiment(synth_dir, out) == 0
        ref = (out / "results.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        for name in ("footprints", "locations"):
            data = (synth_dir / f"{name}.csv").read_bytes()
            manifest[f"{name}_sha256"] = hashlib.sha256(data).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (out / "replicates" / "rep_0001.csv").unlink()
        capsys.readouterr()
        assert self.run_experiment(synth_dir, out) == 0
        assert "resuming: 3 completed replicates found" in capsys.readouterr().out
        assert (out / "results.csv").read_bytes() == ref

    def test_manifest_identifies_the_code(self, synth_dir, tmp_path):
        import hashlib

        assert self.run_experiment(synth_dir, tmp_path / "exp") == 0
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        sources = sorted(Path(stme.cli.__file__).parent.glob("*.py"))
        digest = hashlib.sha256(b"".join(path.read_bytes() for path in sources)).hexdigest()
        assert manifest["code"] == {"numpy": np.__version__, "stme": stme.__version__,
                                    "stme_sources_sha256": digest}

    def test_resume_by_other_code_exit_2(self, synth_dir, tmp_path, capsys, monkeypatch):
        # replicates from an edited package (here, a changed source digest)
        # are never mixed with new ones: the rerun stops before any write
        out = tmp_path / "exp"
        assert self.run_experiment(synth_dir, out) == 0
        (out / "replicates" / "rep_0001.csv").unlink()
        files = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}
        code = {**stme.cli._code_version(), "stme_sources_sha256": "0" * 64}
        monkeypatch.setattr(stme.cli, "_code_version", lambda: code)
        capsys.readouterr()
        assert self.run_experiment(synth_dir, out) == 2
        assert f"{out} holds replicates of another experiment: code is" in capsys.readouterr().err
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in out.rglob("*") if p.is_file()} == files

    def test_deterministic_and_jobs_invariant(self, synth_dir, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert self.run_experiment(synth_dir, a) == 0
        assert self.run_experiment(synth_dir, b) == 0
        assert self.run_experiment(synth_dir, c, extra=["--jobs", "3"]) == 0
        for name in ("results.csv", "summary.csv", "metrics.csv"):
            ref = (a / name).read_bytes()
            assert (b / name).read_bytes() == ref
            assert (c / name).read_bytes() == ref

    def test_resume_skips_completed(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "resume"
        assert self.run_experiment(synth_dir, out) == 0
        ref = {name: (out / name).read_bytes()
               for name in ("results.csv", "summary.csv", "metrics.csv")}
        # drop one replicate and rerun: only that one is recomputed
        (out / "replicates" / "rep_0002.csv").unlink()
        assert self.run_experiment(synth_dir, out) == 0
        assert "resuming: 3 completed replicates found" in capsys.readouterr().out
        assert (out / "results.csv").read_bytes() == ref["results.csv"]
        # the same with a process pool, which reports progress as well
        (out / "replicates" / "rep_0000.csv").unlink()
        (out / "replicates" / "rep_0003.csv").unlink()
        assert self.run_experiment(synth_dir, out, extra=["--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "resuming: 2 completed replicates found" in captured.out
        assert "replicate 1/4 done" in captured.err and "replicate 4/4 done" in captured.err
        for name, data in ref.items():
            assert (out / name).read_bytes() == data

    def test_repeated_list_values_give_one_cell_each(self, synth_dir, tmp_path, capsys):
        # repeats are dropped where the cells are decided, so both runs record
        # the same experiment, and each can resume the other
        once, twice = tmp_path / "once", tmp_path / "twice"
        repeats = ["--n", "10", "--method", "pwm", "--estimator", "stme", "--estimator",
                   "single", "--estimator", "stme"]
        assert self.run_experiment(synth_dir, once) == 0
        assert self.run_experiment(synth_dir, twice, extra=repeats) == 0
        files = sorted(p.relative_to(once) for p in once.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(twice) for p in twice.rglob("*") if p.is_file())
        assert {"manifest.json", ".lock"} <= set(map(str, files)) and len(files) == 10
        for name in files:
            assert (once / name).read_bytes() == (twice / name).read_bytes(), name
        (twice / "replicates" / "rep_0001.csv").unlink()
        capsys.readouterr()
        assert self.run_experiment(synth_dir, twice) == 0
        assert "resuming: 3 completed replicates found" in capsys.readouterr().out
        assert (twice / "results.csv").read_bytes() == (once / "results.csv").read_bytes()

    def test_repeated_location_ids_are_recorded_once(self, synth_dir, tmp_path, capsys):
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert self.run_experiment(synth_dir, once) == 0
        assert self.run_experiment(synth_dir, twice, extra=["--location-ids", "1", "1", "2"]) == 0
        manifest = json.loads((twice / "manifest.json").read_text())
        assert manifest["location_ids"] == manifest["region"]["location_ids"] == [1, 2]
        capsys.readouterr()
        assert self.run_experiment(synth_dir, twice) == 0  # ARGS give --location-ids 1 2
        assert "resuming: 4 completed replicates found" in capsys.readouterr().out
        assert (twice / "results.csv").read_bytes() == (once / "results.csv").read_bytes()

    def test_jobs_and_resume_leave_outputs_unchanged(self, synth_dir, tmp_path):
        # the 6 replicates run as one chunk on one worker; a resumed run
        # computes one replicate from the middle of that chunk on its own
        args = ["--T", "200", "--T0", "100", "--n", "10", "--n", "20", "--replicates", "6",
                "--seed", "4", "--location-ids", "1", "2", "3"]
        runs = {name: tmp_path / name for name in ("serial", "jobs2")}
        for name, extra in (("serial", []), ("jobs2", ["--jobs", "2"])):
            assert run(["experiment", "--footprints", synth_dir / "footprints.csv",
                        "--locations", synth_dir / "locations.csv", "--duration", "800",
                        "--out", runs[name], *args, *extra]) == 0
        names = ("results.csv", "summary.csv", "metrics.csv")
        ref = {name: (runs["serial"] / name).read_bytes() for name in names}
        (runs["serial"] / "replicates" / "rep_0002.csv").unlink()
        assert run(["experiment", "--footprints", synth_dir / "footprints.csv",
                    "--locations", synth_dir / "locations.csv", "--duration", "800",
                    "--out", runs["serial"], *args]) == 0
        for out in runs.values():
            assert {name: (out / name).read_bytes() for name in names} == ref

    def test_jobs_2_splits_two_grains_over_two_workers(self, synth_dir, tmp_path, monkeypatch):
        # 2 x MIN_CHUNK_REPLICATES replicates are the fewest that --jobs 2
        # splits: two chunks of replicate indices, one per worker, and the
        # bytes of the serial run
        workers, tasks = [], []

        class RecordingPool(stme.experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def map(self, fn, chunks, **kwargs):
                tasks.extend(chunks)
                return super().map(fn, chunks, **kwargs)

        monkeypatch.setattr(stme.experiments, "ProcessPoolExecutor", RecordingPool)
        replicates = 2 * MIN_CHUNK_REPLICATES
        runs = {name: tmp_path / name for name in ("serial", "jobs2")}
        for name, jobs in (("serial", "1"), ("jobs2", "2")):
            assert run(["experiment", "--footprints", synth_dir / "footprints.csv",
                        "--locations", synth_dir / "locations.csv", "--duration", "800",
                        "--out", runs[name], "--T", "200", "--T0", "100", "--n", "10",
                        "--method", "pwm", "--replicates", replicates, "--seed", "9",
                        "--location-ids", "1", "2", "--jobs", jobs]) == 0
        assert workers == [2]
        assert tasks == [list(range(MIN_CHUNK_REPLICATES)),
                         list(range(MIN_CHUNK_REPLICATES, replicates))]
        for name in ("results.csv", "summary.csv", "metrics.csv"):
            assert (runs["jobs2"] / name).read_bytes() == (runs["serial"] / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_empty_period_exit_2_without_writing(self, synth_dir, tmp_path, capsys, jobs):
        out = tmp_path / "empty"
        code = run(["experiment", "--footprints", synth_dir / "footprints.csv",
                    "--locations", synth_dir / "locations.csv", "--duration", "800",
                    "--out", out, "--T", "200", "--T0", "0.5", "--n", "10",
                    "--replicates", "4", "--jobs", jobs])
        assert code == 2
        assert capsys.readouterr().err == "error: T0=0.5 samples 0 of 480 events\n"
        assert not out.exists()

    def test_rerun_with_other_config_exit_2(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "mixed"
        assert self.run_experiment(synth_dir, out) == 0
        ref = (out / "results.csv").read_bytes()
        (out / "replicates" / "rep_0001.csv").unlink()
        assert self.run_experiment(synth_dir, out, extra=["--seed", "10"]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not (out / "replicates" / "rep_0001.csv").exists()
        assert (out / "results.csv").read_bytes() == ref

    @pytest.mark.parametrize("flags, ini", [
        (["--jobs", "0"], ""), (["--jobs", "-1"], ""), ([], "[experiment]\njobs = 0\n"),
    ], ids=["flag-0", "flag-minus-1", "config-0"])
    def test_jobs_below_1_exit_2(self, synth_dir, tmp_path, capsys, flags, ini):
        cfg = tmp_path / "jobs.ini"
        cfg.write_text(ini)
        out = tmp_path / "jobs"
        try:
            code = self.run_experiment(synth_dir, out, extra=["--config", cfg, *flags])
        except SystemExit as exit:  # argparse rejects the flag itself
            code = exit.code
        assert code == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (out / "replicates").exists()

    def test_metrics_row_without_summary_skipped(self, synth_dir, tmp_path, capsys,
                                                 monkeypatch):
        import stme.cli
        from stme.experiments import SummaryStats

        ref = tmp_path / "ref"
        assert self.run_experiment(synth_dir, ref) == 0
        ref_rows = read_csv(ref / "metrics.csv")
        capsys.readouterr()

        # drop one summary cell, as when every replicate fails at a location
        summarize = stme.cli.summarize
        missing = (2, "STME", "PWM", 10)
        monkeypatch.setattr(stme.cli, "summarize", lambda results: SummaryStats(
            cells={k: v for k, v in summarize(results).cells.items() if k != missing}))
        out = tmp_path / "out"
        assert self.run_experiment(synth_dir, out) == 0
        err = capsys.readouterr().err
        assert "metrics row skipped: cell ('STME', 'PWM', 10): no summary at locations [2]" in err
        assert err.count("metrics row skipped") == 1
        rows = read_csv(out / "metrics.csv")
        assert [r["estimator"] for r in rows] == ["SINGLE"]
        # its width ratio now has an STME reference at location 1 only
        assert {k: v for k, v in rows[0].items() if k != "width_ratio_u"} == {
            k: v for k, v in ref_rows[0].items() if k != "width_ratio_u"}

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [rows[0], rows[1].replace(",1,", ",x1,", 1), *rows[2:]],
         ":2: bad location_id value 'x1'"),
        (lambda rows: ["replicate,foo\n"], ": expected header"),
        (lambda rows: [rows[0], "0" + rows[1][1:], *rows[2:]],
         ":2: row of replicate 0 in the file of 1"),
        (lambda rows: rows[:-1], ": no row for 1 cells"),
        (lambda rows: [*rows, rows[1]], ":6: cell (1, 'SINGLE', 'PWM', 10) is not in this"),
        (lambda rows: [rows[0], rows[1].replace(",SINGLE,", ",EMPIRICAL,"), *rows[2:]],
         ":2: cell (1, 'EMPIRICAL', 'PWM', 10) is not in this"),
        (lambda rows: [rows[0], ",".join(rows[1].split(",")[:5]) + ",inf,\n", *rows[2:]],
         ":2: bad value_m value 'inf'"),
        (lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + "\n", *rows[2:]],
         ":2: expected 7 fields"),
    ], ids=["bad-id", "bad-header", "other-replicate", "missing-cell", "repeated-cell",
            "unknown-cell", "non-finite", "short-row"])
    def test_faulty_replicate_file_exit_2(self, synth_dir, tmp_path, capsys, edit, message):
        out = tmp_path / "faulty"
        assert self.run_experiment(synth_dir, out) == 0
        path = out / "replicates" / "rep_0001.csv"
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        (out / "replicates" / "rep_0002.csv").unlink()
        capsys.readouterr()
        assert self.run_experiment(synth_dir, out) == 2
        assert f"error: {path}{message}" in capsys.readouterr().err

    def test_metrics_leave_out_location_without_empirical_value(self, small_world, tmp_path,
                                                               capsys):
        out = tmp_path / "exp"
        code = run(["experiment", *small_world, "--out", out, "--T", "9.5", "--T0", "9",
                    "--n", "5", "--method", "pwm", "--estimator", "stme", "--replicates", "3",
                    "--seed", "1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "metrics location skipped: location 2: series too short (3 <= ceil(2.1" in err
        assert err.count("metrics") == 1
        rows = read_csv(out / "metrics.csv")
        assert [(r["estimator"], r["method"], r["n"], r["n_locations"]) for r in rows] == [
            ("STME", "PWM", "5", "1")]

    @pytest.mark.parametrize("text, message", [
        ("{not json", "unreadable manifest: Expecting property name"),
        ("[1, 2]", "unreadable manifest: not a JSON object"),
    ], ids=["not-json", "not-an-object"])
    def test_bad_manifest_exit_2(self, synth_dir, tmp_path, capsys, text, message):
        out = tmp_path / "bad-manifest"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        assert self.run_experiment(synth_dir, out) == 2
        assert f"error: {out / 'manifest.json'}: {message}" in capsys.readouterr().err
        assert not (out / "replicates").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--T", "100", "--T0", "200"], "need T > T0 > 0, got T=100.0, T0=200.0"),
        (["--n", "3"], "every n on the ladder must be >= 5"),
        (["--replicates", "1"], "need >= 2 replicates, got 1"),
    ], ids=["T-below-T0", "n-below-5", "one-replicate"])
    def test_config_checked_before_reading_input(self, tmp_path, capsys, flags, message):
        out = tmp_path / "exp"
        code = run(["experiment", "--footprints", tmp_path / "none.csv",
                    "--locations", tmp_path / "none.csv", "--duration", "800",
                    "--out", out, *self.ARGS, *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_run_into_a_locked_out_exit_2(self, synth_dir, tmp_path, capsys):
        # while another run holds <out>/.lock, a second run into that --out
        # stops before it reads or writes anything there
        fcntl = pytest.importorskip("fcntl")
        out = tmp_path / "locked"
        out.mkdir()
        with open(out / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert self.run_experiment(synth_dir, out) == 2
        assert capsys.readouterr().err == (
            f"error: {out / '.lock'} is held by another run\n")
        assert os.listdir(out) == [".lock"] and (out / ".lock").read_bytes() == b""
        assert self.run_experiment(synth_dir, out) == 0  # free once released

    def test_location_outside_region_exit_2(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "outside"
        code = self.run_experiment(synth_dir, out, extra=["--location-ids", "1", "999"])
        assert code == 2
        # --location-ids sets the region too, which is checked first
        assert "region locations [999] not in catalog" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


# Runs stme.cli.main on argv[1:] with chunks of one replicate, so that the
# replicate files appear one at a time.
_ONE_REPLICATE_CHUNKS = (
    "import sys, stme.cli, stme.experiments\n"
    "stme.experiments.CHUNK_CELLS = 1\n"
    "sys.exit(stme.cli.main(sys.argv[1:]))"
)


class TestKillAndResume:
    REPLICATES = 40

    @pytest.fixture(scope="class")
    def args(self, synth_dir):
        return ["experiment", "--footprints", synth_dir / "footprints.csv",
                "--locations", synth_dir / "locations.csv", "--duration", "800",
                "--T", "200", "--T0", "100", "--n", "10", "--method", "pwm",
                "--replicates", self.REPLICATES, "--seed", "9", "--location-ids", "1", "2"]

    @staticmethod
    def outputs(out):
        """The bytes of the three CSVs and of every replicate file."""
        return {path.relative_to(out): path.read_bytes() for path in out.rglob("*.csv")}

    @pytest.fixture(scope="class")
    def uninterrupted(self, args, tmp_path_factory):
        out = tmp_path_factory.mktemp("uninterrupted")
        assert run([*args, "--out", out]) == 0
        return self.outputs(out)

    @settings(max_examples=5, deadline=None)
    @given(k=st.integers(1, 5))
    def test_killed_run_resumes_to_the_bytes_of_an_uninterrupted_one(
            self, args, uninterrupted, tmp_path_factory, k):
        # SIGKILL once k replicate files exist: the rerun, in chunks of
        # another size, computes the rest and leaves no temporary file
        out = tmp_path_factory.mktemp("killed")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        child = subprocess.Popen(
            [sys.executable, "-c", _ONE_REPLICATE_CHUNKS, *map(str, args), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while len(list(out.glob("replicates/rep_*.csv"))) < k and child.poll() is None:
                time.sleep(0.002)
        finally:
            child.kill()
            child.wait()
        killed = len(list(out.glob("replicates/rep_*.csv")))
        assert child.returncode == -signal.SIGKILL and k <= killed < self.REPLICATES
        assert run([*args, "--out", out]) == 0
        assert self.outputs(out) == uninterrupted
        assert len(uninterrupted) == self.REPLICATES + 3
        assert not list(out.rglob("*.tmp"))


def oracle_column(values) -> list[str]:
    """The column formatter that _write_csv's output was defined by: a float
    through .10g, NaN as "", anything else through str. Its text went
    through csv.writer."""
    return ["" if v != v else format(v, ".10g") if isinstance(v, float) else str(v)
            for v in np.asarray(values, dtype=object).tolist()]


INT64 = st.one_of(st.integers(-(2**63 - 1), 2**63 - 1), st.sampled_from([0, 2**63 - 1, -(2**63 - 1)]))
FLOATS = st.one_of(
    st.floats(),
    # -0.0, the smallest subnormal, and values that round at the 10th digit
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e-300,
                     0.12345678905, 1.0000000005, 9.9999999995, 99999999995.0, 1e16 + 2.0]),
)
TEXT = st.text(st.one_of(st.sampled_from(',"\r\n %'), st.characters(blacklist_categories=("Cs",))),
               max_size=5)
SCALARS = st.one_of(st.integers(-(2**70), 2**70), FLOATS, FLOATS.map(np.float64), TEXT)


@st.composite
def csv_blocks(draw):
    """A zero-argument function giving a fresh block: columns of equal length
    as int64 arrays, float64 arrays (with or without NaN), lists of mixed
    scalars or lists of text, given as a list of columns or as a zip of rows."""
    rows, width = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(["int64", "float64", "float64_no_nan", "mixed", "text"]))
        if kind == "int64":
            columns.append(np.array(draw(st.lists(INT64, min_size=rows, max_size=rows)),
                                    dtype=np.int64))
        elif kind in ("float64", "float64_no_nan"):
            elements = FLOATS.filter(lambda v: v == v) if kind == "float64_no_nan" else FLOATS
            columns.append(np.array(draw(st.lists(elements, min_size=rows, max_size=rows))))
        else:
            elements = SCALARS if kind == "mixed" else TEXT
            columns.append(draw(st.lists(elements, min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        rows_of = [tuple(c[i] for c in columns) for i in range(rows)]
        return lambda: zip(*rows_of)
    return lambda: list(columns)


class TestSha256:
    @staticmethod
    def digests(size, seed):
        import hashlib

        data = np.random.default_rng(seed).bytes(size)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_bytes(data)
            return _sha256(path), hashlib.sha256(data).hexdigest()

    # the file is read 64 KiB at a time
    @settings(max_examples=40, deadline=None)
    @given(size=st.one_of(st.sampled_from([0, 1, 65535, 65536, 65537, 3 * 65536]),
                          st.integers(0, 300_000)),
           seed=st.integers(0, 2**32 - 1))
    @example(size=0, seed=0)
    @example(size=65535, seed=1)
    @example(size=65536, seed=2)
    @example(size=65537, seed=3)
    def test_equals_hashlib(self, size, seed):
        ours, reference = self.digests(size, seed)
        assert ours == reference

    def test_hashlib_fallback(self, monkeypatch):
        # an interpreter without the built-in module hashes through hashlib
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        ours, reference = self.digests(70_000, 4)
        assert ours == reference


class TestWriteCsv:
    def test_failed_write_leaves_no_file(self, tmp_path):
        def blocks():
            yield [1], [2.5]
            raise RuntimeError("interrupted")

        path = tmp_path / "table.csv"
        with pytest.raises(RuntimeError):
            _write_csv(path, ["a", "b"], blocks())
        assert os.listdir(tmp_path) == []
        # an existing file is replaced whole or not at all
        _write_csv(path, ["a", "b"], [([1], [2.5])])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            _write_csv(path, ["a", "b"], blocks())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["table.csv"]

    @settings(max_examples=300, deadline=None)
    @given(header=st.lists(TEXT, min_size=1, max_size=4), blocks=st.lists(csv_blocks(), max_size=4))
    def test_bytes_equal_csv_writer_of_column_text(self, header, blocks):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            _write_csv(path, header, (block() for block in blocks))
            with open(path, "rb") as fh:
                got = fh.read()
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(header)
        for block in blocks:
            writer.writerows(zip(*map(oracle_column, block())))
        assert got == want.getvalue().encode("utf-8")


class TestConfigFile:
    def test_config_supplies_inputs(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        out = tmp_path / "from_config"
        cfg.write_text(
            "[input]\n"
            f"footprints = {synth_dir / 'footprints.csv'}\n"
            f"locations = {synth_dir / 'locations.csv'}\n"
            "duration_years = 800\n"
            "[analysis]\n"
            "n = 60\n"
        )
        code = run(["fit", "--config", cfg, "--out", out, "--method", "mle"])
        assert code == 0
        assert (out / "fit.json").exists()

    def test_cli_flag_overrides_config(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[input]\n"
            f"footprints = {synth_dir / 'footprints.csv'}\n"
            f"locations = {synth_dir / 'locations.csv'}\n"
            "duration_years = 800\n"
            "[analysis]\n"
            "n = 60\n"
        )
        out = tmp_path / "override"
        code = run(["fit", "--config", cfg, "--out", out, "--n", "30", "--method", "mle"])
        assert code == 0
        reports = json.loads((out / "fit.json").read_text())
        assert reports[0]["n"] == 30

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[input]\nfootprintz = x\n")
        with pytest.raises(UsageError, match="unknown config key"):
            load_config(cfg)

    @pytest.mark.parametrize("key, value", [("methods", "PWM"), ("estimators", "single")])
    def test_unread_analysis_keys_rejected(self, synth_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "unread.ini"
        cfg.write_text(f"[analysis]\n{key} = {value}\n")
        with pytest.raises(UsageError, match=f"unknown config key '{key}' in \\[analysis\\]"):
            load_config(cfg)
        code = run([
            "return-values", "--config", cfg, "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "o", "--T", "200", "--n", "30",
        ])
        assert code == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_analysis_periods_from_config(self, synth_dir, tmp_path):
        cfg = tmp_path / "periods.ini"
        cfg.write_text("[analysis]\nT = 300\nT0 = 100\nn = 20\n")
        out = tmp_path / "rv"
        code = run([
            "return-values", "--config", cfg, "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800", "--out", out,
        ])
        assert code == 0
        rows = read_csv(out / "estimates.csv")
        assert {(r["n"], r["T_years"], r["T0_years"]) for r in rows} == {("20", "300", "100")}

    @pytest.mark.parametrize("text, expected", [("on", True), ("Off", False), ("maybe", None)])
    def test_poisson_counts_is_a_strict_boolean(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[synth]\nduration_years = 20\npoisson_counts = {text}\n")
        code = run(["synth", "--config", cfg, "--out", tmp_path / "w"])
        if expected is None:
            assert code == 2
            err = capsys.readouterr().err
            assert "config [synth] poisson_counts: not a boolean: 'maybe'" in err
        else:
            assert code == 0
            meta = json.loads((tmp_path / "w" / "metadata.json").read_text())
            assert meta["config"]["poisson_counts"] is expected

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[wat]\nx = 1\n")
        with pytest.raises(UsageError, match="unknown config section"):
            load_config(cfg)

    @pytest.mark.parametrize("command, text", [
        ("stm", "[DEFAULT]\nbogus = 1\n"),
        ("fit", "[DEFAULT]\nn = 7\n[analysis]\nT = 500\n"),
        ("stm", "[input]\nduration_years = 800\n[DEFAULT]\nlon_min = 3\n"),
    ], ids=["unknown-key", "leaks-into-analysis", "leaks-into-input"])
    def test_default_section_rejected(self, synth_dir, tmp_path, capsys, command, text):
        # configparser would apply [DEFAULT] keys to every section
        cfg = tmp_path / "default.ini"
        cfg.write_text(text)
        with pytest.raises(UsageError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(cfg)
        code = run([
            command, "--config", cfg, "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "o", *(["--method", "mle"] if command == "fit" else []),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("data, message", [
        (b"T = 5\n", ":1: no [section] header before 'T = 5'"),
        (b"[analysis]\nT = 5\n[analysis]\nT0 = 3\n", ":3: section [analysis] repeated"),
        (b"[analysis]\nT = 5\nt = 6\n", ":3: key 't' repeated in [analysis]"),
        (b"[analysis]\nT = 5\nT0 = \xff3\n", ":3: not UTF-8 text"),
    ], ids=["no-section-header", "duplicate-section", "duplicate-key", "not-utf-8"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "malformed.ini"
        cfg.write_bytes(data)
        with pytest.raises(UsageError) as err:
            load_config(cfg)
        assert str(err.value) == f"{cfg}{message}"
        assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert f"error: {cfg}{message}" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = run(["fit", "--config", tmp_path / "none.ini", "--out", tmp_path / "o"])
        assert code == 2
        assert "none.ini" in capsys.readouterr().err

    def test_percent_sign_read_as_it_is(self, tmp_path):
        cfg = tmp_path / "percent.ini"
        cfg.write_text("[input]\nfootprints = runs/100%/footprints.csv\n")
        assert load_config(cfg) == {"input": {"footprints": "runs/100%/footprints.csv"}}


# Two samples per option: (flag arguments, config text, setting). A flag that
# stores a constant has no flag arguments for its second sample.
_SCALARS = {int: ("3", "4", 3, 4), float: ("2.5", "7.25", 2.5, 7.25), str: ("a", "b", "a", "b")}


def option_samples(opt):
    if opt.kwargs.get("action") == "store_const":
        return [([opt.flag], "yes", True), (None, "off", False)]
    if "choices" in opt.kwargs:
        return [([opt.flag, c.lower()], None, (c,)) for c in opt.kwargs["choices"][:2]]
    scalar = {_jobs: int, _seed: int, finite: float}.get(opt.type, opt.type)
    text0, text1, value0, value1 = _SCALARS[scalar]
    if opt.kwargs.get("nargs") == "+":
        return [([opt.flag, text0, text1], f"{text0}, {text1}", (value0, value1)),
                ([opt.flag, text1], text1, (value1,))]
    if opt.kwargs.get("action") == "append":
        return [([opt.flag, text0, opt.flag, text1], f"{text0} {text1}", (value0, value1)),
                ([opt.flag, text1], text1, (value1,))]
    return [([opt.flag, text0], text0, value0), ([opt.flag, text1], text1, value1)]


def resolve(command, argv=(), config=None):
    return _settings(build_parser().parse_args([command, *argv]), config or {})


class TestOptionTable:
    FLAGS = {
        "synth": {"--config", "--out", "--years", "--rate", "--seed", "--spacing", "--decay-km",
                  "--noise", "--poisson"},
        "stm": {"--config", "--out", "--footprints", "--locations", "--duration", "--lon-min",
                "--lon-max", "--lat-min", "--lat-max", "--min-depth", "--location-ids"},
    }
    FLAGS["fit"] = FLAGS["stm"] | {"--n", "--method"}
    FLAGS["return-values"] = FLAGS["stm"] | {"--T", "--T0", "--n", "--method", "--estimator"}
    FLAGS["diagnostics"] = FLAGS["stm"] | {"--band", "--min-stm", "--orientation", "--n-perm",
                                           "--n-null", "--seed"}
    FLAGS["experiment"] = FLAGS["stm"] | {"--T", "--T0", "--n", "--method", "--estimator",
                                          "--replicates", "--seed", "--jobs"}
    CONFIG_KEYS = {
        "input": {"footprints", "locations", "duration_years"},
        "region": {"lon_min", "lon_max", "lat_min", "lat_max", "location_ids", "min_depth"},
        "analysis": {"T", "T0", "n", "n_ladder", "location_ids"},
        "experiment": {"replicates", "seed", "jobs"},
        "synth": {"lon_min", "lon_max", "lat_min", "lat_max", "spacing_deg", "rate",
                  "duration_years", "direction_mean_deg", "direction_sd_deg",
                  "intensity_threshold", "intensity_scale", "intensity_shape", "decay_km",
                  "noise_sigma_log", "poisson_counts", "seed"},
        "output": {"dir"},
    }

    def test_flags_per_command(self):
        (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
        declared = {
            command: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for command, p in subparsers.choices.items()
        }
        assert {command: set(flags) for command, flags in declared.items()} == self.FLAGS
        assert sum(len(flags) for flags in declared.values()) == 85

    def test_config_keys(self, tmp_path):
        keys = {}
        for opt in _OPTIONS:
            if opt.section:
                keys.setdefault(opt.section, set()).add(opt.key)
        assert keys == self.CONFIG_KEYS
        assert sum(len(k) for k in keys.values()) == 34
        # every key is read back under its own name, whatever its case in the file
        cfg = tmp_path / "all.ini"
        cfg.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = 1\n" for key in sorted(names))
            for section, names in self.CONFIG_KEYS.items()
        ))
        assert {s: set(v) for s, v in load_config(cfg).items()} == self.CONFIG_KEYS

    @pytest.mark.parametrize("opt, command", [
        pytest.param(opt, command, id=f"{command}:{opt.flag}:[{opt.section}]{opt.key}")
        for opt in _OPTIONS for command in opt.commands
    ])
    def test_flag_then_config_then_default(self, opt, command):
        (flag0, text0, value0), (_, text1, _) = option_samples(opt)
        required = {}
        for other in _OPTIONS:
            if other.required and command in other.commands and other is not opt:
                required.setdefault(other.section, {})[other.key] = "1"

        def setting(argv=(), text=None):
            config = {section: dict(keys) for section, keys in required.items()}
            if text is not None:
                config.setdefault(opt.section, {})[opt.key] = text
            return repr(resolve(command, argv, config)[opt.section][opt.key])

        if opt.flag:
            assert setting(flag0) == repr(value0)
        if opt.section:
            assert setting(text=text0) == repr(value0)
        if opt.flag and opt.section:
            assert setting(flag0, text1) == repr(value0)
        if opt.required:
            with pytest.raises(UsageError, match=re.escape(
                f"{opt.flag} or [{opt.section}] {opt.key} is required"
            )):
                setting()
        else:
            assert setting() == repr(opt.default)

    def test_location_ids_flag_sets_region_and_analysis(self):
        required = {"input": {"footprints": "f", "locations": "l", "duration_years": "1"},
                    "output": {"dir": "o"}, "analysis": {"T": "1", "n": "3"}}
        both = resolve("return-values", ["--location-ids", "1", "2"], required)
        assert both["region"]["location_ids"] == both["analysis"]["location_ids"] == (1, 2)
        required["analysis"]["location_ids"] = "1 2"
        analysed = resolve("return-values", (), required)
        assert analysed["region"]["location_ids"] is None
        assert analysed["analysis"]["location_ids"] == (1, 2)

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        for opt in _OPTIONS:
            if not opt.section:
                continue
            lines = [line for line in readme if line.startswith(f"| `[{opt.section}] {opt.key}` |")]
            assert len(lines) == 1, (opt.section, opt.key)
            if opt.flag:
                assert f"`{opt.flag}`" in lines[0]

    def test_readme_names_resolve(self):
        """Every stme.<name> that the README mentions is a module of the
        package or an attribute of one, so a deleted name cannot linger there."""
        import importlib

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        names = set(re.findall(r"\bstme(?:\.\w+)+", readme))
        assert {"stme.run_stme", "stme.experiments.estimate_cells", "stme.fit_gpd_rows"} <= names
        for name in sorted(names):
            parts = name.split(".")
            for k in range(len(parts), 0, -1):  # the longest prefix that is a module
                try:
                    found = importlib.import_module(".".join(parts[:k]))
                    break
                except ImportError:
                    continue
            for part in parts[k:]:
                assert hasattr(found, part), name
                found = getattr(found, part)

    def test_readme_example_runs(self, synth_dir, monkeypatch):
        """The Library section's example, run as written in a catalog's directory."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        monkeypatch.chdir(synth_dir)
        namespace = {}
        exec(code, namespace)
        assert len(namespace["estimates"]) == 35

    def test_top_level_names_are_in_the_readme(self):
        """Every public name of the stme package that is not a module is
        documented in the README as stme.<name>, so each name has one home."""
        import types

        import stme

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = set(re.findall(r"\bstme\.(\w+)\b(?!\.)", readme))
        public = {name for name, value in vars(stme).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public <= documented, sorted(public - documented)


class TestTracedNames:
    @staticmethod
    def trace_cli():
        import types

        path = Path(__file__).parents[1] / "perfbench" / "trace_cli.py"
        trace_cli = types.ModuleType("trace_cli")
        # compiled from source, so no bytecode cache is written next to it
        exec(compile(path.read_text(), str(path), "exec"), trace_cli.__dict__)
        return trace_cli

    def test_every_traced_name_resolves(self):
        """perfbench/trace_cli.py wraps stme functions by module attribute name;
        a renamed or deleted function would leave its span silently empty."""
        import importlib

        trace_cli = self.trace_cli()
        names = [entry[:2] for entry in (*trace_cli.SPANS.values(), *trace_cli.COUNTED.values())]
        assert names
        for module, attr in names:
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)

    def test_counts_read_the_one_row_views(self):
        """trace_cli reads its fit and estimate counts from the results of the
        one-row views fit_gpd_mle, fit_gpd_pwm and return_value."""
        from stme.evd import GpdParams, fit_gpd_mle, fit_gpd_pwm, gpd_quantile
        from stme.returns import ExposureEcdf, return_value

        trace_cli = self.trace_cli()
        sample = gpd_quantile(GpdParams(3.9, 1.0, 0.1), np.linspace(0.05, 0.95, 20))
        converged = fit_gpd_mle(sample, 3.9)
        assert converged.converged and converged.iterations > 0
        assert trace_cli._fit_counts(converged, ()) == {
            "nonconverged": 0, "iterations": converged.iterations, "boundary": 0}
        assert trace_cli._fit_counts(fit_gpd_pwm(sample, 3.9), ()) == {
            "nonconverged": 0, "iterations": 0, "boundary": 0}
        boundary = fit_gpd_mle(np.arange(2, 13) ** 6.0, 1.0)
        assert trace_cli._fit_counts(boundary, ()) == {
            "nonconverged": 1, "iterations": boundary.iterations, "boundary": 1}
        plain = return_value(GpdParams(5.0, 2.0, 0.1), ExposureEcdf(1, np.array([0.5, 1.0])),
                             500.0, 200.0, 30)
        at_bound = return_value(GpdParams(5.0, 2.0, -2.0), ExposureEcdf(1, np.array([1.0])),
                                1e6, 200.0, 30)
        assert trace_cli._estimate_counts(plain, ()) == {"at_upper_bound": 0}
        assert trace_cli._estimate_counts(at_bound, ()) == {"at_upper_bound": 1}
