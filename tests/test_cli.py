import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stme.cli import _OPTIONS, _settings, _write_csv, build_parser, load_config, main, UsageError


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


class TestImports:
    def test_cli_does_not_import_scipy(self):
        code = "import sys, stme.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "[]"

    def test_diagnostics_does_not_import_scipy(self, synth_dir, tmp_path):
        # with the default four orientations nothing needs scipy; five or more
        # add the KS aggregation of the trend p-values, which imports it
        code = (
            "import sys; from stme.cli import main; code = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy'))); sys.exit(code)"
        )
        args = ["diagnostics", "--footprints", synth_dir / "footprints.csv",
                "--locations", synth_dir / "locations.csv", "--duration", "800",
                "--n-perm", "99", "--n-null", "100"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, args), "--out", str(tmp_path / "a")],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"
        assert "trend_ks_uniformity" not in json.loads(
            (tmp_path / "a" / "diagnostics.json").read_text())
        five = [f"--orientation={d}" for d in (0, 30, 60, 90, 120)]
        assert run([*args, *five, "--out", tmp_path / "b"]) == 0
        report = json.loads((tmp_path / "b" / "diagnostics.json").read_text())
        assert len(report["trend_p_values"]) == 5
        assert 0.0 <= report["trend_ks_uniformity"]["p_value"] <= 1.0

    def test_diagnostics_same_with_scipy_imported_late(self, synth_dir, tmp_path):
        # a fresh process imports scipy only inside the diagnostics; this
        # process has it imported already
        import scipy.stats  # noqa: F401

        args = ["diagnostics", "--footprints", synth_dir / "footprints.csv",
                "--locations", synth_dir / "locations.csv", "--duration", "800",
                "--n-perm", "99", "--n-null", "100", "--seed", "3"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        fresh = subprocess.run(
            [sys.executable, "-m", "stme.cli", *map(str, args), "--out", str(tmp_path / "a")],
            capture_output=True, env=env,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert run([*args, "--out", tmp_path / "b"]) == 0
        for name in ("diagnostics.json", "tau_map.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    def test_location_outside_region_exit_2(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "outside"
        code = self.run_experiment(synth_dir, out, extra=["--location-ids", "1", "999"])
        assert code == 2
        # --location-ids sets the region too, which is checked first
        assert "region locations [999] not in catalog" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


class TestWriteCsv:
    def test_failed_write_leaves_no_file(self, tmp_path):
        def rows():
            yield (1, 2.5)
            raise RuntimeError("interrupted")

        path = tmp_path / "table.csv"
        with pytest.raises(RuntimeError):
            _write_csv(path, ["a", "b"], rows())
        assert os.listdir(tmp_path) == []
        # an existing file is replaced whole or not at all
        _write_csv(path, ["a", "b"], [(1, 2.5)])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            _write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["table.csv"]


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

    def test_missing_config_exit_2(self, tmp_path):
        code = run(["fit", "--config", tmp_path / "none.ini", "--out", tmp_path / "o"])
        assert code == 2


# Two samples per option: (flag arguments, config text, setting). A flag that
# stores a constant has no flag arguments for its second sample.
_SCALARS = {int: ("3", "4", 3, 4), float: ("2.5", "7.25", 2.5, 7.25), str: ("a", "b", "a", "b")}


def option_samples(opt):
    if opt.kwargs.get("action") == "store_const":
        return [([opt.flag], "yes", True), (None, "off", False)]
    if "choices" in opt.kwargs:
        return [([opt.flag, c.lower()], None, (c,)) for c in opt.kwargs["choices"][:2]]
    text0, text1, value0, value1 = _SCALARS[int if opt.key == "jobs" else opt.type]
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
