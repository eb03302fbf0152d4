import csv
import json
import os

import pytest

from stme.cli import _write_csv, load_config, main, UsageError


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

    def test_missing_n_exit_2(self, synth_dir, tmp_path):
        code = run([
            "fit", "--footprints", synth_dir / "footprints.csv",
            "--locations", synth_dir / "locations.csv", "--duration", "800",
            "--out", tmp_path / "o",
        ])
        assert code == 2


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

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[wat]\nx = 1\n")
        with pytest.raises(UsageError, match="unknown config section"):
            load_config(cfg)

    def test_missing_config_exit_2(self, tmp_path):
        code = run(["fit", "--config", tmp_path / "none.ini", "--out", tmp_path / "o"])
        assert code == 2
