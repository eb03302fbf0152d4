"""Record reference.json: for every scenario, the sha256 of the generated
worlds, the per-cell medians of one serial `experiment` pass and the
`regional` estimates and diagnostics facts.

Run from the root of a checkout, only when the program's outputs are meant
to change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run as bench_run

DECIMALS = 6  # far below the 1e-3 m tolerance


def rounded(nested: dict) -> dict:
    return {key: {loc: round(value, DECIMALS) for loc, value in cells.items()}
            for key, cells in nested.items()}


def scenario_reference(scenario: int, workdir: Path) -> dict:
    bench = bench_run.Bench("experiment", scenario, workdir)
    world = bench.make_world(bench_run.EXPERIMENT_WORLD, "world")
    config = bench_run.experiment_config(bench)
    rep = bench_run.experiment_repeat(bench, world, config, 1, False, keep=True)
    experiment = {
        "inputs": world["inputs"],
        "cells": rep["cells"],
        "failure_rows": rep["failure_rows"],
        "medians": {tag: rounded(medians) for tag, medians in rep["medians"].items()},
    }
    world = bench.make_world(bench_run.REGIONAL_WORLD, "regional_world")
    facts = bench_run.regional_repeat(bench, world, False, keep=True)["facts"]
    regional = {
        "inputs": world["inputs"],
        **{key: facts[key] for key in
           ("events", "exposure_rows", "tau_rows", "tau_exceedance_fraction")},
        "estimates": rounded(facts["estimates"]),
    }
    if bench.problems:
        raise RuntimeError(f"scenario {scenario}: {bench.problems}")
    return {"world_seed": bench.world_seed, "experiment": experiment, "regional": regional}


def compact(obj, indent: int = 0) -> str:
    """JSON with one line per innermost mapping."""
    if isinstance(obj, dict) and any(isinstance(v, dict) for v in obj.values()):
        pad = " " * (indent + 1)
        items = [f"{pad}{json.dumps(k)}: {compact(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    return json.dumps(obj)


def main() -> int:
    scenarios = {}
    with bench_run.work_directory("reference-") as workdir:
        for scenario in range(bench_run.N_SCENARIOS):
            scenarios[str(scenario)] = scenario_reference(scenario, workdir)
            print(f"scenario {scenario} recorded", file=sys.stderr)
    reference = {
        "note": "written by perfbench/make_reference.py; medians and estimates in metres",
        "replicates": bench_run.REPLICATES,
        "scenarios": scenarios,
    }
    bench_run.REFERENCE.write_text(compact(reference) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
