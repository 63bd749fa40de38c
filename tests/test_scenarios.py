"""End-to-end scenarios, one table row each, run in this process and again in a child.

The child runs under ``python -O`` with another ``PYTHONHASHSEED``. Each
row's exit codes, printed lines and compared artifacts must be the same bytes
in both: one seed gives one network in any process, asserts stripped or not.
Every ``lines.geojson`` a row writes must pass ``validate`` against the
stations it was built on.
"""
import contextlib
import csv
import io
import json
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

from metronet import cli

from conftest import DATA_DIR, run_python, write_star_district

INPUTS = ["--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
          "--densities", str(DATA_DIR / "selangor_densities.csv"),
          "--generators", str(DATA_DIR / "selangor_generators.csv")]
RUN_ARTIFACTS = ("0/stations.geojson", "0/lines.geojson", "0/history_stage1.csv", "0/history_stage2.csv")
STAGE2_ARTIFACTS = ("1/lines.geojson", "1/history_stage2.csv")
STAGE1_ARTIFACTS = ("0/stations.geojson", "0/history_stage1.csv")


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[str, ...]
    compare: tuple[str, ...]


# To add a scenario, add a row. Step k writes into <row>/<k>, and a later step names that
# directory {k}; {inputs} is the tests/data region and generators, {star} write_star_district's
# region. ``compare`` lists paths relative to the row's directory.
SCENARIOS = (
    # a small run, then stage 2 alone on its stations
    Scenario("lines", (
        "run {inputs} --station-count 4 --line-count 2 --population-size 6 --generations 2",
        "optimize-lines {inputs} --stations {0}/stations.geojson --line-count 2 --population-size 6 --generations 2"
        " --seed 5",
    ), STAGE2_ARTIFACTS),
    # stage 2 at the tiny_lines shape, 5 stations on 1 line with a 40 x 200 GA, where almost
    # every draw is a resampled evolve.Draws.integers
    Scenario("five", (
        "optimize-stations {inputs} --station-count 5 --population-size 6 --generations 2 --seed 3",
        "optimize-lines {inputs} --stations {0}/stations.geojson --line-count 1 --population-size 40"
        " --generations 200 --seed 3",
    ), STAGE2_ARTIFACTS),
    # nearest-mode coverage with a transfer penalty, which no benchmark workload runs. At 12
    # stations on 3 lines most nodes are not transfers, so the two-exit fill runs
    Scenario("nearest", (
        "run {inputs} --coverage-mode nearest --transfer-penalty-m 300 --station-count 12 --line-count 3"
        " --population-size 6 --generations 2 --seed 5",
    ), RUN_ARTIFACTS),
    # a transfer penalty on 40 stations and 5 lines, where many stations are transfers
    Scenario("many", (
        "optimize-stations {inputs} --station-count 40 --population-size 6 --generations 2 --seed 7",
        "optimize-lines {inputs} --stations {0}/stations.geojson --line-count 5 --transfer-penalty-m 300"
        " --population-size 6 --generations 2 --seed 7",
    ), STAGE2_ARTIFACTS),
    # stage-1 seeding's retry path on 15 km cells, where jitter from a boundary cell often
    # leaves the region: at seed 3 the 6 initial genomes of 69 stations miss 42 times and
    # 2 stations keep their cell centroid after 8 misses
    Scenario("coarse", (
        "optimize-stations {inputs} --cell-size 15000 --population-size 6 --generations 2 --seed 3",
    ), STAGE1_ARTIFACTS),
    # every child is crossed and mutated, so each one hands evolve.Draws' generator to numpy,
    # after rewinding the words read ahead, for a sized random and again for a normal
    Scenario("rewind", (
        "optimize-stations {inputs} --mutation-rate 1 --crossover-rate 1 --station-count 12"
        " --population-size 10 --generations 4 --seed 6",
    ), STAGE1_ARTIFACTS),
    # the largest seed, two 32-bit words, from which evolve.spawn_states derives each stage-1
    # generation's PCG64 state (stage 2 wraps to seed 0)
    Scenario("wide", ("run {inputs} --seed 18446744073709551615",), RUN_ARTIFACTS),
    # a 200 km mutation sigma, where most mutations end in the boundary clamp (78 of 127 at seed 4)
    Scenario("clamp", ("run {inputs} --mutation-sigma 200000 --station-count 30 --seed 4",), RUN_ARTIFACTS),
    # sum-mode coverage on 100 m cells (833k cells), which no benchmark workload runs
    Scenario("fine", ("run {inputs} --cell-size 100 --seed 5",), RUN_ARTIFACTS),
    # a many-vertex region, unlike the 5-vertex fixture: its 50 m grid, then a nearest-mode run
    Scenario("star", (
        "grid {star} --cell-size 50",
        "run {star} --coverage-mode nearest --station-count 8 --line-count 2 --population-size 6 --generations 2"
        " --seed 3",
    ), ("0/grid.csv",)),
)


def run_scenarios(root: Path) -> dict[str, list[list]]:
    """Run every row under ``root``: each step's exit code, stdout and stderr, by row name."""
    boundaries, densities = write_star_district(root)
    regions = {"{inputs}": INPUTS, "{star}": ["--boundaries", str(boundaries), "--densities", str(densities)]}
    printed = {}
    for row in SCENARIOS:
        dirs = [str(root / row.name / str(k)) for k in range(len(row.steps))]
        printed[row.name] = []
        for step, out in zip(row.steps, dirs):
            argv = [arg for token in step.split() for arg in regions.get(token) or [token.format(*dirs)]]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main([*argv, "--out", out])
            printed[row.name].append([code, stdout.getvalue(), stderr.getvalue()])
    return printed


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every row run in this process, then in one child under ``python -O`` and another hash seed."""
    here, child = tmp_path_factory.mktemp("here"), tmp_path_factory.mktemp("child")
    printed = run_scenarios(here)
    seed = os.environ.get("PYTHONHASHSEED", "")
    hash_seed = str((int(seed) + 1) % 2**32) if seed.isdigit() else "1"
    result = run_python(__file__, str(child), flags=("-O", "-W", "error::RuntimeWarning"),
                        env={"PYTHONHASHSEED": hash_seed})
    return here, printed, child, json.loads(result.stdout)


@pytest.mark.parametrize("row", SCENARIOS, ids=lambda row: row.name)
def test_scenario_reproduces_and_validates(runs, row):
    here, printed, child, child_printed = runs
    assert [code for code, _, _ in printed[row.name]] == [0] * len(row.steps), printed[row.name]
    assert child_printed[row.name] == printed[row.name]
    for name in row.compare:
        assert (child / row.name / name).read_bytes() == (here / row.name / name).read_bytes(), name
    stations = None
    for k, (_, stdout, _) in enumerate(printed[row.name]):
        step = here / row.name / str(k)
        stations = step / "stations.geojson" if (step / "stations.geojson").exists() else stations
        if (step / "lines.geojson").exists():
            assert cli.main(["validate", str(stations), str(step / "lines.geojson")]) == 0
        # the printed best is the history's best, digit for digit
        keys = dict(line.split(" = ") for line in stdout.splitlines())
        for stage, best in (("stage1", max), ("stage2", min)):
            if (step / f"history_{stage}.csv").exists():
                with (step / f"history_{stage}.csv").open() as fh:
                    column = [record["best_fitness"] for record in csv.DictReader(fh)]
                assert keys[f"{stage}_best_fitness"] == best(column, key=float), (k, stage)


def test_star_district_cells(runs):
    """``write_star_district`` still draws the district whose 50 m grid has 44,286 cells."""
    _, printed, _, _ = runs
    assert "\ncells = 44286\n" in printed["star"][0][1]  # the grid step's stdout


if __name__ == "__main__":
    # the child of ``runs``: run every row under argv[1] and print what each step printed
    print(json.dumps(run_scenarios(Path(sys.argv[1]))))
