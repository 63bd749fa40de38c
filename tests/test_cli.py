"""CLI tests: config resolution, subcommands, artifacts, exit codes."""
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metronet import artifacts, cli
from metronet.coverage import SIGMA_HARD_MAX, SIGMA_HARD_MIN, CoverageParams
from metronet.errors import MetronetError, ParseError
from metronet.evolve import GaConfig
from metronet.geomodel import PLANAR_BOUND_M, GeoPoint
from metronet.lines import LineStageConfig
from metronet.stations import StationStageConfig

from conftest import (
    DATA_DIR,
    MALFORMED_GEOMETRIES,
    write_generator_file,
    write_malformed_region,
    write_region_files,
)


def write_two_district_inputs(tmp_path):
    """Boundaries, densities and generator files of two adjacent rectangles and two generators."""
    boundaries, densities = write_region_files(
        tmp_path,
        [
            ("west", -8000.0, -4000.0, 0.0, 4000.0, 2000.0),
            ("east", 0.0, -4000.0, 8000.0, 4000.0, 800.0),
        ],
    )
    generators = write_generator_file(
        tmp_path,
        [("Central Mall", 30000, -4000.0, 0.0), ("Campus", 12000, 5000.0, 1000.0)],
    )
    return {"boundaries": boundaries, "densities": densities, "generators": generators}


def data_generators_with(tmp_path, visitors: str, rows: int | None = None) -> Path:
    """tests/data's generator table with the daily visitors of its first ``rows`` rows (all by default) set."""
    header, *table = (DATA_DIR / "selangor_generators.csv").read_text().splitlines()
    for i, line in enumerate(table[:rows]):
        name, _, *place = line.split(",")
        table[i] = ",".join([name, visitors, *place])
    path = tmp_path / "generators.csv"
    path.write_text("\n".join([header, *table]) + "\n")
    return path


@pytest.fixture
def region_files(tmp_path):
    return write_two_district_inputs(tmp_path)


def base_args(files, out, extra=()):
    return [
        "--boundaries", str(files["boundaries"]),
        "--densities", str(files["densities"]),
        "--generators", str(files["generators"]),
        "--out", str(out),
        *extra,
    ]


class TestConfigResolution:
    def test_config_file_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "cell_size = 250\n"
            "sigma = 900\n"
            "seed = 7\n"
            "stage2_generations = 40\n"
        )
        values = cli.load_config_file(cfg_file)
        assert values == {"cell_size": 250.0, "sigma": 900.0, "seed": 7, "stage2_generations": 40}

    def test_hash_starts_comment_only_after_whitespace(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "#comment\n"
            "cell_size = 500   # meters\n"
            "out = runs/d#x\n"
            "boundaries = a#b.geojson\t# tab before the comment\n"
        )
        values = cli.load_config_file(cfg_file)
        assert values == {"cell_size": 500.0, "out": "runs/d#x", "boundaries": "a#b.geojson"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("walrus = 9\n")
        with pytest.raises(ParseError):
            cli.load_config_file(cfg_file)

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("sigma = 900\nseed = 7\n")
        args = cli.build_parser().parse_args(
            ["run", "--config", str(cfg_file), "--sigma", "1200"]
        )
        cfg = cli.resolve_config(args)
        assert cfg.stage1.coverage.sigma == 1200.0
        assert cfg.stage1.ga.rng_seed == 7
        assert cfg.stage2.ga.rng_seed == 8  # shared seed shifted for stage 2

    def test_stage_overrides(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["run", "--generations", "12", "--stage2-generations", "99", "--stage2-seed", "5"]
        )
        cfg = cli.resolve_config(args)
        assert cfg.stage1.ga.generations == 12
        assert cfg.stage2.ga.generations == 99
        assert cfg.stage2.ga.rng_seed == 5

    def test_defaults(self):
        cfg = cli.resolve_config(cli.build_parser().parse_args(["run"]))
        assert cfg.cell_size == 500.0
        assert cfg.stage1.coverage.sigma == 800.0
        assert cfg.stage2.line_count == 5
        assert cfg.stage1.ga.generations == 10
        assert cfg.stage1.ga.population_size == 50

    def test_defaults_are_the_library_defaults(self):
        cfg = cli.resolve_config(cli.build_parser().parse_args(["run"]))
        assert cfg.stage1.coverage == CoverageParams()
        assert cfg.stage1.ga == GaConfig()
        assert cfg.stage1 == StationStageConfig()  # station_count left to the grid
        assert cfg.stage2 == LineStageConfig(ga=dataclasses.replace(GaConfig(), rng_seed=1))

    @pytest.mark.parametrize("command", ["grid", "optimize-stations", "optimize-lines", "run"])
    def test_every_config_command_takes_every_key(self, command, capsys):
        """Each config subcommand parses --config and every key flag to the same values, or exits 2 on one."""
        parser = cli.build_parser()
        typed = {str: "v", int: "7", float: "2.5"}
        argv = [command, "--config", "a.cfg"]
        for key, caster in cli.ALL_KEYS.items():
            argv += ["--" + key.replace("_", "-"), typed[caster]]
        args = vars(parser.parse_args(argv))
        assert args["config"] == Path("a.cfg")
        assert {key: args[key] for key in cli.ALL_KEYS} == {key: t(typed[t]) for key, t in cli.ALL_KEYS.items()}
        assert {key: vars(parser.parse_args([command]))[key] for key in cli.ALL_KEYS} == dict.fromkeys(cli.ALL_KEYS)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--seed", "1.5"])
        assert exc.value.code == 2
        assert f"metronet {command}: error: argument --seed: invalid int value: '1.5'" in capsys.readouterr().err


SHARED_GA_KEYS = ("population_size", "generations", "crossover_rate", "mutation_rate", "elite_count", "seed")
NUMERIC_KEYS = [key for key, caster in cli.ALL_KEYS.items() if caster in (int, float)]
INVALID_SETTINGS = [
    ("--station-count", "0"),
    ("--station-count", "-3"),
    ("--station-count", "2001"),
    ("--station-count", "1"),
    ("--line-count", "0"),
    ("--line-count", "1001"),
    ("--transfer-penalty-m", "-1"),
    ("--transfer-penalty-m", "nan"),
    ("--transfer-penalty-m", "inf"),
    ("--transfer-penalty-m", "1e308"),
    ("--mutation-sigma", "-5"),
    ("--mutation-sigma", "nan"),
    ("--mutation-sigma", "1e160"),
    ("--cell-size", "nan"),
    ("--cell-size", "inf"),
    ("--sigma", "0"),
    ("--sigma", "1e-200"),
    ("--sigma", "1e-160"),
    ("--stage2-population-size", "1"),
    ("--stage2-seed", "-4"),
    ("--seed", "-4"),
    ("--seed", str(2**64)),
]


def _numbers(obj):
    """Every int and float field of a (nested) config dataclass."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from _numbers(value)
        elif isinstance(value, (int, float)):
            yield field.name, value


def _drawn(caster):
    if caster is int:
        return st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70), st.sampled_from([2**64 - 1, 2**64]))
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 1e308, 5e-324, math.nan, math.inf, -math.inf]),
    )


class TestSettingChecks:
    @pytest.mark.parametrize("command", ["grid", "optimize-stations", "optimize-lines", "run"])
    @pytest.mark.parametrize("flag, value", INVALID_SETTINGS)
    def test_invalid_value_exits_2_before_loading(self, tmp_path, region_files, monkeypatch, capsys,
                                                   command, flag, value):
        loads = []

        def load_region(*args):
            loads.append(args)
            raise ParseError("inputs were read")

        monkeypatch.setattr(cli, "load_region", load_region)
        out = tmp_path / "out"
        extra = ["--stations", str(tmp_path / "stations.geojson")] if command == "optimize-lines" else []
        code = cli.main([command, *base_args(region_files, out, [f"{flag}={value}", *extra])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:].replace('-', '_')}")
        assert loads == []
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--population-size", "2"], "elite_count must satisfy 0 <= elite_count < population_size"),
        (["--elite-count", "5", "--population-size", "4"],
         "elite_count: elite_count must satisfy 0 <= elite_count < population_size"),
        (["--stage1-elite-count", "3", "--stage1-population-size", "3"],
         "stage1_elite_count: elite_count must satisfy 0 <= elite_count < population_size"),
    ], ids=["elite_count_default", "shared_keys", "stage_keys"])
    def test_rejection_names_only_a_key_that_was_set(self, tmp_path, region_files, capsys, extra, message):
        # elite_count left at its default is no key to blame: the message names both fields
        assert cli.main(["run", *base_args(region_files, tmp_path / "o", extra)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("count", ["-3", "0", "1", "2001"])
    def test_station_count_range_stated_once(self, tmp_path, region_files, capsys, count):
        # StationStageConfig takes 1 station, but every CLI stage 1 may feed stage 2
        assert cli.main(["optimize-stations", *base_args(region_files, tmp_path / "o", ["--station-count", count])]) == 2
        assert capsys.readouterr().err == f"error: station_count: station_count must lie in [2, 2000], got {count}\n"

    def test_plain_value_error_while_loading_is_not_a_load_error(self, tmp_path, region_files, monkeypatch):
        # only a MetronetError is a rejection (exit 2): a ValueError from numpy or a bug propagates
        def rasterize(districts, cell_size):
            raise ValueError("not a rejection")

        monkeypatch.setattr(cli, "rasterize", rasterize)
        with pytest.raises(ValueError, match="^not a rejection$") as exc:
            cli.main(["grid", *base_args(region_files, tmp_path / "o")])
        assert type(exc.value) is ValueError
        assert not (tmp_path / "o").exists()

    def test_grid_out_is_a_file_exits_3(self, tmp_path, region_files, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["grid", *base_args(region_files, out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert out.read_text() == "keep\n"

    @given(values=st.fixed_dictionaries({}, optional={key: _drawn(cli.ALL_KEYS[key]) for key in NUMERIC_KEYS}))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:sigma=")
    def test_resolved_numeric_settings_are_finite(self, values):
        # resolution only: rasterize, not resolve_config, rejects a cell_size too small for the region
        argv = ["run", *(f"--{key.replace('_', '-')}={value!r}" for key, value in values.items())]
        try:
            cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        except MetronetError:
            return
        for name, number in _numbers(cfg):
            assert math.isfinite(number), name


def _log_uniform(lo, hi):
    """``lo``, ``hi`` or a float log-uniform between them."""
    drawn = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    return st.one_of(st.sampled_from([lo, hi]), drawn)


def _rate():
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


# A value from each numeric key's accepted range, endpoints included. The size keys
# come from small ranges that include their lower ends, so a run stays short.
_STAGE_GA_DRAWS = {"population_size": st.integers(2, 4), "generations": st.integers(1, 4),
                   "crossover_rate": _rate(), "mutation_rate": _rate(), "elite_count": st.integers(0, 3),
                   "seed": st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))}
ACCEPTED_DRAWS = {
    "cell_size": _log_uniform(1000.0, 1e7),
    "sigma": _log_uniform(SIGMA_HARD_MIN, math.nextafter(SIGMA_HARD_MAX, 0.0)),
    "station_count": st.integers(2, 16),
    "line_count": st.integers(1, 8),
    "mutation_sigma": _log_uniform(5e-324, PLANAR_BOUND_M),
    "transfer_penalty_m": st.one_of(st.just(0.0), _log_uniform(5e-324, PLANAR_BOUND_M)),
    **_STAGE_GA_DRAWS,
    **{f"stage{n}_{key}": draw for n in (1, 2) for key, draw in _STAGE_GA_DRAWS.items()},
}
assert sorted(ACCEPTED_DRAWS) == sorted(NUMERIC_KEYS)


def _names_a_drawn_key(line, drawn):
    if line.startswith("error: elite_count must satisfy"):  # a rejected default names both fields
        return any(key.endswith(("elite_count", "population_size")) for key in drawn)
    return any(re.search(rf"\b{key}\b", line) for key in drawn)


@settings(max_examples=30, deadline=None)
@given(values=st.fixed_dictionaries({}, optional=ACCEPTED_DRAWS))
@example(values={"station_count": 1})
@example(values={"station_count": 2_000})
@example(values={"line_count": 1_000})
@example(values={"line_count": 1_001})
@example(values={"population_size": 2})
@example(values={"cell_size": 1.0})
@example(values={"seed": 2**64 - 1})
def test_accepted_settings_run_or_exit_2(values):
    """A run on tests/data with settings from the accepted ranges exits 0 with a finite
    fitness that validates, or exits 2 with one error line that names a key it set."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["run", "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
                "--densities", str(DATA_DIR / "selangor_densities.csv"),
                "--generators", str(DATA_DIR / "selangor_generators.csv"), "--out", str(out),
                "--station-count", "4", "--line-count", "2", "--population-size", "3", "--generations", "2",
                *(f"--{key.replace('_', '-')}={value!r}" for key, value in values.items())]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", message="sigma=", category=UserWarning)
            code = cli.main(argv)
            if code == 0:
                assert cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")]) == 0
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and _names_a_drawn_key(lines[0], values), lines
            assert not out.exists()
            return
        assert code == 0, stderr.getvalue()
        printed = dict(line.split(" = ") for line in stdout.getvalue().splitlines() if " = " in line)
        assert len(printed) == 2 and all(math.isfinite(float(value)) for value in printed.values())


class TestGridCommand:
    def test_unit_square_grid(self, tmp_path):
        boundaries, densities = write_region_files(
            tmp_path, [("unit", -500.0, -500.0, 500.0, 500.0, 1000.0)]
        )
        out = tmp_path / "out"
        code = cli.main(
            ["grid", "--boundaries", str(boundaries), "--densities", str(densities), "--out", str(out)]
        )
        assert code == 0
        summary = (out / "grid_summary.txt").read_text()
        assert "cells = 4" in summary
        assert "total_population = 1000.0" in summary
        rows = (out / "grid.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,population"
        assert len(rows) == 5
        assert sum(float(r.split(",")[2]) for r in rows[1:]) == pytest.approx(1000.0)

    def test_missing_densities_exit_2(self, tmp_path, capsys):
        boundaries, densities = write_region_files(
            tmp_path, [("unit", -500.0, -500.0, 500.0, 500.0, 1000.0)]
        )
        missing = tmp_path / "nope.csv"
        code = cli.main(
            ["grid", "--boundaries", str(boundaries), "--densities", str(missing), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["densities", "generators", "config"])
    def test_file_not_utf8_exit_2(self, tmp_path, capsys, region_files, target):
        # a Latin-1 district name from a spreadsheet export: a UnicodeDecodeError is a ValueError
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\n")
        bad = {**region_files, "config": config}[target]
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\xff\n", 1))
        out = tmp_path / "o"
        assert cli.main(["run", *base_args(region_files, out, ["--config", str(config)])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_nul_in_configured_path_exit_2(self, tmp_path, capsys, region_files):
        # a path read from a config file may hold a NUL, which no argv path can
        config = tmp_path / "run.cfg"
        config.write_text(f"densities = {region_files['densities']}\0\n")
        argv = ["grid", "--config", str(config), "--boundaries", str(region_files["boundaries"]),
                "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {region_files['densities']}\0: embedded null byte\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape", sorted(MALFORMED_GEOMETRIES))
    def test_malformed_coordinates_exit_2(self, tmp_path, capsys, shape):
        boundaries, densities = write_malformed_region(tmp_path, MALFORMED_GEOMETRIES[shape])
        argv = ["grid", "--boundaries", str(boundaries), "--densities", str(densities), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {boundaries}: feature 1: ")

    def test_duplicate_district_id_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA_DIR / "selangor_boundary.geojson").read_text())
        doc["features"].append(doc["features"][0])
        boundaries = tmp_path / "boundaries.geojson"
        boundaries.write_text(json.dumps(doc))
        densities = DATA_DIR / "selangor_densities.csv"
        argv = ["grid", "--boundaries", str(boundaries), "--densities", str(densities), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        district_id = doc["features"][0]["properties"]["district_id"]
        assert err.startswith("error: ")
        assert f"feature {len(doc['features']) - 1}: district_id {district_id!r} repeats feature 0" in err

    @pytest.mark.parametrize("cell_size", ["1", "5e-324"])
    def test_lattice_too_large_exit_2(self, tmp_path, capsys, cell_size):
        argv = ["grid", "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
                "--densities", str(DATA_DIR / "selangor_densities.csv"),
                "--out", str(tmp_path / "o"), "--cell-size", cell_size]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cell_size={float(cell_size)!r} gives ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("density", ["inf", "-inf", "nan"])
    def test_non_finite_density_exit_2(self, tmp_path, capsys, density):
        boundaries, densities = write_region_files(
            tmp_path, [("unit", -500.0, -500.0, 500.0, 500.0, 1000.0)]
        )
        densities.write_text(f"district_id,density_per_km2\nunit,{density}\n")
        code = cli.main(
            ["grid", "--boundaries", str(boundaries), "--densities", str(densities), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "densities.csv: row 2" in err and "finite" in err

    def test_duplicate_density_row_exit_2(self, tmp_path, capsys):
        # the repeated row used to replace the first: exit 0 with twice the population
        densities = tmp_path / "densities.csv"
        densities.write_text((DATA_DIR / "selangor_densities.csv").read_text() + "selangor,2200\n")
        argv = ["grid", "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
                "--densities", str(densities), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3: district_id 'selangor' repeats row 2" in err
        assert not (tmp_path / "o").exists()

    def test_duplicate_generator_row_exit_2(self, tmp_path, capsys):
        # the repeated row used to be kept: exit 0 with its visitors counted twice
        generators = tmp_path / "generators.csv"
        generators.write_text((DATA_DIR / "selangor_generators.csv").read_text() + "Batu Caves,5000,3.2379,101.6841\n")
        argv = ["grid", "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
                "--densities", str(DATA_DIR / "selangor_densities.csv"),
                "--generators", str(generators), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "row 16: generator 'Batu Caves' at (3.2379, 101.6841) repeats row 2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("visitors", ["nan", "inf"])
    def test_non_finite_visitors_exit_2(self, tmp_path, capsys, region_files, visitors):
        generators = write_generator_file(tmp_path, [("Mall", 100, 0.0, 0.0), ("Bad", 1, 0.0, 0.0)])
        generators.write_text(generators.read_text().replace(",1,", f",{visitors},"))
        files = {**region_files, "generators": generators}
        code = cli.main(["grid", *base_args(files, tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "generators.csv: row 3" in err and "finite" in err

    # Within the float range, 1e300 at 61 stations and 1e303 at 4 make a GA fitness inf,
    # and 1e308 makes the demand total inf: each must stop at its row.
    @pytest.mark.parametrize("density, extra", [
        ("-1.0", []), ("1000000001.0", []),
        ("1e+300", ["--station-count", "61"]), ("1e+303", ["--station-count", "4"]), ("1e+308", []),
    ])
    @pytest.mark.parametrize("command", ["grid", "run"])
    def test_density_out_of_bounds_exit_2(self, tmp_path, capsys, command, density, extra):
        densities = tmp_path / "densities.csv"
        densities.write_text(f"district_id,density_per_km2\nselangor,{density}\n")
        argv = [command, "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
                "--densities", str(densities), "--out", str(tmp_path / "o"), *extra]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {densities}: row 2: density must be finite and in [0, 1e+09], got {density}\n"
        assert not (tmp_path / "o").exists()

    # 1e305 visitors on every row make stage 2's cost inf, and two rows of 1e308 the
    # demand total: each must stop at its row
    @pytest.mark.parametrize("visitors, rows", [(-1.0, 1), (1000000001.0, 1), (1e305, 14), (1e308, 2)])
    @pytest.mark.parametrize("command", ["grid", "run"])
    def test_visitors_out_of_bounds_exit_2(self, tmp_path, capsys, command, visitors, rows):
        generators = data_generators_with(tmp_path, repr(visitors), rows)
        argv = [command, "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
                "--densities", str(DATA_DIR / "selangor_densities.csv"), "--generators", str(generators),
                "--out", str(tmp_path / "o"), "--station-count", "61"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {generators}: row 2: daily visitors must be finite and in [0, 1e+09], got {visitors!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra", [
        ["--station-count", "61"],
        ["--station-count", "61", "--coverage-mode", "nearest", "--transfer-penalty-m", "300"],
    ])
    def test_densities_and_visitors_at_their_bounds_run(self, tmp_path, capsys, extra):
        densities = tmp_path / "densities.csv"
        densities.write_text("district_id,density_per_km2\nselangor,1e9\n")
        generators = data_generators_with(tmp_path, "1e9")
        argv = ["run", "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"), "--densities", str(densities),
                "--generators", str(generators), "--out", str(tmp_path / "o"),
                "--population-size", "6", "--generations", "2", *extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert all(math.isfinite(float(value)) for value in printed.values())

    @pytest.mark.parametrize("command", ["optimize-stations", "run"])
    def test_station_count_sized_over_the_bound_exit_2(self, tmp_path, capsys, command):
        # 1e9 persons per km2 size an omitted station_count to 55,666,667 stations: it must
        # stop before any GA allocates a genome
        densities = tmp_path / "densities.csv"
        densities.write_text("district_id,density_per_km2\nselangor,1e9\n")
        argv = [command, "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"), "--densities", str(densities),
                "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: station_count must lie in [1, 2000], got 55666667, sized from the grid population")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_reference_generator_count(self, tmp_path, selangor_paths):
        out = tmp_path / "out"
        code = cli.main(
            [
                "grid",
                "--boundaries", str(selangor_paths["boundaries"]),
                "--densities", str(selangor_paths["densities"]),
                "--generators", str(selangor_paths["generators"]),
                "--out", str(out),
                "--cell-size", "5000",
            ]
        )
        assert code == 0
        assert "generators = 14" in (out / "grid_summary.txt").read_text()


class TestRunCommand:
    def test_toy_run_forced_single_line(self, tmp_path, region_files):
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "2", "--line-count", "1",
                "--population-size", "10", "--generations", "3", "--seed", "1",
            ])]
        )
        assert code == 0
        doc = json.loads((out / "lines.geojson").read_text())
        assert len(doc["features"]) == 1
        feature = doc["features"][0]
        assert feature["geometry"]["type"] == "LineString"
        assert len(feature["properties"]["station_ids"]) == 2
        assert len(feature["geometry"]["coordinates"]) == 2
        assert (out / "stations.geojson").exists()
        assert (out / "manifest.txt").exists()

    @pytest.mark.parametrize("seed, stage2_seed", [(3, 4), (2**64 - 1, 0)])
    def test_stage2_seed_follows_the_seed(self, tmp_path, region_files, seed, stage2_seed):
        # the largest seed wraps stage 2 round to 0 rather than overflowing it
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "2", "--line-count", "1",
                "--population-size", "4", "--generations", "1", "--seed", str(seed),
            ])]
        )
        assert code == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"stage1_seed = {seed}" in manifest
        assert f"stage2_seed = {stage2_seed}" in manifest

    def test_seeded_runs_byte_identical(self, tmp_path, region_files):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(
                ["run", *base_args(region_files, out, [
                    "--station-count", "4", "--line-count", "2",
                    "--population-size", "12", "--generations", "4", "--seed", "42",
                ])]
            )
            assert code == 0
            outs.append(out)
        for artifact in ("stations.geojson", "lines.geojson", "history_stage1.csv", "history_stage2.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_histories_monotone(self, tmp_path, region_files):
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "4", "--line-count", "2",
                "--population-size", "12", "--generations", "5", "--elite-count", "2", "--seed", "3",
            ])]
        )
        assert code == 0
        best1 = [float(r.split(",")[1]) for r in (out / "history_stage1.csv").read_text().splitlines()[1:]]
        best2 = [float(r.split(",")[1]) for r in (out / "history_stage2.csv").read_text().splitlines()[1:]]
        assert all(b2 >= b1 for b1, b2 in zip(best1, best1[1:]))
        assert all(b2 <= b1 for b1, b2 in zip(best2, best2[1:]))

    def test_manifest_reproduces_run(self, tmp_path, region_files):
        out1 = tmp_path / "one"
        cli.main(
            ["run", *base_args(region_files, out1, [
                "--station-count", "3", "--line-count", "2",
                "--population-size", "10", "--generations", "3", "--seed", "11",
            ])]
        )
        out2 = tmp_path / "two"
        code = cli.main(
            ["run", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]
        )
        assert code == 0
        for artifact in ("stations.geojson", "lines.geojson", "history_stage1.csv", "history_stage2.csv"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()

    def test_manifest_names_each_setting_once_and_replays(self, tmp_path, region_files):
        argv = ["run", *base_args(region_files, tmp_path / "one", [
            "--station-count", "3", "--line-count", "2", "--population-size", "10", "--generations", "2",
            "--seed", "11", "--sigma", "900", "--stage2-mutation-rate", "0.5", "--transfer-penalty-m", "120",
        ])]
        assert cli.main(argv) == 0
        manifest = tmp_path / "one" / "manifest.txt"
        keys = [line.partition(" = ")[0] for line in manifest.read_text().splitlines() if not line.startswith("#")]
        assert keys == [key for key in cli.ALL_KEYS if key not in SHARED_GA_KEYS]
        original = cli.resolve_config(cli.build_parser().parse_args(argv))
        out2 = tmp_path / "two"
        replayed = cli.resolve_config(
            cli.build_parser().parse_args(["run", "--config", str(manifest), "--out", str(out2)])
        )
        assert replayed == dataclasses.replace(original, out=out2)

    def test_manifest_with_hash_in_paths_replays(self, tmp_path, region_files):
        inputs = tmp_path / "d#x"
        inputs.mkdir()
        files = {key: inputs / path.name for key, path in region_files.items()}
        for key, path in region_files.items():
            files[key].write_bytes(path.read_bytes())
        out1 = tmp_path / "o#1"
        args = ["--station-count", "3", "--line-count", "2", "--population-size", "10", "--generations", "3"]
        assert cli.main(["run", *base_args(files, out1, args)]) == 0
        assert f"boundaries = {files['boundaries']}" in (out1 / "manifest.txt").read_text()
        out2 = tmp_path / "two"
        assert cli.main(["run", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
        for artifact in ("stations.geojson", "lines.geojson", "history_stage1.csv", "history_stage2.csv"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()

    @pytest.mark.parametrize("key, value", [("out", "runs #3"), ("densities", "d.csv "), ("generators", "g\n.csv")])
    def test_unreplayable_path_exit_2(self, tmp_path, region_files, capsys, key, value):
        files = dict(region_files)
        out = tmp_path / "out"
        if key == "out":
            out = tmp_path / value
        else:
            files[key] = value
        assert cli.main(["run", *base_args(files, out, ["--station-count", "2"])]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_artifact_round_trip_exact(self, tmp_path, region_files):
        out = tmp_path / "out"
        cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "3", "--line-count", "2",
                "--population-size", "10", "--generations", "3", "--seed", "13",
            ])]
        )
        from metronet.geomodel import load_region

        stations, serviced = artifacts.read_stations_geojson(out / "stations.geojson")
        genome = artifacts.read_lines_geojson(out / "lines.geojson")

        # rewrite from the loaded values: bytes must match (lossless float repr)
        region = load_region(region_files["boundaries"], region_files["densities"])
        rewritten = tmp_path / "rewrite.geojson"
        artifacts.write_stations_geojson(rewritten, stations, serviced, region.origin)
        assert rewritten.read_bytes() == (out / "stations.geojson").read_bytes()
        rewritten_lines = tmp_path / "rewrite_lines.geojson"
        artifacts.write_lines_geojson(rewritten_lines, genome, stations, region.origin)
        assert rewritten_lines.read_bytes() == (out / "lines.geojson").read_bytes()


class TestRunVariants:
    def test_nearest_coverage_mode(self, tmp_path, region_files):
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "3", "--line-count", "2", "--coverage-mode", "nearest",
                "--population-size", "10", "--generations", "2", "--seed", "5",
            ])]
        )
        assert code == 0
        assert (out / "lines.geojson").exists()

    def test_transfer_penalty_accepted(self, tmp_path, region_files):
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "3", "--line-count", "2", "--transfer-penalty-m", "300",
                "--population-size", "10", "--generations", "2", "--seed", "5",
            ])]
        )
        assert code == 0
        assert "transfer_penalty_m = 300.0" in (out / "manifest.txt").read_text()

    def test_stage_failure_removes_partial_artifacts(self, tmp_path, region_files, monkeypatch, capsys):
        # stage 2 fails after stage 1 wrote its files
        def optimize_lines(*args):
            raise MetronetError("stage 2 failed")

        monkeypatch.setattr(cli.lines, "optimize_lines", optimize_lines)
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "2", "--line-count", "1",
                "--population-size", "10", "--generations", "2",
            ])]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: stage 2 failed\n"
        leftover = list(out.glob("*")) if out.exists() else []
        assert leftover == []


class TestStageCommands:
    @pytest.mark.parametrize("mode", [[], ["--coverage-mode", "nearest", "--transfer-penalty-m", "300"]],
                             ids=["sum", "nearest_penalty"])
    def test_optimize_stations_then_lines(self, tmp_path, region_files, capsys, mode):
        """``run`` is ``optimize-stations`` then ``optimize-lines`` on its stations: the same bytes."""
        settings = ["--population-size", "10", "--generations", "3", "--seed", "2", *mode]
        out1 = tmp_path / "stage1"
        code = cli.main(["optimize-stations", *base_args(region_files, out1, ["--station-count", "4", *settings])])
        assert code == 0
        out2 = tmp_path / "stage2"
        code = cli.main(
            ["optimize-lines", *base_args(region_files, out2, [
                "--line-count", "2", *settings, "--stations", str(out1 / "stations.geojson"),
            ])]
        )
        assert code == 0
        printed = capsys.readouterr().out

        out = tmp_path / "run"
        code = cli.main(["run", *base_args(region_files, out, ["--station-count", "4", "--line-count", "2", *settings])])
        assert code == 0
        assert capsys.readouterr().out == printed
        assert printed.startswith("stage1_best_fitness = ") and "\nstage2_best_fitness = " in printed
        for stage_out, name in [(out1, "stations.geojson"), (out1, "history_stage1.csv"),
                                (out2, "lines.geojson"), (out2, "history_stage2.csv")]:
            assert (out / name).read_bytes() == (stage_out / name).read_bytes(), name

    def test_optimize_lines_requires_stations(self, tmp_path, region_files, capsys):
        code = cli.main(
            ["optimize-lines", *base_args(region_files, tmp_path / "o", ["--line-count", "2"])]
        )
        assert code == 2
        assert "--stations" in capsys.readouterr().err

    def test_optimize_lines_on_one_station_exit_2(self, tmp_path, region_files, capsys):
        stations_file = tmp_path / "stations.geojson"
        artifacts.write_stations_geojson(stations_file, np.zeros((1, 2)), np.ones(1), GeoPoint(0.0, 0.0))
        out = tmp_path / "o"
        code = cli.main(["optimize-lines", *base_args(region_files, out, ["--stations", str(stations_file)])])
        assert code == 2
        assert capsys.readouterr().err == f"error: {stations_file}: line layouts need >= 2 stations, got 1\n"
        assert not out.exists()


def _station_value(key, literal):
    """An edit of stations.geojson text that sets feature 0's ``key`` to the raw JSON ``literal``."""

    def edit(text):
        doc = json.loads(text)
        doc["features"][0]["properties"][key] = "__literal__"
        return json.dumps(doc).replace('"__literal__"', literal)

    return edit


# Station numbers a reader must reject with ParseError (exit 2), not a traceback.
MALFORMED_STATION_NUMBERS = {
    "x_too_large_for_a_float": _station_value("x", str(10**400)),
    "y_too_large_for_a_float": _station_value("y", str(-(10**400))),
    "serviced_too_large_for_a_float": _station_value("serviced_population", str(10**400)),
    "x_over_the_integer_digit_limit": _station_value("x", "9" * 5000),
    "x_bool": _station_value("x", "true"),
    "x_nan": _station_value("x", "NaN"),
    "y_nan": _station_value("y", "NaN"),
    "y_infinity": _station_value("y", "Infinity"),
    "x_at_planar_bound": _station_value("x", "1e7"),
    "y_at_negative_planar_bound": _station_value("y", "-1e7"),
    "serviced_nan": _station_value("serviced_population", "NaN"),
    "serviced_infinity": _station_value("serviced_population", "Infinity"),
    "serviced_negative": _station_value("serviced_population", "-5.0"),
}


class TestValidateCommand:
    def _run_once(self, tmp_path, region_files):
        out = tmp_path / "out"
        cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "4", "--line-count", "2",
                "--population-size", "10", "--generations", "3", "--seed", "17",
            ])]
        )
        return out

    def test_round_trip_valid(self, tmp_path, region_files):
        out = self._run_once(tmp_path, region_files)
        assert cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")]) == 0

    def test_station_just_inside_planar_bound_valid(self, tmp_path, region_files):
        out = self._run_once(tmp_path, region_files)
        stations_file = out / "stations.geojson"
        stations_file.write_text(_station_value("y", "9999999.0")(stations_file.read_text()))
        assert cli.main(["validate", str(stations_file), str(out / "lines.geojson")]) == 0

    def test_injected_duplicate_station(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        ids = doc["features"][0]["properties"]["station_ids"]
        ids.append(ids[0])  # repeat a station within the line
        (out / "lines.geojson").write_text(json.dumps(doc))
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        assert "loop" in capsys.readouterr().err

    def test_only_layout_errors_are_violations(self, tmp_path, region_files, monkeypatch):
        # an error that is not a broken layout rule is not a violation (exit 4)
        out = self._run_once(tmp_path, region_files)

        def broken_build(lines, stations):
            raise ValueError("not a layout rule")

        monkeypatch.setattr(cli.netgraph, "build", broken_build)
        with pytest.raises(ValueError, match="not a layout rule"):
            cli.validate_artifacts(out / "stations.geojson", out / "lines.geojson")

    def test_reports_first_layout_violation_only(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        first, last = (feat["properties"] for feat in (doc["features"][0], doc["features"][-1]))
        first["station_ids"] += [first["station_ids"][0], 999]  # a loop, then an out-of-range id
        last["station_ids"] = last["station_ids"][:1]  # a later line cut to one station
        (out / "lines.geojson").write_text(json.dumps(doc))
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"violation: line 0: loop, station {first['station_ids'][0]} visited twice"
        ]

    def test_line_cut_to_one_station(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        props = doc["features"][-1]["properties"]
        props["station_ids"] = props["station_ids"][:1]
        (out / "lines.geojson").write_text(json.dumps(doc))
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        index = len(doc["features"]) - 1
        assert capsys.readouterr().err.splitlines() == [f"violation: line {index} has 1 station(s), need >= 2"]

    @pytest.mark.parametrize("foreign", [-1, "station count", 2**70])
    def test_station_id_out_of_range_exit_4(self, tmp_path, region_files, capsys, foreign):
        """An id below 0, at the station count or past any machine integer is a violation, never a crash."""
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        ids = doc["features"][0]["properties"]["station_ids"]
        station_id = 4 if foreign == "station count" else foreign  # _run_once places 4 stations
        ids.append(station_id)
        (out / "lines.geojson").write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"violation: line 0: station index {station_id} out of range [0, 4)"
        ]

    def test_missing_station_disconnects(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        # structurally valid lines that never visit station 3
        doc["features"] = doc["features"][:1]
        doc["features"][0]["properties"]["station_ids"] = [0, 1, 2]
        (out / "lines.geojson").write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        assert capsys.readouterr().err == "violation: network is disconnected (some station unreachable)\n"

    def _edit(self, path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    def _assert_load_error(self, out, capsys):
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_station_id_exit_2(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)

        def renumber(doc):
            doc["features"][-1]["properties"]["station_id"] = -1

        self._edit(out / "stations.geojson", renumber)
        self._assert_load_error(out, capsys)

    def test_station_ids_string_exit_2(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)

        def stringify(doc):
            props = doc["features"][0]["properties"]
            props["station_ids"] = "".join(str(s) for s in props["station_ids"])

        self._edit(out / "lines.geojson", stringify)
        self._assert_load_error(out, capsys)

    def test_non_object_line_feature_exit_2(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)

        def scalar_feature(doc):
            doc["features"] = [5]

        self._edit(out / "lines.geojson", scalar_feature)
        self._assert_load_error(out, capsys)

    @pytest.mark.parametrize("case", sorted(MALFORMED_STATION_NUMBERS))
    def test_malformed_station_number_exit_2(self, tmp_path, region_files, capsys, case):
        out = self._run_once(tmp_path, region_files)
        stations_file = out / "stations.geojson"
        stations_file.write_text(MALFORMED_STATION_NUMBERS[case](stations_file.read_text()))
        capsys.readouterr()
        self._assert_load_error(out, capsys)
        code = cli.main(
            ["optimize-lines", *base_args(region_files, tmp_path / "lines", [
                "--line-count", "2", "--stations", str(stations_file),
            ])]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {stations_file}: ")
        assert not (tmp_path / "lines").exists()

    def test_non_object_properties_exit_2(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)

        def string_properties(doc):
            doc["features"][0]["properties"] = "line 0"

        self._edit(out / "lines.geojson", string_properties)
        self._assert_load_error(out, capsys)


@pytest.fixture(scope="module")
def data_run(tmp_path_factory):
    """The artifacts of one small ``metronet run`` on tests/data, shared by the module."""
    out = tmp_path_factory.mktemp("data_run")
    code = cli.main([
        "run",
        "--boundaries", str(DATA_DIR / "selangor_boundary.geojson"),
        "--densities", str(DATA_DIR / "selangor_densities.csv"),
        "--generators", str(DATA_DIR / "selangor_generators.csv"),
        "--out", str(out),
        "--station-count", "6", "--line-count", "3",
        "--population-size", "10", "--generations", "3", "--seed", "3",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def round_trip_inputs(tmp_path_factory):
    """The region_files inputs, written once for the module."""
    tmp_path = tmp_path_factory.mktemp("round_trip")
    return tmp_path, write_two_district_inputs(tmp_path)


@pytest.mark.parametrize("mode, penalized", [("sum", False), ("nearest", False), ("sum", True), ("nearest", True)])
@settings(max_examples=25, deadline=None)
@given(stations=st.integers(2, 8), line_count=st.integers(1, 3), population=st.integers(3, 6),
       generations=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), penalty=st.floats(1.0, 2000.0))
def test_ga_output_round_trips_valid(round_trip_inputs, mode, penalized, stations, line_count, population,
                                     generations, seed, penalty):
    """Whatever the GA outputs, its artifacts read back and validate with exit 0, at the default cell size."""
    tmp_path, files = round_trip_inputs
    out = tmp_path / f"out_{mode}_{penalized}"
    extra = ["--station-count", str(stations), "--line-count", str(line_count),
             "--population-size", str(population), "--generations", str(generations),
             "--seed", str(seed), "--coverage-mode", mode]
    if penalized:
        extra += ["--transfer-penalty-m", repr(penalty)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", *base_args(files, out, extra)]) == 0
        station_points, serviced = artifacts.read_stations_geojson(out / "stations.geojson")
        layout = artifacts.read_lines_geojson(out / "lines.geojson")
        assert station_points.shape == (stations, 2) and len(serviced) == stations
        assert len(layout) == line_count
        assert cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")]) == 0


# Values no station coordinate or serviced count may take.
BAD_NUMBERS = (None, "5", True, False, math.nan, math.inf, -math.inf, 10**400)


@st.composite
def invalid_artifact_edits(draw, station_count, lines):
    """One edit that makes an artifact pair invalid: (file name, feature index, key, new value)."""
    kind = draw(st.sampled_from(["station_number", "negative", "station_ids", "line_id"]))
    if kind == "station_number":
        key = draw(st.sampled_from(["x", "y", "serviced_population"]))
        return "stations.geojson", draw(st.integers(0, station_count - 1)), key, draw(st.sampled_from(BAD_NUMBERS))
    if kind == "negative":
        key = draw(st.sampled_from(["serviced_population", "station_id"]))
        return "stations.geojson", draw(st.integers(0, station_count - 1)), key, -1
    li = draw(st.integers(0, len(lines) - 1))
    if kind == "line_id":
        other = draw(st.integers(0, len(lines) - 2))
        return "lines.geojson", li, "line_id", other + (other >= li)
    line = list(lines[li])
    at = draw(st.integers(0, len(line)))
    foreign = draw(st.one_of(st.integers(station_count, 10**6), st.integers(-(10**6), -1)))
    ids = draw(st.sampled_from([
        line[:at] + [foreign] + line[at:],
        line[:at] + [line[at % len(line)]] + line[at:],
        [line[at % len(line)]],
        None, 5, "0 1", {"0": 1},
    ]))
    return "lines.geojson", li, "station_ids", ids


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invalid_artifacts_exit_2_or_4(data_run, data):
    """validate rejects every invalid edit with exit 2 (load) or 4 (violation), never a traceback."""
    docs = {name: json.loads((data_run / name).read_text()) for name in ("stations.geojson", "lines.geojson")}
    lines = [feat["properties"]["station_ids"] for feat in docs["lines.geojson"]["features"]]
    name, index, key, value = data.draw(invalid_artifact_edits(len(docs["stations.geojson"]["features"]), lines))
    docs[name]["features"][index]["properties"][key] = value
    edited = data_run / "edited"
    edited.mkdir(exist_ok=True)
    for doc_name, doc in docs.items():
        (edited / doc_name).write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["validate", str(edited / "stations.geojson"), str(edited / "lines.geojson")])
    assert code in (2, 4)
    assert stderr.getvalue().startswith("error: " if code == 2 else "violation: ")


# The tests/data inputs of ``metronet grid``, by CLI key.
GRID_INPUTS = {
    "boundaries": "selangor_boundary.geojson",
    "densities": "selangor_densities.csv",
    "generators": "selangor_generators.csv",
}
# No number: a number in place of a coordinate is no wrong type, and a far vertex would make a huge grid.
WRONG_TYPES = (None, True, "x", [], {})


def _json_paths(node, path=()):
    """The path and value of every node below the root of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key), child
        yield from _json_paths(child, (*path, key))


@st.composite
def mutated_boundaries(draw, doc):
    """(kind, ``doc``) with one key missing, one value of a wrong type or non-finite, bad coordinates, or a duplicate id."""
    kind = draw(st.sampled_from(["missing", "wrong_type", "non_finite", "coordinates", "duplicate"]))
    geometry = doc["features"][0]["geometry"]
    if kind == "coordinates":
        ring = geometry["coordinates"][0]
        geometry["coordinates"] = draw(st.sampled_from(
            [None, [], [[]], [geometry["coordinates"]], [[[vertex] for vertex in ring]]]
        ))
    elif kind == "duplicate":
        doc["features"].append(copy.deepcopy(doc["features"][0]))
    else:
        paths = [(path, value) for path, value in _json_paths(doc)
                 if kind != "non_finite" or isinstance(value, float)]
        path, value = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "missing":
            del parent[path[-1]]
        elif kind == "non_finite":
            parent[path[-1]] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            parent[path[-1]] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(value)]))
    return kind, json.dumps(doc)


@st.composite
def mutated_table(draw, rows):
    """(kind, CSV ``rows``) with one cell missing, a cell of a wrong type or non-finite, or a duplicate row."""
    kind = draw(st.sampled_from(["missing", "wrong_type", "non_finite", "duplicate"]))
    r = draw(st.integers(kind == "duplicate", len(rows) - 1))
    c = draw(st.integers(0, len(rows[r]) - 1))
    if kind == "missing":
        del rows[r][c]
    elif kind == "duplicate":
        rows.append(list(rows[r]))
    else:
        values = ["", "x", "1,5", "true"] if kind == "wrong_type" else ["nan", "inf", "-inf", "1e400"]
        rows[r][c] = draw(st.sampled_from(values))
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return kind, out.getvalue()


@pytest.fixture(scope="module")
def grid_inputs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated_inputs")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_0_or_2(grid_inputs_dir, data):
    """One mutation of one tests/data input: ``metronet grid`` exits 0 or 2, never a traceback.

    A repeated feature or row is a load error in every input: exit 2.
    """
    key = data.draw(st.sampled_from(sorted(GRID_INPUTS)))
    text = (DATA_DIR / GRID_INPUTS[key]).read_text()
    if key == "boundaries":
        kind, text = data.draw(mutated_boundaries(json.loads(text)))
    else:
        kind, text = data.draw(mutated_table(list(csv.reader(io.StringIO(text)))))
    argv = ["grid", "--out", str(grid_inputs_dir / "out"), "--cell-size", "500"]
    for name, file_name in GRID_INPUTS.items():
        path = DATA_DIR / file_name
        if name == key:
            path = grid_inputs_dir / file_name
            path.write_text(text)
        argv += [f"--{name}", str(path)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in ((2,) if kind == "duplicate" else (0, 2))
    assert code == 0 or stderr.getvalue().startswith("error: ")


def test_cli_import_needs_no_scipy():
    """numpy is the only runtime dependency; scipy must never be imported."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, metronet.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
