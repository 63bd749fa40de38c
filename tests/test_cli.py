"""CLI tests: config resolution, subcommands, artifacts, exit codes."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metronet import artifacts, cli
from metronet.coverage import CoverageParams
from metronet.errors import ParseError
from metronet.evolve import GaConfig
from metronet.lines import LineStageConfig
from metronet.stations import StationStageConfig

from conftest import write_generator_file, write_region_files


@pytest.fixture
def region_files(tmp_path):
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


SHARED_GA_KEYS = ("population_size", "generations", "crossover_rate", "mutation_rate", "elite_count", "seed")
NUMERIC_KEYS = [key for key, caster in cli.ALL_KEYS.items() if caster in (int, float)]
INVALID_SETTINGS = [
    ("--station-count", "0"),
    ("--station-count", "-3"),
    ("--line-count", "0"),
    ("--transfer-penalty-m", "-1"),
    ("--transfer-penalty-m", "nan"),
    ("--transfer-penalty-m", "inf"),
    ("--mutation-sigma", "-5"),
    ("--mutation-sigma", "nan"),
    ("--cell-size", "nan"),
    ("--cell-size", "inf"),
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
        assert capsys.readouterr().err.startswith("error: ")
        assert loads == []
        assert not out.exists()

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
        # resolution only: a drawn cell_size of 5e-324 would make an unbounded grid
        argv = ["run", *(f"--{key.replace('_', '-')}={value!r}" for key, value in values.items())]
        try:
            cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        except (ParseError, ValueError):
            return
        for name, number in _numbers(cfg):
            assert math.isfinite(number), name


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

    @pytest.mark.parametrize("visitors", ["nan", "inf"])
    def test_non_finite_visitors_exit_2(self, tmp_path, capsys, region_files, visitors):
        generators = write_generator_file(tmp_path, [("Mall", 100, 0.0, 0.0), ("Bad", 1, 0.0, 0.0)])
        generators.write_text(generators.read_text().replace(",1,", f",{visitors},"))
        files = {**region_files, "generators": generators}
        code = cli.main(["grid", *base_args(files, tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "generators.csv: row 3" in err and "finite" in err

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
        from metronet.stations import StationGenome

        stations, serviced = artifacts.read_stations_geojson(out / "stations.geojson")
        genome = artifacts.read_lines_geojson(out / "lines.geojson")

        # rewrite from the loaded values: bytes must match (lossless float repr)
        class FakeReport:
            per_station = serviced

        region = load_region(region_files["boundaries"], region_files["densities"])
        rewritten = tmp_path / "rewrite.geojson"
        artifacts.write_stations_geojson(rewritten, StationGenome(stations), FakeReport, region.origin)
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

    def test_stage_failure_removes_partial_artifacts(self, tmp_path, region_files, capsys):
        # a single station cannot host any line layout: stage 2 must fail
        out = tmp_path / "out"
        code = cli.main(
            ["run", *base_args(region_files, out, [
                "--station-count", "1", "--line-count", "1",
                "--population-size", "10", "--generations", "2",
            ])]
        )
        assert code == 3
        leftover = list(out.glob("*")) if out.exists() else []
        assert leftover == []


class TestStageCommands:
    def test_optimize_stations_then_lines(self, tmp_path, region_files):
        out1 = tmp_path / "stage1"
        code = cli.main(
            ["optimize-stations", *base_args(region_files, out1, [
                "--station-count", "4", "--population-size", "10", "--generations", "3", "--seed", "2",
            ])]
        )
        assert code == 0
        assert (out1 / "stations.geojson").exists()
        assert (out1 / "history_stage1.csv").exists()

        out2 = tmp_path / "stage2"
        code = cli.main(
            ["optimize-lines", *base_args(region_files, out2, [
                "--line-count", "2", "--population-size", "10", "--generations", "3", "--seed", "2",
                "--stations", str(out1 / "stations.geojson"),
            ])]
        )
        assert code == 0
        assert (out2 / "lines.geojson").exists()
        assert (out2 / "history_stage2.csv").exists()

    def test_optimize_lines_requires_stations(self, tmp_path, region_files, capsys):
        code = cli.main(
            ["optimize-lines", *base_args(region_files, tmp_path / "o", ["--line-count", "2"])]
        )
        assert code == 2
        assert "--stations" in capsys.readouterr().err


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

    def test_injected_duplicate_station(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        ids = doc["features"][0]["properties"]["station_ids"]
        ids.append(ids[0])  # repeat a station within the line
        (out / "lines.geojson").write_text(json.dumps(doc))
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        assert "loop" in capsys.readouterr().err

    def test_missing_station_disconnects(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)
        doc = json.loads((out / "lines.geojson").read_text())
        # structurally valid lines that never visit station 3
        doc["features"] = doc["features"][:1]
        doc["features"][0]["properties"]["station_ids"] = [0, 1, 2]
        (out / "lines.geojson").write_text(json.dumps(doc))
        code = cli.main(["validate", str(out / "stations.geojson"), str(out / "lines.geojson")])
        assert code == 4
        assert "disconnected" in capsys.readouterr().err

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

    def test_non_object_properties_exit_2(self, tmp_path, region_files, capsys):
        out = self._run_once(tmp_path, region_files)

        def string_properties(doc):
            doc["features"][0]["properties"] = "line 0"

        self._edit(out / "lines.geojson", string_properties)
        self._assert_load_error(out, capsys)


def test_cli_import_needs_no_scipy():
    """numpy is the only runtime dependency; scipy must never be imported."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, metronet.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
