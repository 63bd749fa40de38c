"""End-to-end command line: config resolution, loading, both stages, artifacts.

Configuration is a flat ``key = value`` file; any key can be overridden by
the flag of the same name (flags win). GA keys apply to both stages unless
prefixed with ``stage1_`` or ``stage2_``. A key left unset takes the default
of the library config class that holds it; only ``out`` and ``cell_size``
have defaults of their own here.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import artifacts, coverage, lines, netgraph, stations
from .coverage import CoverageParams
from .errors import InvalidLayout, MetronetError, ParseError
from .evolve import GaConfig
from .geomodel import DemandPoints, check_cell_size, load_generators, load_region, rasterize
from .lines import LineStageConfig
from .stations import MAX_STATIONS, StationStageConfig

# Each key's type and the attribute of a RunConfig that holds its value.
_BASE_KEYS: dict[str, tuple[type, str]] = {
    "boundaries": (str, "boundaries"),
    "densities": (str, "densities"),
    "generators": (str, "generators"),
    "out": (str, "out"),
    "cell_size": (float, "cell_size"),
    "sigma": (float, "stage1.coverage.sigma"),
    "coverage_mode": (str, "stage1.coverage.mode"),
    "station_count": (int, "stage1.station_count"),
    "line_count": (int, "stage2.line_count"),
    "mutation_sigma": (float, "stage1.mutation_sigma"),
    "transfer_penalty_m": (float, "stage2.transfer_penalty_m"),
}
# GA keys: the type and the GaConfig field of each stage they set.
_GA_KEYS: dict[str, tuple[type, str]] = {
    "population_size": (int, "population_size"),
    "generations": (int, "generations"),
    "crossover_rate": (float, "crossover_rate"),
    "mutation_rate": (float, "mutation_rate"),
    "elite_count": (int, "elite_count"),
    "seed": (int, "rng_seed"),
}
_STAGE_GA_KEYS = {f"stage{n}_{key}": (t, f"stage{n}.ga.{field}")
                  for n in (1, 2) for key, (t, field) in _GA_KEYS.items()}
ALL_KEYS: dict[str, type] = {key: t for key, (t, _) in (_BASE_KEYS | _GA_KEYS | _STAGE_GA_KEYS).items()}
# The shared GA keys have no home of their own: they fill the unset stage keys.
_HOMES: dict[str, str] = {key: home for key, (_, home) in (_BASE_KEYS | _STAGE_GA_KEYS).items()}
_CLI_DEFAULTS: dict[str, object] = {"out": "metronet_out", "cell_size": 500.0}

EXIT_LOAD_ERROR = 2
EXIT_STAGE_FAILURE = 3
EXIT_VALIDATION = 4


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline configuration; every value in it has been checked."""

    boundaries: Path | None
    densities: Path | None
    generators: Path | None
    out: Path
    cell_size: float
    stage1: StationStageConfig  # station_count None: sized once the grid is loaded
    stage2: LineStageConfig


# '#' opens a comment at the start of a line or after whitespace, so it may
# appear inside a value such as a path.
_COMMENT = re.compile(r"(?:^|\s)#")
_PATH_KEYS = ("boundaries", "densities", "generators", "out")


def _strip_comment(line: str) -> str:
    return _COMMENT.split(line, maxsplit=1)[0].strip()


def load_config_file(path: Path) -> dict[str, object]:
    """Parse a flat key = value file; '#' at line start or after whitespace starts a comment."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
        if key not in ALL_KEYS:
            raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = ALL_KEYS[key](value)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge the --config file and explicit flags (flags win) into checked configs.

    Only the keys that are set reach the library config classes, which
    supply every other default and raise on an invalid value, so a bad
    setting fails here, before any input is read.
    """
    merged: dict[str, object] = dict(_CLI_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for key in ALL_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    for key in _PATH_KEYS:
        if key not in merged:
            continue
        value = str(merged[key])
        # the manifest must read back as the same path when replayed with --config
        if len(value.splitlines()) > 1 or _strip_comment(value) != value:
            raise ParseError(
                f"{key}: path {value!r} cannot be replayed from a manifest: it has "
                "whitespace before '#', surrounding whitespace or a line break"
            )
    check_cell_size(merged["cell_size"])

    # An unset stage key takes the shared key's value, and a value rejected
    # there is reported under the shared key, the one the user set. Stage 2
    # shifts the shared seed so the stages draw distinct streams; the largest
    # seed wraps to 0, and an out-of-range seed stays out of range.
    inherited: dict[str, str] = {}
    if "stage2_seed" not in merged:
        seed = merged.get("seed", GaConfig.rng_seed)
        merged["stage2_seed"] = (seed + 1) % 2**64 if 0 <= seed < 2**64 else seed
        inherited["stage2_seed"] = "seed"
    for key in _GA_KEYS:
        if key in merged:
            for n in (1, 2):
                stage_key = f"stage{n}_{key}"
                if stage_key not in merged:
                    merged[stage_key] = merged[key]
                    inherited[stage_key] = key

    def build(owner: str, cls, **parts):
        """``cls`` from the set values that live directly on ``owner``, by field name.

        The config classes open each error message with the rejected field,
        so a rejected value that was set is reported under its key.
        """
        fields, key_of = {}, {}
        for key, home in _HOMES.items():
            parent, _, field = home.rpartition(".")
            if parent == owner:
                key_of[field] = key
                if key in merged:
                    fields[field] = merged[key]
        try:
            return cls(**fields, **parts)
        except MetronetError as exc:
            key = key_of.get(str(exc).split(" ", 1)[0])
            if key not in merged:  # a rejected default: the class's message names both fields
                raise
            raise MetronetError(f"{inherited.get(key, key)}: {exc}") from exc

    # every stations.geojson written here may feed stage 2, so the CLI takes 2 stations or more
    if (count := merged.get("station_count", 2)) not in range(2, MAX_STATIONS + 1):
        raise MetronetError(f"station_count: station_count must lie in [2, {MAX_STATIONS}], got {count}")
    return RunConfig(
        **{key: Path(merged[key]) if key in merged else None for key in _PATH_KEYS},
        cell_size=merged["cell_size"],
        stage1=build("stage1", StationStageConfig, ga=build("stage1.ga", GaConfig),
                     coverage=build("stage1.coverage", CoverageParams)),
        stage2=build("stage2", LineStageConfig, ga=build("stage2.ga", GaConfig)),
    )


def _manifest_entries(cfg: RunConfig) -> list[tuple[str, str]]:
    """Every resolved setting that has a value, in ``ALL_KEYS`` order."""
    values = ((key, attrgetter(home)(cfg)) for key, home in _HOMES.items())
    return [(key, str(value)) for key, value in values if value is not None]


def _load_inputs(cfg: RunConfig):
    """Load region, demand grid, and (optional) generators per the config."""
    if cfg.boundaries is None or cfg.densities is None:
        raise ParseError("boundaries and densities paths must be configured")
    region = load_region(cfg.boundaries, cfg.densities)
    grid = rasterize(region.districts, cfg.cell_size)
    generators = load_generators(cfg.generators, region) if cfg.generators else DemandPoints(*np.zeros((3, 0)))
    return region, grid, generators


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _key_lines(pairs: Sequence[tuple[str, object]]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _drive(args: argparse.Namespace) -> int:
    """Run one config command: resolve and load, then its body.

    A rejection (``MetronetError``) while resolving or loading exits 2, and
    any other error there propagates. The body writes its files through
    ``artifact(name)`` and returns the (key, value) pairs to print; any error
    in it exits 3 and removes the files it had opened.
    """
    try:
        cfg = resolve_config(args)
        region, grid, generators = _load_inputs(cfg)
        cfg = replace(cfg, stage1=cfg.stage1.sized(grid.total_population))
        extra = args.read_extra(args)
    except MetronetError as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    written: list[Path] = []

    def artifact(name: str) -> Path:
        cfg.out.mkdir(parents=True, exist_ok=True)
        written.append(cfg.out / name)
        return written[-1]

    try:
        printed = args.body(cfg, region, grid, generators, extra, artifact)
    except Exception as exc:
        for path in written:
            path.unlink(missing_ok=True)
        return _fail(exc, EXIT_STAGE_FAILURE)
    print(_key_lines(printed), end="")
    return 0


def _grid(cfg, region, grid, generators, _extra, artifact) -> list[tuple[str, object]]:
    """Rasterize the region and emit the demand grid plus a summary."""
    artifacts.write_grid_csv(artifact("grid.csv"), grid)
    summary = [("districts", len(region.districts)), ("cells", len(grid)),
               ("total_population", repr(grid.total_population)), ("generators", len(generators))]
    artifact("grid_summary.txt").write_text(_key_lines(summary))
    return summary


def _optimize_stations(cfg, region, grid, generators, _extra, artifact) -> list[tuple[str, str]]:
    """Stage 1 only: station placement."""
    best, serviced, history = stations.optimize_stations(grid, generators, region.districts, cfg.stage1)
    artifacts.write_stations_geojson(artifact("stations.geojson"), best, serviced, region.origin)
    history.write_csv(artifact("history_stage1.csv"))
    results = [("stage1_best_fitness", repr(float(serviced.sum())))]
    artifacts.write_manifest(artifact("manifest.txt"), _manifest_entries(cfg), results)
    return results


def _read_stations(args: argparse.Namespace):
    """The station coordinates of the --stations artifact optimize-lines builds on."""
    if not args.stations:
        raise ParseError("optimize-lines requires --stations <stations.geojson>")
    station_points, _ = artifacts.read_stations_geojson(args.stations)
    if len(station_points) < 2:
        raise ParseError(f"{args.stations}: line layouts need >= 2 stations, got {len(station_points)}")
    return station_points


def _optimize_lines(cfg, region, grid, generators, station_points, artifact) -> list[tuple[str, str]]:
    """Stage 2 only, against a pre-existing stations artifact."""
    serviced = coverage.evaluate(station_points, grid, generators, cfg.stage1.coverage)
    best, history = lines.optimize_lines(station_points, serviced, cfg.stage2)
    artifacts.write_lines_geojson(artifact("lines.geojson"), best, station_points, region.origin)
    history.write_csv(artifact("history_stage2.csv"))
    fitness = lines.line_fitness(best, station_points, serviced, cfg.stage2.transfer_penalty_m)
    return [("stage2_best_fitness", repr(fitness.value))]


def _run(cfg, region, grid, generators, _extra, artifact) -> list[tuple[str, str]]:
    """Full pipeline: optimize-stations, then optimize-lines on the stations it wrote."""
    results = _optimize_stations(cfg, region, grid, generators, None, artifact)
    station_points, _ = artifacts.read_stations_geojson(cfg.out / "stations.geojson")
    results += _optimize_lines(cfg, region, grid, generators, station_points, artifact)
    artifacts.write_manifest(artifact("manifest.txt"), _manifest_entries(cfg), results)
    return results


def validate_artifacts(stations_file: Path, lines_file: Path) -> None:
    """Re-check genome invariants on emitted artifacts; raises ``InvalidLayout`` on the first violation.

    ``netgraph.build`` makes the layout checks, so only the first broken
    line rule is reported; connectivity is checked once the layout holds.
    """
    station_points, _ = artifacts.read_stations_geojson(stations_file)
    layout = artifacts.read_lines_geojson(lines_file)
    netgraph.build(layout, station_points)
    if len(set(netgraph.components(layout, len(station_points)))) > 1:
        raise InvalidLayout("network is disconnected (some station unreachable)")


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        validate_artifacts(args.stations_file, args.lines_file)
    except InvalidLayout as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MetronetError as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    print("artifacts valid")
    return 0


def _config_flags() -> argparse.ArgumentParser:
    """A parent parser holding ``--config`` and one flag per config key, shared by the config subcommands."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", type=Path, default=None, help="key = value config file")
    for key, caster in ALL_KEYS.items():
        flag = "--" + key.replace("_", "-")
        flags.add_argument(flag, dest=key, type=caster, default=None, help=argparse.SUPPRESS)
    return flags


def _add_config_command(sub, flags, name: str, summary: str, body, read_extra=lambda args: None):
    """A subcommand taking every config key as a flag, run by ``_drive`` with ``body``."""
    parser = sub.add_parser(name, help=summary, parents=[flags])
    parser.set_defaults(func=_drive, body=body, read_extra=read_extra)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metronet",
        description="Design a metro network from geospatial demand data with a two-stage GA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _config_flags()
    _add_config_command(sub, flags, "grid", "rasterize the region into a demand grid", _grid)
    _add_config_command(sub, flags, "optimize-stations", "run stage 1 (station placement)", _optimize_stations)
    p_ln = _add_config_command(
        sub, flags, "optimize-lines", "run stage 2 against existing stations", _optimize_lines, _read_stations
    )
    p_ln.add_argument("--stations", type=Path, default=None, help="stations.geojson from a prior run")
    _add_config_command(sub, flags, "run", "full two-stage pipeline", _run)

    p_val = sub.add_parser("validate", help="re-check invariants on emitted artifacts")
    p_val.add_argument("stations_file", type=Path)
    p_val.add_argument("lines_file", type=Path)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
