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

from . import artifacts, coverage, lines, netgraph, stations
from .coverage import CoverageParams
from .errors import MetronetError, ParseError
from .evolve import GaConfig
from .geomodel import check_cell_size, load_generators, load_region, rasterize
from .lines import LineStageConfig
from .stations import StationStageConfig

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
    except OSError as exc:
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

    # stage 2 shifts the shared seed so the stages draw distinct streams
    merged.setdefault("stage2_seed", merged.get("seed", GaConfig.rng_seed) + 1)
    for key in _GA_KEYS:
        if key in merged:
            for n in (1, 2):
                merged.setdefault(f"stage{n}_{key}", merged[key])

    def given(owner: str) -> dict[str, object]:
        """The set values that live directly on the object at ``owner``, by field name."""
        fields = {}
        for key, home in _HOMES.items():
            parent, _, field = home.rpartition(".")
            if parent == owner and key in merged:
                fields[field] = merged[key]
        return fields

    return RunConfig(
        **{key: Path(merged[key]) if key in merged else None for key in _PATH_KEYS},
        cell_size=merged["cell_size"],
        stage1=StationStageConfig(
            **given("stage1"),
            ga=GaConfig(**given("stage1.ga")),
            coverage=CoverageParams(**given("stage1.coverage")),
        ),
        stage2=LineStageConfig(**given("stage2"), ga=GaConfig(**given("stage2.ga"))),
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
    generators = load_generators(cfg.generators, region) if cfg.generators else ()
    return region, grid, generators


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _drive(args: argparse.Namespace) -> int:
    """Run one config command: resolve and load, then its body.

    Any error while resolving or loading exits 2. The body writes its files
    through ``artifact(name)`` and returns the lines to print; any error in
    it exits 3 and removes the files it had opened.
    """
    try:
        cfg = resolve_config(args)
        region, grid, generators = _load_inputs(cfg)
        cfg = replace(cfg, stage1=cfg.stage1.sized(grid.total_population))
        extra = args.read_extra(args)
    except (MetronetError, ValueError) as exc:
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
    print("\n".join(printed))
    return 0


def _grid(cfg, region, grid, generators, _extra, artifact) -> list[str]:
    """Rasterize the region and emit the demand grid plus a summary."""
    artifacts.write_grid_csv(artifact("grid.csv"), grid)
    summary = [
        f"districts = {len(region.districts)}",
        f"cells = {len(grid)}",
        f"total_population = {grid.total_population!r}",
        f"generators = {len(generators)}",
    ]
    artifact("grid_summary.txt").write_text("\n".join(summary) + "\n")
    return summary


def _optimize_stations(cfg, region, grid, generators, _extra, artifact) -> list[str]:
    """Stage 1 only: station placement."""
    best, report, history = stations.optimize_stations(grid, generators, region.districts, cfg.stage1)
    artifacts.write_stations_geojson(artifact("stations.geojson"), best, report, region.origin)
    history.write_csv(artifact("history_stage1.csv"))
    results = [("stage1_best_fitness", repr(report.total))]
    artifacts.write_manifest(artifact("manifest.txt"), _manifest_entries(cfg), results)
    return [f"{key} = {value}" for key, value in results]


def _read_stations(args: argparse.Namespace):
    """The station coordinates of the --stations artifact optimize-lines builds on."""
    if not args.stations:
        raise ParseError("optimize-lines requires --stations <stations.geojson>")
    station_points, _ = artifacts.read_stations_geojson(args.stations)
    return station_points


def _optimize_lines(cfg, region, grid, generators, station_points, artifact) -> list[str]:
    """Stage 2 only, against a pre-existing stations artifact."""
    report = coverage.evaluate(station_points, grid, generators, cfg.stage1.coverage)
    best, history = lines.optimize_lines(station_points, report.per_station, cfg.stage2)
    artifacts.write_lines_geojson(artifact("lines.geojson"), best, station_points, region.origin)
    history.write_csv(artifact("history_stage2.csv"))
    fitness = lines.line_fitness(best, station_points, report.per_station, cfg.stage2.transfer_penalty_m)
    return [f"stage2_best_fitness = {fitness.value!r}"]


def _run(cfg, region, grid, generators, _extra, artifact) -> list[str]:
    """Full pipeline: stage 1 stations feed their serviced counts into stage 2."""
    best_st, report, hist1 = stations.optimize_stations(grid, generators, region.districts, cfg.stage1)
    best_ln, hist2 = lines.optimize_lines(best_st.stations, report.per_station, cfg.stage2)
    fitness2 = lines.line_fitness(
        best_ln, best_st.stations, report.per_station, cfg.stage2.transfer_penalty_m
    )
    artifacts.write_stations_geojson(artifact("stations.geojson"), best_st, report, region.origin)
    artifacts.write_lines_geojson(artifact("lines.geojson"), best_ln, best_st.stations, region.origin)
    hist1.write_csv(artifact("history_stage1.csv"))
    hist2.write_csv(artifact("history_stage2.csv"))
    results = [("stage1_best_fitness", repr(report.total)), ("stage2_best_fitness", repr(fitness2.value))]
    artifacts.write_manifest(artifact("manifest.txt"), _manifest_entries(cfg), results)
    return [f"{key} = {value}" for key, value in results]


def validate_artifacts(stations_file: Path, lines_file: Path) -> list[str]:
    """Re-check genome invariants on emitted artifacts; returns violations."""
    station_points, _ = artifacts.read_stations_geojson(stations_file)
    genome = artifacts.read_lines_geojson(lines_file)
    n = len(station_points)
    violations = []
    for li, line in enumerate(genome.lines):
        if len(line) < 2:
            violations.append(f"line {li}: fewer than 2 stations")
        dupes = {s for s in line if line.count(s) > 1}
        if dupes:
            violations.append(f"line {li}: loop (repeated station {sorted(dupes)})")
        bad = [s for s in line if not (0 <= s < n)]
        if bad:
            violations.append(f"line {li}: station index out of range {bad}")
    if not violations:
        net = netgraph.build(genome.lines, station_points)
        if not netgraph.is_connected(net):
            violations.append("network is disconnected (some station unreachable)")
    return violations


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        violations = validate_artifacts(args.stations_file, args.lines_file)
    except MetronetError as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    print("artifacts valid")
    return 0


def _add_config_command(sub, name: str, summary: str, body, read_extra=lambda args: None):
    """A subcommand taking every config key as a flag, run by ``_drive`` with ``body``."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    for key, caster in ALL_KEYS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=caster, default=None, help=argparse.SUPPRESS)
    parser.set_defaults(func=_drive, body=body, read_extra=read_extra)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metronet",
        description="Design a metro network from geospatial demand data with a two-stage GA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_config_command(sub, "grid", "rasterize the region into a demand grid", _grid)
    _add_config_command(sub, "optimize-stations", "run stage 1 (station placement)", _optimize_stations)
    p_ln = _add_config_command(
        sub, "optimize-lines", "run stage 2 against existing stations", _optimize_lines, _read_stations
    )
    p_ln.add_argument("--stations", type=Path, default=None, help="stations.geojson from a prior run")
    _add_config_command(sub, "run", "full two-stage pipeline", _run)

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
