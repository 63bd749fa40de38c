"""End-to-end command line: config resolution, loading, both stages, artifacts.

Configuration is a flat ``key = value`` file; any key can be overridden by
the flag of the same name (flags win). GA keys apply to both stages unless
prefixed with ``stage1_`` or ``stage2_``.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import artifacts, coverage, lines, netgraph, stations
from .coverage import CoverageParams
from .errors import MetronetError, ParseError
from .evolve import GaConfig
from .geomodel import Region, load_generators, load_region, rasterize
from .lines import LineStageConfig
from .stations import StationStageConfig, suggest_station_count

_BASE_KEYS: dict[str, type] = {
    "boundaries": str,
    "densities": str,
    "generators": str,
    "out": str,
    "cell_size": float,
    "sigma": float,
    "coverage_mode": str,
    "station_count": int,
    "line_count": int,
    "mutation_sigma": float,
    "transfer_penalty_m": float,
}
_GA_KEYS: dict[str, type] = {
    "population_size": int,
    "generations": int,
    "crossover_rate": float,
    "mutation_rate": float,
    "elite_count": int,
    "seed": int,
}
ALL_KEYS: dict[str, type] = {
    **_BASE_KEYS,
    **_GA_KEYS,
    **{f"stage{n}_{k}": t for n in (1, 2) for k, t in _GA_KEYS.items()},
}

EXIT_LOAD_ERROR = 2
EXIT_STAGE_FAILURE = 3
EXIT_VALIDATION = 4


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline configuration."""

    boundaries: Path | None
    densities: Path | None
    generators: Path | None
    out: Path
    cell_size: float
    sigma: float
    coverage_mode: str
    station_count: int | None
    line_count: int
    mutation_sigma: float
    transfer_penalty_m: float
    stage1: GaConfig
    stage2: GaConfig

    def coverage_params(self) -> CoverageParams:
        return CoverageParams(sigma=self.sigma, mode=self.coverage_mode)


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
    """Merge defaults, the --config file, and explicit flags (flags win)."""
    merged: dict[str, object] = {}
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

    def get(key: str, default):
        return merged.get(key, default)

    def ga_for(stage: int) -> GaConfig:
        def pick(key: str, default):
            return merged.get(f"stage{stage}_{key}", merged.get(key, default))

        shared_seed = int(get("seed", 0))
        # stage 2 shifts the shared seed so the stages draw distinct streams
        default_seed = shared_seed if stage == 1 else shared_seed + 1
        return GaConfig(
            population_size=int(pick("population_size", 50)),
            generations=int(pick("generations", 10)),
            crossover_rate=float(pick("crossover_rate", 0.9)),
            mutation_rate=float(pick("mutation_rate", 0.3)),
            elite_count=int(pick("elite_count", 2)),
            rng_seed=int(merged.get(f"stage{stage}_seed", default_seed)),
        )

    def path_or_none(key: str) -> Path | None:
        value = merged.get(key)
        return Path(str(value)) if value is not None else None

    return RunConfig(
        boundaries=path_or_none("boundaries"),
        densities=path_or_none("densities"),
        generators=path_or_none("generators"),
        out=Path(str(get("out", "metronet_out"))),
        cell_size=float(get("cell_size", 500.0)),
        sigma=float(get("sigma", 800.0)),
        coverage_mode=str(get("coverage_mode", "sum")),
        station_count=int(merged["station_count"]) if "station_count" in merged else None,
        line_count=int(get("line_count", 5)),
        mutation_sigma=float(get("mutation_sigma", 1000.0)),
        transfer_penalty_m=float(get("transfer_penalty_m", 0.0)),
        stage1=ga_for(1),
        stage2=ga_for(2),
    )


def _load_inputs(cfg: RunConfig):
    """Load region, demand grid, and (optional) generators per the config."""
    if cfg.boundaries is None or cfg.densities is None:
        raise ParseError("boundaries and densities paths must be configured")
    region = load_region(cfg.boundaries, cfg.densities)
    grid = rasterize(region.districts, cfg.cell_size)
    generators = load_generators(cfg.generators, region) if cfg.generators else ()
    return region, grid, generators


def _manifest_entries(cfg: RunConfig, station_count: int) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []
    for key in ("boundaries", "densities", "generators"):
        value = getattr(cfg, key)
        if value is not None:
            entries.append((key, str(value)))
    entries += [
        ("out", str(cfg.out)),
        ("cell_size", repr(cfg.cell_size)),
        ("sigma", repr(cfg.sigma)),
        ("coverage_mode", cfg.coverage_mode),
        ("station_count", str(station_count)),
        ("line_count", str(cfg.line_count)),
        ("mutation_sigma", repr(cfg.mutation_sigma)),
        ("transfer_penalty_m", repr(cfg.transfer_penalty_m)),
    ]
    for name, ga in (("stage1", cfg.stage1), ("stage2", cfg.stage2)):
        entries += [
            (f"{name}_population_size", str(ga.population_size)),
            (f"{name}_generations", str(ga.generations)),
            (f"{name}_crossover_rate", repr(ga.crossover_rate)),
            (f"{name}_mutation_rate", repr(ga.mutation_rate)),
            (f"{name}_elite_count", str(ga.elite_count)),
            (f"{name}_seed", str(ga.rng_seed)),
        ]
    return entries


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


class _ArtifactWriter:
    """Collects written paths so a failed run can remove partial artifacts."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        self.written.append(p)
        return p

    def discard_all(self) -> None:
        for p in self.written:
            p.unlink(missing_ok=True)


def cmd_grid(args: argparse.Namespace) -> int:
    """Rasterize the region and emit the demand grid plus a summary."""
    try:
        cfg = resolve_config(args)
        cfg.coverage_params()  # validate sigma/mode early
        region, grid, generators = _load_inputs(cfg)
    except (MetronetError, ValueError) as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    cfg.out.mkdir(parents=True, exist_ok=True)
    artifacts.write_grid_csv(cfg.out / "grid.csv", grid)
    summary = [
        f"districts = {len(region.districts)}",
        f"cells = {len(grid)}",
        f"total_population = {grid.total_population!r}",
        f"generators = {len(generators)}",
    ]
    (cfg.out / "grid_summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def _run_stage1(cfg: RunConfig, grid, generators, region: Region, station_count: int):
    stage_cfg = StationStageConfig(
        station_count=station_count,
        mutation_sigma=cfg.mutation_sigma,
        ga=cfg.stage1,
        coverage=cfg.coverage_params(),
    )
    return stations.optimize_stations(grid, generators, region.districts, stage_cfg)


def _run_stage2(cfg: RunConfig, best_stations, serviced):
    stage_cfg = LineStageConfig(
        line_count=cfg.line_count,
        ga=cfg.stage2,
        transfer_penalty_m=cfg.transfer_penalty_m,
    )
    return lines.optimize_lines(best_stations, serviced, stage_cfg)


def cmd_optimize_stations(args: argparse.Namespace) -> int:
    """Stage 1 only: station placement."""
    try:
        cfg = resolve_config(args)
        cfg.coverage_params()  # validate sigma/mode early
        region, grid, generators = _load_inputs(cfg)
    except (MetronetError, ValueError) as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    station_count = cfg.station_count or suggest_station_count(grid.total_population)
    writer = _ArtifactWriter(cfg.out)
    try:
        best, report, history = _run_stage1(cfg, grid, generators, region, station_count)
        artifacts.write_stations_geojson(writer.path("stations.geojson"), best, report, region.origin)
        history.write_csv(writer.path("history_stage1.csv"))
        artifacts.write_manifest(
            writer.path("manifest.txt"),
            _manifest_entries(cfg, station_count),
            [("stage1_best_fitness", repr(report.total))],
        )
    except Exception as exc:
        writer.discard_all()
        return _fail(exc, EXIT_STAGE_FAILURE)
    print(f"stage1_best_fitness = {report.total!r}")
    return 0


def cmd_optimize_lines(args: argparse.Namespace) -> int:
    """Stage 2 only, against a pre-existing stations artifact."""
    try:
        cfg = resolve_config(args)
        params = cfg.coverage_params()
        if not getattr(args, "stations", None):
            raise ParseError("optimize-lines requires --stations <stations.geojson>")
        region, grid, generators = _load_inputs(cfg)
        station_points, _ = artifacts.read_stations_geojson(args.stations)
    except (MetronetError, ValueError) as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    writer = _ArtifactWriter(cfg.out)
    try:
        report = coverage.evaluate(station_points, grid, generators, params)
        best, history = _run_stage2(cfg, station_points, report.per_station)
        artifacts.write_lines_geojson(writer.path("lines.geojson"), best, station_points, region.origin)
        history.write_csv(writer.path("history_stage2.csv"))
    except Exception as exc:
        writer.discard_all()
        return _fail(exc, EXIT_STAGE_FAILURE)
    fitness = lines.line_fitness(best, station_points, report.per_station, cfg.transfer_penalty_m)
    print(f"stage2_best_fitness = {fitness.value!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Full pipeline: stage 1 stations feed their serviced counts into stage 2."""
    try:
        cfg = resolve_config(args)
        cfg.coverage_params()
        region, grid, generators = _load_inputs(cfg)
    except (MetronetError, ValueError) as exc:
        return _fail(exc, EXIT_LOAD_ERROR)
    station_count = cfg.station_count or suggest_station_count(grid.total_population)
    writer = _ArtifactWriter(cfg.out)
    try:
        best_st, report, hist1 = _run_stage1(cfg, grid, generators, region, station_count)
        best_ln, hist2 = _run_stage2(cfg, best_st.stations, report.per_station)
        fitness2 = lines.line_fitness(
            best_ln, best_st.stations, report.per_station, cfg.transfer_penalty_m
        )
        artifacts.write_stations_geojson(writer.path("stations.geojson"), best_st, report, region.origin)
        artifacts.write_lines_geojson(writer.path("lines.geojson"), best_ln, best_st.stations, region.origin)
        hist1.write_csv(writer.path("history_stage1.csv"))
        hist2.write_csv(writer.path("history_stage2.csv"))
        artifacts.write_manifest(
            writer.path("manifest.txt"),
            _manifest_entries(cfg, station_count),
            [
                ("stage1_best_fitness", repr(report.total)),
                ("stage2_best_fitness", repr(fitness2.value)),
            ],
        )
    except Exception as exc:
        writer.discard_all()
        return _fail(exc, EXIT_STAGE_FAILURE)
    print(f"stage1_best_fitness = {report.total!r}")
    print(f"stage2_best_fitness = {fitness2.value!r}")
    return 0


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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    for key, caster in ALL_KEYS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=caster, default=None, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metronet",
        description="Design a metro network from geospatial demand data with a two-stage GA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser("grid", help="rasterize the region into a demand grid")
    _add_config_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid)

    p_st = sub.add_parser("optimize-stations", help="run stage 1 (station placement)")
    _add_config_flags(p_st)
    p_st.set_defaults(func=cmd_optimize_stations)

    p_ln = sub.add_parser("optimize-lines", help="run stage 2 against existing stations")
    _add_config_flags(p_ln)
    p_ln.add_argument("--stations", type=Path, default=None, help="stations.geojson from a prior run")
    p_ln.set_defaults(func=cmd_optimize_lines)

    p_run = sub.add_parser("run", help="full two-stage pipeline")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

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
