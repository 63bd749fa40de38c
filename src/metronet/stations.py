"""Stage 1: evolve station coordinates to maximize Gaussian demand coverage."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import coverage, evolve
from .coverage import CoverageParams, CoverageReport
from .errors import EmptyGrid
from .evolve import EvolutionHistory, GaConfig, GenerationHook
from .geomodel import (
    DemandGrid,
    District,
    GeneratorPoint,
    PlanarPoint,
    nearest_boundary_point,
    point_in_region,
)

_MAX_OFFSET_TRIES = 16
_MAX_JITTER_TRIES = 8


@dataclass(frozen=True)
class StationGenome:
    """An ordered list of exactly K candidate station coordinates."""

    stations: tuple[PlanarPoint, ...]

    def __len__(self) -> int:
        return len(self.stations)


@dataclass(frozen=True)
class StationStageConfig:
    station_count: int | None = None  # None: sized from the grid population
    mutation_sigma: float = 1000.0  # std-dev of the coordinate shift, meters
    ga: GaConfig = GaConfig()
    coverage: CoverageParams = CoverageParams()

    def __post_init__(self):
        if self.station_count is not None and self.station_count < 1:
            raise ValueError("station_count must be >= 1")
        if not (math.isfinite(self.mutation_sigma) and self.mutation_sigma > 0):
            raise ValueError(f"mutation_sigma must be finite and > 0, got {self.mutation_sigma}")

    def sized(self, total_population: float) -> StationStageConfig:
        """This config with an omitted station_count set by ``suggest_station_count``."""
        if self.station_count is not None:
            return self
        return replace(self, station_count=suggest_station_count(total_population))


def suggest_station_count(total_population: float) -> int:
    """Rough sizing heuristic: one station per 150k residents, at least 2.

    A convenience default only; pick the count deliberately for real studies.
    """
    return max(2, round(total_population / 150_000.0))


def init_population(
    grid: DemandGrid,
    districts: Sequence[District],
    station_count: int,
    population_size: int,
    rng: np.random.Generator,
) -> list[StationGenome]:
    """Seed genomes by population-weighted cell sampling with in-cell jitter."""
    if len(grid) == 0:
        raise EmptyGrid("cannot initialize stations from an empty grid")
    weights = grid.population / grid.total_population
    half = grid.cell_size / 2.0
    population = []
    for _ in range(population_size):
        cells = rng.choice(len(grid), size=station_count, p=weights)
        points = []
        for c in cells:
            cx, cy = float(grid.x[c]), float(grid.y[c])
            point = PlanarPoint(cx, cy)  # fallback: the centroid itself is inside
            for _ in range(_MAX_JITTER_TRIES):
                jittered = PlanarPoint(
                    cx + float(rng.uniform(-half, half)),
                    cy + float(rng.uniform(-half, half)),
                )
                if point_in_region(jittered, districts):
                    point = jittered
                    break
            points.append(point)
        population.append(StationGenome(tuple(points)))
    return population


def mutate(
    genome: StationGenome,
    mutation_sigma: float,
    rng: np.random.Generator,
    districts: Sequence[District],
) -> StationGenome:
    """Shift one uniformly chosen station by a Normal(0, sigma) offset per axis.

    Offsets that leave the study area are resampled up to 16 times; the last
    attempt is then clamped to the nearest district boundary point.
    """
    k = int(rng.integers(len(genome)))
    base = genome.stations[k]
    moved = base
    for _ in range(_MAX_OFFSET_TRIES):
        dx, dy = rng.normal(0.0, mutation_sigma, size=2)
        moved = PlanarPoint(base.x + float(dx), base.y + float(dy))
        if point_in_region(moved, districts):
            break
    else:
        moved, _ = nearest_boundary_point(moved, districts)
    stations = list(genome.stations)
    stations[k] = moved
    return StationGenome(tuple(stations))


def crossover(
    parent_a: StationGenome,
    parent_b: StationGenome,
    rng: np.random.Generator,
) -> tuple[StationGenome, StationGenome]:
    """Uniform per-slot crossover: each index swaps or keeps the parental pair."""
    a = list(parent_a.stations)
    b = list(parent_b.stations)
    for i in range(len(a)):
        if rng.random() < 0.5:
            a[i], b[i] = b[i], a[i]
    return StationGenome(tuple(a)), StationGenome(tuple(b))


def make_validator(districts: Sequence[District]):
    """Repair hook: clamp any station outside the study area to the boundary.

    A coordinate found inside once is not checked again: crossover only
    swaps coordinates the hook has seen, and mutation yields points that are
    inside or clamped onto the boundary.
    """
    inside: set[PlanarPoint] = set()

    def validator(genome: StationGenome) -> StationGenome:
        fixed = None
        for i, p in enumerate(genome.stations):
            if p in inside:
                continue
            if point_in_region(p, districts):
                inside.add(p)
                continue
            if fixed is None:
                fixed = list(genome.stations)
            fixed[i], _ = nearest_boundary_point(p, districts)
        return genome if fixed is None else StationGenome(tuple(fixed))

    return validator


def _coverage_of(
    grid: DemandGrid,
    generators: Sequence[GeneratorPoint],
    params: CoverageParams,
) -> Callable[[Sequence[PlanarPoint]], CoverageReport]:
    """Coverage report of a station list, memoized per coordinate in sum mode.

    A sum-mode share depends only on the station's own coordinate, so each
    coordinate is evaluated once and the report is assembled from the memo;
    it equals ``coverage.evaluate`` of the whole list bit for bit. Nearest
    mode is not separable and evaluates every list in full.
    """
    if params.mode != "sum":
        return lambda points: coverage.evaluate(points, grid, generators, params)
    shares: dict[PlanarPoint, tuple[float, float]] = {}

    def report(points: Sequence[PlanarPoint]) -> CoverageReport:
        missing = list(dict.fromkeys(p for p in points if p not in shares))
        if missing:
            fresh = coverage.evaluate(missing, grid, generators, params)
            shares.update(zip(missing, zip(fresh.district, fresh.generator)))
        district = np.array([shares[p][0] for p in points])
        generator = np.array([shares[p][1] for p in points])
        return coverage.report_from_shares(district, generator)

    return report


def optimize_stations(
    grid: DemandGrid,
    generators: Sequence[GeneratorPoint],
    districts: Sequence[District],
    config: StationStageConfig,
    on_generation: GenerationHook | None = None,
) -> tuple[StationGenome, CoverageReport, EvolutionHistory]:
    """Run the stage-1 GA; returns the best genome, its coverage report, and history."""
    config = config.sized(grid.total_population)
    ga = replace(config.ga, objective_sense="maximize")
    init_rng = np.random.default_rng(np.random.SeedSequence(ga.rng_seed, spawn_key=(0,)))
    initial = init_population(grid, districts, config.station_count, ga.population_size, init_rng)

    coverage_of = _coverage_of(grid, generators, config.coverage)

    def fitness(genome: StationGenome) -> float:
        return coverage_of(genome.stations).total

    def mutation(genome: StationGenome, rng: np.random.Generator) -> StationGenome:
        return mutate(genome, config.mutation_sigma, rng, districts)

    best, history = evolve.run(
        initial,
        fitness,
        crossover,
        mutation,
        make_validator(districts),
        ga,
        on_generation=on_generation,
    )
    return best, coverage_of(best.stations), history
