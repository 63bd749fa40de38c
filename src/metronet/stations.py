"""Stage 1: evolve station coordinates to maximize Gaussian demand coverage."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import coverage, evolve
from .coverage import CoverageParams
from .errors import MetronetError
from .evolve import EvolutionHistory, GaConfig, GenerationHook
from .geomodel import (
    PLANAR_BOUND_M,
    DemandGrid,
    DemandPoints,
    District,
    nearest_boundary_point,
    point_in_region,
    points_in_region,
)

_MAX_OFFSET_TRIES = 16
_MAX_JITTER_TRIES = 8
# Stage 2 holds n x n float matrices: 32 MB each at this count.
MAX_STATIONS = 2_000


def _frozen(stations: np.ndarray) -> np.ndarray:
    """A stage-1 genome: K stations in order as a (K, 2) float array of planar x, y.

    Every genome is made read-only, so a child never shares a writeable array
    with its parents.
    """
    stations.flags.writeable = False
    return stations


@dataclass(frozen=True)
class StationStageConfig:
    station_count: int | None = None  # None: sized from the grid population
    mutation_sigma: float = 1000.0  # std-dev of the coordinate shift, meters
    ga: GaConfig = GaConfig()
    coverage: CoverageParams = CoverageParams()

    def __post_init__(self):
        if self.station_count is not None and not (1 <= self.station_count <= MAX_STATIONS):
            raise MetronetError(f"station_count must lie in [1, {MAX_STATIONS}], got {self.station_count}")
        if not (0 < self.mutation_sigma <= PLANAR_BOUND_M):
            raise MetronetError(f"mutation_sigma must lie in (0, {PLANAR_BOUND_M:g}] meters, got {self.mutation_sigma}")

    def sized(self, total_population: float) -> StationStageConfig:
        """This config with an omitted station_count set by ``suggest_station_count``."""
        if self.station_count is not None:
            return self
        try:
            return replace(self, station_count=suggest_station_count(total_population))
        except MetronetError as exc:
            raise MetronetError(f"{exc}, sized from the grid population of {total_population!r}") from exc


def suggest_station_count(total_population: float) -> int:
    """Rough sizing heuristic: one station per 150k residents, at least 2.

    A convenience default only; pick the count deliberately for real studies.
    """
    return max(2, round(total_population / 150_000.0))


def _draw_cells(cdf: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(cdf), size=size, p=weights)``, the same cells and draws, for ``cdf`` built once.

    ``cdf`` is ``np.cumsum(weights)`` divided by its last entry, which
    ``choice`` rebuilds, with its checks on the weights, on every call.
    """
    return cdf.searchsorted(rng.random(size), side="right")


def init_population(
    grid: DemandGrid,
    districts: Sequence[District],
    station_count: int,
    population_size: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Seed genomes by population-weighted cell sampling with in-cell jitter.

    Per genome: one draw of cells, then each station's x and y offset in
    station order, a station that leaves the region retrying right after its
    miss (8 tries, then its cell centroid). The generator only moves forward:
    the offsets of all K stations are drawn at once and tested from the
    first station still to place. A missed station's offset is spent, each
    later station takes the next offset in stream order, and a retry draws
    one fresh offset at the end.
    """
    cdf = np.cumsum(grid.population / grid.total_population)
    cdf /= cdf[-1]
    half = grid.cell_size / 2.0
    population = []
    for _ in range(population_size):
        cells = _draw_cells(cdf, station_count, rng)
        points = np.column_stack([grid.x[cells], grid.y[cells]])
        offsets = rng.uniform(-half, half, size=(station_count, 2))
        k = misses = 0
        while k < station_count:
            jittered = points[k:] + offsets
            inside = points_in_region(jittered, districts)
            placed = len(inside) if inside.all() else int(inside.argmin())
            points[k:k + placed] = jittered[:placed]
            k += placed
            if k < station_count:
                offsets = offsets[placed + 1:]
                misses = 1 if placed else misses + 1
                if misses < _MAX_JITTER_TRIES:
                    offsets = np.concatenate([offsets, rng.uniform(-half, half, size=(1, 2))])
                else:  # the station keeps its centroid, which is inside
                    k, misses = k + 1, 0
        population.append(_frozen(points))
    return population


def mutate(
    genome: np.ndarray,
    mutation_sigma: float,
    rng: np.random.Generator,
    districts: Sequence[District],
) -> np.ndarray:
    """Shift one uniformly chosen station by a Normal(0, sigma) offset per axis.

    Offsets that leave the study area are resampled up to 16 times; the last
    attempt is then clamped to the nearest district boundary point.
    """
    k = int(rng.integers(len(genome)))
    for _ in range(_MAX_OFFSET_TRIES):
        moved = genome[k] + rng.normal(0.0, mutation_sigma, size=2)
        if point_in_region(moved, districts):
            break
    else:
        moved, _ = nearest_boundary_point(moved, districts)
    stations = genome.copy()
    stations[k] = moved
    return _frozen(stations)


def crossover(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform per-slot crossover: each index swaps or keeps the parental pair."""
    swap = rng.random(len(parent_a))[:, None] < 0.5
    return _frozen(np.where(swap, parent_b, parent_a)), _frozen(np.where(swap, parent_a, parent_b))


def _coverage_of(
    grid: DemandGrid,
    generators: DemandPoints,
    params: CoverageParams,
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-station coverage of a station array, memoized per (x, y) coordinate in sum mode.

    A sum-mode share depends only on the station's own coordinate, so each
    coordinate is evaluated once and the shares are assembled from the memo;
    they equal ``coverage.evaluate`` of the whole array bit for bit. Nearest
    mode is not separable and evaluates every array in full.
    """
    if params.mode != "sum":
        return lambda stations: coverage.evaluate(stations, grid, generators, params)
    shares: dict[tuple[float, float], float] = {}

    def per_station(stations: np.ndarray) -> np.ndarray:
        points = [tuple(p) for p in stations.tolist()]
        missing = list(dict.fromkeys(p for p in points if p not in shares))
        if missing:
            shares.update(zip(missing, coverage.evaluate(np.array(missing), grid, generators, params)))
        return np.array([shares[p] for p in points])

    return per_station


def optimize_stations(
    grid: DemandGrid,
    generators: DemandPoints,
    districts: Sequence[District],
    config: StationStageConfig,
    on_generation: GenerationHook | None = None,
) -> tuple[np.ndarray, np.ndarray, EvolutionHistory]:
    """Run the stage-1 GA; returns the best (K, 2) station array, its per-station coverage, and history."""
    config = config.sized(grid.total_population)
    ga = replace(config.ga, objective_sense="maximize")
    init_rng = np.random.default_rng(np.random.SeedSequence(ga.rng_seed, spawn_key=(0,)))
    initial = init_population(grid, districts, config.station_count, ga.population_size, init_rng)

    coverage_of = _coverage_of(grid, generators, config.coverage)

    def fitness(genome: np.ndarray) -> float:
        return float(coverage_of(genome).sum())

    def mutation(genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return mutate(genome, config.mutation_sigma, rng, districts)

    # The operators keep every station inside, so the validator has nothing
    # to restore: init_population keeps a jittered point only if it is
    # inside, else the cell centroid, which passed the same even-odd test;
    # mutate resamples, then clamps onto the boundary, which point_in_region
    # accepts within SNAP_TOLERANCE_M; crossover only swaps coordinates.
    best, history = evolve.run(
        initial,
        fitness,
        crossover,
        mutation,
        lambda genome: genome,
        ga,
        on_generation=on_generation,
    )
    return best, coverage_of(best), history
