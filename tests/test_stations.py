"""Station-placement stage tests: operators, initialization, small optimizations."""
import math
from collections import Counter

import numpy as np
import pytest

from metronet import coverage, stations
from metronet.coverage import CoverageParams, evaluate
from metronet.evolve import GaConfig
from metronet.geomodel import DemandGrid, GeneratorPoint, GeoPoint, PlanarPoint, point_in_region, rasterize
from metronet.stations import (
    StationGenome,
    StationStageConfig,
    crossover,
    init_population,
    make_validator,
    mutate,
    optimize_stations,
    suggest_station_count,
)

from conftest import rect_district


@pytest.fixture
def square_10km():
    return rect_district("square", -5000.0, -5000.0, 5000.0, 5000.0, 1000.0)


class TestInitPopulation:
    def test_single_cell_forces_support(self, unit_square_km):
        grid = DemandGrid(500.0, np.array([500.0]), np.array([500.0]), np.array([100.0]))
        rng = np.random.default_rng(0)
        pop = init_population(grid, [unit_square_km], 3, 20, rng)
        for genome in pop:
            for p in genome.stations:
                assert 250.0 <= p.x <= 750.0
                assert 250.0 <= p.y <= 750.0

    def test_zero_population_cell_gets_no_mass(self, unit_square_km):
        grid = DemandGrid(
            500.0, np.array([250.0, 750.0]), np.array([500.0, 500.0]), np.array([0.0, 100.0])
        )
        rng = np.random.default_rng(1)
        pop = init_population(grid, [unit_square_km], 1, 200, rng)
        for genome in pop:
            assert genome.stations[0].x > 500.0

    def test_sampling_frequencies_follow_population(self, square_10km):
        grid = DemandGrid(
            1000.0,
            np.array([-2000.0, 2000.0]),
            np.array([0.0, 0.0]),
            np.array([100.0, 300.0]),
        )
        rng = np.random.default_rng(2)
        pop = init_population(grid, [square_10km], 1, 10_000, rng)
        near_first = sum(1 for g in pop if g.stations[0].x < 0.0)
        assert near_first / 10_000 == pytest.approx(0.25, abs=0.02)

    def test_all_genomes_inside_districts(self, two_district_region):
        grid = rasterize(two_district_region, 500.0)
        rng = np.random.default_rng(3)
        pop = init_population(grid, two_district_region, 5, 50, rng)
        validator = make_validator(two_district_region)
        for genome in pop:
            assert validator(genome) == genome


class TestMutate:
    def test_changes_exactly_one_station(self, square_10km):
        rng = np.random.default_rng(4)
        genome = StationGenome(tuple(PlanarPoint(float(x), 0.0) for x in (-2000, 0, 2000, 4000)))
        mutated = mutate(genome, 500.0, rng, [square_10km])
        differing = [
            i for i, (a, b) in enumerate(zip(genome.stations, mutated.stations)) if a != b
        ]
        assert len(differing) == 1
        unchanged = [i for i in range(4) if i not in differing]
        for i in unchanged:
            assert mutated.stations[i] is genome.stations[i] or mutated.stations[i] == genome.stations[i]

    def test_zero_sigma_limit_is_identity(self, square_10km):
        rng = np.random.default_rng(5)
        genome = StationGenome((PlanarPoint(100.0, 100.0),))
        mutated = mutate(genome, 1e-12, rng, [square_10km])
        assert abs(mutated.stations[0].x - 100.0) < 1e-9
        assert abs(mutated.stations[0].y - 100.0) < 1e-9

    def test_reproducible_with_fixed_seed(self, square_10km):
        genome = StationGenome(tuple(PlanarPoint(float(x), 0.0) for x in (-2000, 0, 2000)))
        a = mutate(genome, 800.0, np.random.default_rng(6), [square_10km])
        b = mutate(genome, 800.0, np.random.default_rng(6), [square_10km])
        assert a == b

    def test_boundary_station_stays_in_region(self, square_10km):
        # large sigma pushes most draws outside; the invariant must still hold
        genome = StationGenome((PlanarPoint(4990.0, 4990.0),))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mutated = mutate(genome, 50_000.0, rng, [square_10km])
            assert point_in_region(mutated.stations[0], [square_10km])


class TestCrossover:
    def test_identical_parents_yield_parents(self):
        genome = StationGenome(tuple(PlanarPoint(float(x), 1.0) for x in range(4)))
        a, b = crossover(genome, genome, np.random.default_rng(7))
        assert a == genome and b == genome

    def test_single_slot_enumerable(self):
        pa = StationGenome((PlanarPoint(0.0, 0.0),))
        pb = StationGenome((PlanarPoint(9.0, 9.0),))
        outcomes = set()
        for seed in range(30):
            a, b = crossover(pa, pb, np.random.default_rng(seed))
            outcomes.add((a.stations[0].x, b.stations[0].x))
        assert outcomes == {(0.0, 9.0), (9.0, 0.0)}

    def test_slots_partition_between_children(self):
        pa = StationGenome(tuple(PlanarPoint(float(i), 0.0) for i in range(4)))
        pb = StationGenome(tuple(PlanarPoint(float(i), 100.0) for i in range(4)))
        a, b = crossover(pa, pb, np.random.default_rng(8))
        for i in range(4):
            pair = {a.stations[i], b.stations[i]}
            assert pair == {pa.stations[i], pb.stations[i]}


class TestOptimize:
    def test_single_cell_unique_optimum_basin(self, unit_square_km):
        grid = DemandGrid(500.0, np.array([500.0]), np.array([500.0]), np.array([100.0]))
        cfg = StationStageConfig(
            station_count=1,
            mutation_sigma=200.0,
            ga=GaConfig(population_size=20, generations=8, rng_seed=0),
            coverage=CoverageParams(800.0),
        )
        best, report, _ = optimize_stations(grid, (), [unit_square_km], cfg)
        p = best.stations[0]
        half_diagonal = math.hypot(250.0, 250.0)
        assert math.hypot(p.x - 500.0, p.y - 500.0) <= half_diagonal
        assert report.total > 0

    def test_uniform_square_reaches_98_percent_of_scan(self, square_10km):
        grid = rasterize([square_10km], 500.0)
        params = CoverageParams(800.0)
        scan_best = max(
            evaluate([PlanarPoint(float(x), float(y))], grid, (), params).total
            for x, y in zip(grid.x, grid.y)
        )
        cfg = StationStageConfig(
            station_count=1,
            mutation_sigma=1000.0,
            ga=GaConfig(population_size=50, generations=10, rng_seed=3),
            coverage=params,
        )
        _, report, _ = optimize_stations(grid, (), [square_10km], cfg)
        assert report.total >= 0.98 * scan_best

    def test_two_distant_clusters_get_one_station_each(self):
        west = rect_district("west", -11000.0, -1000.0, -9000.0, 1000.0, 1000.0)
        east = rect_district("east", 9000.0, -1000.0, 11000.0, 1000.0, 1000.0)
        grid = rasterize([west, east], 500.0)
        params = CoverageParams(800.0)
        cfg = StationStageConfig(
            station_count=2,
            mutation_sigma=1000.0,
            ga=GaConfig(population_size=40, generations=20, rng_seed=1),
            coverage=params,
        )
        best, _, _ = optimize_stations(grid, (), [west, east], cfg)
        centers = [(-10000.0, 0.0), (10000.0, 0.0)]
        assignments = set()
        for p in best.stations:
            dists = [math.hypot(p.x - cx, p.y - cy) for cx, cy in centers]
            assert min(dists) <= 2 * params.sigma
            assignments.add(int(np.argmin(dists)))
        assert assignments == {0, 1}

    def test_elitism_monotone_history(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        cfg = StationStageConfig(
            station_count=3,
            ga=GaConfig(population_size=20, generations=8, elite_count=2, rng_seed=2),
        )
        _, _, history = optimize_stations(grid, (), two_district_region, cfg)
        best = history.best_values()
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_deterministic_across_runs(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        cfg = StationStageConfig(
            station_count=4,
            ga=GaConfig(population_size=15, generations=5, rng_seed=9),
        )
        b1, r1, h1 = optimize_stations(grid, (), two_district_region, cfg)
        b2, r2, h2 = optimize_stations(grid, (), two_district_region, cfg)
        assert b1 == b2
        assert r1.total == r2.total
        assert h1.records == h2.records


class TestValidator:
    def test_checks_each_inside_coordinate_once(self, monkeypatch, square_10km):
        calls = []

        def counting(p, districts):
            calls.append(p)
            return point_in_region(p, districts)

        monkeypatch.setattr(stations, "point_in_region", counting)
        validator = make_validator([square_10km])
        genome = StationGenome((PlanarPoint(0.0, 0.0), PlanarPoint(100.0, 0.0), PlanarPoint(0.0, 0.0)))
        assert validator(genome) is genome
        assert validator(genome) is genome
        assert calls == [PlanarPoint(0.0, 0.0), PlanarPoint(100.0, 0.0)]

    def test_outside_coordinate_clamped_every_time(self, square_10km):
        validator = make_validator([square_10km])
        genome = StationGenome((PlanarPoint(0.0, 0.0), PlanarPoint(9000.0, 0.0)))
        for _ in range(2):
            fixed = validator(genome)
            assert fixed.stations[0] == genome.stations[0]
            assert fixed.stations[1] == PlanarPoint(5000.0, 0.0)


class TestMemoizedCoverage:
    @pytest.fixture
    def instance(self, two_district_region):
        grid = rasterize(two_district_region, 500.0)
        generators = (
            GeneratorPoint("mall", 30000.0, GeoPoint(3.0, 101.5), PlanarPoint(-3000.0, 500.0)),
            GeneratorPoint("campus", 12000.0, GeoPoint(3.0, 101.5), PlanarPoint(2500.0, -700.0)),
        )
        return grid, generators, two_district_region

    @pytest.mark.parametrize("mode", ["sum", "nearest"])
    def test_fitness_and_report_equal_full_evaluate(self, instance, mode):
        grid, generators, districts = instance
        cfg = StationStageConfig(
            station_count=6,
            ga=GaConfig(population_size=12, generations=6, mutation_rate=0.6, rng_seed=4),
            coverage=CoverageParams(800.0, mode=mode),
        )
        seen = []

        def check(gen, population, fits):
            for genome, fit in zip(population, fits):
                assert fit == evaluate(genome.stations, grid, generators, cfg.coverage).total
            seen.append(gen)

        best, report, _ = optimize_stations(grid, generators, districts, cfg, on_generation=check)
        assert seen == list(range(7))
        full = evaluate(best.stations, grid, generators, cfg.coverage)
        assert report.total == full.total
        for name in ("per_station", "district", "generator"):
            assert np.array_equal(getattr(report, name), getattr(full, name))

    def test_sum_mode_computes_each_coordinate_once(self, monkeypatch, instance):
        grid, generators, districts = instance
        computed = []
        original = coverage.evaluate

        def counting(points, *args):
            computed.extend(points)
            return original(points, *args)

        monkeypatch.setattr(coverage, "evaluate", counting)
        cfg = StationStageConfig(
            station_count=6,
            ga=GaConfig(population_size=12, generations=6, mutation_rate=0.6, rng_seed=4),
        )
        genomes_seen = set()
        optimize_stations(
            grid, generators, districts, cfg,
            on_generation=lambda gen, pop, fits: genomes_seen.update(p for g in pop for p in g.stations),
        )
        assert max(Counter(computed).values()) == 1
        assert set(computed) == genomes_seen


def test_station_count_heuristic():
    assert suggest_station_count(1_800_000) == 12
    assert suggest_station_count(100_000) == 2  # clamped floor


class TestStationStageConfig:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_mutation_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="mutation_sigma"):
            StationStageConfig(station_count=3, mutation_sigma=sigma)

    @pytest.mark.parametrize("count", [0, -3])
    def test_station_count_must_be_positive(self, count):
        with pytest.raises(ValueError, match="station_count"):
            StationStageConfig(station_count=count)

    def test_omitted_station_count_sized_from_population(self):
        assert StationStageConfig().sized(1_800_000).station_count == suggest_station_count(1_800_000)
        given = StationStageConfig(station_count=3)
        assert given.sized(1_800_000) is given

    def test_optimize_sizes_omitted_station_count(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        ga = GaConfig(population_size=6, generations=2, rng_seed=5)
        sized = StationStageConfig(station_count=suggest_station_count(grid.total_population), ga=ga)
        best, report, _ = optimize_stations(grid, (), two_district_region, StationStageConfig(ga=ga))
        expected, expected_report, _ = optimize_stations(grid, (), two_district_region, sized)
        assert best == expected
        assert report.total == expected_report.total
