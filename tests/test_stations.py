"""Station-placement stage tests: operators, initialization, small optimizations."""
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metronet import coverage
from metronet import stations as stations_module
from metronet.coverage import CoverageParams, evaluate
from metronet.errors import MetronetError
from metronet.evolve import GaConfig
from metronet.geomodel import (
    PLANAR_BOUND_M,
    DemandGrid,
    DemandPoints,
    load_generators,
    load_region,
    point_in_region,
    rasterize,
)
from metronet.stations import (
    MAX_STATIONS,
    StationStageConfig,
    _draw_cells,
    crossover,
    init_population,
    mutate,
    optimize_stations,
    suggest_station_count,
)

from conftest import NO_GENERATORS, rect_district, star_districts


def genome_of(*xy):
    return np.array(xy, dtype=float).reshape(-1, 2)


@pytest.fixture
def square_10km():
    return rect_district("square", -5000.0, -5000.0, 5000.0, 5000.0, 1000.0)


class TestInitPopulation:
    def test_single_cell_forces_support(self, unit_square_km):
        grid = DemandGrid(cell_size=500.0, x=np.array([500.0]), y=np.array([500.0]), population=np.array([100.0]))
        rng = np.random.default_rng(0)
        pop = init_population(grid, [unit_square_km], 3, 20, rng)
        for genome in pop:
            for x, y in genome:
                assert 250.0 <= x <= 750.0
                assert 250.0 <= y <= 750.0

    def test_zero_population_cell_gets_no_mass(self, unit_square_km):
        grid = DemandGrid(
            cell_size=500.0, x=np.array([250.0, 750.0]), y=np.array([500.0, 500.0]), population=np.array([0.0, 100.0])
        )
        rng = np.random.default_rng(1)
        pop = init_population(grid, [unit_square_km], 1, 200, rng)
        for genome in pop:
            assert genome[0, 0] > 500.0

    def test_sampling_frequencies_follow_population(self, square_10km):
        grid = DemandGrid(
            cell_size=1000.0,
            x=np.array([-2000.0, 2000.0]),
            y=np.array([0.0, 0.0]),
            population=np.array([100.0, 300.0]),
        )
        rng = np.random.default_rng(2)
        pop = init_population(grid, [square_10km], 1, 10_000, rng)
        near_first = sum(1 for g in pop if g[0, 0] < 0.0)
        assert near_first / 10_000 == pytest.approx(0.25, abs=0.02)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e9)), min_size=1, max_size=60).filter(any),
        st.integers(1, 200),
    )
    def test_draw_cells_is_choice(self, seed, population, size):
        """The seeding draw is numpy's weighted ``choice``: the same cells and generator state."""
        population = np.array(population)
        weights = population / population.sum()
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _draw_cells(cdf, size, rng).tolist() == twin.choice(len(weights), size=size, p=weights).tolist()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_all_genomes_inside_districts(self, two_district_region):
        grid = rasterize(two_district_region, 500.0)
        rng = np.random.default_rng(3)
        pop = init_population(grid, two_district_region, 5, 50, rng)
        for genome in pop:
            assert all(point_in_region(p, two_district_region) for p in genome)


class TestMutate:
    def test_changes_exactly_one_station(self, square_10km):
        rng = np.random.default_rng(4)
        genome = genome_of(*((x, 0.0) for x in (-2000, 0, 2000, 4000)))
        mutated = mutate(genome, 500.0, rng, [square_10km])
        assert (mutated != genome).any(axis=1).sum() == 1

    def test_zero_sigma_limit_is_identity(self, square_10km):
        rng = np.random.default_rng(5)
        genome = genome_of((100.0, 100.0))
        mutated = mutate(genome, 1e-12, rng, [square_10km])
        assert np.abs(mutated - 100.0).max() < 1e-9

    def test_reproducible_with_fixed_seed(self, square_10km):
        genome = genome_of(*((x, 0.0) for x in (-2000, 0, 2000)))
        a = mutate(genome, 800.0, np.random.default_rng(6), [square_10km])
        b = mutate(genome, 800.0, np.random.default_rng(6), [square_10km])
        assert np.array_equal(a, b)

    def test_boundary_station_stays_in_region(self, square_10km):
        # large sigma pushes most draws outside; the invariant must still hold
        genome = genome_of((4990.0, 4990.0))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mutated = mutate(genome, 50_000.0, rng, [square_10km])
            assert point_in_region(mutated[0], [square_10km])

    @settings(max_examples=60, deadline=None)
    @given(district=star_districts(), seed=st.integers(0, 2**32 - 1))
    def test_chains_stay_in_region_with_holes(self, district, seed):
        # sigma far above the district size: nearly every mutation ends in the clamp
        # boundary vertices are in the region
        genome = district.polygons[0].outer[:3]
        rng = np.random.default_rng(seed)
        for _ in range(8):
            genome = mutate(genome, 20_000.0, rng, [district])
            assert all(point_in_region(p, [district]) for p in genome)


class TestCrossover:
    def test_identical_parents_yield_parents(self):
        genome = genome_of(*((x, 1.0) for x in range(4)))
        a, b = crossover(genome, genome, np.random.default_rng(7))
        assert np.array_equal(a, genome) and np.array_equal(b, genome)

    def test_single_slot_enumerable(self):
        pa = genome_of((0.0, 0.0))
        pb = genome_of((9.0, 9.0))
        outcomes = set()
        for seed in range(30):
            a, b = crossover(pa, pb, np.random.default_rng(seed))
            outcomes.add((float(a[0, 0]), float(b[0, 0])))
        assert outcomes == {(0.0, 9.0), (9.0, 0.0)}

    def test_slots_partition_between_children(self):
        pa = genome_of(*((i, 0.0) for i in range(4)))
        pb = genome_of(*((i, 100.0) for i in range(4)))
        a, b = crossover(pa, pb, np.random.default_rng(8))
        for i in range(4):
            pair = {tuple(a[i].tolist()), tuple(b[i].tolist())}
            assert pair == {tuple(pa[i].tolist()), tuple(pb[i].tolist())}

    def test_matches_one_draw_per_slot(self):
        rng = np.random.default_rng(9)
        pa, pb = rng.uniform(-5000, 5000, (9, 2)), rng.uniform(-5000, 5000, (9, 2))
        for seed in range(20):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            a, b = crossover(pa, pb, rng)
            want_a, want_b = pa.tolist(), pb.tolist()
            for i in range(9):
                if reference_rng.random() < 0.5:
                    want_a[i], want_b[i] = want_b[i], want_a[i]
            assert (a.tolist(), b.tolist()) == (want_a, want_b)
            assert rng.random() == reference_rng.random()  # the same number of draws


class TestGenomeArrays:
    def test_operators_keep_parents_and_return_read_only_arrays(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        rng = np.random.default_rng(12)
        population = init_population(grid, two_district_region, 5, 6, rng)
        returned = list(population)
        for a, b in zip(population[::2], population[1::2]):
            before = a.tobytes(), b.tobytes()
            returned += crossover(a, b, rng)
            # the second sigma sends nearly every draw outside, so mutate ends in the clamp
            returned += mutate(a, 800.0, rng, two_district_region), mutate(b, 50_000.0, rng, two_district_region)
            assert (a.tobytes(), b.tobytes()) == before
        for genome in returned:
            assert type(genome) is np.ndarray and genome.shape == (5, 2)
            assert genome.dtype == np.float64
            assert not genome.flags.writeable


class TestOptimize:
    def test_single_cell_unique_optimum_basin(self, unit_square_km):
        grid = DemandGrid(cell_size=500.0, x=np.array([500.0]), y=np.array([500.0]), population=np.array([100.0]))
        cfg = StationStageConfig(
            station_count=1,
            mutation_sigma=200.0,
            ga=GaConfig(population_size=20, generations=8, rng_seed=0),
            coverage=CoverageParams(800.0),
        )
        best, serviced, _ = optimize_stations(grid, NO_GENERATORS, [unit_square_km], cfg)
        x, y = best[0]
        half_diagonal = math.hypot(250.0, 250.0)
        assert math.hypot(x - 500.0, y - 500.0) <= half_diagonal
        assert serviced.sum() > 0

    def test_uniform_square_reaches_98_percent_of_scan(self, square_10km):
        grid = rasterize([square_10km], 500.0)
        params = CoverageParams(800.0)
        scan_best = max(
            evaluate(np.array([(x, y)]), grid, NO_GENERATORS, params).sum()
            for x, y in zip(grid.x, grid.y)
        )
        cfg = StationStageConfig(
            station_count=1,
            mutation_sigma=1000.0,
            ga=GaConfig(population_size=50, generations=10, rng_seed=3),
            coverage=params,
        )
        _, serviced, _ = optimize_stations(grid, NO_GENERATORS, [square_10km], cfg)
        assert serviced.sum() >= 0.98 * scan_best

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
        best, _, _ = optimize_stations(grid, NO_GENERATORS, [west, east], cfg)
        centers = [(-10000.0, 0.0), (10000.0, 0.0)]
        assignments = set()
        for x, y in best:
            dists = [math.hypot(x - cx, y - cy) for cx, cy in centers]
            assert min(dists) <= 2 * params.sigma
            assignments.add(int(np.argmin(dists)))
        assert assignments == {0, 1}

    def test_elitism_monotone_history(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        cfg = StationStageConfig(
            station_count=3,
            ga=GaConfig(population_size=20, generations=8, elite_count=2, rng_seed=2),
        )
        _, _, history = optimize_stations(grid, NO_GENERATORS, two_district_region, cfg)
        best = [r.best_fitness for r in history.records]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_deterministic_across_runs(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        cfg = StationStageConfig(
            station_count=4,
            ga=GaConfig(population_size=15, generations=5, rng_seed=9),
        )
        b1, s1, h1 = optimize_stations(grid, NO_GENERATORS, two_district_region, cfg)
        b2, s2, h2 = optimize_stations(grid, NO_GENERATORS, two_district_region, cfg)
        assert np.array_equal(b1, b2)
        assert np.array_equal(s1, s2)
        assert h1.records == h2.records


class TestMemoizedCoverage:
    @pytest.fixture
    def instance(self, two_district_region):
        grid = rasterize(two_district_region, 500.0)
        generators = DemandPoints(np.array([-3000.0, 2500.0]), np.array([500.0, -700.0]), np.array([30000.0, 12000.0]))
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
                assert fit == float(evaluate(genome, grid, generators, cfg.coverage).sum())
            seen.append(gen)

        best, serviced, _ = optimize_stations(grid, generators, districts, cfg, on_generation=check)
        assert seen == list(range(7))
        assert np.array_equal(serviced, evaluate(best, grid, generators, cfg.coverage))

    def test_sum_mode_computes_each_coordinate_once(self, monkeypatch, instance):
        grid, generators, districts = instance
        computed = []
        original = coverage.evaluate

        def counting(points, *args):
            computed.extend(map(tuple, points.tolist()))
            return original(points, *args)

        monkeypatch.setattr(coverage, "evaluate", counting)
        cfg = StationStageConfig(
            station_count=6,
            ga=GaConfig(population_size=12, generations=6, mutation_rate=0.6, rng_seed=4),
        )
        genomes_seen = set()
        optimize_stations(
            grid, generators, districts, cfg,
            on_generation=lambda gen, pop, fits: genomes_seen.update(p for g in pop for p in map(tuple, g.tolist())),
        )
        assert max(Counter(computed).values()) == 1
        assert set(computed) == genomes_seen

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_memo_limits_change_nothing(self, monkeypatch, instance, limit):
        """A memo that fills and clears every few coordinates gives the same run."""
        grid, generators, districts = instance
        cfg = StationStageConfig(
            station_count=6,
            ga=GaConfig(population_size=12, generations=6, mutation_rate=0.6, rng_seed=4),
        )
        want_best, want_serviced, want_history = optimize_stations(grid, generators, districts, cfg)
        computed = []
        original = coverage.evaluate

        def counting(points, *args):
            computed.extend(map(tuple, points.tolist()))
            return original(points, *args)

        monkeypatch.setattr(coverage, "evaluate", counting)
        monkeypatch.setattr(stations_module, "_CACHE_LIMIT", limit)
        best, serviced, history = optimize_stations(grid, generators, districts, cfg)
        assert max(Counter(computed).values()) > 1  # cleared coordinates were evaluated again
        assert np.array_equal(best, want_best)
        assert np.array_equal(serviced, want_serviced)
        assert history.records == want_history.records


# Digests of each seed's initial population, best stations and the best
# stations' serviced counts, recorded while init_population drew each
# station's jitter with two scalar rng.uniform calls and tested it alone (the
# serviced digests and the nearest-mode row were recorded later, from the
# same code). Any change to a stage-1 random draw, to which jittered point is
# kept, to which genomes the GA keeps, or to a coverage bit moves them. At
# 3000 m cells on two_district_region a jittered station often leaves the
# region and is redrawn: 35 times over the three seeds.
@pytest.mark.parametrize("instance, mode, seed, want_initial, want_best, want_serviced", [
    ("selangor", "sum", 0, "6ed98a82e9029a27", "579ebcf3731203a8", "29d21edee729b1ed"),
    ("selangor", "sum", 1, "b03e44b003ac977f", "6a4d77107e3669cc", "554d3d5035b2f997"),
    ("selangor", "sum", 2, "647f92a08ff673ff", "de2bd34c499c04f8", "b72057cc37bc6d9a"),
    ("selangor", "nearest", 0, "6ed98a82e9029a27", "07064eeedd95251e", "d50815a6f64ff395"),
    ("two_district", "sum", 0, "c511c9371cc539ba", "d70b8f54d6a70c1d", "aa8439c0879581c4"),
    ("two_district", "sum", 1, "19e1626238d3680d", "d850a832354ea6b6", "c91afd92020e0776"),
    ("two_district", "sum", 2, "86a2b0c396e2f0a2", "fc57bdd401ef134d", "a2c5ee9bcf0b7dca"),
])
def test_stage1_random_stream_pinned(instance, mode, seed, want_initial, want_best, want_serviced,
                                     selangor_paths, two_district_region):
    if instance == "selangor":  # tests/data at 500 m: 61 stations, generators included
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        districts, grid = region.districts, rasterize(region.districts, 500.0)
        generators, station_count = load_generators(selangor_paths["generators"], region), None
    else:
        districts, grid, station_count = two_district_region, rasterize(two_district_region, 3000.0), 8
        generators = NO_GENERATORS
    cfg = StationStageConfig(station_count=station_count, coverage=CoverageParams(mode=mode),
                             ga=GaConfig(population_size=10, generations=3, rng_seed=seed))
    initial = []
    best, serviced, _ = optimize_stations(
        grid, generators, districts, cfg,
        on_generation=lambda gen, pop, fits: initial.extend(pop if gen == 0 else ()),
    )
    assert hashlib.sha256(np.stack(initial).tobytes()).hexdigest()[:16] == want_initial
    assert hashlib.sha256(best.tobytes()).hexdigest()[:16] == want_best
    assert hashlib.sha256(serviced.tobytes()).hexdigest()[:16] == want_serviced


def test_station_count_heuristic():
    assert suggest_station_count(1_800_000) == 12
    assert suggest_station_count(100_000) == 2  # clamped floor


class TestStationStageConfig:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -5.0, 1e160, 1.0000001e7])
    def test_mutation_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(MetronetError, match="mutation_sigma"):
            StationStageConfig(station_count=3, mutation_sigma=sigma)

    def test_mutation_sigma_up_to_the_planar_bound_accepted(self):
        assert StationStageConfig(mutation_sigma=PLANAR_BOUND_M).mutation_sigma == 1e7

    @pytest.mark.parametrize("count", [0, -3, MAX_STATIONS + 1])
    def test_station_count_must_be_in_range(self, count):
        with pytest.raises(MetronetError, match=rf"^station_count must lie in \[1, {MAX_STATIONS}\], got {count}$"):
            StationStageConfig(station_count=count)

    def test_station_count_up_to_the_bound_accepted(self):
        assert StationStageConfig(station_count=MAX_STATIONS).station_count == 2_000
        assert StationStageConfig().sized(MAX_STATIONS * 150_000.0).station_count == MAX_STATIONS

    def test_sized_station_count_over_the_bound_rejected(self):
        # one station per 150k residents: 2,001 stations for this population
        population = (MAX_STATIONS + 1) * 150_000.0
        with pytest.raises(MetronetError, match=r"^station_count must lie in \[1, 2000\], got 2001, "
                                              r"sized from the grid population of 300150000\.0$"):
            StationStageConfig().sized(population)

    def test_omitted_station_count_sized_from_population(self):
        assert StationStageConfig().sized(1_800_000).station_count == suggest_station_count(1_800_000)
        given = StationStageConfig(station_count=3)
        assert given.sized(1_800_000) is given

    def test_optimize_sizes_omitted_station_count(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        ga = GaConfig(population_size=6, generations=2, rng_seed=5)
        sized = StationStageConfig(station_count=suggest_station_count(grid.total_population), ga=ga)
        best, serviced, _ = optimize_stations(grid, NO_GENERATORS, two_district_region, StationStageConfig(ga=ga))
        expected, expected_serviced, _ = optimize_stations(grid, NO_GENERATORS, two_district_region, sized)
        assert np.array_equal(best, expected)
        assert np.array_equal(serviced, expected_serviced)
