"""Coverage fitness tests against brute-force oracles and analytic values."""
import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metronet import coverage
from metronet.coverage import CoverageParams, evaluate
from metronet.errors import MetronetError
from metronet.geomodel import (
    DemandGrid,
    DemandPoints,
    PlanarPolygon,
    District,
    group_runs,
    load_generators,
    load_region,
    rasterize,
)

from conftest import NO_GENERATORS, generator_names, rect_district, star_districts


def oracle(stations, points, sigma):
    """Independent double loop over stations x demand points."""
    out = []
    for sx, sy in stations:
        acc = 0.0
        for px, py, pop in zip(points.x, points.y, points.population):
            r2 = (sx - px) ** 2 + (sy - py) ** 2
            acc += pop * math.exp(-r2 / sigma**2)
        out.append(acc)
    return out


def single_cell_grid(x, y, pop, cell_size=500.0):
    return DemandGrid(cell_size=cell_size, x=np.array([x]), y=np.array([y]), population=np.array([pop]))


def single_point(x, y, weight):
    return DemandPoints(np.array([x]), np.array([y]), np.array([weight]))


def random_instance(rng, n_stations, n_cells, n_generators, span=4000.0):
    grid = DemandGrid(
        cell_size=500.0,
        x=rng.uniform(-span, span, n_cells),
        y=rng.uniform(-span, span, n_cells),
        population=rng.uniform(1.0, 800.0, n_cells),
    )
    stations = rng.uniform(-span, span, (n_stations, 2))
    x, y, v = np.column_stack([rng.uniform(-span, span, (n_generators, 2)), rng.uniform(100, 5e4, n_generators)]).T
    return stations, grid, DemandPoints(x, y, v)


class TestParams:
    def test_hard_bounds(self):
        for bad in (0.0, -1.0, 1e5, 2e5, 1e-200, 1e-160, 0.5, math.nan, math.inf):
            with pytest.raises(MetronetError, match="^sigma must lie in"):
                CoverageParams(sigma=bad)
        with pytest.warns(UserWarning):
            assert CoverageParams(sigma=coverage.SIGMA_HARD_MIN).sigma == 1.0

    def test_range_endpoints_accepted_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CoverageParams(sigma=400.0)
            CoverageParams(sigma=3000.0)
            CoverageParams(sigma=800.0)

    def test_outside_range_warns(self):
        with pytest.warns(UserWarning):
            CoverageParams(sigma=399.0)
        with pytest.warns(UserWarning):
            CoverageParams(sigma=3001.0)

    def test_bad_mode(self):
        with pytest.raises(MetronetError):
            CoverageParams(mode="weird")


class TestDistrictCoverage:
    def test_station_on_cell_centroid(self):
        grid = single_cell_grid(100.0, 200.0, 100.0)
        n = coverage.shares(np.array([(100.0, 200.0)]), grid, CoverageParams(800.0))
        assert n[0] == pytest.approx(100.0)

    def test_station_at_sigma(self):
        sigma = 800.0
        grid = single_cell_grid(0.0, 0.0, 100.0)
        n = coverage.shares(np.array([(sigma, 0.0)]), grid, CoverageParams(sigma))
        assert n[0] == pytest.approx(100.0 * math.exp(-1.0), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        stations, grid, _ = random_instance(rng, 2, 3, 0)
        got = coverage.shares(stations, grid, CoverageParams(800.0))
        want = oracle(stations, grid, 800.0)
        assert np.allclose(got, want, rtol=1e-9)

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(9)
        stations, grid, _ = random_instance(rng, 4, 25, 0)
        narrow = coverage.shares(stations, grid, CoverageParams(600.0))
        wide = coverage.shares(stations, grid, CoverageParams(900.0))
        assert np.all(wide >= narrow)

    def test_analytic_disk(self):
        # station centered in a uniform disk: integral = rho*pi*sigma^2*(1 - e^(-R^2/sigma^2))
        sigma, rho_km2 = 500.0, 1500.0
        radius = 5 * sigma
        ring = np.array(
            [(radius * math.cos(2 * math.pi * k / 512), radius * math.sin(2 * math.pi * k / 512)) for k in range(512)]
        )
        disk = District("disk", (PlanarPolygon(ring),), rho_km2)
        grid = rasterize([disk], sigma / 5.0)
        n = coverage.shares(np.array([(0.0, 0.0)]), grid, CoverageParams(sigma))
        analytic = (rho_km2 / 1e6) * math.pi * sigma**2 * (1 - math.exp(-((radius / sigma) ** 2)))
        assert n[0] == pytest.approx(analytic, rel=0.01)


class TestGeneratorCoverage:
    def test_colocated_with_reference_generator(self, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        generators = load_generators(selangor_paths["generators"], region)
        i = generator_names(selangor_paths["generators"]).index("Sunway Lagoon")
        assert generators.population[i] == 8000
        lagoon = single_point(generators.x[i], generators.y[i], generators.population[i])
        shares = coverage.shares(np.array([(lagoon.x[0], lagoon.y[0])]), lagoon, CoverageParams(800.0))
        assert shares[0] == pytest.approx(8000.0)

    def test_generator_at_sigma(self):
        sigma = 800.0
        shares = coverage.shares(np.array([(0.0, sigma)]), single_point(0.0, 0.0, 8000.0), CoverageParams(sigma))
        assert shares[0] == pytest.approx(8000.0 * math.exp(-1.0), rel=1e-12)
        assert shares[0] == pytest.approx(2943.04, abs=0.01)

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        stations, _, generators = random_instance(rng, 3, 1, 2)
        got = coverage.shares(stations, generators, CoverageParams(800.0))
        want = oracle(stations, generators, 800.0)
        assert np.allclose(got, want, rtol=1e-9)


class TestEvaluate:
    def test_zero_stations(self):
        grid = single_cell_grid(0.0, 0.0, 100.0)
        per_station = evaluate(np.zeros((0, 2)), grid, NO_GENERATORS, CoverageParams(800.0))
        assert per_station.shape == (0,)
        assert per_station.sum() == 0.0

    def test_station_on_cell_with_colocated_generator(self):
        grid = single_cell_grid(0.0, 0.0, 100.0)
        per_station = evaluate(np.array([(0.0, 0.0)]), grid, single_point(0.0, 0.0, 50.0), CoverageParams(800.0))
        assert per_station.tolist() == [pytest.approx(150.0)]

    def test_random_instance_matches_oracle(self):
        rng = np.random.default_rng(7)
        stations, grid, generators = random_instance(rng, 5, 20, 3)
        params = CoverageParams(800.0)
        per_station = evaluate(stations, grid, generators, params)
        want = np.array(oracle(stations, grid, 800.0)) + np.array(oracle(stations, generators, 800.0))
        assert np.allclose(per_station, want, rtol=1e-9)
        assert per_station.sum() == pytest.approx(want.sum(), rel=1e-9)

    def test_per_station_non_negative(self):
        rng = np.random.default_rng(8)
        stations, grid, generators = random_instance(rng, 6, 30, 4)
        per_station = evaluate(stations, grid, generators, CoverageParams(800.0))
        assert per_station.shape == (6,)
        assert np.all(per_station >= 0)

    def test_adding_station_never_decreases_total(self):
        rng = np.random.default_rng(11)
        stations, grid, generators = random_instance(rng, 4, 20, 2)
        params = CoverageParams(800.0)
        base = evaluate(stations, grid, generators, params).sum()
        grown = evaluate(np.vstack([stations, (9000.0, 9000.0)]), grid, generators, params).sum()
        assert grown >= base

    @given(offset=st.floats(-20000, 20000, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, offset):
        rng = np.random.default_rng(13)
        stations, grid, generators = random_instance(rng, 3, 15, 2)
        params = CoverageParams(800.0)
        base = evaluate(stations, grid, generators, params)
        moved = evaluate(
            stations + offset,
            DemandGrid(cell_size=grid.cell_size, x=grid.x + offset, y=grid.y + offset, population=grid.population),
            DemandPoints(generators.x + offset, generators.y + offset, generators.population),
            params,
        )
        assert moved.sum() == pytest.approx(base.sum(), rel=1e-12)
        assert np.allclose(moved, base, rtol=1e-12)


@st.composite
def point_sets(draw):
    """Weighted points of every layout the row-grouped kernel must handle exactly.

    Points lie within 3 km of a drawn offset and sigma is at least 400 m, so
    every kernel factor stays a normal float.
    """
    layout = draw(st.sampled_from(["off_lattice", "duplicates", "single_row", "single_column", "lattice"]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e6, -4.5e6])) + draw(st.floats(-1e4, 1e4))
    xy = rng.uniform(-3000.0, 3000.0, (n, 2))
    if layout == "duplicates":
        xy = xy[rng.integers(0, max(1, n // 3), n)]
    elif layout == "single_row":
        xy[:, 1] = xy[0, 1]
    elif layout == "single_column":
        xy[:, 0] = xy[0, 0]
    elif layout == "lattice":
        xy = 500.0 * rng.integers(-6, 7, (n, 2)) + 250.0
    return xy + offset, rng.uniform(1.0, 1e4, n), offset


class TestSeparableSumKernel:
    @given(points=point_sets(), sigma=st.floats(400.0, 3000.0), station_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, points, sigma, station_seed):
        xy, weight, offset = points
        rng = np.random.default_rng(station_seed)
        stations = rng.uniform(-3000.0, 3000.0, (3, 2)) + offset
        params = CoverageParams(sigma)
        points = DemandPoints(xy[:, 0], xy[:, 1], weight)
        got = coverage.shares(stations, points, params)
        assert np.allclose(got, oracle(stations, points, sigma), rtol=1e-9, atol=0.0)


def per_point_sum_shares(sxy, x, y, weight, sigma2):
    """The sum-mode kernel one station at a time, weighting each point: the reference for the run kernel.

    Points are grouped by distinct y in input order; each station gathers the
    exp factor of every point's x, weights it by the point, sums each row and
    weights the row sums by the y factors.
    """
    ys, row = np.unique(y, return_inverse=True)
    xs, col = np.unique(x, return_inverse=True)
    order = np.argsort(row, kind="stable")
    starts = np.searchsorted(row[order], np.arange(len(ys)))
    col, weight = col[order], weight[order]
    shares = np.empty(len(sxy))
    for k, (sx, sy) in enumerate(sxy):
        ex = np.exp(-((xs - sx) ** 2) / sigma2)
        ey = np.exp(-((ys - sy) ** 2) / sigma2)
        shares[k] = (np.add.reduceat(ex[col] * weight, starts) * ey).sum()
    return shares


def expand_runs(runs):
    """Per-point x, y and weight of a run layout, in its row-then-column order."""
    lengths = runs.bounds[:, 1] - runs.bounds[:, 0]
    cols = np.concatenate([np.arange(start, stop) for start, stop in runs.bounds])
    run_row = np.repeat(np.arange(len(runs.ys)), np.diff(runs.row_starts, append=len(runs.weight)))
    return runs.xs[cols], np.repeat(runs.ys[run_row], lengths), np.repeat(runs.weight, lengths)


def layout_bytes(runs):
    return sum(a.nbytes for a in runs)


def block_width(runs):
    """Entries one station takes in a block of the sum-mode kernel."""
    return len(runs.xs) + 1 + 3 * len(runs.weight) + 2 * len(runs.ys)


@st.composite
def run_point_sets(draw):
    """Weighted points whose rows hold runs: lattice stretches with repeated, equal and zero weights.

    Points lie within 3 km of a drawn offset, so with sigma at least 400 m
    every kernel factor stays a normal float.
    """
    layout = draw(st.sampled_from(["off_lattice", "duplicates", "equal_neighbours", "zero_weights", "lattice"]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e6, -4.5e6])) + draw(st.floats(-1e4, 1e4))
    if layout == "off_lattice":
        xy = rng.uniform(-3000.0, 3000.0, (n, 2))
    else:
        xy = 250.0 * rng.integers(-12, 13, (n, 2)) + 125.0
    # a few distinct weights, so lattice neighbours often share one
    weight = rng.choice(rng.uniform(1.0, 1e4, 3), n)
    if layout == "duplicates":
        pick = rng.integers(0, max(1, n // 3), n)
        xy, weight = xy[pick], weight[pick]
    elif layout == "equal_neighbours":
        xy[:, 0] = 250.0 * np.arange(n) % 3000.0 + 125.0
        xy[:, 1] = 250.0 * (np.arange(n) // 12) + 125.0
        weight[:] = weight[0]
        weight[rng.integers(0, n, n // 5)] = 7.0
    elif layout == "zero_weights":
        weight[rng.random(n) < 0.4] = 0.0
    return xy + offset, weight, offset


@st.composite
def raster_grids(draw):
    """Rasterized districts whose rows hold several runs of different weights.

    One to three star districts, overlapping where they meet, each with an
    optional hole and distinct densities, or a grid of rectangles.
    """
    if draw(st.booleans()):
        districts = []
        for k in range(draw(st.integers(1, 3))):
            star = draw(star_districts())
            districts.append(District(f"star{k}", star.polygons, draw(st.floats(10.0, 5000.0))))
    else:
        districts = [
            rect_district(f"r{k}", x0, y0, x0 + draw(st.integers(1, 8)) * 250.0,
                          y0 + draw(st.integers(1, 8)) * 250.0, draw(st.sampled_from([100.0, 900.0, 2500.0])))
            for k, (x0, y0) in enumerate(draw(st.lists(
                st.tuples(st.integers(-8, 8).map(lambda v: 250.0 * v), st.integers(-8, 8).map(lambda v: 250.0 * v)),
                min_size=1, max_size=4)))
        ]
    try:
        return rasterize(districts, draw(st.sampled_from([100.0, 150.0, 250.0])))
    except MetronetError:
        assume(False)


def assert_matches_reference(stations, x, y, weight, sigma):
    runs = group_runs(x, y, weight)
    got = coverage._sum_shares(stations, runs, sigma**2)
    want = per_point_sum_shares(stations, x, y, weight, sigma**2)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    return runs, got


class TestRunKernel:
    @given(points=run_point_sets(), sigma=st.floats(400.0, 3000.0), station_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_point_sets_match_per_point_kernel(self, points, sigma, station_seed):
        xy, weight, offset = points
        stations = np.random.default_rng(station_seed).uniform(-3000.0, 3000.0, (5, 2)) + offset
        runs, _ = assert_matches_reference(stations, xy[:, 0], xy[:, 1], weight, sigma)
        assert len(runs.weight) <= len(xy)

    @given(grid=raster_grids(), sigma=st.floats(400.0, 3000.0), station_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_raster_grids_match_per_point_kernel(self, grid, sigma, station_seed):
        stations = np.random.default_rng(station_seed).uniform(-3000.0, 3000.0, (5, 2))
        assert_matches_reference(stations, grid.x, grid.y, grid.population, sigma)
        assert np.array_equal(coverage.shares(stations, grid, CoverageParams(sigma)),
                              coverage._sum_shares(stations, grid.runs, sigma**2))

    @given(points=run_point_sets(), station_seed=st.integers(0, 2**32 - 1),
           count=st.integers(1, 12), block=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_share_independent_of_block(self, points, station_seed, count, block):
        """A station's share from a block of any size equals its share evaluated alone, bit for bit.

        ``stations._coverage_of`` relies on this: it evaluates only the
        coordinates its memo misses, yet promises ``coverage.evaluate``'s bits.
        """
        xy, weight, offset = points
        stations = np.random.default_rng(station_seed).uniform(-3000.0, 3000.0, (count, 2)) + offset
        runs = group_runs(xy[:, 0], xy[:, 1], weight)
        with patch.object(coverage, "_SUM_BLOCK", block * block_width(runs)):
            blocked = coverage._sum_shares(stations, runs, 800.0**2)
        alone = [coverage._sum_shares(stations[k:k + 1], runs, 800.0**2)[0] for k in range(count)]
        assert blocked.tolist() == alone


class TestRunLayout:
    def test_layout_is_linear_in_runs_and_axes(self, two_district_region):
        grid = rasterize(two_district_region, 100.0)
        runs = grid.runs
        assert runs is grid.runs
        assert len(runs.weight) == 2 * len(runs.ys)  # each row: one run per district
        assert layout_bytes(runs) <= 24 * (len(runs.weight) + len(runs.xs) + len(runs.ys))
        assert layout_bytes(runs) < len(grid) * 8 / 10  # under a tenth of one float per cell

    def test_off_lattice_layout_has_one_run_per_point(self):
        n = 20_000
        rng = np.random.default_rng(37)
        runs = DemandPoints(rng.uniform(-3e4, 3e4, n), rng.uniform(-3e4, 3e4, n), rng.uniform(1.0, 800.0, n)).runs
        assert len(runs.xs) == len(runs.ys) == len(runs.weight) == n
        assert layout_bytes(runs) <= 24 * (len(runs.weight) + len(runs.xs) + len(runs.ys))

    @given(grid=raster_grids())
    @settings(max_examples=50, deadline=None)
    def test_runs_expand_to_the_cells_in_order(self, grid):
        x, y, population = expand_runs(grid.runs)
        assert np.array_equal(x, grid.x)
        assert np.array_equal(y, grid.y)
        assert np.array_equal(population, grid.population)

    def test_repeated_points_fall_into_separate_runs(self):
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        y = np.zeros(5)
        runs = group_runs(x, y, np.array([5.0, 5.0, 5.0, 5.0, 5.0]))
        assert runs.bounds.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert runs.weight.tolist() == [5.0, 5.0, 5.0]
        assert runs.row_starts.tolist() == [0]

    def test_off_lattice_block_stays_under_the_cap(self):
        """On 20k off-lattice points a block's temporaries together stay under the cap: no K x points array."""
        n, k = 20_000, 256
        rng = np.random.default_rng(41)
        runs = DemandPoints(rng.uniform(-3e4, 3e4, n), rng.uniform(-3e4, 3e4, n), rng.uniform(1.0, 800.0, n)).runs
        stations = rng.uniform(-3e4, 3e4, (k, 2))
        assert block_width(runs) <= coverage._SUM_BLOCK
        tracemalloc.start()
        try:
            coverage._sum_shares(stations, runs, 800.0**2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # besides a block's temporaries: the runs' order and interleaved bounds
        # (three ints per run), the shares and a few small views
        assert peak < coverage._SUM_BLOCK * 8 + 24 * len(runs.weight) + 8 * k + 4096
        assert peak < k * n * 8 / 16


class TestNearestMode:
    def test_single_station_same_as_sum(self):
        rng = np.random.default_rng(17)
        stations, grid, generators = random_instance(rng, 1, 10, 2)
        total_sum = evaluate(stations, grid, generators, CoverageParams(800.0, mode="sum")).sum()
        total_near = evaluate(stations, grid, generators, CoverageParams(800.0, mode="nearest")).sum()
        assert total_near == pytest.approx(total_sum, rel=1e-12)

    def test_nearest_never_exceeds_sum(self):
        rng = np.random.default_rng(19)
        stations, grid, generators = random_instance(rng, 5, 25, 3)
        total_sum = evaluate(stations, grid, generators, CoverageParams(800.0, mode="sum")).sum()
        total_near = evaluate(stations, grid, generators, CoverageParams(800.0, mode="nearest")).sum()
        assert total_near <= total_sum + 1e-9

    def test_each_point_counted_once(self):
        # two stations, one cell: only the closer station earns the cell
        grid = single_cell_grid(0.0, 0.0, 100.0)
        stations = np.array([(100.0, 0.0), (900.0, 0.0)])
        shares = coverage.shares(stations, grid, CoverageParams(800.0, mode="nearest"))
        assert shares[1] == 0.0
        assert shares[0] == pytest.approx(100.0 * math.exp(-(100.0**2) / 800.0**2))


def unchunked_nearest_shares(sxy, px, py, weight, sigma):
    """The nearest-mode kernel as one K x N pass: the reference for the chunked one."""
    dx = sxy[:, 0:1] - px[None, :]
    dy = sxy[:, 1:2] - py[None, :]
    kernel = np.exp(-(dx * dx + dy * dy) / (sigma**2))
    owner = np.argmin(dx * dx + dy * dy, axis=0)
    shares = np.zeros(len(sxy))
    np.add.at(shares, owner, weight * kernel[owner, np.arange(kernel.shape[1])])
    return shares


class TestExactFastPaths:
    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_chunked_nearest_equals_unchunked(self, monkeypatch, chunk):
        monkeypatch.setattr(coverage, "_NEAREST_CHUNK", chunk)
        rng = np.random.default_rng(23)
        stations, grid, generators = random_instance(rng, 9, 5000, 40, span=9000.0)
        # a repeated coordinate makes argmin ties; the first station keeps them
        stations[4] = stations[1]
        params = CoverageParams(800.0, mode="nearest")
        district = coverage.shares(stations, grid, params)
        generator = coverage.shares(stations, generators, params)
        for points, got in ((grid, district), (generators, generator)):
            assert np.array_equal(got, unchunked_nearest_shares(stations, points.x, points.y, points.population, 800.0))
        assert np.array_equal(evaluate(stations, grid, generators, params), district + generator)

    def test_sum_share_independent_of_batch(self):
        rng = np.random.default_rng(29)
        stations, grid, generators = random_instance(rng, 61, 3000, 12)
        params = CoverageParams(800.0)
        batch = evaluate(stations, grid, generators, params)
        district = coverage.shares(stations, grid, params)
        generator = coverage.shares(stations, generators, params)
        for i in range(len(stations)):
            one = stations[i : i + 1]
            assert evaluate(one, grid, generators, params)[0] == batch[i]
            assert coverage.shares(one, grid, params)[0] == district[i]
            assert coverage.shares(one, generators, params)[0] == generator[i]

    @pytest.mark.parametrize("mode", ["sum", "nearest"])
    def test_peak_memory_does_not_scale_with_stations_times_cells(self, mode):
        rng = np.random.default_rng(31)
        k, n = 128, 100_000
        stations, grid, generators = random_instance(rng, k, n, 0, span=30000.0)
        params = CoverageParams(800.0, mode=mode)
        tracemalloc.start()
        try:
            evaluate(stations, grid, generators, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one K x N float64 temporary alone would be k * n * 8 bytes
        assert peak < k * n * 8 / 8
