"""Coverage fitness tests against brute-force oracles and analytic values."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metronet import coverage
from metronet.coverage import (
    CoverageParams,
    district_coverage,
    evaluate,
    generator_coverage,
)
from metronet.geomodel import (
    DemandGrid,
    GeneratorPoint,
    PlanarPolygon,
    District,
    load_generators,
    load_region,
    rasterize,
)


def oracle_district(stations, grid, sigma):
    """Independent double loop over stations x cells."""
    out = []
    for sx, sy in stations:
        acc = 0.0
        for cx, cy, pop in zip(grid.x, grid.y, grid.population):
            r2 = (sx - cx) ** 2 + (sy - cy) ** 2
            acc += pop * math.exp(-r2 / sigma**2)
        out.append(acc)
    return out


def oracle_generator(stations, generators, sigma):
    out = []
    for sx, sy in stations:
        acc = 0.0
        for g in generators:
            r2 = (sx - g.x) ** 2 + (sy - g.y) ** 2
            acc += g.daily_visitors * math.exp(-r2 / sigma**2)
        out.append(acc)
    return out


def single_cell_grid(x, y, pop, cell_size=500.0):
    return DemandGrid(cell_size, np.array([x]), np.array([y]), np.array([pop]))


def make_generator(name, visitors, x, y):
    return GeneratorPoint(name, visitors, x, y)


def random_instance(rng, n_stations, n_cells, n_generators, span=4000.0):
    grid = DemandGrid(
        500.0,
        rng.uniform(-span, span, n_cells),
        rng.uniform(-span, span, n_cells),
        rng.uniform(1.0, 800.0, n_cells),
    )
    stations = rng.uniform(-span, span, (n_stations, 2))
    generators = [
        make_generator(f"g{i}", float(v), float(x), float(y))
        for i, (x, y, v) in enumerate(
            np.column_stack([rng.uniform(-span, span, (n_generators, 2)), rng.uniform(100, 5e4, n_generators)])
        )
    ]
    return stations, grid, generators


class TestParams:
    def test_hard_bounds(self):
        for bad in (0.0, -1.0, 1e5, 2e5):
            with pytest.raises(ValueError):
                CoverageParams(sigma=bad)

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
        with pytest.raises(ValueError):
            CoverageParams(mode="weird")


class TestDistrictCoverage:
    def test_station_on_cell_centroid(self):
        grid = single_cell_grid(100.0, 200.0, 100.0)
        n = district_coverage(np.array([(100.0, 200.0)]), grid, CoverageParams(800.0))
        assert n[0] == pytest.approx(100.0)

    def test_station_at_sigma(self):
        sigma = 800.0
        grid = single_cell_grid(0.0, 0.0, 100.0)
        n = district_coverage(np.array([(sigma, 0.0)]), grid, CoverageParams(sigma))
        assert n[0] == pytest.approx(100.0 * math.exp(-1.0), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        stations, grid, _ = random_instance(rng, 2, 3, 0)
        got = district_coverage(stations, grid, CoverageParams(800.0))
        want = oracle_district(stations, grid, 800.0)
        assert np.allclose(got, want, rtol=1e-9)

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(9)
        stations, grid, _ = random_instance(rng, 4, 25, 0)
        narrow = district_coverage(stations, grid, CoverageParams(600.0))
        wide = district_coverage(stations, grid, CoverageParams(900.0))
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
        n = district_coverage(np.array([(0.0, 0.0)]), grid, CoverageParams(sigma))
        analytic = (rho_km2 / 1e6) * math.pi * sigma**2 * (1 - math.exp(-((radius / sigma) ** 2)))
        assert n[0] == pytest.approx(analytic, rel=0.01)


class TestGeneratorCoverage:
    def test_colocated_with_reference_generator(self, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        generators = load_generators(selangor_paths["generators"], region)
        lagoon = next(g for g in generators if g.name == "Sunway Lagoon")
        assert lagoon.daily_visitors == 8000
        shares = generator_coverage(np.array([(lagoon.x, lagoon.y)]), [lagoon], CoverageParams(800.0))
        assert shares[0] == pytest.approx(8000.0)

    def test_generator_at_sigma(self):
        sigma = 800.0
        g = make_generator("g", 8000.0, 0.0, 0.0)
        shares = generator_coverage(np.array([(0.0, sigma)]), [g], CoverageParams(sigma))
        assert shares[0] == pytest.approx(8000.0 * math.exp(-1.0), rel=1e-12)
        assert shares[0] == pytest.approx(2943.04, abs=0.01)

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        stations, _, generators = random_instance(rng, 3, 1, 2)
        got = generator_coverage(stations, generators, CoverageParams(800.0))
        want = oracle_generator(stations, generators, 800.0)
        assert np.allclose(got, want, rtol=1e-9)


class TestEvaluate:
    def test_zero_stations(self):
        grid = single_cell_grid(0.0, 0.0, 100.0)
        per_station = evaluate(np.zeros((0, 2)), grid, [], CoverageParams(800.0))
        assert per_station.shape == (0,)
        assert per_station.sum() == 0.0

    def test_station_on_cell_with_colocated_generator(self):
        grid = single_cell_grid(0.0, 0.0, 100.0)
        g = make_generator("g", 50.0, 0.0, 0.0)
        per_station = evaluate(np.array([(0.0, 0.0)]), grid, [g], CoverageParams(800.0))
        assert per_station.tolist() == [pytest.approx(150.0)]

    def test_random_instance_matches_oracle(self):
        rng = np.random.default_rng(7)
        stations, grid, generators = random_instance(rng, 5, 20, 3)
        params = CoverageParams(800.0)
        per_station = evaluate(stations, grid, generators, params)
        want = np.array(oracle_district(stations, grid, 800.0)) + np.array(
            oracle_generator(stations, generators, 800.0)
        )
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
            DemandGrid(grid.cell_size, grid.x + offset, grid.y + offset, grid.population),
            [make_generator(g.name, g.daily_visitors, g.x + offset, g.y + offset) for g in generators],
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
        grid = DemandGrid(500.0, xy[:, 0], xy[:, 1], weight)
        got = district_coverage(stations, grid, params)
        assert np.allclose(got, oracle_district(stations, grid, sigma), rtol=1e-9, atol=0.0)
        generators = [make_generator(f"g{i}", float(w), float(x), float(y))
                      for i, ((x, y), w) in enumerate(zip(xy, weight))]
        got = generator_coverage(stations, generators, params)
        assert np.allclose(got, oracle_generator(stations, generators, sigma), rtol=1e-9, atol=0.0)

    def test_row_grouping_is_linear_in_cells(self):
        n = 20_000
        rng = np.random.default_rng(37)
        grid = DemandGrid(500.0, rng.uniform(-3e4, 3e4, n), rng.uniform(-3e4, 3e4, n), rng.uniform(1.0, 800.0, n))
        rows = grid.rows
        assert rows is grid.rows
        assert len(rows.xs) == len(rows.ys) == n  # off the lattice: every x and y distinct
        assert rows.col.dtype == np.int32
        # distinct axes, int32 columns, sorted weights and row starts: 36 bytes per cell
        assert sum(a.nbytes for a in rows) <= 36 * n

    def test_rasterized_cells_keep_their_order(self, two_district_region):
        grid = rasterize(two_district_region, 1000.0)
        rows = grid.rows
        assert np.array_equal(rows.weight, grid.population)
        assert np.array_equal(rows.xs[rows.col], grid.x)
        assert np.array_equal(np.repeat(rows.ys, np.diff(rows.starts, append=len(grid))), grid.y)


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
        shares = district_coverage(stations, grid, CoverageParams(800.0, mode="nearest"))
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
        gw = np.array([g.daily_visitors for g in generators])
        gx = np.array([g.x for g in generators])
        gy = np.array([g.y for g in generators])
        district = district_coverage(stations, grid, params)
        generator = generator_coverage(stations, generators, params)
        assert np.array_equal(district, unchunked_nearest_shares(stations, grid.x, grid.y, grid.population, 800.0))
        assert np.array_equal(generator, unchunked_nearest_shares(stations, gx, gy, gw, 800.0))
        assert np.array_equal(evaluate(stations, grid, generators, params), district + generator)

    def test_sum_share_independent_of_batch(self):
        rng = np.random.default_rng(29)
        stations, grid, generators = random_instance(rng, 61, 3000, 12)
        params = CoverageParams(800.0)
        batch = evaluate(stations, grid, generators, params)
        district = district_coverage(stations, grid, params)
        generator = generator_coverage(stations, generators, params)
        for i in range(len(stations)):
            one = stations[i : i + 1]
            assert evaluate(one, grid, generators, params)[0] == batch[i]
            assert district_coverage(one, grid, params)[0] == district[i]
            assert generator_coverage(one, generators, params)[0] == generator[i]

    @pytest.mark.parametrize("mode", ["sum", "nearest"])
    def test_peak_memory_does_not_scale_with_stations_times_cells(self, mode):
        rng = np.random.default_rng(31)
        k, n = 128, 100_000
        stations, grid, _ = random_instance(rng, k, n, 0, span=30000.0)
        params = CoverageParams(800.0, mode=mode)
        tracemalloc.start()
        try:
            evaluate(stations, grid, (), params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one K x N float64 temporary alone would be k * n * 8 bytes
        assert peak < k * n * 8 / 8
