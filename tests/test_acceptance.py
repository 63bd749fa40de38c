"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Oracles here are deliberately independent of the production code paths they
check (explicit double loops, exhaustive enumeration, Floyd-Warshall).
"""
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from metronet import cli, coverage
from metronet.coverage import CoverageParams, evaluate
from metronet.evolve import GaConfig
from metronet.geomodel import (
    DemandGrid,
    DemandPoints,
    District,
    PlanarPolygon,
    load_generators,
    load_region,
    rasterize,
)
from metronet.lines import LineStageConfig, line_fitness, optimize_lines
from metronet.netgraph import all_pairs_distances, build, components
from metronet.stations import StationStageConfig, optimize_stations

from conftest import (
    DATA_DIR,
    NO_GENERATORS,
    floyd_warshall_oracle,
    generator_names,
    line_edges,
    rect_district,
    write_generator_file,
    write_region_files,
)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: coverage matches a brute-force oracle on random instances
# ---------------------------------------------------------------------------


def test_criterion_01_coverage_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_stations = int(rng.integers(1, 11))
        n_cells = int(rng.integers(1, 51))
        n_generators = int(rng.integers(0, 6))
        grid = DemandGrid(
            cell_size=500.0,
            x=rng.uniform(-5000, 5000, n_cells),
            y=rng.uniform(-5000, 5000, n_cells),
            population=rng.uniform(1.0, 1000.0, n_cells),
        )
        stations = rng.uniform(-5000, 5000, (n_stations, 2))
        gxy = rng.uniform(-5000, 5000, (n_generators, 2))
        visitors = np.array([rng.uniform(100, 1e5) for _ in range(n_generators)])
        generators = DemandPoints(gxy[:, 0], gxy[:, 1], visitors)
        sigma = float(rng.uniform(400, 3000))
        got = evaluate(stations, grid, generators, CoverageParams(sigma))
        expect = np.zeros(n_stations)
        for i, (sx, sy) in enumerate(stations):
            for cx, cy, pop in zip(grid.x, grid.y, grid.population):
                expect[i] += pop * math.exp(-((sx - cx) ** 2 + (sy - cy) ** 2) / sigma**2)
            for gx, gy, v in zip(generators.x, generators.y, generators.population):
                expect[i] += v * math.exp(-((sx - gx) ** 2 + (sy - gy) ** 2) / sigma**2)
        worst = max(worst, float(np.max(np.abs(got - expect) / np.maximum(expect, 1e-300))))
        worst = max(worst, abs(float(got.sum()) - expect.sum()) / expect.sum())
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 5.0
    report(1, "coverage oracle equivalence", passed, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 2: analytic Gaussian disk integral
# ---------------------------------------------------------------------------


def test_criterion_02_analytic_gaussian_disk():
    start = time.perf_counter()
    sigma, rho_km2 = 800.0, 1000.0
    radius = 5 * sigma
    ring = np.array(
        [(radius * math.cos(2 * math.pi * k / 720), radius * math.sin(2 * math.pi * k / 720)) for k in range(720)]
    )
    disk = District("disk", (PlanarPolygon(ring),), rho_km2)
    grid = rasterize([disk], 160.0)
    got = coverage.shares(np.array([(0.0, 0.0)]), grid, CoverageParams(sigma))[0]
    analytic = (rho_km2 / 1e6) * math.pi * sigma**2 * (1 - math.exp(-((radius / sigma) ** 2)))
    rel = abs(got - analytic) / analytic
    elapsed = time.perf_counter() - start
    passed = rel < 0.01 and elapsed < 10.0
    report(2, "analytic Gaussian disk", passed, f"rel err {rel:.4%}, {elapsed:.2f}s")
    assert rel < 0.01
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 3: stage-1 GA reaches the exhaustive centroid-scan optimum
# ---------------------------------------------------------------------------


def test_criterion_03_stage1_near_optimality():
    start = time.perf_counter()
    square = rect_district("square", -5000.0, -5000.0, 5000.0, 5000.0, 1000.0)
    grid = rasterize([square], 500.0)
    params = CoverageParams(800.0)

    # oracle: evaluate every cell centroid as the single station, vectorized
    dx = grid.x[:, None] - grid.x[None, :]
    dy = grid.y[:, None] - grid.y[None, :]
    scan = np.exp(-(dx * dx + dy * dy) / params.sigma**2) @ grid.population
    oracle = float(scan.max())

    hits = 0
    for seed in range(100):
        cfg = StationStageConfig(
            station_count=1,
            mutation_sigma=1000.0,
            ga=GaConfig(population_size=50, generations=10, rng_seed=seed),
            coverage=params,
        )
        _, serviced, _ = optimize_stations(grid, NO_GENERATORS, [square], cfg)
        if serviced.sum() >= 0.98 * oracle:
            hits += 1
    elapsed = time.perf_counter() - start
    passed = hits >= 95 and elapsed < 60.0
    report(3, "stage-1 near-optimality", passed, f"{hits}/100 runs >= 98%, {elapsed:.1f}s")
    assert hits >= 95
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: stage-2 GA finds the exact optimum of an enumerable instance
# ---------------------------------------------------------------------------


def test_criterion_04_stage2_exact_tiny_instance():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    stations = rng.uniform(-5000, 5000, (5, 2))
    s = [float(v) for v in rng.uniform(100.0, 2000.0, 5)]

    # oracle: all 5!/2 = 60 distinct orderings, distances by prefix sums
    oracle = math.inf
    for perm in itertools.permutations(range(5)):
        if perm[0] > perm[-1]:
            continue
        edges = [float(np.hypot(*(stations[a] - stations[b]))) for a, b in zip(perm, perm[1:])]
        prefix = [0.0, *np.cumsum(edges)]
        value = sum(
            abs(prefix[j] - prefix[i]) * (s[perm[i]] + s[perm[j]])
            for i in range(5)
            for j in range(i + 1, 5)
        )
        oracle = min(oracle, value)

    hits = 0
    for seed in range(100):
        cfg = LineStageConfig(
            line_count=1, ga=GaConfig(population_size=40, generations=200, rng_seed=seed)
        )
        best, _ = optimize_lines(stations, s, cfg)
        value = line_fitness(best, stations, s).value
        if abs(value - oracle) <= 1e-9 * oracle:
            hits += 1
    elapsed = time.perf_counter() - start
    passed = hits >= 90 and elapsed < 60.0
    report(4, "stage-2 exact optimum", passed, f"{hits}/100 exact, {elapsed:.1f}s")
    assert hits >= 90
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# pipeline fixture shared by criteria 5-7
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_fixture(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    boundaries, densities = write_region_files(
        tmp,
        [
            ("west", -8000.0, -4000.0, 0.0, 4000.0, 2000.0),
            ("east", 0.0, -4000.0, 8000.0, 4000.0, 800.0),
        ],
    )
    generators = write_generator_file(
        tmp,
        [("Mall", 30000, -4000.0, 500.0), ("Airport", 80000, 5500.0, -1500.0)],
    )
    return {"boundaries": boundaries, "densities": densities, "generators": generators, "tmp": tmp}


def _pipeline_args(fixture, out, seed):
    return [
        "run",
        "--boundaries", str(fixture["boundaries"]),
        "--densities", str(fixture["densities"]),
        "--generators", str(fixture["generators"]),
        "--out", str(out),
        "--station-count", "12",
        "--line-count", "5",
        "--generations", "10",
        "--population-size", "50",
        "--elite-count", "2",
        "--seed", str(seed),
    ]


def test_criterion_05_constraint_preservation(pipeline_fixture):
    region = load_region(pipeline_fixture["boundaries"], pipeline_fixture["densities"])
    grid = rasterize(region.districts, 500.0)
    generators = load_generators(pipeline_fixture["generators"], region)

    violations = []
    station_cfg = StationStageConfig(
        station_count=12,
        mutation_sigma=1000.0,
        ga=GaConfig(population_size=50, generations=10, rng_seed=0),
        coverage=CoverageParams(800.0),
    )

    def check_station_genomes(gen, pop, fits):
        from metronet.geomodel import point_in_region

        for genome in pop:
            # a genome is the bare read-only (K, 2) float array
            if not (type(genome) is np.ndarray and genome.shape == (12, 2) and genome.dtype == np.float64):
                violations.append(f"stage1 gen {gen}: not a (12, 2) float64 array")
            if genome.flags.writeable:
                violations.append(f"stage1 gen {gen}: writeable genome")
            for p in genome:
                if not point_in_region(p, region.districts):
                    violations.append(f"stage1 gen {gen}: station outside districts")

    best, serviced, _ = optimize_stations(
        grid, generators, region.districts, station_cfg, on_generation=check_station_genomes
    )

    def check_line_genomes(gen, pop, fits):
        for genome in pop:
            # a genome is a tuple of tuples of Python ints: json.dumps in write_lines_geojson rejects numpy ints
            if not (type(genome) is tuple and all(type(line) is tuple for line in genome)
                    and all(type(s) is int for line in genome for s in line)):
                violations.append(f"stage2 gen {gen}: not a tuple of tuples of int")
            for li, line in enumerate(genome):
                if len(line) < 2:
                    violations.append(f"stage2 gen {gen} line {li}: too short")
                if len(set(line)) != len(line):
                    violations.append(f"stage2 gen {gen} line {li}: loop")
            build(genome, best)
            if len(set(components(genome, len(best)))) > 1:
                violations.append(f"stage2 gen {gen}: disconnected")

    line_cfg = LineStageConfig(line_count=5, ga=GaConfig(population_size=50, generations=10, rng_seed=1))
    optimize_lines(best, serviced, line_cfg, on_generation=check_line_genomes)

    passed = not violations
    report(5, "constraint preservation", passed, f"{len(violations)} violations")
    assert violations == []


def test_criterion_06_elitism_monotonicity(pipeline_fixture):
    failures = []
    for seed in range(20):
        out = pipeline_fixture["tmp"] / f"mono_{seed}"
        code = cli.main(_pipeline_args(pipeline_fixture, out, seed))
        assert code == 0
        best1 = [float(r.split(",")[1]) for r in (out / "history_stage1.csv").read_text().splitlines()[1:]]
        best2 = [float(r.split(",")[1]) for r in (out / "history_stage2.csv").read_text().splitlines()[1:]]
        if not all(b2 >= b1 for b1, b2 in zip(best1, best1[1:])):
            failures.append(f"seed {seed}: stage1 best decreased")
        if not all(b2 <= b1 for b1, b2 in zip(best2, best2[1:])):
            failures.append(f"seed {seed}: stage2 best increased")
    passed = not failures
    report(6, "elitism monotonicity", passed, f"{20 - len(failures)}/20 seeds monotone")
    assert failures == []


def test_criterion_07_pipeline_determinism(pipeline_fixture):
    outs = []
    for name in ("det_a", "det_b"):
        out = pipeline_fixture["tmp"] / name
        code = cli.main(_pipeline_args(pipeline_fixture, out, 42))
        assert code == 0
        outs.append(out)
    mismatched = [
        artifact
        for artifact in ("stations.geojson", "lines.geojson", "history_stage1.csv", "history_stage2.csv")
        if (outs[0] / artifact).read_bytes() != (outs[1] / artifact).read_bytes()
    ]
    passed = not mismatched
    report(7, "pipeline determinism", passed, f"mismatched: {mismatched or 'none'}")
    assert mismatched == []


# ---------------------------------------------------------------------------
# criterion 8: production shortest paths vs a station-level Floyd-Warshall oracle
# ---------------------------------------------------------------------------


def test_criterion_08_shortest_path_oracle():
    rng = np.random.default_rng(4040)
    worst = 0.0
    for _ in range(100):
        stations = rng.uniform(-6000, 6000, (8, 2))
        lines = [[int(v) for v in rng.permutation(8)]]
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, 9))
            lines.append([int(v) for v in rng.choice(8, size=size, replace=False)])
        got = all_pairs_distances(build(lines, stations))
        assert np.isfinite(got).all()
        oracle = floyd_warshall_oracle(8, line_edges(lines, stations))
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    passed = worst < 1e-9
    report(8, "shortest-path oracle", passed, f"worst abs diff {worst:.2e} m")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# criterion 9: reference generator table and sigma bounds
# ---------------------------------------------------------------------------


def test_criterion_09_reference_constants():
    region = load_region(DATA_DIR / "selangor_boundary.geojson", DATA_DIR / "selangor_densities.csv")
    generators = load_generators(DATA_DIR / "selangor_generators.csv", region)
    table = {
        "Batu Caves": 5000,
        "Sunway Lagoon": 8000,
        "i-City": 3000,
        "Zoo Negara": 2500,
        "Bukit Melawati": 1000,
        "Royal Selangor Visitor Centre": 500,
        "Kuala Selangor Nature Park": 400,
        "Shah Alam Lake Gardens": 2000,
        "Sekinchan": 700,
        "The Mines": 2500,
        "Sunway Pyramid": 50000,
        "1 Utama": 40000,
        "Cyberjaya": 100000,
        "Petaling Jaya": 200000,
    }
    ok = len(generators) == 14
    loaded = dict(zip(generator_names(DATA_DIR / "selangor_generators.csv"), generators.population))
    ok = ok and all(loaded[name] == visitors for name, visitors in table.items())

    rejected = 0
    for bad in (0.0, -10.0, 1e5, 5e5):
        try:
            CoverageParams(sigma=bad)
        except ValueError:
            rejected += 1
    ok = ok and rejected == 4

    clean = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CoverageParams(sigma=400.0)
            CoverageParams(sigma=3000.0)
        except Warning:
            clean = False
    ok = ok and clean
    report(9, "reference-constant fixture", ok, f"{len(generators)} generators, sigma checks")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: quadrature convergence under cell halving
# ---------------------------------------------------------------------------


def test_criterion_10_quadrature_convergence(two_district_region):
    stations = np.array([
        (-5500.0, 1200.0),
        (-2000.0, -800.0),
        (1500.0, 2200.0),
        (4500.0, -1700.0),
        (7000.0, 500.0),
    ])
    params = CoverageParams(800.0)
    coarse = float(evaluate(stations, rasterize(two_district_region, 1000.0), NO_GENERATORS, params).sum())
    fine = float(evaluate(stations, rasterize(two_district_region, 500.0), NO_GENERATORS, params).sum())
    rel = abs(fine - coarse) / fine
    passed = rel < 0.01
    report(10, "quadrature convergence", passed, f"rel change {rel:.4%}")
    assert rel < 0.01
