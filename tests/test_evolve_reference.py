"""``evolve.run`` against the per-draw numpy engine: the same runs, for both stages' operators."""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_GENERATORS, rect_district
from evolve_reference import run_reference
from metronet import evolve, lines, stations
from metronet.evolve import GaConfig
from metronet.geomodel import rasterize


@st.composite
def ga_configs(draw):
    """Small GA settings with the edges the breeding loop branches on: rates of 0 and 1, no elites, odd sizes."""
    n = draw(st.one_of(st.sampled_from([3, 5, 7]), st.integers(2, 8)), label="population_size")
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    return GaConfig(
        population_size=n,
        generations=draw(st.integers(1, 4), label="generations"),
        crossover_rate=draw(rate, label="crossover_rate"),
        mutation_rate=draw(rate, label="mutation_rate"),
        elite_count=draw(st.one_of(st.just(0), st.integers(0, n - 1)), label="elite_count"),
        rng_seed=draw(st.integers(0, 2**64 - 1), label="rng_seed"),
    )


def both_engines(optimize):
    """``optimize(on_generation)`` through ``evolve.run`` and through ``run_reference``: each run's
    result and the (generation, genomes, fitnesses) it saw, genomes as bytes or tuples."""
    runs = []
    for engine in (evolve.run, run_reference):
        seen = []

        def record(gen, pop, fits, seen=seen):
            seen.append((gen, [g.tobytes() if isinstance(g, np.ndarray) else g for g in pop], fits.tolist()))

        with mock.patch.object(evolve, "run", engine):
            runs.append((optimize(record), seen))
    return runs


@settings(max_examples=150, deadline=None)
@given(ga=ga_configs(), n=st.integers(2, 9), line_count=st.integers(1, 4), coords=st.integers(0, 2**32 - 1))
def test_stage2_runs_as_reference(ga, n, line_count, coords):
    rng = np.random.default_rng(coords)
    points = rng.uniform(-5000, 5000, (n, 2))
    serviced = rng.uniform(0, 1000, n)
    config = lines.LineStageConfig(line_count=line_count, ga=ga)
    (got, got_seen), (want, want_seen) = both_engines(
        lambda hook: lines.optimize_lines(points, serviced, config, on_generation=hook))
    assert got_seen == want_seen
    assert got[0] == want[0]
    assert got[1].records == want[1].records


REGION = [rect_district("west", -8000.0, -4000.0, 0.0, 4000.0, 2000.0),
          rect_district("east", 0.0, -4000.0, 8000.0, 4000.0, 800.0)]
GRID = rasterize(REGION, 2000.0)


@settings(max_examples=100, deadline=None)
@given(ga=ga_configs(), station_count=st.integers(1, 6),
       # a sigma past the region's size sends most mutations to the boundary clamp
       mutation_sigma=st.sampled_from([300.0, 5000.0, 1e6]))
def test_stage1_runs_as_reference(ga, station_count, mutation_sigma):
    config = stations.StationStageConfig(station_count=station_count, mutation_sigma=mutation_sigma, ga=ga)
    (got, got_seen), (want, want_seen) = both_engines(
        lambda hook: stations.optimize_stations(GRID, NO_GENERATORS, REGION, config, on_generation=hook))
    assert got_seen == want_seen
    for a, b in zip(got, want[:2]):
        assert a.tobytes() == b.tobytes()
    assert got[2].records == want[2].records
