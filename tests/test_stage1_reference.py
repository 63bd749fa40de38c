"""Stage-1 seeding and containment against their one-point references: the same genomes, answers and draws."""
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import rect_district, star_districts
from metronet import stations
from metronet.errors import MetronetError
from metronet.geomodel import SNAP_TOLERANCE_M, DemandGrid, points_in_region, rasterize
from stage1_reference import init_population_reference, point_in_region_reference


def run_counted(grid, districts, station_count, population_size, rng):
    """``init_population`` with a count of its rewinds (batches that met a miss) and centroid fallbacks."""
    counts = Counter()

    def batch(points, districts):
        inside = points_in_region(points, districts)
        counts["rewind"] += not inside.all()
        return inside

    with mock.patch.object(stations, "points_in_region", batch):
        population = stations.init_population(grid, districts, station_count, population_size, rng)
    centroids = set(zip(grid.x.tolist(), grid.y.tolist()))
    counts["centroid"] = sum(p in centroids for genome in population for p in map(tuple, genome.tolist()))
    return population, counts


def assert_same_seeding(grid, districts, station_count, population_size, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, counts = run_counted(grid, districts, station_count, population_size, rng)
    want = init_population_reference(grid, districts, station_count, population_size, reference_rng)
    assert len(got) == len(want) == population_size
    for genome, expected in zip(got, want):
        assert genome.shape == (station_count, 2) and genome.dtype == np.float64
        assert genome.flags.c_contiguous and not genome.flags.writeable
        assert genome.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return counts


class TestInitPopulationMatchesReference:
    @given(
        districts=st.lists(star_districts(), min_size=1, max_size=3),
        cell_size=st.sampled_from([40.0, 150.0, 600.0, 1500.0, 2500.0]),
        station_count=st.sampled_from([1, 2, 7, 30]),
        population_size=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_genomes_and_generator_state(self, districts, cell_size, station_count, population_size, seed):
        try:
            grid = rasterize(districts, cell_size)
        except MetronetError:  # overlapping parts cancel under even-odd, and coarse cells may miss thin stars
            assume(False)
        counts = assert_same_seeding(grid, districts, station_count, population_size, seed)
        for path in ("rewind", "centroid"):
            if counts[path]:
                event(f"seeding {path}")

    def test_rewinds_and_centroid_fallbacks_occur(self, two_district_region):
        # 3000 m cells: a station jittered from a top-row cell leaves the region a third of the time
        counts = assert_same_seeding(rasterize(two_district_region, 3000.0), two_district_region, 8, 10, 0)
        assert counts["rewind"] >= 5
        # a 100 m strip under a 5 km cell: a jitter lands within 50 m of it one time in 25,
        # so most stations miss 8 times and keep the centroid
        strip = rect_district("strip", 0.0, 0.0, 100.0, 10_000.0, 1000.0)
        grid = DemandGrid(cell_size=5000.0, x=np.array([50.0]), y=np.array([5000.0]), population=np.array([500.0]))
        counts = assert_same_seeding(grid, [strip], 5, 4, 1)
        assert counts["rewind"] >= 5 and counts["centroid"] >= 5


@st.composite
def probe_points(draw, districts):
    """Points inside, in holes, on and near the boundary, within and beyond the snap tolerance, and far off."""
    rings = [ring for d in districts for poly in d.polygons for ring in (poly.outer, *poly.holes)]
    vertices = np.concatenate(rings)
    # shifted off the boundary by under, at and over the tolerance, in each direction
    offsets = np.array([(dx, dy) for dx in (-80.0, -50.0, -20.0, 0.0, 20.0, 50.0, 80.0) for dy in (-49.0, 0.0, 49.0)])
    near = (vertices[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    near = near[draw(st.lists(st.integers(0, len(near) - 1), max_size=60))]
    centers = np.array([ring.mean(axis=0) for ring in rings])  # inside parts and inside holes
    scattered = np.array(draw(st.lists(st.tuples(st.integers(-4000, 4000), st.integers(-4000, 4000)), max_size=30)),
                         dtype=float).reshape(-1, 2)
    far = np.array([(-1e5, 0.0), (0.0, 1e5), (3e6, -3e6)])  # outside every bounding box
    return np.concatenate([vertices, centers, near, scattered, far])


class TestPointsInRegionMatchesReference:
    @given(districts=st.lists(star_districts(), min_size=1, max_size=3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_answer_for_every_point(self, districts, data):
        pts = data.draw(probe_points(districts))
        want = [point_in_region_reference(p, districts) for p in pts]
        assert points_in_region(pts, districts).tolist() == want
        assert [stations.point_in_region(p, districts) for p in pts[::7]] == want[::7]
        assert not all(want) and any(want)
        tol = data.draw(st.sampled_from([0.0, 20.0, SNAP_TOLERANCE_M]))
        assert points_in_region(pts, districts, tol).tolist() == [point_in_region_reference(p, districts, tol)
                                                                  for p in pts]

    def test_empty_array(self, two_district_region):
        inside = points_in_region(np.empty((0, 2)), two_district_region)
        assert inside.dtype == bool and inside.shape == (0,)
