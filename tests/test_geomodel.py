"""Projection, loading, and rasterization tests."""
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metronet import geomodel

from metronet.errors import EmptyGrid, InvalidPolygon, MissingDensity, NegativeVisitors, ParseError
from metronet.geomodel import (
    EARTH_RADIUS_M,
    District,
    GeoPoint,
    PlanarPoint,
    PlanarPolygon,
    load_generators,
    load_region,
    nearest_boundary_point,
    point_in_district,
    point_in_region,
    points_in_rings,
    project,
    rasterize,
    shoelace_area,
    unproject,
)

from conftest import rect_district, write_region_files

ORIGIN = GeoPoint(3.0, 101.5)


class TestProjection:
    def test_origin_maps_to_zero(self):
        p = project(ORIGIN, ORIGIN)
        assert p.x == 0.0 and p.y == 0.0

    def test_hundredth_degree_of_latitude(self):
        # y = R * 0.01 * pi/180 = 1111.949... m
        p = project(GeoPoint(3.01, 101.5), ORIGIN)
        assert p.x == 0.0
        assert p.y == pytest.approx(1111.95, abs=0.01)

    def test_batu_caves_against_spherical_arcs(self):
        # independent oracle: meridian arc R*dlat and parallel arc R*cos(lat0)*dlon
        p = project(GeoPoint(3.2379, 101.6841), ORIGIN)
        meridian = EARTH_RADIUS_M * math.radians(3.2379 - 3.0)
        parallel = EARTH_RADIUS_M * math.cos(math.radians(3.0)) * math.radians(101.6841 - 101.5)
        assert p.y == pytest.approx(meridian, abs=1e-6)
        assert p.x == pytest.approx(parallel, abs=1e-6)
        # frozen values, sanity-checked against a great-circle calculation
        assert p.x == pytest.approx(20442.931, abs=0.01)
        assert p.y == pytest.approx(26453.273, abs=0.01)
        assert math.hypot(p.x, p.y) == pytest.approx(33430.46, rel=1e-3)  # haversine distance

    @given(
        lat=st.floats(2.85, 3.60),
        lon=st.floats(100.95, 101.85),
    )
    def test_round_trip_within_1e9_degrees(self, lat, lon):
        g = unproject(project(GeoPoint(lat, lon), ORIGIN), ORIGIN)
        assert abs(g.lat - lat) < 1e-9
        assert abs(g.lon - lon) < 1e-9

    def test_geopoint_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -200.0)

    def test_planar_point_sanity_bound(self):
        with pytest.raises(ValueError):
            PlanarPoint(1e7, 0.0)
        with pytest.raises(ValueError):
            PlanarPoint(0.0, math.nan)


class TestShoelace:
    @pytest.mark.parametrize("n", [3, 4, 6, 17, 100])
    def test_regular_polygon_matches_analytic_area(self, n):
        # analytic: (1/2) n R^2 sin(2 pi / n)
        radius = 2500.0
        ring = tuple(
            PlanarPoint(radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n))
            for k in range(n)
        )
        analytic = 0.5 * n * radius**2 * math.sin(2 * math.pi / n)
        assert shoelace_area(ring) == pytest.approx(analytic, rel=1e-6)

    def test_orientation_flips_sign(self):
        ring = (PlanarPoint(0, 0), PlanarPoint(1000, 0), PlanarPoint(1000, 1000), PlanarPoint(0, 1000))
        assert shoelace_area(ring) == pytest.approx(1e6)
        assert shoelace_area(ring[::-1]) == pytest.approx(-1e6)


class TestDistrict:
    def test_area_with_hole(self):
        outer = (PlanarPoint(-1000, -1000), PlanarPoint(1000, -1000), PlanarPoint(1000, 1000), PlanarPoint(-1000, 1000))
        hole = (PlanarPoint(-500, -500), PlanarPoint(500, -500), PlanarPoint(500, 500), PlanarPoint(-500, 500))
        d = District("ring", (PlanarPolygon(outer, (hole,)),), 100.0)
        assert d.area_km2 == pytest.approx(4.0 - 1.0)
        assert not point_in_district(PlanarPoint(0, 0), d)  # inside the hole
        assert point_in_district(PlanarPoint(700, 0), d)

    def test_short_ring_rejected(self):
        with pytest.raises(InvalidPolygon):
            District("bad", (PlanarPolygon((PlanarPoint(0, 0), PlanarPoint(1, 1))),), 10.0)

    def test_zero_area_rejected(self):
        degenerate = (PlanarPoint(0, 0), PlanarPoint(1000, 0), PlanarPoint(2000, 0))
        with pytest.raises(InvalidPolygon):
            District("flat", (PlanarPolygon(degenerate),), 10.0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            rect_district("neg", 0, 0, 1000, 1000, -5.0)


class TestLoadRegion:
    def test_unit_square(self, tmp_path):
        boundaries, densities = write_region_files(
            tmp_path, [("unit", -500.0, -500.0, 500.0, 500.0, 1000.0)]
        )
        region = load_region(boundaries, densities)
        assert len(region.districts) == 1
        d = region.districts[0]
        assert d.area_km2 == pytest.approx(1.0, rel=1e-9)
        assert d.area_km2 * d.density == pytest.approx(1000.0, rel=1e-9)

    def test_missing_density(self, tmp_path):
        boundaries, densities = write_region_files(tmp_path, [("a", -500, -500, 500, 500, 10)])
        densities.write_text("district_id,density_per_km2\nother,5\n")
        with pytest.raises(MissingDensity):
            load_region(boundaries, densities)

    def test_multipolygon_two_disjoint_squares(self, tmp_path):
        from conftest import planar_ring_to_geojson

        ring1 = planar_ring_to_geojson([(-1500, -500), (-500, -500), (-500, 500), (-1500, 500)])
        ring2 = planar_ring_to_geojson([(500, -500), (1500, -500), (1500, 500), (500, 500)])
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"district_id": "twin"},
                    "geometry": {"type": "MultiPolygon", "coordinates": [[ring1], [ring2]]},
                }
            ],
        }
        boundaries = tmp_path / "b.geojson"
        boundaries.write_text(json.dumps(doc))
        densities = tmp_path / "d.csv"
        densities.write_text("district_id,density_per_km2\ntwin,500\n")
        region = load_region(boundaries, densities)
        d = region.districts[0]
        assert d.area_km2 == pytest.approx(2.0, rel=1e-9)
        assert d.area_km2 * d.density == pytest.approx(1000.0, rel=1e-9)

    @pytest.mark.parametrize("hole", [False, True])
    def test_short_ring_rejected(self, tmp_path, hole):
        boundaries, densities = write_region_files(tmp_path, [("a", -500, -500, 500, 500, 10)])
        doc = json.loads(boundaries.read_text())
        rings = doc["features"][0]["geometry"]["coordinates"]
        short = [rings[0][0], rings[0][2], rings[0][0]]  # closed ring of 2 distinct vertices
        doc["features"][0]["geometry"]["coordinates"] = [rings[0], short] if hole else [short]
        boundaries.write_text(json.dumps(doc))
        with pytest.raises(InvalidPolygon, match="district 'a': ring with 2 vertices"):
            load_region(boundaries, densities)

    def test_missing_district_id(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "Polygon", "coordinates": [[[101, 3], [101.1, 3], [101.1, 3.1], [101, 3.1], [101, 3]]]},
                }
            ],
        }
        boundaries = tmp_path / "b.geojson"
        boundaries.write_text(json.dumps(doc))
        densities = tmp_path / "d.csv"
        densities.write_text("district_id,density_per_km2\nx,5\n")
        with pytest.raises(ParseError):
            load_region(boundaries, densities)

    def test_invalid_json(self, tmp_path):
        boundaries = tmp_path / "b.geojson"
        boundaries.write_text("{nope")
        densities = tmp_path / "d.csv"
        densities.write_text("district_id,density_per_km2\nx,5\n")
        with pytest.raises(ParseError):
            load_region(boundaries, densities)

    def test_missing_file(self, tmp_path):
        densities = tmp_path / "d.csv"
        densities.write_text("district_id,density_per_km2\nx,5\n")
        with pytest.raises(ParseError):
            load_region(tmp_path / "absent.geojson", densities)


class TestLoadGenerators:
    def test_reference_table(self, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        generators = load_generators(selangor_paths["generators"], region)
        assert len(generators) == 14
        by_name = {g.name: g for g in generators}
        assert by_name["Sunway Pyramid"].daily_visitors == 50000
        assert by_name["Cyberjaya"].daily_visitors == 100000
        assert by_name["Sunway Lagoon"].daily_visitors == 8000
        assert by_name["Petaling Jaya"].daily_visitors == 200000

    def test_negative_visitors(self, tmp_path, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        bad = tmp_path / "g.csv"
        bad.write_text("name,daily_visitors,latitude,longitude\nBad,-5,3.0,101.5\n")
        with pytest.raises(NegativeVisitors):
            load_generators(bad, region)

    def test_bad_header(self, tmp_path, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        bad = tmp_path / "g.csv"
        bad.write_text("place,visitors\nBad,5\n")
        with pytest.raises(ParseError):
            load_generators(bad, region)

    def test_far_outside_region_rejected(self, tmp_path, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        bad = tmp_path / "g.csv"
        bad.write_text("name,daily_visitors,latitude,longitude\nElsewhere,5,10.0,110.0\n")
        with pytest.raises(ParseError):
            load_generators(bad, region)

    def test_unparseable_row(self, tmp_path, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        bad = tmp_path / "g.csv"
        bad.write_text("name,daily_visitors,latitude,longitude\nBad,abc,3.0,101.5\n")
        with pytest.raises(ParseError):
            load_generators(bad, region)


class TestRasterize:
    def test_unit_square_exact_tiling(self, unit_square_km):
        grid = rasterize([unit_square_km], 500.0)
        assert len(grid) == 4
        assert np.allclose(sorted(grid.population), [250.0] * 4)
        assert grid.total_population == pytest.approx(1000.0)

    def test_oversized_cell_empty_grid(self, unit_square_km):
        # single centroid lands on the square's corner, outside by the even-odd rule
        with pytest.raises(EmptyGrid):
            rasterize([unit_square_km], 2000.0)

    @pytest.mark.parametrize("cell_size", [math.nan, math.inf, -math.inf, 0.0, -500.0])
    def test_unusable_cell_size_rejected(self, unit_square_km, cell_size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the check
            with pytest.raises(ValueError, match="cell_size must be finite and > 0"):
                rasterize([unit_square_km], cell_size)

    def test_l_shaped_polygon(self):
        ring = (
            PlanarPoint(0, 0),
            PlanarPoint(2000, 0),
            PlanarPoint(2000, 1000),
            PlanarPoint(1000, 1000),
            PlanarPoint(1000, 2000),
            PlanarPoint(0, 2000),
        )
        d = District("ell", (PlanarPolygon(ring),), 100.0)
        grid = rasterize([d], 1000.0)
        assert len(grid) == 3
        assert grid.total_population == pytest.approx(300.0)

    def test_total_population_is_cell_sum(self, two_district_region):
        grid = rasterize(two_district_region, 500.0)
        assert grid.total_population == pytest.approx(float(np.sum(grid.population)), rel=1e-12)

    def test_halving_cell_size_converges(self):
        # hexagonal district: boundaries cross the grid at angles
        radius = 6000.0
        ring = tuple(
            PlanarPoint(radius * math.cos(math.pi * k / 3), radius * math.sin(math.pi * k / 3))
            for k in range(6)
        )
        d = District("hex", (PlanarPolygon(ring),), 1200.0)
        coarse = rasterize([d], 1000.0).total_population
        fine = rasterize([d], 500.0).total_population
        assert abs(fine - coarse) / fine < 0.02
        assert fine == pytest.approx(d.area_km2 * d.density, rel=0.02)

    def test_translation_equivariance(self, two_district_region):
        def shift(district, dx, dy):
            polys = tuple(
                PlanarPolygon(
                    tuple(PlanarPoint(p.x + dx, p.y + dy) for p in poly.outer),
                    tuple(tuple(PlanarPoint(p.x + dx, p.y + dy) for p in h) for h in poly.holes),
                )
                for poly in district.polygons
            )
            return District(district.district_id, polys, district.density)

        base = rasterize(two_district_region, 500.0)
        moved = rasterize([shift(d, 12345.0, -6789.0) for d in two_district_region], 500.0)
        assert len(base) == len(moved)
        assert np.allclose(base.population, moved.population)
        assert np.allclose(moved.x - base.x, 12345.0)
        assert np.allclose(moved.y - base.y, -6789.0)

    def test_zero_population_cells_dropped(self):
        empty = rect_district("void", -2000, -500, 0, 500, 0.0)
        full = rect_district("town", 0, -500, 2000, 500, 1000.0)
        grid = rasterize([empty, full], 500.0)
        assert np.all(grid.population > 0)
        assert np.all(grid.x > 0)  # only cells in the populated half remain


class TestPointHelpers:
    def test_point_in_region_snap_tolerance(self, unit_square_km):
        inside = PlanarPoint(500, 500)
        near = PlanarPoint(-30.0, 500.0)  # 30 m outside the west edge
        far = PlanarPoint(-80.0, 500.0)
        assert point_in_region(inside, [unit_square_km])
        assert point_in_region(near, [unit_square_km])
        assert not point_in_region(far, [unit_square_km])

    def test_nearest_boundary_point(self, unit_square_km):
        p, dist = nearest_boundary_point(PlanarPoint(-300.0, 400.0), [unit_square_km])
        assert (p.x, p.y) == (0.0, 400.0)
        assert dist == pytest.approx(300.0)


def per_edge_crossings(xs, ys, edges):
    """Even-odd test one edge at a time: the reference for ``points_in_rings``."""
    inside = np.zeros(len(xs), dtype=bool)
    for ex1, ey1, ex2, ey2 in edges:
        if ey1 == ey2:
            continue
        straddles = (ey1 > ys) != (ey2 > ys)
        cross_x = (ex2 - ex1) * (ys - ey1) / (ey2 - ey1) + ex1
        inside ^= straddles & (xs < cross_x)
    return inside


def reference_points_in_rings(xs, ys, rings):
    edges = []
    for ring in rings:
        x1, y1 = ring[:, 0], ring[:, 1]
        edges += zip(x1, y1, np.roll(x1, -1), np.roll(y1, -1))
    return per_edge_crossings(xs, ys, edges)


def reference_nearest_boundary_point(p, districts):
    """Nearest boundary point ring by ring, the first ring winning ties."""
    best, best_d2 = None, math.inf
    for d in districts:
        for a in d.ring_arrays:
            ab = np.roll(a, -1, axis=0) - a
            ap = np.array([p.x, p.y]) - a
            seg_len2 = np.einsum("ij,ij->i", ab, ab)
            t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(seg_len2 == 0, 1.0, seg_len2), 0.0, 1.0)
            closest = a + t[:, None] * ab
            diff = closest - np.array([p.x, p.y])
            d2 = np.einsum("ij,ij->i", diff, diff)
            k = int(np.argmin(d2))
            if d2[k] < best_d2:
                best_d2 = float(d2[k])
                best = PlanarPoint(float(closest[k, 0]), float(closest[k, 1]))
    return best, math.sqrt(best_d2)


@st.composite
def star_ring(draw, cx, cy, r_lo, r_hi):
    """A star-shaped ring on a 1 m grid; some vertices copy the previous y (horizontal edges)."""
    n = draw(st.integers(3, 10))
    start = draw(st.floats(0.0, 2 * math.pi))
    jitter = draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n))
    radii = draw(st.lists(st.integers(r_lo, r_hi), min_size=n, max_size=n))
    flat = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ring = []
    for k in range(n):
        angle = start + 2 * math.pi * (k + jitter[k]) / n
        x = float(round(cx + radii[k] * math.cos(angle)))
        y = float(round(cy + radii[k] * math.sin(angle)))
        if flat[k] and ring:
            y = ring[-1].y
        ring.append(PlanarPoint(x, y))
    return tuple(ring)


@st.composite
def star_districts(draw):
    """One or two star parts, each with an optional star hole, possibly overlapping."""
    polygons = []
    for _ in range(draw(st.integers(1, 2))):
        cx, cy = draw(st.integers(-2000, 2000)), draw(st.integers(-2000, 2000))
        outer = draw(star_ring(cx, cy, 500, 1500))
        holes = (draw(star_ring(cx, cy, 50, 300)),) if draw(st.booleans()) else ()
        polygons.append(PlanarPolygon(outer, holes))
    try:
        return District("star", tuple(polygons), 1000.0)
    except InvalidPolygon:
        assume(False)


class TestContainmentMatchesPerEdgeLoop:
    @given(district=star_districts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_points_district_and_raster_match(self, district, data):
        xmin, ymin, xmax, ymax = district.bounds
        rings = district.ring_arrays
        vertices = np.concatenate(rings)
        midpoints = np.concatenate([(r + np.roll(r, -1, axis=0)) / 2.0 for r in rings])
        grid_pts = data.draw(st.lists(
            st.tuples(st.integers(int(xmin) - 200, int(xmax) + 200), st.integers(int(ymin) - 200, int(ymax) + 200)),
            min_size=1, max_size=40,
        ))
        grid_pts = np.array(grid_pts, dtype=float)
        # rays through vertex heights, from random x
        through = np.column_stack([grid_pts[: len(vertices), 0], vertices[: len(grid_pts), 1]])
        pts = np.concatenate([vertices, midpoints, grid_pts, through])
        xs, ys = pts[:, 0].copy(), pts[:, 1].copy()

        want = reference_points_in_rings(xs, ys, rings)
        assert np.array_equal(points_in_rings(xs, ys, district.crossing_edges), want)
        assert [point_in_district(PlanarPoint(x, y), district) for x, y in pts] == want.tolist()

        for x, y in pts[:: max(1, len(pts) // 8)]:
            p = PlanarPoint(x, y)
            assert nearest_boundary_point(p, [district]) == reference_nearest_boundary_point(p, [district])

        cell = data.draw(st.sampled_from([97.0, 250.0]))

        def raster():
            # overlapping parts cancel under even-odd, so the grid may be empty
            try:
                grid = rasterize([district], cell)
            except EmptyGrid:
                return None
            return grid.x.tolist(), grid.y.tolist(), grid.population.tolist()

        got = raster()
        with mock.patch.object(geomodel, "points_in_rings", per_edge_crossings):
            assert got == raster()

    def test_bounds_prefilter_is_exact_at_the_box(self):
        d = rect_district("box", -1000.0, -1000.0, 1000.0, 1000.0, 10.0)
        edge_points = [(1000.0, 0.0), (-1000.0, 0.0), (0.0, 1000.0), (0.0, -1000.0), (1000.0, 1000.0)]
        outside = [(np.nextafter(1000.0, 2000.0), 0.0), (0.0, np.nextafter(-1000.0, -2000.0))]
        for x, y in edge_points + outside:
            want = bool(reference_points_in_rings(np.array([x]), np.array([y]), d.ring_arrays)[0])
            assert point_in_district(PlanarPoint(x, y), d) == want
