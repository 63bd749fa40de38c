"""Projection, loading, and rasterization tests."""
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metronet import artifacts, geomodel

from metronet.errors import MetronetError, ParseError
from metronet.geomodel import (
    EARTH_RADIUS_M,
    DemandGrid,
    DemandPoints,
    District,
    GeoPoint,
    PlanarPolygon,
    PointRuns,
    group_runs,
    load_generators,
    load_region,
    nearest_boundary_point,
    point_in_region,
    points_in_region,
    points_in_rings,
    project,
    rasterize,
    shoelace_area,
    union_bounds,
    unproject,
)

from stage1_reference import rasterize_reference

from conftest import (
    DATA_DIR,
    MALFORMED_GEOMETRIES,
    generator_names,
    planar_ring_to_geojson,
    rect_district,
    star_districts,
    write_malformed_region,
    write_region_files,
)

ORIGIN = GeoPoint(3.0, 101.5)


class TestProjection:
    def test_origin_maps_to_zero(self):
        assert project(ORIGIN.lat, ORIGIN.lon, ORIGIN) == (0.0, 0.0)

    def test_hundredth_degree_of_latitude(self):
        # y = R * 0.01 * pi/180 = 1111.949... m
        x, y = project(3.01, 101.5, ORIGIN)
        assert x == 0.0
        assert y == pytest.approx(1111.95, abs=0.01)

    def test_batu_caves_against_spherical_arcs(self):
        # independent oracle: meridian arc R*dlat and parallel arc R*cos(lat0)*dlon
        x, y = project(3.2379, 101.6841, ORIGIN)
        meridian = EARTH_RADIUS_M * math.radians(3.2379 - 3.0)
        parallel = EARTH_RADIUS_M * math.cos(math.radians(3.0)) * math.radians(101.6841 - 101.5)
        assert y == pytest.approx(meridian, abs=1e-6)
        assert x == pytest.approx(parallel, abs=1e-6)
        # frozen values, sanity-checked against a great-circle calculation
        assert x == pytest.approx(20442.931, abs=0.01)
        assert y == pytest.approx(26453.273, abs=0.01)
        assert math.hypot(x, y) == pytest.approx(33430.46, rel=1e-3)  # haversine distance

    @given(
        lat=st.floats(2.85, 3.60),
        lon=st.floats(100.95, 101.85),
    )
    def test_round_trip_within_1e9_degrees(self, lat, lon):
        lat2, lon2 = unproject(*project(lat, lon, ORIGIN), ORIGIN)
        assert abs(lat2 - lat) < 1e-9
        assert abs(lon2 - lon) < 1e-9

    @given(lat_lon=st.lists(st.tuples(st.floats(2.85, 3.60), st.floats(100.95, 101.85)), min_size=1, max_size=20))
    def test_arrays_take_the_float_operations(self, lat_lon):
        lat, lon = np.array(lat_lon).T
        x, y = project(lat, lon, ORIGIN)
        assert list(zip(x.tolist(), y.tolist())) == [project(*p, ORIGIN) for p in lat_lon]
        back = unproject(x, y, ORIGIN)
        assert list(zip(*(c.tolist() for c in back))) == [unproject(*p, ORIGIN) for p in zip(x.tolist(), y.tolist())]

    def test_geopoint_bounds(self):
        with pytest.raises(MetronetError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(MetronetError):
            GeoPoint(0.0, -200.0)


class TestShoelace:
    @pytest.mark.parametrize("n", [3, 4, 6, 17, 100])
    def test_regular_polygon_matches_analytic_area(self, n):
        # analytic: (1/2) n R^2 sin(2 pi / n)
        radius = 2500.0
        ring = np.array(
            [(radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n)) for k in range(n)]
        )
        analytic = 0.5 * n * radius**2 * math.sin(2 * math.pi / n)
        assert shoelace_area(ring) == pytest.approx(analytic, rel=1e-6)

    def test_orientation_flips_sign(self):
        ring = np.array([(0, 0), (1000, 0), (1000, 1000), (0, 1000)], dtype=float)
        assert shoelace_area(ring) == pytest.approx(1e6)
        assert shoelace_area(ring[::-1]) == pytest.approx(-1e6)


class TestDistrict:
    def test_area_with_hole(self):
        outer = np.array([(-1000, -1000), (1000, -1000), (1000, 1000), (-1000, 1000)], dtype=float)
        hole = outer / 2
        d = District("ring", (PlanarPolygon(outer, (hole,)),), 100.0)
        assert d.area_km2 == pytest.approx(4.0 - 1.0)
        # inside the hole, then between the rings; tol=-1 leaves the ray cast alone
        assert points_in_region(np.array([(0.0, 0.0), (700.0, 0.0)]), [d], tol=-1.0).tolist() == [False, True]

    def test_short_ring_rejected(self):
        with pytest.raises(MetronetError, match="district 'bad': ring with 2 vertices"):
            District("bad", (PlanarPolygon(np.array([(0, 0), (1, 1)], dtype=float)),), 10.0)

    def test_zero_area_rejected(self):
        degenerate = np.array([(0, 0), (1000, 0), (2000, 0)], dtype=float)
        with pytest.raises(MetronetError, match="district 'flat': zero enclosed area"):
            District("flat", (PlanarPolygon(degenerate),), 10.0)

    def test_negative_density_rejected(self):
        with pytest.raises(MetronetError):
            rect_district("neg", 0, 0, 1000, 1000, -5.0)

    def test_union_bounds(self):
        west = rect_district("west", -3000, -1000, 0, 2000, 1.0)
        east = rect_district("east", 0, -4000, 500, 1000, 1.0)
        assert union_bounds([west, east]) == (-3000.0, -4000.0, 500.0, 2000.0)
        assert union_bounds([east]) == east.bounds


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
        with pytest.raises(ParseError) as exc:
            load_region(boundaries, densities)
        assert str(exc.value) == f"{boundaries}: feature 0: district_id 'a' has no row in {densities}"

    def test_multipolygon_two_disjoint_squares(self, tmp_path):
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

    def test_duplicate_district_id_rejected(self, tmp_path):
        boundaries, densities = write_region_files(
            tmp_path, [("a", -500, -500, 0, 500, 10), ("b", 0, -500, 500, 500, 10)]
        )
        doc = json.loads(boundaries.read_text())
        doc["features"].append(doc["features"][0])
        boundaries.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="feature 2: district_id 'a' repeats feature 0"):
            load_region(boundaries, densities)

    @pytest.mark.parametrize("hole", [False, True])
    def test_short_ring_rejected(self, tmp_path, hole):
        boundaries, densities = write_region_files(tmp_path, [("a", -500, -500, 500, 500, 10)])
        doc = json.loads(boundaries.read_text())
        rings = doc["features"][0]["geometry"]["coordinates"]
        short = [rings[0][0], rings[0][2], rings[0][0]]  # closed ring of 2 distinct vertices
        doc["features"][0]["geometry"]["coordinates"] = [rings[0], short] if hole else [short]
        boundaries.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="boundaries.geojson: feature 0: district 'a': ring with 2 vertices"):
            load_region(boundaries, densities)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_GEOMETRIES))
    def test_malformed_coordinates_next_to_valid_feature(self, tmp_path, shape):
        boundaries, densities = write_malformed_region(tmp_path, MALFORMED_GEOMETRIES[shape])
        with pytest.raises(ParseError, match="feature 1: "):
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

    def test_header_names_may_carry_spaces(self, tmp_path):
        boundaries, densities = write_region_files(tmp_path, [("a", -500, -500, 500, 500, 10)])
        densities.write_text("district_id, density_per_km2 \na,10\n")
        assert load_region(boundaries, densities).districts[0].density == 10.0

    def test_repeated_density_row_rejected(self, tmp_path):
        # a later row must not silently replace an earlier one, even with the same value
        boundaries, densities = write_region_files(tmp_path, [("a", -500, -500, 500, 500, 10)])
        densities.write_text("district_id,density_per_km2\na,10\nother,5\n a ,10\n")
        with pytest.raises(ParseError, match="row 4: district_id 'a' repeats row 2"):
            load_region(boundaries, densities)

    def test_field_over_csv_limit(self, tmp_path):
        boundaries, densities = write_region_files(tmp_path, [("a", -500, -500, 500, 500, 10)])
        densities.write_text(f'district_id,density_per_km2\n"{"a" * 200_000}",10\n')
        with pytest.raises(ParseError, match="field larger than field limit"):
            load_region(boundaries, densities)


@pytest.fixture(scope="module")
def star_files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("star_files")


@given(district=star_districts())
@settings(max_examples=60, deadline=None)
def test_loaded_rings_equal_per_vertex_projection(star_files_dir, district):
    """Each loaded ring holds the bytes of ``project`` applied to its GeoJSON vertices one at a time."""
    coordinates = [[planar_ring_to_geojson(ring) for ring in (p.outer, *p.holes)] for p in district.polygons]
    doc = {"type": "FeatureCollection", "features": [{
        "type": "Feature",
        "properties": {"district_id": "star"},
        "geometry": {"type": "MultiPolygon", "coordinates": coordinates},
    }]}
    boundaries, densities = star_files_dir / "b.geojson", star_files_dir / "d.csv"
    boundaries.write_text(json.dumps(doc))
    densities.write_text("district_id,density_per_km2\nstar,1000\n")
    region = load_region(boundaries, densities)

    polygons = json.loads(boundaries.read_text())["features"][0]["geometry"]["coordinates"]
    lons = [lon for rings in polygons for ring in rings for lon, _ in ring]
    lats = [lat for rings in polygons for ring in rings for _, lat in ring]
    origin = GeoPoint((min(lats) + max(lats)) / 2.0, (min(lons) + max(lons)) / 2.0)
    assert region.origin == origin
    loaded = region.districts[0].polygons
    assert len(loaded) == len(polygons)
    for poly, rings in zip(loaded, polygons):
        assert len(poly.holes) == len(rings) - 1
        for got, ring in zip((poly.outer, *poly.holes), rings):
            points = [project(lat, lon, origin) for lon, lat in ring[:-1]]  # the last closes the ring
            assert got.tobytes() == np.array(points).tobytes()
            assert not got.flags.writeable


def per_vertex_ring(ring, where):
    """A GeoJSON ring read one vertex at a time: the reference for ``geomodel._ring_lon_lat``."""
    return np.array([geomodel._lon_lat(vertex, where) for vertex in ring], dtype=float).reshape(-1, 2)


def circle_ring(n):
    """A closed GeoJSON ring of ``n`` vertices on a circle around 101.5 E, 3.0 N."""
    ring = [[101.5 + 0.1 * math.cos(2 * math.pi * k / n), 3.0 + 0.1 * math.sin(2 * math.pi * k / n)] for k in range(n)]
    return ring + [ring[0]]


class TestRingParsing:
    @pytest.mark.parametrize("big", [2**53 + 1, 2**63, 2**64 + 1, 10**300])
    def test_big_ints_convert_as_float_does(self, big):
        ring = json.loads(json.dumps([[big, 3.0], [101.5, big], [big, -big], [1, 2.5]]))
        whole = np.array(ring, dtype=float)  # the one conversion of the fast path
        assert whole.tobytes() == per_vertex_ring(ring, "w").tobytes()
        assert geomodel._ring_lon_lat(ring, "w").tobytes() == whole.tobytes()

    @pytest.mark.parametrize("bad", [
        [True, 3.0], [101.5, False], ["101.5", 3.0], None, [None, 3.0], [101.5, 3.0, 0.0],
        [2**1024, 3.0], [101.5, -(2**1030)], [math.nan, 3.0], [101.5, math.inf],
    ])
    def test_a_bad_vertex_mid_ring_gives_the_per_vertex_error(self, bad):
        ring = circle_ring(500)
        ring[250], ring[400] = bad, [200.0, 3.0]  # the first bad vertex is the one named
        geometry = json.loads(json.dumps({"type": "Polygon", "coordinates": [ring]}))  # NaN and Infinity too
        with pytest.raises(ParseError) as fast:
            geomodel._geo_rings_of_feature(geometry, "feature 0")
        with mock.patch.object(geomodel, "_ring_lon_lat", per_vertex_ring):
            with pytest.raises(ParseError) as slow:
                geomodel._geo_rings_of_feature(geometry, "feature 0")
        assert str(fast.value) == str(slow.value)
        assert f"vertex {bad!r:.60}" in str(fast.value)

    def test_a_good_ring_reads_as_vertex_by_vertex(self):
        ring = json.loads(json.dumps(circle_ring(500)[:-1] + [[101, 3], [101.5, 2]]))
        assert geomodel._ring_lon_lat(ring, "w").tobytes() == per_vertex_ring(ring, "w").tobytes()


# Documents every GeoJSON reader rejects, with the message each must give.
MALFORMED_COLLECTIONS = {
    "not_a_collection": (json.dumps({"type": "Feature", "properties": {}, "geometry": None}),
                         "expected a non-empty FeatureCollection"),
    "no_features": (json.dumps({"type": "FeatureCollection", "features": []}),
                    "expected a non-empty FeatureCollection"),
    "non_object_feature": (json.dumps({"type": "FeatureCollection", "features": [[101.5, 3.0]]}),
                           "feature 0: feature and its properties must be objects"),
    "no_properties": (json.dumps({"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": None}]}),
                      "feature 0: feature and its properties must be objects"),
    "nested_too_deep": ("[" * 100_000 + "]" * 100_000, "recursion"),
}
FEATURE_COLLECTION_READERS = {
    "load_region": lambda path: load_region(path, DATA_DIR / "selangor_densities.csv"),
    "read_stations_geojson": artifacts.read_stations_geojson,
    "read_lines_geojson": artifacts.read_lines_geojson,
}


@pytest.mark.parametrize("reader", sorted(FEATURE_COLLECTION_READERS))
@pytest.mark.parametrize("case", sorted(MALFORMED_COLLECTIONS))
def test_feature_collection_readers_agree(tmp_path, reader, case):
    text, message = MALFORMED_COLLECTIONS[case]
    path = tmp_path / "doc.geojson"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        FEATURE_COLLECTION_READERS[reader](path)


class TestLoadGenerators:
    def test_reference_table(self, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        generators = load_generators(selangor_paths["generators"], region)
        assert len(generators) == 14
        visitors = dict(zip(generator_names(selangor_paths["generators"]), generators.population))
        assert visitors["Sunway Pyramid"] == 50000
        assert visitors["Cyberjaya"] == 100000
        assert visitors["Sunway Lagoon"] == 8000
        assert visitors["Petaling Jaya"] == 200000

    def test_points_in_file_order(self, tmp_path, selangor_paths):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        table = tmp_path / "g.csv"
        table.write_text("name,daily_visitors,latitude,longitude\n")
        assert len(load_generators(table, region)) == 0
        table.write_text("name,daily_visitors,latitude,longitude\nPark,7,3.1,101.4\nMall,5,3.0,101.5\n")
        generators = load_generators(table, region)
        x, y = project(np.array([3.1, 3.0]), np.array([101.4, 101.5]), region.origin)
        assert generators.x.tolist() == x.tolist()
        assert generators.y.tolist() == y.tolist()
        assert generators.population.tolist() == [7.0, 5.0]

    @pytest.mark.parametrize("visitors", ["-5", "nan", "inf", "-inf", "1000000001"])
    def test_negative_visitors(self, tmp_path, selangor_paths, visitors):
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        bad = tmp_path / "g.csv"
        bad.write_text(f"name,daily_visitors,latitude,longitude\nGood,5,3.0,101.5\nBad,{visitors},3.0,101.5\n")
        with pytest.raises(ParseError) as exc:
            load_generators(bad, region)
        assert str(exc.value) == (
            f"{bad}: row 3: daily visitors must be finite and in [0, 1e+09], got {float(visitors)!r}")

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

    def test_repeated_row_rejected(self, tmp_path, selangor_paths):
        # the repeat would count its visitors twice; same place under another name, or the
        # same name elsewhere, is a different generator
        region = load_region(selangor_paths["boundaries"], selangor_paths["densities"])
        table = tmp_path / "g.csv"
        header = "name,daily_visitors,latitude,longitude\n"
        table.write_text(header + "Mall,5,3.0,101.5\nPark,5,3.0,101.5\nMall,5,3.1,101.5\n")
        assert len(load_generators(table, region)) == 3
        table.write_text(header + "Mall,5,3.0,101.5\nPark,5,3.1,101.5\n Mall ,7,3.00,101.50\n")
        with pytest.raises(ParseError, match=r"row 4: generator 'Mall' at \(3\.0, 101\.5\) repeats row 2"):
            load_generators(table, region)


class TestRasterize:
    def test_unit_square_exact_tiling(self, unit_square_km):
        grid = rasterize([unit_square_km], 500.0)
        assert len(grid) == 4
        assert np.allclose(sorted(grid.population), [250.0] * 4)
        assert grid.total_population == pytest.approx(1000.0)

    def test_oversized_cell_empty_grid(self, unit_square_km):
        # single centroid lands on the square's corner, outside by the even-odd rule
        with pytest.raises(MetronetError, match="no populated cell at cell_size=2000.0"):
            rasterize([unit_square_km], 2000.0)

    @pytest.mark.parametrize("population", [[1e308, 1e308], [1.0, math.nan]])
    def test_non_finite_population_total_rejected(self, population):
        xy = np.array([0.0, 500.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning before the check
            with pytest.raises(MetronetError, match="total population must be finite"):
                DemandPoints(xy, xy, np.array(population))

    def test_demand_grid_without_cells_rejected(self):
        empty = np.array([])
        with pytest.raises(MetronetError, match="no populated cell at cell_size=250.0"):
            DemandGrid(cell_size=250.0, x=empty, y=empty, population=empty)

    @pytest.mark.parametrize("cell_size", [math.nan, math.inf, -math.inf, 0.0, -500.0])
    def test_unusable_cell_size_rejected(self, unit_square_km, cell_size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the check
            with pytest.raises(MetronetError, match="cell_size must be finite and > 0"):
                rasterize([unit_square_km], cell_size)

    @pytest.mark.parametrize("cell_size", [1.0, 1e-300, 5e-324])
    def test_lattice_over_max_grid_cells_rejected(self, monkeypatch, cell_size):
        # a 10 km square holds 1e8 cells at 1 m, 1e608 (inf as a float) at 1e-300, and an
        # infinite count at the smallest subnormal
        d = rect_district("ten", 0.0, 0.0, 10_000.0, 10_000.0, 100.0)
        monkeypatch.setattr(np, "zeros", mock.Mock(side_effect=AssertionError("lattice allocated")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetronetError, match=rf"cell_size={cell_size!r} gives .* lattice cells"):
                rasterize([d], cell_size)

    def test_max_grid_cells_is_inclusive(self, unit_square_km, monkeypatch):
        monkeypatch.setattr(geomodel, "MAX_GRID_CELLS", 4)
        assert len(rasterize([unit_square_km], 500.0)) == 4  # a 2 x 2 lattice
        with pytest.raises(MetronetError, match="cell_size=400.0 gives 9 lattice cells"):
            rasterize([unit_square_km], 400.0)  # 3 x 3

    def test_l_shaped_polygon(self):
        ring = np.array([(0, 0), (2000, 0), (2000, 1000), (1000, 1000), (1000, 2000), (0, 2000)], dtype=float)
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
        ring = np.array(
            [(radius * math.cos(math.pi * k / 3), radius * math.sin(math.pi * k / 3)) for k in range(6)]
        )
        d = District("hex", (PlanarPolygon(ring),), 1200.0)
        coarse = rasterize([d], 1000.0).total_population
        fine = rasterize([d], 500.0).total_population
        assert abs(fine - coarse) / fine < 0.02
        assert fine == pytest.approx(d.area_km2 * d.density, rel=0.02)

    def test_translation_equivariance(self, two_district_region):
        def shift(district, dx, dy):
            polys = tuple(
                PlanarPolygon(poly.outer + (dx, dy), tuple(h + (dx, dy) for h in poly.holes))
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


def wiggly_star(cx, cy, n=500, radius=1650.0):
    """A star-shaped district of ``n`` vertices, its radius modulated by a few harmonics."""
    t = 2 * np.pi * np.arange(n) / n
    r = radius * (1.0 + 0.04 * np.sin(3 * t + 1.0) + 0.03 * np.sin(17 * t) + 0.02 * np.sin(41 * t + 2.0))
    ring = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])
    return District(f"star{cx:+.0f}{cy:+.0f}", (PlanarPolygon(ring),), 2000.0)


def test_raster_peak_memory_no_higher_than_reference():
    districts = [wiggly_star(5000.0 * i, 5000.0 * j) for j in range(2) for i in range(4)]
    rasterize(districts, 1000.0)  # fill every district's cached edges and bounds first

    def peak(rasterizer):
        tracemalloc.start()
        try:
            rasterizer(districts, 20.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(rasterize) <= peak(rasterize_reference)


def test_lattice_runs_peak_below_grouping_the_cells():
    districts = [wiggly_star(5000.0 * i, 5000.0 * j) for j in range(2) for i in range(4)]
    rasterize(districts, 1000.0)  # fill every district's cached edges and bounds first

    def peak(runs_of):
        tracemalloc.start()
        try:
            runs_of(rasterize(districts, 20.0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda grid: grid.runs) < peak(lambda grid: group_runs(grid.x, grid.y, grid.population))


class TestPointHelpers:
    def test_point_in_region_snap_tolerance(self, unit_square_km):
        inside = np.array([500.0, 500.0])
        near = np.array([-30.0, 500.0])  # 30 m outside the west edge
        far = np.array([-80.0, 500.0])
        assert point_in_region(inside, [unit_square_km])
        assert point_in_region(near, [unit_square_km])
        assert not point_in_region(far, [unit_square_km])

    def test_nearest_boundary_point(self, unit_square_km):
        p, dist = nearest_boundary_point(np.array([-300.0, 400.0]), [unit_square_km])
        assert p.tolist() == [0.0, 400.0]
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


def rings_of(district):
    """Every ring of a district, outers and holes, as (N, 2) arrays."""
    return [ring for poly in district.polygons for ring in (poly.outer, *poly.holes)]


def reference_nearest_boundary_point(p, districts):
    """Nearest boundary point ring by ring, the first ring winning ties, as ((x, y), distance)."""
    best, best_d2 = None, math.inf
    for d in districts:
        for a in rings_of(d):
            ab = np.roll(a, -1, axis=0) - a
            ap = p - a
            seg_len2 = np.einsum("ij,ij->i", ab, ab)
            t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(seg_len2 == 0, 1.0, seg_len2), 0.0, 1.0)
            closest = a + t[:, None] * ab
            diff = closest - p
            d2 = np.einsum("ij,ij->i", diff, diff)
            k = int(np.argmin(d2))
            if d2[k] < best_d2:
                best_d2 = float(d2[k])
                best = float(closest[k, 0]), float(closest[k, 1])
    return best, math.sqrt(best_d2)


class TestNearestBoundaryPoint:
    @given(districts=st.lists(star_districts(), min_size=1, max_size=3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_ring_by_ring_reference(self, districts, data):
        vertices = np.concatenate([ring for d in districts for ring in rings_of(d)])
        drawn = data.draw(st.lists(st.tuples(st.integers(-5000, 5000), st.integers(-5000, 5000)),
                                   min_size=1, max_size=10))
        # vertices and edge midpoints are on a ring: zero distance, often to several edges at once
        pts = np.concatenate([np.array(drawn, dtype=float), vertices[::7], (vertices[:-1:5] + vertices[1::5]) / 2])
        for p in pts:
            got, dist = nearest_boundary_point(p, districts)
            assert (tuple(got.tolist()), dist) == reference_nearest_boundary_point(p, districts)

    @pytest.mark.parametrize("first, want", [("east", [100.0, 0.0]), ("west", [-100.0, 0.0])])
    def test_tie_across_districts_goes_to_the_first(self, first, want):
        east = rect_district("east", 100.0, -50.0, 300.0, 50.0, 10.0)
        west = rect_district("west", -300.0, -50.0, -100.0, 50.0, 10.0)
        districts = [east, west] if first == "east" else [west, east]
        got, dist = nearest_boundary_point(np.array([0.0, 0.0]), districts)
        assert (got.tolist(), dist) == (want, 100.0)
        assert reference_nearest_boundary_point(np.array([0.0, 0.0]), districts) == (tuple(want), 100.0)

    def test_a_point_far_away_gets_a_finite_point_on_a_ring(self):
        districts = [rect_district("a", 0.0, 0.0, 1000.0, 1000.0, 10.0),
                     rect_district("b", 2000.0, 0.0, 3000.0, 500.0, 10.0)]
        got, dist = nearest_boundary_point(np.array([1e9, 2e8]), districts)
        assert got.tolist() == [3000.0, 500.0]  # the corner of the ring nearest to the point
        assert dist == pytest.approx(math.hypot(1e9 - 3000.0, 2e8 - 500.0), rel=1e-15)


def comb_district(cell, teeth, base_rows, tooth_rows, density):
    """A comb of ``teeth`` 250 m teeth standing on a bar, lowest of all raster test shapes.

    Its bottom is y = -4500 and every vertex height is a lattice row centroid
    height when the comb sets the lattice's minimum y, so rows run exactly
    through vertices. A row through the teeth straddles 2 * ``teeth`` edges.
    """
    x0, y0, w = -3000.0, -4500.0, 250.0
    base, top = y0 + (base_rows + 0.5) * cell, y0 + (base_rows + tooth_rows + 0.5) * cell
    ring = [(x0, y0), (x0 + (2 * teeth - 1) * w, y0)]
    for i in reversed(range(teeth)):
        right, left = x0 + (2 * i + 1) * w, x0 + 2 * i * w
        ring += [(right, top), (left, top)] + ([(left, base)] if i else [])
    return District("comb", (PlanarPolygon(np.array(ring)),), density)


def zigzag_pair(xs, density_west, density_east):
    """Two districts above the star shapes that share every edge of a zigzag from y = 4000 to y = 6000."""
    zig = [(float(x), 4000.0 + 2000.0 * k / (len(xs) - 1)) for k, x in enumerate(xs)]
    west = np.array([(-3000.0, 6000.0), (-3000.0, 4000.0), *zig])
    east = np.array([(3000.0, 4000.0), (3000.0, 6000.0), *zig[::-1]])
    return (District("west", (PlanarPolygon(west),), density_west),
            District("east", (PlanarPolygon(east),), density_east))


DENSITIES = st.sampled_from([0.0, 777.7, 1000.0, 3141.59])


@st.composite
def raster_cases(draw):
    """A star district, the districts rasterized with it, in drawn order, and a cell size.

    The star may have holes and two parts. With it may come a comb whose rows
    run through its vertices and straddle 10 or more edges, and two districts
    sharing a zigzag edge. Any district but the star may have zero density.
    """
    star = draw(star_districts())
    cell = draw(st.sampled_from([20.0, 50.0, 97.0, 250.0]))
    districts = [star]
    if draw(st.booleans()):
        rows = draw(st.integers(0, 1)), draw(st.integers(1, 3))
        districts.append(comb_district(cell, draw(st.integers(5, 12)), *rows, draw(DENSITIES)))
    if draw(st.booleans()):
        xs = draw(st.lists(st.integers(-2500, 2500), min_size=2, max_size=12))
        districts += zigzag_pair(xs, draw(DENSITIES), draw(DENSITIES))
    return star, draw(st.permutations(districts)), cell


def raster_or_error(rasterizer, districts, cell):
    """The grid's x, y and population, or the message of the MetronetError raised for an empty grid."""
    try:
        grid = rasterizer(districts, cell)
    except MetronetError as exc:  # overlapping parts cancel under even-odd, so the grid may be empty
        return str(exc)
    return grid.x, grid.y, grid.population


def assert_same_runs(got, want):
    """Two ``PointRuns`` hold the same arrays: values, dtypes and shapes."""
    for name, g, w in zip(PointRuns._fields, got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert np.array_equal(g, w), name


@st.composite
def run_raster_cases(draw):
    """The districts and cell size of a ``raster_cases`` case, perhaps with districts that shape the runs.

    East of every other shape, past a gap of lattice columns that no row
    keeps, two rectangles of drawn densities share an edge, so one row may
    hold two densities. A rectangle over the middle of the star overlaps it,
    so their shared cells sum two densities.
    """
    star, districts, cell = draw(raster_cases())
    districts = list(districts)
    if draw(st.booleans()):
        x0 = 3500.0 + draw(st.integers(2, 5)) * cell  # star parts end by x = 3500
        x1 = x0 + draw(st.integers(1, 6)) * 250.0
        districts += [rect_district("east0", x0, -1000.0, x1, 1000.0, draw(DENSITIES)),
                      rect_district("east1", x1, -1000.0, x1 + 500.0, 1000.0, draw(DENSITIES))]
    if draw(st.booleans()):
        bx0, by0, bx1, by1 = star.bounds
        w, h = (bx1 - bx0) / 4.0, (by1 - by0) / 4.0
        districts.append(rect_district("over", bx0 + w, by0 + h, bx1 - w, by1 - h, draw(DENSITIES)))
    return draw(st.permutations(districts)), cell


class TestLatticeRuns:
    @given(case=run_raster_cases())
    @settings(max_examples=80, deadline=None)
    def test_runs_equal_grouping_the_cells(self, case):
        districts, cell = case
        try:
            grid = rasterize(districts, cell)
        except MetronetError:  # overlapping parts cancel under even-odd, so the grid may be empty
            return
        assert_same_runs(grid.runs, group_runs(grid.x, grid.y, grid.population))

    @pytest.mark.parametrize("districts, want_bounds", [
        # a gap of two lattice columns that no row keeps: each row is one run across it
        ([rect_district("w", 0, 0, 1000, 1000, 800.0), rect_district("e", 1500, 0, 2500, 1000, 800.0)], [[0, 8]]),
        # two densities side by side
        ([rect_district("w", 0, 0, 1000, 1000, 800.0), rect_district("e", 1000, 0, 2000, 1000, 900.0)],
         [[0, 4], [4, 8]]),
        # overlapping districts sum where they meet
        ([rect_district("big", 0, 0, 2000, 1000, 800.0), rect_district("mid", 500, 0, 1500, 1000, 100.0)],
         [[0, 2], [2, 6], [6, 8]]),
    ])
    def test_a_run_breaks_where_the_weight_changes_or_a_row_keeps_no_cell(self, districts, want_bounds):
        grid = rasterize(districts, 250.0)
        assert_same_runs(grid.runs, group_runs(grid.x, grid.y, grid.population))
        assert grid.runs.bounds.tolist() == want_bounds * 4  # four identical rows
        assert grid.runs.row_starts.tolist() == list(range(0, 4 * len(want_bounds), len(want_bounds)))

    def test_centroids_that_round_together_are_grouped(self):
        # 1e-10 m cells at 1e6 m: ten lattice columns round to fewer distinct x
        speck = rect_district("speck", 1e6, 1e6, 1e6 + 1e-9, 1e6 + 1e-9, 1e9)
        grid = rasterize([speck], 1e-10)
        assert len(np.unique(grid.x)) < math.isqrt(len(grid))
        assert_same_runs(grid.runs, group_runs(grid.x, grid.y, grid.population))


class TestContainmentMatchesPerEdgeLoop:
    @given(case=raster_cases(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_points_district_and_raster_match(self, case, data):
        district, districts, cell = case
        xmin, ymin, xmax, ymax = district.bounds
        rings = rings_of(district)
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
        # no point is a negative distance from the boundary: the bounded ray casts alone
        assert points_in_region(pts, [district], tol=-1.0).tolist() == want.tolist()

        for p in pts[:: max(1, len(pts) // 8)]:
            got, dist = nearest_boundary_point(p, [district])
            assert (tuple(got.tolist()), dist) == reference_nearest_boundary_point(p, [district])

        # small blocks put chunk boundaries between rows, and chunks of rows that straddle no edge
        with mock.patch.object(geomodel, "_CONTAIN_BLOCK", data.draw(st.sampled_from([1, 50, 8_192]))):
            got = raster_or_error(rasterize, districts, cell)
        want = raster_or_error(rasterize_reference, districts, cell)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_comb_rows_run_through_vertices_and_straddle_many_edges(self):
        cell = 50.0
        comb = comb_district(cell, 5, 1, 2, 1000.0)
        cy = comb.bounds[1] + (np.arange(40) + 0.5) * cell  # the lattice's row centroids
        assert set(comb.edges[:, 1].tolist()) <= set(cy.tolist()) | {comb.bounds[1]}
        tooth_row = comb.bounds[1] + 2.5 * cell
        edges = comb.crossing_edges
        assert int(np.sum((edges[:, 1] > tooth_row) != (edges[:, 3] > tooth_row))) == 10
        west, east = zigzag_pair([-100, 200, 0], 1000.0, 2000.0)
        assert {tuple(e) for e in west.edges[2:4, :]} == {(e[2], e[3], e[0], e[1]) for e in east.edges[2:4, :]}

    def test_bounds_prefilter_is_exact_at_the_box(self):
        d = rect_district("box", -1000.0, -1000.0, 1000.0, 1000.0, 10.0)
        edge_points = [(1000.0, 0.0), (-1000.0, 0.0), (0.0, 1000.0), (0.0, -1000.0), (1000.0, 1000.0)]
        outside = [(np.nextafter(1000.0, 2000.0), 0.0), (0.0, np.nextafter(-1000.0, -2000.0))]
        pts = np.array(edge_points + outside)
        want = reference_points_in_rings(pts[:, 0].copy(), pts[:, 1].copy(), rings_of(d))
        assert points_in_region(pts, [d], tol=-1.0).tolist() == want.tolist()
        assert [point_in_region(p, [d], tol=-1.0) for p in pts] == want.tolist()

    def test_bounds_prefilter_keeps_a_crossing_rounded_past_the_box(self):
        # one ulp right of the corner at x = 941.901, whose rounded crossing lies further right
        corner = (941.901, 392.433)
        d = District("wedge", (PlanarPolygon(np.array([corner, (-2028.596, 2746.039), (-909.934, -2288.674)])),), 10.0)
        pts = np.array([(np.nextafter(corner[0], np.inf), np.nextafter(corner[1], -np.inf))])
        assert pts[0, 0] > d.bounds[2]
        assert reference_points_in_rings(pts[:, 0].copy(), pts[:, 1].copy(), rings_of(d)).tolist() == [True]
        assert points_in_region(pts, [d], tol=-1.0).tolist() == [True]
