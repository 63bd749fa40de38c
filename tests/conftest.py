"""Shared fixtures: synthetic districts, file-backed regions, reference data paths, graph references."""
import csv
import heapq
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import metronet
from metronet.errors import MetronetError
from metronet.evolve import Draws
from metronet.geomodel import (
    DemandPoints,
    District,
    GeoPoint,
    PlanarPolygon,
    unproject,
)

DATA_DIR = Path(__file__).parent / "data"

# The directory the metronet under test was imported from, so that a child process runs the same code.
SRC = Path(metronet.__file__).resolve().parents[1]

# Symmetric about the planar origin so the recomputed bbox-center origin of
# written GeoJSON matches the origin used to generate it.
FIXTURE_ORIGIN = GeoPoint(3.0, 101.5)

# What the command line passes for demand when no generators file is given.
NO_GENERATORS = DemandPoints(*np.zeros((3, 0)))


def run_python(*args: str, flags=(), env=None) -> subprocess.CompletedProcess:
    """Run ``sys.executable`` with ``flags`` and ``args``, SRC first on PYTHONPATH and ``env`` added; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *flags, *args], env={**os.environ, **(env or {}), "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result


def twin_draws(seed, earlier=()):
    """A ``Draws`` and a plain ``Generator`` of one seed, each advanced by the same earlier draws.

    The sampler starts at the twin's PCG64 state. ``earlier`` holds one
    ``integers`` bound per draw, or None for a ``random()``.
    """
    twin = np.random.default_rng(seed)
    draws = Draws(**twin.bit_generator.state["state"])
    for bound in earlier:
        for rng in (draws, twin):
            rng.random() if bound is None else rng.integers(bound)
    return draws, twin


def assert_in_step(draws: Draws, twin: np.random.Generator) -> None:
    """``draws`` consumed its generator as ``twin`` did: the same PCG64 state and the same half word kept.

    Reading ``draws.generator`` rewinds past the words read ahead, so the
    state compared is the one at the sampler's next unread word. The sampler
    keeps the half word itself, so its generator's own
    ``has_uint32``/``uinteger`` are never read.
    """
    state = twin.bit_generator.state
    assert draws.generator.bit_generator.state["state"] == state["state"]
    assert draws._half == (state["uinteger"] if state["has_uint32"] else None)


def rect_polygon(x0: float, y0: float, x1: float, y1: float) -> PlanarPolygon:
    return PlanarPolygon(outer=np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], dtype=float))


def rect_district(district_id: str, x0, y0, x1, y1, density: float) -> District:
    return District(district_id, (rect_polygon(x0, y0, x1, y1),), density)


def planar_ring_to_geojson(ring, origin: GeoPoint = FIXTURE_ORIGIN) -> list:
    coords = []
    for x, y in [*ring, ring[0]]:
        lat, lon = unproject(x, y, origin)
        coords.append([lon, lat])
    return coords


def write_region_files(tmp_path: Path, rects, origin: GeoPoint = FIXTURE_ORIGIN):
    """Write boundaries.geojson + densities.csv for planar rectangles.

    ``rects`` rows are (district_id, x0, y0, x1, y1, density). The rectangles
    should be symmetric about (0, 0) so reloading reproduces the same origin.
    """
    features = []
    density_rows = ["district_id,density_per_km2"]
    for district_id, x0, y0, x1, y1, density in rects:
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        features.append(
            {
                "type": "Feature",
                "properties": {"district_id": district_id},
                "geometry": {"type": "Polygon", "coordinates": [planar_ring_to_geojson(ring, origin)]},
            }
        )
        density_rows.append(f"{district_id},{density}")
    boundaries = tmp_path / "boundaries.geojson"
    densities = tmp_path / "densities.csv"
    boundaries.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    densities.write_text("\n".join(density_rows) + "\n")
    return boundaries, densities


# Geometries that are not a Polygon/MultiPolygon of [lon, lat] rings.
MALFORMED_GEOMETRIES = {
    "polygon_empty": {"type": "Polygon", "coordinates": []},
    "multipolygon_empty_part": {"type": "MultiPolygon", "coordinates": [[]]},
    "polygon_null": {"type": "Polygon", "coordinates": None},
    "multipolygon_null": {"type": "MultiPolygon", "coordinates": None},
    "one_number_vertex": {"type": "Polygon", "coordinates": [[[101.0], [101.1, 3.0], [101.1, 3.1], [101.0]]]},
    "ring_of_numbers": {"type": "Polygon", "coordinates": [[101.0, 3.0, 101.1, 3.0, 101.1, 3.1]]},
    "latitude_91": {"type": "Polygon", "coordinates": [[[101.0, 3.0], [101.1, 3.0], [101.1, 91.0], [101.0, 3.0]]]},
    "nan_vertex": {"type": "Polygon", "coordinates": [[[101.0, 3.0], [101.1, 3.0], [math.nan, 3.1], [101.0, 3.0]]]},
    "longitude_200": {"type": "Polygon", "coordinates": [[[101.0, 3.0], [200.0, 3.0], [101.1, 3.1], [101.0, 3.0]]]},
    # 239 degrees of longitude reach beyond 1e7 m of the origin, while the valid feature at
    # 101.5 E stays within it (a -179...179 span would put the origin 11,000 km from it)
    "span_beyond_planar_bound": {
        "type": "Polygon", "coordinates": [[[-60.0, 3.0], [179.0, 3.0], [179.0, 3.1], [-60.0, 3.0]]]
    },
    # well-formed vertices that District rejects once projected
    "two_vertex_ring": {"type": "Polygon", "coordinates": [[[101.0, 3.0], [101.1, 3.0], [101.0, 3.0]]]},
    "zero_area": {"type": "Polygon", "coordinates": [[[101.0, 3.0], [101.1, 3.0], [101.2, 3.0], [101.0, 3.0]]]},
}


def write_malformed_region(tmp_path: Path, geometry: dict):
    """Region files with a valid district followed by one whose geometry is ``geometry``."""
    boundaries, densities = write_region_files(
        tmp_path, [("ok", -500, -500, 0, 500, 100), ("bad", 0, -500, 500, 500, 100)]
    )
    doc = json.loads(boundaries.read_text())
    doc["features"][1]["geometry"] = geometry
    boundaries.write_text(json.dumps(doc))
    return boundaries, densities


def write_star_district(tmp_path: Path):
    """Boundaries and densities of one district: a 2,000-vertex star ring around a hole, plus a second part.

    Its raster rows cross many edges, unlike tests/data's rectangle. At 50 m it has 44,286 cells.
    """
    def ring(lon, lat, radius, n, wiggle):
        pts = []
        for k in range(n):
            t = 2 * math.pi * k / n
            r = radius * (1 + wiggle * math.sin(7 * t) + 0.3 * wiggle * math.sin(113 * t))
            pts.append([lon + r * math.cos(t), lat + r * math.sin(t)])
        return pts + [pts[0]]

    parts = [[ring(101.5, 3.0, 0.05, 2000, 0.2), ring(101.5, 3.0, 0.01, 40, 0.0)], [ring(101.62, 3.0, 0.02, 60, 0.1)]]
    feature = {"type": "Feature", "properties": {"district_id": "star"},
               "geometry": {"type": "MultiPolygon", "coordinates": parts}}
    boundaries = tmp_path / "star.geojson"
    densities = tmp_path / "star_densities.csv"
    boundaries.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
    densities.write_text("district_id,density_per_km2\nstar,3000\n")
    return boundaries, densities


def write_generator_file(tmp_path: Path, rows, origin: GeoPoint = FIXTURE_ORIGIN) -> Path:
    """Write generators.csv from (name, daily_visitors, x_m, y_m) planar rows."""
    out = ["name,daily_visitors,latitude,longitude"]
    for name, visitors, x, y in rows:
        lat, lon = unproject(x, y, origin)
        out.append(f"{name},{visitors},{lat},{lon}")
    path = tmp_path / "generators.csv"
    path.write_text("\n".join(out) + "\n")
    return path


def generator_names(path: Path) -> list[str]:
    """The name column of a generators.csv, in file order: the order of ``load_generators``' points."""
    with Path(path).open(newline="") as fh:
        return [row["name"].strip() for row in csv.DictReader(fh)]


@pytest.fixture
def unit_square_km() -> District:
    """1 km x 1 km district at density 1000/km^2 (implied population 1000)."""
    return rect_district("unit", 0.0, 0.0, 1000.0, 1000.0, 1000.0)


@pytest.fixture
def two_district_region():
    """Smooth synthetic region: two adjacent rectangles with different densities."""
    west = rect_district("west", -8000.0, -4000.0, 0.0, 4000.0, 2000.0)
    east = rect_district("east", 0.0, -4000.0, 8000.0, 4000.0, 800.0)
    return [west, east]


@pytest.fixture
def selangor_paths():
    return {
        "boundaries": DATA_DIR / "selangor_boundary.geojson",
        "densities": DATA_DIR / "selangor_densities.csv",
        "generators": DATA_DIR / "selangor_generators.csv",
    }


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
            y = ring[-1][1]
        ring.append((x, y))
    return np.array(ring)


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
    except MetronetError:
        assume(False)


@st.composite
def layouts(draw):
    """Station count, seeded coordinates and 1-4 duplicate-free lines (often disconnected)."""
    n = draw(st.integers(2, 9))
    line = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    lines = draw(st.lists(line, min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    xy = np.random.default_rng(seed).uniform(-5000, 5000, (n, 2))
    return n, xy, lines


def line_edges(lines, stations):
    """(a, b, length) for each consecutive stop pair of each line, in line order.

    Each length is ``np.hypot`` of the two stations' coordinate differences.
    The shortest-path references build their graphs from this list, not from
    ``netgraph.build``, so they do not depend on the code they check. An edge
    that several lines share appears once per line.
    """
    return [
        (a, b, float(np.hypot(stations[a][0] - stations[b][0], stations[a][1] - stations[b][1])))
        for line in lines
        for a, b in zip(line, line[1:])
    ]


def floyd_warshall_oracle(n, edges):
    """Station-level Floyd-Warshall over every station, from (a, b, length) edges."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b, w in edges:
        d[a, b] = min(d[a, b], w)
        d[b, a] = min(d[b, a], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def _dijkstra(adj, sources, size):
    """Multi-source Dijkstra over an adjacency list of (neighbor, weight) pairs."""
    dist = [math.inf] * size
    heap = []
    for src in sources:
        dist[src] = 0.0
        heap.append((0.0, src))
    heapq.heapify(heap)
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            dv = du + w
            if dv < dist[v]:
                dist[v] = dv
                heapq.heappush(heap, (dv, v))
    return dist


def dijkstra_reference(stations, lines, transfer_penalty_m=0.0):
    """Station distances by Dijkstra; a positive penalty runs on (station, line) nodes.

    Boarding at the origin is free; every line change at a shared station
    adds the penalty.
    """
    n = len(stations)
    if transfer_penalty_m == 0.0:
        adj = [[] for _ in range(n)]
        for a, b, w in line_edges(lines, stations):
            adj[a].append((b, w))
            adj[b].append((a, w))
        return np.array([_dijkstra(adj, [s], n) for s in range(n)]).reshape(n, n)
    nodes = [(s, li) for li, line in enumerate(lines) for s in line]
    node_id = {node: i for i, node in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for li, line in enumerate(lines):
        for a, b, w in line_edges([line], stations):
            u, v = node_id[(a, li)], node_id[(b, li)]
            adj[u].append((v, w))
            adj[v].append((u, w))
    by_station = {}
    for i, (s, _) in enumerate(nodes):
        by_station.setdefault(s, []).append(i)
    for idxs in by_station.values():
        for i in idxs:
            adj[i] += [(j, transfer_penalty_m) for j in idxs if j != i]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for s, sources in by_station.items():
        dist = _dijkstra(adj, sources, len(nodes))
        for i, (t, _) in enumerate(nodes):
            d[s, t] = min(d[s, t], dist[i])
    return d
