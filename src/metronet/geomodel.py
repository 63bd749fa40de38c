"""Geospatial inputs: boundary/density/generator loading, local projection, rasterization.

All downstream math runs in a local planar frame (meters east/north of a
region-centroid origin) produced by an equirectangular projection. A planar
point is a length-2 float row x, y; a station set is an (N, 2) float array.
Demand is ``DemandPoints``, the raster cells and the generators alike; it
reaches the sum-mode coverage kernel as row runs (``group_runs``): stretches
of one row over consecutive columns that share one weight, O(runs + distinct
x + distinct y) memory.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import MetronetError, ParseError

EARTH_RADIUS_M = 6_371_000.0
_DEG = math.pi / 180.0

# Stations within this many meters outside a district still count as inside.
SNAP_TOLERANCE_M = 50.0

# Generators may sit at most this far outside the region bounding box.
GENERATOR_MARGIN_M = 10_000.0
PLANAR_BOUND_M = 1e7  # |x| and |y| stay below this: a regional frame, not the globe


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 coordinate in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise MetronetError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise MetronetError(f"longitude {self.lon} outside [-180, 180]")


def station_distances(stations: np.ndarray) -> np.ndarray:
    """(N, N) Euclidean distances in meters; entry [a, b] is ``np.hypot`` of point a minus point b.

    ``netgraph.build`` takes the same operands for an edge's length, so both agree bit for bit.
    """
    return np.hypot(stations[:, None, 0] - stations[None, :, 0], stations[:, None, 1] - stations[None, :, 1])


def project(lat, lon, origin: GeoPoint):
    """Equirectangular planar (x, y) in meters of degrees ``lat``, ``lon`` in the frame anchored at ``origin``.

    Floats or arrays: both take the same float operations.
    """
    y = EARTH_RADIUS_M * (lat - origin.lat) * _DEG
    x = EARTH_RADIUS_M * (lon - origin.lon) * math.cos(origin.lat * _DEG) * _DEG
    return x, y


def unproject(x, y, origin: GeoPoint):
    """Inverse of :func:`project`: degrees (lat, lon) of planar ``x``, ``y``; round-trips within 1e-9 degrees."""
    lat = origin.lat + y / (EARTH_RADIUS_M * _DEG)
    lon = origin.lon + x / (EARTH_RADIUS_M * math.cos(origin.lat * _DEG) * _DEG)
    return lat, lon


@dataclass(frozen=True, eq=False)
class PlanarPolygon:
    """One outer ring plus optional hole rings, each an (N, 2) float array of planar x, y in meters.

    A ring lists each vertex once; the closing edge runs from the last row
    back to the first. The polygon makes the arrays it is given read-only.
    """

    outer: np.ndarray
    holes: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        for ring in (self.outer, *self.holes):
            ring.flags.writeable = False


@dataclass(frozen=True)
class District:
    """An administrative area with a uniform population density.

    ``polygons`` may hold several disjoint parts (MultiPolygon input); each
    part carries its own holes.
    """

    district_id: str
    polygons: tuple[PlanarPolygon, ...]
    density: float  # persons per km^2

    def __post_init__(self):
        if self.density < 0:
            raise MetronetError(f"district {self.district_id!r}: density must be >= 0")
        short = [len(ring) for poly in self.polygons for ring in (poly.outer, *poly.holes) if len(ring) < 3]
        if short:
            raise MetronetError(f"district {self.district_id!r}: ring with {short[0]} vertices")
        if self.area_km2 <= 0:
            raise MetronetError(f"district {self.district_id!r}: zero enclosed area")

    @cached_property
    def area_km2(self) -> float:
        """Shoelace area of all parts, holes subtracted, in km^2."""
        total = 0.0
        for poly in self.polygons:
            total += abs(shoelace_area(poly.outer))
            total -= sum(abs(shoelace_area(h)) for h in poly.holes)
        return total / 1e6

    @cached_property
    def edges(self) -> np.ndarray:
        """Every ring edge, closing edges included, as (E, 4) rows x1, y1, x2, y2."""
        rings = [ring for poly in self.polygons for ring in (poly.outer, *poly.holes)]
        return np.concatenate([np.hstack([ring, np.roll(ring, -1, axis=0)]) for ring in rings])

    @cached_property
    def crossing_edges(self) -> np.ndarray:
        """The non-horizontal rows of ``edges``: the only ones a horizontal ray can cross."""
        return self.edges[self.edges[:, 1] != self.edges[:, 3]]

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        vertices = self.edges[:, 0:2]  # each vertex starts exactly one edge
        (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
        return float(x0), float(y0), float(x1), float(y1)


@dataclass(frozen=True)
class Region:
    """Loaded districts plus the planar frame they were projected into."""

    districts: tuple[District, ...]
    origin: GeoPoint
    bounds: tuple[float, float, float, float]  # planar (xmin, ymin, xmax, ymax)


class PointRuns(NamedTuple):
    """Weighted points as row runs: the layout of the separable sum-mode kernel.

    Points are ordered by row (distinct y), then by column (index into the
    distinct xs). A run is a stretch of one row whose points sit in
    consecutive columns and share one weight; run r covers the columns
    ``bounds[r, 0]`` up to, not including, ``bounds[r, 1]``. Row j holds the
    runs from ``row_starts[j]`` up to the next row's start. A new run starts
    at a row change, a column gap or a weight change, and a repeated point
    starts one too, so the layout is exact for any point set, on a lattice or
    not. It holds O(runs + distinct x + distinct y) memory: one run per row
    on a raster of one convex district, one run per point off the lattice.
    """

    xs: np.ndarray  # distinct x, ascending
    ys: np.ndarray  # distinct y, ascending
    bounds: np.ndarray  # (R, 2) first and one-past-last column of each run
    weight: np.ndarray  # each run's weight, runs ordered by row
    row_starts: np.ndarray  # offset of each row's first run


def group_runs(x: np.ndarray, y: np.ndarray, weight: np.ndarray) -> PointRuns:
    """Group weighted points into row runs, ordered by row, then column; repeated points keep input order."""
    ys, row = np.unique(y, return_inverse=True)
    xs, col = np.unique(x, return_inverse=True)
    order = np.lexsort((col, row))
    row, col, weight = row[order], col[order], weight[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1] + 1) | (weight[1:] != weight[:-1])
    first = np.flatnonzero(first)
    last = np.append(first[1:], len(order)) - 1
    bounds = np.column_stack([col[first], col[last] + 1])
    row_starts = np.flatnonzero(np.diff(row[first], prepend=-1))  # every row holds a run
    return PointRuns(xs, ys, bounds, weight[first], row_starts)


@dataclass(frozen=True, eq=False)
class DemandPoints:
    """Weighted demand points in planar meters: raster cells or trip generators.

    ``population`` is persons per point: residents of a cell, or daily
    visitors of a generator. Their total must be finite.
    """

    x: np.ndarray
    y: np.ndarray
    population: np.ndarray

    def __post_init__(self):
        if np.any(self.population < 0):
            raise MetronetError("populations must be >= 0")
        if not math.isfinite(self.total_population):
            raise MetronetError(f"total population must be finite, got {self.total_population!r}")

    @cached_property
    def total_population(self) -> float:
        with np.errstate(over="ignore"):  # an overflowing total is rejected above, not warned about
            return float(self.population.sum())

    def __len__(self) -> int:
        return len(self.population)

    @cached_property
    def runs(self) -> PointRuns:
        """The points as row runs, for the separable sum-mode coverage kernel."""
        return group_runs(self.x, self.y, self.population)


@dataclass(frozen=True, eq=False)
class DemandGrid(DemandPoints):
    """Raster of populated cells; the quadrature nodes for coverage integrals."""

    cell_size: float

    def __post_init__(self):
        if len(self.x) == 0:
            raise MetronetError(f"no populated cell at cell_size={self.cell_size}")
        super().__post_init__()


# ---------------------------------------------------------------------------
# planar geometry helpers
# ---------------------------------------------------------------------------


def shoelace_area(ring: np.ndarray) -> float:
    """Signed shoelace area of an (N, 2) ring in m^2 (positive for counterclockwise)."""
    x, y = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    return float(0.5 * np.sum(x * y2 - x2 * y))


# Point x edge entries per block of the even-odd test, unless the points
# alone are more. 64 KB float temporaries stay below glibc's 128 KB mmap
# threshold; at 16,384 entries the peak RSS of a run on 500-vertex
# districts rose by about 0.4 MB.
_CONTAIN_BLOCK = 8_192


def points_in_rings(xs: np.ndarray, ys: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Even-odd ray-casting test of many points against a set of ring edges.

    ``edges`` holds non-horizontal ring edges as (E, 4) rows x1, y1, x2, y2,
    as ``District.crossing_edges`` does. A point is inside when its rightward
    ray crosses an odd number of them, so holes and disjoint parts need no
    special casing. All points are tested against a block of edges at once,
    about ``_CONTAIN_BLOCK`` pairs; every pair's crossing is computed with
    the same float operations as one edge at a time.
    """
    inside = np.zeros(len(xs), dtype=bool)
    step = max(1, _CONTAIN_BLOCK // max(1, len(xs)))
    for e0 in range(0, len(edges), step):
        ex1, ey1, ex2, ey2 = (edges[e0:e0 + step, j, None] for j in range(4))
        straddles = ey1 > ys
        straddles ^= ey2 > ys
        # (x2 - x1) * (y - y1) / (y2 - y1) + x1, updated in place: one float temporary
        cross_x = ys - ey1
        cross_x *= ex2 - ex1
        cross_x /= ey2 - ey1
        cross_x += ex1
        hits = xs < cross_x
        hits &= straddles
        inside ^= np.logical_xor.reduce(hits, axis=0)
    return inside


def union_bounds(districts: Sequence[District]) -> tuple[float, float, float, float]:
    """The bounding box (xmin, ymin, xmax, ymax) of all the districts together."""
    x0, y0, x1, y1 = zip(*(d.bounds for d in districts))
    return min(x0), min(y0), max(x1), max(y1)


def nearest_boundary_point(xy, districts: Sequence[District]) -> tuple[np.ndarray, float]:
    """Closest point on any district ring to ``xy`` and its distance in meters.

    The edges of all districts are taken in district order, and the first
    nearest edge wins a tie.
    """
    edges = np.concatenate([d.edges for d in districts])
    a, b = edges[:, 0:2], edges[:, 2:4]
    ab = b - a
    ap = xy - a
    seg_len2 = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(seg_len2 == 0, 1.0, seg_len2), 0.0, 1.0)
    closest = a + t[:, None] * ab
    diff = closest - xy
    d2 = np.einsum("ij,ij->i", diff, diff)
    k = int(np.argmin(d2))
    return closest[k], math.sqrt(d2[k])


def points_in_region(points: np.ndarray, districts: Sequence[District], tol: float = SNAP_TOLERANCE_M) -> np.ndarray:
    """Per row of an (N, 2) array: inside some district, or within ``tol`` meters of a district boundary.

    Each district ray-casts only the points inside its bounds that no earlier
    district holds. No edge straddles a horizontal line above or below the
    bounds. Left or right of them, a rounded crossing can pass the bounds by a
    few ulps only, so the x bounds are widened by a relative 1e-9 and the
    answer always equals the full ray cast.
    """
    x0, y0, x1, y1 = np.array([d.bounds for d in districts]).T
    pad = 1e-9 * np.maximum(abs(x0), abs(x1))
    xs, ys = points[:, 0, None], points[:, 1, None]
    in_bounds = (y0 <= ys) & (ys <= y1) & (x0 - pad <= xs) & (xs <= x1 + pad)  # points x districts
    inside = np.zeros(len(points), dtype=bool)
    for j in np.flatnonzero(in_bounds.any(axis=0)):
        idx = np.flatnonzero(in_bounds[:, j] & ~inside)
        inside[idx] = points_in_rings(points[idx, 0], points[idx, 1], districts[j].crossing_edges)
    for i in np.flatnonzero(~inside):
        inside[i] = nearest_boundary_point(points[i], districts)[1] <= tol
    return inside


def point_in_region(xy, districts: Sequence[District], tol: float = SNAP_TOLERANCE_M) -> bool:
    """Point ``xy`` is inside some district, or within ``tol`` meters of a district boundary."""
    return bool(points_in_region(np.array([xy], dtype=float), districts, tol)[0])


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

# The largest density and daily visitors an input row may give: far above any
# real district or venue, and low enough that coverage and the stage-2 cost
# stay far from float overflow (under 1e19 at 200 stations on the Selangor
# fixture with both at the bound).
MAX_DENSITY_PER_KM2 = 1e9
MAX_DAILY_VISITORS = 1e9


def _geo_rings_of_feature(geometry: dict, where: str) -> list[list[np.ndarray]]:
    """Normalize a Polygon/MultiPolygon geometry to a list of polygons.

    Each polygon is a non-empty list of rings; each ring an (N, 2) array of
    lon, lat rows without the closing vertex. Any other shape of ``coordinates``
    (null, empty, a vertex that is not two numbers or out of range) raises ParseError.
    """
    if not isinstance(geometry, dict):
        raise ParseError(f"{where}: geometry must be an object")
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polys = [coords]
    elif gtype == "MultiPolygon":
        polys = coords
    else:
        raise ParseError(f"{where}: unsupported geometry type {gtype!r}")
    if not isinstance(polys, list) or not polys:
        raise ParseError(f"{where}: {gtype} has no coordinates")
    out = []
    for poly in polys:
        if not isinstance(poly, list) or not poly:
            raise ParseError(f"{where}: polygon without rings")
        rings = []
        for ring in poly:
            if not isinstance(ring, list):
                raise ParseError(f"{where}: ring {ring!r:.60} is not a list of vertices")
            lon_lat = np.array([_lon_lat(vertex, where) for vertex in ring], dtype=float).reshape(-1, 2)
            if len(lon_lat) > 1 and (lon_lat[0] == lon_lat[-1]).all():  # the closing vertex repeats the first
                lon_lat = lon_lat[:-1]
            bad = lon_lat[~(np.abs(lon_lat) <= (180.0, 90.0)).all(axis=1)]  # a NaN is out of range too
            if len(bad):
                raise ParseError(f"{where}: vertex {bad[0].tolist()} outside lon [-180, 180], lat [-90, 90]")
            rings.append(lon_lat)
        out.append(rings)
    return out


def json_number(value: object) -> float:
    """A parsed JSON number as a float; ValueError for a bool, a non-number or an integer too large."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"expected a number that fits a float, got {type(value).__name__}")


def _lon_lat(vertex: object, where: str) -> tuple[float, float]:
    """A GeoJSON position as a (lon, lat) pair of floats."""
    if isinstance(vertex, list) and len(vertex) == 2:
        try:
            return json_number(vertex[0]), json_number(vertex[1])
        except ValueError:
            pass
    raise ParseError(f"{where}: vertex {vertex!r:.60} is not a [lon, lat] pair of numbers")


def read_feature_collection(path: Path) -> list[dict]:
    """The features of a non-empty GeoJSON FeatureCollection, each with object properties."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:  # malformed, nested too deep, or over the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    features = doc.get("features") if isinstance(doc, dict) else None
    if not isinstance(features, list) or not features or doc.get("type") != "FeatureCollection":
        raise ParseError(f"{path}: expected a non-empty FeatureCollection")
    for i, feat in enumerate(features):
        if not isinstance(feat, dict) or not isinstance(feat.get("properties"), dict):
            raise ParseError(f"{path}: feature {i}: feature and its properties must be objects")
    return features


def _table_rows(path: Path, header: list[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """(row number, row) for each data row of a CSV file; its header, spaces stripped, must be ``header``.

    The rows are keyed by ``header``, and the file is closed before the first row is yielded.
    """
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            found, reader.fieldnames = reader.fieldnames, header
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:  # unreadable, not UTF-8, or a NUL in the path
        raise ParseError(f"{path}: {exc}") from exc
    if found is None or [f.strip() for f in found] != header:
        raise ParseError(f"{path}: expected header {','.join(header)}")
    yield from enumerate(rows, start=2)


def load_densities(path: Path) -> dict[str, float]:
    """Read the ``district_id,density_per_km2`` table; each district_id may appear once.

    A density outside [0, ``MAX_DENSITY_PER_KM2``] is rejected.
    """
    path = Path(path)
    out = {}
    row_of = {}
    for i, row in _table_rows(path, ["district_id", "density_per_km2"]):
        try:
            district_id, density = row["district_id"].strip(), float(row["density_per_km2"])
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"{path}: row {i}: {exc}") from exc
        if not (0 <= density <= MAX_DENSITY_PER_KM2):  # a NaN fails too
            raise ParseError(f"{path}: row {i}: density must be finite and in [0, {MAX_DENSITY_PER_KM2:g}], "
                             f"got {density!r}")
        if district_id in row_of:
            raise ParseError(f"{path}: row {i}: district_id {district_id!r} repeats row {row_of[district_id]}")
        out[district_id] = density
        row_of[district_id] = i
    return out


def load_region(boundaries_file: Path, densities_file: Path) -> Region:
    """Load GeoJSON district boundaries, match densities, project to the planar frame.

    The projection origin is the center of the geographic bounding box over
    all features.
    """
    boundaries_file = Path(boundaries_file)
    densities = load_densities(Path(densities_file))
    raw = {}  # district_id -> (feature index, polygons as lon/lat rings)
    for idx, feat in enumerate(read_feature_collection(boundaries_file)):
        where = f"{boundaries_file}: feature {idx}"
        district_id = feat["properties"].get("district_id")
        if not isinstance(district_id, str):
            raise ParseError(f"{where}: missing string property 'district_id'")
        if district_id in raw:
            raise ParseError(f"{where}: district_id {district_id!r} repeats feature {raw[district_id][0]}")
        raw[district_id] = idx, _geo_rings_of_feature(feat.get("geometry"), where)

    lon_lat = np.concatenate([ring for _, polys in raw.values() for rings in polys for ring in rings])
    if not len(lon_lat):
        raise ParseError(f"{boundaries_file}: no coordinates found")
    lon0, lat0 = (lon_lat.min(axis=0) + lon_lat.max(axis=0)) / 2.0
    origin = GeoPoint(float(lat0), float(lon0))

    districts = []
    for district_id, (idx, polys) in raw.items():
        where = f"{boundaries_file}: feature {idx}"
        if district_id not in densities:
            raise ParseError(f"{where}: district_id {district_id!r} has no row in {densities_file}")
        planar_polys = []
        for rings in polys:
            projected = [np.column_stack(project(ring[:, 1], ring[:, 0], origin)) for ring in rings]
            if not all(np.all(np.abs(xy) < PLANAR_BOUND_M) for xy in projected):
                raise ParseError(f"{where}: vertex {PLANAR_BOUND_M:.0f} m or more from the projection origin")
            planar_polys.append(PlanarPolygon(outer=projected[0], holes=tuple(projected[1:])))
        try:
            districts.append(District(district_id, tuple(planar_polys), densities[district_id]))
        except MetronetError as exc:  # a ring of under 3 vertices or no area
            raise ParseError(f"{where}: {exc}") from exc

    return Region(tuple(districts), origin, union_bounds(districts))


GENERATOR_HEADER = ["name", "daily_visitors", "latitude", "longitude"]


def load_generators(path: Path, region: Region) -> DemandPoints:
    """Read the generator table, one point per row in file order, projected into the region frame.

    Rows landing farther than 10 km outside the region bounding box are
    rejected as gross coordinate errors. A row whose name, latitude and
    longitude all repeat an earlier row is rejected too: its visitors would
    count twice. Daily visitors outside [0, ``MAX_DAILY_VISITORS``] are
    rejected.
    """
    path = Path(path)
    xs, ys, all_visitors = [], [], []
    row_of: dict[tuple[str, float, float], int] = {}
    xmin, ymin, xmax, ymax = region.bounds
    for i, row in _table_rows(path, GENERATOR_HEADER):
        try:
            name = row["name"].strip()
            visitors = float(row["daily_visitors"])
            geo = GeoPoint(float(row["latitude"]), float(row["longitude"]))
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"{path}: row {i}: {exc}") from exc
        if not (0 <= visitors <= MAX_DAILY_VISITORS):  # a NaN fails too
            raise ParseError(f"{path}: row {i}: daily visitors must be finite and in [0, {MAX_DAILY_VISITORS:g}], "
                             f"got {visitors!r}")
        x, y = project(geo.lat, geo.lon, region.origin)
        m = GENERATOR_MARGIN_M
        if not (xmin - m <= x <= xmax + m and ymin - m <= y <= ymax + m):
            raise ParseError(f"{path}: row {i}: generator {name!r} lies more than 10 km outside the region")
        key = (name, geo.lat, geo.lon)
        if key in row_of:
            raise ParseError(f"{path}: row {i}: generator {name!r} at ({geo.lat!r}, {geo.lon!r}) "
                             f"repeats row {row_of[key]}")
        row_of[key] = i
        xs.append(x)
        ys.append(y)
        all_visitors.append(visitors)
    return DemandPoints(np.array(xs), np.array(ys), np.array(all_visitors))


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------


# Lattice cells rasterize may allocate: Selangor at about 30 m cells.
MAX_GRID_CELLS = 10_000_000


def check_cell_size(cell_size: float) -> None:
    """Raise MetronetError unless ``cell_size`` is a usable raster cell edge in meters."""
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise MetronetError(f"cell_size must be finite and > 0, got {cell_size}")


def rasterize(districts: Sequence[District], cell_size: float) -> DemandGrid:
    """Sample districts onto an axis-aligned grid over their union bounding box.

    A cell belongs to a district when its centroid passes the even-odd test;
    its population is density * cell area. Zero-population cells are dropped;
    ``DemandGrid`` raises ``MetronetError`` when none is left. A lattice of more
    than ``MAX_GRID_CELLS`` cells raises MetronetError before it is allocated.
    """
    check_cell_size(cell_size)
    if not districts:
        raise MetronetError("need at least one district")

    xmin, ymin, xmax, ymax = union_bounds(districts)
    # the lattice size as Python floats first: a tiny cell_size makes it inf, not an error
    nx = max(1.0, float(np.ceil((xmax - xmin) / cell_size)))
    ny = max(1.0, float(np.ceil((ymax - ymin) / cell_size)))
    if nx * ny > MAX_GRID_CELLS:
        raise MetronetError(f"cell_size={cell_size!r} gives {nx * ny:.4g} lattice cells, over {MAX_GRID_CELLS:,}")
    nx, ny = int(nx), int(ny)
    cx = xmin + (np.arange(nx) + 0.5) * cell_size
    cy = ymin + (np.arange(ny) + 0.5) * cell_size
    gx, gy = np.meshgrid(cx, cy)
    gx, gy = gx.ravel(), gy.ravel()

    cell_km2 = (cell_size / 1000.0) ** 2
    pop = np.zeros(len(gx))
    for d in districts:
        if d.density == 0:
            continue
        bx0, by0, bx1, by1 = d.bounds
        cand = (gx >= bx0 - cell_size) & (gx <= bx1 + cell_size) & (gy >= by0 - cell_size) & (gy <= by1 + cell_size)
        idx = np.nonzero(cand)[0]
        if len(idx) == 0:
            continue
        hits = points_in_rings(gx[idx], gy[idx], d.crossing_edges)
        pop[idx[hits]] += d.density * cell_km2

    keep = pop > 0
    return DemandGrid(gx[keep], gy[keep], pop[keep], cell_size)
