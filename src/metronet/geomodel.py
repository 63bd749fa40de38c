"""Geospatial inputs: boundary/density/generator loading, local projection, rasterization.

All downstream math runs in a local planar frame (meters east/north of a
region-centroid origin) produced by an equirectangular projection.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyGrid, InvalidPolygon, MissingDensity, NegativeVisitors, ParseError

EARTH_RADIUS_M = 6_371_000.0
_DEG = math.pi / 180.0

# Stations within this many meters outside a district still count as inside.
SNAP_TOLERANCE_M = 50.0

# Generators may sit at most this far outside the region bounding box.
GENERATOR_MARGIN_M = 10_000.0


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 coordinate in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class PlanarPoint:
    """Meters east (x) / north (y) of the region reference origin."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("planar coordinates must be finite")
        if abs(self.x) >= 1e7 or abs(self.y) >= 1e7:
            raise ValueError(f"planar point ({self.x}, {self.y}) outside regional sanity bound")


def station_xy(stations: Sequence[PlanarPoint] | np.ndarray) -> np.ndarray:
    """Planar points as an (N, 2) float array; arrays pass through reshaped."""
    if isinstance(stations, np.ndarray):
        return np.asarray(stations, dtype=float).reshape(-1, 2)
    return np.array([(p.x, p.y) for p in stations], dtype=float).reshape(-1, 2)


def project(p: GeoPoint, origin: GeoPoint) -> PlanarPoint:
    """Equirectangular projection of ``p`` into the planar frame anchored at ``origin``."""
    y = EARTH_RADIUS_M * (p.lat - origin.lat) * _DEG
    x = EARTH_RADIUS_M * (p.lon - origin.lon) * math.cos(origin.lat * _DEG) * _DEG
    return PlanarPoint(x, y)


def unproject(p: PlanarPoint, origin: GeoPoint) -> GeoPoint:
    """Inverse of :func:`project`; round-trips within 1e-9 degrees."""
    lat = origin.lat + p.y / (EARTH_RADIUS_M * _DEG)
    lon = origin.lon + p.x / (EARTH_RADIUS_M * math.cos(origin.lat * _DEG) * _DEG)
    return GeoPoint(lat, lon)


Ring = tuple[PlanarPoint, ...]


@dataclass(frozen=True)
class PlanarPolygon:
    """One outer ring plus optional hole rings, all in planar meters."""

    outer: Ring
    holes: tuple[Ring, ...] = ()


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
            raise ValueError(f"district {self.district_id!r}: density must be >= 0")
        for poly in self.polygons:
            for ring in (poly.outer, *poly.holes):
                if len(ring) < 3:
                    raise InvalidPolygon(
                        f"district {self.district_id!r}: ring with {len(ring)} vertices"
                    )
        if self.area_km2 <= 0:
            raise InvalidPolygon(f"district {self.district_id!r}: zero enclosed area")

    @cached_property
    def area_km2(self) -> float:
        """Shoelace area of all parts, holes subtracted, in km^2."""
        total = 0.0
        for poly in self.polygons:
            total += abs(shoelace_area(poly.outer))
            total -= sum(abs(shoelace_area(h)) for h in poly.holes)
        return total / 1e6

    @cached_property
    def ring_arrays(self) -> tuple[np.ndarray, ...]:
        """Every ring (outers and holes) as an (N, 2) float array, for even-odd tests."""
        rings = []
        for poly in self.polygons:
            for ring in (poly.outer, *poly.holes):
                rings.append(np.array([(p.x, p.y) for p in ring], dtype=float))
        return tuple(rings)

    @cached_property
    def edges(self) -> np.ndarray:
        """Every ring edge, closing edges included, as (E, 4) rows x1, y1, x2, y2."""
        return np.concatenate([np.hstack([ring, np.roll(ring, -1, axis=0)]) for ring in self.ring_arrays])

    @cached_property
    def crossing_edges(self) -> np.ndarray:
        """The non-horizontal rows of ``edges``: the only ones a horizontal ray can cross."""
        return self.edges[self.edges[:, 1] != self.edges[:, 3]]

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        arrays = self.ring_arrays
        xs = np.concatenate([a[:, 0] for a in arrays])
        ys = np.concatenate([a[:, 1] for a in arrays])
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


@dataclass(frozen=True)
class GeneratorPoint:
    """A point demand source (mall, airport, ...) with a daily-visitor count."""

    name: str
    daily_visitors: float
    geo: GeoPoint
    planar: PlanarPoint

    def __post_init__(self):
        if self.daily_visitors < 0:
            raise ValueError(f"generator {self.name!r}: daily visitors must be >= 0")


@dataclass(frozen=True)
class Region:
    """Loaded districts plus the planar frame they were projected into."""

    districts: tuple[District, ...]
    origin: GeoPoint
    bounds: tuple[float, float, float, float]  # planar (xmin, ymin, xmax, ymax)


@dataclass(frozen=True, eq=False)
class DemandGrid:
    """Raster of populated cells; the quadrature nodes for coverage integrals."""

    cell_size: float
    x: np.ndarray  # cell centroid x, meters
    y: np.ndarray  # cell centroid y, meters
    population: np.ndarray  # persons per cell

    def __post_init__(self):
        if len(self.x) == 0:
            raise EmptyGrid("demand grid has no populated cells")
        if np.any(self.population < 0):
            raise ValueError("cell populations must be >= 0")

    @property
    def total_population(self) -> float:
        return float(self.population.sum())

    def __len__(self) -> int:
        return len(self.population)


# ---------------------------------------------------------------------------
# planar geometry helpers
# ---------------------------------------------------------------------------


def shoelace_area(ring: Sequence[PlanarPoint]) -> float:
    """Signed shoelace area of a ring in m^2 (positive for counterclockwise)."""
    arr = np.array([(p.x, p.y) for p in ring], dtype=float)
    x, y = arr[:, 0], arr[:, 1]
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


def point_in_district(p: PlanarPoint, district: District) -> bool:
    """Even-odd test of one point; a point outside the district's bounds is outside.

    No edge straddles a horizontal line above or below the bounds. Left or
    right of them, a rounded crossing can pass the bounds by a few ulps only,
    so the x bounds are widened by a relative 1e-9 and the answer always
    equals the full ray cast.
    """
    x0, y0, x1, y1 = district.bounds
    pad = 1e-9 * max(abs(x0), abs(x1))
    if not (y0 <= p.y <= y1 and x0 - pad <= p.x <= x1 + pad):
        return False
    return bool(points_in_rings(np.array([p.x]), np.array([p.y]), district.crossing_edges)[0])


def point_in_any_district(p: PlanarPoint, districts: Sequence[District]) -> bool:
    return any(point_in_district(p, d) for d in districts)


def nearest_boundary_point(p: PlanarPoint, districts: Sequence[District]) -> tuple[PlanarPoint, float]:
    """Closest point on any district ring to ``p`` and its distance in meters."""
    best, best_d2 = None, math.inf
    xy = np.array([p.x, p.y])
    for d in districts:
        a, b = d.edges[:, 0:2], d.edges[:, 2:4]
        ab = b - a
        ap = xy - a
        seg_len2 = np.einsum("ij,ij->i", ab, ab)
        t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(seg_len2 == 0, 1.0, seg_len2), 0.0, 1.0)
        closest = a + t[:, None] * ab
        diff = closest - xy
        d2 = np.einsum("ij,ij->i", diff, diff)
        k = int(np.argmin(d2))
        if d2[k] < best_d2:
            best_d2 = float(d2[k])
            best = PlanarPoint(float(closest[k, 0]), float(closest[k, 1]))
    assert best is not None, "districts must carry at least one ring"
    return best, math.sqrt(best_d2)


def point_in_region(p: PlanarPoint, districts: Sequence[District], tol: float = SNAP_TOLERANCE_M) -> bool:
    """Inside some district, or within ``tol`` meters of a district boundary."""
    if point_in_any_district(p, districts):
        return True
    _, dist = nearest_boundary_point(p, districts)
    return dist <= tol


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def _geo_rings_of_feature(geometry: dict, path: Path, idx: int) -> list[list[list[tuple[float, float]]]]:
    """Normalize a Polygon/MultiPolygon geometry to a list of polygons.

    Each polygon is a list of rings; each ring a list of (lon, lat) pairs.
    """
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polys = [coords]
    elif gtype == "MultiPolygon":
        polys = coords
    else:
        raise ParseError(f"{path}: feature {idx}: unsupported geometry type {gtype!r}")
    out = []
    for poly in polys:
        rings = []
        for ring in poly:
            rings.append([(float(lon), float(lat)) for lon, lat in ring])
        out.append(rings)
    return out


def _dedup_closing_vertex(ring: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if len(ring) > 1 and ring[0] == ring[-1]:
        return ring[:-1]
    return ring


def load_densities(path: Path) -> dict[str, float]:
    """Read the ``district_id,density_per_km2`` table."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != [
                "district_id",
                "density_per_km2",
            ]:
                raise ParseError(f"{path}: expected header district_id,density_per_km2")
            out = {}
            for i, row in enumerate(reader, start=2):
                try:
                    district_id, density = row["district_id"].strip(), float(row["density_per_km2"])
                except (TypeError, ValueError, AttributeError) as exc:
                    raise ParseError(f"{path}: row {i}: {exc}") from exc
                if not math.isfinite(density):
                    raise ParseError(f"{path}: row {i}: density must be finite, got {density!r}")
                out[district_id] = density
            return out
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_region(boundaries_file: Path, densities_file: Path) -> Region:
    """Load GeoJSON district boundaries, match densities, project to the planar frame.

    The projection origin is the center of the geographic bounding box over
    all features.
    """
    boundaries_file = Path(boundaries_file)
    densities = load_densities(Path(densities_file))
    try:
        with boundaries_file.open() as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{boundaries_file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{boundaries_file}: invalid JSON: {exc}") from exc

    if doc.get("type") != "FeatureCollection" or not isinstance(doc.get("features"), list):
        raise ParseError(f"{boundaries_file}: expected a GeoJSON FeatureCollection")
    features = doc["features"]
    if not features:
        raise ParseError(f"{boundaries_file}: FeatureCollection has no features")

    raw = []  # (district_id, polygons as lon/lat rings)
    for idx, feat in enumerate(features):
        props = feat.get("properties") or {}
        district_id = props.get("district_id")
        if not isinstance(district_id, str):
            raise ParseError(f"{boundaries_file}: feature {idx}: missing string property 'district_id'")
        geom = feat.get("geometry") or {}
        raw.append((district_id, _geo_rings_of_feature(geom, boundaries_file, idx)))

    all_lons = [pt[0] for _, polys in raw for rings in polys for ring in rings for pt in ring]
    all_lats = [pt[1] for _, polys in raw for rings in polys for ring in rings for pt in ring]
    if not all_lons:
        raise ParseError(f"{boundaries_file}: no coordinates found")
    origin = GeoPoint((min(all_lats) + max(all_lats)) / 2.0, (min(all_lons) + max(all_lons)) / 2.0)

    districts = []
    for district_id, polys in raw:
        if district_id not in densities:
            raise MissingDensity(district_id)
        planar_polys = []
        for rings in polys:
            projected = []
            for ring in rings:  # District rejects a ring of fewer than 3 vertices
                ring = _dedup_closing_vertex(ring)
                projected.append(tuple(project(GeoPoint(lat, lon), origin) for lon, lat in ring))
            planar_polys.append(PlanarPolygon(outer=projected[0], holes=tuple(projected[1:])))
        districts.append(District(district_id, tuple(planar_polys), densities[district_id]))

    xmin = min(d.bounds[0] for d in districts)
    ymin = min(d.bounds[1] for d in districts)
    xmax = max(d.bounds[2] for d in districts)
    ymax = max(d.bounds[3] for d in districts)
    return Region(tuple(districts), origin, (xmin, ymin, xmax, ymax))


GENERATOR_HEADER = ["name", "daily_visitors", "latitude", "longitude"]


def load_generators(path: Path, region: Region) -> tuple[GeneratorPoint, ...]:
    """Read the generator table and project each point into the region frame.

    Rows landing farther than 10 km outside the region bounding box are
    rejected as gross coordinate errors.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != GENERATOR_HEADER:
                raise ParseError(f"{path}: expected header {','.join(GENERATOR_HEADER)}")
            out = []
            xmin, ymin, xmax, ymax = region.bounds
            for i, row in enumerate(reader, start=2):
                try:
                    name = row["name"].strip()
                    visitors = float(row["daily_visitors"])
                    geo = GeoPoint(float(row["latitude"]), float(row["longitude"]))
                except (TypeError, ValueError, AttributeError) as exc:
                    raise ParseError(f"{path}: row {i}: {exc}") from exc
                if not math.isfinite(visitors):
                    raise ParseError(f"{path}: row {i}: daily visitors must be finite, got {visitors!r}")
                if visitors < 0:
                    raise NegativeVisitors(i, visitors)
                planar = project(geo, region.origin)
                m = GENERATOR_MARGIN_M
                if not (xmin - m <= planar.x <= xmax + m and ymin - m <= planar.y <= ymax + m):
                    raise ParseError(
                        f"{path}: row {i}: generator {name!r} lies more than 10 km outside the region"
                    )
                out.append(GeneratorPoint(name, visitors, geo, planar))
            return tuple(out)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------


def check_cell_size(cell_size: float) -> None:
    """Raise ValueError unless ``cell_size`` is a usable raster cell edge in meters."""
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be finite and > 0, got {cell_size}")


def rasterize(districts: Sequence[District], cell_size: float) -> DemandGrid:
    """Sample districts onto an axis-aligned grid over their union bounding box.

    A cell belongs to a district when its centroid passes the even-odd test;
    its population is density * cell area. Zero-population cells are dropped.
    """
    check_cell_size(cell_size)
    if not districts:
        raise ValueError("need at least one district")

    xmin = min(d.bounds[0] for d in districts)
    ymin = min(d.bounds[1] for d in districts)
    xmax = max(d.bounds[2] for d in districts)
    ymax = max(d.bounds[3] for d in districts)

    nx = max(1, math.ceil((xmax - xmin) / cell_size))
    ny = max(1, math.ceil((ymax - ymin) / cell_size))
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
    if not keep.any():
        raise EmptyGrid(f"no populated cell at cell_size={cell_size}")
    return DemandGrid(cell_size, gx[keep], gy[keep], pop[keep])
