"""Stage-1 seeding, containment and rasterizing as they were before their batched rewrites, kept as references.

``init_population``, ``point_in_region`` and the ``point_in_district`` it
called are copied unchanged but for their names: each jittered station is
drawn with two scalar ``rng.uniform`` calls and tested alone. The tests
require the production routines to return the same genomes, the same
answers and the same generator state, so any change to a random draw or to
which point is kept fails there. ``rasterize_reference`` is the rasterizer
from before the row-by-row scan: it ray-casts every cell centroid of the
whole lattice inside a district's bounds against all of its edges.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from metronet.errors import MetronetError
from metronet.geomodel import (
    MAX_GRID_CELLS,
    SNAP_TOLERANCE_M,
    DemandGrid,
    District,
    check_cell_size,
    nearest_boundary_point,
    points_in_rings,
    union_bounds,
)
from metronet.stations import _MAX_JITTER_TRIES, _frozen


def point_in_district_reference(xy, district: District) -> bool:
    """Even-odd test of one point ``xy``; a point outside the district's bounds is outside.

    No edge straddles a horizontal line above or below the bounds. Left or
    right of them, a rounded crossing can pass the bounds by a few ulps only,
    so the x bounds are widened by a relative 1e-9 and the answer always
    equals the full ray cast.
    """
    x, y = xy
    x0, y0, x1, y1 = district.bounds
    pad = 1e-9 * max(abs(x0), abs(x1))
    if not (y0 <= y <= y1 and x0 - pad <= x <= x1 + pad):
        return False
    return bool(points_in_rings(np.array([x]), np.array([y]), district.crossing_edges)[0])


def point_in_region_reference(xy, districts: Sequence[District], tol: float = SNAP_TOLERANCE_M) -> bool:
    """Point ``xy`` is inside some district, or within ``tol`` meters of a district boundary."""
    if any(point_in_district_reference(xy, d) for d in districts):
        return True
    _, dist = nearest_boundary_point(xy, districts)
    return dist <= tol


def init_population_reference(
    grid: DemandGrid,
    districts: Sequence[District],
    station_count: int,
    population_size: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Seed genomes by population-weighted cell sampling with in-cell jitter."""
    weights = grid.population / grid.total_population
    half = grid.cell_size / 2.0
    population = []
    for _ in range(population_size):
        cells = rng.choice(len(grid), size=station_count, p=weights)
        points = []
        for c in cells:
            cx, cy = float(grid.x[c]), float(grid.y[c])
            point = (cx, cy)  # fallback: the centroid itself is inside
            for _ in range(_MAX_JITTER_TRIES):
                jittered = (cx + rng.uniform(-half, half), cy + rng.uniform(-half, half))
                if point_in_region_reference(jittered, districts):
                    point = jittered
                    break
            points.append(point)
        population.append(_frozen(np.array(points)))
    return population


def rasterize_reference(districts: Sequence[District], cell_size: float) -> DemandGrid:
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
