"""Stage-1 seeding and containment as they were before their batched rewrite, kept as references.

``init_population``, ``point_in_region`` and the ``point_in_district`` it
called are copied unchanged but for their names: each jittered station is
drawn with two scalar ``rng.uniform`` calls and tested alone. The tests
require the production routines to return the same genomes, the same
answers and the same generator state, so any change to a random draw or to
which point is kept fails there.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from metronet.geomodel import (
    SNAP_TOLERANCE_M,
    DemandGrid,
    District,
    nearest_boundary_point,
    points_in_rings,
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
