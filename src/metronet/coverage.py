"""Gaussian demand coverage: the station-placement fitness and per-station loads."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geomodel import DemandGrid, GeneratorPoint, PointRows, group_rows

SIGMA_SOFT_MIN = 400.0
SIGMA_SOFT_MAX = 3000.0
SIGMA_HARD_MAX = 1e5


@dataclass(frozen=True)
class CoverageParams:
    """Coverage knobs.

    sigma is the Gaussian scale (meters) of acceptable access distance. mode
    'sum' credits every station for every cell/generator (overlaps counted
    twice); 'nearest' credits only the closest station.
    """

    sigma: float = 800.0
    mode: str = "sum"

    def __post_init__(self):
        if not (0.0 < self.sigma < SIGMA_HARD_MAX):
            raise ValueError(f"sigma must lie in (0, {SIGMA_HARD_MAX:g}) meters, got {self.sigma}")
        if self.sigma < SIGMA_SOFT_MIN or self.sigma > SIGMA_SOFT_MAX:
            warnings.warn(
                f"sigma={self.sigma} m is outside the usual access range "
                f"[{SIGMA_SOFT_MIN:g}, {SIGMA_SOFT_MAX:g}] m",
                stacklevel=2,
            )
        if self.mode not in ("sum", "nearest"):
            raise ValueError(f"mode must be 'sum' or 'nearest', got {self.mode!r}")


# Cells per block of the nearest-mode kernel: temporaries stay K x _NEAREST_CHUNK.
_NEAREST_CHUNK = 2048


def _sum_shares(sxy: np.ndarray, rows: PointRows, sigma2: float) -> np.ndarray:
    """Per-station sums of weight * exp(-r^2 / sigma^2) over the grouped points.

    The kernel factors as exp(-dx^2 / sigma^2) * exp(-dy^2 / sigma^2), so a
    station takes one exp per distinct x and one per distinct y, sums each
    row's weighted x factors, and weights the row sums by the y factors.
    Each share depends only on its own station's coordinate; temporaries are
    O(points). Numpy reductions, not BLAS, keep the summation order fixed
    whatever the BLAS thread count.
    """
    shares = np.empty(len(sxy))
    # One points-sized buffer per call: a fresh one per station was a third
    # of the time on the Selangor grid. Every column index is in range, and
    # mode="clip" lets take() write into it without a checked copy.
    weighted = np.empty(len(rows.col))
    for k, (sx, sy) in enumerate(sxy):
        dx = rows.xs - sx
        dy = rows.ys - sy
        ex = np.exp(-(dx * dx) / sigma2)
        ey = np.exp(-(dy * dy) / sigma2)
        ex.take(rows.col, out=weighted, mode="clip")
        weighted *= rows.weight
        shares[k] = (np.add.reduceat(weighted, rows.starts) * ey).sum()
    return shares


def _nearest_shares(sxy: np.ndarray, px: np.ndarray, py: np.ndarray,
                    weight: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-station sums of weight * exp(-r^2 / sigma^2) over the points each station is closest to.

    Blocks of points are added in order, so every station accumulates its
    points in the same sequence as one unblocked pass would.
    """
    shares = np.zeros(len(sxy))
    for start in range(0, len(px), _NEAREST_CHUNK):
        bx, by = px[start:start + _NEAREST_CHUNK], py[start:start + _NEAREST_CHUNK]
        # dx * dx + dy * dy, updated in place to hold two K x chunk arrays at most
        r2 = sxy[:, 0:1] - bx[None, :]
        r2 *= r2
        dy2 = sxy[:, 1:2] - by[None, :]
        dy2 *= dy2
        r2 += dy2
        owner = np.argmin(r2, axis=0)
        nearest_r2 = r2[owner, np.arange(len(bx))]
        np.add.at(shares, owner, weight[start:start + _NEAREST_CHUNK] * np.exp(-nearest_r2 / sigma2))
    return shares


def district_coverage(stations: np.ndarray, grid: DemandGrid, params: CoverageParams) -> np.ndarray:
    """Population coverage share per station of an (N, 2) array, integrated over the demand grid."""
    if len(stations) == 0:
        return np.zeros(0)
    if params.mode == "nearest":
        return _nearest_shares(stations, grid.x, grid.y, grid.population, params.sigma**2)
    return _sum_shares(stations, grid.rows, params.sigma**2)


def generator_coverage(stations: np.ndarray, generators: Sequence[GeneratorPoint],
                       params: CoverageParams) -> np.ndarray:
    """Daily-visitor coverage share per station of an (N, 2) array, summed over all generators."""
    if len(stations) == 0 or len(generators) == 0:
        return np.zeros(len(stations))
    gx = np.array([g.x for g in generators])
    gy = np.array([g.y for g in generators])
    gw = np.array([g.daily_visitors for g in generators], dtype=float)
    if params.mode == "nearest":
        return _nearest_shares(stations, gx, gy, gw, params.sigma**2)
    return _sum_shares(stations, group_rows(gx, gy, gw), params.sigma**2)


def evaluate(stations: np.ndarray, grid: DemandGrid,
             generators: Sequence[GeneratorPoint], params: CoverageParams) -> np.ndarray:
    """Serviced-population count s_i per station of an (N, 2) array: district plus generator share.

    The stage-1 fitness, the total covered demand, is the sum of all s_i.
    """
    return district_coverage(stations, grid, params) + generator_coverage(stations, generators, params)
