"""Gaussian demand coverage: the station-placement fitness and per-station loads.

Sum mode works on the row runs of ``DemandPoints.runs`` in blocks of
stations: one exp per distinct x and y, one reduceat over the runs' columns
and one over each row's runs, with each block's temporaries capped at
``_SUM_BLOCK`` float entries. Nearest mode works on the points themselves
in chunks of ``_NEAREST_CHUNK``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MetronetError
from .geomodel import DemandPoints, PointRuns

SIGMA_SOFT_MIN = 400.0
SIGMA_SOFT_MAX = 3000.0
SIGMA_HARD_MIN = 1.0
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
        if not (SIGMA_HARD_MIN <= self.sigma < SIGMA_HARD_MAX):
            raise MetronetError(f"sigma must lie in [{SIGMA_HARD_MIN:g}, {SIGMA_HARD_MAX:g}) meters, got {self.sigma}")
        if self.sigma < SIGMA_SOFT_MIN or self.sigma > SIGMA_SOFT_MAX:
            warnings.warn(
                f"sigma={self.sigma} m is outside the usual access range "
                f"[{SIGMA_SOFT_MIN:g}, {SIGMA_SOFT_MAX:g}] m",
                stacklevel=3,  # the caller of the generated __init__
            )
        if self.mode not in ("sum", "nearest"):
            raise MetronetError(f"mode must be 'sum' or 'nearest', got {self.mode!r}")


# Cells per block of the nearest-mode kernel: temporaries stay K x _NEAREST_CHUNK.
_NEAREST_CHUNK = 2048

# Float entries of one block of the sum-mode kernel. A block takes as many
# stations as fit, each needing one entry per column plus a pad, three per
# run and two per row, so its temporaries together stay within 1 MB; a
# station that needs more than this is a block of its own.
_SUM_BLOCK = 1 << 17


def _sum_shares(sxy: np.ndarray, runs: PointRuns, sigma2: float) -> np.ndarray:
    """Per-station sums of weight * exp(-r^2 / sigma^2) over the points grouped into row runs.

    The kernel factors as exp(-dx^2 / sigma^2) * exp(-dy^2 / sigma^2), so a
    block of stations takes one exp per distinct x and per distinct y, sums
    the x factors over each run's columns, weights each run sum by the run's
    weight, sums each row's runs, and weights the row sums by the y factors.
    Every step works along a station's own row of the block, so a share does
    not depend on which other stations share its block. Numpy reductions,
    not BLAS, keep the summation order fixed whatever the BLAS thread count.
    """
    shares = np.empty(len(sxy))
    nx = len(runs.xs)
    # Interleaved starts and ends: the even outputs of reduceat are the runs,
    # the odd ones the stretches between them. Taken in order of their first
    # column, the stretches are disjoint, so they cost O(columns) in all.
    by_start = np.argsort(runs.bounds[:, 0], kind="stable")
    bounds = runs.bounds[by_start].ravel()
    step = max(1, _SUM_BLOCK // (nx + 1 + 3 * len(by_start) + 2 * len(runs.ys)))
    for k0 in range(0, len(sxy), step):
        block = sxy[k0:k0 + step]
        # the x factors with a zero pad column, so a run may end at the last column
        ex = np.empty((len(block), nx + 1))
        ex[:, nx] = 0.0
        e = ex[:, :nx]
        np.subtract(runs.xs, block[:, 0:1], out=e)
        e *= e
        e /= -sigma2
        np.exp(e, out=e)
        run_sums = np.empty((len(block), len(by_start)))
        run_sums[:, by_start] = np.add.reduceat(ex, bounds, axis=1)[:, ::2]
        del ex, e
        run_sums *= runs.weight
        row_sums = np.add.reduceat(run_sums, runs.row_starts, axis=1)
        del run_sums
        ey = runs.ys - block[:, 1:2]
        ey *= ey
        ey /= -sigma2
        row_sums *= np.exp(ey, out=ey)
        shares[k0:k0 + step] = row_sums.sum(axis=1)
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


def shares(stations: np.ndarray, points: DemandPoints, params: CoverageParams) -> np.ndarray:
    """Coverage share per station of an (N, 2) array, summed over the weighted demand points."""
    if len(stations) == 0 or len(points) == 0:
        return np.zeros(len(stations))
    if params.mode == "nearest":
        return _nearest_shares(stations, points.x, points.y, points.population, params.sigma**2)
    return _sum_shares(stations, points.runs, params.sigma**2)


def evaluate(stations: np.ndarray, grid: DemandPoints, generators: DemandPoints, params: CoverageParams) -> np.ndarray:
    """Serviced-population count s_i per station of an (N, 2) array: district plus generator share.

    The stage-1 fitness, the total covered demand, is the sum of all s_i.
    """
    return shares(stations, grid, params) + shares(stations, generators, params)
