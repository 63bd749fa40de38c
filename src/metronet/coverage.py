"""Gaussian demand coverage: the station-placement fitness and per-station loads."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geomodel import DemandGrid, GeneratorPoint, PlanarPoint, station_xy

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


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Total covered demand and its per-station breakdown.

    per_station[i] is the serviced-population count s_i = district share +
    generator share; total is the sum of all s_i.
    """

    total: float
    per_station: np.ndarray
    district: np.ndarray
    generator: np.ndarray


def _gaussian_shares(sxy: np.ndarray, px: np.ndarray, py: np.ndarray,
                     weight: np.ndarray, params: CoverageParams) -> np.ndarray:
    """Per-station sums of weight * exp(-r^2 / sigma^2) over the given points."""
    dx = sxy[:, 0:1] - px[None, :]
    dy = sxy[:, 1:2] - py[None, :]
    kernel = np.exp(-(dx * dx + dy * dy) / (params.sigma**2))
    if params.mode == "nearest":
        # Only the closest station earns each point's contribution.
        owner = np.argmin(dx * dx + dy * dy, axis=0)
        shares = np.zeros(len(sxy))
        np.add.at(shares, owner, weight * kernel[owner, np.arange(kernel.shape[1])])
        return shares
    return kernel @ weight


def district_coverage(stations: Sequence[PlanarPoint], grid: DemandGrid,
                      params: CoverageParams) -> np.ndarray:
    """Population coverage share per station, integrated over the demand grid."""
    sxy = station_xy(stations)
    if len(sxy) == 0:
        return np.zeros(0)
    return _gaussian_shares(sxy, grid.x, grid.y, grid.population, params)


def generator_coverage(stations: Sequence[PlanarPoint],
                       generators: Sequence[GeneratorPoint],
                       params: CoverageParams) -> np.ndarray:
    """Daily-visitor coverage share per station, summed over all generators."""
    sxy = station_xy(stations)
    if len(sxy) == 0 or len(generators) == 0:
        return np.zeros(len(sxy))
    gx = np.array([g.planar.x for g in generators])
    gy = np.array([g.planar.y for g in generators])
    gw = np.array([g.daily_visitors for g in generators], dtype=float)
    return _gaussian_shares(sxy, gx, gy, gw, params)


def evaluate(stations: Sequence[PlanarPoint], grid: DemandGrid,
             generators: Sequence[GeneratorPoint], params: CoverageParams) -> CoverageReport:
    """Full coverage fitness: district term plus generator term, and s_i per station."""
    sxy = station_xy(stations)
    if len(sxy) == 0:
        empty = np.zeros(0)
        return CoverageReport(0.0, empty, empty, empty)
    district = district_coverage(sxy, grid, params)
    generator = generator_coverage(sxy, generators, params)
    per_station = district + generator
    return CoverageReport(float(per_station.sum()), per_station, district, generator)
