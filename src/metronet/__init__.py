"""Metro network design from geospatial demand data via a two-stage GA.

Stage 1 places K stations by maximizing Gaussian-weighted population and
attraction coverage; stage 2 evolves L lines over those stations minimizing
demand-weighted pairwise shortest-path cost under connectivity constraints.
"""

from .coverage import CoverageParams
from .evolve import EvolutionHistory, GaConfig
from .geomodel import (
    DemandGrid,
    DemandPoints,
    District,
    GeoPoint,
    PlanarPolygon,
    Region,
    load_generators,
    load_region,
    project,
    rasterize,
    unproject,
)
from .lines import LineFitness, LineStageConfig, optimize_lines
from .netgraph import LineNetwork
from .stations import StationStageConfig, optimize_stations

__version__ = "0.1.0"  # [project] version in pyproject.toml, which a test holds it to

__all__ = [
    "CoverageParams",
    "DemandGrid",
    "DemandPoints",
    "District",
    "EvolutionHistory",
    "GaConfig",
    "GeoPoint",
    "LineFitness",
    "LineNetwork",
    "LineStageConfig",
    "PlanarPolygon",
    "Region",
    "StationStageConfig",
    "load_generators",
    "load_region",
    "optimize_lines",
    "optimize_stations",
    "project",
    "rasterize",
    "unproject",
]
