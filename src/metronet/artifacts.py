"""On-disk artifact formats: station/line GeoJSON, grid CSV, run manifest.

GeoJSON geometries carry WGS84 coordinates for mapping tools; the exact
planar coordinates ride along as feature properties so artifacts round-trip
bit-for-bit through JSON float repr.
"""
from __future__ import annotations

import csv
import json
import platform
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import ParseError
from .geomodel import PLANAR_BOUND_M, DemandGrid, GeoPoint, json_number, read_feature_collection, unproject
from .lines import Layout


def _dump_geojson(path: Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_stations_geojson(path: Path, stations: np.ndarray, serviced: np.ndarray,
                           origin: GeoPoint) -> None:
    lat, lon = (coord.tolist() for coord in unproject(stations[:, 0], stations[:, 1], origin))
    features = []
    for i, (x, y) in enumerate(stations.tolist()):
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [lon[i], lat[i]]},
                "properties": {
                    "station_id": i,
                    "serviced_population": float(serviced[i]),
                    "x": x,
                    "y": y,
                },
            }
        )
    _dump_geojson(path, {"type": "FeatureCollection", "features": features})


def _index(props: dict, key: str, count: int, path: Path, i: int) -> int:
    """A required integer property in [0, count); bools and floats are rejected."""
    value = props.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or not (0 <= value < count):
        raise ParseError(f"{path}: feature {i}: {key} must be an integer in [0, {count}), got {value!r}")
    return value


def read_stations_geojson(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Load station coordinates, a read-only (N, 2) array, and serviced populations back from disk.

    Each x and y must be finite with magnitude below ``PLANAR_BOUND_M``.
    """
    path = Path(path)
    features = read_feature_collection(path)
    stations = np.full((len(features), 2), np.nan)  # a row left NaN has no feature
    serviced = np.zeros(len(features))
    for i, feat in enumerate(features):
        props = feat["properties"]
        idx = _index(props, "station_id", len(features), path, i)
        try:
            xy = json_number(props["x"]), json_number(props["y"])
            if not (abs(xy[0]) < PLANAR_BOUND_M and abs(xy[1]) < PLANAR_BOUND_M):  # a NaN fails too
                raise ValueError(f"x, y must be finite and below {PLANAR_BOUND_M:g} m in magnitude, got {xy}")
            stations[idx] = xy
            serviced[idx] = json_number(props.get("serviced_population", 0.0))
            if not (np.isfinite(serviced[idx]) and serviced[idx] >= 0):
                raise ValueError(f"serviced_population must be finite and >= 0, got {serviced[idx]!r}")
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{path}: feature {i}: malformed station: {exc}") from exc
    if np.isnan(stations).any():
        raise ParseError(f"{path}: station_id values must cover 0..{len(features) - 1}")
    stations.flags.writeable = False
    return stations, serviced


def write_lines_geojson(path: Path, genome: Layout, stations: np.ndarray, origin: GeoPoint) -> None:
    lat, lon = (coord.tolist() for coord in unproject(stations[:, 0], stations[:, 1], origin))
    features = []
    for li, line in enumerate(genome):
        coords = [[lon[s], lat[s]] for s in line]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {"line_id": li, "station_ids": list(line)},
            }
        )
    _dump_geojson(path, {"type": "FeatureCollection", "features": features})


def read_lines_geojson(path: Path) -> Layout:
    """Load a line layout; station ids are checked against the stations by ``validate``."""
    path = Path(path)
    features = read_feature_collection(path)
    lines: list[tuple[int, ...] | None] = [None] * len(features)
    for i, feat in enumerate(features):
        props = feat["properties"]
        idx = _index(props, "line_id", len(features), path, i)
        ids = props.get("station_ids")
        if not isinstance(ids, list) or any(isinstance(s, bool) or not isinstance(s, int) for s in ids):
            raise ParseError(f"{path}: feature {i}: station_ids must be a list of integers")
        lines[idx] = tuple(ids)
    if any(line is None for line in lines):
        raise ParseError(f"{path}: line_id values must cover 0..{len(features) - 1}")
    return tuple(lines)  # type: ignore[arg-type]


def write_grid_csv(path: Path, grid: DemandGrid) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "population"])
        for cx, cy, pop in zip(grid.x, grid.y, grid.population):
            writer.writerow([repr(float(cx)), repr(float(cy)), repr(float(pop))])


def write_manifest(path: Path, entries: Sequence[tuple[str, str]],
                   results: Sequence[tuple[str, str]] = ()) -> None:
    """Write the resolved configuration; the file is itself loadable via --config.

    ``#`` lines record the versions that ran and the results, and the loader skips them.
    """
    out = ["# metronet run manifest (reusable as a --config file)",
           f"# metronet_version = {__version__}",
           f"# python_version = {platform.python_version()}",
           f"# numpy_version = {np.__version__}"]
    out += [f"{key} = {value}" for key, value in entries]
    out += [f"# result_{key} = {value}" for key, value in results]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
