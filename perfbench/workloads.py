"""Seeded workload inputs for the metronet benchmark.

Every input is derived from the workload seed with ``random.Random`` seeded by
a string, so one seed gives the same files on any machine and Python version.
The program only ever sees the files written here, the config, and a GA seed
derived from the workload seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

# Equirectangular frame used to write generated GeoJSON; metronet re-derives
# its own origin from the bounding box, so only the shapes matter.
EARTH_RADIUS_M = 6_371_000.0
ORIGIN_LAT, ORIGIN_LON = 3.0, 101.5

# GA sizes are chosen so one sample takes 1-3 s on a 2-core Xeon: long enough
# that interpreter start-up is a small share, short enough that a 25 s run
# holds about ten samples.
SELANGOR_GA = {"population_size": 10, "stage1_generations": 3, "stage2_generations": 2}
WIGGLY_GA = {"population_size": 4, "generations": 1}
WIGGLY_DISTRICTS = (4, 2)  # columns x rows
WIGGLY_VERTICES = 500
WIGGLY_PITCH_M = 5000.0
LINES150_STATIONS = 150
LINES150_GA = {"population_size": 20, "generations": 6}
TINY_STATIONS = 5
TINY_GA = {"population_size": 40, "generations": 200, "line_count": 1}
TINY_GA_SEEDS = 4


# Why each workload exists: the layer it stresses.
WHY = {
    "selangor": "metronet run on the Selangor fixture (61 stations, ~33.5k cells, sum mode); "
                "stage-1 coverage does most of the work",
    "wiggly": "metronet run with 6 stations on 8 seeded districts of 500 vertices, demand in the last one, "
              "100 m cells, nearest mode; point-in-region containment does most of the work",
    "lines150": "metronet optimize-lines with 150 seeded stations on Selangor; "
                "all-pairs shortest paths do most of the work",
    "tiny_lines": "optimize_lines on a 5-station 1-line instance over 4 GA seeds; "
                  "GA breeding, repair and the fitness cache do most of the work",
}


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def ga_seed(workload: str, seed: int, index: int = 0) -> int:
    """GA seed handed to the program, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:ga:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _lonlat(x: float, y: float) -> list[float]:
    deg = math.pi / 180.0
    lat = ORIGIN_LAT + y / (EARTH_RADIUS_M * deg)
    lon = ORIGIN_LON + x / (EARTH_RADIUS_M * math.cos(ORIGIN_LAT * deg) * deg)
    return [lon, lat]


def _write_config(path: Path, entries: dict[str, object]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


def _write_stations(path: Path, xy: list[tuple[float, float]], serviced: list[float]) -> Path:
    """A stations.geojson in the layout metronet's own writer uses."""
    features = [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": _lonlat(x, y)},
            "properties": {"station_id": i, "serviced_population": s, "x": x, "y": y},
        }
        for i, ((x, y), s) in enumerate(zip(xy, serviced))
    ]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}) + "\n")
    return path


def _selangor_files(workdir: Path) -> dict[str, Path]:
    """Copies of the Selangor fixture, so later edits to test data cannot move the benchmark."""
    files = {}
    for key, name in (
        ("boundaries", "selangor_boundary.geojson"),
        ("densities", "selangor_densities.csv"),
        ("generators", "selangor_generators.csv"),
    ):
        files[key] = Path(shutil.copyfile(DATA_DIR / name, workdir / name))
    return files


def _selangor_planar_bounds() -> tuple[float, float, float, float]:
    """Planar extent of the Selangor boundary in a frame centred on its bounding box."""
    doc = json.loads((DATA_DIR / "selangor_boundary.geojson").read_text())
    ring = doc["features"][0]["geometry"]["coordinates"][0]
    lons = [p[0] for p in ring]
    lats = [p[1] for p in ring]
    deg = math.pi / 180.0
    lat0 = (min(lats) + max(lats)) / 2.0
    half_w = EARTH_RADIUS_M * (max(lons) - min(lons)) / 2.0 * math.cos(lat0 * deg) * deg
    half_h = EARTH_RADIUS_M * (max(lats) - min(lats)) / 2.0 * deg
    return -half_w, -half_h, half_w, half_h


def _wiggly_ring(rng: random.Random, cx: float, cy: float) -> list[list[float]]:
    """A star-shaped ring of WIGGLY_VERTICES vertices inside one grid cell.

    The radius is a base plus a few random harmonics; its maximum stays below
    half the pitch, so neighbouring districts never overlap.
    """
    base = 0.33 * WIGGLY_PITCH_M
    harmonics = [(k, rng.uniform(0.02, 0.06), rng.uniform(0.0, 2 * math.pi)) for k in (3, 5, 9, 17, 41)]
    ring = []
    for i in range(WIGGLY_VERTICES):
        t = 2 * math.pi * i / WIGGLY_VERTICES
        r = base * (1.0 + sum(a * math.sin(k * t + phase) for k, a, phase in harmonics))
        ring.append(_lonlat(cx + r * math.cos(t), cy + r * math.sin(t)))
    ring.append(ring[0])
    return ring


def prepare(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under ``workdir``; return the job template for a sample."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "selangor":
        cfg = _write_config(workdir / "run.cfg", {**_selangor_files(workdir), **SELANGOR_GA})
        return {"kind": "cli", "argv": ["run", "--config", str(cfg), "--seed", str(ga_seed(name, seed))]}

    if name == "wiggly":
        rng = _rng(name, seed, "region")
        cols, rows = WIGGLY_DISTRICTS
        features, densities = [], ["district_id,density_per_km2"]
        for j in range(rows):
            for i in range(cols):
                cx = (i - (cols - 1) / 2.0) * WIGGLY_PITCH_M
                cy = (j - (rows - 1) / 2.0) * WIGGLY_PITCH_M
                district_id = f"d{j}{i}"
                features.append(
                    {
                        "type": "Feature",
                        "properties": {"district_id": district_id},
                        "geometry": {"type": "Polygon", "coordinates": [_wiggly_ring(rng, cx, cy)]},
                    }
                )
                densities.append(f"{district_id},0")
        # Only the last-listed district is populated, so every station the GA
        # proposes sits where point_in_region scans all 8 rings before it
        # succeeds: the work per containment check does not depend on the seed.
        densities[-1] = f"{district_id},{rng.uniform(1900.0, 2100.0)!r}"
        boundaries = workdir / "wiggly.geojson"
        boundaries.write_text(json.dumps({"type": "FeatureCollection", "features": features}) + "\n")
        density_file = workdir / "wiggly_densities.csv"
        density_file.write_text("\n".join(densities) + "\n")
        cfg = _write_config(
            workdir / "run.cfg",
            {
                "boundaries": boundaries,
                "densities": density_file,
                # small cells keep jittered initial stations inside, so the
                # number of containment checks barely depends on the seed
                "cell_size": 100,
                "coverage_mode": "nearest",
                "station_count": 6,
                "line_count": 2,
                **WIGGLY_GA,
            },
        )
        return {"kind": "cli", "argv": ["run", "--config", str(cfg), "--seed", str(ga_seed(name, seed))]}

    if name == "lines150":
        rng = _rng(name, seed, "stations")
        xmin, ymin, xmax, ymax = _selangor_planar_bounds()
        xy = [(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)) for _ in range(LINES150_STATIONS)]
        stations = _write_stations(workdir / "stations150.geojson", xy, [0.0] * len(xy))
        cfg = _write_config(workdir / "run.cfg", {**_selangor_files(workdir), **LINES150_GA})
        return {
            "kind": "cli",
            "argv": ["optimize-lines", "--config", str(cfg), "--stations", str(stations),
                     "--seed", str(ga_seed(name, seed))],
            "stations": str(stations),
        }

    if name == "tiny_lines":
        # the criterion-4 instance shape: 5 stations in a 10 km square, 100..2000 persons each
        rng = _rng(name, seed, "instance")
        xy = [(rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)) for _ in range(TINY_STATIONS)]
        serviced = [rng.uniform(100.0, 2000.0) for _ in range(TINY_STATIONS)]
        stations = _write_stations(workdir / "tiny_stations.geojson", xy, serviced)
        return {
            "kind": "tiny_lines",
            "stations": str(stations),
            "ga_seeds": [ga_seed(name, seed, i) for i in range(TINY_GA_SEEDS)],
            **TINY_GA,
        }

    raise KeyError(name)
