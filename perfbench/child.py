"""One benchmark sample, run in a fresh interpreter so its peak RSS is its own.

Usage: child.py JOB_JSON T_SPAWN

``T_SPAWN`` is the parent's ``time.perf_counter()`` just before it started
this process (the same monotonic clock on Linux), so set-up time can be
measured from process start. The child writes a result JSON holding the
moment its inputs were ready, the fitness lines the program printed, and,
when tracing, a span file. Its exit code is the program's.
"""
from __future__ import annotations

import io
import json
import math
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter


def _mark_ready(fn, ready: list[float]):
    """``fn`` noting when it returned: set-up ends when the last loader returns."""

    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        ready.append(perf_counter())
        return result

    return marked


def _run_cli(job: dict, ready: list[float]) -> tuple[int, dict[str, str]]:
    from metronet import cli

    for name in ("load_region", "rasterize", "load_generators"):
        setattr(cli, name, _mark_ready(getattr(cli, name), ready))
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = cli.main(job["argv"] + ["--out", job["out"]])
    fitness = {}
    for line in printed.getvalue().splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("stage1_best_fitness", "stage2_best_fitness"):
            fitness[key] = value.strip()
    return code, fitness


def _run_tiny_lines(job: dict, ready: list[float]) -> tuple[int, dict[str, str]]:
    from metronet import artifacts, lines
    from metronet.evolve import GaConfig
    from metronet.geomodel import GeoPoint

    from workloads import ORIGIN_LAT, ORIGIN_LON

    stations, serviced = artifacts.read_stations_geojson(Path(job["stations"]))
    ready.append(perf_counter())
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    origin = GeoPoint(ORIGIN_LAT, ORIGIN_LON)
    values = []
    for k, seed in enumerate(job["ga_seeds"]):
        ga = GaConfig(population_size=job["population_size"], generations=job["generations"], rng_seed=seed)
        config = lines.LineStageConfig(line_count=job["line_count"], ga=ga)
        best, history = lines.optimize_lines(stations, serviced, config)
        values.append(lines.line_fitness(best, stations, serviced).value)
        artifacts.write_lines_geojson(out / f"lines_{k}.geojson", best, stations, origin)
        history.write_csv(out / f"history_stage2_{k}.csv")
    return 0, {"stage2_best_fitness": repr(math.fsum(values) / len(values))}


def main(job_file: str, t_spawn: str) -> int:
    job = json.loads(Path(job_file).read_text())
    ready: list[float] = []
    recorder = None
    if job["trace"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    run = _run_cli if job["kind"] == "cli" else _run_tiny_lines
    try:
        code, fitness = run(job, ready)
    except Exception:
        traceback.print_exc()
        code, fitness = 3, {}
    if recorder is not None:
        recorder.save(job["spans"])
    result = {
        "setup_s": ready[-1] - float(t_spawn) if ready else None,
        "fitness": fitness,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
