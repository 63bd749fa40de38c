"""Spans around metronet's public functions, recorded from outside the program.

``install`` replaces module attributes under the names their callers look up
(``stations.point_in_region``, ``lines.repair``, ``coverage.evaluate`` ...)
with wrappers that record one span per call. ``evolve.run`` is wrapped
together with the fitness, crossover, mutation and validator callables it is
handed, so the GA engine's self time is measured at public boundaries only.

Spans live in flat arrays while the program runs and are written once, at
exit, to an ``.npz`` file; ``layer_metrics`` turns such a file into the
benchmark's per-layer metrics.
"""
from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np


class Recorder:
    """Span store: name, parent span, start, end and up to three numeric arguments."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.args = (array("d"), array("d"), array("d"))
        self._stack = [-1]

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` recording a span per call.

        ``measure(args, result)`` may return up to three numbers stored with
        the span; it runs after the span has closed.
        """
        nid = self.names.setdefault(name, len(self.names))

        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.t1.append(0.0)
            for column in self.args:
                column.append(0.0)
            self._stack.append(idx)
            self.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf_counter()
                self._stack.pop()
            if measure is not None:
                for column, value in zip(self.args, measure(args, result)):
                    column[idx] = value
            return result

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(sorted(self.names, key=self.names.get)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
            args=np.array([np.frombuffer(column) for column in self.args]),
        )


def install(rec: Recorder) -> None:
    """Patch metronet's public call sites so every layer boundary records a span."""
    from metronet import artifacts, cli, coverage, evolve, lines, netgraph, stations

    for name in ("load_region", "load_generators"):
        setattr(cli, name, rec.wrap("geomodel.load", getattr(cli, name)))
    cli.rasterize = rec.wrap("geomodel.rasterize", cli.rasterize)
    stations.point_in_region = rec.wrap("geomodel.contain", stations.point_in_region)
    stations.nearest_boundary_point = rec.wrap("geomodel.clamp", stations.nearest_boundary_point)
    stations.init_population = rec.wrap("stations.init", stations.init_population)

    def changed(args, out):
        # repair hooks return their argument unchanged when it is already valid
        return (float(out is not args[0]),)

    seen: set[tuple[float, float]] = set()

    def coverage_work(args, _result):
        station_list, grid, generators = args[0], args[1], args[2]
        coords = [(float(p[0]), float(p[1])) if isinstance(p, np.ndarray) else (p.x, p.y)
                  for p in station_list]
        fresh = len(set(coords) - seen)
        seen.update(coords)
        # kernel entries K * (cells + generators), never-seen station coordinates, K
        return len(coords) * (len(grid) + len(generators)), fresh, len(coords)

    coverage.evaluate = rec.wrap("coverage.evaluate", coverage.evaluate, coverage_work)

    lines.line_fitness = rec.wrap("lines.line_fitness", lines.line_fitness)
    lines.repair = rec.wrap("lines.repair", lines.repair, changed)
    netgraph.build = rec.wrap("netgraph.build", netgraph.build)
    netgraph.all_pairs_distances = rec.wrap(
        "netgraph.apsp", netgraph.all_pairs_distances, lambda args, _: (args[0].station_count ** 2,)
    )

    for name in ("write_stations_geojson", "write_lines_geojson", "write_manifest", "write_grid_csv"):
        setattr(artifacts, name, rec.wrap("artifacts.write", getattr(artifacts, name)))
    evolve.EvolutionHistory.write_csv = rec.wrap("artifacts.write", evolve.EvolutionHistory.write_csv)

    original_run = evolve.run

    def run(initial, fitness_fn, crossover_fn, mutation_fn, validator_fn, config, *rest, **kwargs):
        stage = "stage1" if config.objective_sense == "maximize" else "stage2"
        return rec.wrap(f"evolve.{stage}", original_run)(
            initial,
            rec.wrap(f"{stage}.fitness", fitness_fn),
            rec.wrap(f"{stage}.crossover", crossover_fn),
            rec.wrap(f"{stage}.mutation", mutation_fn),
            rec.wrap(f"{stage}.validator", validator_fn, changed),
            config,
            *rest,
            **kwargs,
        )

    evolve.run = run


# Per-layer metrics: (name, unit, better).
LAYER_METRICS = (
    ("geomodel.load_s", "s", "lower"),
    ("geomodel.rasterize_s", "s", "lower"),
    ("geomodel.contain_calls", "count", "lower"),
    ("geomodel.contain_s", "s", "lower"),
    ("geomodel.contain_us_per_call", "us", "lower"),
    ("geomodel.clamp_calls", "count", "lower"),
    ("coverage.eval_calls", "count", "lower"),
    ("coverage.eval_s", "s", "lower"),
    ("coverage.kernel_pairs", "count", "lower"),
    ("coverage.kernel_bytes_computed", "bytes", "lower"),
    ("coverage.new_station_frac", "fraction", "higher"),
    ("stations.init_s", "s", "lower"),
    ("stations.validate_calls", "count", "lower"),
    ("stations.validate_changed_frac", "fraction", "lower"),
    ("stations.mutate_calls", "count", "lower"),
    ("stations.best_fitness", "persons", "higher"),
    ("evolve.stage1.self_s", "s", "lower"),
    ("evolve.stage2.self_s", "s", "lower"),
    ("evolve.fitness_calls", "count", "lower"),
    ("lines.fitness_lookup_s", "s", "lower"),
    ("lines.cache_hit_ratio", "fraction", "higher"),
    ("lines.line_fitness_s", "s", "lower"),
    ("lines.repair_calls", "count", "lower"),
    ("lines.repair_s", "s", "lower"),
    ("lines.repair_changed_frac", "fraction", "lower"),
    ("lines.mutate_s", "s", "lower"),
    ("lines.best_fitness", "m.persons", "lower"),
    ("netgraph.apsp_calls", "count", "lower"),
    ("netgraph.apsp_s", "s", "lower"),
    ("netgraph.apsp_us_per_call", "us", "lower"),
    ("netgraph.apsp_pairs", "count", "lower"),
    ("netgraph.build_s", "s", "lower"),
    ("artifacts.write_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Work counts must repeat exactly across traced runs of one seed.
EXACT_COUNTS = tuple(name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes"))
# Times, which the benchmark scales to the reference vCPU speed like wall time.
TIMES = tuple(name for name, unit, _ in LAYER_METRICS if unit in ("s", "us"))


def layer_metrics(spans_file) -> dict[str, float]:
    """Per-layer totals from one traced run (fitness and trace.* are filled in by the caller)."""
    with np.load(spans_file) as z:
        names = [str(n) for n in z["names"]]
        name_id, parent = z["name_id"], z["parent"]
        dur = z["t1"] - z["t0"]
        a0, a1, a2 = z["args"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child_time
    ids = {n: i for i, n in enumerate(names)}

    def mask(name):
        return name_id == ids.get(name, -1)

    def total(name, values=dur):
        return float(values[mask(name)].sum())

    def count(name):
        return int(mask(name).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    # a line_fitness call made inside the stage-2 fitness callable is a cache miss
    in_s2_fitness = nested & mask("stage2.fitness")[np.where(nested, parent, 0)]
    cache_misses = int((mask("lines.line_fitness") & in_s2_fitness).sum())
    fitness_calls = count("stage2.fitness")
    contain_calls, apsp_calls = count("geomodel.contain"), count("netgraph.apsp")
    kernel_pairs = total("coverage.evaluate", a0)
    return {
        "geomodel.load_s": total("geomodel.load"),
        "geomodel.rasterize_s": total("geomodel.rasterize"),
        "geomodel.contain_calls": contain_calls,
        "geomodel.contain_s": total("geomodel.contain"),
        "geomodel.contain_us_per_call": 1e6 * ratio(total("geomodel.contain"), contain_calls),
        "geomodel.clamp_calls": count("geomodel.clamp"),
        "coverage.eval_calls": count("coverage.evaluate"),
        "coverage.eval_s": total("coverage.evaluate"),
        "coverage.kernel_pairs": int(kernel_pairs),
        # one float64 per kernel entry: bytes the kernel matrix computes, not bytes measured moving
        "coverage.kernel_bytes_computed": int(8 * kernel_pairs),
        "coverage.new_station_frac": ratio(total("coverage.evaluate", a1), total("coverage.evaluate", a2)),
        "stations.init_s": total("stations.init"),
        "stations.validate_calls": count("stage1.validator"),
        "stations.validate_changed_frac": ratio(total("stage1.validator", a0), count("stage1.validator")),
        "stations.mutate_calls": count("stage1.mutation"),
        "evolve.stage1.self_s": total("evolve.stage1", self_time),
        "evolve.stage2.self_s": total("evolve.stage2", self_time),
        "evolve.fitness_calls": count("stage1.fitness") + count("stage2.fitness"),
        "lines.fitness_lookup_s": total("stage2.fitness", self_time),
        "lines.cache_hit_ratio": ratio(fitness_calls - cache_misses, fitness_calls),
        "lines.line_fitness_s": total("lines.line_fitness"),
        "lines.repair_calls": count("lines.repair"),
        "lines.repair_s": total("lines.repair"),
        "lines.repair_changed_frac": ratio(total("lines.repair", a0), count("lines.repair")),
        "lines.mutate_s": total("stage2.mutation"),
        "netgraph.apsp_calls": apsp_calls,
        "netgraph.apsp_s": total("netgraph.apsp"),
        "netgraph.apsp_us_per_call": 1e6 * ratio(total("netgraph.apsp"), apsp_calls),
        "netgraph.apsp_pairs": int(total("netgraph.apsp", a0)),
        "netgraph.build_s": total("netgraph.build"),
        "artifacts.write_s": total("artifacts.write"),
    }
