"""Stage 2: evolve line layouts minimizing demand-weighted network travel cost."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import evolve, netgraph
from .errors import NoFeasibleIndividual, RepairFailed, TooFewStations
from .evolve import EvolutionHistory, GaConfig, GenerationHook
from .geomodel import PlanarPoint, station_xy

_MAX_MUTATION_TRIES = 16
_CACHE_LIMIT = 200_000


@dataclass(frozen=True)
class LineGenome:
    """Exactly L lines, each an ordered duplicate-free list of station indices."""

    lines: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LineFitness:
    """Pairwise travel cost in meter-persons; infeasible layouts carry a finite penalty."""

    value: float
    feasible: bool


@dataclass(frozen=True)
class LineStageConfig:
    line_count: int = 5
    ga: GaConfig = GaConfig()
    transfer_penalty_m: float = 0.0  # equivalent length per line change; 0 disables

    def __post_init__(self):
        if self.line_count < 1:
            raise ValueError("line_count must be >= 1")
        if not (math.isfinite(self.transfer_penalty_m) and self.transfer_penalty_m >= 0):
            raise ValueError(f"transfer_penalty_m must be finite and >= 0, got {self.transfer_penalty_m}")


def canonical(genome: LineGenome) -> LineGenome:
    """Orient every line with its lexicographically smaller endpoint first.

    A line and its reverse describe the same track, so tests and caches
    compare canonical forms.
    """
    return LineGenome(tuple(min(line, line[::-1]) for line in genome.lines))


def line_fitness(genome: LineGenome, stations: Sequence[PlanarPoint],
                 serviced: Sequence[float], transfer_penalty_m: float = 0.0) -> LineFitness:
    """Sum over unordered station pairs of d_ij * (s_i + s_j).

    Disconnected layouts get 1000x a feasible upper bound so they lose to any
    connected layout while staying finite.
    """
    s = np.asarray(serviced, dtype=float)
    sxy = station_xy(stations)
    n = len(sxy)
    if len(s) != n:
        raise ValueError(f"serviced counts ({len(s)}) must match stations ({n})")
    net = netgraph.build(genome.lines, sxy)
    dm = netgraph.all_pairs_distances(net, transfer_penalty_m=transfer_penalty_m)
    pair_weight = s[:, None] + s[None, :]
    if not dm.reachable:
        diff = sxy[:, None, :] - sxy[None, :, :]
        max_euclid = float(np.sqrt((diff * diff).sum(axis=2)).max())
        max_pair = (n - 1) * (max_euclid + transfer_penalty_m)
        iu = np.triu_indices(n, 1)
        bound = max_pair * float(pair_weight[iu].sum())
        return LineFitness(1e3 * max(bound, 1.0), False)
    iu = np.triu_indices(n, 1)
    return LineFitness(float((dm.d[iu] * pair_weight[iu]).sum()), True)


# ---------------------------------------------------------------------------
# the six line mutations; each returns None when inapplicable
# ---------------------------------------------------------------------------


def exchange_within_line(genome: LineGenome, rng: np.random.Generator) -> LineGenome | None:
    """(a) Swap the positions of two stations within one line."""
    li = int(rng.integers(len(genome.lines)))
    line = list(genome.lines[li])
    i, j = rng.choice(len(line), size=2, replace=False)
    line[i], line[j] = line[j], line[i]
    return _with_line(genome, li, line)


def reverse_segment(genome: LineGenome, rng: np.random.Generator) -> LineGenome | None:
    """(b) Reverse a contiguous sub-series of stations within one line."""
    li = int(rng.integers(len(genome.lines)))
    line = list(genome.lines[li])
    i, j = sorted(rng.choice(len(line), size=2, replace=False))
    line[i : j + 1] = line[i : j + 1][::-1]
    return _with_line(genome, li, line)


def swap_between_lines(genome: LineGenome, rng: np.random.Generator) -> LineGenome | None:
    """(c) Exchange one station of line p with one station of line q."""
    if len(genome.lines) < 2:
        return None
    p, q = (int(v) for v in rng.choice(len(genome.lines), size=2, replace=False))
    line_p, line_q = list(genome.lines[p]), list(genome.lines[q])
    ip = int(rng.integers(len(line_p)))
    iq = int(rng.integers(len(line_q)))
    u, v = line_p[ip], line_q[iq]
    if u == v or v in line_p or u in line_q:
        return None
    line_p[ip], line_q[iq] = v, u
    lines = list(genome.lines)
    lines[p], lines[q] = tuple(line_p), tuple(line_q)
    return LineGenome(tuple(lines))


def transfer_station(genome: LineGenome, rng: np.random.Generator) -> LineGenome | None:
    """(d) Move one station from line p to a random position in line q."""
    if len(genome.lines) < 2:
        return None
    p, q = (int(v) for v in rng.choice(len(genome.lines), size=2, replace=False))
    line_p, line_q = list(genome.lines[p]), list(genome.lines[q])
    if len(line_p) < 3:  # the donor must keep >= 2 stations
        return None
    u = line_p[int(rng.integers(len(line_p)))]
    if u in line_q:
        return None
    line_p.remove(u)
    line_q.insert(int(rng.integers(len(line_q) + 1)), u)
    lines = list(genome.lines)
    lines[p], lines[q] = tuple(line_p), tuple(line_q)
    return LineGenome(tuple(lines))


def remove_station(genome: LineGenome, rng: np.random.Generator) -> LineGenome | None:
    """(e) Delete one station from a line of length >= 3."""
    li = int(rng.integers(len(genome.lines)))
    line = list(genome.lines[li])
    if len(line) < 3:
        return None
    del line[int(rng.integers(len(line)))]
    return _with_line(genome, li, line)


def add_station(genome: LineGenome, station_count: int, rng: np.random.Generator) -> LineGenome | None:
    """(f) Insert a station the line does not yet visit at a random position."""
    li = int(rng.integers(len(genome.lines)))
    line = list(genome.lines[li])
    candidates = [s for s in range(station_count) if s not in line]
    if not candidates:
        return None
    station = candidates[int(rng.integers(len(candidates)))]
    line.insert(int(rng.integers(len(line) + 1)), station)
    return _with_line(genome, li, line)


def _with_line(genome: LineGenome, index: int, line: list[int]) -> LineGenome:
    lines = list(genome.lines)
    lines[index] = tuple(line)
    return LineGenome(tuple(lines))


def mutate_line(genome: LineGenome, station_count: int, rng: np.random.Generator) -> LineGenome:
    """Apply one of the six mutation types chosen uniformly.

    Inapplicable draws are resampled up to 16 times, then the always-valid
    sub-series reversal is used.
    """
    ops = (
        exchange_within_line,
        reverse_segment,
        swap_between_lines,
        transfer_station,
        remove_station,
        lambda g, r: add_station(g, station_count, r),
    )
    for _ in range(_MAX_MUTATION_TRIES):
        mutated = ops[int(rng.integers(len(ops)))](genome, rng)
        if mutated is not None:
            return mutated
    return reverse_segment(genome, rng)


def crossover_lines(parent_a: LineGenome, parent_b: LineGenome,
                    rng: np.random.Generator) -> tuple[LineGenome, LineGenome]:
    """Swap one uniformly chosen line between the parents.

    Children may come out disconnected; callers put them through repair.
    """
    k = int(rng.integers(len(parent_a.lines)))
    lines_a = list(parent_a.lines)
    lines_b = list(parent_b.lines)
    lines_a[k], lines_b[k] = lines_b[k], lines_a[k]
    return LineGenome(tuple(lines_a)), LineGenome(tuple(lines_b))


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def repair(genome: LineGenome, stations: Sequence[PlanarPoint]) -> LineGenome:
    """Restore per-line uniqueness and whole-network connectivity.

    Duplicate stations within a line lose their later occurrences; lines cut
    below two stations get their nearest missing station appended. While the
    network is split, the station outside the component of station 0 that is
    closest to it gets appended at the nearest end of a line inside that
    component (if station 0 sits on no line yet, station 0 itself is appended
    to the globally nearest line end). Idempotent; every round merges one
    more component into station 0's, so it ends within station_count rounds.
    """
    sxy = station_xy(stations)
    n = len(sxy)
    changed = False
    lines: list[tuple[int, ...]] = []
    for line in genome.lines:
        if not line:
            raise ValueError("repair cannot process an empty line")
        deduped = tuple(dict.fromkeys(line))
        if deduped != tuple(line):
            changed = True
        if len(deduped) < 2:
            others = np.setdiff1d(np.arange(n), deduped)
            dist = np.hypot(*(sxy[others] - sxy[deduped[0]]).T)
            deduped = deduped + (int(others[int(np.argmin(dist))]),)
            changed = True
        lines.append(deduped)

    comp = netgraph.components(lines, n)
    if comp.count(comp[0]) == n:
        return LineGenome(tuple(lines)) if changed else genome
    # Each attach merges station 0's component with one other whole
    # component, so these labels stay valid for the components outside it.
    comp = np.array(comp)
    inside = comp == comp[0]
    dx = sxy[:, None, 0] - sxy[None, :, 0]
    dy = sxy[:, None, 1] - sxy[None, :, 1]
    dmat = np.sqrt(dx * dx + dy * dy)
    for _ in range(n):
        line_in_c0 = [li for li, line in enumerate(lines) if inside[line[0]]]
        if line_in_c0:
            # the outside station nearest to station 0's component
            joined = int(np.argmin(np.where(inside, np.inf, dmat[inside].min(axis=0))))
            _attach_to_nearest_end(lines, line_in_c0, joined, dmat)
        else:
            # station 0 sits on no line: hook it onto the nearest line end anywhere
            joined = _attach_to_nearest_end(lines, range(len(lines)), 0, dmat)
        inside |= comp == comp[joined]
        if inside.all():
            return LineGenome(tuple(lines))
    raise RepairFailed("connectivity loop exceeded the station count")


def _attach_to_nearest_end(lines: list[tuple[int, ...]], candidates, v: int, dmat: np.ndarray) -> int:
    """Splice station v onto the closest candidate line head/tail; return that end station."""
    _, li, end, joined = min(
        (dmat[line_end, v], li, end, line_end)
        for li in candidates
        for end, line_end in ((0, lines[li][-1]), (1, lines[li][0]))
    )
    lines[li] = lines[li] + (v,) if end == 0 else (v,) + lines[li]
    return joined


# ---------------------------------------------------------------------------
# initialization and driver
# ---------------------------------------------------------------------------


def _split_sizes(station_count: int, line_count: int) -> list[int]:
    """Balanced subset sizes, all >= 2; fewer than line_count parts when stations are scarce."""
    parts = line_count if station_count >= 2 * line_count else max(1, station_count // 2)
    base, rem = divmod(station_count, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def _nearest_neighbor_chain(subset: np.ndarray, sxy: np.ndarray,
                            rng: np.random.Generator) -> tuple[int, ...]:
    """Order a station subset by greedy nearest-neighbor walking from a random start."""
    remaining = [int(s) for s in subset]
    current = remaining.pop(int(rng.integers(len(remaining))))
    chain = [current]
    while remaining:
        dist = np.hypot(*(sxy[remaining] - sxy[current]).T)
        current = remaining.pop(int(np.argmin(dist)))
        chain.append(current)
    return tuple(chain)


def init_lines(stations: Sequence[PlanarPoint], line_count: int,
               population_size: int, rng: np.random.Generator) -> list[LineGenome]:
    """Seed genomes: shuffle stations, split into chains, pad to L lines, repair.

    When stations are too few for L disjoint chains of two, the extra lines
    are short station-to-nearest-neighbor links sharing already-used stations.
    """
    sxy = station_xy(stations)
    n = len(sxy)
    if n < 2:
        raise TooFewStations(f"line layouts need >= 2 stations, got {n}")
    population = []
    for _ in range(population_size):
        perm = rng.permutation(n)
        chains = []
        offset = 0
        for size in _split_sizes(n, line_count):
            chains.append(_nearest_neighbor_chain(perm[offset : offset + size], sxy, rng))
            offset += size
        while len(chains) < line_count:
            a = int(rng.integers(n))
            dist = np.hypot(*(sxy - sxy[a]).T)
            dist[a] = np.inf
            chains.append((a, int(np.argmin(dist))))
        population.append(repair(LineGenome(tuple(chains)), sxy))
    return population


def optimize_lines(
    stations: Sequence[PlanarPoint],
    serviced: Sequence[float],
    config: LineStageConfig,
    on_generation: GenerationHook | None = None,
) -> tuple[LineGenome, EvolutionHistory]:
    """Run the stage-2 GA over line layouts for a fixed station set."""
    sxy = station_xy(stations)
    s = np.asarray(serviced, dtype=float)
    ga = replace(config.ga, objective_sense="minimize")
    init_rng = np.random.default_rng(np.random.SeedSequence(ga.rng_seed, spawn_key=(0,)))
    initial = init_lines(sxy, config.line_count, ga.population_size, init_rng)

    cache: dict[tuple, LineFitness] = {}

    def fitness(genome: LineGenome) -> float:
        key = tuple(sorted(canonical(genome).lines))
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= _CACHE_LIMIT:
                cache.clear()
            hit = line_fitness(genome, sxy, s, config.transfer_penalty_m)
            cache[key] = hit
        return hit.value

    def mutation(genome: LineGenome, rng: np.random.Generator) -> LineGenome:
        return mutate_line(genome, len(sxy), rng)

    best, history = evolve.run(
        initial,
        fitness,
        crossover_lines,
        mutation,
        lambda g: repair(g, sxy),
        ga,
        on_generation=on_generation,
    )
    if not line_fitness(best, sxy, s, config.transfer_penalty_m).feasible:
        raise NoFeasibleIndividual("evolution returned a disconnected best genome")
    return best, history

