"""Stage 2: evolve line layouts minimizing demand-weighted network travel cost.

The operators draw from the generation's ``evolve.Draws``, whose
``integers(n)`` returns what ``Generator.integers(n)`` would, an n of 1
drawing nothing. ``_draw_two(rng, n)`` is ``choice(n, size=2,
replace=False)`` from the same draws: for two of n, numpy always takes
Floyd's algorithm, ``integers(n - 1)`` then ``integers(n)`` (n - 1 on a
repeat), and shuffles the pair with one ``integers(2)``. The tests hold it
to numpy's own ``choice``, so a numpy that changes ``choice`` fails there
instead of shifting every layout.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from . import evolve, netgraph
from .errors import InvalidLayout, MetronetError
from .evolve import Draws, EvolutionHistory, GaConfig, GenerationHook
from .geomodel import PLANAR_BOUND_M, station_distances

_MAX_MUTATION_TRIES = 16
_CACHE_LIMIT = 200_000
MAX_LINES = 1_000  # netgraph.components compares every pair of lines, for every child


# A stage-2 genome: exactly L lines, each an ordered duplicate-free tuple of station indices.
Layout = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LineFitness:
    """Pairwise travel cost in meter-persons of a connected layout."""

    value: float


@dataclass(frozen=True)
class LineStageConfig:
    line_count: int = 5
    ga: GaConfig = GaConfig()
    transfer_penalty_m: float = 0.0  # equivalent length per line change; 0 disables

    def __post_init__(self):
        if not (1 <= self.line_count <= MAX_LINES):
            raise MetronetError(f"line_count must lie in [1, {MAX_LINES}], got {self.line_count}")
        if not (0 <= self.transfer_penalty_m <= PLANAR_BOUND_M):
            raise MetronetError(
                f"transfer_penalty_m must lie in [0, {PLANAR_BOUND_M:g}] meters, got {self.transfer_penalty_m}"
            )


def _canonical(genome: Layout) -> Layout:
    """The layout's track set: each line from its smaller end, the lines sorted."""
    return tuple(sorted([min(line, line[::-1]) for line in genome]))


def line_fitness(genome: Layout, stations: np.ndarray,
                 serviced: Sequence[float], transfer_penalty_m: float = 0.0) -> LineFitness:
    """Sum over unordered station pairs of d_ij * (s_i + s_j); ``stations`` is an (N, 2) array.

    The cost is a function of the track set: it prices the canonical form,
    so reversing or reordering lines keeps its bits. Only connected layouts
    have a cost: ``repair`` keeps every GA genome connected, and a layout
    that leaves some station unreachable raises ``InvalidLayout``.
    """
    s = np.asarray(serviced, dtype=float)
    if len(s) != len(stations):
        raise MetronetError(f"serviced counts ({len(s)}) must match stations ({len(stations)})")
    try:
        net = netgraph.build(_canonical(genome), stations)
    except InvalidLayout:
        netgraph.build(genome, stations)  # raises again, numbering the lines as the caller does
        raise
    d = netgraph.all_pairs_distances(net, transfer_penalty_m=transfer_penalty_m)
    if not np.isfinite(d).all():
        raise InvalidLayout("line layout leaves some station unreachable")
    # d is symmetric with a zero diagonal, so the i < j pair sum weighs each row sum by its s_i
    return LineFitness(float((d.sum(axis=1) * s).sum()))


# ---------------------------------------------------------------------------
# the six line mutations; each returns None when inapplicable
# ---------------------------------------------------------------------------


def _draw_two(rng: Draws, n: int) -> tuple[int, int]:
    """The pair ``choice(n, size=2, replace=False)`` returns, from the same draws."""
    integers = rng.integers
    a = integers(n - 1)
    b = integers(n)
    if b == a:
        b = n - 1
    # the two-element shuffle swaps the pair when it draws 0
    return (a, b) if integers(2) else (b, a)


def exchange_within_line(genome: Layout, rng: Draws) -> Layout | None:
    """(a) Swap the positions of two stations within one line."""
    li = rng.integers(len(genome))
    line = list(genome[li])
    i, j = _draw_two(rng, len(line))
    line[i], line[j] = line[j], line[i]
    return genome[:li] + (tuple(line),) + genome[li + 1:]


def reverse_segment(genome: Layout, rng: Draws) -> Layout | None:
    """(b) Reverse a contiguous sub-series of stations within one line."""
    li = rng.integers(len(genome))
    line = list(genome[li])
    i, j = sorted(_draw_two(rng, len(line)))
    line[i : j + 1] = line[i : j + 1][::-1]
    return genome[:li] + (tuple(line),) + genome[li + 1:]


def swap_between_lines(genome: Layout, rng: Draws) -> Layout | None:
    """(c) Exchange one station of line p with one station of line q."""
    if len(genome) < 2:
        return None
    p, q = _draw_two(rng, len(genome))
    line_p, line_q = list(genome[p]), list(genome[q])
    ip = rng.integers(len(line_p))
    iq = rng.integers(len(line_q))
    u, v = line_p[ip], line_q[iq]
    if u == v or v in line_p or u in line_q:
        return None
    line_p[ip], line_q[iq] = v, u
    lines = list(genome)
    lines[p], lines[q] = tuple(line_p), tuple(line_q)
    return tuple(lines)


def transfer_station(genome: Layout, rng: Draws) -> Layout | None:
    """(d) Move one station from line p to a random position in line q."""
    if len(genome) < 2:
        return None
    p, q = _draw_two(rng, len(genome))
    line_p, line_q = list(genome[p]), list(genome[q])
    if len(line_p) < 3:  # the donor must keep >= 2 stations
        return None
    u = line_p[rng.integers(len(line_p))]
    if u in line_q:
        return None
    line_p.remove(u)
    line_q.insert(rng.integers(len(line_q) + 1), u)
    lines = list(genome)
    lines[p], lines[q] = tuple(line_p), tuple(line_q)
    return tuple(lines)


def remove_station(genome: Layout, rng: Draws) -> Layout | None:
    """(e) Delete one station from a line of length >= 3."""
    li = rng.integers(len(genome))
    line = list(genome[li])
    if len(line) < 3:
        return None
    del line[rng.integers(len(line))]
    return genome[:li] + (tuple(line),) + genome[li + 1:]


def add_station(genome: Layout, station_count: int, rng: Draws) -> Layout | None:
    """(f) Insert a station the line does not yet visit at a random position."""
    li = rng.integers(len(genome))
    line = list(genome[li])
    candidates = [s for s in range(station_count) if s not in line]
    if not candidates:
        return None
    station = candidates[rng.integers(len(candidates))]
    line.insert(rng.integers(len(line) + 1), station)
    return genome[:li] + (tuple(line),) + genome[li + 1:]


# (a)-(e) by draw index; index 5 is (f) add_station, which also takes the station count
_MUTATIONS = (exchange_within_line, reverse_segment, swap_between_lines, transfer_station, remove_station)


def mutate_line(genome: Layout, station_count: int, rng: Draws) -> Layout:
    """Apply one of the six mutation types chosen uniformly.

    Inapplicable draws are resampled up to 16 times, then the always-valid
    sub-series reversal is used.
    """
    for _ in range(_MAX_MUTATION_TRIES):
        i = rng.integers(6)
        mutated = _MUTATIONS[i](genome, rng) if i < 5 else add_station(genome, station_count, rng)
        if mutated is not None:
            return mutated
    return reverse_segment(genome, rng)


def crossover_lines(parent_a: Layout, parent_b: Layout,
                    rng: Draws) -> tuple[Layout, Layout]:
    """Swap one uniformly chosen line between the parents.

    Children may come out disconnected; callers put them through repair.
    """
    k = rng.integers(len(parent_a))
    lines_a = list(parent_a)
    lines_b = list(parent_b)
    lines_a[k], lines_b[k] = lines_b[k], lines_a[k]
    return tuple(lines_a), tuple(lines_b)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def repair(genome: Layout, dist: np.ndarray) -> Layout:
    """Restore whole-network connectivity; a connected genome comes back as is.

    ``dist`` is the stations' ``station_distances`` matrix. Precondition:
    every line is duplicate-free with at least two stations, as
    ``init_lines``, the six mutations and ``crossover_lines`` keep it;
    ``netgraph.build`` raises ``InvalidLayout`` at fitness time for a
    layout that breaks it. While the network is split, the
    station outside the component of station 0 that is closest to it gets
    appended at the nearest end of a line inside that component (if station
    0 sits on no line yet, station 0 itself is appended to the globally
    nearest line end). Idempotent; every round merges one more component
    into station 0's, so it ends within station_count rounds.
    """
    n = len(dist)
    labels = netgraph.components(genome, n)
    if labels.count(labels[0]) == n:
        return genome
    comp = np.array(labels)
    inside = comp == comp[0]
    outside = ~inside
    left = int(np.count_nonzero(outside))
    lines = list(genome)
    # Each attach merges station 0's component with one other whole component,
    # so these labels stay valid outside it. gap is each outside station's
    # distance to that component, inf inside it: min is exact, so folding in
    # each merged component's rows equals one min over the inside rows.
    gap = dist[inside].min(axis=0)
    gap[inside] = np.inf
    while left:
        line_in_c0 = [li for li, line in enumerate(lines) if not outside[line[0]]]
        if line_in_c0:
            # the outside station nearest to station 0's component
            joined = int(gap.argmin())
            _attach_to_nearest_end(lines, line_in_c0, joined, dist)
        else:
            # station 0 sits on no line: hook it onto the nearest line end anywhere
            joined = _attach_to_nearest_end(lines, range(len(lines)), 0, dist)
        # joined lay outside, so every round grows station 0's component
        if labels[joined] < n:  # a station on no line: its row is the component's minimum
            merged, row = joined, dist[joined]
            left -= 1
        else:
            merged = comp == labels[joined]
            row = dist[merged].min(axis=0)
            left -= int(np.count_nonzero(merged))
        np.minimum(gap, row, out=gap, where=outside)
        gap[merged] = np.inf
        outside[merged] = False
    return tuple(lines)


def _nearest_other(dist: np.ndarray, a: int) -> int:
    """The station closest to station a other than a itself; ties go to the lower index."""
    others = np.delete(np.arange(len(dist)), a)
    return int(others[np.argmin(dist[a, others])])


def _attach_to_nearest_end(lines: list[tuple[int, ...]], candidates, v: int, dist: np.ndarray) -> int:
    """Splice station v onto the closest candidate line tail/head; return that end station.

    The ends are gathered tail then head, line by line, so argmin's first
    minimum breaks ties as ``min`` over (distance, line, end) would.
    """
    ends = [end for li in candidates for end in (lines[li][-1], lines[li][0])]
    k = int(dist[:, v][ends].argmin())
    li = candidates[k // 2]
    lines[li] = lines[li] + (v,) if k % 2 == 0 else (v,) + lines[li]
    return ends[k]


# ---------------------------------------------------------------------------
# initialization and driver
# ---------------------------------------------------------------------------


def _split_sizes(station_count: int, line_count: int) -> list[int]:
    """Balanced subset sizes, all >= 2; fewer than line_count parts when stations are scarce."""
    parts = line_count if station_count >= 2 * line_count else max(1, station_count // 2)
    base, rem = divmod(station_count, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def _nearest_neighbor_chain(subset: np.ndarray, dist: np.ndarray,
                            rng: np.random.Generator) -> tuple[int, ...]:
    """Order a station subset by greedy nearest-neighbor walking from a random start.

    The walk runs on the subset's own distance block, whose visited columns
    are set to inf: argmin then takes the first nearest station in subset
    order, as a search over the stations left would.
    """
    block = dist[np.ix_(subset, subset)]
    i = int(rng.integers(len(subset)))
    order = [i]
    for _ in range(len(subset) - 1):
        block[:, i] = np.inf
        i = int(block[i].argmin())
        order.append(i)
    return tuple(subset[order].tolist())


def init_lines(dist: np.ndarray, line_count: int,
               population_size: int, rng: np.random.Generator) -> list[Layout]:
    """Seed genomes: shuffle stations, split into chains, pad to L lines, repair.

    ``dist`` is the stations' ``station_distances`` matrix. When stations are
    too few for L disjoint chains of two, the extra lines are short
    station-to-nearest-neighbor links sharing already-used stations.
    """
    n = len(dist)
    if n < 2:
        raise MetronetError(f"line layouts need >= 2 stations, got {n}")
    population = []
    for _ in range(population_size):
        perm = rng.permutation(n)
        chains = []
        offset = 0
        for size in _split_sizes(n, line_count):
            chains.append(_nearest_neighbor_chain(perm[offset : offset + size], dist, rng))
            offset += size
        while len(chains) < line_count:
            a = int(rng.integers(n))
            chains.append((a, _nearest_other(dist, a)))
        population.append(repair(tuple(chains), dist))
    return population


def optimize_lines(
    stations: np.ndarray,
    serviced: Sequence[float],
    config: LineStageConfig,
    on_generation: GenerationHook | None = None,
) -> tuple[Layout, EvolutionHistory]:
    """Run the stage-2 GA over line layouts for a fixed (N, 2) station array."""
    dist = station_distances(stations)
    s = np.asarray(serviced, dtype=float)
    ga = replace(config.ga, objective_sense="minimize")

    # Most children repeat a layout already seen. repair depends on
    # orientation, so it is cached on the genome as drawn; the cost is
    # cached on the track set, behind an as-drawn cache that skips building
    # the canonical key for a layout seen as it is.
    validator = lru_cache(_CACHE_LIMIT)(partial(repair, dist=dist))
    price = lru_cache(_CACHE_LIMIT)(lambda key: line_fitness(key, stations, s, config.transfer_penalty_m).value)
    fitness = lru_cache(_CACHE_LIMIT)(lambda genome: price(_canonical(genome)))

    def mutation(genome: Layout, rng: Draws) -> Layout:
        return mutate_line(genome, len(stations), rng)

    return evolve.run(
        lambda rng: init_lines(dist, config.line_count, ga.population_size, rng),
        fitness,
        crossover_lines,
        mutation,
        validator,
        ga,
        on_generation=on_generation,
    )

