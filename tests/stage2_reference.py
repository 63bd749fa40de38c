"""The stage-2 routines as they were before their numpy rewrite, kept as references.

``build``, ``components``, ``all_pairs_distances`` (with its two-exit
fill), ``repair`` and ``_nearest_neighbor_chain`` are copied unchanged but
for their names: loops over stops and one numpy call per line. The tests
require the production routines to return the same bits, layouts and
exceptions, so any change to their arithmetic or tie-breaking fails there.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from metronet.errors import InvalidLayout
from metronet.lines import Layout
from metronet.netgraph import LineNetwork


def build_reference(lines: Sequence[Sequence[int]], stations: np.ndarray) -> LineNetwork:
    """Validate a line layout over an (N, 2) station array and derive each line's edge lengths."""
    n = len(stations)
    lengths = []
    for li, line in enumerate(lines):
        if len(line) < 2:
            raise InvalidLayout(f"line {li} has {len(line)} station(s), need >= 2")
        seen: set[int] = set()
        for s in line:
            if not (0 <= s < n):
                raise InvalidLayout(f"line {li}: station index {s} out of range [0, {n})")
            if s in seen:
                raise InvalidLayout(f"line {li}: loop, station {s} visited twice")
            seen.add(s)
        stops = np.asarray(line, dtype=np.intp)
        lengths.append(np.hypot(*(stations[stops[:-1]] - stations[stops[1:]]).T))
    return LineNetwork(n, tuple(tuple(line) for line in lines), tuple(lengths))


def components_reference(lines: Sequence[Sequence[int]], station_count: int) -> list[int]:
    """Component label per station (union-find); stations on no line are singletons.

    The root walks are inlined: repair calls this for every GA child.
    """
    parent = list(range(station_count))
    for line in lines:
        for a, b in zip(line, line[1:]):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
    labels = []
    for r in range(station_count):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        labels.append(r)
    return labels


def all_pairs_distances_reference(net: LineNetwork, transfer_penalty_m: float = 0.0) -> np.ndarray:
    """Shortest station-pair distances over the line graph: an (n, n) array in meters.

    Each stop of a line is a node. The nodes of one station are joined by
    ``transfer_penalty_m``; at 0 (free transfers) they merge, so the node map
    sends every stop to its station and the matrix is n x n. With a positive
    penalty the nodes stay (station, line) pairs, and a station pair's
    distance is the minimum over the two stations' nodes, since boarding at
    the origin is free. The matrix is seeded with each line's exact
    along-line distances. A shortest path changes lines only at transfer
    nodes, those of stations served by two or more lines, so Floyd-Warshall
    pivots over the t x t block of transfer nodes alone. Every other node u
    lies on one line and leaves it at one of two exits, the nearest transfer
    stop on each side, at along-line distances alpha_u and beta_u. Its row
    towards the transfer nodes is min(seed, alpha_u + row A_u, beta_u +
    row B_u) of that block; its row towards the other non-transfer nodes is
    the same formula over that band, and the minimum with its transpose
    makes the block exactly symmetric. Stations on no line keep inf rows
    with a 0 diagonal, so a disconnected layout has an inf entry.
    """
    n = net.station_count
    stops = np.array([s for line in net.lines for s in line], dtype=np.intp)
    # node map: the node of every stop, in line order, and the station of every node
    if transfer_penalty_m == 0:
        stop_node, node_station = stops, np.arange(n)
        d = np.full((n, n), np.inf)
    else:
        stop_node, node_station = np.arange(len(stops)), stops
        d = np.where(node_station[:, None] == node_station[None, :], transfer_penalty_m, np.inf)
    np.fill_diagonal(d, 0.0)
    flat = d.reshape(-1)  # a view: blocks are read and written through flat positions
    head = 0
    for line, w in zip(net.lines, net.lengths):
        size = len(line)
        # row i sums the edges from stop i onward, left to right
        r = np.arange(size - 1)
        along = np.zeros((size, size))
        along[:-1, 1:] = np.cumsum(w * (r[:, None] <= r), axis=1)
        along += along.T
        nodes = stop_node[head : head + size]
        block = _positions(nodes, nodes, len(d))
        flat[block] = np.minimum(flat[block], along)
        head += size
    lines_at = np.bincount(stops, minlength=n)
    transfer = np.nonzero(lines_at[node_station] >= 2)[0]  # ascending: the pivot order
    if len(transfer):
        sizes = [len(line) for line in net.lines]
        _fill_through_transfers(flat, len(d), transfer, stop_node, lines_at[stops] >= 2, sizes)

    if transfer_penalty_m != 0:
        order = np.argsort(node_station, kind="stable")
        covered, starts = np.unique(node_station[order], return_index=True)
        by_station = np.minimum.reduceat(d[np.ix_(order, order)], starts, axis=0)
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
        d[np.ix_(covered, covered)] = np.minimum.reduceat(by_station, starts, axis=1)
    return d


def _positions(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Flat positions of the (rows, cols) block of a row-major matrix ``width`` columns wide."""
    return rows[:, None] * width + cols


def _fill_through_transfers(flat: np.ndarray, width: int, transfer: np.ndarray, stop_node: np.ndarray,
                            is_transfer: np.ndarray, sizes: list[int]) -> None:
    """Complete the along-line seed in place with the paths that change lines.

    ``flat`` is the seeded node matrix, ``width`` nodes square, as one flat
    view; ``transfer`` lists its transfer nodes in ascending order.
    ``is_transfer`` flags the stops at those nodes, and ``sizes`` are the
    line lengths in stop order.
    """
    tt = _positions(transfer, transfer, width)
    c = flat[tt]
    for k in range(len(transfer)):
        # in place: pivot k leaves its own row and column unchanged
        np.minimum(c, c[:, k, None] + c[None, k, :], out=c)
    flat[tt] = c

    # each non-transfer stop's nearest transfer stop on either side of its line
    plain = ~is_transfer
    u = stop_node[plain]
    if len(u) == 0:
        return
    m = len(stop_node)
    pos = np.arange(m)
    ends = np.cumsum(sizes)
    left = np.maximum.accumulate(np.where(is_transfer, pos, -1))[plain]
    right = np.minimum.accumulate(np.where(is_transfer, pos, m)[::-1])[::-1][plain]
    first = int(np.argmax(is_transfer))  # stands in for a missing exit, whose length is inf
    exits = []
    for side, ok in ((left, left >= np.repeat(ends - sizes, sizes)[plain]),
                     (right, right < np.repeat(ends, sizes)[plain])):
        node = stop_node[np.where(ok, side, first)]
        length = np.where(ok, flat[u * width + node], np.inf)
        exits.append((length[:, None], np.searchsorted(transfer, node)))

    ut = _positions(u, transfer, width)
    band = flat[ut]
    for length, row in exits:
        np.minimum(band, length + c[row], out=band)
    flat[ut] = band
    flat[_positions(transfer, u, width)] = band.T
    uu = _positions(u, u, width)
    block = flat[uu]
    for length, row in exits:
        via = band[:, row].T
        via += length
        np.minimum(block, via, out=block)
    del via  # free before the symmetric minimum allocates its result: peak memory stays low
    flat[uu] = np.minimum(block, block.T)


def repair_reference(genome: Layout, dist: np.ndarray) -> Layout:
    """Restore whole-network connectivity; a connected genome comes back as is.

    ``dist`` is the stations' ``station_distances`` matrix. Precondition:
    every line is duplicate-free with at least two stations, as
    ``init_lines``, the six mutations and ``crossover_lines`` keep it;
    ``netgraph.build`` raises ``InvalidLayout`` at fitness
    time for a layout that breaks it. While the network is split, the
    station outside the component of station 0 that is closest to it gets
    appended at the nearest end of a line inside that component (if station
    0 sits on no line yet, station 0 itself is appended to the globally
    nearest line end). Idempotent; every round merges one more component
    into station 0's, so it ends within station_count rounds.
    """
    n = len(dist)
    comp = components_reference(genome, n)
    if comp.count(comp[0]) == n:
        return genome
    lines = list(genome)
    # Each attach merges station 0's component with one other whole
    # component, so these labels stay valid for the components outside it.
    comp = np.array(comp)
    inside = comp == comp[0]
    # each station's distance to station 0's component; min is exact, so
    # folding in each merged component's rows equals one min over inside
    near = dist[inside].min(axis=0)
    while not inside.all():
        line_in_c0 = [li for li, line in enumerate(lines) if inside[line[0]]]
        if line_in_c0:
            # the outside station nearest to station 0's component
            joined = int(np.argmin(np.where(inside, np.inf, near)))
            _attach_reference(lines, line_in_c0, joined, dist)
        else:
            # station 0 sits on no line: hook it onto the nearest line end anywhere
            joined = _attach_reference(lines, range(len(lines)), 0, dist)
        merged = comp == comp[joined]  # joined lay outside, so every round grows station 0's component
        np.minimum(near, dist[merged].min(axis=0), out=near)
        inside |= merged
    return tuple(lines)


def _attach_reference(lines: list[tuple[int, ...]], candidates, v: int, dist: np.ndarray) -> int:
    """Splice station v onto the closest candidate line head/tail; return that end station."""
    _, li, end, joined = min(
        (dist[line_end, v], li, end, line_end)
        for li in candidates
        for end, line_end in ((0, lines[li][-1]), (1, lines[li][0]))
    )
    lines[li] = lines[li] + (v,) if end == 0 else (v,) + lines[li]
    return joined


def nearest_neighbor_chain_reference(subset: np.ndarray, dist: np.ndarray,
                            rng: np.random.Generator) -> tuple[int, ...]:
    """Order a station subset by greedy nearest-neighbor walking from a random start."""
    remaining = [int(s) for s in subset]
    current = remaining.pop(int(rng.integers(len(remaining))))
    chain = [current]
    while remaining:
        current = remaining.pop(int(np.argmin(dist[current, remaining])))
        chain.append(current)
    return tuple(chain)
