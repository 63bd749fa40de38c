"""Line-induced network graph: construction, connectivity, all-pairs shortest paths."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InvalidLayout


@dataclass(frozen=True, eq=False)
class LineNetwork:
    """Undirected graph induced by a line layout.

    Edges join consecutive stops of each line: ``lengths[i][k]`` is the
    Euclidean length of the edge from stop k to stop k + 1 of line i.
    """

    station_count: int
    lines: tuple[tuple[int, ...], ...]
    lengths: tuple[np.ndarray, ...]


def build(lines: Sequence[Sequence[int]], stations: np.ndarray) -> LineNetwork:
    """Validate a line layout over an (N, 2) station array and derive each line's edge lengths.

    A line is checked whole, by its length, a set and its min and max; only
    a line that fails walks its stops to name the first offender. The edges
    of all lines take one ``hypot`` over the consecutive stops, and each line
    keeps its own slice.
    """
    n = len(stations)
    for li, line in enumerate(lines):
        if len(line) < 2 or len(set(line)) < len(line) or min(line) < 0 or max(line) >= n:
            _reject(li, line, n)
    xy = stations[np.fromiter(chain.from_iterable(lines), np.intp, sum(map(len, lines)))]
    edges = np.hypot(*(xy[:-1] - xy[1:]).T)
    lengths, head = [], 0
    for line in lines:
        lengths.append(edges[head : head + len(line) - 1])
        head += len(line)
    return LineNetwork(n, tuple(tuple(line) for line in lines), tuple(lengths))


def _reject(li: int, line: Sequence[int], n: int) -> None:
    """Raise ``InvalidLayout`` for the first stop that breaks line li's rules."""
    if len(line) < 2:
        raise InvalidLayout(f"line {li} has {len(line)} station(s), need >= 2")
    seen: set[int] = set()
    for s in line:
        if not (0 <= s < n):
            raise InvalidLayout(f"line {li}: station index {s} out of range [0, {n})")
        if s in seen:
            raise InvalidLayout(f"line {li}: loop, station {s} visited twice")
        seen.add(s)


def components(lines: Sequence[Sequence[int]], station_count: int) -> list[int]:
    """Component label per station.

    A station on no line keeps its own index as its label; the stations of
    lines that meet share a label of ``station_count`` or more. A line joins
    all its stations, so the lines are grouped first, two lines meeting
    where their station sets intersect: repair calls this for every GA child.
    """
    sets = [set(line) for line in lines]
    group = list(range(station_count, station_count + len(lines)))
    for i, line in enumerate(sets):
        for j in range(i):
            if group[i] != group[j] and not line.isdisjoint(sets[j]):
                merged = group[i]
                group = [group[j] if g == merged else g for g in group]
    labels = list(range(station_count))
    for line, g in zip(lines, group):
        for s in line:
            labels[s] = g
    return labels


def all_pairs_distances(net: LineNetwork, transfer_penalty_m: float = 0.0) -> np.ndarray:
    """Shortest station-pair distances over the line graph: an (n, n) array in meters.

    Each stop of a line is a node. The nodes of one station are joined by
    ``transfer_penalty_m``; at 0 (free transfers) they merge, so every stop
    maps to its station's node. With a positive penalty the nodes stay
    (station, line) pairs, and a station pair's distance is the minimum over
    the two stations' nodes, since boarding at the origin is free. A
    shortest path changes lines only at transfer nodes, those of stations
    served by two or more lines, so Floyd-Warshall pivots over the t x t
    block of transfer nodes alone. Every other node u lies on one line and
    leaves it at one of two exits, the nearest transfer stop on each side,
    at along-line distances alpha_u and beta_u. Its row towards the transfer
    nodes is min(seed, alpha_u + row A_u, beta_u + row B_u) of that block;
    its row towards the other non-transfer nodes is the same formula over
    that band, and the minimum with its transpose makes the block exactly
    symmetric. Stations on no line keep inf rows with a 0 diagonal, so a
    disconnected layout has an inf entry.

    The work happens in one matrix q whose nodes are ordered transfer nodes
    first, ascending (the pivot order), then the other stops in line order,
    so the pivot block, the band and the non-transfer block are slices of
    q. It is seeded with each line's exact along-line distances, padded to
    the longest line and summed left to right from every stop.
    """
    n = net.station_count
    sizes = [len(line) for line in net.lines]
    stops = np.fromiter(chain.from_iterable(net.lines), np.intp, sum(sizes))
    lines_at = np.bincount(stops, minlength=n)
    if transfer_penalty_m == 0:
        # a node per station; without transfers the stations keep their order
        t = int(np.count_nonzero(lines_at >= 2))
        stop_node = stops
        if t:  # transfer stations, then the other stations of the lines in stop order, then the rest
            rank = np.argsort(np.concatenate((np.nonzero(lines_at >= 2)[0], stops[lines_at[stops] < 2],
                                              np.nonzero(lines_at == 0)[0])))
            stop_node = rank[stops]
        q = np.full((n, n), np.inf)
    else:
        # a node per stop: the transfer stops, then the others, each in stop order
        shared = lines_at[stops] >= 2
        t = int(np.count_nonzero(shared))
        order = np.argsort(~shared, kind="stable")
        stop_node, node_station = np.argsort(order), stops[order]
        q = np.where(node_station[:, None] == node_station, transfer_penalty_m, np.inf)
    np.fill_diagonal(q, 0.0)

    # lines padded to the longest one, plus one column past it
    size = max(sizes, default=2)
    at = np.arange(size + 1)
    on = at < np.array(sizes, dtype=np.intp)[:, None]
    node = np.zeros(on.shape, np.intp)  # the padding points at node 0, a transfer node if there is one
    node[on] = stop_node
    w = np.full((len(sizes), size), np.inf)  # edge k joins stops k and k + 1; inf past a line's end
    w[on[:, 1:]] = np.concatenate(net.lengths) if sizes else []
    # row i of a line's block sums its edges from stop i onward, left to right;
    # the padding is inf, or 0 on the diagonal, so at node 0 it changes nothing
    along = np.zeros((len(sizes), size + 1, size + 1))
    upper = along[:, :-1, 1:]
    np.copyto(upper, w[:, None, :], where=at[:-1, None] <= at[:-1])
    np.add.accumulate(upper, axis=2, out=upper)
    along += along.transpose(0, 2, 1)
    # a pair on several lines takes the minimum
    np.minimum.at(q.reshape(-1), (node[:, :, None] * len(q) + node[:, None, :]).reshape(-1), along.reshape(-1))

    if t:
        c = q[:t, :t].copy()
        for k in range(t):
            # in place: pivot k leaves its own row and column unchanged
            np.minimum(c, c[:, k, None] + c[None, k, :], out=c)
        q[:t, :t] = c
        hub = on & (node < t)
        li, ii = np.nonzero(node >= t)  # in stop order: the nodes after the transfer nodes
        p = t + len(li)
        # each non-transfer stop's nearest transfer stop on either side of its
        # line; a missing one (-1 or size) is the padding column: inf, node 0
        left = np.maximum.accumulate(np.where(hub, at, -1), axis=1)[li, ii]
        right = np.minimum.accumulate(np.where(hub, at, size)[:, ::-1], axis=1)[:, ::-1][li, ii]
        exits = [(along[li, ii, side, None], node[li, side]) for side in (left, right)]
        band = q[t:p, :t]
        for length, row in exits:
            np.minimum(band, length + c[row], out=band)
        q[:t, t:p] = band.T
        block = q[t:p, t:p]
        for length, row in exits:
            via = q[:t, t:p][row]
            via += length
            np.minimum(block, via, out=block)
        del via, along  # freed before the symmetric minimum copies block.T: peak memory stays low
        np.minimum(block, block.T, out=block)

    if transfer_penalty_m == 0:
        if t:  # take keeps the result C-ordered: line_fitness's row sums depend on the layout
            q = q.take(rank, axis=0)
            q = q.take(rank, axis=1)
        return q
    order = np.argsort(node_station, kind="stable")
    covered, starts = np.unique(node_station[order], return_index=True)
    by_station = np.minimum.reduceat(q[order][:, order], starts, axis=0)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    d[np.ix_(covered, covered)] = np.minimum.reduceat(by_station, starts, axis=1)
    return d
