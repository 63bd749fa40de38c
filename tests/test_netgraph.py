"""Network graph tests: construction, connectivity, shortest paths.

Production seeds a distance matrix with along-line distances and runs
Floyd-Warshall over transfer nodes only. The references here are independent
of it: a station-level Floyd-Warshall over every station and a heapq
Dijkstra, plain and with transfer penalties.
"""
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import layouts
from metronet.errors import LineTooShort, LoopInLine
from metronet.geomodel import PlanarPoint, station_distances
from metronet.lines import LineGenome, repair
from metronet.netgraph import all_pairs_distances, build, components, is_connected


def pts(*xy):
    return [PlanarPoint(float(x), float(y)) for x, y in xy]


def floyd_warshall_oracle(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b, w in edges:
        d[a, b] = min(d[a, b], w)
        d[b, a] = min(d[b, a], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def _dijkstra(adj, sources, size):
    """Multi-source Dijkstra over an adjacency list of (neighbor, weight) pairs."""
    dist = [math.inf] * size
    heap = []
    for src in sources:
        dist[src] = 0.0
        heap.append((0.0, src))
    heapq.heapify(heap)
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            dv = du + w
            if dv < dist[v]:
                dist[v] = dv
                heapq.heappush(heap, (dv, v))
    return dist


def dijkstra_reference(net, transfer_penalty_m=0.0):
    """Station distances by Dijkstra; a positive penalty runs on (station, line) nodes.

    Boarding at the origin is free; every line change at a shared station
    adds the penalty.
    """
    n = net.station_count
    if transfer_penalty_m == 0.0:
        adj = [[] for _ in range(n)]
        for a, b, w in net.edges:
            adj[a].append((b, w))
            adj[b].append((a, w))
        return np.array([_dijkstra(adj, [s], n) for s in range(n)]).reshape(n, n)
    lengths = {}
    for a, b, w in net.edges:
        lengths[(a, b)] = lengths[(b, a)] = w
    nodes = [(s, li) for li, line in enumerate(net.lines) for s in line]
    node_id = {node: i for i, node in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for li, line in enumerate(net.lines):
        for a, b in zip(line, line[1:]):
            u, v = node_id[(a, li)], node_id[(b, li)]
            adj[u].append((v, lengths[(a, b)]))
            adj[v].append((u, lengths[(a, b)]))
    by_station = {}
    for i, (s, _) in enumerate(nodes):
        by_station.setdefault(s, []).append(i)
    for idxs in by_station.values():
        for i in idxs:
            adj[i] += [(j, transfer_penalty_m) for j in idxs if j != i]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for s, sources in by_station.items():
        dist = _dijkstra(adj, sources, len(nodes))
        for i, (t, _) in enumerate(nodes):
            d[s, t] = min(d[s, t], dist[i])
    return d


def random_connected_network(rng, n=8):
    """Random stations, a random spanning path, plus a few extra lines."""
    stations = pts(*rng.uniform(-5000, 5000, (n, 2)))
    perm = [int(v) for v in rng.permutation(n)]
    lines = [perm]
    for _ in range(int(rng.integers(1, 3))):
        size = int(rng.integers(2, n + 1))
        lines.append([int(v) for v in rng.choice(n, size=size, replace=False)])
    return build(lines, stations), stations


class TestBuild:
    def test_path_graph(self):
        net = build([[0, 1, 2]], pts((0, 0), (1000, 0), (3000, 0)))
        assert {(a, b) for a, b, _ in net.edges} == {(0, 1), (1, 2)}

    def test_loop_in_line(self):
        with pytest.raises(LoopInLine):
            build([[0, 1, 0]], pts((0, 0), (1000, 0)))

    def test_line_too_short(self):
        with pytest.raises(LineTooShort):
            build([[0]], pts((0, 0), (1000, 0)))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            build([[0, 5]], pts((0, 0), (1000, 0)))

    def test_shared_edge_stored_once(self):
        net = build([[0, 1, 2], [2, 1, 3]], pts((0, 0), (1000, 0), (2000, 0), (1000, 1000)))
        assert {(a, b) for a, b, _ in net.edges} == {(0, 1), (1, 2), (1, 3)}
        lengths = {(a, b): w for a, b, w in net.edges}
        assert lengths[(1, 2)] == pytest.approx(1000.0)

    def test_lengths_equal_scalar_hypot(self):
        # one vectorized hypot per line gives each edge the bits of a scalar call
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            xy = rng.uniform(-50000, 50000, (n, 2)) * 10.0 ** rng.uniform(-3, 1, (n, 1))
            lines = []
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(2, n + 1))
                lines.append([int(v) for v in rng.choice(n, size=size, replace=False)])
            net = build(lines, pts(*xy))
            want = {}
            for line in lines:
                for a, b in zip(line, line[1:]):
                    want.setdefault((min(a, b), max(a, b)), float(np.hypot(*(xy[a] - xy[b]))))
            assert net.edges == tuple((a, b, w) for (a, b), w in sorted(want.items()))


class TestConnectivity:
    def test_two_lines_chained(self):
        net = build([[0, 1], [1, 2]], pts((0, 0), (1000, 0), (2000, 0)))
        assert is_connected(net)

    def test_two_components(self):
        net = build([[0, 1], [2, 3]], pts((0, 0), (1000, 0), (5000, 0), (6000, 0)))
        assert not is_connected(net)

    def test_uncovered_station_disconnects(self):
        net = build([[0, 1, 2]], pts((0, 0), (1000, 0), (2000, 0), (9000, 9000)))
        assert not is_connected(net)


class TestAllPairs:
    def test_path_distances(self):
        net = build([[0, 1, 2]], pts((0, 0), (1000, 0), (3000, 0)))
        dm = all_pairs_distances(net)
        assert dm.reachable
        assert dm.d[0, 2] == pytest.approx(3000.0)
        assert dm.d[0, 1] == pytest.approx(1000.0)

    def test_triangle_prefers_direct_edge(self):
        # sides 3000 / 4000 / 6000: direct 6000 beats the 7000 detour
        cx = 29e6 / 12000.0
        cy = math.sqrt(9e6 - cx * cx)
        stations = pts((0, 0), (6000, 0), (cx, cy))
        net = build([[0, 2, 1], [0, 1]], stations)
        dm = all_pairs_distances(net)
        assert dm.d[0, 1] == pytest.approx(6000.0)
        assert dm.d[0, 2] == pytest.approx(3000.0)
        assert dm.d[1, 2] == pytest.approx(4000.0)

    def test_disconnected_reports_not_raises(self):
        net = build([[0, 1]], pts((0, 0), (1000, 0), (5000, 5000)))
        dm = all_pairs_distances(net)
        assert not dm.reachable
        assert math.isinf(dm.d[0, 2])
        assert dm.d[0, 1] == pytest.approx(1000.0)

    def test_matrix_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        net, _ = random_connected_network(rng)
        dm = all_pairs_distances(net)
        assert np.allclose(dm.d, dm.d.T)
        assert np.all(np.diag(dm.d) == 0.0)

    def test_agrees_with_floyd_warshall(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            net, _ = random_connected_network(rng)
            dm = all_pairs_distances(net)
            want = floyd_warshall_oracle(net.station_count, net.edges)
            assert np.allclose(dm.d, want, rtol=1e-9, atol=1e-9)

    def test_tree_distances_are_unique_path_sums(self):
        # star + tails: every pair has exactly one path
        stations = pts((0, 0), (2000, 0), (0, 1500), (-1000, 0), (2000, 2000))
        net = build([[3, 0, 1, 4], [2, 0]], stations)
        dm = all_pairs_distances(net)
        assert dm.d[2, 4] == pytest.approx(1500.0 + 2000.0 + 2000.0)
        assert dm.d[3, 1] == pytest.approx(1000.0 + 2000.0)

    def test_distance_at_least_euclidean(self):
        rng = np.random.default_rng(29)
        net, stations = random_connected_network(rng)
        dm = all_pairs_distances(net)
        sxy = np.array([(p.x, p.y) for p in stations])
        diff = sxy[:, None, :] - sxy[None, :, :]
        euclid = np.sqrt((diff**2).sum(axis=2))
        assert np.all(dm.d >= euclid - 1e-6)

    def test_adding_edge_never_increases(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net, stations = random_connected_network(rng, n=7)
            base = all_pairs_distances(net).d
            a, b = (int(v) for v in rng.choice(7, size=2, replace=False))
            grown = build([list(l) for l in net.lines] + [[a, b]], stations)
            denser = all_pairs_distances(grown).d
            assert np.all(denser <= base + 1e-9)


class TestTransferPenalty:
    def test_zero_penalty_matches_default(self):
        rng = np.random.default_rng(37)
        net, _ = random_connected_network(rng)
        base = all_pairs_distances(net).d
        same = all_pairs_distances(net, transfer_penalty_m=0.0).d
        assert np.allclose(base, same)

    def test_single_transfer_costs_penalty(self):
        # two lines crossing at station 1
        stations = pts((0, 0), (1000, 0), (2000, 0), (1000, -1000), (1000, 1000))
        net = build([[0, 1, 2], [3, 1, 4]], stations)
        dm = all_pairs_distances(net, transfer_penalty_m=300.0)
        assert dm.d[0, 2] == pytest.approx(2000.0)  # same line: no transfer
        assert dm.d[0, 3] == pytest.approx(1000.0 + 1000.0 + 300.0)
        assert dm.d[3, 4] == pytest.approx(2000.0)  # same line through the hub

    def test_penalty_never_shrinks_distances(self):
        rng = np.random.default_rng(41)
        net, _ = random_connected_network(rng)
        base = all_pairs_distances(net).d
        taxed = all_pairs_distances(net, transfer_penalty_m=500.0).d
        assert np.all(taxed >= base - 1e-9)


def random_network(rng, n):
    """Random stations and 1-3 random lines; often disconnected or leaving stations uncovered."""
    stations = pts(*rng.uniform(-5000, 5000, (n, 2)))
    lines = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(2, n + 1))
        lines.append([int(v) for v in rng.choice(n, size=size, replace=False)])
    return build(lines, stations)


class TestDijkstraReference:
    # Floyd-Warshall and Dijkstra sum the same edge lengths in different
    # orders; float64 keeps that drift far below this tolerance.
    RTOL = 1e-12

    @pytest.mark.parametrize("penalty", [0.0, 250.0, 4000.0])
    def test_matches_production(self, penalty):
        rng = np.random.default_rng(53)
        nets = [random_network(rng, int(rng.integers(2, 12))) for _ in range(40)]
        nets += [random_connected_network(rng, n=int(rng.integers(3, 15)))[0] for _ in range(25)]
        for net in nets:
            got = all_pairs_distances(net, transfer_penalty_m=penalty)
            want = dijkstra_reference(net, penalty)
            np.testing.assert_allclose(got.d, want, rtol=self.RTOL, atol=0.0)
            assert got.reachable == bool(np.isfinite(want).all())

    @settings(max_examples=200, deadline=None)
    @given(layouts())
    def test_matches_production_on_layouts(self, layout):
        n, stations, lines = layout
        net = build(lines, stations)
        for penalty in (0.0, 250.0):
            got = all_pairs_distances(net, transfer_penalty_m=penalty)
            want = dijkstra_reference(net, penalty)
            np.testing.assert_allclose(got.d, want, rtol=self.RTOL, atol=0.0)
            assert got.reachable == bool(np.isfinite(want).all())

    @pytest.mark.parametrize("penalty", [0.0, 250.0])
    def test_many_transfer_stations(self, penalty):
        # 150 stations on 8 lines of 29-30 stops: many stations lie on two
        # lines, station 7 on four, and stations 0-6 on none
        rng = np.random.default_rng(61)
        stations = pts(*rng.uniform(-20000, 20000, (150, 2)))
        lines = [[int(v) for v in rng.choice(np.arange(8, 150), size=29, replace=False)]
                 for _ in range(8)]
        for line in lines[:4]:
            line.insert(int(rng.integers(len(line) + 1)), 7)
        net = build(lines, stations)
        lines_at = np.bincount([s for line in lines for s in line], minlength=150)
        assert (lines_at >= 2).sum() > 40 and lines_at.max() >= 4 and (lines_at == 0).any()
        got = all_pairs_distances(net, transfer_penalty_m=penalty)
        want = dijkstra_reference(net, penalty)
        np.testing.assert_allclose(got.d, want, rtol=self.RTOL, atol=0.0)
        assert not got.reachable

    @pytest.mark.parametrize("penalty", [0.0, 250.0])
    def test_stations_on_no_line_keep_inf_rows(self, penalty):
        stations = pts((0, 0), (1000, 0), (2000, 0), (9000, 9000), (3000, 0), (-4000, 0))
        net = build([[0, 1, 2], [4, 2, 1]], stations)
        d = all_pairs_distances(net, transfer_penalty_m=penalty).d
        for s in (3, 5):
            assert d[s, s] == 0.0
            assert np.isinf(np.delete(d[s], s)).all()
            assert np.isinf(np.delete(d[:, s], s)).all()
        assert np.isfinite(d[np.ix_([0, 1, 2, 4], [0, 1, 2, 4])]).all()


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_connectivity_routines_agree(layout):
    n, stations, lines = layout
    net = build(lines, stations)
    connected = is_connected(net)
    assert all_pairs_distances(net).reachable == connected
    assert (len(set(components(lines, n))) == 1) == connected
    repaired = repair(LineGenome(tuple(tuple(line) for line in lines)), station_distances(stations))
    assert is_connected(build(repaired.lines, stations))


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_edge_lengths_are_station_distances(layout):
    """An edge's length and the stations' distance-matrix entry are the same bits."""
    _, stations, lines = layout
    dist = station_distances(stations)
    edges = build(lines, stations).edges
    assert edges
    for a, b, length in edges:
        assert length == dist[a, b] == dist[b, a]
