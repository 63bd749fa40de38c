"""Network graph tests: construction, connectivity, shortest paths.

Production seeds a distance matrix with along-line distances, runs
Floyd-Warshall on the block of transfer nodes only and fills every other
row from its line's two nearest transfer stops. The references in conftest are
independent of it: a station-level Floyd-Warshall over every station and a
heapq Dijkstra, plain and with transfer penalties, both on edge lengths
computed from the coordinates.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import dijkstra_reference, floyd_warshall_oracle, layouts, line_edges
from metronet.errors import InvalidLayout
from metronet.geomodel import station_distances
from metronet.lines import repair
from metronet.netgraph import all_pairs_distances, build, components


def pts(*xy):
    return np.array(xy, dtype=float).reshape(-1, 2)


def component_count(lines, n):
    return len(set(components(lines, n)))


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
        assert net.lines == ((0, 1, 2),)
        assert [w.tolist() for w in net.lengths] == [[1000.0, 2000.0]]

    def test_loop_in_line(self):
        with pytest.raises(InvalidLayout, match="line 0: loop, station 0 visited twice"):
            build([[0, 1, 0]], pts((0, 0), (1000, 0)))

    def test_line_too_short(self):
        with pytest.raises(InvalidLayout, match=r"line 0 has 1 station\(s\), need >= 2"):
            build([[0]], pts((0, 0), (1000, 0)))

    def test_index_out_of_range(self):
        with pytest.raises(InvalidLayout, match=r"line 0: station index 5 out of range \[0, 2\)"):
            build([[0, 5]], pts((0, 0), (1000, 0)))

    def test_shared_edge_kept_on_each_line(self):
        # both lines run between stations 1 and 2, in opposite directions
        net = build([[0, 1, 2], [2, 1, 3]], pts((0, 0), (1000, 0), (2000, 0), (1000, 1500)))
        assert [w.tolist() for w in net.lengths] == [[1000.0, 1000.0], [1000.0, 1500.0]]

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
            assert len(net.lengths) == len(lines)
            for line, got in zip(lines, net.lengths):
                assert got.tolist() == [float(np.hypot(*(xy[a] - xy[b]))) for a, b in zip(line, line[1:])]


class TestConnectivity:
    def test_two_lines_chained(self):
        assert component_count([[0, 1], [1, 2]], 3) == 1

    def test_two_components(self):
        assert component_count([[0, 1], [2, 3]], 4) == 2

    def test_uncovered_station_disconnects(self):
        assert component_count([[0, 1, 2]], 4) == 2


class TestAllPairs:
    def test_path_distances(self):
        net = build([[0, 1, 2]], pts((0, 0), (1000, 0), (3000, 0)))
        d = all_pairs_distances(net)
        assert np.isfinite(d).all()
        assert d[0, 2] == pytest.approx(3000.0)
        assert d[0, 1] == pytest.approx(1000.0)

    def test_triangle_prefers_direct_edge(self):
        # sides 3000 / 4000 / 6000: direct 6000 beats the 7000 detour
        cx = 29e6 / 12000.0
        cy = math.sqrt(9e6 - cx * cx)
        stations = pts((0, 0), (6000, 0), (cx, cy))
        net = build([[0, 2, 1], [0, 1]], stations)
        d = all_pairs_distances(net)
        assert d[0, 1] == pytest.approx(6000.0)
        assert d[0, 2] == pytest.approx(3000.0)
        assert d[1, 2] == pytest.approx(4000.0)

    def test_disconnected_reports_not_raises(self):
        net = build([[0, 1]], pts((0, 0), (1000, 0), (5000, 5000)))
        d = all_pairs_distances(net)
        assert not np.isfinite(d).all()
        assert math.isinf(d[0, 2])
        assert d[0, 1] == pytest.approx(1000.0)

    def test_matrix_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        net, _ = random_connected_network(rng)
        d = all_pairs_distances(net)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_agrees_with_floyd_warshall(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            net, stations = random_connected_network(rng)
            want = floyd_warshall_oracle(net.station_count, line_edges(net.lines, stations))
            assert np.allclose(all_pairs_distances(net), want, rtol=1e-9, atol=1e-9)

    def test_tree_distances_are_unique_path_sums(self):
        # star + tails: every pair has exactly one path
        stations = pts((0, 0), (2000, 0), (0, 1500), (-1000, 0), (2000, 2000))
        net = build([[3, 0, 1, 4], [2, 0]], stations)
        d = all_pairs_distances(net)
        assert d[2, 4] == pytest.approx(1500.0 + 2000.0 + 2000.0)
        assert d[3, 1] == pytest.approx(1000.0 + 2000.0)

    def test_distance_at_least_euclidean(self):
        rng = np.random.default_rng(29)
        net, stations = random_connected_network(rng)
        d = all_pairs_distances(net)
        diff = stations[:, None, :] - stations[None, :, :]
        euclid = np.sqrt((diff**2).sum(axis=2))
        assert np.all(d >= euclid - 1e-6)

    def test_adding_edge_never_increases(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net, stations = random_connected_network(rng, n=7)
            base = all_pairs_distances(net)
            a, b = (int(v) for v in rng.choice(7, size=2, replace=False))
            grown = build([list(l) for l in net.lines] + [[a, b]], stations)
            denser = all_pairs_distances(grown)
            assert np.all(denser <= base + 1e-9)


class TestTransferPenalty:
    def test_zero_penalty_matches_default(self):
        rng = np.random.default_rng(37)
        net, _ = random_connected_network(rng)
        base = all_pairs_distances(net)
        same = all_pairs_distances(net, transfer_penalty_m=0.0)
        assert np.allclose(base, same)

    def test_single_transfer_costs_penalty(self):
        # two lines crossing at station 1
        stations = pts((0, 0), (1000, 0), (2000, 0), (1000, -1000), (1000, 1000))
        net = build([[0, 1, 2], [3, 1, 4]], stations)
        d = all_pairs_distances(net, transfer_penalty_m=300.0)
        assert d[0, 2] == pytest.approx(2000.0)  # same line: no transfer
        assert d[0, 3] == pytest.approx(1000.0 + 1000.0 + 300.0)
        assert d[3, 4] == pytest.approx(2000.0)  # same line through the hub

    def test_penalty_never_shrinks_distances(self):
        rng = np.random.default_rng(41)
        net, _ = random_connected_network(rng)
        base = all_pairs_distances(net)
        taxed = all_pairs_distances(net, transfer_penalty_m=500.0)
        assert np.all(taxed >= base - 1e-9)


def random_network(rng, n):
    """Random stations and 1-3 random lines; often disconnected or leaving stations uncovered."""
    stations = pts(*rng.uniform(-5000, 5000, (n, 2)))
    lines = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(2, n + 1))
        lines.append([int(v) for v in rng.choice(n, size=size, replace=False)])
    return build(lines, stations), stations


class TestDijkstraReference:
    # Floyd-Warshall and Dijkstra sum the same edge lengths in different
    # orders; float64 keeps that drift far below this tolerance.
    RTOL = 1e-12

    @pytest.mark.parametrize("penalty", [0.0, 250.0, 4000.0])
    def test_matches_production(self, penalty):
        rng = np.random.default_rng(53)
        nets = [random_network(rng, int(rng.integers(2, 12))) for _ in range(40)]
        nets += [random_connected_network(rng, n=int(rng.integers(3, 15))) for _ in range(25)]
        for net, stations in nets:
            got = all_pairs_distances(net, transfer_penalty_m=penalty)
            want = dijkstra_reference(stations, net.lines, penalty)
            np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(layouts())
    def test_matches_production_on_layouts(self, layout):
        n, stations, lines = layout
        net = build(lines, stations)
        for penalty in (0.0, 250.0):
            got = all_pairs_distances(net, transfer_penalty_m=penalty)
            want = dijkstra_reference(stations, lines, penalty)
            np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0.0)
            # line_fitness sums whole rows, which needs exact symmetry and a zero diagonal
            assert np.array_equal(got, got.T)
            assert np.all(np.diag(got) == 0.0)

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
        want = dijkstra_reference(stations, lines, penalty)
        np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0.0)
        assert not np.isfinite(got).all()

    @pytest.mark.parametrize("penalty", [0.0, 250.0])
    def test_stations_on_no_line_keep_inf_rows(self, penalty):
        stations = pts((0, 0), (1000, 0), (2000, 0), (9000, 9000), (3000, 0), (-4000, 0))
        net = build([[0, 1, 2], [4, 2, 1]], stations)
        d = all_pairs_distances(net, transfer_penalty_m=penalty)
        for s in (3, 5):
            assert d[s, s] == 0.0
            assert np.isinf(np.delete(d[s], s)).all()
            assert np.isinf(np.delete(d[:, s], s)).all()
        assert np.isfinite(d[np.ix_([0, 1, 2, 4], [0, 1, 2, 4])]).all()


# Layouts that exercise each part of the two-exit fill: (station count, lines).
TWO_EXIT_CASES = {
    # line 2 meets no other line: its stations stay inf towards the rest
    "line_without_transfer": (8, [[0, 1, 2], [2, 3, 4], [5, 6, 7]]),
    # three lines joined end to end: every transfer is a line end
    "transfers_at_line_ends": (9, [[0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 0]]),
    # two lines share stations 1 and 5, with three and two non-transfer stops between
    "stops_between_two_transfers": (11, [[0, 1, 2, 3, 4, 5, 6], [7, 1, 8, 9, 5, 10]]),
    # station 1 is on every line, and every other stop exits only there
    "one_station_on_every_line": (8, [[0, 1, 2], [3, 1, 4], [5, 6, 1, 7]]),
    # stations 4 and 5 are on no line
    "stations_on_no_line": (6, [[0, 1, 2], [2, 3]]),
    # both lines visit every station: no non-transfer node is left
    "every_node_a_transfer": (4, [[0, 1, 2, 3], [2, 0, 3, 1]]),
}


class TestTwoExitFill:
    """Non-transfer rows come from the two nearest transfer stops of their line."""

    @pytest.mark.parametrize("penalty", [0.0, 250.0])
    @pytest.mark.parametrize("case", sorted(TWO_EXIT_CASES))
    def test_matches_dijkstra(self, case, penalty):
        n, lines = TWO_EXIT_CASES[case]
        stations = pts(*np.random.default_rng(67).uniform(-5000, 5000, (n, 2)))
        got = all_pairs_distances(build(lines, stations), transfer_penalty_m=penalty)
        np.testing.assert_allclose(got, dijkstra_reference(stations, lines, penalty),
                                   rtol=TestDijkstraReference.RTOL, atol=0.0)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)
        assert np.isfinite(got).all() == (case not in ("line_without_transfer", "stations_on_no_line"))
        if case == "line_without_transfer":
            assert np.isinf(got[5:, :5]).all() and np.isfinite(got[5:, 5:]).all()
        if case == "stations_on_no_line":
            assert np.isfinite(got[:4, :4]).all()
            assert np.isinf(got[4:, :4]).all() and got[4, 5] == np.inf


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_connectivity_routines_agree(layout):
    n, stations, lines = layout
    connected = component_count(lines, n) == 1
    assert np.isfinite(all_pairs_distances(build(lines, stations))).all() == connected
    repaired = repair(tuple(tuple(line) for line in lines), station_distances(stations))
    build(repaired, stations)  # the layout rules still hold
    assert component_count(repaired, n) == 1


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_edge_lengths_are_station_distances(layout):
    """An edge's length and the stations' distance-matrix entry are the same bits."""
    _, stations, lines = layout
    dist = station_distances(stations)
    net = build(lines, stations)
    assert len(net.lengths) == len(lines)
    for line, lengths in zip(lines, net.lengths):
        assert np.array_equal(lengths, dist[line[:-1], line[1:]])
        assert np.array_equal(lengths, dist[line[1:], line[:-1]])
