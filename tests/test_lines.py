"""Line-layout stage tests: fitness, the six mutations, repair, small optimizations."""
import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layouts
from metronet import netgraph
from metronet.errors import RepairFailed, TooFewStations
from metronet.evolve import GaConfig
from metronet.geomodel import PlanarPoint, station_xy
from metronet.lines import (
    LineGenome,
    LineStageConfig,
    add_station,
    canonical,
    crossover_lines,
    exchange_within_line,
    init_lines,
    line_fitness,
    mutate_line,
    optimize_lines,
    remove_station,
    repair,
    reverse_segment,
    swap_between_lines,
    transfer_station,
)
from metronet.netgraph import build, is_connected


def pts(*xy):
    return [PlanarPoint(float(x), float(y)) for x, y in xy]


class ScriptedRng:
    """Replays queued draws so operator examples are checked verbatim."""

    def __init__(self, integers=(), choices=()):
        self._integers = list(integers)
        self._choices = list(choices)

    def integers(self, *args, **kwargs):
        return self._integers.pop(0)

    def choice(self, n, size=None, replace=True):
        return np.array(self._choices.pop(0))


def assert_valid_genome(genome, station_count, line_count=None):
    if line_count is not None:
        assert len(genome.lines) == line_count
    for line in genome.lines:
        assert len(line) >= 2
        assert len(set(line)) == len(line)
        assert all(0 <= s < station_count for s in line)


def placements(genome):
    return sorted(s for line in genome.lines for s in line)


class TestLineFitness:
    def test_single_pair(self):
        stations = pts((0, 0), (2000, 0))
        f = line_fitness(LineGenome(((0, 1),)), stations, [1000.0, 3000.0])
        assert f.feasible
        assert f.value == pytest.approx(2000.0 * 4000.0)

    def test_three_station_path_by_hand(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        f = line_fitness(LineGenome(((0, 1, 2),)), stations, [1.0, 1.0, 1.0])
        # pairs: (0,1) 1000*2 + (1,2) 1000*2 + (0,2) 2000*2
        assert f.value == pytest.approx(8000.0)

    def test_disconnected_gets_finite_dominant_penalty(self):
        stations = pts((0, 0), (1000, 0), (5000, 0), (6000, 0))
        s = [10.0, 10.0, 10.0, 10.0]
        broken = line_fitness(LineGenome(((0, 1), (2, 3))), stations, s)
        assert not broken.feasible
        assert math.isfinite(broken.value)
        connected = line_fitness(LineGenome(((0, 1, 2, 3),)), stations, s)
        assert connected.feasible
        assert broken.value > 100 * connected.value

    def test_matches_pairwise_loop_oracle(self):
        rng = np.random.default_rng(0)
        stations = pts(*rng.uniform(-4000, 4000, (8, 2)))
        s = rng.uniform(10, 1000, 8)
        genome = repair(LineGenome((tuple(int(v) for v in rng.permutation(8)),)), stations)
        f = line_fitness(genome, stations, s)
        net = build(genome.lines, stations)
        # oracle: Floyd-Warshall plus explicit pair loop
        d = np.full((8, 8), np.inf)
        np.fill_diagonal(d, 0.0)
        for a, b, w in net.edges:
            d[a, b] = d[b, a] = w
        for k in range(8):
            d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
        want = 0.0
        for i in range(8):
            for j in range(i + 1, 8):
                want += d[i, j] * (s[i] + s[j])
        assert f.value == pytest.approx(want, rel=1e-9)


class TestMutationOperators:
    def test_reverse_segment_example(self):
        # positions 1..3 of a 5-station line flip in place
        genome = LineGenome(((10, 11, 12, 13, 14),))
        rng = ScriptedRng(integers=[0], choices=[[1, 3]])
        assert reverse_segment(genome, rng).lines[0] == (10, 13, 12, 11, 14)

    def test_exchange_example(self):
        genome = LineGenome(((10, 11, 12, 13),))
        rng = ScriptedRng(integers=[0], choices=[[0, 2]])
        assert exchange_within_line(genome, rng).lines[0] == (12, 11, 10, 13)

    def test_remove_guard_on_two_station_line(self):
        genome = LineGenome(((0, 1), (2, 3, 4)))
        rng = ScriptedRng(integers=[0])  # picks the 2-station line
        assert remove_station(genome, rng) is None

    def test_remove_from_long_line(self):
        genome = LineGenome(((0, 1, 2),))
        rng = ScriptedRng(integers=[0, 1])
        assert remove_station(genome, rng).lines[0] == (0, 2)

    def test_add_duplicate_is_inapplicable(self):
        genome = LineGenome(((0, 1),))
        # both stations already present: no candidates
        assert add_station(genome, 2, ScriptedRng(integers=[0])) is None

    def test_add_inserts_at_every_position(self):
        genome = LineGenome(((0, 1),))
        results = set()
        for pos in range(3):
            rng = ScriptedRng(integers=[0, 0, pos])  # line 0, candidate 2, position
            results.add(add_station(genome, 3, rng).lines[0])
        assert results == {(2, 0, 1), (0, 2, 1), (0, 1, 2)}

    def test_swap_between_lines(self):
        genome = LineGenome(((0, 1), (2, 3)))
        rng = ScriptedRng(integers=[0, 1], choices=[[0, 1]])  # swap station 0 with 3
        swapped = swap_between_lines(genome, rng)
        assert swapped.lines == ((3, 1), (2, 0))

    def test_swap_rejects_duplicate_result(self):
        # station 1 is shared; pulling it into line 0 would duplicate it there
        genome = LineGenome(((0, 1), (1, 2)))
        rng = ScriptedRng(integers=[0, 0], choices=[[0, 1]])
        assert swap_between_lines(genome, rng) is None

    def test_transfer_moves_one_station(self):
        genome = LineGenome(((0, 1, 2), (3, 4)))
        rng = ScriptedRng(integers=[1, 1], choices=[[0, 1]])  # move station 1 into line 1 at slot 1
        moved = transfer_station(genome, rng)
        assert moved.lines == ((0, 2), (3, 1, 4))

    def test_transfer_guard_short_donor(self):
        genome = LineGenome(((0, 1), (2, 3)))
        rng = ScriptedRng(choices=[[0, 1]])
        assert transfer_station(genome, rng) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_mutate_line_outputs_stay_unique_per_line(self, seed):
        genome = LineGenome(((0, 1, 2), (3, 4), (5, 6, 7)))
        rng = np.random.default_rng(seed)
        mutated = mutate_line(genome, 8, rng)
        for line in mutated.lines:
            assert len(line) >= 2
            assert len(set(line)) == len(line)
        assert len(mutated.lines) == 3

    def test_multiset_invariants_per_type(self):
        genome = LineGenome(((0, 1, 2, 3), (4, 5, 6)))
        for seed in range(60):
            rng = np.random.default_rng(seed)
            out = exchange_within_line(genome, rng)
            assert sorted(map(sorted, out.lines)) == sorted(map(sorted, genome.lines))
            rng = np.random.default_rng(seed)
            out = reverse_segment(genome, rng)
            assert sorted(map(sorted, out.lines)) == sorted(map(sorted, genome.lines))
            rng = np.random.default_rng(seed)
            out = swap_between_lines(genome, rng)
            if out is not None:
                assert [len(l) for l in out.lines] == [4, 3]
                assert placements(out) == placements(genome)
            rng = np.random.default_rng(seed)
            out = transfer_station(genome, rng)
            if out is not None:
                assert sorted(len(l) for l in out.lines) in ([3, 4], [2, 5])
                assert placements(out) == placements(genome)
            rng = np.random.default_rng(seed)
            out = remove_station(genome, rng)
            if out is not None:
                assert len(placements(out)) == len(placements(genome)) - 1
            rng = np.random.default_rng(seed)
            out = add_station(genome, 9, rng)
            if out is not None:
                assert len(placements(out)) == len(placements(genome)) + 1


class TestCrossover:
    def test_identical_parents(self):
        genome = LineGenome(((0, 1), (2, 3)))
        a, b = crossover_lines(genome, genome, np.random.default_rng(0))
        assert a == genome and b == genome

    def test_single_line_swaps_entirely(self):
        pa = LineGenome(((0, 1, 2),))
        pb = LineGenome(((3, 4),))
        a, b = crossover_lines(pa, pb, np.random.default_rng(1))
        assert a == pb and b == pa

    def test_three_lines_swap_index_one(self):
        pa = LineGenome(((0, 1), (2, 3), (4, 5)))
        pb = LineGenome(((6, 7), (8, 9), (10, 11)))
        rng = ScriptedRng(integers=[1])
        a, b = crossover_lines(pa, pb, rng)
        assert a.lines == ((0, 1), (8, 9), (4, 5))
        assert b.lines == ((6, 7), (2, 3), (10, 11))


class TestRepair:
    def test_connected_genome_unchanged(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        genome = LineGenome(((0, 1, 2),))
        assert repair(genome, stations) is genome

    def test_bridges_two_components(self):
        stations = pts((0, 0), (1000, 0), (2000, 0), (3000, 0))
        repaired = repair(LineGenome(((0, 1), (2, 3))), stations)
        assert is_connected(build(repaired.lines, stations))
        assert len(repaired.lines) == 2

    def test_uncovered_station_appended_to_nearest_end(self):
        stations = pts((0, 0), (1000, 0), (2000, 0), (2500, 0))
        repaired = repair(LineGenome(((0, 1, 2),)), stations)
        assert repaired.lines == ((0, 1, 2, 3),)

    def test_uncovered_station_zero(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        repaired = repair(LineGenome(((1, 2),)), stations)
        assert is_connected(build(repaired.lines, stations))
        assert repaired.lines == ((0, 1, 2),)

    def test_duplicates_deleted_then_reconnected(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        repaired = repair(LineGenome(((0, 1, 0, 2),)), stations)
        assert repaired.lines == ((0, 1, 2),)

    def test_line_shrunk_below_two_padded(self):
        stations = pts((0, 0), (1000, 0), (5000, 0))
        repaired = repair(LineGenome(((0, 0), (0, 1, 2))), stations)
        assert_valid_genome(repaired, 3, line_count=2)
        assert is_connected(build(repaired.lines, stations))

    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent_on_random_genomes(self, seed):
        rng = np.random.default_rng(seed)
        stations = pts(*rng.uniform(-5000, 5000, (7, 2)))
        raw_lines = []
        for _ in range(3):
            size = int(rng.integers(2, 5))
            raw_lines.append(tuple(int(v) for v in rng.choice(7, size=size, replace=False)))
        once = repair(LineGenome(tuple(raw_lines)), stations)
        twice = repair(once, stations)
        assert twice == once
        assert twice is once  # unchanged input comes back as the same object
        assert_valid_genome(once, 7, line_count=3)
        assert is_connected(build(once.lines, stations))


def relabeling_repair_reference(genome, stations):
    """Repair as a loop that labels the components again after every attach.

    Production labels them once and grows station 0's component in place;
    both must attach the same stations in the same order.
    """
    sxy = station_xy(stations)
    n = len(sxy)
    changed = False
    lines = []
    for line in genome.lines:
        deduped = tuple(dict.fromkeys(line))
        if deduped != tuple(line):
            changed = True
        if len(deduped) < 2:
            others = np.setdiff1d(np.arange(n), deduped)
            dist = np.hypot(*(sxy[others] - sxy[deduped[0]]).T)
            deduped = deduped + (int(others[int(np.argmin(dist))]),)
            changed = True
        lines.append(deduped)

    def attach(candidates, v):
        _, li, end = min(
            (dmat[line_end, v], li, end)
            for li in candidates
            for end, line_end in ((0, lines[li][-1]), (1, lines[li][0]))
        )
        lines[li] = lines[li] + (v,) if end == 0 else (v,) + lines[li]

    diff = sxy[:, None, :] - sxy[None, :, :]
    dmat = np.sqrt((diff * diff).sum(axis=2))
    for _ in range(n + 1):
        comp = netgraph.components(lines, n)
        root0 = comp[0]
        if all(c == root0 for c in comp):
            break
        changed = True
        inside = np.array([c == root0 for c in comp])
        line_in_c0 = [li for li, line in enumerate(lines) if comp[line[0]] == root0]
        if line_in_c0:
            sub = dmat[np.ix_(inside.nonzero()[0], (~inside).nonzero()[0])]
            attach(line_in_c0, int((~inside).nonzero()[0][int(np.argmin(sub.min(axis=0)))]))
        else:
            attach(range(len(lines)), 0)
    else:
        raise RepairFailed("connectivity loop exceeded the station count")
    return LineGenome(tuple(lines)) if changed else genome


@settings(max_examples=300, deadline=None)
@given(layouts(), st.booleans())
def test_repair_matches_relabeling_reference(layout, drop_station_zero):
    n, stations, lines = layout
    if drop_station_zero:
        lines = [[s for s in line if s != 0] for line in lines]
    genome = LineGenome(tuple(tuple(line) for line in lines))
    assert repair(genome, stations) == relabeling_repair_reference(genome, stations)


class TestInitLines:
    def test_two_stations_single_line(self):
        stations = pts((0, 0), (1000, 0))
        pop = init_lines(stations, 1, 10, np.random.default_rng(0))
        for genome in pop:
            assert canonical(genome) == LineGenome(((0, 1),))

    def test_too_few_stations(self):
        with pytest.raises(TooFewStations):
            init_lines(pts((0, 0)), 1, 5, np.random.default_rng(0))

    def test_more_lines_than_station_pairs(self):
        rng = np.random.default_rng(1)
        stations = pts(*rng.uniform(-3000, 3000, (5, 2)))
        pop = init_lines(stations, 5, 20, np.random.default_rng(2))
        for genome in pop:
            assert_valid_genome(genome, 5, line_count=5)
            assert is_connected(build(genome.lines, stations))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        stations = pts(*rng.uniform(-3000, 3000, (9, 2)))
        pop1 = init_lines(stations, 3, 15, np.random.default_rng(7))
        pop2 = init_lines(stations, 3, 15, np.random.default_rng(7))
        assert pop1 == pop2


class TestCanonical:
    def test_orientation_collapses(self):
        a = LineGenome(((2, 1, 0), (3, 4)))
        b = LineGenome(((0, 1, 2), (4, 3)))
        assert canonical(a) == canonical(b)


def exhaustive_single_line_optimum(stations, s):
    """Enumerate all distinct orderings (reversals collapsed) of one full line."""
    n = len(stations)
    sxy = np.array([(p.x, p.y) for p in stations])
    best_value, best_order = math.inf, None
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        # path distances via prefix sums along the line (independent of netgraph)
        edge = [float(np.hypot(*(sxy[a] - sxy[b]))) for a, b in zip(perm, perm[1:])]
        prefix = np.concatenate([[0.0], np.cumsum(edge)])
        value = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(prefix[j] - prefix[i])
                value += d * (s[perm[i]] + s[perm[j]])
        if value < best_value:
            best_value, best_order = value, perm
    return best_value, best_order


class TestLineStageConfig:
    @pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf, -1.0])
    def test_transfer_penalty_must_be_finite_and_non_negative(self, penalty):
        with pytest.raises(ValueError, match="transfer_penalty_m"):
            LineStageConfig(transfer_penalty_m=penalty)

    @pytest.mark.parametrize("penalty", [0.0, 250.0])
    def test_finite_penalty_accepted(self, penalty):
        assert LineStageConfig(transfer_penalty_m=penalty).transfer_penalty_m == penalty

    def test_line_count_must_be_positive(self):
        with pytest.raises(ValueError, match="line_count"):
            LineStageConfig(line_count=0)


class TestOptimizeLines:
    def test_two_stations_forced_topology(self):
        stations = pts((0, 0), (3000, 0))
        s = [500.0, 1500.0]
        cfg = LineStageConfig(line_count=1, ga=GaConfig(population_size=4, generations=2, rng_seed=0))
        best, _ = optimize_lines(stations, s, cfg)
        assert canonical(best) == LineGenome(((0, 1),))
        assert line_fitness(best, stations, s).value == pytest.approx(3000.0 * 2000.0)

    def test_five_stations_single_line_hits_exhaustive_optimum(self):
        rng = np.random.default_rng(11)
        stations = pts(*rng.uniform(-5000, 5000, (5, 2)))
        s = [float(v) for v in rng.uniform(100, 1000, 5)]
        oracle, _ = exhaustive_single_line_optimum(stations, s)
        cfg = LineStageConfig(
            line_count=1, ga=GaConfig(population_size=40, generations=200, rng_seed=5)
        )
        best, history = optimize_lines(stations, s, cfg)
        got = line_fitness(best, stations, s).value
        assert got == pytest.approx(oracle, rel=1e-9)
        values = history.best_values()
        assert all(b2 <= b1 for b1, b2 in zip(values, values[1:]))

    def test_six_stations_two_lines_close_to_exhaustive(self):
        rng = np.random.default_rng(13)
        stations = pts(*rng.uniform(-5000, 5000, (6, 2)))
        s = np.asarray(rng.uniform(100, 1000, 6))
        oracle = exhaustive_two_line_optimum(stations, s)
        cfg = LineStageConfig(
            line_count=2, ga=GaConfig(population_size=50, generations=120, rng_seed=3)
        )
        best, _ = optimize_lines(stations, [float(v) for v in s], cfg)
        got = line_fitness(best, stations, [float(v) for v in s]).value
        assert got <= 1.05 * oracle


def exhaustive_two_line_optimum(stations, s):
    """Minimum fitness over every connected two-line layout covering all stations.

    Oracle route: line pairs are enumerated by bitmask (connected iff they
    overlap and cover everything), distances come from a batched
    Floyd-Warshall, never from the production netgraph.all_pairs_distances.
    """
    n = len(stations)
    sxy = np.array([(p.x, p.y) for p in stations])
    diff = sxy[:, None, :] - sxy[None, :, :]
    euclid = np.sqrt((diff**2).sum(axis=2))

    all_lines = []
    for k in range(2, n + 1):
        for combo in combinations(range(n), k):
            for perm in permutations(combo):
                if perm[0] < perm[-1]:
                    all_lines.append(perm)
    masks = np.array([sum(1 << v for v in line) for line in all_lines])
    full = (1 << n) - 1

    # per-line adjacency matrices
    m = len(all_lines)
    adj = np.full((m, n, n), np.inf)
    adj[:, range(n), range(n)] = 0.0
    for idx, line in enumerate(all_lines):
        for a, b in zip(line, line[1:]):
            w = euclid[a, b]
            adj[idx, a, b] = min(adj[idx, a, b], w)
            adj[idx, b, a] = adj[idx, a, b]

    pair_i, pair_j = [], []
    for i in range(m):
        union = masks[i] | masks
        inter = masks[i] & masks
        ok = np.nonzero((union == full) & (inter != 0))[0]
        ok = ok[ok >= i]
        pair_i.extend([i] * len(ok))
        pair_j.extend(ok.tolist())
    pair_i = np.array(pair_i)
    pair_j = np.array(pair_j)

    weight = s[:, None] + s[None, :]
    iu = np.triu_indices(n, 1)
    best = math.inf
    for start in range(0, len(pair_i), 20_000):
        sl = slice(start, start + 20_000)
        d = np.minimum(adj[pair_i[sl]], adj[pair_j[sl]])
        for k in range(n):
            np.minimum(d, d[:, :, k, None] + d[:, None, k, :], out=d)
        values = (d[:, iu[0], iu[1]] * weight[iu]).sum(axis=1)
        best = min(best, float(values.min()))
    return best
