"""Line-layout stage tests: fitness, the six mutations, repair, small optimizations."""
import hashlib
import math
from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_in_step, dijkstra_reference, layouts, twin_draws
from metronet import lines as lines_module
from metronet import evolve, netgraph
from metronet.errors import InvalidLayout, MetronetError
from metronet.evolve import GaConfig
from metronet.geomodel import PLANAR_BOUND_M, station_distances
from metronet.lines import (
    LineStageConfig,
    _canonical,
    _draw_two,
    add_station,
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
from metronet.netgraph import build, components


def pts(*xy):
    return np.array(xy, dtype=float).reshape(-1, 2)


def oriented(genome):
    """Each line with its lexicographically smaller endpoint first: a line and its reverse are one track."""
    return tuple(min(line, line[::-1]) for line in genome)


def assert_connected(lines, stations):
    build(lines, stations)  # the layout rules hold too
    assert len(set(components(lines, len(stations)))) == 1


# Best layouts of the 60-station pins in test_random_stream_pinned.
SIXTY_BEST = (
    ((39, 51, 14, 36, 8, 40, 23, 7, 1, 35, 32, 52, 38),
     (20, 48, 28, 43, 15, 39, 29, 13, 17, 0, 47, 19, 59, 22, 33, 9, 10, 40, 41, 56),
     (37, 4, 33, 44, 16, 58, 22, 21, 41, 57, 45, 34, 0, 49, 19, 55, 35, 10, 31, 25),
     (58, 52, 16, 26, 9, 54, 53, 8, 30, 49, 50, 51, 43, 13),
     (3, 18, 27, 2, 5, 50, 46, 24, 47, 53, 59, 6, 44, 11, 9, 42, 15, 12)),
    ((56, 21, 10, 35, 23, 1, 25, 0, 27, 34, 17, 12, 33, 52, 16, 26, 58, 39),
     (21, 31, 30, 53, 36, 49, 55, 2, 46, 14, 54, 38, 57),
     (16, 9, 44, 15, 42, 4, 33, 46, 24, 5, 2, 32, 36, 59, 10, 40, 19, 3, 18, 47),
     (58, 9, 11, 22, 21, 1, 30, 31, 41, 37, 57, 52, 26, 28, 48, 0, 14, 45, 13, 43, 29, 20),
     (21, 37, 38, 51, 46, 27, 0, 50, 54, 10, 59, 30, 1, 8, 40, 25, 7, 6)),
    ((35, 25, 40, 8, 32, 10, 23, 4, 42, 38, 26, 39, 12, 0, 24, 17, 13, 28, 15),
     (47, 14, 33, 58, 39, 51, 34, 46, 27, 0, 2, 20, 13, 44, 53, 59, 25, 23, 3, 35, 10, 56, 1),
     (37, 31, 56, 41, 57, 16, 52, 11, 44, 9, 54, 34, 2, 19, 59, 6, 30, 29, 13, 48),
     (35, 10, 8, 6, 40, 22, 4, 57, 16, 45, 17, 43, 0, 49, 19, 3, 50, 5),
     (13, 51, 54, 18, 36, 8, 7, 30, 21, 26, 27, 49, 55)),
)


def pinned_instance(instance, seed, transfer_penalty_m=0.0):
    """Stations, serviced counts and stage-2 config of a ``test_random_stream_pinned`` instance."""
    if instance == "sixty":  # 60 stations on 5 lines over 3 generations
        rng = np.random.default_rng(89)
        stations = rng.uniform(-20000, 20000, (60, 2))
        s = rng.uniform(100, 1000, 60)
        cfg = LineStageConfig(line_count=5, ga=GaConfig(population_size=20, generations=3, rng_seed=seed))
    elif instance == "criterion4":  # the acceptance test's stations, over 20 generations
        rng = np.random.default_rng(77)
        stations = rng.uniform(-5000, 5000, (5, 2))
        s = [float(v) for v in rng.uniform(100.0, 2000.0, 5)]
        cfg = LineStageConfig(line_count=1, ga=GaConfig(population_size=40, generations=20, rng_seed=seed))
    else:  # 8 stations on 3 lines
        rng = np.random.default_rng(23)
        stations = rng.uniform(-5000, 5000, (8, 2))
        s = rng.uniform(100, 1000, 8)
        cfg = LineStageConfig(line_count=3, ga=GaConfig(population_size=20, generations=20, rng_seed=seed))
    return stations, s, replace(cfg, transfer_penalty_m=transfer_penalty_m)


def counted_optimize_lines(monkeypatch, stations, s, cfg):
    """``optimize_lines``' result and, in call order, what its GA handed the validator, what
    ``repair`` computed for it, what the GA scored, and the track sets ``line_fitness`` priced.
    """
    children, repaired, scored, priced = [], [], [], []
    validating = []
    real_run, real_repair, real_fitness = evolve.run, lines_module.repair, lines_module.line_fitness

    def run(init_fn, fitness_fn, crossover_fn, mutation_fn, validator_fn, *args, **kwargs):
        def validator(genome):
            children.append(genome)
            validating.append(genome)
            try:
                return validator_fn(genome)
            finally:
                validating.pop()

        return real_run(init_fn, lambda g: scored.append(g) or fitness_fn(g),
                        crossover_fn, mutation_fn, validator, *args, **kwargs)

    def counted_repair(genome, *args, **kwargs):
        if validating:  # init_lines repairs its chains directly
            repaired.append(genome)
        return real_repair(genome, *args, **kwargs)

    def counted_fitness(genome, *args):
        priced.append(_canonical(genome))
        return real_fitness(genome, *args)

    with monkeypatch.context() as patch:
        patch.setattr(evolve, "run", run)
        patch.setattr(lines_module, "repair", counted_repair)
        patch.setattr(lines_module, "line_fitness", counted_fitness)
        result = optimize_lines(stations, s, cfg)
    return result, children, repaired, scored, priced


class ScriptedRng:
    """Replays queued ``integers`` draws so operator examples are checked verbatim.

    Every ``integers(n)`` call takes the next value, which must lie in
    [0, n): a one-value range takes a 0, which ``Draws`` returns without
    drawing. A pair of distinct positions costs three calls, as in
    ``choice(n, 2, replace=False)``: ``integers(n - 1)``, then
    ``integers(n)``, then ``integers(2)``, whose 0 swaps the pair.
    """

    def __init__(self, integers=()):
        self._integers = list(integers)

    def integers(self, n):
        value = self._integers.pop(0)
        assert 0 <= value < n, (value, n)
        return value


def assert_valid_genome(genome, station_count, line_count=None):
    if line_count is not None:
        assert len(genome) == line_count
    for line in genome:
        assert len(line) >= 2
        assert len(set(line)) == len(line)
        assert all(0 <= s < station_count for s in line)


def placements(genome):
    return sorted(s for line in genome for s in line)


class TestLineFitness:
    def test_single_pair(self):
        stations = pts((0, 0), (2000, 0))
        f = line_fitness(((0, 1),), stations, [1000.0, 3000.0])
        assert f.value == pytest.approx(2000.0 * 4000.0)

    def test_three_station_path_by_hand(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        f = line_fitness(((0, 1, 2),), stations, [1.0, 1.0, 1.0])
        # pairs: (0,1) 1000*2 + (1,2) 1000*2 + (0,2) 2000*2
        assert f.value == pytest.approx(8000.0)

    def test_disconnected_raises(self):
        stations = pts((0, 0), (1000, 0), (5000, 0), (6000, 0))
        s = [10.0, 10.0, 10.0, 10.0]
        with pytest.raises(InvalidLayout, match="unreachable"):
            line_fitness(((0, 1), (2, 3)), stations, s)
        # a station on no line is unreachable too
        with pytest.raises(InvalidLayout, match="unreachable"):
            line_fitness(((0, 1, 2),), stations, s)
        assert line_fitness(((0, 1, 2, 3),), stations, s).value == pytest.approx(440000.0)

    @settings(max_examples=200, deadline=None)
    @given(layouts(), st.data())
    def test_matches_pairwise_loop_oracle(self, layout, data):
        n, stations, lines = layout
        s = data.draw(st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=n, max_size=n))
        genome = tuple(tuple(line) for line in lines)
        for penalty in (0.0, 250.0):
            d = dijkstra_reference(stations, lines, penalty)
            if np.isfinite(d).all():
                want = 0.0
                for i in range(n):
                    for j in range(i + 1, n):
                        want += d[i, j] * (s[i] + s[j])
                assert line_fitness(genome, stations, s, penalty).value == pytest.approx(want, rel=1e-12)
            else:
                with pytest.raises(InvalidLayout, match="unreachable"):
                    line_fitness(genome, stations, s, penalty)

    @settings(max_examples=200, deadline=None)
    @given(layouts(), st.data())
    def test_cost_is_a_function_of_the_track_set(self, layout, data):
        """Reversing any lines and reordering them leaves the cost bit-identical."""
        n, stations, lines = layout
        # repair joins the drawn lines into one network, so lines share stations
        genome = repair(tuple(map(tuple, lines)), station_distances(stations))
        s = data.draw(st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=n, max_size=n))
        flips = data.draw(st.lists(st.booleans(), min_size=len(genome), max_size=len(genome)))
        order = data.draw(st.permutations(range(len(genome))))
        drawn = tuple(genome[i][::-1] if flips[i] else genome[i] for i in order)
        for penalty in (0.0, 300.0):
            assert line_fitness(drawn, stations, s, penalty) == line_fitness(genome, stations, s, penalty)


class TestMutationOperators:
    def test_reverse_segment_example(self):
        # positions 1..3 of a 5-station line flip in place
        genome = ((10, 11, 12, 13, 14),)
        rng = ScriptedRng(integers=[0, 1, 3, 1])  # the only line; positions 1 and 3, not swapped
        assert reverse_segment(genome, rng)[0] == (10, 13, 12, 11, 14)

    def test_exchange_example(self):
        genome = ((10, 11, 12, 13),)
        rng = ScriptedRng(integers=[0, 0, 2, 1])  # the only line; positions 0 and 2, not swapped
        assert exchange_within_line(genome, rng)[0] == (12, 11, 10, 13)

    def test_remove_guard_on_two_station_line(self):
        genome = ((0, 1), (2, 3, 4))
        rng = ScriptedRng(integers=[0])  # picks the 2-station line
        assert remove_station(genome, rng) is None

    def test_remove_from_long_line(self):
        genome = ((0, 1, 2),)
        rng = ScriptedRng(integers=[0, 1])  # the only line; the middle station
        assert remove_station(genome, rng)[0] == (0, 2)

    def test_add_duplicate_is_inapplicable(self):
        genome = ((0, 1),)
        # the only line, whose stations are all the stations: no candidates
        assert add_station(genome, 2, ScriptedRng(integers=[0])) is None

    def test_add_inserts_at_every_position(self):
        genome = ((0, 1),)
        results = set()
        for pos in range(3):
            rng = ScriptedRng(integers=[0, 0, pos])  # the only line, the only candidate (2), the slot
            results.add(add_station(genome, 3, rng)[0])
        assert results == {(2, 0, 1), (0, 2, 1), (0, 1, 2)}

    def test_swap_between_lines(self):
        genome = ((0, 1), (2, 3))
        rng = ScriptedRng(integers=[0, 1, 1, 0, 1])  # lines 0 and 1, not swapped; station 0 with 3
        swapped = swap_between_lines(genome, rng)
        assert swapped == ((3, 1), (2, 0))

    def test_swap_rejects_duplicate_result(self):
        # station 1 is shared; pulling it into line 0 would duplicate it there
        genome = ((0, 1), (1, 2))
        rng = ScriptedRng(integers=[0, 1, 1, 0, 0])  # lines 0 and 1, not swapped; station 0 with 1
        assert swap_between_lines(genome, rng) is None

    def test_transfer_moves_one_station(self):
        genome = ((0, 1, 2), (3, 4))
        rng = ScriptedRng(integers=[0, 1, 1, 1, 1])  # lines 0 and 1, not swapped; station 1 to slot 1
        moved = transfer_station(genome, rng)
        assert moved == ((0, 2), (3, 1, 4))

    def test_transfer_guard_short_donor(self):
        genome = ((0, 1), (2, 3))
        rng = ScriptedRng(integers=[0, 1, 1])  # lines 0 and 1, not swapped
        assert transfer_station(genome, rng) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_mutate_line_outputs_stay_unique_per_line(self, seed):
        genome = ((0, 1, 2), (3, 4), (5, 6, 7))
        rng = np.random.default_rng(seed)
        mutated = mutate_line(genome, 8, rng)
        for line in mutated:
            assert len(line) >= 2
            assert len(set(line)) == len(line)
        assert len(mutated) == 3

    def test_multiset_invariants_per_type(self):
        genome = ((0, 1, 2, 3), (4, 5, 6))
        for seed in range(60):
            rng = np.random.default_rng(seed)
            out = exchange_within_line(genome, rng)
            assert sorted(map(sorted, out)) == sorted(map(sorted, genome))
            rng = np.random.default_rng(seed)
            out = reverse_segment(genome, rng)
            assert sorted(map(sorted, out)) == sorted(map(sorted, genome))
            rng = np.random.default_rng(seed)
            out = swap_between_lines(genome, rng)
            if out is not None:
                assert [len(l) for l in out] == [4, 3]
                assert placements(out) == placements(genome)
            rng = np.random.default_rng(seed)
            out = transfer_station(genome, rng)
            if out is not None:
                assert sorted(len(l) for l in out) in ([3, 4], [2, 5])
                assert placements(out) == placements(genome)
            rng = np.random.default_rng(seed)
            out = remove_station(genome, rng)
            if out is not None:
                assert len(placements(out)) == len(placements(genome)) - 1
            rng = np.random.default_rng(seed)
            out = add_station(genome, 9, rng)
            if out is not None:
                assert len(placements(out)) == len(placements(genome)) + 1


# draws made before the helper under test: None is a random(), an int an integers(bound)
earlier_draws = st.lists(st.one_of(st.none(), st.integers(1, 2**40)), max_size=4)


class TestDrawTwo:
    """The operators' pair of positions is numpy's own ``choice``, draw for draw."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(2, 1000), earlier_draws)
    def test_draw_two_is_choice_without_replacement(self, seed, n, earlier):
        draws, twin = twin_draws(seed, earlier)
        want = tuple(int(v) for v in twin.choice(n, size=2, replace=False))
        assert _draw_two(draws, n) == want
        assert_in_step(draws, twin)


class TestCrossover:
    def test_identical_parents(self):
        genome = ((0, 1), (2, 3))
        a, b = crossover_lines(genome, genome, np.random.default_rng(0))
        assert a == genome and b == genome

    def test_single_line_swaps_entirely(self):
        pa = ((0, 1, 2),)
        pb = ((3, 4),)
        a, b = crossover_lines(pa, pb, np.random.default_rng(1))
        assert a == pb and b == pa

    def test_three_lines_swap_index_one(self):
        pa = ((0, 1), (2, 3), (4, 5))
        pb = ((6, 7), (8, 9), (10, 11))
        rng = ScriptedRng(integers=[1])
        a, b = crossover_lines(pa, pb, rng)
        assert a == ((0, 1), (8, 9), (4, 5))
        assert b == ((6, 7), (2, 3), (10, 11))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_operator_chains_keep_lines_valid(n, line_count, seed):
    """init_lines, crossover_lines and mutate_line keep every line as repair needs it.

    Duplicate-free, in range and at least two stations long, along chains
    of operators with no repair in between.
    """
    rng = np.random.default_rng(seed)
    stations = pts(*rng.uniform(-5000, 5000, (n, 2)))
    population = init_lines(station_distances(stations), line_count, 4, rng)
    for _ in range(30):
        i, j = (int(k) for k in rng.choice(len(population), size=2, replace=False))
        a, b = crossover_lines(population[i], population[j], rng)
        population[i], population[j] = mutate_line(a, n, rng), mutate_line(b, n, rng)
        for genome in population:
            assert_valid_genome(genome, n, line_count=line_count)


class TestRepair:
    def test_connected_genome_unchanged(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        genome = ((0, 1, 2),)
        assert repair(genome, station_distances(stations)) is genome

    def test_bridges_two_components(self):
        stations = pts((0, 0), (1000, 0), (2000, 0), (3000, 0))
        repaired = repair(((0, 1), (2, 3)), station_distances(stations))
        assert_connected(repaired, stations)
        assert len(repaired) == 2

    def test_uncovered_station_appended_to_nearest_end(self):
        stations = pts((0, 0), (1000, 0), (2000, 0), (2500, 0))
        repaired = repair(((0, 1, 2),), station_distances(stations))
        assert repaired == ((0, 1, 2, 3),)

    def test_uncovered_station_zero(self):
        stations = pts((0, 0), (1000, 0), (2000, 0))
        repaired = repair(((1, 2),), station_distances(stations))
        assert_connected(repaired, stations)
        assert repaired == ((0, 1, 2),)

    @pytest.mark.parametrize("line, error", [((0, 1, 0, 2), "line 0: loop, station 0 visited twice"),
                                             ((0,), "line 0 has 1 station")])
    def test_broken_line_left_for_fitness_to_reject(self, line, error):
        # repair only reconnects; netgraph.build owns the per-line checks. The
        # error names the line as the caller numbers it, though line_fitness
        # prices the sorted layout, which puts the broken line first in both
        stations = pts((0, 0), (1000, 0), (2000, 0))
        for genome, index in [((line, (0, 1, 2)), "line 0"), (((0, 1, 2), line), "line 1")]:
            assert repair(genome, station_distances(stations)) is genome
            with pytest.raises(InvalidLayout, match=error.replace("line 0", index)):
                line_fitness(genome, stations, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent_on_random_genomes(self, seed):
        rng = np.random.default_rng(seed)
        stations = pts(*rng.uniform(-5000, 5000, (7, 2)))
        raw_lines = []
        for _ in range(3):
            size = int(rng.integers(2, 5))
            raw_lines.append(tuple(int(v) for v in rng.choice(7, size=size, replace=False)))
        dist = station_distances(stations)
        once = repair(tuple(raw_lines), dist)
        twice = repair(once, dist)
        assert twice == once
        assert twice is once  # unchanged input comes back as the same object
        assert_valid_genome(once, 7, line_count=3)
        assert_connected(once, stations)


def relabeling_repair_reference(genome, stations):
    """Repair as a loop that labels the components again after every attach.

    Production labels them once and grows station 0's component in place;
    both must attach the same stations in the same order.
    """
    sxy = stations
    n = len(sxy)
    changed = False
    lines = list(genome)

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
        raise AssertionError("connectivity loop exceeded the station count")
    return tuple(lines) if changed else genome


@settings(max_examples=300, deadline=None)
@given(layouts(), st.booleans())
def test_repair_matches_relabeling_reference(layout, drop_station_zero):
    n, stations, lines = layout
    if drop_station_zero:
        # repair's precondition: lines stay at two stations or more
        lines = [line for line in ([s for s in line if s != 0] for line in lines) if len(line) >= 2]
        assume(lines)
    genome = tuple(tuple(line) for line in lines)
    assert repair(genome, station_distances(stations)) == relabeling_repair_reference(genome, stations)


def recomputing_repair_reference(genome, dist):
    """Repair that takes the min over every inside row again in each round.

    Production keeps a running minimum and folds in only the rows of the
    component each round merges; min is exact, so the two must pick the
    same station even where distances tie.
    """
    n = len(dist)
    comp = np.array(netgraph.components(genome, n))
    if (comp == comp[0]).all():
        return genome
    lines = list(genome)

    def attach(candidates, v):
        _, li, end, line_end = min(
            (dist[line_end, v], li, end, line_end)
            for li in candidates
            for end, line_end in ((0, lines[li][-1]), (1, lines[li][0]))
        )
        lines[li] = lines[li] + (v,) if end == 0 else (v,) + lines[li]
        return line_end

    inside = comp == comp[0]
    while not inside.all():
        line_in_c0 = [li for li, line in enumerate(lines) if inside[line[0]]]
        if line_in_c0:
            joined = int(np.argmin(np.where(inside, np.inf, dist[inside].min(axis=0))))
            attach(line_in_c0, joined)
        else:
            joined = attach(range(len(lines)), 0)
        inside |= comp == comp[joined]
    return tuple(lines)


@st.composite
def lattice_layouts(draw):
    """Stations on a 4 x 4 lattice of 1 km steps, so distances tie often; 1-4 duplicate-free lines."""
    n = draw(st.integers(2, 12))
    xy = np.array(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n)),
                  dtype=float) * 1000.0
    line = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    lines = draw(st.lists(line, min_size=1, max_size=4))
    return xy, tuple(tuple(li) for li in lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_layouts(), layouts().map(lambda lay: (lay[1], tuple(map(tuple, lay[2]))))))
def test_repair_matches_recomputing_reference(layout):
    stations, genome = layout
    dist = station_distances(stations)
    assert repair(genome, dist) == recomputing_repair_reference(genome, dist)


class TestInitLines:
    def test_two_stations_single_line(self):
        stations = pts((0, 0), (1000, 0))
        pop = init_lines(station_distances(stations), 1, 10, np.random.default_rng(0))
        for genome in pop:
            assert oriented(genome) == ((0, 1),)

    def test_too_few_stations(self):
        with pytest.raises(MetronetError, match="line layouts need >= 2 stations, got 1"):
            init_lines(station_distances(pts((0, 0))), 1, 5, np.random.default_rng(0))

    def test_more_lines_than_station_pairs(self):
        rng = np.random.default_rng(1)
        stations = pts(*rng.uniform(-3000, 3000, (5, 2)))
        pop = init_lines(station_distances(stations), 5, 20, np.random.default_rng(2))
        for genome in pop:
            assert_valid_genome(genome, 5, line_count=5)
            assert_connected(genome, stations)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        stations = pts(*rng.uniform(-3000, 3000, (9, 2)))
        pop1 = init_lines(station_distances(stations), 3, 15, np.random.default_rng(7))
        pop2 = init_lines(station_distances(stations), 3, 15, np.random.default_rng(7))
        assert pop1 == pop2


class TestCanonical:
    def test_orientation_collapses(self):
        a = ((2, 1, 0), (3, 4))
        b = ((0, 1, 2), (4, 3))
        assert oriented(a) == oriented(b)


def exhaustive_single_line_optimum(stations, s):
    """Enumerate all distinct orderings (reversals collapsed) of one full line."""
    n = len(stations)
    sxy = stations
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
    @pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf, -1.0, 1e308, 1.0000001e7])
    def test_transfer_penalty_must_be_finite_and_non_negative(self, penalty):
        with pytest.raises(MetronetError, match="transfer_penalty_m"):
            LineStageConfig(transfer_penalty_m=penalty)

    @pytest.mark.parametrize("penalty", [0.0, 250.0, PLANAR_BOUND_M])
    def test_finite_penalty_accepted(self, penalty):
        assert LineStageConfig(transfer_penalty_m=penalty).transfer_penalty_m == penalty

    def test_line_count_must_be_positive(self):
        with pytest.raises(MetronetError, match="line_count"):
            LineStageConfig(line_count=0)

    def test_line_count_bounded_by_max_lines(self):
        assert LineStageConfig(line_count=lines_module.MAX_LINES).line_count == 1_000
        with pytest.raises(MetronetError, match=r"^line_count must lie in \[1, 1000\], got 1001$"):
            LineStageConfig(line_count=lines_module.MAX_LINES + 1)


class TestOptimizeLines:
    def test_two_stations_forced_topology(self):
        stations = pts((0, 0), (3000, 0))
        s = [500.0, 1500.0]
        cfg = LineStageConfig(line_count=1, ga=GaConfig(population_size=4, generations=2, rng_seed=0))
        best, _ = optimize_lines(stations, s, cfg)
        assert oriented(best) == ((0, 1),)
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
        values = [r.best_fitness for r in history.records]
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

    def test_station_distances_built_once_per_run(self, monkeypatch):
        """One matrix serves init and every repair; repair never builds its own."""
        calls, repairs = [], []
        in_repair = False
        real_distances, real_repair = lines_module.station_distances, lines_module.repair

        def counted_distances(stations):
            calls.append("repair" if in_repair else "run")
            return real_distances(stations)

        def watched_repair(genome, dist):
            nonlocal in_repair
            repairs.append(genome)
            in_repair = True
            try:
                return real_repair(genome, dist)
            finally:
                in_repair = False

        monkeypatch.setattr(lines_module, "station_distances", counted_distances)
        monkeypatch.setattr(lines_module, "repair", watched_repair)
        rng = np.random.default_rng(17)
        stations = pts(*rng.uniform(-5000, 5000, (9, 2)))
        cfg = LineStageConfig(line_count=3, ga=GaConfig(population_size=12, generations=4, rng_seed=2))
        optimize_lines(stations, rng.uniform(100, 1000, 9), cfg)
        assert calls == ["run"]
        assert len(repairs) > 12  # the initial population and each child layout not seen before

    @pytest.mark.parametrize("seed, penalty", [(1, 0.0), (2, 0.0), (1, 300.0)])
    def test_repair_memo_changes_nothing(self, seed, penalty):
        """The run equals evolve.run with plain repair and uncached fitness."""
        # a memo keyed on the canonical layout, not the raw lines, fails all three
        rng = np.random.default_rng(23)
        stations = pts(*rng.uniform(-5000, 5000, (8, 2)))
        s = rng.uniform(100, 1000, 8)
        cfg = LineStageConfig(
            line_count=3,
            transfer_penalty_m=penalty,
            ga=GaConfig(population_size=20, generations=20, rng_seed=seed),
        )
        best, history = optimize_lines(stations, s, cfg)

        dist = station_distances(stations)
        ga = replace(cfg.ga, objective_sense="minimize")
        reconnected = []

        def plain_repair(genome):
            out = repair(genome, dist)
            reconnected.append(out is not genome)
            return out

        want_best, want_history = evolve.run(
            lambda rng: init_lines(dist, cfg.line_count, ga.population_size, rng),
            lambda g: line_fitness(g, stations, s, penalty).value,
            crossover_lines,
            lambda g, r: mutate_line(g, len(stations), r),
            plain_repair,
            ga,
        )
        assert sum(reconnected) >= 5  # children really get reconnected
        assert best == want_best
        assert history.records == want_history.records

    @pytest.mark.parametrize("instance, penalty", [("eight", 0.0), ("eight", 300.0), ("sixty", 0.0), ("sixty", 300.0)],
                             ids=["0.0", "300.0", "sixty", "sixty_penalty"])
    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_memo_limits_change_nothing(self, monkeypatch, limit, instance, penalty):
        """Memos that evict every few layouts give the same run, though they recompute."""
        stations, s, cfg = pinned_instance(instance, 1, penalty)
        want, children, repaired, scored, priced = counted_optimize_lines(monkeypatch, stations, s, cfg)
        assert max(Counter(repaired).values()) == 1 and set(repaired) == set(children)
        assert max(Counter(priced).values()) == 1 and set(priced) == set(map(_canonical, scored))
        monkeypatch.setattr(lines_module, "_CACHE_LIMIT", limit)
        got, _, repaired, _, priced = counted_optimize_lines(monkeypatch, stations, s, cfg)
        # an evicted child was repaired again, or an evicted track set priced again
        assert max(Counter(repaired).values()) > 1 or max(Counter(priced).values()) > 1
        assert got == want

    # Each seed's best layout and a digest of every generation's population,
    # recorded while the operators still drew positions with rng.choice (the
    # 60-station runs: while shortest paths, repair and the nearest-neighbor
    # chains still looped per line and per stop). Any change to a stage-2
    # random draw, to a distance's bits, to a repair or to which layouts the
    # GA keeps moves them.
    @pytest.mark.parametrize("instance, seed, want_best, want_digest", [
        ("criterion4", 0, ((3, 0, 4, 2, 1),), "156f2099281f948f"),
        ("criterion4", 1, ((3, 0, 4, 2, 1),), "cbf5dc49d0cd9940"),
        ("criterion4", 2, ((3, 0, 4, 2, 1),), "2589ca79e239c8ef"),
        ("criterion4", 3, ((3, 0, 4, 2, 1),), "1b49147e63f8bf03"),
        ("eight", 0, ((1, 6, 7, 0, 5, 3, 2), (6, 7, 5, 4, 0, 2), (0, 5, 1, 3, 7)), "e3c249518fd3b9e9"),
        ("eight", 1, ((6, 7, 2, 0, 4, 5, 3, 1), (1, 6, 3, 7, 5, 0, 2), (0, 2, 6)), "ebc297dbe5e127f6"),
        ("eight", 2, ((1, 3, 7, 5, 6, 0, 4, 2), (2, 7, 0, 4, 5, 3, 6, 1), (7, 6, 2)), "4fc0e56130162e91"),
        ("eight", 3, ((2, 7, 5, 3, 6), (5, 4, 0, 7, 6, 2), (6, 1, 3, 7, 5, 0, 2)), "beb6fc06b436e1f9"),
        ("sixty", 0, SIXTY_BEST[0], "e8b310f1b51b0695"),
        ("sixty", 1, SIXTY_BEST[1], "8ab5de6db1fa2799"),
        ("sixty_penalty", 0, SIXTY_BEST[0], "8785161a65aff8c2"),
        ("sixty_penalty", 1, SIXTY_BEST[2], "517ace92058e75ca"),
    ])
    def test_random_stream_pinned(self, instance, seed, want_best, want_digest):
        penalty = 300.0 if instance == "sixty_penalty" else 0.0
        stations, s, cfg = pinned_instance(instance.removesuffix("_penalty"), seed, penalty)
        digest = hashlib.sha256()

        def record(gen, population, fits):
            digest.update(repr(list(population)).encode())

        best, _ = optimize_lines(stations, s, cfg, on_generation=record)
        assert best == want_best
        assert digest.hexdigest()[:16] == want_digest

    # line_fitness calls of a cache keyed on each line oriented from its
    # smaller end, lines sorted; a key that stops merging reversed lines
    # reads 105 and 153, one that stops merging reordered line lists 59 and 104
    @pytest.mark.parametrize("station_count, line_count, population_size, generations, want", [
        (5, 1, 40, 200, 59),  # criterion 4's shape
        (4, 2, 20, 30, 94),
    ])
    def test_fitness_cache_merges_reversed_and_reordered_lines(
        self, monkeypatch, station_count, line_count, population_size, generations, want
    ):
        calls = []
        real_fitness = lines_module.line_fitness

        def counted_fitness(*args):
            calls.append(args[0])
            return real_fitness(*args)

        monkeypatch.setattr(lines_module, "line_fitness", counted_fitness)
        rng = np.random.default_rng(77)
        stations = rng.uniform(-5000, 5000, (station_count, 2))
        s = [float(v) for v in rng.uniform(100.0, 2000.0, station_count)]
        ga = GaConfig(population_size=population_size, generations=generations, rng_seed=0)
        optimize_lines(stations, s, LineStageConfig(line_count=line_count, ga=ga))
        assert len(calls) == want


def exhaustive_two_line_optimum(stations, s):
    """Minimum fitness over every connected two-line layout covering all stations.

    Oracle route: line pairs are enumerated by bitmask (connected iff they
    overlap and cover everything), distances come from a batched
    Floyd-Warshall, never from the production netgraph.all_pairs_distances.
    """
    n = len(stations)
    sxy = stations
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
