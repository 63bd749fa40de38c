"""The stage-2 routines against their loop references: the same bits, layouts and exceptions."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import layouts
from metronet.geomodel import station_distances
from metronet.lines import _nearest_neighbor_chain, repair
from metronet.netgraph import all_pairs_distances, build, components
from stage2_reference import (
    all_pairs_distances_reference,
    build_reference,
    components_reference,
    nearest_neighbor_chain_reference,
    repair_reference,
)

PENALTIES = (0.0, 250.0)


@st.composite
def tied_layouts(draw):
    """Station count, coordinates and lines, on stations of a 4 x 4 lattice of 1 km.

    Stations share coordinates often, so edge lengths and distances tie
    exactly. The lines are one line, one to four random lines (which leave
    stations on no line and several multi-station components), or lines that
    all visit the same stations, so that every node is a transfer.
    """
    n = draw(st.integers(2, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n))
    stations = np.array(cells, dtype=float) * 1000.0
    line = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    shape = draw(st.sampled_from(["one_line", "random", "all_transfer"]))
    if shape == "one_line":
        lines = [draw(line)]
    elif shape == "random":
        lines = draw(st.lists(line, min_size=1, max_size=4))
    else:
        stops = draw(line)
        lines = [stops] + [list(draw(st.permutations(stops))) for _ in range(draw(st.integers(1, 3)))]
    return n, stations, lines


@st.composite
def crowded_layouts(draw):
    """150 stations on 8 lines of 29-30 stops: over 40 transfer stations, stations 0-6 on no line.

    Station 7 is on four lines, and a tenth of the stations repeat another
    station's coordinates.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stations = rng.uniform(-20000, 20000, (150, 2))
    copies = rng.integers(150, size=15)
    stations[rng.integers(150, size=15)] = stations[copies]
    lines = [[int(v) for v in rng.choice(np.arange(8, 150), size=29, replace=False)] for _ in range(8)]
    for stops in lines[:4]:
        stops.insert(int(rng.integers(len(stops) + 1)), 7)
    lines_at = np.bincount([s for stops in lines for s in stops], minlength=150)
    assume((lines_at >= 2).sum() > 40)
    return 150, stations, lines


@st.composite
def all_transfer_layouts(draw):
    """Up to 60 stations on 2-6 lines, every station on two lines or more, so every station is a transfer.

    Coordinates are random, or on a 4 x 4 lattice of 1 km so that lengths
    and distances tie exactly.
    """
    n, line_count = draw(st.integers(2, 60)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        stations = rng.integers(0, 4, (n, 2)).astype(float) * 1000.0
    else:
        stations = rng.uniform(-20000.0, 20000.0, (n, 2))
    on = np.zeros((line_count, n), dtype=bool)  # on[l, s]: station s is a stop of line l
    for s in range(n):
        on[rng.choice(line_count, size=rng.integers(2, line_count + 1), replace=False), s] = True
    for row in on:
        if row.sum() < 2:  # a line needs two stops
            row[rng.choice(np.flatnonzero(~row), size=2 - row.sum(), replace=False)] = True
    return n, stations, [[int(s) for s in rng.permutation(np.flatnonzero(row))] for row in on]


def same_distances(stations, lines):
    for penalty in PENALTIES:
        got = all_pairs_distances(build(lines, stations), transfer_penalty_m=penalty)
        want = all_pairs_distances_reference(build_reference(lines, stations), transfer_penalty_m=penalty)
        assert np.array_equal(got, want)
        # row sums, as line_fitness takes them, follow the memory layout
        assert got.flags.c_contiguous and np.array_equal(got.sum(axis=1), want.sum(axis=1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(layouts(), tied_layouts()))
def test_distances_match_reference(layout):
    _, stations, lines = layout
    same_distances(stations, lines)


@settings(max_examples=15, deadline=None)
@given(crowded_layouts())
def test_distances_match_reference_on_crowded_layouts(layout):
    _, stations, lines = layout
    same_distances(stations, lines)


@settings(max_examples=60, deadline=None)
@given(all_transfer_layouts())
def test_distances_match_reference_when_every_station_is_a_transfer(layout):
    n, stations, lines = layout
    assert all(count >= 2 for count in np.bincount([s for stops in lines for s in stops], minlength=n))
    same_distances(stations, lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(layouts(), tied_layouts()))
def test_build_matches_reference(layout):
    _, stations, lines = layout
    got, want = build(lines, stations), build_reference(lines, stations)
    assert got.station_count == want.station_count and got.lines == want.lines
    assert len(got.lengths) == len(want.lengths)
    assert all(np.array_equal(a, b) for a, b in zip(got.lengths, want.lengths))


@st.composite
def broken_layouts(draw):
    """Lines that may be short, repeat a station or hold an index out of range, up to 2**70."""
    n = draw(st.integers(1, 8))
    stop = st.one_of(st.integers(-2, n + 1), st.sampled_from([-(2**70), 2**70]))
    lines = draw(st.lists(st.lists(stop, max_size=n + 2), min_size=1, max_size=4))
    return np.random.default_rng(0).uniform(-5000, 5000, (n, 2)), lines


def outcome(fn, *args):
    try:
        net = fn(*args)
    except Exception as exc:  # the exception's class and message are the outcome
        return type(exc), str(exc)
    return net.lines, [w.tolist() for w in net.lengths]


@settings(max_examples=300, deadline=None)
@given(broken_layouts())
def test_build_rejects_as_reference(layout):
    """The same first offender: the same exception class and message, or the same network."""
    stations, lines = layout
    assert outcome(build, lines, stations) == outcome(build_reference, lines, stations)


def partition(labels):
    """Labels renumbered by first appearance: equal for two labelings of the same components."""
    first = {}
    return [first.setdefault(label, len(first)) for label in labels]


@settings(max_examples=200, deadline=None)
@given(st.one_of(layouts(), tied_layouts()))
def test_components_match_reference(layout):
    n, _, lines = layout
    assert partition(components(lines, n)) == partition(components_reference(lines, n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(layouts(), tied_layouts()), st.booleans())
def test_repair_matches_reference(layout, drop_station_zero):
    n, stations, lines = layout
    if drop_station_zero:
        # repair's precondition: lines stay at two stations or more
        lines = [stops for stops in ([s for s in stops if s != 0] for stops in lines) if len(stops) >= 2]
        assume(lines)
    genome = tuple(tuple(stops) for stops in lines)
    dist = station_distances(stations)
    got = repair(genome, dist)
    assert got == repair_reference(genome, dist)
    assert (got is genome) == (repair_reference(genome, dist) is genome)


@pytest.mark.parametrize("seed", range(5))
def test_repair_matches_reference_on_crowded_layouts(seed):
    rng = np.random.default_rng(seed)
    stations = rng.uniform(-20000, 20000, (150, 2))
    # five lines over a third of the stations each: several multi-station components, station 0 on none
    genome = tuple(tuple(int(v) for v in rng.choice(np.arange(1, 150), size=30, replace=False)) for _ in range(5))
    dist = station_distances(stations)
    assert len(set(components(genome, 150))) > 2
    assert repair(genome, dist) == repair_reference(genome, dist)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_nearest_neighbor_chain_matches_reference(n, coords_seed, seed):
    """The same chain and the same generator state after, where distances tie."""
    rng = np.random.default_rng(coords_seed)
    stations = rng.integers(0, 3, (n, 2)).astype(float) * 1000.0
    subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    dist = station_distances(stations)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _nearest_neighbor_chain(subset, dist, got_rng) == nearest_neighbor_chain_reference(subset, dist, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
