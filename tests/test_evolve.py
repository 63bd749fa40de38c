"""GA engine tests: selection statistics, elitism, determinism, error paths."""
import math
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_in_step, twin_draws
from evolve_reference import selection_weights
from metronet.errors import MetronetError
from metronet.evolve import Draws, GaConfig, _breed, roulette_wheel, run, spawn_states


class TestGaConfig:
    def test_defaults(self):
        cfg = GaConfig()
        assert cfg.population_size == 50
        assert cfg.generations == 10
        assert cfg.crossover_rate == 0.9
        assert cfg.mutation_rate == 0.3
        assert cfg.elite_count == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"generations": 2**32},
            {"elite_count": 50},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"rng_seed": -1},
            {"objective_sense": "upward"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        # each message opens with the rejected field, which the CLI maps back to its key
        with pytest.raises(MetronetError, match=f"^{next(iter(kwargs))} must "):
            GaConfig(**kwargs)

    def test_largest_generation_count(self):
        # every generation is one 32-bit spawn-key word
        assert GaConfig(generations=2**32 - 1).generations == 2**32 - 1


# integers(n) bounds: the one-value range, small ones, the largest 32-bit range, the
# first ranges of numpy's 64-bit path, and ranges that Lemire's method rejects for
# about half and a quarter of the 32-bit draws
draw_bounds = st.one_of(st.sampled_from([1, 2, 3, 2_000, 2**32 - 1, 2**32, 2**32 + 5, 2**31 + 1, 3 * 2**30 + 1]),
                        st.integers(1, 50))
draw_calls = st.one_of(
    st.just(("random", None)),
    st.tuples(st.just("random"), st.integers(0, 4)),
    st.tuples(st.just("integers"), draw_bounds),
    st.just(("normal", 2)),
)
# the draws the sampler computes from its read-ahead words, and those it hands to the
# generator after a rewind
scalar_calls = st.one_of(
    st.just(("random", None)),
    st.tuples(st.just("integers"), st.one_of(st.integers(1, 50), st.sampled_from([2**31 + 1, 2**32]))),
)
forwarded_calls = st.one_of(
    st.just(("normal", 2)),
    st.tuples(st.just("integers"), st.integers(2**32 + 1, 2**33)),
    st.tuples(st.just("random"), st.integers(0, 4)),
)


def _call(rng, name, arg):
    if name == "random":
        return rng.random() if arg is None else rng.random(arg).tolist()
    if name == "normal":
        return rng.normal(size=arg).tolist()
    return int(rng.integers(arg))


class TestDraws:
    """The sampler returns what a twin ``Generator`` of the same seed returns, call for call."""

    @pytest.mark.parametrize("block", [1, 2, 3, Draws.BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_interleaved_draws_match_generator(self, block, seed, data):
        # runs of scalar draws, short or up to three blocks and more, each followed by a draw
        # that rewinds, so reads cross block boundaries and rewinds land at every offset
        run_length = st.one_of(st.integers(0, block), st.integers(block, 3 * block + 8))
        runs = st.tuples(run_length.flatmap(lambda k: st.lists(scalar_calls, min_size=k, max_size=k)),
                         st.one_of(st.none(), forwarded_calls))
        calls = [call for scalars, forwarded in data.draw(st.lists(runs, min_size=1, max_size=4))
                 for call in [*scalars, *([forwarded] if forwarded else [])]]
        calls += data.draw(st.lists(draw_calls, max_size=40))
        with patch.object(Draws, "BLOCK", block):
            draws, twin = twin_draws(seed)
            for name, arg in calls:
                assert _call(draws, name, arg) == _call(twin, name, arg)
        assert_in_step(draws, twin)

    def test_rewind_reads_no_word(self):
        # a rewind only moves the generator back to the next unread word: doing it twice,
        # or at a block's end, changes nothing, and the draws after it still match the twin
        draws, twin = twin_draws(9, [None] * (Draws.BLOCK - 1) + [7])
        assert not draws._words and draws._half is not None
        for _ in range(2):
            assert_in_step(draws, twin)
        for rng in (draws, twin):
            rng.random()
        for _ in range(2):
            assert_in_step(draws, twin)
        assert [draws.integers(9) for _ in range(3)] == [int(twin.integers(9)) for _ in range(3)]

    def test_golden_draws(self):
        # numpy's PCG64, SeedSequence and bounded-integer arithmetic as of numpy 2: a release
        # that changes any of them fails here instead of silently shifting every layout
        seed = np.random.SeedSequence(3, spawn_key=(1,))
        calls = [("random", None), ("integers", 6), ("integers", 5), ("random", None), ("integers", 2),
                 ("normal", 2), ("integers", 2**32 - 1), ("random", None), ("integers", 2_000),
                 ("integers", 2**32 + 5), ("random", 2), ("integers", 3), ("integers", 7), ("integers", 2**31 + 1)]
        # the last draw rejects the kept half word and accepts the low half of a fresh word
        want = [0.10033602866159974, 0, 3, 0.5288834801304864, 1, [-0.4292570058374665, 0.178779970258533],
                3924692143, 0.12287322479239682, 1335, 2221965653, [0.025755594066389498, 0.38101762556917707],
                0, 3, 2046669414]
        draws, twin = twin_draws(seed)
        for rng in (draws, twin):
            assert [_call(rng, name, arg) for name, arg in calls] == want
        state = twin.bit_generator.state
        assert (state["state"]["state"], state["has_uint32"], state["uinteger"]) == (
            64744285871934355575467068743706361315, 1, 815794170)
        assert_in_step(draws, twin)

    def test_reseed_starts_afresh(self):
        # a half word kept and words read ahead from the last seed are dropped
        draws, _ = twin_draws(2, [None, 5])
        assert draws._words and draws._half is not None
        draws.reseed(*next(spawn_states(11, range(4, 5))))
        twin = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(4,)))
        assert_in_step(draws, twin)
        assert [draws.integers(7) for _ in range(5)] == [int(twin.integers(7)) for _ in range(5)]
        assert_in_step(draws, twin)

    def test_one_value_range_draws_nothing(self):
        draws, twin = twin_draws(5, [7])  # a half word is kept and a block read ahead
        unread = list(draws._words)
        assert draws.integers(1) == 0
        assert draws._words == unread
        assert_in_step(draws, twin)
        before = draws.generator.bit_generator.state
        assert draws.integers(1) == 0
        assert draws.generator.bit_generator.state == before
        assert_in_step(draws, twin)

    def test_only_the_draws_it_reproduces(self):
        # any other 32-bit consumer of the generator would read a half-word buffer out of step
        draws, _ = twin_draws(0)
        for name in ("choice", "permutation", "shuffle", "uniform", "bit_generator"):
            assert not hasattr(draws, name)


class TestSpawnStates:
    """``spawn_states`` derives the PCG64 state that numpy's ``SeedSequence`` spawn seeds."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
           gen=st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)))
    def test_state_is_seed_sequence_spawn(self, seed, gen):
        want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(gen,))).state["state"]
        assert next(spawn_states(seed, range(gen, gen + 1))) == (want["state"], want["inc"])

    def test_blocks_follow_one_another(self):
        # generations on both sides of a block boundary, in order, one state each, from
        # generation 0 as a run asks for them
        gens = range(600)
        states = list(spawn_states(3, gens))
        assert len(states) == len(gens)
        for gen in (0, 1, 255, 256, 257, 511, 512, 599):
            want = np.random.PCG64(np.random.SeedSequence(3, spawn_key=(gen,))).state["state"]
            assert states[gen] == (want["state"], want["inc"])

    def test_golden_state(self):
        # computed by numpy 2's SeedSequence and PCG64 at the largest seed and generation
        assert next(spawn_states(2**64 - 1, range(2**32 - 1, 2**32))) == (
            264778359351002590074925962590327347280, 61398168700816838276898557696010144803)

    def test_golden_state_at_generation_0(self):
        # computed by numpy 2's SeedSequence and PCG64: the stream that seeds a run's initial
        # population, here stage 1's at the command line's seed 3
        assert next(spawn_states(3, range(1))) == (
            73054509608113080641532050439005116381, 125754287165214640991141219458658875909)


class TestRouletteSelect:
    """The wheel ``_breed`` spins for every parent draw."""

    def test_shifted_weight_proportionality(self):
        # weights are s - min(s) + eps: here about 0 : 1 : 3
        rng = np.random.default_rng(0)
        spin = roulette_wheel([1.0, 2.0, 4.0])
        draws = Counter(spin(rng) for _ in range(100_000))
        assert draws[0] / 100_000 < 1e-3
        assert draws[1] / 100_000 == pytest.approx(0.25, abs=0.01)
        assert draws[2] / 100_000 == pytest.approx(0.75, abs=0.01)

    def test_all_equal_is_uniform(self):
        rng = np.random.default_rng(1)
        spin = roulette_wheel([5.0, 5.0, 5.0])
        draws = Counter(spin(rng) for _ in range(90_000))
        for i in range(3):
            assert draws[i] / 90_000 == pytest.approx(1 / 3, abs=0.01)

    def test_minimize_prefers_smallest(self):
        # a minimized run ranks by negated costs
        rng = np.random.default_rng(2)
        spin = roulette_wheel([-10.0, -30.0])
        draws = Counter(spin(rng) for _ in range(100_000))
        # weights (20 + eps) : eps, so index 0 dominates as eps -> 0
        assert draws[0] / 100_000 > 0.99

    def test_empirical_matches_weights_within_3_sigma(self):
        fits = [2.0, 5.0, 11.0, 3.0]
        w = selection_weights(fits)
        p = w / w.sum()
        rng = np.random.default_rng(4)
        n = 100_000
        spin = roulette_wheel(fits)
        draws = Counter(spin(rng) for _ in range(n))
        for i, pi in enumerate(p):
            sigma = math.sqrt(pi * (1 - pi) / n)
            assert abs(draws[i] / n - pi) < 3 * sigma + 1e-4

    def test_one_uniform_draw_per_spin(self):
        # the GA's byte-identical histories rest on this exact draw sequence
        fits = [2.0, 5.0, 11.0, 3.0]
        cum = np.cumsum(selection_weights(fits))
        spin = roulette_wheel(fits)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(1000):
            want = min(int(np.searchsorted(cum, twin.random() * cum[-1], side="right")), len(fits) - 1)
            assert spin(rng) == want

    @pytest.mark.parametrize("fits", [[1.0, 2.0, 4.0], [3.0, 1e9, -1e9, 0.1], [5.0] * 7, [0.0, 1e-300]])
    @pytest.mark.parametrize("u", [1 - 2**-53, 1.0])
    def test_top_of_the_wheel_is_the_last_slot(self, fits, u):
        # the largest draw below 1, and a product equal to the total, land in the last slot
        # as np.searchsorted clipped to the last index places them
        assert roulette_wheel(fits)(StubRng(u)) == len(fits) - 1


class StubRng:
    """Hands out one given uniform draw per ``random()`` call."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


finite_fitness = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
fitness_lists = st.one_of(
    st.lists(finite_fitness, min_size=1, max_size=12),
    # equal fitnesses make every weight the same eps
    st.tuples(finite_fitness, st.integers(1, 12)).map(lambda fv: [fv[0]] * fv[1]),
)


@settings(max_examples=300, deadline=None)
@given(fitness_lists, st.data())
def test_spin_matches_searchsorted(fits, data):
    cum = np.cumsum(selection_weights(fits))
    total, last = cum[-1], len(fits) - 1
    u = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]),
        # a draw whose product lands on (or next to) a cumulative weight
        st.sampled_from(range(len(cum))).map(lambda k: float(cum[k] / total)),
    ))
    want = min(int(np.searchsorted(cum, u * total, side="right")), last)
    assert roulette_wheel(fits)(StubRng(u)) == want


# toy problem for run(): genome is a float, target value 7
def _fitness(x):
    return -((x - 7.0) ** 2)


def _crossover(a, b, rng):
    t = rng.random()
    return t * a + (1 - t) * b, (1 - t) * a + t * b


def _mutation(x, rng):
    return x + float(rng.normal(0, 0.5))


def _identity(x):
    return x


def _toy_population(n, seed=0):
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.uniform(-10, 10, n)]


class TestRun:
    def test_converges_toward_target(self):
        cfg = GaConfig(population_size=30, generations=25, rng_seed=5, objective_sense="maximize")
        best, history = run(lambda rng: _toy_population(30), _fitness, _crossover, _mutation, _identity, cfg)
        assert abs(best - 7.0) < 0.5
        assert len(history.records) == 26  # initial population + 25 generations

    def test_elitism_makes_best_monotone(self):
        cfg = GaConfig(population_size=20, generations=15, elite_count=1, rng_seed=6)
        _, history = run(lambda rng: _toy_population(20), _fitness, _crossover, _mutation, _identity, cfg)
        best = [r.best_fitness for r in history.records]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_elites_carried_over_unchanged(self):
        populations = []
        cfg = GaConfig(population_size=10, generations=5, elite_count=2, rng_seed=7)
        run(
            lambda rng: _toy_population(10, seed=1),
            _fitness,
            _crossover,
            _mutation,
            _identity,
            cfg,
            on_generation=lambda gen, pop, fits: populations.append((list(pop), fits.copy())),
        )
        for (pop, fits), (next_pop, _) in zip(populations, populations[1:]):
            top2 = sorted(range(len(pop)), key=lambda i: (-fits[i], i))[:2]
            for i in top2:
                assert pop[i] in next_pop

    def test_degenerate_operators_resample_multiset(self):
        populations = []
        cfg = GaConfig(
            population_size=12, generations=3, crossover_rate=0.0, mutation_rate=0.0,
            elite_count=0, rng_seed=8,
        )
        run(
            lambda rng: _toy_population(12, seed=2),
            _fitness,
            _crossover,
            _mutation,
            _identity,
            cfg,
            on_generation=lambda gen, pop, fits: populations.append(list(pop)),
        )
        for pop, next_pop in zip(populations, populations[1:]):
            assert set(next_pop) <= set(pop)

    def test_population_size_constant(self):
        sizes = []
        cfg = GaConfig(population_size=17, generations=4, rng_seed=9)
        run(
            lambda rng: _toy_population(17, seed=3),
            _fitness,
            _crossover,
            _mutation,
            _identity,
            cfg,
            on_generation=lambda gen, pop, fits: sizes.append(len(pop)),
        )
        assert sizes == [17] * 5

    def test_every_offspring_passes_validator(self):
        seen = []

        def validator(x):
            seen.append(x)
            return x

        cfg = GaConfig(population_size=10, generations=3, rng_seed=10)
        run(lambda rng: _toy_population(10, seed=4), _fitness, _crossover, _mutation, validator, cfg)
        # every bred (non-elite) genome; the initial population is not validated
        assert len(seen) == 3 * (10 - cfg.elite_count)

    def test_determinism_same_seed(self):
        cfg = GaConfig(population_size=15, generations=8, rng_seed=42)
        pop = _toy_population(15, seed=5)
        best1, hist1 = run(lambda rng: pop, _fitness, _crossover, _mutation, _identity, cfg)
        best2, hist2 = run(lambda rng: pop, _fitness, _crossover, _mutation, _identity, cfg)
        assert best1 == best2
        assert hist1.records == hist2.records

    def test_different_seed_differs(self):
        pop = _toy_population(15, seed=5)
        cfg1 = GaConfig(population_size=15, generations=8, rng_seed=42)
        cfg2 = replace(cfg1, rng_seed=43)
        _, hist1 = run(lambda rng: pop, _fitness, _crossover, _mutation, _identity, cfg1)
        _, hist2 = run(lambda rng: pop, _fitness, _crossover, _mutation, _identity, cfg2)
        assert hist1.records != hist2.records

    def test_generation_1_ignores_what_seeding_drew(self):
        # each later generation re-seeds the sampler, so neither the words seeding read nor
        # the half word that integers(5) leaves in PCG64 reach the breeding
        cfg = GaConfig(population_size=12, generations=4, mutation_rate=0.6, rng_seed=14)
        population = _toy_population(12, seed=9)

        def mutation(x, rng):
            return x + (rng.integers(3) - 1) + float(rng.normal(0, 0.5))

        def seeding(draw):
            def seed_population(rng):
                draw(rng)
                return population
            return seed_population

        runs = []
        for draw in (lambda rng: None, lambda rng: rng.integers(5), lambda rng: rng.permutation(7),
                     lambda rng: rng.normal(size=3)):
            seen = []
            best, history = run(seeding(draw), _fitness, _crossover, mutation, _identity, cfg,
                                on_generation=lambda gen, pop, fits, seen=seen: seen.append(list(pop)))
            runs.append((best, history.records, seen))
        assert len(runs[0][2]) == 5
        assert all(r == runs[0] for r in runs[1:])

    def test_wrong_population_size(self):
        cfg = GaConfig(population_size=10, generations=2)
        with pytest.raises(MetronetError, match="expected 10 genomes, got 9"):
            run(lambda rng: _toy_population(9), _fitness, _crossover, _mutation, _identity, cfg)

    def test_non_finite_fitness(self):
        cfg = GaConfig(population_size=10, generations=2)
        with pytest.raises(MetronetError, match="fitness of genome 0 in generation 0 is nan"):
            run(lambda rng: _toy_population(10), lambda x: math.nan, _crossover, _mutation, _identity, cfg)

    def test_minimize_sense(self):
        cfg = GaConfig(population_size=30, generations=25, rng_seed=12, objective_sense="minimize")
        best, history = run(
            lambda rng: _toy_population(30, seed=7), lambda x: (x - 7.0) ** 2, _crossover, _mutation, _identity, cfg
        )
        assert abs(best - 7.0) < 0.5
        vals = [r.best_fitness for r in history.records]
        assert all(b2 <= b1 for b1, b2 in zip(vals, vals[1:]))

    @settings(max_examples=150, deadline=None)
    @given(
        table=st.lists(st.one_of(st.sampled_from([-3.0, 0.0, 2.5]), finite_fitness), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_minimize_is_maximize_of_negation(self, table, data):
        """Minimizing f and maximizing -f give the same populations and best genome, and negated records."""
        n = data.draw(st.integers(2, 8), label="population_size")
        cfg = GaConfig(
            population_size=n,
            generations=data.draw(st.integers(1, 4), label="generations"),
            crossover_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="crossover_rate"),
            mutation_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="mutation_rate"),
            elite_count=data.draw(st.one_of(st.just(0), st.integers(0, n - 1)), label="elite_count"),
            rng_seed=data.draw(st.integers(0, 2**64 - 1), label="rng_seed"),
        )
        initial = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n), label="initial")

        def cost(x):
            # genomes in one bucket tie, and a short table repeats values across buckets
            return table[int(abs(x) * 3) % len(table)]

        results = {}
        for sense, fitness in (("minimize", cost), ("maximize", lambda x: -cost(x))):
            seen = []
            best, history = run(
                lambda rng: initial, fitness, _crossover, _mutation, _identity, replace(cfg, objective_sense=sense),
                on_generation=lambda gen, pop, fits, seen=seen: seen.append((list(map(repr, pop)), fits.copy())),
            )
            results[sense] = best, history.records, seen
        best_min, records_min, seen_min = results["minimize"]
        best_max, records_max, seen_max = results["maximize"]
        assert repr(best_min) == repr(best_max)
        assert [pop for pop, _ in seen_min] == [pop for pop, _ in seen_max]
        for (_, fits_min), (_, fits_max) in zip(seen_min, seen_max):
            assert np.array_equal(fits_min, -fits_max)
        assert [(r.generation, r.best_fitness, r.mean_fitness) for r in records_min] == [
            (r.generation, -r.best_fitness, -r.mean_fitness) for r in records_max
        ]

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), finite_fitness), min_size=2,
                           max_size=12),
           data=st.data())
    def test_elites_rank_by_score_then_index(self, scores, data):
        # ties, -0.0 against 0.0 included, keep index order, as the key (-score, i) orders them
        n = len(scores)
        cfg = GaConfig(population_size=n, elite_count=data.draw(st.integers(0, n - 1)))
        bred = _breed(list(range(n)), scores, cfg, twin_draws(0)[0], _crossover, _mutation, _identity)
        assert bred[:cfg.elite_count] == sorted(range(n), key=lambda i: (-scores[i], i))[:cfg.elite_count]


class TestHistoryCsv:
    def test_export_format(self, tmp_path):
        cfg = GaConfig(population_size=10, generations=3, rng_seed=13)
        _, history = run(lambda rng: _toy_population(10, seed=8), _fitness, _crossover, _mutation, _identity, cfg)
        path = tmp_path / "history.csv"
        history.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness"
        assert len(lines) == 1 + 4
        gen, best, mean = lines[1].split(",")
        assert gen == "0"
        assert float(best) == history.records[0].best_fitness
        assert float(mean) == history.records[0].mean_fitness
