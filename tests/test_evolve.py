"""GA engine tests: selection statistics, elitism, determinism, error paths."""
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metronet.errors import MetronetError
from metronet.evolve import GaConfig, roulette_wheel, run, selection_weights


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
        best, history = run(_toy_population(30), _fitness, _crossover, _mutation, _identity, cfg)
        assert abs(best - 7.0) < 0.5
        assert len(history.records) == 26  # initial population + 25 generations

    def test_elitism_makes_best_monotone(self):
        cfg = GaConfig(population_size=20, generations=15, elite_count=1, rng_seed=6)
        _, history = run(_toy_population(20), _fitness, _crossover, _mutation, _identity, cfg)
        best = [r.best_fitness for r in history.records]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_elites_carried_over_unchanged(self):
        populations = []
        cfg = GaConfig(population_size=10, generations=5, elite_count=2, rng_seed=7)
        run(
            _toy_population(10, seed=1),
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
            _toy_population(12, seed=2),
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
            _toy_population(17, seed=3),
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
        run(_toy_population(10, seed=4), _fitness, _crossover, _mutation, validator, cfg)
        # every bred (non-elite) genome; the initial population is not validated
        assert len(seen) == 3 * (10 - cfg.elite_count)

    def test_determinism_same_seed(self):
        cfg = GaConfig(population_size=15, generations=8, rng_seed=42)
        pop = _toy_population(15, seed=5)
        best1, hist1 = run(pop, _fitness, _crossover, _mutation, _identity, cfg)
        best2, hist2 = run(pop, _fitness, _crossover, _mutation, _identity, cfg)
        assert best1 == best2
        assert hist1.records == hist2.records

    def test_different_seed_differs(self):
        pop = _toy_population(15, seed=5)
        cfg1 = GaConfig(population_size=15, generations=8, rng_seed=42)
        cfg2 = replace(cfg1, rng_seed=43)
        _, hist1 = run(pop, _fitness, _crossover, _mutation, _identity, cfg1)
        _, hist2 = run(pop, _fitness, _crossover, _mutation, _identity, cfg2)
        assert hist1.records != hist2.records

    def test_wrong_population_size(self):
        cfg = GaConfig(population_size=10, generations=2)
        with pytest.raises(MetronetError, match="expected 10 genomes, got 9"):
            run(_toy_population(9), _fitness, _crossover, _mutation, _identity, cfg)

    def test_non_finite_fitness(self):
        cfg = GaConfig(population_size=10, generations=2)
        with pytest.raises(MetronetError, match="fitness of genome 0 in generation 0 is nan"):
            run(_toy_population(10), lambda x: math.nan, _crossover, _mutation, _identity, cfg)

    def test_minimize_sense(self):
        cfg = GaConfig(population_size=30, generations=25, rng_seed=12, objective_sense="minimize")
        best, history = run(
            _toy_population(30, seed=7), lambda x: (x - 7.0) ** 2, _crossover, _mutation, _identity, cfg
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
                initial, fitness, _crossover, _mutation, _identity, replace(cfg, objective_sense=sense),
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


class TestHistoryCsv:
    def test_export_format(self, tmp_path):
        cfg = GaConfig(population_size=10, generations=3, rng_seed=13)
        _, history = run(_toy_population(10, seed=8), _fitness, _crossover, _mutation, _identity, cfg)
        path = tmp_path / "history.csv"
        history.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness"
        assert len(lines) == 1 + 4
        gen, best, mean = lines[1].split(",")
        assert gen == "0"
        assert float(best) == history.records[0].best_fitness
        assert float(mean) == history.records[0].mean_fitness
