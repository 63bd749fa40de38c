"""Generic seeded genetic-algorithm engine with roulette selection and elitism.

Genomes are opaque immutable values; problem modules supply fitness,
crossover, mutation, and a validating repair hook.
"""
from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Literal, Sequence, TypeVar

import numpy as np

from .errors import MetronetError

G = TypeVar("G")
Sense = Literal["maximize", "minimize"]

CrossoverFn = Callable[[G, G, "Draws"], tuple[G, G]]
MutationFn = Callable[[G, "Draws"], G]
ValidatorFn = Callable[[G], G]
FitnessFn = Callable[[G], float]
GenerationHook = Callable[[int, Sequence[G], np.ndarray], None]


@dataclass(frozen=True)
class GaConfig:
    """Evolution knobs shared by both optimization stages.

    Defaults are tunable engineering choices, except generations=10 which is
    the working value the whole pipeline was sized around.
    """

    population_size: int = 50
    generations: int = 10
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    elite_count: int = 2
    rng_seed: int = 0
    objective_sense: Sense = "maximize"

    def __post_init__(self):
        if self.population_size < 2:
            raise MetronetError("population_size must be >= 2")
        if self.generations < 1:
            raise MetronetError("generations must be >= 1")
        if not (0 <= self.elite_count < self.population_size):
            raise MetronetError("elite_count must satisfy 0 <= elite_count < population_size")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise MetronetError(f"{name} must lie in [0, 1]")
        if not (0 <= self.rng_seed < 2**64):
            raise MetronetError("rng_seed must be an unsigned 64-bit integer")
        if self.objective_sense not in ("maximize", "minimize"):
            raise MetronetError(f"objective_sense must be 'maximize' or 'minimize', got {self.objective_sense!r}")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass
class EvolutionHistory:
    """Per-generation convergence log; row 0 describes the initial population."""

    records: list[GenerationRecord] = field(default_factory=list)

    def write_csv(self, path: Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_fitness", "mean_fitness"])
            for r in self.records:
                writer.writerow([r.generation, repr(r.best_fitness), repr(r.mean_fitness)])


def selection_weights(scores: Sequence[float]) -> np.ndarray:
    """Shifted roulette weights, strictly positive for any finite score list.

    Weights are s - min(s) + eps, with eps = 1e-6 * (spread + 1) so equal
    scores degrade to uniform draws.
    """
    values = np.asarray(scores, dtype=float)
    lo, hi = values.min(), values.max()
    return values - lo + 1e-6 * ((hi - lo) + 1.0)


class Draws:
    """One generation's random draws: the values a PCG64 ``Generator`` gives, at less cost.

    ``random()`` and ``integers(n)`` take 64-bit words from a read-ahead list
    that one ``random_raw(BLOCK)`` call fills, and apply numpy's own
    arithmetic, so they return what the wrapped generator would, without a
    numpy call per value:

    - ``random()`` is ``(w >> 11) * 2**-53``, numpy's ``next_double``.
    - ``integers(n)`` is Lemire's method on 32-bit halves, numpy's draw for
      a range of at most 2**32: ``m = x * n``, drawn again while
      ``m & 0xFFFFFFFF < (2**32 - n) % n``, then ``m >> 32``. A fresh word
      gives its low half first and keeps its high half for the next 32-bit
      request, as PCG64's ``has_uint32``/``uinteger`` do. ``n == 1`` draws
      nothing, and ``n > 2**32`` takes numpy's 64-bit path, which never
      touches the half-word buffer. ``n`` is a Python int of at least 1.

    The read-ahead leaves the bit generator up to ``BLOCK`` words past the
    next unread one. Reading ``generator`` rewinds it with
    ``advance(2**128 - unread)`` and empties the list; PCG64 advances modulo
    its period of 2**128, so the generator then stands exactly where the
    per-value numpy calls would have left it. ``normal``, a sized ``random``
    and a 64-bit ``integers`` go to the generator through that rewind: they
    read whole words and leave the half-word buffer alone.

    The sampler must be the generator's only consumer except through
    ``generator``, so it forwards nothing else; a ``choice``,
    ``permutation`` or sized ``integers`` would read a half-word buffer out
    of step with this one.
    """

    # words per random_raw call: a tiny_lines generation reads about 124 words, and 32-256
    # time alike there; a stage-1 child rewinds, so a shorter block wastes less
    BLOCK = 64

    __slots__ = ("_generator", "_raw", "_words", "_half")

    def __init__(self, generator: np.random.Generator):
        if not isinstance(generator.bit_generator, np.random.PCG64):
            raise TypeError("Draws reproduces PCG64's arithmetic only")
        self._generator = generator
        self._raw = generator.bit_generator.random_raw
        # read-ahead words, the next one last so that pop() takes it
        self._words: list[int] = []
        # the half word kept for the next 32-bit draw: PCG64's uinteger while has_uint32
        self._half: int | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The wrapped generator, rewound to the first word the sampler has not used."""
        unread = len(self._words)
        if unread:
            self._generator.bit_generator.advance(2**128 - unread)
            self._words = []
        return self._generator

    def _refill(self) -> int:
        """Read the next block of words and take its first."""
        words = self._words = self._raw(self.BLOCK).tolist()
        words.reverse()
        return words.pop()

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def random(self, size: int | None = None):
        if size is None:
            words = self._words
            return ((words.pop() if words else self._refill()) >> 11) * 2.0**-53
        return self.generator.random(size)

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if n > 0x100000000:
            return int(self.generator.integers(n))
        while True:
            half = self._half
            if half is None:
                words = self._words
                word = words.pop() if words else self._refill()
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            low = m & 0xFFFFFFFF
            # the threshold is below n, so numpy computes it only for a low part below n
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32


def roulette_wheel(scores: Sequence[float]) -> Callable[[Draws | np.random.Generator], int]:
    """Roulette wheel over the shifted selection weights of ``scores``.

    The returned ``spin(rng)`` draws one index with probability proportional
    to its weight, using exactly one ``rng.random()``; ``rng`` is a
    ``Draws`` or a ``Generator``.
    """
    # a list bisect finds the same slot as np.searchsorted(side="right") at a
    # fraction of its per-call cost; the list leaves out the total, so any
    # product, however it rounds, lands in a slot no higher than the last
    cum = np.cumsum(selection_weights(scores)).tolist()
    total = cum.pop()

    def spin(rng: Draws | np.random.Generator) -> int:
        return bisect.bisect_right(cum, rng.random() * total)

    return spin


def run(
    initial_population: Sequence[G],
    fitness_fn: FitnessFn,
    crossover_fn: CrossoverFn,
    mutation_fn: MutationFn,
    validator_fn: ValidatorFn,
    config: GaConfig,
    on_generation: GenerationHook | None = None,
) -> tuple[G, EvolutionHistory]:
    """Evolve the population and return the best-ever genome plus its history.

    Each generation copies the elite_count best genomes unchanged, then fills
    the rest with roulette-selected parents put through crossover (with
    probability crossover_rate, else the fitter parent is cloned), mutation
    (with probability mutation_rate), and the validating repair hook. The
    validator restores only what crossover and mutation can break (stage 2
    reconnects a split layout); a problem whose operators keep every
    invariant, like stage 1, passes the identity. The initial population
    must already hold every invariant: it does not go through the validator.

    Genomes rank by one score, higher is better: the fitness, negated when
    minimizing. The history and ``on_generation`` see the fitness as returned.

    Randomness comes from one stream per generation derived from
    (rng_seed, generation), so results do not depend on how fitness
    evaluations are scheduled. The selection, the rate tests and the
    operators all draw from it through one ``Draws``.
    """
    population = list(initial_population)
    n = config.population_size
    if len(population) != n:
        raise MetronetError(f"expected {n} genomes, got {len(population)}")

    sign = 1.0 if config.objective_sense == "maximize" else -1.0
    history = EvolutionHistory()
    best_genome: G | None = None
    best_score = -math.inf

    def evaluate(pop: list[G], gen: int) -> np.ndarray:
        """The generation's scores, ``sign * fitness``."""
        nonlocal best_genome, best_score
        fits = np.array([float(fitness_fn(genome)) for genome in pop])
        finite = np.isfinite(fits)
        if not finite.all():
            i = int(finite.argmin())
            raise MetronetError(f"fitness of genome {i} in generation {gen} is {fits[i].item()!r}")
        scores = sign * fits
        idx = int(np.argmax(scores))
        if scores[idx] > best_score:
            best_score = float(scores[idx])
            best_genome = pop[idx]
        history.records.append(GenerationRecord(gen, float(fits[idx]), float(fits.mean())))
        if on_generation is not None:
            on_generation(gen, pop, fits)
        return scores

    scores = evaluate(population, 0)
    for gen in range(1, config.generations + 1):
        draws = Draws(np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(gen,))))
        population = _breed(population, scores, config, draws, crossover_fn, mutation_fn, validator_fn)
        scores = evaluate(population, gen)

    assert best_genome is not None
    return best_genome, history


def _breed(
    population: list[G],
    scores: np.ndarray,
    config: GaConfig,
    draws: Draws,
    crossover_fn: CrossoverFn,
    mutation_fn: MutationFn,
    validator_fn: ValidatorFn,
) -> list[G]:
    n = config.population_size
    values = scores.tolist()
    # a reverse sort is stable, so ties keep index order: the key (-score, i)
    ranked = sorted(range(n), key=values.__getitem__, reverse=True)
    new_population = [population[i] for i in ranked[: config.elite_count]]

    spin = roulette_wheel(scores)
    random = draws.random
    crossover_rate, mutation_rate = config.crossover_rate, config.mutation_rate
    while len(new_population) < n:
        i = spin(draws)
        j = spin(draws)
        if random() < crossover_rate:
            children = crossover_fn(population[i], population[j], draws)
        else:
            fitter = j if values[j] > values[i] else i
            children = (population[fitter],)
        for child in children:
            if len(new_population) >= n:
                break
            if random() < mutation_rate:
                child = mutation_fn(child, draws)
            new_population.append(validator_fn(child))
    return new_population
