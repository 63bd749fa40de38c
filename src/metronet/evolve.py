"""Generic seeded genetic-algorithm engine with roulette selection and elitism.

Genomes are opaque immutable values; problem modules supply the seeding of
the initial population, fitness, crossover, mutation, and a validating
repair hook.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Literal, Sequence, TypeVar

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
        # spawn_states mixes each generation in as one 32-bit spawn-key word
        if not (1 <= self.generations < 2**32):
            raise MetronetError("generations must lie in [1, 2**32)")
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
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_fitness", "mean_fitness"])
            for r in self.records:
                writer.writerow([r.generation, repr(r.best_fitness), repr(r.mean_fitness)])


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# generations whose states one pass derives: memory stays this small whatever the run's length
_STATE_BLOCK = 256


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The constants of ``count`` hashing steps: step k xors with entry k and multiplies by entry k + 1."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# SeedSequence's two 32-bit operations, on Python ints below 2**32 or on uint32 arrays
def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def spawn_states(seed: int, gens: range) -> Iterator[tuple[int, int]]:
    """PCG64's ``(state, inc)`` as ``SeedSequence(seed, spawn_key=(gen,))`` seeds it, for each gen in ``gens``.

    numpy's arithmetic, for a seed below 2**128 and unit-step ``gens`` below
    2**32 (a one-word spawn key). The pool of the seed's words, padded to
    four, and its cross-mix (steps 0-15) depend on the seed alone, so they
    are computed once. Then, on uint32 arrays of ``_STATE_BLOCK``
    generations, each generation's word is mixed into the pool (steps 16-19)
    and ``generate_state(4, uint64)`` gives s0..s3; PCG64 seeds with
    ``inc = 2 * s2:s3 + 1`` and ``state = (inc + s0:s1) * MULT + inc``, mod 2**128.
    """
    a = _hash_constants(_INIT_A, _MULT_A, 20)
    pool = [_hashmix(seed >> 32 * k & _MASK32, a[k], a[k + 1]) for k in range(4)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k], a[k + 1]))
                k += 1
    # one row per pool word, one column per generation
    pool_col = np.array(pool, dtype=np.uint32)[:, None]
    a_col = np.array(a[16:], dtype=np.uint32)[:, None]
    b_col = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
    for start in range(gens.start, gens.stop, _STATE_BLOCK):
        words = np.arange(start, min(start + _STATE_BLOCK, gens.stop), dtype=np.uint32)
        mixed = _mix(pool_col, _hashmix(words, a_col[:-1], a_col[1:]))
        out = _hashmix(mixed[[0, 1, 2, 3, 0, 1, 2, 3]], b_col[:-1], b_col[1:]).astype(np.uint64)
        for s0, s1, s2, s3 in zip(*(out[0::2] | out[1::2] << 32).tolist()):
            inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
            yield ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc


class Draws:
    """Random draws from one PCG64 ``Generator`` that the sampler owns: the values it gives, at less cost.

    ``Draws(state, inc)`` starts where PCG64 seeded at ``(state, inc)``
    starts, as ``reseed`` does. ``random()`` and ``integers(n)`` take 64-bit
    words from a read-ahead list that one ``random_raw(BLOCK)`` call fills,
    and apply numpy's own arithmetic, so they return what the generator
    would, without a numpy call per value:

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
    per-value numpy calls would have left it. A sized ``random``,
    ``normal`` and a 64-bit ``integers`` go to the generator through that
    rewind: they read whole words and leave the half-word buffer alone.

    The sampler must be the generator's only consumer except through
    ``generator``, so it forwards nothing else; a ``choice``,
    ``permutation`` or sized ``integers`` would read a half-word buffer out
    of step with this one.
    """

    # words per random_raw call: a tiny_lines generation reads about 124 words, and 32-256
    # time alike there; a stage-1 child rewinds, so a shorter block wastes less
    BLOCK = 64

    __slots__ = ("_generator", "_raw", "_words", "_half")

    def __init__(self, state: int, inc: int):
        self._generator = np.random.Generator(np.random.PCG64())  # reseed replaces its seed
        self._raw = self._generator.bit_generator.random_raw
        self.reseed(state, inc)

    @property
    def generator(self) -> np.random.Generator:
        """The generator, rewound to the first word the sampler has not used."""
        unread = len(self._words)
        if unread:
            self._generator.bit_generator.advance(2**128 - unread)
            self._words = []
        return self._generator

    def reseed(self, state: int, inc: int) -> None:
        """Start over as a fresh generator seeded at PCG64 ``(state, inc)``: nothing read ahead, no half word kept."""
        self._generator.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        # the words read ahead as ints, the next one last so that pop() takes it
        self._words: list[int] = []
        # the half word kept for the next 32-bit draw: PCG64's uinteger while has_uint32
        self._half: int | None = None

    def _refill(self) -> int:
        """Read the next block of words and take its first."""
        words = self._words = self._raw(self.BLOCK).tolist()
        words.reverse()
        return words.pop()

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def random(self, size: int | None = None):
        if size is not None:
            return self.generator.random(size)
        words = self._words
        return ((words.pop() if words else self._refill()) >> 11) * 2.0**-53

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
    """Roulette wheel over shifted weights of ``scores``.

    The weights are s - min(s) + eps, with eps = 1e-6 * (spread + 1):
    strictly positive for any finite score list, and uniform for equal
    scores. The returned ``spin(rng)`` draws one index with probability
    proportional to its weight, using exactly one ``rng.random()``; ``rng``
    is a ``Draws`` or a ``Generator``.
    """
    lo, hi = min(scores), max(scores)
    eps = 1e-6 * ((hi - lo) + 1.0)
    # np.cumsum's sums, added in its order; a list bisect finds np.searchsorted's slot at a
    # fraction of its cost, and without the total any product lands no higher than the last
    cum = list(itertools.accumulate([(s - lo) + eps for s in scores]))
    total = cum.pop()

    def spin(rng: Draws | np.random.Generator) -> int:
        return bisect.bisect_right(cum, rng.random() * total)

    return spin


def run(
    seed_population: Callable[[np.random.Generator], Sequence[G]],
    fitness_fn: FitnessFn,
    crossover_fn: CrossoverFn,
    mutation_fn: MutationFn,
    validator_fn: ValidatorFn,
    config: GaConfig,
    on_generation: GenerationHook | None = None,
) -> tuple[G, EvolutionHistory]:
    """Evolve a seeded population and return the best-ever genome plus its history.

    ``seed_population(rng)`` returns the initial population_size genomes,
    drawn from ``rng``, which it must not keep. Each generation copies the
    elite_count best genomes unchanged, then fills the rest with
    roulette-selected parents put through crossover (with probability
    crossover_rate, else the fitter parent is cloned), mutation (with
    probability mutation_rate), and the validating repair hook. The validator
    restores only what crossover and mutation can break (stage 2 reconnects a
    split layout); a problem whose operators keep every invariant, like stage
    1, passes the identity. The initial population must already hold every
    invariant: it does not go through the validator.

    Genomes rank by one score, higher is better: the fitness, negated when
    minimizing. The history and ``on_generation`` see the fitness as returned.

    Randomness comes from one stream per generation derived from
    (rng_seed, generation), so results do not depend on how fitness
    evaluations are scheduled: the PCG64 state that
    ``SeedSequence(rng_seed, spawn_key=(generation,))`` seeds, which
    ``spawn_states`` derives. One ``Draws`` serves the run: generation 0's
    stream seeds the population through ``Draws.generator``, and the
    sampler is re-seeded at each later generation, so what seeding drew
    does not carry over; the selection, the rate tests and the operators
    all draw from it.
    """
    states = spawn_states(config.rng_seed, range(config.generations + 1))
    draws = Draws(*next(states))
    population = list(seed_population(draws.generator))
    n = config.population_size
    if len(population) != n:
        raise MetronetError(f"expected {n} genomes, got {len(population)}")

    sign = 1.0 if config.objective_sense == "maximize" else -1.0
    history = EvolutionHistory()
    best_genome: G | None = None
    best_score = -math.inf

    def evaluate(pop: list[G], gen: int) -> list[float]:
        """The generation's scores, ``sign * fitness``."""
        nonlocal best_genome, best_score
        fits = [float(fitness_fn(genome)) for genome in pop]
        if not all(map(math.isfinite, fits)):
            i = next(i for i, f in enumerate(fits) if not math.isfinite(f))
            raise MetronetError(f"fitness of genome {i} in generation {gen} is {fits[i]!r}")
        scores = [sign * f for f in fits]
        idx = scores.index(max(scores))
        if scores[idx] > best_score:
            best_score = scores[idx]
            best_genome = pop[idx]
        # np.mean's pairwise sum, not sum(): the recorded mean keeps numpy's rounding
        history.records.append(GenerationRecord(gen, fits[idx], float(np.mean(fits))))
        if on_generation is not None:
            on_generation(gen, pop, np.array(fits))
        return scores

    scores = evaluate(population, 0)
    for gen, (state, inc) in enumerate(states, start=1):
        draws.reseed(state, inc)
        population = _breed(population, scores, config, draws, crossover_fn, mutation_fn, validator_fn)
        scores = evaluate(population, gen)

    assert best_genome is not None
    return best_genome, history


def _breed(
    population: list[G],
    scores: list[float],
    config: GaConfig,
    draws: Draws,
    crossover_fn: CrossoverFn,
    mutation_fn: MutationFn,
    validator_fn: ValidatorFn,
) -> list[G]:
    n = config.population_size
    # a reverse sort is stable, so ties keep index order: the key (-score, i)
    ranked = sorted(range(n), key=scores.__getitem__, reverse=True)
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
            fitter = j if scores[j] > scores[i] else i
            children = (population[fitter],)
        for child in children:
            if len(new_population) >= n:
                break
            if random() < mutation_rate:
                child = mutation_fn(child, draws)
            new_population.append(validator_fn(child))
    return new_population
