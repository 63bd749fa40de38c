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

CrossoverFn = Callable[[G, G, np.random.Generator], tuple[G, G]]
MutationFn = Callable[[G, np.random.Generator], G]
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


def roulette_wheel(scores: Sequence[float]) -> Callable[[np.random.Generator], int]:
    """Roulette wheel over the shifted selection weights of ``scores``.

    The returned ``spin(rng)`` draws one index with probability proportional
    to its weight, using exactly one ``rng.random()``.
    """
    # a list bisect finds the same slot as np.searchsorted(side="right") at a
    # fraction of its per-call cost
    cum = np.cumsum(selection_weights(scores)).tolist()
    total = cum[-1]
    last = len(cum) - 1

    def spin(rng: np.random.Generator) -> int:
        return min(bisect.bisect_right(cum, rng.random() * total), last)

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
    evaluations are scheduled.
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
        values = []
        for i, genome in enumerate(pop):
            value = float(fitness_fn(genome))
            if not math.isfinite(value):
                raise MetronetError(f"fitness of genome {i} in generation {gen} is {value!r}")
            values.append(value)
        fits = np.array(values)
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
        rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(gen,)))
        population = _breed(population, scores, config, rng, crossover_fn, mutation_fn, validator_fn)
        scores = evaluate(population, gen)

    assert best_genome is not None
    return best_genome, history


def _breed(
    population: list[G],
    scores: np.ndarray,
    config: GaConfig,
    rng: np.random.Generator,
    crossover_fn: CrossoverFn,
    mutation_fn: MutationFn,
    validator_fn: ValidatorFn,
) -> list[G]:
    n = config.population_size
    values = scores.tolist()
    ranked = sorted(range(n), key=lambda i: (-values[i], i))
    new_population = [population[i] for i in ranked[: config.elite_count]]

    spin = roulette_wheel(scores)
    while len(new_population) < n:
        i = spin(rng)
        j = spin(rng)
        if rng.random() < config.crossover_rate:
            children = list(crossover_fn(population[i], population[j], rng))
        else:
            fitter = j if values[j] > values[i] else i
            children = [population[fitter]]
        for child in children:
            if len(new_population) >= n:
                break
            if rng.random() < config.mutation_rate:
                child = mutation_fn(child, rng)
            new_population.append(validator_fn(child))
    return new_population
