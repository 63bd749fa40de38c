"""The GA engine as it was before ``evolve.Draws``, kept as a reference.

``run_reference`` is ``evolve.run`` with its breeding loop, copied unchanged
but for their names, and with its own numpy pieces: the seeding function
and then each generation draw from a fresh
``default_rng(SeedSequence(rng_seed, spawn_key=(gen,)))``, generation 0 for
the seeding, one numpy call per value; the scores are numpy arrays; and the
roulette wheel is ``selection_weights``, ``np.cumsum`` and
``np.searchsorted``. The tests require ``evolve.run`` to give the same
populations, fitnesses, histories and best genome, so a sampler that draws
a different value, a derived seed state that differs from numpy's, a wheel
that picks another slot, or a loop that spends one more draw, fails there.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from metronet.errors import MetronetError
from metronet.evolve import EvolutionHistory, GaConfig, GenerationRecord


def selection_weights(scores: Sequence[float]) -> np.ndarray:
    """Shifted roulette weights: s - min(s) + eps, with eps = 1e-6 * (spread + 1)."""
    values = np.asarray(scores, dtype=float)
    lo, hi = values.min(), values.max()
    return values - lo + 1e-6 * ((hi - lo) + 1.0)


def roulette_wheel_reference(scores: Sequence[float]):
    """``spin(rng)``: the slot ``np.searchsorted`` finds for one ``rng.random()``, clipped to the last."""
    cum = np.cumsum(selection_weights(scores))
    last = len(cum) - 1

    def spin(rng) -> int:
        return min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), last)

    return spin


def _stream(config: GaConfig, gen: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(gen,)))


def run_reference(seed_population, fitness_fn, crossover_fn, mutation_fn, validator_fn,
                  config: GaConfig, on_generation=None):
    population = list(seed_population(_stream(config, 0)))
    n = config.population_size
    if len(population) != n:
        raise MetronetError(f"expected {n} genomes, got {len(population)}")

    sign = 1.0 if config.objective_sense == "maximize" else -1.0
    history = EvolutionHistory()
    best_genome = None
    best_score = -math.inf

    def evaluate(pop, gen):
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
        population = _breed_reference(population, scores, config, _stream(config, gen),
                                      crossover_fn, mutation_fn, validator_fn)
        scores = evaluate(population, gen)

    assert best_genome is not None
    return best_genome, history


def _breed_reference(population: list, scores: np.ndarray, config: GaConfig, rng: np.random.Generator,
                     crossover_fn, mutation_fn, validator_fn) -> Sequence:
    n = config.population_size
    values = scores.tolist()
    ranked = sorted(range(n), key=lambda i: (-values[i], i))
    new_population = [population[i] for i in ranked[: config.elite_count]]

    spin = roulette_wheel_reference(scores)
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
