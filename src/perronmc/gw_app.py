"""Multitype branching simulation whose mean matrix is the input matrix.

Individuals of type i produce a random number of offspring with mean f(i)
(Poisson by default), and each offspring independently becomes type j with
probability M(i, j).  Expected next-generation counts from a population
vector p are therefore p @ A.  When the dominant eigenvalue exceeds 1 the
process survives with positive probability, and the type proportions of
surviving trees settle near the dominant left eigenvector.

A generation is drawn in aggregate, whatever the population size.  Under
the Poisson law, parents ``c`` have type-j children that are independent
Poisson((c @ A)_j) by Poisson thinning and superposition (Kingman,
*Poisson Processes*, 1993, sections 1.2 and 5.1).  Their total is
therefore Poisson(sum_j (c @ A)_j), and given the total the types are
multinomial with probabilities proportional to c @ A, so a generation
costs one Poisson draw and one multinomial draw.  Under the deterministic
law each type-i parent has exactly f(i) children, and one multinomial call
splits every type's children by its row of M; types without parents
consume no draws.

A tree ends with :class:`PopulationOverflow` when some type count passes
``POPULATION_CEILING``, or when a generation's expected number of children
passes ``_DRAW_LIMIT``, the most that can be drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_sim import mix_seed
from .errors import (InvalidArgument, NoSurvivors, PopulationOverflow,
                     Subcritical, check_counts)
from .matrix_core import NonNegativeMatrix, RowDecomposition, decompose
from .oracle import PerronPair

__all__ = [
    "Population",
    "step_generation",
    "run_tree",
    "check_arguments",
    "conditioned_proportions",
]

POPULATION_CEILING = 10**9
DEFAULT_TRIALS = 10_000
DEFAULT_HORIZON = 10
DEFAULT_LAW = "poisson"
OFFSPRING_LAWS = (DEFAULT_LAW, "deterministic")
# Names the Poisson law's random stream in a report's config; the
# deterministic law draws the stream it always has and carries no tag.
POISSON_SAMPLER = "poisson-total-split"
# Largest expected number of children in one generation that can be drawn:
# numpy's Poisson sampler refuses a mean above about 9.2234e18, and
# counts are int64.
_DRAW_LIMIT = 9.2e18


@dataclass(frozen=True)
class Population:
    """Per-type individual counts at one generation."""

    counts: np.ndarray
    generation: int

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _whole_means(fitness: np.ndarray, present) -> np.ndarray:
    """Children per parent under the deterministic law; refuses a type in
    ``present`` whose mean is not an integer."""
    per_parent = np.round(fitness)
    off = present & (np.abs(fitness - per_parent) > 1e-9)
    if off.any():
        raise InvalidArgument("deterministic offspring law needs integer "
                              f"means, got {fitness[off.argmax()]}")
    return per_parent


def _generation(counts: np.ndarray, decomp: RowDecomposition,
                rng: np.random.Generator, law: str,
                generation: int) -> tuple[np.ndarray, int]:
    """Per-type offspring counts of the parents ``counts``, as int64, and
    their total; the children are generation ``generation``.

    Raises:
        PopulationOverflow: some type count passes ``POPULATION_CEILING``,
            or the expected number of children passes ``_DRAW_LIMIT``.
    """
    if law == "poisson":
        means = (counts * decomp.fitness) @ decomp.kernel
        mass = means.sum()
        if mass > _DRAW_LIMIT:
            raise PopulationOverflow(generation, POPULATION_CEILING)
        child = (rng.multinomial(rng.poisson(mass), means / mass) if mass > 0.0
                 else np.zeros(decomp.n, dtype=np.int64))
    elif law == "deterministic":
        per_parent = _whole_means(decomp.fitness, counts > 0)
        if counts @ per_parent > _DRAW_LIMIT:
            raise PopulationOverflow(generation, POPULATION_CEILING)
        totals = counts * per_parent.astype(np.int64)
        child = rng.multinomial(totals, decomp.kernel).sum(axis=0)
    else:
        raise InvalidArgument(
            f"unknown offspring law {law!r}; pick from {OFFSPRING_LAWS}")
    total = child.sum()
    # The largest count never exceeds the total.
    if total > POPULATION_CEILING and child.max() > POPULATION_CEILING:
        raise PopulationOverflow(generation, POPULATION_CEILING)
    return child, total


def step_generation(pop: Population, decomp: RowDecomposition,
                    rng: np.random.Generator,
                    law: str = DEFAULT_LAW) -> Population:
    """Advance the population by one generation, as :func:`run_tree` does.

    Raises:
        PopulationOverflow: some type count would exceed
            ``POPULATION_CEILING`` (supercritical growth guard), or the
            expected number of children passes what a 64-bit count can hold.
    """
    generation = pop.generation + 1
    child, _ = _generation(pop.counts, decomp, rng, law, generation)
    child.flags.writeable = False
    return Population(counts=child, generation=generation)


def run_tree(decomp: RowDecomposition, initial: np.ndarray, horizon: int,
             seed: int, law: str = DEFAULT_LAW) -> np.ndarray:
    """Simulate one tree of the process with mean matrix ``decomp`` from
    the per-type counts ``initial`` for ``horizon`` generations and return
    its final per-type counts.

    Extinction is absorbing, so simulation stops early once every count is
    zero; the tree survived exactly when the counts are not all zero.
    Deterministic for fixed arguments.

    Raises:
        PopulationOverflow: as in :func:`step_generation`.
    """
    check_counts(horizon=horizon)
    rng = np.random.default_rng(seed)
    counts = np.asarray(initial, dtype=np.int64)
    for generation in range(1, horizon + 1):
        counts, total = _generation(counts, decomp, rng, law, generation)
        if total == 0:
            break
    return counts


def check_arguments(matrix: NonNegativeMatrix, trials: int, horizon: int,
                    law: str) -> None:
    """Refuse what :func:`conditioned_proportions` refuses without reading
    its pair, so that a caller can refuse it before power iteration."""
    check_counts(trials=trials, horizon=horizon)
    if law == "deterministic":  # every tree starts with each type
        _whole_means(decompose(matrix).fitness, True)


def conditioned_proportions(matrix: NonNegativeMatrix, pair: PerronPair,
                            trials: int, horizon: int, seed: int,
                            law: str = DEFAULT_LAW) -> tuple[np.ndarray, int]:
    """Average type proportions over trees that survive to the horizon.

    Each tree starts from one individual of every type and gets its own
    stream seeded by ``mix_seed(seed, tree_index)``, so trees could run in
    any order or in parallel without changing the result.  Every surviving
    tree weighs equally.  ``pair`` is the matrix's Perron pair, from
    :func:`perronmc.oracle.power_iteration`.

    Returns:
        (proportions on the simplex, number of surviving trees).

    Raises:
        InvalidArgument: as in :func:`check_arguments`.
        Subcritical: the dominant eigenvalue is <= 1.
        NoSurvivors: no tree survived to the horizon.
    """
    check_arguments(matrix, trials, horizon, law)
    if pair.eigenvalue <= 1.0:
        raise Subcritical(pair.eigenvalue)

    decomp = decompose(matrix)
    n = matrix.n
    start = np.ones(n, dtype=np.int64)
    summed = np.zeros(n)
    survivors = 0
    for t in range(trials):
        counts = run_tree(decomp, start, horizon, mix_seed(seed, t), law=law)
        total = counts.sum()
        if total > 0:
            survivors += 1
            summed += counts / total
    if survivors == 0:
        raise NoSurvivors(trials, horizon)
    proportions = summed / survivors
    proportions.flags.writeable = False
    return proportions, survivors
