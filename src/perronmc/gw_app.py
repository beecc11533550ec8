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

The trees of a block of at most ``TREE_BLOCK`` grow in lockstep, one
generation at a time: the block is a ``(trees, N)`` array of counts, the
arithmetic of a generation runs once for all its live trees, and only the
draws loop over them, each from the tree's own generator.  Tree ``t``
draws from stream ``t`` of the seed, ``default_rng(mix_seed(seed, t))``;
a block's generators are built together by ``chain_sim._streams``, which
hashes their seeds in one vector pass and gives each tree the stream it
has always had.  A tree draws exactly what it would draw grown alone, so
the block changes no report.  Memory is bounded by the block, about
``TREE_BLOCK * N`` counts and ``TREE_BLOCK`` generators, whatever the
number of trees.  :func:`step_generation`, which advances one population
by one generation, runs a block of one tree.

A tree ends with :class:`PopulationOverflow` when some type count passes
``POPULATION_CEILING``, or when a generation's expected number of children
passes ``_DRAW_LIMIT``, the most that can be drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_sim import _streams
from .errors import (InvalidArgument, NoSurvivors, PopulationOverflow,
                     Subcritical, check_counts)
from .matrix_core import NonNegativeMatrix, RowDecomposition, decompose
from .oracle import PerronPair

__all__ = [
    "Population",
    "step_generation",
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
# Trees grown together by conditioned_proportions; bounds its memory.
TREE_BLOCK = 1024


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


# A product past the float range leaves an inf mass, or a NaN one where it
# meets a zero kernel entry: neither is <= _DRAW_LIMIT, so both overflow,
# and numpy need not warn of them.
@np.errstate(over="ignore", invalid="ignore")
def _step_block(counts: np.ndarray, decomp: RowDecomposition,
                rngs, law: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One generation of each tree of a block, from the parents ``counts``,
    a ``(trees, N)`` int64 array, row ``t`` drawing from ``rngs[t]``.

    The arithmetic runs once for the block; only the draws loop over the
    trees, and each tree's generator sees the calls a tree grown alone
    makes.  The means are stacked vector-matrix products, which numpy sends
    to the BLAS routine of a single tree's product, so their bits do not
    depend on the block.

    Returns:
        (children as a ``(trees, N)`` int64 array, their totals, and a mask
        of the trees that overflowed: some type count passes
        ``POPULATION_CEILING``, or the expected number of children passes
        ``_DRAW_LIMIT`` and nothing is drawn).
    """
    child = np.zeros(counts.shape, dtype=np.int64)
    if law == "poisson":
        means = ((counts * decomp.fitness)[:, None, :] @ decomp.kernel)[:, 0, :]
        mass = means.sum(axis=1)
        over = ~(mass <= _DRAW_LIMIT)
        draw = ~over & (mass > 0.0)
        if draw.any():
            split = means[draw] / mass[draw, None]
            child[draw] = [r.multinomial(r.poisson(m), p) for r, m, p
                           in zip(rngs[draw], mass[draw].tolist(), split)]
    elif law == "deterministic":
        per_parent = _whole_means(decomp.fitness, (counts > 0).any(axis=0))
        over = (counts[:, None, :] @ per_parent)[:, 0] > _DRAW_LIMIT
        # Only trees that overflow have parents whose mean passes the limit,
        # so capping it leaves every total that is drawn as it was.
        totals = counts * np.minimum(per_parent, _DRAW_LIMIT).astype(np.int64)
        # A tree without parents would draw nothing.
        draw = ~over & totals.any(axis=1)
        if draw.any():
            child[draw] = [r.multinomial(t, decomp.kernel).sum(axis=0)
                           for r, t in zip(rngs[draw], totals[draw])]
    else:
        raise InvalidArgument(
            f"unknown offspring law {law!r}; pick from {OFFSPRING_LAWS}")
    over |= child.max(axis=1) > POPULATION_CEILING
    return child, child.sum(axis=1), over


def _grow(decomp: RowDecomposition, counts: np.ndarray, horizon: int,
          rngs, law: str) -> tuple[np.ndarray, np.ndarray]:
    """Grow each row of ``counts`` for ``horizon`` generations in lockstep,
    row ``t`` drawing from ``rngs[t]``.

    A tree leaves the block when it dies out, since extinction is
    absorbing, or when it overflows.

    Returns:
        (final counts, and the generation at which each tree overflowed,
        0 for a tree that did not).
    """
    counts = counts.copy()
    rngs = np.array(rngs, dtype=object)
    overflowed = np.zeros(len(rngs), dtype=np.int64)
    live = np.arange(len(rngs))
    for generation in range(1, horizon + 1):
        if live.size == 0:
            break
        child, total, over = _step_block(counts[live], decomp, rngs[live], law)
        counts[live] = child
        overflowed[live[over]] = generation
        live = live[(total > 0) & ~over]
    return counts, overflowed


def step_generation(pop: Population, decomp: RowDecomposition,
                    rng: np.random.Generator,
                    law: str = DEFAULT_LAW) -> Population:
    """Advance the population by one generation, drawing from ``rng`` what
    a tree of :func:`conditioned_proportions` draws; a block of one tree.

    Raises:
        PopulationOverflow: some type count would exceed
            ``POPULATION_CEILING`` (supercritical growth guard), or the
            expected number of children passes what a 64-bit count can hold.
    """
    generation = pop.generation + 1
    child, _, over = _step_block(np.asarray(pop.counts)[None], decomp,
                                 np.array([rng], dtype=object), law)
    if over[0]:
        raise PopulationOverflow(generation, POPULATION_CEILING)
    child = child[0]
    child.flags.writeable = False
    return Population(counts=child, generation=generation)


def check_arguments(matrix: NonNegativeMatrix, trials: int, horizon: int,
                    law: str) -> None:
    """Refuse what :func:`conditioned_proportions` refuses without reading
    its pair, so that a caller can refuse it before power iteration.

    The row sums are computed as :func:`decompose` computes the fitness,
    so both refuse the same means."""
    check_counts(trials=trials, horizon=horizon)
    if law == "deterministic":  # every tree starts with each type
        _whole_means(matrix.entries.sum(axis=1), True)


def conditioned_proportions(matrix: NonNegativeMatrix, pair: PerronPair,
                            trials: int, horizon: int, seed: int,
                            law: str = DEFAULT_LAW) -> tuple[np.ndarray, int]:
    """Average type proportions over trees that survive to the horizon.

    Each tree starts from one individual of every type and gets its own
    stream, ``np.random.default_rng(mix_seed(seed, tree_index))``, so trees
    could run in any order or in parallel without changing the result.  A
    block's streams are seeded together by ``chain_sim._streams``, bit for
    bit the generators seeded one tree at a time.  They grow in
    blocks of ``TREE_BLOCK`` trees, one generation at a time, so memory
    does not grow with ``trials``.  A tree that overflows leaves its block;
    the refusal names the first tree in order that overflowed, before a
    later block runs, as growing the trees one by one would.  Every
    surviving tree weighs equally, and its proportions are added in tree
    order.  ``pair`` is the matrix's Perron pair, from
    :func:`perronmc.oracle.power_iteration`.

    Returns:
        (proportions on the simplex, number of surviving trees).

    Raises:
        InvalidArgument: as in :func:`check_arguments`.
        Subcritical: the dominant eigenvalue is <= 1.
        PopulationOverflow: as in :func:`step_generation`, for some tree.
        NoSurvivors: no tree survived to the horizon.
    """
    check_arguments(matrix, trials, horizon, law)
    decomp = decompose(matrix)
    if pair.eigenvalue <= 1.0:
        raise Subcritical(pair.eigenvalue)

    n = matrix.n
    summed = np.zeros(n)
    survivors = 0
    for lo in range(0, trials, TREE_BLOCK):
        hi = min(lo + TREE_BLOCK, trials)
        rngs = _streams(seed, lo, hi)
        final, overflowed = _grow(decomp, np.ones((hi - lo, n), dtype=np.int64),
                                  horizon, rngs, law)
        if overflowed.any():  # the first tree in order that overflowed
            raise PopulationOverflow(int(overflowed[overflowed > 0][0]),
                                     POPULATION_CEILING)
        total = final.sum(axis=1)
        alive = total > 0
        survivors += int(alive.sum())
        for share in final[alive] / total[alive, None]:  # in tree order
            summed += share
    if survivors == 0:
        raise NoSurvivors(trials, horizon)
    proportions = summed / survivors
    proportions.flags.writeable = False
    return proportions, survivors
