"""Every array the library returns is read-only, so a caller can share it
and cannot change what a matrix, a sampler, a batch or a report holds."""

from functools import cache

import numpy as np
import pytest

from perronmc.chain_sim import build_sampler, sample_batch
from perronmc.estimator import (EstimationConfig, estimate_lambda,
                                estimate_u, run_estimation, shard_dispersion)
from perronmc.gw_app import Population, conditioned_proportions, step_generation
from perronmc.matrix_core import decompose, validate
from perronmc.oracle import (lemma_partial_sums, power_iteration,
                             quasispecies_residual)

from _support import ACCEPTANCE_2X2


@cache
def _matrix():
    return validate(ACCEPTANCE_2X2)


@cache
def _sampler():
    return build_sampler(decompose(_matrix()))


@cache
def _batch(cap=10_000):
    return sample_batch(_sampler(), 0, 2_000, seed=3, cap=cap, shards=4)


def _fitness():
    return decompose(_matrix()).fitness


def _lam():
    return estimate_lambda(_batch(), _fitness())


def _steps():
    # The recorded steps: the tail's, and its walkers' log sums.
    batch = _batch()
    assert batch.tail
    return [a for step in batch.tail for a in step] + [batch.tail_sums]


def _report():
    return run_estimation(_matrix(), EstimationConfig(samples=2_000, shards=4))


def _lemma():
    series = lemma_partial_sums(_matrix(), 0,
                                power_iteration(_matrix()).eigenvalue)
    return series.terms, series.partial_sums


ARRAYS = {
    "validate.entries": lambda: [_matrix().entries],
    "decompose.fitness": lambda: [_fitness()],
    "decompose.kernel": lambda: [decompose(_matrix()).kernel],
    "build_sampler.cumulative": lambda: [_sampler().cumulative],
    "build_sampler.guide": lambda: [_sampler().guide],
    "build_sampler.log_fitness": lambda: [_sampler().log_fitness],
    "sample_batch.return_times": lambda: [_batch().return_times],
    "sample_batch.log_sums": lambda: [_batch().log_sums],
    "sample_batch.shard_path_counts": lambda: [_batch().shard_path_counts],
    "sample_batch.lengths": lambda: [_batch().lengths],
    # A cap of 3 steps truncates some attempts, so lengths drops them.
    "sample_batch.lengths-truncated": lambda: [_batch(cap=3).lengths],
    "sample_batch.states": lambda: [_batch().states],
    "sample_batch.steps": _steps,
    "sample_batch.dense": lambda: [_batch().dense, _batch().shifts],
    "estimate_u": lambda: [estimate_u(_batch(), _fitness(), _lam())],
    "shard_dispersion": lambda: [shard_dispersion(_batch(), _fitness(),
                                                  _lam())],
    "run_estimation.u_hat": lambda: [_report().u_hat],
    "run_estimation.dispersion": lambda: [_report().dispersion],
    "power_iteration.vector": lambda: [power_iteration(_matrix()).vector],
    "lemma_partial_sums": lambda: list(_lemma()),
    "quasispecies_residual.per_state": lambda: [quasispecies_residual(
        _matrix(), power_iteration(_matrix()).vector).per_state],
    "step_generation.counts": lambda: [step_generation(
        Population(counts=np.array([1, 1]), generation=0),
        decompose(_matrix()), np.random.default_rng(4)).counts],
    "conditioned_proportions.poisson": lambda: [conditioned_proportions(
        _matrix(), 20, 3, seed=5)[0]],
    "conditioned_proportions.deterministic": lambda: [conditioned_proportions(
        _matrix(), 2, 2, seed=5, law="deterministic")[0]],
}


@pytest.mark.parametrize("name", ARRAYS)
def test_returned_arrays_are_read_only(name):
    arrays = ARRAYS[name]()
    assert arrays
    for a in arrays:
        assert isinstance(a, np.ndarray)
        assert not a.flags.writeable
