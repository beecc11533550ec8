import numpy as np
import pytest

from perronmc.errors import NoSurvivors, PopulationOverflow, Subcritical
from perronmc.gw_app import (
    Population,
    conditioned_proportions,
    run_tree,
    step_generation,
)
from perronmc.matrix_core import decompose, scale, validate
from perronmc.oracle import power_iteration

from _support import (
    ACCEPTANCE_2X2,
    closed_form_2x2,
    random_stochastic_matrix,
    unchecked,
)


def _pop(counts, generation=0):
    return Population(counts=np.asarray(counts, dtype=np.int64),
                      generation=generation)


class TestStepGeneration:
    @pytest.mark.parametrize("ancestor_type", [0, 1])
    def test_mean_matrix_row(self, ancestor_type):
        # 10^5 independent type-i ancestors pooled in one population; the
        # Poisson law makes pooling exact, so per-ancestor means match A.
        matrix = validate(ACCEPTANCE_2X2)
        decomp = decompose(matrix)
        reps = 10**5
        counts = np.zeros(2, dtype=np.int64)
        counts[ancestor_type] = reps
        rng = np.random.default_rng(50 + ancestor_type)
        child = step_generation(_pop(counts), decomp, rng)
        per_ancestor = child.counts / reps
        row = matrix.entries[ancestor_type]
        np.testing.assert_allclose(per_ancestor, row, rtol=0.03)

    def test_extinction_is_absorbing(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        rng = np.random.default_rng(0)
        pop = _pop([0, 0])
        for _ in range(5):
            pop = step_generation(pop, decomp, rng)
            assert pop.total == 0

    def test_deterministic_law_conserves_stochastic_totals(self):
        # One offspring per parent when every row sums to 1: the flip
        # chain just relabels types, so the counts swap exactly.
        decomp = decompose(unchecked([[0.0, 1.0], [1.0, 0.0]]))
        rng = np.random.default_rng(1)
        pop = _pop([7, 11])
        for _ in range(6):
            before = pop.counts.copy()
            pop = step_generation(pop, decomp, rng, law="deterministic")
            np.testing.assert_array_equal(pop.counts, before[::-1])

    def test_deterministic_law_requires_integer_means(self):
        decomp = decompose(validate([[1.0, 1.5], [2.0, 2.0]]))
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            step_generation(_pop([1, 1]), decomp, rng, law="deterministic")

    def test_unknown_law_rejected(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        with pytest.raises(ValueError):
            step_generation(_pop([1, 1]), decomp, np.random.default_rng(2),
                            law="geometric")

    def test_population_overflow(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        rng = np.random.default_rng(3)
        with pytest.raises(PopulationOverflow) as exc:
            step_generation(_pop([1000, 1000], generation=4), decomp, rng,
                            ceiling=100)
        assert exc.value.generation == 5

    def test_generation_advances(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        child = step_generation(_pop([1, 1], generation=3), decomp,
                                np.random.default_rng(4))
        assert child.generation == 4


class TestRunTree:
    def test_subcritical_dies_out(self):
        matrix = scale(random_stochastic_matrix(np.random.default_rng(5), 3),
                       0.5)
        assert power_iteration(matrix).eigenvalue == pytest.approx(0.5)
        decomp = decompose(matrix)
        survivors = sum(
            run_tree(decomp, _pop([1, 1, 1]), horizon=50, seed=seed).sum() > 0
            for seed in range(10_000)
        )
        assert survivors / 10_000 < 0.01

    def test_supercritical_survives_often(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        survivors = sum(
            run_tree(decomp, _pop([1, 0]), horizon=10, seed=seed).sum() > 0
            for seed in range(2_000)
        )
        assert survivors / 2_000 > 0.5

    def test_deterministic_given_seed(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        a = run_tree(decomp, _pop([1, 1]), horizon=6, seed=99)
        b = run_tree(decomp, _pop([1, 1]), horizon=6, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_outcome_shape(self):
        matrix = validate(ACCEPTANCE_2X2)
        counts = run_tree(decompose(matrix), _pop([1, 1]), horizon=5, seed=7)
        assert counts.shape == (2,) and counts.dtype == np.int64
        assert (counts >= 0).all()
        props, survivors = conditioned_proportions(matrix, trials=20,
                                                   horizon=5, seed=7)
        assert survivors > 0
        assert (props >= 0).all()
        assert props.sum() == pytest.approx(1.0)


class TestConditionedProportions:
    def test_2x2_converges_to_left_eigenvector(self):
        _, u_true = closed_form_2x2()
        props, survivors = conditioned_proportions(
            validate(ACCEPTANCE_2X2), trials=1_000, horizon=10, seed=31)
        assert survivors > 900
        assert np.abs(props - u_true).sum() < 0.05

    def test_symmetric_matrix_is_uniform(self):
        props, _ = conditioned_proportions(
            validate([[2.0, 2.0], [2.0, 2.0]]), trials=500, horizon=8, seed=32)
        np.testing.assert_allclose(props, [0.5, 0.5], atol=0.02)

    def test_horizon_improves_agreement(self):
        _, u_true = closed_form_2x2()
        matrix = validate(ACCEPTANCE_2X2)
        gaps = []
        for horizon in (3, 10):
            total = 0.0
            for seed in (41, 42, 43):
                props, _ = conditioned_proportions(matrix, trials=300,
                                                   horizon=horizon, seed=seed)
                total += np.abs(props - u_true).sum()
            gaps.append(total / 3)
        assert gaps[1] < gaps[0]

    def test_subcritical_rejected(self):
        matrix = random_stochastic_matrix(np.random.default_rng(6), 3)
        with pytest.raises(Subcritical):
            conditioned_proportions(matrix, trials=10, horizon=5, seed=0)

    def test_no_survivors(self):
        # Barely supercritical: most trees die fast, three trials suffice.
        matrix = scale(random_stochastic_matrix(np.random.default_rng(7), 2),
                       1.02)
        with pytest.raises(NoSurvivors):
            conditioned_proportions(matrix, trials=3, horizon=40, seed=12)

    def test_determinism(self):
        matrix = validate(ACCEPTANCE_2X2)
        a = conditioned_proportions(matrix, trials=100, horizon=6, seed=34)
        b = conditioned_proportions(matrix, trials=100, horizon=6, seed=34)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]
