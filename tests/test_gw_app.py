import hashlib
import json

import numpy as np
import pytest

from perronmc import gw_app
from perronmc.chain_sim import mix_seed
from perronmc.cli import main
from perronmc.errors import (
    InvalidArgument,
    NoSurvivors,
    PopulationOverflow,
    Subcritical,
)
from perronmc.gw_app import (
    Population,
    _generation,
    check_arguments,
    conditioned_proportions,
    run_tree,
    step_generation,
)
from perronmc.matrix_core import decompose, validate
from perronmc.oracle import power_iteration

from _support import (
    ACCEPTANCE_2X2,
    children_by_type,
    closed_form_2x2,
    random_stochastic_matrix,
    scale,
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

    def test_population_overflow(self, monkeypatch):
        monkeypatch.setattr(gw_app, "POPULATION_CEILING", 100)
        decomp = decompose(validate(ACCEPTANCE_2X2))
        rng = np.random.default_rng(3)
        with pytest.raises(PopulationOverflow) as exc:
            step_generation(_pop([1000, 1000], generation=4), decomp, rng)
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
            run_tree(decomp, [1, 1, 1], horizon=50, seed=seed).sum() > 0
            for seed in range(10_000)
        )
        assert survivors / 10_000 < 0.01

    def test_supercritical_survives_often(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        survivors = sum(
            run_tree(decomp, [1, 0], horizon=10, seed=seed).sum() > 0
            for seed in range(2_000)
        )
        assert survivors / 2_000 > 0.5

    def test_deterministic_given_seed(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        a = run_tree(decomp, [1, 1], horizon=6, seed=99)
        b = run_tree(decomp, [1, 1], horizon=6, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_overflow_needs_one_type_over_the_ceiling(self, monkeypatch):
        # Generation 1 has 9 children in 3 types: the total passes the
        # ceiling 8 but, at this seed, no type does.  Generation 2 has 27.
        monkeypatch.setattr(gw_app, "POPULATION_CEILING", 8)
        decomp = decompose(validate([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))
        counts = run_tree(decomp, [1, 1, 1], horizon=1, seed=0,
                          law="deterministic")
        assert counts.sum() == 9
        with pytest.raises(PopulationOverflow) as exc:
            run_tree(decomp, [1, 1, 1], horizon=3, seed=0,
                     law="deterministic")
        assert exc.value.generation == 2

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_refused(self, horizon):
        with pytest.raises(InvalidArgument):
            run_tree(decompose(validate(ACCEPTANCE_2X2)), [1, 0],
                     horizon=horizon, seed=0)

    def test_outcome_shape(self):
        matrix = validate(ACCEPTANCE_2X2)
        counts = run_tree(decompose(matrix), [1, 1], horizon=5, seed=7)
        assert counts.shape == (2,) and counts.dtype == np.int64
        assert (counts >= 0).all()
        props, survivors = conditioned_proportions(
            matrix, power_iteration(matrix), trials=20, horizon=5, seed=7)
        assert survivors > 0
        assert (props >= 0).all()
        assert props.sum() == pytest.approx(1.0)


class TestConditionedProportions:
    def test_2x2_converges_to_left_eigenvector(self):
        _, u_true = closed_form_2x2()
        matrix = validate(ACCEPTANCE_2X2)
        props, survivors = conditioned_proportions(
            matrix, power_iteration(matrix), trials=1_000, horizon=10, seed=31)
        assert survivors > 900
        assert np.abs(props - u_true).sum() < 0.05

    def test_symmetric_matrix_is_uniform(self):
        matrix = validate([[2.0, 2.0], [2.0, 2.0]])
        props, _ = conditioned_proportions(
            matrix, power_iteration(matrix), trials=500, horizon=8, seed=32)
        np.testing.assert_allclose(props, [0.5, 0.5], atol=0.02)

    def test_horizon_improves_agreement(self):
        _, u_true = closed_form_2x2()
        matrix = validate(ACCEPTANCE_2X2)
        pair = power_iteration(matrix)
        gaps = []
        for horizon in (3, 10):
            total = 0.0
            for seed in (41, 42, 43):
                props, _ = conditioned_proportions(
                    matrix, pair, trials=300, horizon=horizon, seed=seed)
                total += np.abs(props - u_true).sum()
            gaps.append(total / 3)
        assert gaps[1] < gaps[0]

    def test_subcritical_rejected(self):
        matrix = random_stochastic_matrix(np.random.default_rng(6), 3)
        with pytest.raises(Subcritical):
            conditioned_proportions(matrix, power_iteration(matrix),
                                    trials=10, horizon=5, seed=0)

    @pytest.mark.parametrize("rows,trials,horizon,law", [
        (ACCEPTANCE_2X2, 0, 5, "poisson"),
        (ACCEPTANCE_2X2, 10, 0, "poisson"),
        # Subcritical as well: the mean is refused first.
        ([[0.5, 0.25], [0.25, 0.5]], 10, 5, "deterministic"),
    ])
    def test_arguments_are_refused_before_the_pair_is_read(self, rows, trials,
                                                           horizon, law):
        matrix = validate(rows)
        with pytest.raises(InvalidArgument):
            check_arguments(matrix, trials, horizon, law)
        with pytest.raises(InvalidArgument):
            conditioned_proportions(matrix, None, trials, horizon, seed=0,
                                    law=law)

    def test_integer_means_pass_the_check(self):
        check_arguments(validate(ACCEPTANCE_2X2), 1, 1, "deterministic")

    def test_no_survivors(self):
        # Barely supercritical: most trees die fast, three trials suffice.
        matrix = scale(random_stochastic_matrix(np.random.default_rng(7), 2),
                       1.02)
        with pytest.raises(NoSurvivors):
            conditioned_proportions(matrix, power_iteration(matrix),
                                    trials=3, horizon=40, seed=12)

    def test_determinism(self):
        matrix = validate(ACCEPTANCE_2X2)
        pair = power_iteration(matrix)
        a = conditioned_proportions(matrix, pair, trials=100, horizon=6, seed=34)
        b = conditioned_proportions(matrix, pair, trials=100, horizon=6, seed=34)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]


class TestOffspringLaw:
    """The Poisson law is drawn as one total and one multinomial split per
    generation; these tests pin it to the law of the per-type sampler."""

    @staticmethod
    def _moments(final):
        extinct = (final.sum(axis=1) == 0).astype(float)
        n = final.shape[0]
        centred = final - final.mean(axis=0)
        var = final.var(axis=0)
        m4 = (centred ** 4).mean(axis=0)
        return {
            "mean": (final.mean(axis=0), np.sqrt(var / n)),
            "var": (var, np.sqrt((m4 - var ** 2) / n)),
            "extinct": (extinct.mean(), extinct.std() / np.sqrt(n)),
        }

    def test_matches_the_per_type_reference(self):
        # One type-1 ancestor, which has no children with probability e**-3.
        decomp = decompose(validate(ACCEPTANCE_2X2))
        trees, horizon = 20_000, 3
        new = np.array([
            run_tree(decomp, [1, 0], horizon=horizon, seed=mix_seed(601, t))
            for t in range(trees)
        ], dtype=float)
        rng = np.random.default_rng(602)
        old = np.empty_like(new)
        for t in range(trees):
            counts = np.array([1, 0], dtype=np.int64)
            for _ in range(horizon):
                if counts.sum() == 0:
                    break
                counts = children_by_type(counts, decomp, rng)
            old[t] = counts
        new_m, old_m = self._moments(new), self._moments(old)
        assert 0.01 < old_m["extinct"][0] < 0.5
        for key in ("mean", "var", "extinct"):
            (a, se_a), (b, se_b) = new_m[key], old_m[key]
            assert (np.abs(a - b) <= 4 * np.hypot(se_a, se_b)).all(), key

    def test_one_generation_is_independent_poisson(self):
        # Type-j children of parents c are independent Poisson((c @ A)_j):
        # each mean equals its variance and the covariances vanish.
        matrix = validate([[1.0, 2.0, 0.5], [3.0, 4.0, 1.0], [0.2, 1.0, 2.0]])
        decomp = decompose(matrix)
        parents = np.array([400, 100, 250], dtype=np.int64)
        expected = parents @ matrix.entries
        reps = 20_000
        rng = np.random.default_rng(603)
        draws = np.array([_generation(parents, decomp, rng, "poisson", 1)[0]
                          for _ in range(reps)], dtype=float)
        mean = draws.mean(axis=0)
        cov = np.cov(draws, rowvar=False)
        assert (np.abs(mean - expected)
                <= 4 * np.sqrt(expected / reps)).all()
        # Poisson(m) has fourth central moment 3m^2 + m.
        assert (np.abs(np.diag(cov) - expected)
                <= 4 * np.sqrt((2 * expected ** 2 + expected) / reps)).all()
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(cov[i, j]) <= 4 * np.sqrt(expected[i] * expected[j]
                                                 / reps)

    def test_extinct_parents_draw_nothing(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        rng = np.random.default_rng(604)
        state = rng.bit_generator.state
        for law in ("poisson", "deterministic"):
            child, _ = _generation(np.zeros(2, dtype=np.int64), decomp, rng,
                                   law, 1)
            np.testing.assert_array_equal(child, [0, 0])
        assert rng.bit_generator.state == state

    def test_deterministic_law_draws_the_per_type_stream(self):
        decomp = decompose(validate([[0, 1], [1, 1]]))
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            counts = np.ones(2, dtype=np.int64)
            for _ in range(8):
                expected = children_by_type(counts, decomp, a,
                                            law="deterministic")
                counts, _ = _generation(counts, decomp, b, "deterministic",
                                        1)
                np.testing.assert_array_equal(counts, expected)
            assert a.bit_generator.state == b.bit_generator.state


class TestFrozenDeterministicStream:
    """``gw-sim --offspring-law deterministic`` stdout, pinned by sha256.

    Deterministic-law reports carry no sampler tag, so these digests pin
    that law's stream.  The matrix path is part of the report, so each case
    runs in its own directory.  The Fibonacci matrix leaves some type
    without parents in about one generation in twenty, and a type without
    parents must consume no draws.
    """

    CASES = {
        "integer-3x3": (
            "m.json", [[1, 1, 0], [0, 2, 1], [1, 1, 1]],
            ["--trials", "200", "--horizon", "6", "--seed", "5"],
            "b57cb93c7f4d549a61ed24227e7017e39111c3356a3388738c1824c8fc33884c"),
        "fibonacci-2x2": (
            "fib.json", [[0, 1], [1, 1]],
            ["--trials", "300", "--horizon", "8", "--seed", "9"],
            "f6a16278e4e4ac6704032da5c2f998042f1beebcb03c1d2f46f4426b0669a9b2"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_is_frozen(self, name, tmp_path, monkeypatch, capsys):
        path, rows, flags, digest = self.CASES[name]
        (tmp_path / path).write_text(json.dumps({"n": len(rows),
                                                 "rows": rows}))
        monkeypatch.chdir(tmp_path)
        assert main(["gw-sim", path, "--offspring-law", "deterministic",
                     *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
