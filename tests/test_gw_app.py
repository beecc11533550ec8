import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from perronmc import gw_app
from perronmc.chain_sim import _streams, mix_seed
from perronmc.cli import main
from perronmc.errors import (
    InvalidArgument,
    NoSurvivors,
    PopulationOverflow,
    Subcritical,
)
from perronmc.gw_app import (
    OFFSPRING_LAWS,
    Population,
    _grow,
    _step_block,
    check_arguments,
    conditioned_proportions,
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


def _grown(decomp, initial, horizon, seeds, law="poisson"):
    """One tree per seed from the counts ``initial``, tree ``t`` grown by
    ``_grow`` from ``default_rng(seeds[t])``, which draws what it would
    draw alone: (final counts, overflow generation or 0), one row a tree."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    counts = np.tile(np.asarray(initial, dtype=np.int64), (len(rngs), 1))
    return _grow(decomp, counts, horizon, rngs, law)


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

    @pytest.mark.parametrize("law", OFFSPRING_LAWS)
    def test_a_product_past_the_float_range_overflows(self, law):
        # Type 1's 10 parents expect 1e309 children, past the float range;
        # times the zero kernel entry (1e-300 / 1e308) the Poisson mean
        # of type 2 is NaN, which must not pass as a mass of no children.
        # A numeric warning fails the test.
        decomp = decompose(validate([[1e308, 1e-300], [1, 1]]))
        with pytest.raises(PopulationOverflow) as exc:
            step_generation(_pop([10, 10]), decomp, np.random.default_rng(5),
                            law=law)
        assert exc.value.generation == 1


class TestRunTree:
    """Whole trees grown by ``_grow``, the one branching loop."""

    def test_subcritical_dies_out(self):
        matrix = scale(random_stochastic_matrix(np.random.default_rng(5), 3),
                       0.5)
        assert power_iteration(matrix).eigenvalue == pytest.approx(0.5)
        final, _ = _grown(decompose(matrix), [1, 1, 1], 50, range(10_000))
        assert (final.sum(axis=1) > 0).mean() < 0.01

    def test_supercritical_survives_often(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        final, _ = _grown(decomp, [1, 0], 10, range(2_000))
        assert (final.sum(axis=1) > 0).mean() > 0.5

    def test_deterministic_given_seed(self):
        decomp = decompose(validate(ACCEPTANCE_2X2))
        a, _ = _grown(decomp, [1, 1], 6, [99])
        b, _ = _grown(decomp, [1, 1], 6, [99])
        np.testing.assert_array_equal(a, b)

    def test_overflow_needs_one_type_over_the_ceiling(self, monkeypatch):
        # Generation 1 has 9 children in 3 types: the total passes the
        # ceiling 8 but, at this seed, no type does.  Generation 2 has 27.
        monkeypatch.setattr(gw_app, "POPULATION_CEILING", 8)
        decomp = decompose(validate([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))
        counts, overflowed = _grown(decomp, [1, 1, 1], 1, [0],
                                    law="deterministic")
        assert counts.sum() == 9 and overflowed[0] == 0
        _, overflowed = _grown(decomp, [1, 1, 1], 3, [0], law="deterministic")
        assert overflowed[0] == 2

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_refused(self, horizon):
        matrix = validate(ACCEPTANCE_2X2)
        with pytest.raises(InvalidArgument):
            conditioned_proportions(matrix, power_iteration(matrix), trials=1,
                                    horizon=horizon, seed=0)

    def test_outcome_shape(self):
        matrix = validate(ACCEPTANCE_2X2)
        counts, _ = _grown(decompose(matrix), [1, 1], 5, [7])
        assert counts.shape == (1, 2) and counts.dtype == np.int64
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

    def test_a_deterministic_run_decomposes_once(self, tmp_path,
                                                 monkeypatch):
        calls = []
        real = gw_app.decompose
        monkeypatch.setattr(gw_app, "decompose",
                            lambda matrix: calls.append(matrix) or real(matrix))
        (tmp_path / "m.json").write_text(json.dumps({"n": 2,
                                                     "rows": [[0, 1], [1, 1]]}))
        monkeypatch.chdir(tmp_path)
        assert main(["gw-sim", "m.json", "--offspring-law", "deterministic",
                     "--trials", "5", "--horizon", "3"]) == 0
        assert len(calls) == 1

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


def _per_tree(counts, decomp, rng, law):
    """One tree's children in the one-dimensional arithmetic of a tree grown
    alone: the form the block step must reproduce bit for bit."""
    if law == "poisson":
        means = (counts * decomp.fitness) @ decomp.kernel
        mass = means.sum()
        if mass == 0.0:
            return np.zeros(decomp.n, dtype=np.int64)
        return rng.multinomial(rng.poisson(mass), means / mass)
    totals = counts * np.round(decomp.fitness).astype(np.int64)
    if not totals.any():  # such a call would draw nothing
        return np.zeros(decomp.n, dtype=np.int64)
    return rng.multinomial(totals, decomp.kernel).sum(axis=0)


class _Recording:
    """A generator that records the arguments of every draw, bit for bit."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def poisson(self, lam):
        self.calls.append(("poisson", np.float64(lam).tobytes()))
        return self.rng.poisson(lam)

    def multinomial(self, n, pvals):
        self.calls.append(("multinomial", np.asarray(n).tobytes(),
                           np.asarray(pvals).tobytes()))
        return self.rng.multinomial(n, pvals)


class TestBlockStep:
    """Trees grown together in a block draw what each draws alone."""

    @staticmethod
    def _block(law, n, trees):
        rng = np.random.default_rng([n, trees, OFFSPRING_LAWS.index(law)])
        if law == "poisson":
            entries = rng.uniform(0.0, 2.0, (n, n))
        else:  # integer row sums; zeros leave types without parents
            entries = rng.integers(0, 2, (n, n)).astype(float)
            entries[:, 0] += 1.0
        counts = rng.integers(0, 4, (trees, n))
        counts[::3] = 0  # extinct trees
        if n > 1:
            counts[1::3, 0] = 0  # a live tree with a type without parents
            counts[1::3, 1] = 1
        return decompose(unchecked(entries)), counts

    @pytest.mark.parametrize("trees", [1, 2, 1023, 1025])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 17, 100])
    @pytest.mark.parametrize("law", OFFSPRING_LAWS)
    def test_rows_match_one_tree_calls(self, law, n, trees):
        # Each generator must see the calls, arguments to the last bit, of
        # a tree grown alone; equal draws alone would rarely show a mean off
        # by one ulp.
        decomp, counts = self._block(law, n, trees)
        seeds = [mix_seed(70 + n, t) for t in range(trees)]
        rngs = np.array([_Recording(s) for s in seeds], dtype=object)
        child, total, over = _step_block(counts, decomp, rngs, law)
        assert child.shape == counts.shape and child.dtype == np.int64
        assert not over.any()
        for t, seed in enumerate(seeds):
            alone, reference = _Recording(seed), _Recording(seed)
            row = step_generation(_pop(counts[t]), decomp, alone, law).counts
            np.testing.assert_array_equal(child[t], row)
            np.testing.assert_array_equal(
                row, _per_tree(counts[t], decomp, reference, law))
            assert total[t] == row.sum()
            assert rngs[t].calls == alone.calls == reference.calls
            assert (rngs[t].rng.bit_generator.state
                    == alone.rng.bit_generator.state)
        assert not child[::3].any()

    @pytest.mark.parametrize("block", [gw_app.TREE_BLOCK, 4])
    def test_refusal_names_the_first_tree_that_overflows(self, block,
                                                         monkeypatch):
        # Type 2 grows 2.5-fold a generation, so trees pass the ceiling 100
        # at different generations.  At this seed tree 0
        # overflows at generation 6, tree 1 at 5 and tree 6 at 4: a block
        # that stopped at its earliest overflow would name generation 4.
        monkeypatch.setattr(gw_app, "POPULATION_CEILING", 100)
        monkeypatch.setattr(gw_app, "TREE_BLOCK", block)
        matrix = validate([[0.2, 0.2], [0.2, 2.5]])
        decomp, trials, horizon, seed = decompose(matrix), 10, 12, 3
        generations = [
            int(_grown(decomp, [1, 1], horizon, [mix_seed(seed, t)])[1][0])
            for t in range(trials)]
        assert generations[0] > min(generations[1:]) > 0
        with pytest.raises(PopulationOverflow) as exc:
            conditioned_proportions(matrix, power_iteration(matrix), trials,
                                    horizon, seed)
        assert exc.value.generation == generations[0] == 6

    @pytest.mark.parametrize("law", OFFSPRING_LAWS)
    def test_blocks_sum_in_tree_order(self, law, monkeypatch):
        # The same sum as growing the trees one by one, whatever the block.
        matrix = validate([[0, 1], [1, 1]])
        pair = power_iteration(matrix)
        decomp = decompose(matrix)
        trials, horizon, seed = 40, 9, 8
        summed, survivors = np.zeros(2), 0
        for t in range(trials):
            final, _ = _grown(decomp, [1, 1], horizon, [mix_seed(seed, t)], law)
            counts = final[0]
            if counts.sum() > 0:
                survivors += 1
                summed += counts / counts.sum()
        if law == "poisson":
            assert 0 < survivors < trials  # some trees die out
        for block in (1, 7, gw_app.TREE_BLOCK):
            monkeypatch.setattr(gw_app, "TREE_BLOCK", block)
            props, alive = conditioned_proportions(matrix, pair, trials,
                                                   horizon, seed, law=law)
            np.testing.assert_array_equal(props, summed / survivors)
            assert alive == survivors

    def test_memory_does_not_grow_with_trees(self):
        matrix = validate(ACCEPTANCE_2X2)
        pair = power_iteration(matrix)
        peaks = []
        for trials in (2 * gw_app.TREE_BLOCK, 10_000):
            tracemalloc.start()
            try:
                conditioned_proportions(matrix, pair, trials, horizon=2, seed=9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]


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
        # Tree t draws from default_rng(mix_seed(601, t)), grown in one block.
        final, overflowed = _grow(decomp, np.tile([1, 0], (trees, 1)),
                                  horizon, _streams(601, 0, trees), "poisson")
        assert not overflowed.any()
        new = final.astype(float)
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
        draws = np.array([step_generation(_pop(parents), decomp, rng).counts
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
            child = step_generation(_pop([0, 0]), decomp, rng, law)
            np.testing.assert_array_equal(child.counts, [0, 0])
        assert rng.bit_generator.state == state

    def test_deterministic_law_draws_the_per_type_stream(self):
        decomp = decompose(validate([[0, 1], [1, 1]]))
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            counts = np.ones(2, dtype=np.int64)
            for _ in range(8):
                expected = children_by_type(counts, decomp, a,
                                            law="deterministic")
                counts = step_generation(_pop(counts), decomp, b,
                                         "deterministic").counts
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


# Each row is a rotation of this dyadic vector, so every row sum is exactly
# 3 and the dominant eigenvalue is 3; the rotations repeat, so the column
# sums differ and the proportions are not uniform.
_LAMBDA3_ROW = [0.75, 0.5, 0.375, 0.25, 0.25, 0.25, 0.25, 0.125, 0.125, 0.125]


class TestFrozenPoissonStream:
    """``gw-sim`` stdout under the default Poisson law, pinned by sha256.

    The ``gw_sampler`` tag names this law's stream; these digests pin it,
    so a change that keeps the tag must keep every report.  The runs of
    more than 1,024 trees cross a block of trees.  The near-critical 2x2
    (eigenvalue about 1.076) loses most of its trees.
    """

    CASES = {
        "readme-2x2": (
            [[1, 2], [3, 4]],
            ["--trials", "2000", "--horizon", "10", "--seed", "1"],
            "d5bc5e44d9dad4b2bb2cfed3fa8b3f48d5bd7009d8f739e4920a86e7067c99ae"),
        "lambda3-10x10": (
            [[_LAMBDA3_ROW[(j + i * i) % 10] for j in range(10)]
             for i in range(10)],
            ["--trials", "300", "--horizon", "8", "--seed", "2"],
            "8af913c69f72ffe12a67e1f79f5817b0f9b1baa97815a4d3b794cd0c61e85058"),
        "near-critical-2x2": (
            [[0.75, 0.5], [0.375, 0.5]],
            ["--trials", "1500", "--horizon", "12", "--seed", "4"],
            "808f5f8697c9bfe9d91b6dc884656e69fbf65372d1f91e03f1bd58ed4f8d709e"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_is_frozen(self, name, tmp_path, monkeypatch, capsys):
        rows, flags, digest = self.CASES[name]
        (tmp_path / "m.json").write_text(json.dumps({"n": len(rows),
                                                     "rows": rows}))
        monkeypatch.chdir(tmp_path)
        assert main(["gw-sim", "m.json", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_overflow_refusal_is_frozen(self, tmp_path, monkeypatch, capsys):
        # Type 2 grows about 63-fold a generation, so a tree passes the
        # ceiling 10**9 at generation 5 or 6.  At this seed tree 0 passes it
        # at generation 6 and tree 1 at generation 5; the refusal names
        # tree 0's, the first tree in order that overflows.
        (tmp_path / "m.json").write_text(json.dumps(
            {"n": 2, "rows": [[0.5, 0.5], [0.5, 63]]}))
        monkeypatch.chdir(tmp_path)
        assert main(["gw-sim", "m.json", "--trials", "8", "--horizon", "8",
                     "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: PopulationOverflow: population "
                                "exceeded the ceiling 1000000000 at "
                                "generation 6\n")
