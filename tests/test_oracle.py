import itertools

import numpy as np
import pytest

from perronmc import oracle
from perronmc.errors import (
    Divergence,
    InvalidArgument,
    NoConvergence,
    NotOnSimplex,
)
from perronmc.cli import parse_matrix
from perronmc.matrix_core import validate
from perronmc.oracle import (
    lemma_partial_sums,
    power_iteration,
    quasispecies_residual,
)

from _support import (
    ACCEPTANCE_2X2,
    GOLDEN,
    bench_matrix,
    closed_form_2x2,
    collatz_wielandt,
    lemma_terms_reference,
    random_primitive_matrix,
    random_stochastic_matrix,
    scale,
)


class TestPowerIteration:
    @pytest.mark.parametrize("name", [
        "m2", "sparse3", "spread10", "compare-uniform-n100",
        "compare-master-n200", "gw-n10"])
    def test_eigenvalue_in_the_collatz_wielandt_bracket(self, name):
        # The bracket on the oracle's own vector bounds rho whatever the
        # rest of the spectrum.  Its relative width was 5.5e-15 (m2) to
        # 4.5e-14 (sparse3).  The oracle's lam is the sum of the product of
        # the iterate before the last, so it may lie outside the bracket of
        # the last one, but by no more than the residual it reports: sum(v
        # A) is the v-weighted mean of the bracket's ratios, and it differs
        # from lam by at most sum|v A - lam v|.  On m2 lam lies 1.2e-14
        # above the bracket, with a residual of 1.4e-14 times lam.
        if name.startswith(("compare-", "gw-")):
            matrix = bench_matrix(name, 0)
        elif name == "m2":
            matrix = validate(ACCEPTANCE_2X2)
        else:
            matrix = parse_matrix(GOLDEN / "inputs" / f"{name}.json")
        pair = power_iteration(matrix)
        lam = pair.eigenvalue
        lo, hi = collatz_wielandt(matrix.entries, pair.vector)
        assert 0 < lo <= hi
        assert hi - lo <= 1e-12 * lam
        # A dot product of n terms rounds by at most n eps of its terms.
        slack = pair.residual + matrix.n * np.finfo(float).eps * lam
        assert lo - slack <= lam <= hi + slack

    def test_2x2_closed_form(self):
        lam_true, u_true = closed_form_2x2()
        pair = power_iteration(validate(ACCEPTANCE_2X2))
        assert abs(pair.eigenvalue - lam_true) < 1e-10
        assert np.abs(pair.vector - u_true).sum() < 1e-8

    def test_doubly_stochastic(self):
        pair = power_iteration(validate([[0.5, 0.5], [0.5, 0.5]]))
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pair.vector, [0.5, 0.5], atol=1e-12)

    def test_scaling(self):
        matrix = validate(ACCEPTANCE_2X2)
        base = power_iteration(matrix)
        scaled = power_iteration(scale(matrix, 3.0))
        assert scaled.eigenvalue == pytest.approx(3.0 * base.eigenvalue,
                                                  rel=1e-12)
        np.testing.assert_allclose(scaled.vector, base.vector, atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(1100 + seed)
        matrix = random_primitive_matrix(rng)
        pair = power_iteration(matrix)
        values, vectors = np.linalg.eig(matrix.entries.T)
        top = np.argmax(values.real)
        lam_ref = float(values[top].real)
        u_ref = np.abs(vectors[:, top].real)
        u_ref = u_ref / u_ref.sum()
        assert pair.eigenvalue == pytest.approx(lam_ref, rel=1e-10)
        np.testing.assert_allclose(pair.vector, u_ref, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_invariant(self, seed):
        rng = np.random.default_rng(1200 + seed)
        matrix = random_primitive_matrix(rng)
        pair = power_iteration(matrix)
        residual = np.abs(pair.vector @ matrix.entries
                          - pair.eigenvalue * pair.vector).sum()
        assert residual < 1e-10
        assert (pair.vector > 0.0).all()
        assert pair.vector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_convergence_when_starved(self, monkeypatch):
        monkeypatch.setattr(oracle, "POWER_MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            power_iteration(validate([[1.0, 1e-4], [3e-4, 1.0]]))


def _brute_return_terms(entries: np.ndarray, k: int, lam: float,
                        n_terms: int) -> list[float]:
    """Enumerate base-avoiding return paths directly; term n is the summed
    weight of length-(n+1) returns divided by lam**(n+1)."""
    size = entries.shape[0]
    others = [i for i in range(size) if i != k]
    terms = [entries[k, k] / lam]
    for length in range(2, n_terms + 1):
        total = 0.0
        for path in itertools.product(others, repeat=length - 1):
            weight = entries[k, path[0]]
            for a, b in zip(path, path[1:]):
                weight *= entries[a, b]
            weight *= entries[path[-1], k]
            total += weight
        terms.append(total / lam**length)
    return terms


class TestLemmaPartialSums:
    def test_2x2_term_values(self):
        lam, _ = closed_form_2x2()
        series = lemma_partial_sums(validate(ACCEPTANCE_2X2), 0, lam)
        assert series.terms[0] == pytest.approx(1.0 / lam, rel=1e-15)
        assert series.terms[1] == pytest.approx(6.0 / lam**2, rel=1e-15)
        ratios = series.terms[2:20] / series.terms[1:19]
        np.testing.assert_allclose(ratios, 4.0 / lam, rtol=1e-12)
        assert series.tail_ratio == pytest.approx(4.0 / lam, rel=1e-9)
        # Geometric tail closed form: t1 + t2 / (1 - 4/lam) telescopes to 1.
        closed = 1.0 / lam + (6.0 / lam**2) / (1.0 - 4.0 / lam)
        assert closed == pytest.approx(1.0, abs=1e-12)
        assert abs(series.partial_sums[-1] - 1.0) < 1e-8

    def test_above_dominant_value_limit_below_one(self):
        lam, _ = closed_form_2x2()
        trial = 2.0 * lam
        series = lemma_partial_sums(validate(ACCEPTANCE_2X2), 0, trial)
        closed = 1.0 / trial + (6.0 / trial**2) / (1.0 - 4.0 / trial)
        assert series.partial_sums[-1] == pytest.approx(closed, abs=1e-12)
        assert series.partial_sums[-1] < 1.0

    def test_stochastic_return_time_law(self):
        rng = np.random.default_rng(30)
        matrix = random_stochastic_matrix(rng, 4)
        series = lemma_partial_sums(matrix, 2, 1.0)
        assert abs(series.partial_sums[-1] - 1.0) < 1e-8
        assert (series.terms >= 0.0).all()
        assert (np.diff(series.partial_sums) >= 0.0).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_terms_match_path_enumeration(self, seed):
        rng = np.random.default_rng(1300 + seed)
        matrix = random_primitive_matrix(rng, n_max=4)
        lam = power_iteration(matrix).eigenvalue
        k = int(rng.integers(0, matrix.n))
        series = lemma_partial_sums(matrix, k, lam)
        brute = _brute_return_terms(matrix.entries, k, lam, 8)
        # The series may legitimately stop early when every remaining
        # base-avoiding return has zero weight.
        m = min(series.terms.shape[0], 8)
        np.testing.assert_allclose(series.terms[:m], brute[:m], rtol=1e-12,
                                   atol=1e-15)
        assert all(term < 1e-14 for term in brute[m:])

    @pytest.mark.parametrize("factor", [1.0, 1.3])
    @pytest.mark.parametrize("seed", range(8))
    def test_terms_match_the_submatrix_recursion(self, seed, factor):
        rng = np.random.default_rng(1350 + seed)
        matrix = random_primitive_matrix(rng, n_max=30)
        lam = factor * power_iteration(matrix).eigenvalue
        k = int(rng.integers(0, matrix.n))
        series = lemma_partial_sums(matrix, k, lam)
        reference = lemma_terms_reference(matrix.entries, k, lam,
                                          series.terms.shape[0])
        np.testing.assert_allclose(series.terms, reference, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_limit_sign_matches_trial_side(self, seed):
        rng = np.random.default_rng(1400 + seed)
        matrix = random_primitive_matrix(rng, n_max=6)
        lam = power_iteration(matrix).eigenvalue
        k = int(rng.integers(0, matrix.n))

        above = lemma_partial_sums(matrix, k, 1.3 * lam)
        assert above.partial_sums[-1] < 1.0

        try:
            below = lemma_partial_sums(matrix, k, 0.93 * lam)
        except Divergence:
            pass
        else:
            assert below.partial_sums[-1] > 1.0

    def test_divergence_well_below_dominant_value(self):
        lam, _ = closed_form_2x2()
        with pytest.raises(Divergence):
            lemma_partial_sums(validate(ACCEPTANCE_2X2), 0, 0.3 * lam)

    def test_divergence_at_the_first_term(self):
        with pytest.raises(Divergence) as exc:
            lemma_partial_sums(validate([[4, 1], [1, 1]]), 0, 2.0)
        assert exc.value.term_index == 1

    def test_divergence_message_names_the_slack(self, monkeypatch):
        monkeypatch.setattr(oracle, "DIVERGENCE_SLACK", 0.5)
        with pytest.raises(Divergence, match=r"^partial sums exceeded "
                           r"1 \+ 0\.5 at term 1 \(sum=2\.0\)"):
            lemma_partial_sums(validate([[4, 1], [1, 1]]), 0, 2.0)
        # The bound moves with the slack: the partial sums 1.25 and 1.5
        # stay within it, 1.625 does not.
        with pytest.raises(Divergence, match=r"at term 3 \(sum=1\.625\)"):
            lemma_partial_sums(validate([[2.5, 1], [1, 1]]), 0, 2.0)

    @pytest.mark.parametrize("k, lam", [(0, 0.0), (0, -1.0), (0, np.inf),
                                        (-1, 5.0), (2, 5.0)])
    def test_refuses_bad_arguments(self, k, lam):
        with pytest.raises(InvalidArgument):
            lemma_partial_sums(validate(ACCEPTANCE_2X2), k, lam)

    # lam**2 alone would overflow at the first end and underflow to 0 at
    # the second.
    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_far_from_unit_scale(self, c):
        matrix = scale(validate(ACCEPTANCE_2X2), c)
        series = lemma_partial_sums(matrix, 0,
                                    power_iteration(matrix).eigenvalue)
        assert abs(series.partial_sums[-1] - 1.0) < 1e-8

    def test_terms_are_exact_under_dyadic_scaling(self):
        matrix = validate(ACCEPTANCE_2X2)
        lam = power_iteration(matrix).eigenvalue
        base = lemma_partial_sums(matrix, 0, lam)
        for c in (2.0**600, 2.0**-600):
            scaled = lemma_partial_sums(scale(matrix, c), 0, c * lam)
            assert np.array_equal(scaled.terms, base.terms)

    @pytest.mark.parametrize("eps", [1e-6, 1e-5])
    @pytest.mark.parametrize("factor", [1.01, 1.1])
    def test_left_out_tail_is_below_the_stop_increment(self, eps, factor):
        # The terms fall below the stop increment long before the weight
        # held by state 2 has returned; the series sums to
        # eps**2 / (lam * (lam - 1)) by the geometric series on B = [[1]].
        matrix = validate([[0.0, eps], [eps, 1.0]])
        lam = factor * power_iteration(matrix).eigenvalue
        series = lemma_partial_sums(matrix, 0, lam)
        assert series.terms.max() < 1e-9
        left_out = eps**2 / (lam * (lam - 1.0)) - series.partial_sums[-1]
        assert 0.0 <= left_out <= oracle.LEMMA_STOP_INCREMENT

    def test_single_state(self):
        series = lemma_partial_sums(validate([[2.0]]), 0, 2.0)
        assert series.terms[0] == 1.0
        assert series.partial_sums[-1] == 1.0


class TestQuasispeciesResidual:
    def test_zero_at_dominant_left_eigenvector(self):
        matrix = validate(ACCEPTANCE_2X2)
        pair = power_iteration(matrix)
        res = quasispecies_residual(matrix, pair.vector)
        assert res.max_abs < 1e-10
        assert abs(res.mean_fitness - pair.eigenvalue) < 1e-10

    def test_positive_away_from_equilibrium(self):
        res = quasispecies_residual(validate(ACCEPTANCE_2X2),
                                    np.array([1.0, 0.0]))
        assert res.max_abs > 0.1

    def test_symmetric_uniform_is_exact(self):
        res = quasispecies_residual(validate([[2.0, 2.0], [2.0, 2.0]]),
                                    np.array([0.5, 0.5]))
        assert res.max_abs == 0.0
        assert res.mean_fitness == 4.0

    def test_subnormal_matrix_has_no_residual(self):
        # In the matrix's own units each creation term, 2.5e-324, rounds
        # to 0 and leaves a residual as large as the answer.
        matrix = validate([[5e-324, 5e-324], [5e-324, 5e-324]])
        res = quasispecies_residual(matrix, power_iteration(matrix).vector)
        assert res.max_abs == 0.0
        assert res.mean_fitness == 1e-323

    @pytest.mark.parametrize("k", [-900, -20, 20, 900])
    def test_residuals_scale_exactly_by_powers_of_two(self, k):
        matrix = random_primitive_matrix(np.random.default_rng(41), n_max=6)
        x = power_iteration(matrix).vector
        res = quasispecies_residual(matrix, x)
        res_k = quasispecies_residual(scale(matrix, 2.0**k), x)
        np.testing.assert_array_equal(res_k.per_state,
                                      np.ldexp(res.per_state, k))
        assert res_k.max_abs == np.ldexp(res.max_abs, k)
        assert res_k.mean_fitness == np.ldexp(res.mean_fitness, k)

    @pytest.mark.parametrize("x", [
        np.array([0.5, 0.6]),
        np.array([-0.1, 1.1]),
        np.array([0.2, 0.3, 0.5]),
        np.array([np.nan, np.nan]),
        np.array([np.nan, 1.0]),
    ])
    def test_rejects_off_simplex(self, x):
        with pytest.raises(NotOnSimplex):
            quasispecies_residual(validate(ACCEPTANCE_2X2), x)

    def test_message_names_the_entry_from_one(self):
        with pytest.raises(NotOnSimplex, match="entry at 2$"):
            quasispecies_residual(validate(ACCEPTANCE_2X2), [1.5, -0.5])
