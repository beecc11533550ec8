import numpy as np
import pytest

from perronmc import errors, gw_app
from perronmc.chain_sim import build_sampler, sample_batch
from perronmc.estimator import (EstimationConfig, estimate_lambda,
                                estimate_u, g_hat, run_estimation,
                                shard_dispersion)
from perronmc.gw_app import conditioned_proportions
from perronmc.matrix_core import decompose, validate
from perronmc.oracle import lemma_partial_sums

# One case per concrete error class (two for NoConvergence, whose detail
# replaces the default message), built with fixed arguments in the order
# the library passes them.  The message is what the CLI prints after
# "error: <class>: ", so it is pinned byte for byte.
CASES = [
    (errors.InvalidArgument, ("count must be >= 1",),
     "count must be >= 1", 1),
    (errors.NotSquare, ("expected a square matrix, got shape (2, 3)",),
     "expected a square matrix, got shape (2, 3)", 1),
    (errors.NegativeEntry, (0, 1, -0.5),
     "entry (1, 2) is negative: -0.5", 1),
    (errors.NonFiniteEntry, (1, 0, float("nan")),
     "entry (2, 1) is not finite: nan", 1),
    (errors.ZeroRow, (2,),
     "row 3 sums to zero; every row needs a positive entry", 1),
    (errors.RowSumOverflow, (0,),
     "row 1 sums beyond the float range", 1),
    (errors.NotPrimitive, ("the graph of the matrix has period 2",),
     "the graph of the matrix has period 2", 2),
    (errors.AllTruncated, (64, 1),
     "all 64 excursion attempts hit the length cap 1; the cap is far too "
     "small or the chain is nearly reducible", 3),
    (errors.EigenvalueUnderflow, (8.98846567431158e307,),
     "the eigenvalue lies more than 2**1022 times below the largest row sum "
     "8.98846567431158e+307; the lam solve cannot resolve it in floating "
     "point", 3),
    (errors.TallyOverflow, (0, 21),
     "the visit weights from base state 1 sum past the float range; try "
     "base state 22, whose tally is the largest", 3),
    (errors.TruncationBiasGuard, (31, 20000, 1e-3),
     "31/20000 excursions truncated, above the 0.10% bias guard; raise the "
     "cap or check the matrix", 3),
    (errors.NoConvergence, (10000,),
     "power iteration did not converge within 10000 iterations; the "
     "spectrum is nearly degenerate", 3),
    (errors.NoConvergence, (2, "power iteration underflowed"),
     "power iteration underflowed", 3),
    (errors.Divergence, (3, 1.25, 1e-9),
     "partial sums exceeded 1 + 1e-09 at term 3 (sum=1.25); the trial "
     "eigenvalue is below the true one", 3),
    (errors.NotOnSimplex, ("entries sum to 2.0",),
     "vector is not on the unit simplex: entries sum to 2.0", 1),
    (errors.PopulationOverflow, (4, 1000000),
     "population exceeded the ceiling 1000000 at generation 4", 3),
    (errors.NoSurvivors, (1000, 10),
     "no tree out of 1000 survived to generation 10; increase trials or "
     "lower the horizon", 3),
    (errors.Subcritical, (0.30000000000000004,),
     "dominant eigenvalue 0.30000000000000004 is <= 1; conditioned type "
     "proportions require a supercritical mean matrix", 1),
    (errors.ParseError, ("m.json", "invalid JSON: nested too deeply"),
     "m.json: invalid JSON: nested too deeply", 1),
]


@pytest.mark.parametrize(
    "cls, args, message, exit_code", CASES,
    ids=[case[0].__name__ for case in CASES])
def test_message_and_exit_code(cls, args, message, exit_code):
    exc = cls(*args)
    assert str(exc) == message
    assert exc.exit_code == exit_code


class TestRealArguments:
    """A tolerance or a trial eigenvalue that is not a real number is
    refused with :class:`errors.InvalidArgument` before any comparison:
    a bool is not one, a numpy float or integer is one."""

    MATRIX = [[1.0, 2.0], [3.0, 4.0]]
    NOT_REAL = ["0.5", None, True, 1j, [0.5]]

    @staticmethod
    def _batch():
        decomp = decompose(validate(TestRealArguments.MATRIX))
        return (sample_batch(build_sampler(decomp), 0, 200, 1, 10**4, 2),
                decomp.fitness)

    @pytest.mark.parametrize("tol", NOT_REAL)
    def test_tol(self, tol):
        with pytest.raises(errors.InvalidArgument,
                           match="^tol must be a real number, got "):
            EstimationConfig(tol=tol)
        batch, f = self._batch()
        with pytest.raises(errors.InvalidArgument,
                           match="^tol must be a real number, got "):
            estimate_lambda(batch, f, tol)

    @pytest.mark.parametrize("lam", NOT_REAL + ["5"])
    def test_trial_eigenvalue(self, lam):
        batch, f = self._batch()
        for stage in (g_hat, estimate_u, shard_dispersion):
            with pytest.raises(errors.InvalidArgument,
                               match="^trial eigenvalue must be a real "
                                     "number, got "):
                stage(batch, f, lam)
        with pytest.raises(errors.InvalidArgument,
                           match="^trial eigenvalue must be a real number"):
            lemma_partial_sums(validate(self.MATRIX), 0, lam)

    def test_numpy_numbers_are_real(self):
        batch, f = self._batch()
        assert (EstimationConfig(tol=np.float32(0.25)).tol
                == np.float32(0.25))
        assert estimate_lambda(batch, f, np.float64(1e-9)) == estimate_lambda(
            batch, f, 1e-9)
        assert g_hat(batch, f, np.float64(5.5)) == g_hat(batch, f, 5.5)
        assert g_hat(batch, f, np.int64(5)) == g_hat(batch, f, 5.0)


class TestIntegerArguments:
    """A count, a base state or a seed that is not an integer is refused
    with :class:`errors.InvalidArgument` at every entry point that takes
    one: a bool is not an integer, a numpy integer is one."""

    MATRIX = [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", True), ("shards", 2.0),
        ("cap", np.float64(10.0)), ("seed", 1.5), ("seed", False),
        ("base_state", 1.0), ("base_state", True)])
    def test_estimation_config(self, field, value):
        with pytest.raises(errors.InvalidArgument,
                           match=f"^{field} must be an integer, got "):
            EstimationConfig(**{field: value})

    @pytest.mark.parametrize("args", [
        (0.0, 10, 0, 100, 1), (True, 10, 0, 100, 1), (0, 10.0, 0, 100, 1),
        (0, 10, True, 100, 1), (0, 10, 1.5, 100, 1), (0, 10, 0, 100.0, 1),
        (0, 10, 0, 100, 1.0)])
    def test_sample_batch(self, args):
        sampler = build_sampler(decompose(validate(self.MATRIX)))
        with pytest.raises(errors.InvalidArgument, match=" must be an integer"):
            sample_batch(sampler, *args)

    @pytest.mark.parametrize("args", [(2.5, 10, 0), (10, True, 0),
                                      (10, 10, 1.5), (10, 10, True)])
    def test_conditioned_proportions(self, args, monkeypatch):
        # Refused before power iteration runs.
        monkeypatch.setattr(gw_app, "power_iteration", None)
        with pytest.raises(errors.InvalidArgument, match=" must be an integer"):
            conditioned_proportions(validate(self.MATRIX), *args)

    @pytest.mark.parametrize("k", [1.0, True, np.float64(0.0)])
    def test_lemma_partial_sums(self, k):
        with pytest.raises(errors.InvalidArgument,
                           match="^base_state must be an integer, got "):
            lemma_partial_sums(validate(self.MATRIX), k, 5.4)

    def test_numpy_integers_are_integers(self):
        matrix = validate(self.MATRIX)
        as_int = run_estimation(matrix, EstimationConfig(
            base_state=1, samples=500, seed=3, cap=1000, shards=2))
        as_numpy = run_estimation(matrix, EstimationConfig(
            base_state=np.int64(1), samples=np.int32(500),
            seed=np.uint64(3), cap=np.int64(1000), shards=np.uint8(2)))
        assert as_numpy.lambda_hat == as_int.lambda_hat
        assert as_numpy.u_hat.tobytes() == as_int.u_hat.tobytes()
        assert as_numpy.dispersion.tobytes() == as_int.dispersion.tobytes()
        np.testing.assert_array_equal(
            conditioned_proportions(matrix, np.int64(50), np.int16(5),
                                    np.int64(7))[0],
            conditioned_proportions(matrix, 50, 5, 7)[0])
        assert (lemma_partial_sums(matrix, np.int64(1), 5.4).partial_sums[-1]
                == lemma_partial_sums(matrix, 1, 5.4).partial_sums[-1])

    def test_range_messages_are_unchanged(self):
        with pytest.raises(errors.InvalidArgument) as info:
            errors.check_counts(samples=5, shards=0)
        assert str(info.value) == "shards must be >= 1"
        with pytest.raises(errors.InvalidArgument) as info:
            errors.check_base_state(np.int64(2), 2)
        assert str(info.value) == "base state 3 outside 1..2"
