import pytest

from perronmc import errors

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
