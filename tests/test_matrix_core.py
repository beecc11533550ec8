import numpy as np
import pytest

from perronmc.errors import (
    NegativeEntry,
    NonFiniteEntry,
    NotPrimitive,
    NotSquare,
    RowSumOverflow,
    ZeroRow,
)
from perronmc.matrix_core import (
    check_primitive,
    decompose,
    validate,
    wielandt_bound,
)

from _support import (
    random_primitive_matrix,
    random_stochastic_matrix,
    scale,
    unchecked,
)


class TestValidate:
    def test_positive_matrix(self):
        m = validate([[1, 2], [3, 4]])
        assert m.n == 2
        np.testing.assert_array_equal(m.entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as exc:
            validate([[1, -1], [0, 1]])
        assert (exc.value.row, exc.value.col) == (0, 1)

    def test_zero_row(self):
        with pytest.raises(ZeroRow) as exc:
            validate([[0, 0], [1, 1]])
        assert exc.value.row == 0

    def test_zero_row_reported_before_not_primitive(self):
        # Rows 0 and 1 form a 2-cycle; row 2 is zero.
        with pytest.raises(ZeroRow) as exc:
            validate([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert exc.value.row == 2

    @pytest.mark.parametrize("rows, row", [
        ([[1e308, 1e308], [1, 1]], 0),
        ([[1, 1], [1e308, 1e308]], 1),
    ])
    def test_row_sum_beyond_float_range(self, rows, row):
        with pytest.raises(RowSumOverflow) as exc:
            validate(rows)
        assert exc.value.row == row

    @pytest.mark.parametrize("raw", [
        [[1, 2], [3]],
        [[1, 2, 3], [4, 5, 6]],
        [1, 2, 3],
        [],
    ])
    def test_not_square(self, raw):
        with pytest.raises(NotSquare):
            validate(raw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteEntry):
            validate([[1, bad], [1, 1]])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_beyond_float_range(self, sign):
        with pytest.raises(NonFiniteEntry) as exc:
            validate([[1, sign * 10**400], [3, 4]])
        assert (exc.value.row, exc.value.col) == (0, 1)
        assert exc.value.value == sign * float("inf")

    def test_entries_read_only(self):
        m = validate([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0


def _smallest_positive_power_brute(entries: np.ndarray) -> int | None:
    """Independent stepwise oracle for the primitivity exponent."""
    pattern = entries > 0
    power = pattern.copy()
    for m in range(1, wielandt_bound(entries.shape[0]) + 1):
        if m > 1:
            power = (power.astype(float) @ pattern.astype(float)) > 0
        if power.all():
            return m
    return None


class TestCheckPrimitive:
    def test_already_positive(self):
        assert check_primitive(validate([[1, 2], [3, 4]])) is None

    def test_square_by_hand(self):
        # [[1,1],[1,0]]**2 = [[2,1],[1,1]] is positive.
        validate([[1, 1], [1, 0]])
        assert _smallest_positive_power_brute(np.array([[1, 1], [1, 0]])) == 2

    def test_periodic_swap(self):
        with pytest.raises(NotPrimitive):
            check_primitive(unchecked([[0, 1], [1, 0]]))
        with pytest.raises(NotPrimitive):
            validate([[0, 1], [1, 0]])

    def test_cycle_reducible_cases(self):
        cycle3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(NotPrimitive):
            check_primitive(unchecked(cycle3))
        with pytest.raises(NotPrimitive):
            validate(cycle3)

    def test_extremal_exponent(self):
        # Cycle 0->1->...->n-1->0 plus the chord n-1->1 attains the
        # largest possible exponent (n-1)**2 + 1, so it is accepted only
        # if the certificate looks that far.
        n = 5
        a = np.zeros((n, n))
        for i in range(n - 1):
            a[i, i + 1] = 1.0
        a[n - 1, 0] = 1.0
        a[n - 1, 1] = 1.0
        validate(a)
        assert _smallest_positive_power_brute(a) == wielandt_bound(n) == 17

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_stepwise_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 8))
        raw = (rng.random((n, n)) < 0.35).astype(float)
        raw[np.arange(n), rng.integers(0, n, n)] = 1.0  # no zero rows
        if _smallest_positive_power_brute(raw) is None:
            with pytest.raises(NotPrimitive):
                validate(raw)
        else:
            validate(raw)

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_power_is_positive(self, seed):
        rng = np.random.default_rng(40 + seed)
        matrix = random_primitive_matrix(rng, n_max=6)
        check_primitive(matrix)
        assert _smallest_positive_power_brute(matrix.entries) is not None

    def test_one_by_one(self):
        assert check_primitive(validate([[2.5]])) is None


class TestDecompose:
    def test_row_sums(self):
        d = decompose(validate([[1, 2], [3, 4]]))
        np.testing.assert_array_equal(d.fitness, [3.0, 7.0])
        np.testing.assert_allclose(d.kernel, [[1 / 3, 2 / 3], [3 / 7, 4 / 7]],
                                   rtol=1e-15)

    def test_stochastic_input_gives_unit_fitness(self):
        rng = np.random.default_rng(5)
        matrix = random_stochastic_matrix(rng, 4)
        d = decompose(matrix)
        np.testing.assert_array_equal(d.fitness, np.ones(4))
        np.testing.assert_array_equal(d.kernel, matrix.entries)

    def test_zero_diagonal(self):
        d = decompose(unchecked([[0, 2], [2, 0]]))
        np.testing.assert_array_equal(d.fitness, [2.0, 2.0])
        np.testing.assert_array_equal(d.kernel, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_and_kernel_rows(self, seed):
        rng = np.random.default_rng(1000 + seed)
        matrix = random_primitive_matrix(rng)
        d = decompose(matrix)
        rebuilt = d.fitness[:, None] * d.kernel
        assert (np.abs(rebuilt - matrix.entries)
                <= 1e-14 * np.abs(matrix.entries)).all()
        assert np.abs(d.kernel.sum(axis=1) - 1.0).max() <= 1e-12
        assert ((d.kernel >= 0.0) & (d.kernel <= 1.0)).all()


class TestScale:
    @pytest.mark.parametrize("rows,c,error", [
        # The diagonal underflows to 0, which leaves a periodic 2-cycle.
        ([[1e-300, 1e-200], [1e-200, 1e-300]], 1e-100, NotPrimitive),
        ([[1e300, 1], [1, 1]], 1e10, NonFiniteEntry),
    ], ids=["underflow", "overflow"])
    def test_scaled_matrix_is_certified_again(self, rows, c, error):
        with np.errstate(over="ignore"), pytest.raises(error):
            scale(validate(rows), c)

    @pytest.mark.parametrize("seed", range(10))
    def test_exponent_invariant_under_scaling(self, seed):
        rng = np.random.default_rng(2000 + seed)
        matrix = random_primitive_matrix(rng, n_max=6)
        c = float(rng.uniform(0.1, 10.0))
        scaled = scale(matrix, c)
        check_primitive(scaled)
        np.testing.assert_array_equal(scaled.entries > 0, matrix.entries > 0)

    def test_dyadic_scale_keeps_kernel_bitwise(self):
        rng = np.random.default_rng(3)
        matrix = random_primitive_matrix(rng)
        for c in (2.0, 0.5, 8.0, 0.25):
            d0 = decompose(matrix)
            d1 = decompose(scale(matrix, c))
            assert np.array_equal(d0.kernel, d1.kernel)
            np.testing.assert_array_equal(d1.fitness, d0.fitness * c)
