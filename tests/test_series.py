import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anires import (
    CoefficientTable,
    LargeOrderParams,
    SignedLog,
    local_exponent,
    z_coeff,
)
from anires.series import log_abs_fraction
from paper_formulas import truncated_double_sum


def small_table(kmax=3):
    entries = {(k, n): z_coeff(k, n) for k in range(kmax + 1) for n in range(k + 1)}
    return CoefficientTable(entries, kmax)


class TestCoefficientTable:
    def test_entry_zero_below_diagonal(self):
        t = small_table()
        assert t.entry(1, 1) == Fraction(1, 2)
        assert t.entry(0, 1) == 0

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            CoefficientTable({(1, 0): Fraction(1)}, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CoefficientTable({(0, 0): Fraction(1), (2, 1): Fraction(1)}, 1)

    def test_entry_beyond_kmax_raises(self):
        with pytest.raises(ValueError):
            small_table(2).entry(3, 0)

    def test_column(self):
        t = small_table(3)
        assert t.column(1) == [z_coeff(1, 1), z_coeff(2, 1), z_coeff(3, 1)]

    def test_sign_alternation_model(self):
        t = small_table(3)
        for (k, n), v in t.items():
            expected = 1 if (k + n) % 2 == 0 else -1
            assert (1 if v > 0 else -1) == expected


class TestLargeOrderParams:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            LargeOrderParams(sigma=Fraction(-1), b0_offset=Fraction(3, 2), alpha=Fraction(0))


class TestTruncatedDoubleSum:
    def test_g_zero(self):
        t = small_table()
        assert truncated_double_sum(t, 0, Fraction(7, 3), 3) == 1

    def test_model_k2_delta0(self):
        # Z_00 + Z_10 + Z_20 = 1 - 2 + 12
        t = small_table()
        assert truncated_double_sum(t, 1, 0, 2) == 11

    def test_model_k1(self):
        t = small_table()
        got = truncated_double_sum(t, Fraction(1, 10), Fraction(1, 2), 1)
        assert got == Fraction(33, 40)  # 1 - 0.2 + 0.025

    def test_range_error(self):
        with pytest.raises(ValueError):
            truncated_double_sum(small_table(2), 1, 1, 3)

    @given(
        gn=st.integers(-4, 4), gd=st.integers(1, 5),
        dn=st.integers(-4, 4), dd=st.integers(1, 5),
        K=st.integers(0, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_loop(self, gn, gd, dn, dd, K):
        t = small_table()
        g, d = Fraction(gn, gd), Fraction(dn, dd)
        naive = sum(
            t.entry(k, n) * g**k * d**n for k in range(K + 1) for n in range(k + 1)
        )
        assert truncated_double_sum(t, g, d, K) == naive

    def test_float_path_close_to_exact(self):
        t = small_table()
        exact = truncated_double_sum(t, Fraction(1, 10), Fraction(1, 2), 3)
        approx = truncated_double_sum(t, 0.1, 0.5, 3)
        assert approx == pytest.approx(float(exact), rel=1e-14)


class TestLocalExponent:
    def test_isotropic_column_slope(self):
        # Z_k(0) = (-1)^k (2k)!/k!; Stirling gives beta -> -1/2
        ks = [2**j for j in range(4, 13)]
        col = [Fraction((-1) ** k * math.factorial(2 * k), math.factorial(k)) for k in ks]
        rep = local_exponent(col, 4.0, ks)
        assert rep.beta_local[-1] == pytest.approx(-0.5, abs=0.02)
        assert rep.k_cross is None

    def test_synthetic_column_recovers_beta(self):
        # c_k = (-sigma)^k k! k^beta; slope estimate within 1e-3 at k >= 1e3
        beta, sigma = -0.8, 3.0
        ks = [1000, 2000, 4000]
        col = [
            SignedLog(
                (-1) ** k,
                k * math.log(sigma) + math.lgamma(k + 1) + beta * math.log(k),
            )
            for k in ks
        ]
        rep = local_exponent(col, sigma, ks)
        for b in rep.beta_local:
            assert b == pytest.approx(beta, abs=1e-3)

    def test_sign_violation_names_k(self):
        ks = [2, 3, 4]
        col = [Fraction(1), Fraction(1), Fraction(1)]  # no alternation
        with pytest.raises(ValueError, match="k=3"):
            local_exponent(col, 4.0, ks)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            local_exponent([Fraction(1)], 4.0, [2])
        with pytest.raises(ValueError):
            local_exponent([Fraction(1), Fraction(-1)], 4.0, [4, 2])

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            local_exponent([Fraction(1), Fraction(0)], 4.0, [2, 3])


def test_log_abs_fraction_huge():
    v = Fraction(10**500, 3)
    assert log_abs_fraction(v) == pytest.approx(500 * math.log(10) - math.log(3), rel=1e-12)
