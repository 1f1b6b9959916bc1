import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anires import (
    bessel_i0_scaled,
    generalized_binomial,
    legendre_scaled,
)
from anires.specfun import legendre_scaled_grid


class TestGeneralizedBinomial:
    def test_integer_binomial(self):
        assert generalized_binomial(5, 2) == 10

    def test_one_factor(self):
        assert generalized_binomial(Fraction(1, 2), 1) == Fraction(1, 2)

    def test_negative_upper_index_oracle(self):
        # direct product oracle: (-1)(-2)(-3)/3! = -1
        assert generalized_binomial(-1, 3) == Fraction(-1)

    def test_zero_lower_index(self):
        assert generalized_binomial(Fraction(-5, 3), 0) == 1

    def test_negative_lower_index_raises(self):
        with pytest.raises(ValueError):
            generalized_binomial(1, -1)

    @given(num=st.integers(-30, 30), den=st.integers(1, 9), m=st.integers(0, 8))
    def test_matches_product_oracle(self, num, den, m):
        x = Fraction(num, den)
        prod = Fraction(1)
        for i in range(m):
            prod *= x - i
        assert generalized_binomial(x, m) == prod / math.factorial(m)

    def test_float_path(self):
        assert generalized_binomial(0.5, 2) == pytest.approx(-0.125)


class TestLegendreScaled:
    def test_at_one_any_degree(self):
        for k in (0, 1, 7, 100, 12345):
            assert math.ldexp(*legendre_scaled(k, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_degree_two_closed_form(self):
        # (3x^2 - 1)/2 at x = 1.5
        assert math.ldexp(*legendre_scaled(2, 1.5)) == pytest.approx(2.875, rel=1e-14)

    def test_degree_one_model_argument(self):
        # x = (4-d)/(2 sqrt(4-2d)) at d=1 is 3/(2 sqrt 2); P_1(x) = x
        x = 3.0 / (2.0 * math.sqrt(2.0))
        assert math.ldexp(*legendre_scaled(1, x)) == pytest.approx(x, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_scaled(3, 0.999)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x >= 1"):
            legendre_scaled(5, float("nan"))

    def test_rejects_inf(self):
        # the recurrence would return (nan, -4)
        with pytest.raises(ValueError, match="finite x >= 1"):
            legendre_scaled(5, math.inf)

    def test_mantissa_normalized(self):
        for k in (0, 1, 2, 50):
            for x in (1.0, 1.5, 7.25):
                mantissa, exponent = legendre_scaled(k, x)
                assert 1.0 <= mantissa < 2.0 and isinstance(exponent, int), (k, x)

    @pytest.mark.parametrize("k,x", [(1000, 1.0001), (10**5, 1.001)])
    def test_large_degree_against_mpmath(self, k, x):
        mpmath.mp.dps = 30
        ref = mpmath.legendre(k, mpmath.mpf(x))
        mantissa, exponent = legendre_scaled(k, x)
        assert 1.0 <= mantissa < 2.0
        ln_got = math.log(mantissa) + exponent * math.log(2.0)
        rel = abs(math.exp(ln_got - float(mpmath.log(ref))) - 1.0)
        assert rel <= 1e-11

    @staticmethod
    def _residual(k, x):
        # |(k+1) P_{k+1} - (2k+1) x P_k + k P_{k-1}| / |P_{k+1}|, evaluated on
        # the scale of P_{k+1} (ldexp is exact, no log noise); each sweep
        # repeats the steps of the shorter ones, so the rounding history is shared
        (mm, em), (mc, ec), (vn, e0) = (legendre_scaled(j, x) for j in (k - 1, k, k + 1))
        vm = math.ldexp(mm, em - e0)
        vc = math.ldexp(mc, ec - e0)
        return abs((k + 1) * vn - (2 * k + 1) * x * vc + k * vm) / vn

    @given(st.floats(min_value=1.0, max_value=2.0), st.integers(2, 2000))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_residual(self, x, k):
        assert self._residual(k, x) <= 1e-10

    def test_recurrence_residual_deep(self):
        for k in (100, 1000, 10**4):
            assert self._residual(k, 1.3) <= 1e-10
            assert self._residual(k, 1.9999) <= 1e-10


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_series_oracle_x1(self):
        # truncated power series with exact rationals, scaled afterwards
        s = sum(Fraction(1, 4**m) / Fraction(math.factorial(m)) ** 2 for m in range(30))
        expected = float(s) * math.exp(-1.0)
        assert bessel_i0_scaled(1.0) == pytest.approx(expected, rel=1e-13)

    def test_big_rational_series_oracle_x50(self):
        # sum (25)^{2m} / (m!)^2 exactly, then scale; forces the asymptotic branch
        s = Fraction(0)
        term = Fraction(1)
        m = 0
        while True:
            s += term
            m += 1
            term *= Fraction(625, m * m)
            if m > 700 and term < Fraction(1, 10**40):
                break
        expected = float(s) * math.exp(-50.0)
        assert bessel_i0_scaled(50.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 2.0, 8.0, 29.9, 30.1, 100.0, 1e4])
    def test_against_mpmath(self, x):
        mpmath.mp.dps = 30
        ref = float(mpmath.exp(-x) * mpmath.besseli(0, x))
        assert bessel_i0_scaled(x) == pytest.approx(ref, rel=1e-12)

    def test_monotone_decreasing_and_bounded(self):
        xs = [0.01 * 1.3**i for i in range(40)]
        vals = [bessel_i0_scaled(x) for x in xs]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_i0_scaled(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x >= 0"):
            bessel_i0_scaled(float("nan"))


def _legendre_one_degree(k, x):
    """The recurrence run afresh up to degree k, as one degree was computed
    before the grid form: the reference for the grid's bits."""
    if k == 0:
        return 1.0, 0
    if k == 1:
        m, e = math.frexp(x)
        return 2.0 * m, e - 1
    p_prev, p_cur, expo = 1.0, x, 0
    for j in range(1, k):
        p_next = ((2 * j + 1) * x * p_cur - j * p_prev) / (j + 1)
        shift = math.frexp(p_next)[1] - 1
        p_prev, p_cur = math.ldexp(p_cur, -shift), math.ldexp(p_next, -shift)
        expo += shift
    return p_cur, expo


class TestLegendreScaledGrid:
    GRIDS = ([0], [1], [0, 1], [0, 1, 2, 3], [2, 5, 9], [1, 64, 1000], [16, 32, 64, 128, 256])

    @pytest.mark.parametrize("x", [1.0, 1.0000125, 1.06, 1.5, 7.25, 1e6])
    def test_equals_one_degree_at_a_time(self, x):
        # one pass up to the last degree gives the same bits as a pass per degree
        for ks in self.GRIDS:
            want = [_legendre_one_degree(k, x) for k in ks]
            assert legendre_scaled_grid(ks, x) == want == [legendre_scaled(k, x) for k in ks], ks

    @pytest.mark.parametrize("ks", [[-1, 2], [4, 4], [8, 2], [0, 3, 2]])
    def test_rejects_a_grid_that_does_not_increase(self, ks):
        with pytest.raises(ValueError, match="increase"):
            legendre_scaled_grid(ks, 1.5)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="finite x >= 1"):
            legendre_scaled_grid([0, 3], 0.999)
