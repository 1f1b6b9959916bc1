import math
from fractions import Fraction

import mpmath
import pytest

from anires import (
    ModelCoefficients,
    QuadratureSpec,
    integrate_semiline,
    legendre_scaled,
    model_large_order_params,
    z_coeff,
    z_coeff_delta_scaled,
    z_reference,
)
from anires import model
from anires.model import z_coeffs_delta_scaled
from anires.specfun import legendre_scaled_grid
from paper_formulas import (
    gamma_n,
    large_order_estimate,
    large_order_estimate_delta,
    model_im_prefactor,
    model_imaginary_part,
    strong_coupling_kappa,
    z_coeff_delta,
)

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_refinements=12)


def model_estimate(k, n, gamma_form=False):
    return large_order_estimate(model_large_order_params(), gamma_n(n), k, n, gamma_form)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_moment_z_kn(k: int, n: int) -> Fraction:
    """Oracle for Z_kn from Gaussian moments <x^{2a} y^{2b}> = (2a-1)!!(2b-1)!!.

    Z_kn = (-1/4)^k / k! * C(k,n) (-2)^n < (x^4+2x^2y^2+y^4)^{k-n} (x^2y^2)^n >.
    The quartic power is expanded multinomially; feasible for small k.
    """
    m = k - n
    total = Fraction(0)
    # (A + B + C)^m with A=x^4, B=2x^2y^2, C=y^4: iterate exponents (a,b,c)
    for a in range(m + 1):
        for b in range(m - a + 1):
            c = m - a - b
            mult = (
                math.factorial(m)
                // (math.factorial(a) * math.factorial(b) * math.factorial(c))
            ) * 2**b
            # x exponent: 4a + 2b + 2n ; y exponent: 4c + 2b + 2n
            ex = 2 * a + b + n
            ey = 2 * c + b + n
            total += mult * double_factorial(2 * ex - 1) * double_factorial(2 * ey - 1)
    return Fraction(-1, 4) ** k / math.factorial(k) * math.comb(k, n) * Fraction(-2) ** n * total


class TestZCoeff:
    def test_normalization(self):
        assert z_coeff(0, 0) == 1

    def test_z11_moment_oracle(self):
        assert z_coeff(1, 1) == gaussian_moment_z_kn(1, 1) == Fraction(1, 2)

    def test_z22_moment_oracle(self):
        assert z_coeff(2, 2) == gaussian_moment_z_kn(2, 2) == Fraction(9, 8)

    def test_moment_oracle_through_k4(self):
        for k in range(5):
            for n in range(k + 1):
                assert z_coeff(k, n) == gaussian_moment_z_kn(k, n), (k, n)

    def test_zero_below_diagonal(self):
        assert z_coeff(1, 2) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            z_coeff(-1, 0)


@pytest.mark.parametrize("kmax", [2.5, None, "3"])
def test_build_kmax_not_an_int_is_named(kmax):
    with pytest.raises(TypeError, match="kmax must be an int"):
        ModelCoefficients.build(kmax)


class TestZCoeffDelta:
    def test_k1_polynomial(self):
        # -2 + d/2
        d = Fraction(3, 7)
        assert z_coeff_delta(1, d) == -2 + d / 2

    def test_k2_polynomial(self):
        d = Fraction(-2, 5)
        assert z_coeff_delta(2, d) == 12 - 6 * d + Fraction(9, 8) * d * d

    def test_isotropic_closed_form(self):
        for k in range(8):
            assert z_coeff_delta(k, 0) == Fraction(
                (-1) ** k * math.factorial(2 * k), math.factorial(k)
            )

    def test_scaled_matches_exact(self):
        # Legendre closed form against the exact double sum, k <= 60
        for delta in (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)):
            for k in (1, 2, 5, 17, 40, 60):
                exact = z_coeff_delta(k, delta)
                sv = z_coeff_delta_scaled(k, float(delta))
                assert sv.sign == (1 if exact > 0 else -1)
                rel = abs(math.exp(sv.ln - math.log(abs(exact.numerator)) +
                                   math.log(exact.denominator)) - 1.0)
                assert rel <= 1e-9, (delta, k)

    def test_scaled_matches_exact_crossover_regime(self):
        # the crossover scans run on this path at delta = 1e-2; pin it
        # against the exact rationals at the first few grid orders
        for k in (16, 32, 64):
            exact = z_coeff_delta(k, Fraction(1, 100))
            sv = z_coeff_delta_scaled(k, 0.01)
            rel = abs(math.exp(sv.ln - math.log(abs(exact.numerator)) +
                               math.log(exact.denominator)) - 1.0)
            assert rel <= 1e-10, k

    @pytest.mark.parametrize("delta", [1e-4, 1e-2, 1.0])
    def test_scaled_matches_mpmath_at_figure_orders(self, delta):
        # fig1/fig2a/fig2b scan up to k = 8192, beyond the exact rationals'
        # reach; the closed form in 30-digit arithmetic is the oracle there
        for k in (1024, 4096, 8192):
            with mpmath.workdps(30):
                d = mpmath.mpf(delta)
                x = (4 - d) / (2 * mpmath.sqrt(4 - 2 * d))
                ref = (mpmath.loggamma(2 * k + 1) - mpmath.loggamma(k + 1)
                       + k / 2 * mpmath.log(1 - d / 2) + mpmath.log(mpmath.legendre(k, x)))
            sv = z_coeff_delta_scaled(k, delta)
            assert sv.sign == (-1) ** k
            assert abs(sv.ln - float(ref)) <= 1e-8, k

    def test_scaled_domain_errors(self):
        # delta is checked before the k = 0 shortcut
        for k in (0, 1, 16):
            with pytest.raises(ValueError, match="delta < 2"):
                z_coeff_delta_scaled(k, 5.0)
        with pytest.raises(ValueError):
            z_coeff_delta_scaled(-1, 0.5)

    def test_scaled_rejects_nan(self):
        with pytest.raises(ValueError, match="delta < 2"):
            z_coeff_delta_scaled(5, float("nan"))

    def test_scaled_rejects_infinite_delta(self):
        # delta is blamed, not the Legendre argument it would make NaN
        with pytest.raises(ValueError, match="finite delta < 2"):
            z_coeff_delta_scaled(5, -math.inf)

    @pytest.mark.parametrize("delta", [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])
    def test_exact_polynomial_identity_even_k(self, delta):
        # for even k, P_k has only even powers, so the closed form
        # (2k)!/k! (1-d/2)^{k/2} P_k((4-d)/(2 sqrt(4-2d))) is rational in d;
        # standard Legendre coefficients serve as the independent oracle
        x2 = (4 - delta) ** 2 / (4 * (4 - 2 * delta))
        p4 = (35 * x2**2 - 30 * x2 + 3) / 8
        p6 = (231 * x2**3 - 315 * x2**2 + 105 * x2 - 5) / 16
        for k, pk in ((4, p4), (6, p6)):
            closed = (
                Fraction(math.factorial(2 * k), math.factorial(k))
                * (1 - delta / 2) ** (k // 2)
                * pk
            )
            assert z_coeff_delta(k, delta) == closed

    def test_legendre_polynomial_identity_even_k(self):
        # (1-d/2)^{k/2} P_k((4-d)/(2 sqrt(4-2d))) is rational for even k;
        # cross-check the full prefactor at d=1/2, k=4 via exact recurrence
        d = 0.5
        k = 4
        x = (4 - d) / (2 * math.sqrt(4 - 2 * d))
        val = (
            math.factorial(2 * k)
            / math.factorial(k)
            * (1 - d / 2) ** (k / 2)
            * math.ldexp(*legendre_scaled(k, x))
        )
        assert val == pytest.approx(float(z_coeff_delta(4, Fraction(1, 2))), rel=1e-12)


class TestZReference:
    def test_small_g_limit(self):
        assert z_reference(1e-8, 0.7, TIGHT) == pytest.approx(1.0, abs=1e-6)

    def test_isotropic_value(self):
        # independent refinement oracle value for int e^{-r-r^2}
        assert z_reference(1.0, 0.0, TIGHT) == pytest.approx(0.5456413607650471, rel=1e-11)

    def test_alternating_series_bracket(self):
        # partial sums of the divergent series bracket the value termwise
        g, d = 0.05, Fraction(1, 2)
        partial = []
        acc = Fraction(0)
        for k in range(7):
            acc += z_coeff_delta(k, d) * Fraction(1, 20) ** k
            partial.append(acc)
        z = z_reference(g, float(d), TIGHT)
        for s0, s1 in zip(partial, partial[1:]):
            lo, hi = sorted((float(s0), float(s1)))
            assert lo <= z <= hi

    def test_bracket_at_g_one(self):
        z = z_reference(1.0, 0.5, TIGHT)
        s0 = 1.0
        s1 = 1.0 + float(z_coeff_delta(1, Fraction(1, 2)))
        assert s1 <= z <= s0

    def test_monotone_decreasing_in_g(self):
        for d in (-1.0, 0.0, 1.0):
            vals = [z_reference(g, d, TIGHT) for g in (0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_delta_unscaled_oracle(self):
        # same integral with a plain power-series I_0 and no exponent
        # rearrangement; safe here because the argument stays small
        g, d = 0.8, -1.0

        def raw(rho):
            expo = -rho - g * (1 - d / 4.0) * rho * rho
            if expo < -60.0:  # keep the Bessel argument small enough for 60 terms
                return 0.0
            z = abs(d) * g * rho * rho / 4.0
            i0 = sum((z / 2.0) ** (2 * m) / math.factorial(m) ** 2 for m in range(60))
            return math.exp(expo) * i0

        oracle = integrate_semiline(raw, TIGHT).value
        assert z_reference(g, d, TIGHT) == pytest.approx(oracle, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            z_reference(-1.0, 0.0)
        with pytest.raises(ValueError):
            z_reference(1.0, 2.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="g > 0"):
            z_reference(float("nan"), 0.0)
        with pytest.raises(ValueError, match="delta < 2"):
            z_reference(1.0, float("nan"))

    def test_rejects_infinite_arguments(self):
        # each would end in a quadrature error on NaN integrand values
        with pytest.raises(ValueError, match="finite g > 0"):
            z_reference(math.inf, 0.5)
        with pytest.raises(ValueError, match="finite delta < 2"):
            z_reference(1.0, -math.inf)


class TestStrongCoupling:
    def test_kappa_at_zero(self):
        value, _ = strong_coupling_kappa(0.0, 10)
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)

    def test_term_ratio_tends_to_half(self):
        # direct term recurrence oracle: t_n/t_{n-1} = d (2n-1)^2/(8 n^2) -> d/2
        term = math.sqrt(math.pi) / 2.0
        terms = [term]
        for n in range(1, 51):
            term *= (2 * n - 1) ** 2 / (8.0 * n * n)
            terms.append(term)
        r10, r50 = terms[10] / terms[9], terms[50] / terms[49]
        assert r50 == pytest.approx(0.5, abs=0.02)
        assert abs(r50 - 0.5) < abs(r10 - 0.5)
        # and the partial sums agree with the oracle accumulation
        assert strong_coupling_kappa(1.0, 51)[0] == pytest.approx(sum(terms), rel=1e-12)

    @pytest.mark.parametrize("delta", [2.0, -2.0, 3.0, float("nan")])
    def test_divergence_raises(self, delta):
        with pytest.raises(ValueError, match=r"\|delta\| < 2"):
            strong_coupling_kappa(delta, 5)

    def test_remainder_estimate_bounds_tail(self):
        short, remainder = strong_coupling_kappa(1.0, 20)
        long, _ = strong_coupling_kappa(1.0, 200)
        assert abs(long - short) <= 2.0 * remainder

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_consistency_with_reference_integral(self, delta):
        # g^{1/2} Z(g, d) -> kappa(d); within 1% at g = 1e4
        g = 1e4
        kappa, _ = strong_coupling_kappa(delta, 100)
        assert math.sqrt(g) * z_reference(g, delta, TIGHT) == pytest.approx(kappa, rel=0.01)

    def test_kappa_bound_at_g_1000(self):
        g = 1e3
        ratio = math.sqrt(g) * z_reference(g, 0.0, TIGHT) / strong_coupling_kappa(0.0, 100)[0]
        assert abs(ratio - 1.0) <= 0.05


def im_term(n, g_abs):
    """|Im Z| at order d^n, written out: prefactor_n (1/(4|g|))^{n+1/2} e^{-1/(4|g|)}."""
    u = 1.0 / (4.0 * g_abs)
    return model_im_prefactor(n) * u ** (n + 0.5) * math.exp(-u) if u < 700.0 else 0.0


class TestImaginaryPart:
    # each n-test also pins the exponent scale 4 and the power n + 1/2, on the
    # assembled Im Z with only its d^n term left
    def test_n0_prefactor(self):
        assert model_im_prefactor(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert -model_imaginary_part(0.1, 0.0, 0) == pytest.approx(
            math.sqrt(math.pi) * 2.5**0.5 * math.exp(-2.5), rel=1e-14)

    def test_n1_prefactor(self):
        # Gamma(3/2)/(2 * 1!^2) = sqrt(pi)/4
        assert model_im_prefactor(1) == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-15)
        d = 0.5
        at_d1 = model_imaginary_part(0.1, d, 1) - model_imaginary_part(0.1, d, 0)
        assert at_d1 == pytest.approx(d * math.sqrt(math.pi) / 4.0 * 2.5**1.5 * math.exp(-2.5),
                                      rel=1e-13)

    def test_n2_prefactor(self):
        # Gamma(5/2)/(2^2 * 2!^2) = (3 sqrt(pi)/4)/16 = 3 sqrt(pi)/64
        assert model_im_prefactor(2) == pytest.approx(3.0 * math.sqrt(math.pi) / 64.0, rel=1e-15)
        d = 0.5
        at_d2 = model_imaginary_part(0.1, d, 2) - model_imaginary_part(0.1, d, 1)
        assert at_d2 == pytest.approx(
            -d * d * 3.0 * math.sqrt(math.pi) / 64.0 * 2.5**2.5 * math.exp(-2.5), rel=1e-12)

    def test_gamma_ratio_oracle(self):
        for n in range(8):
            expected = math.exp(math.lgamma(n + 0.5)) / (2**n * math.factorial(n) ** 2)
            assert model_im_prefactor(n) == pytest.approx(expected, rel=1e-13)

    def test_assembled_sign_and_decay(self):
        # Im Z < 0 on the cut, magnitude shrinking as |g| -> 0
        v1 = model_imaginary_part(0.10, 0.5, 6)
        v2 = model_imaginary_part(0.05, 0.5, 6)
        assert v1 < 0 and v2 < 0
        assert abs(v2) < abs(v1)


class TestLargeOrderEstimate:
    def test_dispersion_integral_matches_gamma_form(self):
        # numerically integrate the dispersion integral over the leading
        # imaginary part; must reproduce the gamma-form estimate to machine
        # precision (identical integral, done analytically vs numerically)
        for k, n in [(10, 0), (13, 1), (17, 2)]:
            def integrand(u):  # u = |g|; Im Z^{(n)}(-u) / u^{k+1} up to signs
                return im_term(n, u) / u ** (k + 1)

            val = integrate_semiline(integrand, TIGHT).value / math.pi
            est = model_estimate(k, n, gamma_form=True)
            assert val == pytest.approx(math.exp(est.ln), rel=1e-9)

    def test_ratio_exact_to_estimate_n0(self):
        k = 100
        est = model_estimate(k, 0)
        exact = z_coeff(k, 0)
        ratio = math.exp(
            math.log(abs(exact.numerator)) - math.log(exact.denominator) - est.ln
        )
        assert abs(ratio - 1.0) <= 0.01

    def test_ratio_n2_k200(self):
        k, n = 200, 2
        est = model_estimate(k, n)
        exact = z_coeff(k, n)
        ratio = math.exp(
            math.log(abs(exact.numerator)) - math.log(exact.denominator) - est.ln
        )
        assert abs(ratio - 1.0) <= 0.03

    def test_signs(self):
        assert model_estimate(2, 1).sign == -1
        assert model_estimate(3, 1).sign == 1

    def test_delta_negative_growth_constant(self):
        # ratio test on exact Z_k(-1): growth constant 4 - 2d = 6
        k = 180
        r = z_coeff_delta(k + 1, -1) / z_coeff_delta(k, -1)
        growth = abs(r) / (k + 1)
        assert growth == pytest.approx(6.0, rel=0.02)
        est = large_order_estimate_delta(k, -1.0)
        exact = z_coeff_delta(k, -1)
        ratio = math.exp(
            math.log(abs(exact.numerator)) - math.log(exact.denominator) - est.ln
        )
        assert abs(ratio - 1.0) <= 0.05

    def test_delta_positive_regime(self):
        k = 400
        est = large_order_estimate_delta(k, 1.0)
        exact = z_coeff_delta(k, 1)
        ratio = math.exp(
            math.log(abs(exact.numerator)) - math.log(exact.denominator) - est.ln
        )
        assert abs(ratio - 1.0) <= 0.05

    def test_delta_zero_regime(self):
        k = 400
        est = large_order_estimate_delta(k, 0.0)
        exact = z_coeff_delta(k, 0)
        ratio = math.exp(
            math.log(abs(exact.numerator)) - math.log(exact.denominator) - est.ln
        )
        assert abs(ratio - 1.0) <= 0.05

    @pytest.mark.parametrize("delta", [2.0, 3.0, float("nan")])
    def test_delta_domain(self, delta):
        # Z(g, d) exists only for d < 2; NaN must not slip through as ln = nan
        with pytest.raises(ValueError, match="delta < 2"):
            large_order_estimate_delta(5, delta)

    def test_k_zero_raises(self):
        with pytest.raises(ValueError):
            model_estimate(0, 0)


def test_model_params_gamma_values():
    p = model_large_order_params()
    # gamma_0 = Gamma(1/2)/pi = 1/sqrt(pi)
    assert gamma_n(0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert gamma_n(1) == pytest.approx(-math.sqrt(math.pi) / (2 * math.pi * 2), rel=1e-12)
    assert 3 + p.b0_offset == Fraction(4)  # b0(n) = beta(n) + 3/2 with beta(n) = n - 1/2


class TestZCoeffsDeltaScaled:
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1.0, 0.5, -1.5, 1.99, 0.0])
    def test_equals_one_order_at_a_time(self, delta):
        # the crossover grids of fig1, fig2a and fig2b, and a dense start with k = 0
        for ks in ([16 * 2**i for i in range(10)], [0, 1, 2, 3, 4, 40]):
            assert z_coeffs_delta_scaled(ks, delta) == [z_coeff_delta_scaled(k, delta) for k in ks]

    def test_one_recurrence_per_scan(self, monkeypatch):
        calls = []

        def counted(ks, x):
            calls.append(list(ks))
            return legendre_scaled_grid(ks, x)

        monkeypatch.setattr(model, "legendre_scaled_grid", counted)
        ks = [16 * 2**i for i in range(10)]
        z_coeffs_delta_scaled(ks, 1e-4)
        assert calls == [ks]

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="delta < 2"):
            z_coeffs_delta_scaled([0, 16], 2.0)
        with pytest.raises(ValueError, match="increase"):
            z_coeffs_delta_scaled([32, 16], 0.5)
