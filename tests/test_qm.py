import math
from fractions import Fraction

import pytest

from anires import (
    CoefficientTable,
    QuadratureSpec,
    benderwu_build,
    integrate_unit,
    qm_approximant,
    qm_large_order_params,
    reexpansion_check,
    vpt_energy,
    w_laurent,
)
from paper_formulas import (
    beta_symmetric_half,
    large_order_estimate,
    qm_gamma_n,
    qm_im_prefactor,
    qm_imaginary_part,
)

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_refinements=12)


def qm_estimate(k, n):
    return large_order_estimate(qm_large_order_params(), qm_gamma_n(n), k, n)


class TestBetaIdentity:
    def test_gamma_ratio_values(self):
        # B(1/2,1/2) = pi, B(3/2,3/2) = pi/8
        assert beta_symmetric_half(0) == pytest.approx(math.pi, rel=1e-15)
        assert beta_symmetric_half(1) == pytest.approx(math.pi / 8.0, rel=1e-15)

    def test_against_lgamma(self):
        for n in range(10):
            ref = math.exp(2 * math.lgamma(n + 0.5) - math.lgamma(2 * n + 1))
            assert beta_symmetric_half(n) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", range(7))
    def test_angular_integral_identity(self, n):
        # int_0^{2pi} [2 sin^2(2 phi)]^n dphi = 8^n * 2 * B(n+1/2, n+1/2)
        def f(w):  # phi = 2 pi w
            phi = 2.0 * math.pi * w
            return (2.0 * math.sin(2.0 * phi) ** 2) ** n * 2.0 * math.pi

        val = integrate_unit(f, TIGHT).value
        assert val == pytest.approx(8.0**n * 2.0 * beta_symmetric_half(n), rel=1e-12)


class TestImaginaryTerms:
    def test_n0_is_six(self):
        assert qm_im_prefactor(0) == pytest.approx(6.0, rel=1e-15)
        # the power n + 1 and exp(-4/(3|g|)) = exp(-1/(0.75 |g|)), at |g| = 0.2
        assert qm_imaginary_part(0.2, 0.0, 0) == pytest.approx(
            6.0 * (4.0 / 0.6) * math.exp(-4.0 / 0.6), rel=1e-14)

    def test_n1_is_three_halves(self):
        # (6/pi) * 2 * B(3/2,3/2) = (6/pi) * 2 * pi/8 = 3/2
        assert qm_im_prefactor(1) == pytest.approx(1.5, rel=1e-15)
        d = 0.5
        at_d1 = qm_imaginary_part(0.2, d, 1) - qm_imaginary_part(0.2, d, 0)
        assert at_d1 == pytest.approx(-d * 1.5 * (4.0 / 0.6) ** 2 * math.exp(-4.0 / 0.6),
                                      rel=1e-13)

    def test_n2_gamma_identity_oracle(self):
        # (6/pi) (2^2/2!) B(5/2,5/2) = 9/32
        expected = (6.0 / math.pi) * 2.0 * beta_symmetric_half(2)
        assert qm_im_prefactor(2) == pytest.approx(expected, rel=1e-14)
        assert qm_im_prefactor(2) == pytest.approx(9.0 / 32.0, rel=1e-14)

    def test_assembled_positive_and_decaying(self):
        v1 = qm_imaginary_part(0.20, 0.5, 6)
        v2 = qm_imaginary_part(0.10, 0.5, 6)
        assert v1 > 0 and v2 > 0
        assert v2 < v1


class TestLargeOrderEstimate:
    def test_table_ratio_k12(self, qm_table):
        # |E_{12,0}/E_{11,0}| = 37.546 vs sigma (k+1) = 36: 4.3% deviation
        ratio = abs(qm_table.entry(12, 0) / qm_table.entry(11, 0))
        assert float(ratio) == pytest.approx(37.546, abs=5e-4)
        assert abs(float(ratio) / 36.0 - 1.0) < 0.05

    def test_table_ratio_n1(self, qm_table):
        ratio = abs(qm_table.entry(12, 1) / qm_table.entry(11, 1))
        target = 3.0 * 12.0 * (12.0 / 11.0)  # sigma (k+1) (1 + n/k) style
        assert abs(float(ratio) / target - 1.0) < 0.10

    def test_ratio_deviation_shrinks(self, qm_table):
        devs = []
        for k in (6, 8, 10, 11):
            ratio = abs(qm_table.entry(k + 1, 0) / qm_table.entry(k, 0))
            devs.append(abs(float(ratio) / (3.0 * (k + 1)) - 1.0))
        assert devs[-1] < devs[0]

    def test_estimate_tracks_exact_magnitude(self, qm_table):
        # the scaled estimate should be within ~40% at k = 12 (O(1/k) regime)
        est = qm_estimate(12, 0)
        exact = qm_table.entry(12, 0)
        ratio = math.exp(
            math.log(abs(exact.numerator)) - math.log(exact.denominator) - est.ln
        )
        assert 0.6 < ratio < 1.1
        assert est.sign == (1 if exact > 0 else -1)

    def test_sign_pattern(self):
        assert qm_estimate(11, 0).sign == 1
        assert qm_estimate(12, 0).sign == -1
        assert qm_estimate(12, 1).sign == 1

    @pytest.mark.parametrize("n, bound", [(0, 5e-2), (1, 5e-2), (2, 5e-2), (3, 5e-2),
                                          (4, 5e-2), (5, 1e-1)])
    def test_richardson_limit_is_gamma_n(self, bw_state_20, n, bound):
        # r_k = E_kn / (gamma_n (-3)^k (k+n)!) -> 1, extrapolated by Richardson of
        # order m = 4 in 1/k ending at k = K = 20 (Bender & Orszag, sec. 8.1).
        # |estimate - 1| measures 2.5e-2, 2.4e-2, 1.4e-2, 4.6e-3, 9.5e-3 and 4.4e-2
        # for n = 0..5; the bounds are these with a margin.  B(n+1/2, n+1) in place
        # of B(n+1/2, n+1/2) reads >= 0.37 off, and gamma_n of flipped sign at odd
        # n reads -2.
        e, m, K = bw_state_20.energy, 4, 20

        def r(k):
            return float(e.entry(k, n) / ((-3) ** k * math.factorial(k + n))) / qm_gamma_n(n)

        estimate = sum(r(k) * k**m * (-1) ** (K - k)
                       / (math.factorial(k - K + m) * math.factorial(K - k))
                       for k in range(K - m, K + 1))
        assert abs(estimate - 1.0) <= bound, estimate


class TestResummation:
    def test_reexpansion_exact_zero_through_N12(self, qm_table):
        approx = qm_approximant(qm_table, 12)
        assert reexpansion_check(approx) == 0

    def test_reexpansion_exact_zero_sigma4(self, qm_table):
        approx = qm_approximant(qm_table, 8, sigma=4)
        assert reexpansion_check(approx) == 0

    def test_unperturbed_limit(self, qm_table):
        got = qm_approximant(qm_table, 6).resum(1e-8, 2 * 0.9, TIGHT)
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_table2_point_g01(self, qm_table):
        got = qm_approximant(qm_table, 8).resum(0.1, 2 * 0.5, TIGHT)
        assert got == pytest.approx(1.134734, abs=2e-3)

    def test_table2_point_g10(self, qm_table):
        got = qm_approximant(qm_table, 8).resum(1.0, 2 * -0.5, TIGHT)
        assert got == pytest.approx(1.773867, abs=2e-2)

    def test_delta_zero_uses_only_isotropic_column(self, qm_table):
        # d = 0 reads column 0 alone, and perturbing the n >= 1 columns moves
        # it only within the tolerance: all columns share one node set, so the
        # poisoned ones may take S_0 one refinement level further
        clean = qm_approximant(qm_table, 6)
        entries = {kn: v for kn, v in qm_table.items() if kn[0] <= 6}
        for (k, n) in list(entries):
            if n >= 1:
                entries[(k, n)] = entries[(k, n)] + 17
        poisoned = qm_approximant(CoefficientTable(entries, 6), 6)
        for g in (0.05, 0.3, 1.0, 3.0):
            for approx in (clean, poisoned):
                assert approx.resum(g, 0.0, TIGHT) == approx.basis_values(g, TIGHT)[0]
            assert poisoned.resum(g, 0.0, TIGHT) == pytest.approx(
                clean.resum(g, 0.0, TIGHT), rel=TIGHT.rel_tol), g

    def test_sigma4_tracks_vpt_for_negative_delta(self, qm_table):
        # the larger-sigma refit at gbar = 0.1, N = 6 stays within 5e-4 of
        # the variational baseline across delta in [-1.5, 0]
        approx = qm_approximant(qm_table, 6, sigma=4)
        for i in range(7):
            d = -1.5 + 0.25 * i
            ref = vpt_energy(
                qm_table, 11, Fraction(1, 10), Fraction(d).limit_denominator(10**6)
            ).energy
            rel = abs(approx.resum(0.1, 2.0 * d, TIGHT) - ref) / ref
            assert rel <= 5e-4, (d, rel)

    def test_sigma_sensitivity_negative_delta(self, qm_table):
        # at d = -1.5, gbar = 0.1, N = 6 the sigma = 4 run lands closer to the
        # variational reference than sigma = 3
        ref = vpt_energy(qm_table, 11, Fraction(1, 10), Fraction(-3, 2)).energy
        err3 = abs(qm_approximant(qm_table, 6, sigma=3).resum(0.1, 2 * -1.5, TIGHT) - ref)
        err4 = abs(qm_approximant(qm_table, 6, sigma=4).resum(0.1, 2 * -1.5, TIGHT) - ref)
        assert err4 < err3

    def test_order_11_table_gives_the_figure_inputs(self, qm_table):
        # figures --which fig5|fig6|fig8|fig9 build the table to order 11: the
        # triangles (N <= 8) and W_11 read nothing of order 12
        e11 = benderwu_build(11).energy
        for sigma in (3, 4):
            for N in (2, 4, 6, 8):
                got, want = qm_approximant(e11, N, sigma).a, qm_approximant(qm_table, N, sigma).a
                assert list(got.items()) == list(want.items()), (sigma, N)
        for gbar in (Fraction(1, 10), Fraction(1)):
            for d in (Fraction(-3, 2), Fraction(0), Fraction(1, 2), Fraction(2)):
                got, want = w_laurent(e11, 11, gbar, d), w_laurent(qm_table, 11, gbar, d)
                assert list(got.terms.items()) == list(want.terms.items()), (gbar, d)

    def test_params_validation(self, qm_table):
        with pytest.raises(ValueError):
            qm_approximant(qm_table, 15)
        with pytest.raises(ValueError):
            qm_approximant(qm_table, 6).resum(-0.1, 0.0)

    def test_negative_order_raises(self, qm_table):
        # an empty triangle would otherwise resum to 0.0 without complaint
        with pytest.raises(ValueError, match="N must be >= 0"):
            qm_approximant(qm_table, -1)


def test_qm_params_structure():
    p = qm_large_order_params()
    assert p.sigma == 3
    assert p.alpha == Fraction(1, 3)
    assert 2 + p.b0_offset == Fraction(7, 2)  # b0(n) = beta(n) + 3/2 with beta(n) = n
    # gamma_0 = -(6/pi^2) B(1/2,1/2) = -6/pi
    assert qm_gamma_n(0) == pytest.approx(-6.0 / math.pi, rel=1e-14)
