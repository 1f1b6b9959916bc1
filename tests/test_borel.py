import json
import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from anires import (
    BorelBasisSpec,
    ModelCoefficients,
    QuadratureSpec,
    approximant_to_json,
    basis_integral,
    basis_integral_tform,
    basis_integrals,
    benderwu_build,
    borel_coefficients,
    build_approximant,
    model_large_order_params,
    qm_approximant,
    qm_large_order_params,
    reexpansion_check,
    z_coeff,
    z_reference,
)
from anires import borel
from anires.borel import ResummedApproximant
from anires.model import MODEL_ALPHA
from anires.qm import QM_ALPHA
from anires.quadrature import DEFAULT_SPEC
from anires.specfun import generalized_binomial
from anires.series import CoefficientTable, LargeOrderParams
from paper_formulas import _basis_series, basis_integral_four_logs, pochhammer, reexpansion_residual

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_refinements=12)
# a tolerance relative to each value alone, so that sums far below 1e-12
# (high p at small g, the model at large g) are converged as well
RELATIVE = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_refinements=12)


def model_spec(p, n):
    return BorelBasisSpec(p=p, b0=Fraction(n + 1), alpha=Fraction(-1, 2), sigma=Fraction(4))


def series_coefficients(spec, stop, x=1):
    """I^p_k x^k for k = 0 .. stop - 1; _basis_series yields them from k = p."""
    terms = _basis_series(spec.p, spec.b0, Fraction(spec.alpha), Fraction(spec.sigma), x)
    return [Fraction(0)] * min(spec.p, stop) + list(islice(terms, max(stop - spec.p, 0)))


@pytest.fixture(scope="module")
def model_approx_12():
    mc = ModelCoefficients.build(12)
    return build_approximant(mc.table, 12, model_large_order_params())


class TestPochhammer:
    def test_basic(self):
        assert pochhammer(Fraction(3, 2), 3) == Fraction(3 * 5 * 7, 8)
        assert pochhammer(2, 0) == 1


def direct_borel_coefficients(column, params, n):
    # the defining double sum, every factor formed from scratch:
    # a_pn = sum_{k<=p} c_k / (b0+1)_k (4/sigma)^k C(p+k-1-2 alpha, p-k)
    N = n + len(column) - 1
    b0 = n + params.b0_offset
    alpha = Fraction(params.alpha)
    four_over_sigma = 4 / Fraction(params.sigma)
    return [
        sum((Fraction(column[k - n]) / pochhammer(b0 + 1, k) * four_over_sigma**k
             * generalized_binomial(p + k - 1 - 2 * alpha, p - k)
             for k in range(n, p + 1)), Fraction(0))
        for p in range(n, N + 1)
    ]


# (sigma, b0 offset, alpha) on the oscillator table: the default pair, sigma
# with a denominator, and all three with one
QM_PARAMS = {
    "qm-sigma3": qm_large_order_params(3),
    "qm-sigma4": qm_large_order_params(4),
    "qm-sigma7_2": qm_large_order_params(Fraction(7, 2)),
    "qm-sigma10_3": qm_large_order_params(Fraction(10, 3)),
    "qm-5_2-5_4-2_5": LargeOrderParams(Fraction(5, 2), Fraction(5, 4), Fraction(2, 5)),
}


@pytest.mark.parametrize("case", [*QM_PARAMS, "model"])
def test_triangle_equals_direct_sum(case):
    N = 15
    if case == "model":
        table, params = ModelCoefficients.build(N).table, model_large_order_params()
    else:
        table, params = benderwu_build(N).energy, QM_PARAMS[case]
    for n in range(N + 1):
        column = table.column(n, N)
        assert borel_coefficients(column, params, n) == direct_borel_coefficients(column, params, n)


def test_triangle_equals_direct_sum_on_random_columns():
    # seeded columns and parameters, among them a vanishing b0 + i (where both
    # raise ZeroDivisionError) and 2 alpha with a denominator that no other
    # factor of the denominator shares
    rng = random.Random(2029)
    raised = 0
    for _ in range(400):
        params = LargeOrderParams(Fraction(rng.randint(1, 20), rng.randint(1, 6)),
                                  Fraction(rng.randint(-40, 40), rng.randint(1, 6)),
                                  Fraction(rng.randint(-30, 30), rng.randint(1, 14)))
        column = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.8
                  else Fraction(0) for _ in range(rng.randint(1, 8))]
        n = rng.randint(0, 4)
        try:
            want = direct_borel_coefficients(column, params, n)
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(ZeroDivisionError):
                borel_coefficients(column, params, n)
        else:
            assert borel_coefficients(column, params, n) == want
    assert 0 < raised < 100


class TestBorelCoefficients:
    def test_model_diagonal_closed_form(self, model_approx_12):
        # a_nn = (1/8^n) (n+1)/(2n+1) (2n)!/(n!)^2 exactly, off-diagonals 0
        for n in range(13):
            expected = (
                Fraction(n + 1, 2 * n + 1) * Fraction(math.comb(2 * n, n)) / 8**n
            )
            assert model_approx_12.a[(n, n)] == expected
            for p in range(n + 1, 13):
                assert model_approx_12.a[(p, n)] == 0

    def test_a11_value(self, model_approx_12):
        assert model_approx_12.a[(1, 1)] == Fraction(1, 6)

    def test_a22_value(self, model_approx_12):
        assert model_approx_12.a[(2, 2)] == Fraction(9, 160)

    def test_linearity_in_column(self):
        params = model_large_order_params()
        col = [z_coeff(k, 1) for k in range(1, 6)]
        a1 = borel_coefficients(col, params, 1)
        a3 = borel_coefficients([3 * c for c in col], params, 1)
        assert a3 == [3 * v for v in a1]

    def test_vanishing_b0_plus_i_raises(self, qm_table):
        # b0(0) = -2 makes (b0+1)_k vanish from k = 2 on, as in the direct sum
        params = LargeOrderParams(Fraction(3), Fraction(-2), Fraction(1, 3))
        column = qm_table.column(0, 4)
        assert borel_coefficients(column[:2], params, 0) == direct_borel_coefficients(
            column[:2], params, 0)
        for check in (borel_coefficients, direct_borel_coefficients):
            with pytest.raises(ZeroDivisionError):
                check(column, params, 0)


class TestBasisSeriesCoefficient:
    @pytest.mark.parametrize("alpha,b0,sigma", [
        (QM_ALPHA, Fraction(7, 2), Fraction(3)),
        (MODEL_ALPHA, Fraction(3), Fraction(4)),
    ])
    @pytest.mark.parametrize("p", [0, 3, 7])
    def test_closed_form(self, alpha, b0, sigma, p):
        # I^p_k = (sigma/4)^p (-sigma)^m (b0+1)_k (a)_m (a+1/2)_m / ((2a+1)_m m!)
        spec = BorelBasisSpec(p=p, b0=b0, alpha=alpha, sigma=sigma)
        a = p - alpha
        got = series_coefficients(spec, 21)
        for k in range(p, 21):
            m = k - p
            want = ((sigma / 4) ** p * (-sigma) ** m * pochhammer(b0 + 1, k) * pochhammer(a, m)
                    * pochhammer(a + Fraction(1, 2), m) / (pochhammer(2 * a + 1, m) * math.factorial(m)))
            assert got[k] == want, k

    def test_isotropic_channel_matches_exact_coefficients(self):
        # with a_00 = 1 the n=0 basis alone carries the whole isotropic
        # series: I^0_k = Z_k0 exactly
        assert series_coefficients(model_spec(0, 0), 20) == [z_coeff(k, 0) for k in range(20)]

    def test_zero_below_p(self):
        # the series of I_3 starts at x^3: its first term scales as x^3
        spec = model_spec(3, 0)
        assert series_coefficients(spec, 4, 2)[3] == 8 * series_coefficients(spec, 4)[3] != 0

    def test_inverse_of_coefficient_map(self):
        # feeding the series of I_p back through the a_p formula returns
        # the unit vector e_p: the two triangles are mutual inverses
        params = model_large_order_params()
        N = 7
        for p in (0, 2, 5):
            spec = model_spec(p, 0)
            column = series_coefficients(spec, N + 1)
            a = borel_coefficients(column, params, 0)
            expected = [Fraction(1) if q == p else Fraction(0) for q in range(N + 1)]
            assert a == expected


class TestBasisIntegral:
    def test_small_g_limit_is_one(self):
        spec = model_spec(0, 0)
        assert basis_integral(spec, 1e-9, TIGHT) == pytest.approx(1.0, abs=1e-8)

    def test_small_g_scaling_of_higher_p(self):
        # I_p(g) / (sigma g / 4)^p -> (b0+1)_p as g -> 0, corrections O(sigma g)
        g = 1e-5
        for n in (1, 2):
            spec = model_spec(n, n)
            expected = float(pochhammer(Fraction(n + 2), n)) * g**n
            assert basis_integral(spec, g, TIGHT) == pytest.approx(expected, rel=1e-3)

    def test_series_and_quadrature_branches_agree(self):
        # continuous at small coupling: I_1 ~ 3 g there, so couplings 0.8%
        # apart around sigma*g = 1e-3 give values 0.8% apart
        spec = model_spec(1, 1)
        lo = basis_integral(spec, 0.000249, TIGHT)
        hi = basis_integral(spec, 0.000251, TIGHT)
        slope = (hi - lo) / lo
        assert abs(slope) < 1e-2

    def test_w_form_equals_t_form(self):
        # one column of the vector t-integral against the per-basis oracle,
        # from sigma*g = 1.6e-3 to the strong-coupling regime
        for p, n, g in [(0, 0, 1.0), (2, 2, 0.5), (1, 0, 3.0),
                        (3, 1, 0.01), (2, 1, 0.0004), (0, 0, 100.0)]:
            spec = model_spec(p, n)
            wv = basis_integral(spec, g, TIGHT)
            tv = basis_integral_tform(spec, g, TIGHT)
            assert wv == pytest.approx(tv, rel=1e-8), (p, n, g)

    @pytest.mark.parametrize("params", [qm_large_order_params(), model_large_order_params()],
                             ids=["qm", "model"])
    def test_t_form_equals_four_log_integrand(self, params):
        # the regrouped t-integrand (two logs per node) against the docstring's
        # factors, one log each, from g = 2.6e-4 to g = 1e5
        for p in (0, 1, 2, 5, 8, 12):
            for n in sorted({0, p // 2, p}):
                spec = BorelBasisSpec(p=p, b0=n + params.b0_offset,
                                      alpha=Fraction(params.alpha), sigma=params.sigma)
                for i in range(9):
                    g = 2.6e-4 * (1e5 / 2.6e-4) ** (i / 8)
                    want = basis_integral_four_logs(spec, g, DEFAULT_SPEC)
                    assert basis_integral_tform(spec, g) == pytest.approx(want, rel=1e-12), (p, n, g)

    def test_isotropic_resummation_is_exact_function(self):
        # a_00 I_00(g) equals the reference integral identically (the basis
        # function resums the isotropic series in closed form)
        for g in (0.25, 1.0, 4.0):
            assert basis_integral(model_spec(0, 0), g, TIGHT) == pytest.approx(
                z_reference(g, 0.0, TIGHT), rel=1e-9
            )

    def test_strong_coupling_exponent(self):
        # basis_integral * g^{-alpha} approaches a constant: compare decades
        spec = model_spec(0, 0)
        v3 = basis_integral(spec, 1e3, TIGHT) * 1e3**0.5
        v4 = basis_integral(spec, 1e4, TIGHT) * 1e4**0.5
        assert abs(v4 / v3 - 1.0) < 0.02

    def test_invalid_g(self):
        # inf passes g > 0, so finiteness is its own condition
        for g in (-1.0, 0.0, float("nan"), math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"finite g > 0, got {g}"):
                basis_integral(model_spec(0, 0), g)
            with pytest.raises(ValueError, match=f"finite g > 0, got {g}"):
                basis_integral_tform(model_spec(0, 0), g)
            with pytest.raises(ValueError, match=f"finite g > 0, got {g}"):
                basis_integrals(Fraction(4), Fraction(-1, 2), [(1, 0, [1.0])], g)


class TestApproximant:
    def test_reexpansion_exact_zero(self, model_approx_12):
        assert reexpansion_check(model_approx_12) == 0

    @pytest.mark.parametrize("key", [(6, 6), (9, 4)])
    def test_reexpansion_detects_perturbed_coefficient(self, qm_table, key):
        # one diagonal and one off-diagonal a_pn, each moved by 1e-40
        approx = qm_approximant(qm_table, 12)
        assert reexpansion_check(approx) == 0
        a = dict(approx.a)
        a[key] += Fraction(1, 10**40)
        bent = ResummedApproximant(N=12, a=a, params=approx.params, input_table=qm_table)
        assert reexpansion_check(bent) > 0

    @pytest.mark.parametrize("case", [*QM_PARAMS, "model"])
    def test_reexpansion_equals_fraction_oracle(self, qm_table, model_approx_12, case):
        # the integer sums against the Fraction ones, for the exact triangle
        # (residual 0) and for perturbed a_pn: one diagonal, one off-diagonal,
        # a whole column and a large move of the corner a_N0
        if case == "model":
            approx = model_approx_12
        else:
            approx = build_approximant(qm_table, 12, QM_PARAMS[case])
        assert reexpansion_check(approx) == reexpansion_residual(approx) == 0
        bends = [{(6, 6): Fraction(1, 10**40)}, {(9, 4): Fraction(-1, 10**40)},
                 {(p, 3): Fraction(p, 7**p) for p in range(3, 13)}, {(12, 0): Fraction(-22, 7)}]
        for bend in bends:
            a = {key: value + bend.get(key, 0) for key, value in approx.a.items()}
            bent = ResummedApproximant(N=12, a=a, params=approx.params,
                                       input_table=approx.input_table)
            residual = reexpansion_check(bent)
            assert type(residual) is Fraction and residual > 0
            assert residual == reexpansion_residual(bent), bend

    def test_reexpansion_equals_fraction_oracle_on_random_triangles(self):
        # seeded small tables, parameters and a_pn, among them vanishing
        # factors j - 2 alpha in the numerator of I^p_k and in its pole (where
        # both raise ZeroDivisionError)
        rng = random.Random(2029)

        def rational(top, den):
            return Fraction(rng.randint(-top, top), rng.randint(1, den))

        def outcome(check, approx):
            try:
                return check(approx)
            except ZeroDivisionError:
                return ZeroDivisionError

        seen = set()
        for _ in range(400):
            N = rng.randint(0, 6)
            params = LargeOrderParams(Fraction(rng.randint(1, 20), rng.randint(1, 6)),
                                      rational(20, 6),
                                      Fraction(rng.randint(-6, 8), rng.choice((2, 4, 6))))
            entries = {(k, n): rational(30, 12) for n in range(N + 1) for k in range(n, N + 1)}
            entries[(0, 0)] = Fraction(1)
            a = {(p, n): rational(30, 12) if rng.random() < 0.8 else Fraction(0)
                 for n in range(N + 1) for p in range(n, N + 1)}
            approx = ResummedApproximant(N=N, a=a, params=params,
                                         input_table=CoefficientTable(entries, N))
            want = outcome(reexpansion_residual, approx)
            assert outcome(reexpansion_check, approx) == want
            seen.add(want if want is ZeroDivisionError else want == 0)
        assert seen == {ZeroDivisionError, False}

    def test_pole_of_the_basis_series_raises(self, qm_table):
        # alpha = 1/2 puts the pole 2a + m = 0 of the I_0 series at m = 1
        params = LargeOrderParams(Fraction(3), Fraction(3, 2), Fraction(1, 2))
        approx = build_approximant(qm_table, 4, params)
        assert approx.a[(0, 0)] == 1
        with pytest.raises(ZeroDivisionError):
            reexpansion_residual(approx)
        with pytest.raises(ZeroDivisionError):
            reexpansion_check(approx)

    def test_resum_g_to_zero(self, model_approx_12):
        assert model_approx_12.resum(1e-9, 0.7, TIGHT) == pytest.approx(1.0, abs=1e-7)

    def test_resum_matches_reference_isotropic(self, model_approx_12):
        got = model_approx_12.resum(1.0, 0.0, TIGHT)
        assert got == pytest.approx(z_reference(1.0, 0.0, TIGHT), abs=1e-3)

    def test_fig4_regime_pointwise(self, model_approx_12):
        g = 1.0  # g/4 = 0.25
        for d in (-1.0, -0.5, 0.5, 1.0, 1.5):
            zn = model_approx_12.resum(g, d, TIGHT)
            zr = z_reference(g, d, TIGHT)
            assert abs(zn - zr) <= 1e-2, d

    def test_monotone_convergence_in_N(self):
        # |Z^(N) - Z_ref| non-increasing over N in {2,4,6,8} at g=1, d=0.5
        mc = ModelCoefficients.build(8)
        params = model_large_order_params()
        zr = z_reference(1.0, 0.5, TIGHT)
        errs = []
        for N in (2, 4, 6, 8):
            approx = build_approximant(mc.table, N, params)
            errs.append(abs(approx.resum(1.0, 0.5, TIGHT) - zr))
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_linearity_scaling(self):
        # scaling the input column scales the resummed value exactly
        mc = ModelCoefficients.build(4)
        params = model_large_order_params()
        base = build_approximant(mc.table, 4, params)
        scaled_entries = {kn: 3 * v for kn, v in mc.table.items()}
        from anires import CoefficientTable

        scaled = build_approximant(CoefficientTable(scaled_entries, 4), 4, params)
        for key in base.a:
            assert scaled.a[key] == 3 * base.a[key]
        g, d = 0.7, 0.3
        assert scaled.resum(g, d, TIGHT) == pytest.approx(3.0 * base.resum(g, d, TIGHT), rel=1e-12)

    def test_fresh_resum_equals_warm(self, model_approx_12):
        # a fresh approximant, whose basis cache starts empty, gives exactly the
        # values of one whose cache is already warm
        grid = [(0.5 + 0.1 * i, -1.0 + 0.2 * j) for i in range(5) for j in range(10)]
        warm = [model_approx_12.resum(g, d, TIGHT) for g, d in grid]
        assert [model_approx_12.resum(g, d, TIGHT) for g, d in grid] == warm
        fresh = build_approximant(
            model_approx_12.input_table, 12, model_large_order_params()
        )
        assert [fresh.resum(g, d, TIGHT) for g, d in grid] == warm

    def test_resum_names_a_non_finite_argument(self, model_approx_12):
        # y = nan gave nan and y = inf gave -inf; g = inf a bare math domain error
        for y in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite y"):
                model_approx_12.resum(0.1, y)
        for g in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite g > 0"):
                model_approx_12.resum(g, 0.5)

    def test_json_export_schema(self, model_approx_12):
        doc = json.loads(approximant_to_json(model_approx_12))
        assert set(doc) == {"N", "sigma", "alpha", "b0_offset", "a"}
        assert doc["N"] == 12
        assert doc["sigma"] == "4"
        assert doc["alpha"] == "-1/2"
        assert doc["b0_offset"] == "1"
        assert len(doc["a"]) == 13 * 14 // 2
        first = doc["a"][0]
        assert first == {"p": 0, "n": 0, "numerator": "1", "denominator": "1"}

    def test_float_path_reexpansion_residual(self):
        # float-coefficient variant of the reexpansion check at N=8
        mc = ModelCoefficients.build(8)
        params = model_large_order_params()
        approx = build_approximant(mc.table, 8, params)
        worst = 0.0
        for n in range(9):
            for k in range(n, 9):
                rec = 0.0
                for p in range(n, k + 1):
                    rec += float(series_coefficients(approx.basis_spec(p, n), k + 1)[k]) * float(
                        approx.a[(p, n)]
                    )
                target = float(mc.table.entry(k, n))
                worst = max(worst, abs(rec - target) / max(1.0, abs(target)))
        assert worst <= 1e-10


class TestSharedNodeBasis:
    def test_vector_matches_scalar(self):
        # several columns, not in b0 order, zero weights (gaps in p) within a
        # column, and the column order kept; columns are (b0, p0, weights) with
        # b0 = n + 1, and each sum is sum_i weights[i] I_{p0+i}
        columns = [(Fraction(3), 2, [0.75, 0.0, 0.0, 1.5]),
                   (Fraction(1), 0, [2.0, 0.0, 0.0, -0.5]),
                   (Fraction(8), 7, [1.0])]
        for g in (1e-9, 1e-5, 0.05, 1.0, 20.0):
            got = basis_integrals(Fraction(4), Fraction(-1, 2), columns, g, TIGHT)
            assert len(got) == 3
            for (b0, p0, weights), value in zip(columns, got):
                want = sum(weight * basis_integral_tform(model_spec(p, b0 - 1), g, TIGHT)
                           for p, weight in enumerate(weights, p0) if weight)
                assert value == pytest.approx(want, rel=1e-10), (b0, g)

    # (sigma, alpha, columns) of the oscillator and the model, zero weights within
    MPMATH_CASES = [
        (Fraction(3), Fraction(1, 3), [(Fraction(3, 2), 0, [1.0, 0.0, -0.25, 0.0, 0.125]),
                                       (Fraction(27, 2), 12, [1e-3])]),
        (Fraction(4), Fraction(-1, 2), [(Fraction(1), 0, [1.0, 0.0, 0.5]),
                                        (Fraction(13), 12, [2.0])]),
    ]

    @staticmethod
    def mpmath_column_sums(sigma, alpha, columns, g):
        """Each column sum as the t-integral of the ``anires.borel`` docstring, by
        mpmath.quad at 30 digits over u = ln t in [-50, ln 300], scaled by the
        integrand at its peak so that mpmath's absolute error test is relative."""
        def mpf(q):
            return mpmath.mpf(q.numerator) / q.denominator

        with mpmath.workdps(30):
            sg, two_alpha = mpf(sigma) * g, 2 * mpf(alpha)
            sums = []
            for b0, p0, weights in columns:
                b0 = mpf(b0)

                def f(u):
                    t = mpmath.exp(u)
                    one_r = 1 + mpmath.sqrt(1 + sg * t)
                    w = sg * t / one_r**2
                    return (mpmath.exp((b0 + 1) * u - t + two_alpha * mpmath.log(one_r / 2)
                                       + p0 * mpmath.log(w))
                            * mpmath.polyval(weights[::-1], w))

                peak = mpmath.log(b0 + p0 + 1)
                scale = f(peak)
                cuts = sorted({-50, min(max(-mpmath.log(sg), -50), 0), peak, mpmath.log(300)})
                value = mpmath.quad(lambda u: f(u) / scale, cuts) * scale / mpmath.gamma(b0 + 1)
                sums.append(float(value))
            return sums

    @pytest.mark.parametrize("g", [1e-9, 0.3, 1e3, 1e40, 1e300])
    def test_column_sums_match_mpmath(self, g):
        # an oracle that shares no quadrature with basis_integrals or the
        # t-form, from g = 1e-9 to g = 1e300
        for sigma, alpha, columns in self.MPMATH_CASES:
            got = basis_integrals(sigma, alpha, columns, g, RELATIVE)
            assert got == pytest.approx(self.mpmath_column_sums(sigma, alpha, columns, g),
                                        rel=1e-10), (sigma, g)

    def test_basis_value_accessor(self, model_approx_12):
        # a lone I_pn, off the resum path, for a nonzero and for a zero a_pn alike
        g = 0.8
        for p, n in ((3, 3), (5, 2)):
            want = basis_integral_tform(model_approx_12.basis_spec(p, n), g)
            assert model_approx_12.basis_value(p, n, g) == pytest.approx(want, rel=1e-10)


@pytest.fixture(scope="module")
def approximants_12(qm_table, model_approx_12):
    return {"qm-sigma3": qm_approximant(qm_table, 12, 3),
            "qm-sigma4": qm_approximant(qm_table, 12, 4),
            "model": model_approx_12}


def tform_recombination(approx, g, ys):
    """sum_pn float(a_pn) I_pn(g) y^n for each y, every I_pn from the t-form."""
    tform = {key: basis_integral_tform(approx.basis_spec(*key), g)
             for key, coeff in approx.a.items() if coeff}
    return [sum(float(approx.a[key]) * value * y ** key[1] for key, value in tform.items())
            for y in ys]


class TestColumnSums:
    YS = (-2.0, 1.0, 3.0)

    @pytest.mark.parametrize("case", ["qm-sigma3", "qm-sigma4", "model"])
    def test_resum_matches_tform_recombination(self, approximants_12, case):
        # a log grid from g = 1e-9 up to g = 5
        approx = approximants_12[case]
        for i in range(11):
            g = 1e-9 * 5e9 ** (i / 10)
            got = [approx.resum(g, y) for y in self.YS]
            assert got == pytest.approx(tform_recombination(approx, g, self.YS), rel=1e-10), g

    def test_one_quadrature_per_coupling(self, qm_table, monkeypatch):
        # one fresh coupling integrates every column sum in one call, and a scan
        # over y at the same coupling and spec reuses it
        integrate_semiline = borel.integrate_semiline
        widths = []

        def counted(f, quad):
            widths.append(len(f(0.5)))
            return integrate_semiline(f, quad)

        monkeypatch.setattr(borel, "integrate_semiline", counted)
        approx = qm_approximant(qm_table, 12)
        assert len(approx._columns) == 13
        for y in (-2.0, -0.5, 0.0, 1.0, 3.0):
            approx.resum(0.2, y)
        assert widths == [13]

    @pytest.mark.parametrize("case,y", [("qm-sigma3", 2.0), ("model", 0.5)])
    def test_strong_coupling_power_law(self, approximants_12, case, y):
        # E g^(-1/3) at delta = 1 and Z g^(1/2) at delta = 1/2 are constant
        # once sigma*g*t >> 1 on the integrand's support, and equal the g -> inf
        # limit, where each I_p tends to (sigma g/4)^alpha Gamma(b0+1+alpha)/Gamma(b0+1);
        # at g = 1e308 sigma*g itself overflows
        approx = approximants_12[case]
        params = approx.params
        alpha = float(params.alpha)
        scaled = [approx.resum(g, y) * g**-alpha for g in (1e40, 1e100, 1e300, 1e308)]
        assert scaled == pytest.approx([scaled[0]] * 4, rel=1e-12)
        limit = 0.0
        for n in range(approx.N + 1):
            b0 = n + float(params.b0_offset)
            column = sum(float(approx.a[(p, n)]) for p in range(n, approx.N + 1))
            limit += (column * y**n * (float(params.sigma) / 4) ** alpha
                      * math.exp(math.lgamma(b0 + 1 + alpha) - math.lgamma(b0 + 1)))
        for g in (1e40, 1e300):
            assert approx.resum(g, y, RELATIVE) * g**-alpha == pytest.approx(limit, rel=1e-10)

    @pytest.mark.parametrize("sigma", [Fraction(1, 10**300), Fraction(10**300)])
    def test_coefficient_without_float_is_rejected(self, qm_table, sigma):
        with pytest.raises(ValueError, match=r"\(p, n\) = \(\d+, \d+\)"):
            qm_approximant(qm_table, 4, sigma)


# Couplings at which a lone default-spec basis integral once accepted h = 1/2
# while the peak of its integrand still fell between the nodes.
FALSE_CONVERGENCE = [
    (0.10975430650094, 12, 1),
    (0.08791703157350009, 11, 4),
    (0.09142512809881138, 12, 3),
]


class TestFalseConvergence:
    @pytest.fixture(scope="class")
    def qm_approx(self, qm_table):
        return qm_approximant(qm_table, 12)

    @pytest.mark.parametrize("gbar,p,n", FALSE_CONVERGENCE)
    def test_basis_values_match_tform(self, qm_approx, gbar, p, n):
        spec = qm_approx.basis_spec(p, n)
        want = basis_integral_tform(spec, gbar)
        assert basis_integral(spec, gbar) == pytest.approx(want, rel=1e-10)
        assert qm_approx.basis_value(p, n, gbar) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("gbar", [gbar for gbar, _, _ in FALSE_CONVERGENCE])
    def test_resum_matches_tform_recombination(self, qm_approx, gbar):
        tform = {key: basis_integral_tform(qm_approx.basis_spec(*key), gbar)
                 for key, coeff in qm_approx.a.items() if coeff}
        for y in (-2.0, 1.0, 3.0):
            want = sum(float(qm_approx.a[key]) * value * y ** key[1]
                       for key, value in tform.items())
            assert qm_approx.resum(gbar, y) == pytest.approx(want, rel=1e-8)


def test_cache_keyed_by_quadrature_spec():
    # a loose evaluation must not be served to a later tight one at the same g
    mc = ModelCoefficients.build(8)
    params = model_large_order_params()
    tight = QuadratureSpec(1e-14, 1e-14, 14)
    approx = build_approximant(mc.table, 8, params)
    approx.resum(1.0, 0.5, QuadratureSpec(abs_tol=1e-3, rel_tol=1e-3))
    got = approx.resum(1.0, 0.5, tight)
    assert got == build_approximant(mc.table, 8, params).resum(1.0, 0.5, tight)
    assert got == pytest.approx(0.5677730315808759, rel=1e-12)


def test_cache_keeps_latest_coupling_only():
    # a scan over couplings leaves one basis vector, and a repeat at the latest
    # coupling is served from it
    approx = build_approximant(ModelCoefficients.build(4).table, 4, model_large_order_params())
    for g in ((i + 1) / 10 for i in range(20)):
        approx.resum(g, 0.5)
    assert len(approx._cache) == 1
    values = approx.basis_values(2.0)
    assert approx.basis_values(2.0) is values
    assert list(approx._cache) == [(2.0, DEFAULT_SPEC)]
