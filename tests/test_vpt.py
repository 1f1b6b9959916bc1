import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from anires import (
    CoefficientTable,
    LaurentInOmega,
    generalized_binomial,
    optimize_omega,
    vpt_energy,
    w_laurent,
)
from anires import vpt
from anires.vpt import _positive_roots, _shape

from fixtures_tables import DIAG_TRUTH, TABLE2, printed_tolerance
from paper_formulas import positive_roots_bisection, reexpansion_coefficients, w_laurent_terms


class TestReexpansionCoefficients:
    def test_eps0(self, qm_table):
        assert reexpansion_coefficients(qm_table, 0, Fraction(1, 2)) == [Fraction(1)]

    def test_eps1_general_delta(self, qm_table):
        # eps_1 = (E_10 + 2d E_11) + (1/2)(2 rho Omega)
        d = Fraction(3, 5)
        coeffs = reexpansion_coefficients(qm_table, 1, d)
        assert coeffs[0] == 2 + 2 * d * Fraction(-1, 4)
        assert coeffs[1] == Fraction(1, 2)

    def test_eps2_constant_term(self, qm_table):
        # (2 rho Omega)^0 part at general d: E_20 + 2d E_21 + (2d)^2 E_22
        d = Fraction(1, 3)
        coeffs = reexpansion_coefficients(qm_table, 2, d)
        expected = (
            Fraction(-9) + 2 * d * Fraction(9, 4) + (2 * d) ** 2 * Fraction(-3, 16)
        )
        assert coeffs[0] == expected

    def test_range_error(self, qm_table):
        with pytest.raises(ValueError):
            reexpansion_coefficients(qm_table, 13, 0)


class TestWLaurent:
    def test_k0_is_omega(self, qm_table):
        W = w_laurent(qm_table, 0, Fraction(1, 10), Fraction(1, 2))
        assert W.terms == {1: Fraction(1)}

    def test_k1_structure(self, qm_table):
        # W_1 = Omega + (1 - Omega^2)/(2 Omega) + (E_10 + 2d E_11) gbar / Omega^2
        gbar, d = Fraction(1, 10), Fraction(1, 2)
        W = w_laurent(qm_table, 1, gbar, d)
        c = (2 + 2 * d * Fraction(-1, 4)) * gbar  # 0.175
        assert W.terms[-2] == c
        assert W.terms[-1] == Fraction(1, 2)
        assert W.terms[1] == 1 - Fraction(1, 2)  # Omega - Omega/2
        assert set(W.terms) == {-2, -1, 1}

    def test_k1_at_omega_one_delta_zero(self, qm_table):
        # rho vanishes at Omega = omega = 1: W_1 = 1 + 2 gbar exactly
        for gbar in (Fraction(1, 10), Fraction(2, 7)):
            W = w_laurent(qm_table, 1, gbar, 0)
            assert W.evaluate_exact(Fraction(1)) == 1 + 2 * gbar

    def test_power_range(self, qm_table):
        W = w_laurent(qm_table, 5, Fraction(1, 10), Fraction(1, 2))
        assert min(W.terms) >= 1 - 3 * 5
        assert max(W.terms) <= 1

    def test_isotropy_reduction(self, qm_table):
        # at d = 0 only the n = 0 column contributes: poisoning n >= 1
        # entries leaves the Laurent object exactly unchanged
        entries = {kn: v for kn, v in qm_table.items() if kn[0] <= 5}
        poisoned_entries = {
            kn: (v + 99 if kn[1] >= 1 else v) for kn, v in entries.items()
        }
        t0 = CoefficientTable(entries, 5)
        t1 = CoefficientTable(poisoned_entries, 5)
        assert w_laurent(t0, 5, Fraction(1, 10), 0).terms == w_laurent(
            t1, 5, Fraction(1, 10), 0
        ).terms

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "inf", "1/0"])
    def test_non_finite_input_names_the_argument(self, qm_table, bad):
        for call in (w_laurent, vpt_energy):
            with pytest.raises(ValueError, match="g_over_4 must be a finite rational"):
                call(qm_table, 3, bad, Fraction(1, 2))
            with pytest.raises(ValueError, match="delta must be a finite rational"):
                call(qm_table, 3, Fraction(1, 10), bad)


def _fractions_made(monkeypatch, call):
    """The number of Fractions constructed while call() runs."""
    new, made = Fraction.__new__, []
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__",
                      lambda cls, *args, **kwargs: made.append(args) or new(cls, *args, **kwargs))
        call()
    return len(made)


class TestFractionCount:
    """W_k is summed in ints: its Fractions are formed only per power, when
    terms is read, not per product (430 at k = 11 when every product was a
    Fraction)."""

    def test_counts_at_the_criterion_02_cell(self, qm_table, monkeypatch):
        k, gbar, d = 11, Fraction(1, 10), Fraction(1, 2)
        vpt_energy(qm_table, k, gbar, d)  # the shape polynomials are cached
        bound = 2 * (3 * k + 2)  # W_k has at most 3k + 1 powers
        assert _fractions_made(monkeypatch, lambda: w_laurent(qm_table, k, gbar, d).terms) <= bound
        assert _fractions_made(monkeypatch, lambda: vpt_energy(qm_table, k, gbar, d)) <= bound
        W = w_laurent(qm_table, k, gbar, d)
        assert _fractions_made(monkeypatch, lambda: W.terms) == len(W.numerators) <= 3 * k + 1


class TestRegroupedAssembly:
    """w_laurent regroups the (l, j, s) sum over eps_l by j; nothing may change."""

    def test_equals_eps_sum_on_grid(self, qm_table):
        # key order included, since LaurentInOmega.evaluate sums in dict order;
        # d = 4 is a root of E_1(d) = 2 - d/2
        cells = [(k, gbar, d) for k in range(13)
                 for gbar in (Fraction(1, 50), Fraction(1, 10), 1, 2)
                 for d in (Fraction(-3, 2), Fraction(-3, 5), 0, Fraction(1, 3), 2, 4)]
        cells.append((11, Fraction(1, 10), Fraction(1, 2)))  # the criterion-02 cell
        # the integer path's edges: a large, a non-dyadic and a tiny coupling;
        # 2d = 0, E_1(d) = 0, a non-dyadic and a negative anisotropy
        cells += [(k, gbar, d) for k in range(13)
                  for gbar in (150000, Fraction(7, 3), Fraction(1, 10**6))
                  for d in (0, 4, Fraction(22, 7), Fraction(-3, 2))]
        for k, gbar, d in cells:
            expected = list(w_laurent_terms(qm_table, k, gbar, d).items())
            assert list(w_laurent(qm_table, k, gbar, d).terms.items()) == expected, (k, gbar, d)

    @pytest.mark.parametrize("d", [Fraction(-3, 5), 0, Fraction(1, 2)])
    def test_equals_eps_sum_at_k20(self, bw_state_20, d):
        table = bw_state_20.energy
        expected = list(w_laurent_terms(table, 20, Fraction(1, 10), d).items())
        assert list(w_laurent(table, 20, Fraction(1, 10), d).terms.items()) == expected

    def test_vanishing_slice_keeps_insertion_order(self, qm_table):
        # with E_2 = 0 the power -7 first appears after -8, as in the eps_l sum
        entries = {kn: (Fraction(0) if kn[0] == 2 else v)
                   for kn, v in qm_table.items() if kn[0] <= 6}
        table = CoefficientTable(entries, 6)
        for k in range(7):
            expected = list(w_laurent_terms(table, k, Fraction(1, 10), Fraction(1, 2)).items())
            assert list(w_laurent(table, k, Fraction(1, 10), Fraction(1, 2)).terms.items()) \
                == expected, k
        keys = list(w_laurent(table, 4, Fraction(1, 10), Fraction(1, 2)).terms)
        assert keys.index(-8) < keys.index(-7)

    def test_derivative_multiplies_by_the_power(self, qm_table):
        # value and key order; the power 0 term drops out
        W = w_laurent(qm_table, 11, Fraction(1, 10), Fraction(1, 2))
        given = LaurentInOmega({2: 189, 0: 45, -1: -28, -3: 378}, 63)  # 3, 5/7, -4/9, 6
        for fn in (W, W.derivative(), given):
            expected = [(p - 1, c * p) for p, c in fn.terms.items() if p != 0]
            assert list(fn.derivative().terms.items()) == expected
        assert 1 in W.terms and 0 in W.derivative().terms and 0 in given.terms

    def test_lowest_terms(self):
        # one common denominator, reduced, so equal polynomials compare equal
        fn = LaurentInOmega({1: 4, 0: 0, -2: 10}, 6)
        assert (fn.numerators, fn.denominator) == ({1: 2, 0: 0, -2: 5}, 3)
        assert fn == LaurentInOmega({1: 2, 0: 0, -2: 5}, 3)
        assert list(fn.terms.items()) == [(1, Fraction(2, 3)), (0, 0), (-2, Fraction(5, 3))]
        with pytest.raises(ValueError, match="positive"):
            LaurentInOmega({1: 1}, 0)

    def test_shape_polynomials(self):
        # S_{j,T}(x) = sum_t C((1-3j)/2, t) (x - 1)^t, coefficient of x^s,
        # held as integer numerators over one denominator
        for j in range(13):
            for T in range(13 - j):
                a = Fraction(1 - 3 * j, 2)
                numerators, denominator = _shape(j, T)
                assert tuple(Fraction(c, denominator) for c in numerators) == tuple(
                    sum(generalized_binomial(a, t) * math.comb(t, s) * (-1) ** (t - s)
                        for t in range(s, T + 1))
                    for s in range(T + 1)), (j, T)


class TestOptimizeOmega:
    def test_w1_unique_extremum_polynomial_root(self, qm_table):
        # stationarity of W_1 at gbar=0.1, d=0.5 is Omega^3 - Omega - 0.7 = 0
        W = w_laurent(qm_table, 1, Fraction(1, 10), Fraction(1, 2))
        res = optimize_omega(W, 1)
        assert len(res.candidates) == 1
        root = res.omega
        assert root**3 - root - 0.7 == pytest.approx(0.0, abs=1e-10)
        assert res.kind == "extremum"

    def test_odd_k_always_extremum(self, qm_table):
        for k in (1, 3, 5, 7, 9, 11):
            res = vpt_energy(qm_table, k, Fraction(1, 10), Fraction(1, 2))
            assert res.kind == "extremum"

    def test_k2_turning_point(self, qm_table):
        # no extremum exists at second order; the turning point is used
        res = vpt_energy(qm_table, 2, Fraction(1, 10), Fraction(1, 2))
        assert res.kind == "turning_point"
        assert len(res.candidates) == 1

    def test_higher_even_k_flat_extremum_pairs(self, qm_table):
        # beyond k = 2 the plateau develops genuine shallow max/min pairs
        # (verified in exact arithmetic); they bracket the converged value
        for k in (4, 6):
            res = vpt_energy(qm_table, k, Fraction(1, 10), Fraction(1, 2))
            assert res.kind == "extremum"
            assert len(res.candidates) % 2 == 0
            assert res.energy == pytest.approx(1.13474, abs=2e-4)

    def test_w5_minimum_varies_weakly_with_delta(self, qm_table):
        omegas = [
            vpt_energy(qm_table, 5, Fraction(1, 10), Fraction(ds)).omega
            for ds in ("-3/2", "-1/2", "1/2", "3/2")
        ]
        assert max(omegas) - min(omegas) < 0.5
        assert all(1.0 < om < 2.0 for om in omegas)

    def test_no_stationary_point_raises(self, qm_table):
        # W_0 = Omega has neither a stationary nor a turning point
        W = w_laurent(qm_table, 0, Fraction(1, 10), Fraction(1, 2))
        assert W.terms == {1: Fraction(1)}
        with pytest.raises(RuntimeError, match="no stationary"):
            optimize_omega(W, 0)

    def test_selection_flag(self, qm_table):
        # the near-degenerate high-order case where the two rules differ
        res_w = vpt_energy(qm_table, 9, 1, Fraction(1, 2), selection="min_w")
        res_om = vpt_energy(qm_table, 9, 1, Fraction(1, 2), selection="min_omega")
        assert res_om.omega <= res_w.omega
        assert res_w.energy <= res_om.energy
        assert res_om.chosen == 0

    @pytest.mark.parametrize("found", [[[1.3]], [[], [0.7]]], ids=["extremum", "turning-point"])
    def test_non_root_raises_runtime_error(self, qm_table, monkeypatch, found):
        # the stationarity check holds under python -O as well: no assert
        answers = iter(found)
        monkeypatch.setattr(vpt, "_positive_roots", lambda fn: next(answers))
        W = w_laurent(qm_table, 3, Fraction(1, 10), Fraction(1, 2))
        with pytest.raises(RuntimeError, match="is not a"):
            optimize_omega(W, 3)

    def test_second_derivative_built_only_when_read(self, qm_table, monkeypatch):
        calls = []
        derivative = LaurentInOmega.derivative

        def counted(self):
            calls.append(self)
            return derivative(self)

        monkeypatch.setattr(LaurentInOmega, "derivative", counted)
        optimize_omega(w_laurent(qm_table, 1, Fraction(1, 10), Fraction(1, 2)), 1)
        assert len(calls) == 1  # dW/dOmega has a root
        calls.clear()
        optimize_omega(w_laurent(qm_table, 2, Fraction(1, 10), Fraction(1, 2)), 2)
        assert len(calls) == 2  # the turning-point fallback reads d2W/dOmega2

    def test_float_evaluation_is_per_term(self, qm_table):
        # the cached float coefficients give the sums of the exact terms bit for bit
        W = w_laurent(qm_table, 11, Fraction(1, 10), Fraction(1, 2))
        for fn in (W, W.derivative()):
            for omega in (0.3, 1.1347, 2.5):
                assert fn.evaluate(omega) == sum(float(c) * omega**p for p, c in fn.terms.items())
                assert fn.scale(omega) == sum(abs(float(c)) * omega**p
                                              for p, c in fn.terms.items())

    def test_exact_evaluation_is_the_term_sum(self, qm_table):
        # the integer Horner pass against sum c omega^p in Fractions: seeded
        # random polynomials with all powers negative, all positive or mixed
        # (with gaps), at dyadic and non-dyadic omega
        rng = random.Random(29)
        spans = [(-9, -1), (1, 9), (-7, 6), (0, 0), (-3, 0), (0, 4)]
        cases = [(w_laurent(qm_table, 11, Fraction(1, 10), Fraction(1, 2)), Fraction(1977, 1000))]
        for i in range(1200):
            lo, hi = spans[i % len(spans)]
            powers = [p for p in range(lo, hi + 1) if rng.random() < 0.8] or [lo]
            fn = LaurentInOmega({p: rng.randint(-10**12, 10**12) for p in powers},
                                rng.randint(1, 10**6))
            omega = (Fraction(rng.randint(1, 4000), 2 ** rng.randint(0, 12)) if i % 2
                     else Fraction(rng.randint(1, 4000), rng.randint(1, 4000)))
            cases.append((fn, omega))
        cases.append((LaurentInOmega({}), Fraction(3, 7)))
        for fn, omega in cases:
            got = fn.evaluate_exact(omega)
            assert type(got) is Fraction
            assert got == sum((c * omega**p for p, c in fn.terms.items()), Fraction(0))
        for omega in (Fraction(0), Fraction(-1, 3)):
            with pytest.raises(ValueError, match="Omega > 0"):
                cases[0][0].evaluate_exact(omega)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
    def test_evaluate_names_a_bad_omega(self, qm_table, omega):
        W = w_laurent(qm_table, 3, Fraction(1, 10), Fraction(1, 2))
        with pytest.raises(ValueError, match="finite Omega > 0"):
            W.evaluate(omega)


def _from_roots(roots):
    """W with dW/dOmega = prod (Omega - r) over ``roots``."""
    dw = [Fraction(1)]
    for r in roots:
        dw = [Fraction(0)] + dw
        for i in range(len(dw) - 1):
            dw[i] -= r * dw[i + 1]
    terms = {i + 1: c / (i + 1) for i, c in enumerate(dw) if c}
    den = math.lcm(*(c.denominator for c in terms.values()))
    return LaurentInOmega({p: c.numerator * (den // c.denominator) for p, c in terms.items()}, den)


class TestExactIsolation:
    """Every positive stationary point is found, with no search bracket."""

    def test_close_pair_is_resolved(self, qm_table):
        # the pair at 2.8189 / 2.8733 once fell into a single 400-cell grid cell
        res = vpt_energy(qm_table, 9, Fraction(39, 50), Fraction(-3, 5))
        assert [c.omega for c in res.candidates] == pytest.approx(
            [2.8188964165, 2.8732514065, 3.6702928185], rel=1e-10)
        assert res.omega == pytest.approx(3.6702928185, rel=1e-10)

    def test_every_candidate_is_an_exact_sign_change(self, qm_table):
        # float cancellation once reported a spurious root at 0.98934 here
        W = w_laurent(qm_table, 11, Fraction(1, 1000), 0)
        res = optimize_omega(W, 11)
        assert [c.omega for c in res.candidates] == pytest.approx(
            [1.01114357, 1.01513700, 1.03241954], rel=1e-8)
        d1 = W.derivative()
        for c in res.candidates:
            below = d1.evaluate_exact(Fraction(c.omega) * (1 - Fraction(1, 10**9)))
            above = d1.evaluate_exact(Fraction(c.omega) * (1 + Fraction(1, 10**9)))
            assert below * above < 0, c

    def test_root_far_from_omega_one(self, qm_table):
        # dW_1/dOmega = 0 is Omega^3 - Omega - 8 gbar = 0 at d = 0
        res = vpt_energy(qm_table, 1, 150000, 0)
        assert len(res.candidates) == 1
        assert res.omega**3 - res.omega == pytest.approx(1.2e6, rel=1e-12)

    def test_dyadic_roots_are_exact(self):
        # roots on bisection midpoints are hit exactly and not counted twice
        roots = [Fraction(1, 8), Fraction(3, 4), 1, 2, 16]
        res = optimize_omega(_from_roots(roots), 5)
        assert [c.omega for c in res.candidates] == [float(r) for r in roots]

    @pytest.mark.parametrize("roots", [[1, 1], [Fraction(3, 7), Fraction(3, 7), 2]],
                             ids=["dyadic", "non-dyadic"])
    def test_multiple_root_raises(self, roots):
        with pytest.raises(RuntimeError, match="multiple root"):
            optimize_omega(_from_roots(roots), 3)

    @pytest.mark.parametrize("k, gbar, delta", [(11, Fraction(1, 10), Fraction(1, 2)),
                                                (9, Fraction(39, 50), Fraction(-3, 5))],
                             ids=["criterion-02", "close-pair"])
    def test_against_polyroots(self, qm_table, k, gbar, delta):
        # an independent root finder on Omega^(3k) dW/dOmega in 30-digit arithmetic
        W = w_laurent(qm_table, k, gbar, delta)
        terms = W.derivative().terms
        with mpmath.workdps(30):
            coeffs = [mpmath.mpf(terms.get(p, 0).numerator) / terms.get(p, 0).denominator
                      for p in range(max(terms), min(terms) - 1, -1)]
            roots = mpmath.polyroots(coeffs, maxsteps=50, extraprec=60)
            positive = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-20 and r.real > 0)
        res = optimize_omega(W, k)
        assert len(positive) == 3
        assert [c.omega for c in res.candidates] == pytest.approx(positive, rel=1e-12)


def _refinement_grid():
    """(k, gbar, d) cells for comparing the refinement with the reference."""
    rng = random.Random(16)
    cells = [(k, Fraction(rng.randint(1, 100), 50), Fraction(rng.randint(-30, 40), 20))
             for k in range(1, 13) for _ in range(4)]
    return cells + [(11, Fraction(1, 10), Fraction(1, 2)),   # criterion 02
                    (9, Fraction(39, 50), Fraction(-3, 5)),  # the close pair
                    (1, 150000, 0), (3, 150000, Fraction(1, 2))]


class TestCertifiedRefinement:
    """The Bernstein isolation and the refinement from a float guess return the
    floats of the Taylor-shift isolation and 40-step bisection, bit for bit."""

    def test_bit_identical_to_bisection_oracle(self, qm_table):
        for k, gbar, d in _refinement_grid():
            d1 = w_laurent(qm_table, k, gbar, d).derivative()
            for fn in (d1, d1.derivative()):
                assert _positive_roots(fn) == positive_roots_bisection(fn), (k, gbar, d)

    def test_exact_signs_per_root(self, qm_table, monkeypatch):
        # the side sign of each root comes from its isolating Bernstein piece,
        # so the refinement spends at least one exact sign per root less than
        # the 636 that a separate probe of each root's left end took here
        calls, sign_at = [], vpt._sign_at
        monkeypatch.setattr(vpt, "_sign_at", lambda *args: calls.append(args) or sign_at(*args))
        roots = 0
        for k, gbar, d in _refinement_grid():
            d1 = w_laurent(qm_table, k, gbar, d).derivative()
            roots += len(_positive_roots(d1)) + len(_positive_roots(d1.derivative()))
        assert len(calls) <= 636 - roots

    @pytest.mark.parametrize("roots", [
        [Fraction(7, 5), Fraction(7, 5) * (1 + Fraction(1, 10**11))],
        [Fraction(3, 7) * (1 + i * Fraction(1, 10**11)) for i in range(3)],
        [1 - Fraction(1, 10**11), 1 + Fraction(1, 10**11)],
        # the guess for the upper root of the pair misses by about 2e-8 and
        # gallops to the left end of its interval, the exact root 9/4
        [Fraction(2, 3) * (1 + Fraction(1, 10**11)), Fraction(9, 4),
         Fraction(9, 4) * (1 + Fraction(1, 10**11)), Fraction(31, 6)],
    ], ids=["pair", "triple", "pair-around-1", "pair-at-dyadic"])
    def test_clusters(self, roots):
        # at a relative gap of 1e-11 the float values only carry noise
        fn = _from_roots(roots).derivative()
        found = _positive_roots(fn)
        assert found == positive_roots_bisection(fn)
        assert found == pytest.approx([float(r) for r in roots], rel=1e-12)

    @pytest.mark.parametrize("roots", [
        [1, Fraction(1001, 1000), Fraction(1002, 1000), Fraction(3, 2)],
        [Fraction(3, 4), Fraction(3, 4) + Fraction(1, 10**6), Fraction(3, 4) + Fraction(2, 10**6),
         Fraction(7, 8)],
    ], ids=["at-1", "at-3/4"])
    def test_halving_after_a_midpoint_root(self, roots):
        # the root found at a midpoint is divided out of the right half, which
        # still holds several roots and is halved again
        fn = _from_roots(roots).derivative()
        found = _positive_roots(fn)
        assert found == positive_roots_bisection(fn)
        assert found == pytest.approx([float(r) for r in roots], rel=1e-12)

    @pytest.mark.parametrize("guess", [
        lambda lo, hi: lo, lambda lo, hi: hi, lambda lo, hi: (lo + hi) / 2,
        lambda lo, hi: hi * (1 - 2**-50), lambda lo, hi: 2 * hi + 1,
        # a guess far below the root starts on a grid finer than the root's
        # cell, which then drops bits; one a binade above starts on a coarser
        # grid, which is then halved
        lambda lo, hi: lo / 3 or 1e-300, lambda lo, hi: 2.0 ** math.frexp(hi)[1],
        lambda lo, hi: 2.0 ** math.frexp(hi)[1] * (1 - 2**-53),
        lambda lo, hi: math.nan,
    ], ids=["left-end", "right-end", "midpoint", "below-right-end", "outside",
            "far-below", "binade-above", "below-a-power-of-2", "nan"])
    def test_any_guess_gives_the_same_roots(self, qm_table, monkeypatch, guess):
        # the float guess only decides where the exact search starts
        monkeypatch.setattr(vpt, "_newton", lambda f, lo, hi, s: guess(lo, hi))
        for k, gbar, d in [(11, Fraction(1, 10), Fraction(1, 2)), (9, Fraction(39, 50), Fraction(-3, 5)),
                           (6, Fraction(1, 10), Fraction(1, 2)), (1, 150000, 0)]:
            fn = w_laurent(qm_table, k, gbar, d).derivative()
            assert _positive_roots(fn) == positive_roots_bisection(fn), (k, gbar, d)
        fn = _from_roots([Fraction(1, 8), Fraction(3, 7), 1, Fraction(9, 4)]).derivative()
        assert _positive_roots(fn) == positive_roots_bisection(fn)

    def test_a_root_met_below_the_reference_level(self, monkeypatch):
        # from the guess 2^-20 the search meets the root r = (2^40 + 2^56 - 1)
        # / 2^60 exactly, on a grid 16 levels finer than the one where the
        # bisection stops; the bisection never meets r, and returns the
        # midpoint of its cell instead
        r = Fraction(2**40 + 2**56 - 1, 2**60)
        zeros, sign_at = [], vpt._sign_at
        monkeypatch.setattr(vpt, "_newton", lambda f, lo, hi, s: 2.0**-20)
        monkeypatch.setattr(vpt, "_sign_at", lambda *args: sign_at(*args) or zeros.append(args) or 0)
        fn = _from_roots([r, Fraction(3, 10)]).derivative()
        found = _positive_roots(fn)
        assert zeros and found == positive_roots_bisection(fn)
        assert found[0] != float(r) and found[0] == pytest.approx(float(r), rel=1e-12)


class TestAgainstReferenceTable:
    @pytest.mark.parametrize("gbar_s", ["0.1", "1.0"])
    @pytest.mark.parametrize("delta_s", ["-2.5", "-1.5", "-0.5", "0.5", "1.5"])
    def test_k5_row(self, qm_table, gbar_s, delta_s):
        res = vpt_energy(qm_table, 5, Fraction(gbar_s), Fraction(delta_s))
        printed = TABLE2[gbar_s][5][delta_s]
        assert res.energy == pytest.approx(float(printed), abs=printed_tolerance(printed))

    def test_k1_matches_printed_digits(self, qm_table):
        # the first-order entries follow from the closed-form extremum
        for gbar_s in ("0.1", "1.0"):
            for delta_s, printed in TABLE2[gbar_s][1].items():
                res = vpt_energy(qm_table, 1, Fraction(gbar_s), Fraction(delta_s))
                assert res.energy == pytest.approx(
                    float(printed), abs=printed_tolerance(printed)
                ), (gbar_s, delta_s)

    def test_spot_values(self, qm_table):
        assert vpt_energy(qm_table, 5, Fraction("0.1"), Fraction("0.5")).energy == pytest.approx(
            1.134734, abs=2e-6
        )
        assert vpt_energy(qm_table, 11, Fraction("1.0"), Fraction("-2.5")).energy == pytest.approx(
            1.94118, abs=2e-5
        )
        assert vpt_energy(qm_table, 9, Fraction("0.1"), Fraction("1.5")).energy == pytest.approx(
            1.100604, abs=2e-6
        )

    def test_convergence_plateau(self, qm_table):
        # |W_11 - W_9| <= |W_5 - W_3| cellwise
        for gbar_s in TABLE2:
            for delta_s in TABLE2[gbar_s][3]:
                w = {
                    k: vpt_energy(qm_table, k, Fraction(gbar_s), Fraction(delta_s)).energy
                    for k in (3, 5, 9, 11)
                }
                assert abs(w[11] - w[9]) <= abs(w[5] - w[3]) + 1e-12, (gbar_s, delta_s)

    def test_high_order_tracks_diagonalization(self, qm_table):
        # min_w at k=11 stays within 2e-4 of the independent diagonalization
        # truth on every cell where that truth is frozen
        for (gbar_s, delta_s), truth in DIAG_TRUTH.items():
            res = vpt_energy(qm_table, 11, Fraction(gbar_s), Fraction(delta_s))
            assert res.energy == pytest.approx(truth, abs=2e-4), (gbar_s, delta_s)

    def test_near_degenerate_cells_candidate_structure(self, qm_table):
        # the three known triple-candidate cells: the printed reference value
        # always coincides with one of the stationary candidates
        for gbar_s, k, delta_s in [("1.0", 9, "0.5"), ("1.0", 11, "-0.5"), ("0.1", 11, "0.5")]:
            res = vpt_energy(qm_table, k, Fraction(gbar_s), Fraction(delta_s))
            printed = float(TABLE2[gbar_s][k][delta_s])
            tol = printed_tolerance(TABLE2[gbar_s][k][delta_s])
            assert any(abs(c.w_value - printed) <= tol for c in res.candidates)


def _ground_energy(gbar, d, M):
    """Lowest eigenvalue of H = p^2/2 + r^2/2 + gbar (x^4 + y^4 + 2 (1 - d) x^2 y^2)
    on the even-even products |2a, 2b>, a + b <= M, of oscillator functions of
    frequency Omega = sqrt(1 + 2 gbar)."""
    omega = math.sqrt(1 + 2 * gbar)
    size = 2 * M + 5  # enough for exact x^4 elements between kept states
    lower = np.diag(np.sqrt(np.arange(1, size)), 1)
    x = (lower + lower.T) / math.sqrt(2 * omega)
    x2 = x @ x
    x4 = x2 @ x2
    h = np.diag(omega * (np.arange(size) + 0.5)) + 0.5 * (1 - omega**2) * x2
    even = slice(0, 2 * M + 1, 2)
    h, x2, x4 = h[even, even], x2[even, even], x4[even, even]
    one = np.eye(M + 1)
    H = (np.kron(h, one) + np.kron(one, h)
         + gbar * (np.kron(x4, one) + np.kron(one, x4) + 2 * (1 - d) * np.kron(x2, x2)))
    keep = [a * (M + 1) + b for a in range(M + 1) for b in range(M + 1 - a)]
    return np.linalg.eigvalsh(H[np.ix_(keep, keep)])[0]


class TestDiagonalizationFixture:
    def test_diag_truth_is_reproduced(self):
        for (gbar_s, delta_s), frozen in DIAG_TRUTH.items():
            gbar, d = float(gbar_s), float(delta_s)
            energy = _ground_energy(gbar, d, 24)
            assert abs(_ground_energy(gbar, d, 20) - energy) < 1e-11, (gbar_s, delta_s)
            assert abs(frozen - energy) < 1e-9, (gbar_s, delta_s)
