"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from fractions import Fraction

from anires import (
    ModelCoefficients,
    QuadratureSpec,
    benderwu_build,
    build_approximant,
    local_exponent,
    model_large_order_params,
    qm_approximant,
    reexpansion_check,
    vpt_energy,
    z_coeff,
    z_coeff_delta_scaled,
    z_reference,
)
from anires.series import log_abs_fraction

from fixtures_tables import TABLE1_EXACT, TABLE2, printed_tolerance
from paper_formulas import gamma_n, large_order_estimate, strong_coupling_kappa

QUAD = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_refinements=12)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_table1_exactness(bw_state):
    """All 91 rational energy coefficients reproduced exactly, <= 10 s."""
    start = time.perf_counter()
    state = benderwu_build(12)
    elapsed = time.perf_counter() - start
    mismatches = [
        key for key, expected in TABLE1_EXACT.items()
        if state.energy.entry(*key) != expected
    ]
    ok = not mismatches and len(state.energy) == 91 and elapsed <= 10.0
    report(1, ok, f"91 exact entries, build time {elapsed:.2f} s (limit 10 s), "
                  f"mismatches: {mismatches}")
    assert not mismatches
    assert len(state.energy) == 91
    assert elapsed <= 10.0


def test_criterion_02_table2_reproduction(qm_table):
    """Variational energies match the printed table cellwise; <= 30 s.

    Tolerance: +-2 units in the last printed digit for k >= 3, 1e-2 absolute
    for k = 1.  Known irreducible defect: the printed reference at
    (gbar=0.1, k=11, d=0.5) equals the *other* near-degenerate stationary
    candidate (the one an independent diagonalization favours, 1.1347388);
    no single selection rule reproduces all 60 printed cells, so this cell
    fails by 0.17 units under the default deepest-candidate rule and the
    criterion is reported honestly as not fully attainable.
    """
    start = time.perf_counter()
    failures = []
    for gbar_s, rows in TABLE2.items():
        for k, cols in rows.items():
            for delta_s, printed in cols.items():
                res = vpt_energy(qm_table, k, Fraction(gbar_s), Fraction(delta_s))
                tol = 1e-2 if k == 1 else printed_tolerance(printed)
                err = abs(res.energy - float(printed))
                if err > tol:
                    failures.append(
                        f"(gbar={gbar_s}, k={k}, d={delta_s}): got {res.energy:.7f}, "
                        f"printed {printed}, |err|={err:.2e} > tol {tol:.0e}; "
                        f"candidates={[round(c.w_value, 7) for c in res.candidates]}"
                    )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 30.0
    report(2, ok, f"60 cells in {elapsed:.1f} s (limit 30 s); failures: "
                  f"{failures if failures else 'none'}")
    assert elapsed <= 30.0
    assert not failures, failures


def test_criterion_03_model_sparsity():
    """a_pn vanishes exactly off the diagonal up to N=12; a_nn closed form."""
    mc = ModelCoefficients.build(12)
    approx = build_approximant(mc.table, 12, model_large_order_params())
    bad = []
    for n in range(13):
        expected = Fraction(n + 1, 2 * n + 1) * math.comb(2 * n, n) / Fraction(8**n)
        if approx.a[(n, n)] != expected:
            bad.append(("diag", n))
        for p in range(n + 1, 13):
            if approx.a[(p, n)] != 0:
                bad.append((p, n))
    report(3, not bad, f"exact sparsity and diagonal values to N=12; bad: {bad}")
    assert not bad


def test_criterion_04_crossover():
    """delta=1e-2 crossover: slopes near -1/2 then -1, k_cross in [33,300], <=5 s."""
    start = time.perf_counter()
    ks = [2**j for j in range(4, 13)]  # 16 .. 4096
    column = [z_coeff_delta_scaled(k, 1e-2) for k in ks]
    rep = local_exponent(column, 4.0, ks)
    elapsed = time.perf_counter() - start
    early = rep.beta_local[0]  # slope on [16, 32]
    late = rep.beta_local[-1]  # slope on [2048, 4096]
    ok = (
        abs(early + 0.5) <= 0.07
        and abs(late + 1.0) <= 0.07
        and rep.k_cross is not None
        and 33 <= rep.k_cross <= 300
        and elapsed <= 5.0
    )
    report(4, ok, f"slope[16,32]={early:+.3f} (want -0.5+-0.07), "
                  f"slope[2048,4096]={late:+.3f} (want -1.0+-0.07), "
                  f"k_cross={rep.k_cross} (want [33,300]), {elapsed:.2f} s (limit 5 s)")
    assert abs(early + 0.5) <= 0.07
    assert abs(late + 1.0) <= 0.07
    assert rep.k_cross is not None and 33 <= rep.k_cross <= 300
    assert elapsed <= 5.0


def test_criterion_05_model_resummation_accuracy():
    """g/4=0.25, N=8: |Z^(8)-Z_ref| <= 1e-2 on [-1,1.5], <= 1e-3 at d=0;
    the quadrature reference is itself validated to 1e-9 by refinement."""
    g = 1.0
    mc = ModelCoefficients.build(8)
    approx = build_approximant(mc.table, 8, model_large_order_params())
    grid = [round(-1.0 + 0.1 * i, 10) for i in range(26)]
    worst = 0.0
    worst_d = None
    for d in grid:
        err = abs(approx.resum(g, d, QUAD) - z_reference(g, d, QUAD))
        if err > worst:
            worst, worst_d = err, d
    err0 = abs(approx.resum(g, 0.0, QUAD) - z_reference(g, 0.0, QUAD))
    # refinement validation of the reference integral itself
    loose = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9, max_refinements=10)
    tight = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13, max_refinements=13)
    ref_dev = max(
        abs(z_reference(g, d, loose) - z_reference(g, d, tight))
        for d in (-1.0, 0.0, 0.75, 1.5)
    )
    ok = worst <= 1e-2 and err0 <= 1e-3 and ref_dev <= 1e-9
    report(5, ok, f"max|Z8-ref|={worst:.2e} at d={worst_d} (limit 1e-2), "
                  f"|err(d=0)|={err0:.1e} (limit 1e-3), reference refinement "
                  f"deviation {ref_dev:.1e} (limit 1e-9)")
    assert worst <= 1e-2
    assert err0 <= 1e-3
    assert ref_dev <= 1e-9


def test_criterion_06_large_order_ratios(qm_table):
    """Model ratio 4(k+1) at k=200 within 1e-2; oscillator ratio 37.546."""
    k = 200
    model_ratio = abs(z_coeff(k + 1, 0) / z_coeff(k, 0)) / (4 * (k + 1))
    qm_ratio = abs(qm_table.entry(12, 0) / qm_table.entry(11, 0))
    exact = Fraction(179761724871375777, 512) / (Fraction(1196938085820951, 128))
    ok = (
        abs(float(model_ratio) - 1.0) <= 1e-2
        and qm_ratio == abs(exact)
        and round(float(qm_ratio), 3) == 37.546
        and abs(float(qm_ratio) / 36.0 - 1.0) <= 0.05
    )
    report(6, ok, f"model |Z_201/Z_200|/(4*201)={float(model_ratio):.5f} (1+-1e-2), "
                  f"|E_12,0/E_11,0|={float(qm_ratio):.3f} exact rational, "
                  f"vs 3*12: {abs(float(qm_ratio)/36.0-1.0)*100:.1f}% (limit 5%)")
    assert abs(float(model_ratio) - 1.0) <= 1e-2
    assert qm_ratio == abs(exact)
    assert round(float(qm_ratio), 3) == 37.546
    assert abs(float(qm_ratio) / 36.0 - 1.0) <= 0.05


def test_criterion_07_reexpansion_identity(qm_table):
    """Exact zero reexpansion residual for model and oscillator at N=12."""
    mc = ModelCoefficients.build(12)
    res_model = reexpansion_check(
        build_approximant(mc.table, 12, model_large_order_params())
    )
    res_qm = reexpansion_check(qm_approximant(qm_table, 12))
    ok = res_model == 0 and res_qm == 0
    report(7, ok, f"model residual={res_model!r}, oscillator residual={res_qm!r} "
                  f"(both must be exactly 0)")
    assert res_model == 0
    assert res_qm == 0


def test_criterion_08_dispersion_asymptotics_consistency():
    """z_coeff(k,n)/estimate in [1-3/k, 1+3/k] for n <= 2, k in [100,400]."""
    worst_margin = math.inf
    worst_at = None
    ok = True
    for n in range(3):
        for k in range(100, 401, 10):
            est = large_order_estimate(model_large_order_params(), gamma_n(n), k, n)
            exact = z_coeff(k, n)
            ratio = math.exp(log_abs_fraction(exact) - est.ln)
            lo, hi = 1.0 - 3.0 / k, 1.0 + 3.0 / k
            margin = min(ratio - lo, hi - ratio)
            if margin < worst_margin:
                worst_margin, worst_at = margin, (k, n, ratio)
            if not lo <= ratio <= hi:
                ok = False
    report(8, ok, f"all ratios inside [1-3/k, 1+3/k]; tightest point "
                  f"(k,n,ratio)={worst_at}, margin {worst_margin:.2e}")
    assert ok


def test_criterion_09_strong_coupling():
    """sqrt(g) Z(g,d) at g=1e4 matches kappa(d, 100 terms) within 1%."""
    g = 1e4
    details = []
    ok = True
    for d in (-1.0, 0.0, 1.0):
        kappa, _ = strong_coupling_kappa(d, 100)
        lhs = math.sqrt(g) * z_reference(g, d, QUAD)
        rel = abs(lhs / kappa - 1.0)
        details.append(f"d={d:+.0f}: rel dev {rel:.2e}")
        ok = ok and rel <= 0.01
    report(9, ok, "; ".join(details) + " (limit 1e-2 each)")
    assert ok


def test_criterion_10_qm_resummation_vs_vpt(qm_table):
    """N=6 resummed energy within 0.8% of the variational baseline at
    gbar=0.1 over d in [-0.5, 2]; gbar=1.0 errors pointwise larger."""
    approx = qm_approximant(qm_table, 6)
    grid = [round(-0.5 + 0.25 * i, 10) for i in range(11)]
    rel01 = []
    rel10 = []
    for d in grid:
        base01 = vpt_energy(qm_table, 11, Fraction(1, 10), Fraction(d).limit_denominator(10**6)).energy
        base10 = vpt_energy(qm_table, 11, Fraction(1), Fraction(d).limit_denominator(10**6)).energy
        rel01.append(abs(approx.resum(0.1, 2.0 * d, QUAD) - base01) / base01)
        rel10.append(abs(approx.resum(1.0, 2.0 * d, QUAD) - base10) / base10)
    worst01 = max(rel01)
    pointwise = all(e10 > e01 for e01, e10 in zip(rel01, rel10))
    ok = worst01 <= 0.008 and pointwise
    report(10, ok, f"max rel err at gbar=0.1: {worst01:.2e} (limit 8e-3); "
                   f"gbar=1.0 errors larger pointwise: {pointwise}")
    assert worst01 <= 0.008
    assert pointwise
