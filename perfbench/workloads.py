"""The benchmark's four workloads: seeded inputs, items and correctness gates.

A workload builds its state in ``setup`` (timed as set-up) and then yields
*passes*: fixed-size lists of items drawn from a ``random.Random`` seeded by
the workload name, the run seed and the pass index.  Each pass has the same
composition of input sizes, so one pass costs about the same whatever the
seed; the seed changes the concrete inputs and their order.

An item is one unit of user-visible work.  ``run`` is timed; ``check`` runs
after the timer stops, raises :class:`GateError` when the output is wrong and
otherwise returns a short deterministic summary of the output, from which the
run's output digest is formed.

Every workload calls ``anires`` through the module objects in ``api``, at
call time, so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from fractions import Fraction
from typing import Callable, List, NamedTuple

# Relative tolerance between ``resum`` and the t-form oracle.  Both sides run
# adaptive quadrature with a 1e-10 relative target; the worst difference seen
# over 200 couplings was 7e-11.
RESUM_RTOL = 1e-8
# Cross-check of z_reference against the order-12 model resummation, whose
# truncation error is the worst difference seen over 200 couplings: 6e-4, at
# strong coupling.  The gate catches gross errors such as a wrong coupling
# convention, not small ones.
ZREF_RTOL = 1e-2
# Stationarity of the chosen Omega: |dW/dOmega| (extremum) or |d2W/dOmega2|
# (turning point), evaluated exactly, over its term-magnitude sum.  These are
# the bounds optimize_omega asserts in floats; the observed worst is 5e-13.
STATIONARY_RTOL = {"extremum": 1e-10, "turning_point": 1e-8}
# Float fields of a figure CSV may differ from the reference by this much
# (relative); every other field, the header and the row count are exact.
FIGURE_RTOL = 1e-8

FIGURES = ("fig1", "fig2a", "fig2b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")


class GateError(Exception):
    """An item's output failed its workload's correctness gate."""


class Item(NamedTuple):
    label: str  # the item's inputs, exactly
    run: Callable[[], object]
    check: Callable[[object], str]


# ---------------------------------------------------------------- digests


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def table_digest(table) -> str:
    """Digest of a CoefficientTable: every exact entry, in key order."""
    return _sha(f"{k},{n},{v.numerator},{v.denominator}" for (k, n), v in table.items())


def wavefunction_digest(A) -> str:
    """Digest of the Bender-Wu coefficient dict A[(i, j, k, n)]."""
    return _sha(f"{key},{A[key].numerator},{A[key].denominator}" for key in sorted(A))


def triangle_digest(approx) -> str:
    """Digest of an approximant's exact a_pn triangle."""
    return _sha(f"{p},{n},{v.numerator},{v.denominator}" for (p, n), v in sorted(approx.a.items()))


def _expect(refs, key, got) -> str:
    if refs.get(key) != got:
        raise GateError(f"{key}: digest {got[:16]} != reference {str(refs.get(key))[:16]}")
    return f"{key}={got[:16]}"


def _expect_zero_residual(residual) -> str:
    if residual != 0:
        raise GateError(f"reexpansion residual {residual!r} != 0")
    return "residual=0"


class Workload:
    """Defaults: set-up builds nothing beyond the import; one pass at least."""

    min_passes = 1

    def __init__(self, refs, out_dir):
        pass

    def setup(self, api):
        return None


# ---------------------------------------------------------------- exact-tables


class ExactTables(Workload):
    """Seeded exact jobs: Bender-Wu tables, model tables, a_pn triangles and
    reexpansion checks.

    Why: the exact Fraction layer (benderwu, series, the borel triangles and
    the model tables) does almost all the work and there is no quadrature.
    This is where a faster Bender-Wu recursion shows, and where peak RSS
    tracks the size of the recursion's coefficient dict A.

    A pass is four groups, one per table order K in 12..15 (seeded order).
    A group builds the Bender-Wu table of order K, a model table of order Km
    (a seeded permutation of 12..15), the oscillator triangle at N = K with
    sigma 3 or 4 (two groups each, seeded), the model triangle at N = Km, and
    runs the reexpansion check on both triangles.  Tables and triangles are
    checked against digests recorded from the program; residuals must be
    exactly 0.
    """

    name = "exact-tables"
    orders = (12, 13, 14, 15)
    nominal_pass_s = 8.0
    # The p50 falls between two ~30 ms approximant items; a second pass
    # doubles the items it rests on.
    min_passes = 2

    def __init__(self, refs, out_dir):
        self.refs = refs["exact"]

    def pass_items(self, api, state, rng) -> List[Item]:
        refs = self.refs
        ks = rng.sample(self.orders, len(self.orders))
        kms = rng.sample(self.orders, len(self.orders))
        items: List[Item] = []
        sigmas = rng.sample((3, 3, 4, 4), 4)
        for K, Km, sigma in zip(ks, kms, sigmas):
            ctx = {}

            def bw_run(K=K):
                return api.benderwu.build(K)

            def bw_check(state, K=K, ctx=ctx):
                ctx["table"] = state.energy
                return ";".join((
                    _expect(refs, f"benderwu.energy:{K}", table_digest(state.energy)),
                    _expect(refs, f"benderwu.A:{K}", wavefunction_digest(state.A)),
                ))

            def mc_run(Km=Km):
                return api.model.ModelCoefficients.build(Km)

            def mc_check(mc, Km=Km, ctx=ctx):
                ctx["model_table"] = mc.table
                return _expect(refs, f"model:{Km}", table_digest(mc.table))

            def qa_run(K=K, sigma=sigma, ctx=ctx):
                return api.qm.qm_approximant(ctx["table"], K, sigma)

            def qa_check(approx, K=K, sigma=sigma, ctx=ctx):
                ctx["qa"] = approx
                return _expect(refs, f"qm_approximant:{K}:{sigma}", triangle_digest(approx))

            def ma_run(Km=Km, ctx=ctx):
                return api.borel.build_approximant(ctx["model_table"], Km,
                                                   api.model.model_large_order_params())

            def ma_check(approx, Km=Km, ctx=ctx):
                ctx["ma"] = approx
                return _expect(refs, f"model_approximant:{Km}", triangle_digest(approx))

            items += [
                Item(f"benderwu.build kmax={K}", bw_run, bw_check),
                Item(f"ModelCoefficients.build kmax={Km}", mc_run, mc_check),
                Item(f"qm_approximant N={K} sigma={sigma}", qa_run, qa_check),
                Item(f"build_approximant model N={Km}", ma_run, ma_check),
                Item(f"reexpansion_check qm N={K} sigma={sigma}",
                     lambda ctx=ctx: api.borel.reexpansion_check(ctx["qa"]),
                     _expect_zero_residual),
                Item(f"reexpansion_check model N={Km}",
                     lambda ctx=ctx: api.borel.reexpansion_check(ctx["ma"]),
                     _expect_zero_residual),
            ]
        return items


# ---------------------------------------------------------------- resum-cold


def recombine(borel, approx, g: float, y: float):
    """Oracle for ``approx.resum(g, y)``: the public a_pn times basis values
    from the Borel t-integral (``basis_integral_tform``), which shares neither
    the w-form integrand nor the basis cache with ``resum``."""
    total = 0.0
    for n in range(approx.N + 1):
        inner = 0.0
        for p in range(n, approx.N + 1):
            coeff = approx.a[(p, n)]
            if coeff:
                inner += float(coeff) * borel.basis_integral_tform(approx.basis_spec(p, n), g)
        total += inner * y**n
    return total


def _close(got: float, want: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= rtol * abs(want):
        raise GateError(f"{what}: {got!r} vs oracle {want!r} (rtol {rtol:g})")


class ResumCold(Workload):
    """A stream of fresh couplings, each resummed for the oscillator and the
    model and compared with the model's reference integral.

    Why: the basis integrals (quadrature and borel.basis_integral) dominate
    and the exact layer sits idle once set-up is done.  Every coupling is new,
    so every basis integral misses the approximant's cache.  This is where
    faster basis integrals show.

    Set-up builds the order-12 Bender-Wu table, the N = 12 oscillator
    approximant (sigma 3), the order-12 model table and the N = 12 model
    approximant.  A pass is 20 couplings gbar = g/4, one from each of 20
    equal strata of log gbar over [0.02, 5], at an anisotropy d uniform in
    [-1, 3/2].  One item evaluates qm resum(gbar, 2d), model resum(4 gbar, d)
    and z_reference(4 gbar, d).
    """

    name = "resum-cold"
    per_pass = 20
    lo, hi = math.log(0.02), math.log(5.0)
    nominal_pass_s = 1.6

    def setup(self, api):
        table = api.benderwu.build(12).energy
        qa = api.qm.qm_approximant(table, 12)
        mc = api.model.ModelCoefficients.build(12)
        ma = api.borel.build_approximant(mc.table, 12, api.model.model_large_order_params())
        return qa, ma

    def pass_items(self, api, state, rng) -> List[Item]:
        qa, ma = state
        width = (self.hi - self.lo) / self.per_pass
        strata = rng.sample(range(self.per_pass), self.per_pass)
        items = []
        for i in strata:
            gbar = math.exp(self.lo + (i + rng.random()) * width)
            d = rng.uniform(-1.0, 1.5)

            def run(gbar=gbar, d=d):
                return (qa.resum(gbar, 2.0 * d), ma.resum(4.0 * gbar, d),
                        api.model.z_reference(4.0 * gbar, d))

            def check(out, gbar=gbar, d=d):
                e, z, zr = out
                _close(e, recombine(api.borel, qa, gbar, 2.0 * d), RESUM_RTOL, "qm resum")
                z_oracle = recombine(api.borel, ma, 4.0 * gbar, d)
                _close(z, z_oracle, RESUM_RTOL, "model resum")
                _close(zr, z_oracle, ZREF_RTOL, "z_reference")
                return f"{e!r},{z!r},{zr!r}"

            items.append(Item(f"resum gbar={gbar!r} d={d!r}", run, check))
        return items


# ---------------------------------------------------------------- vpt-scan


def check_stationary(vpt, table, result, k, gbar, d, every=False) -> str:
    """Re-check a ``vpt_energy`` result from outside, in exact arithmetic:
    the chosen candidate (every candidate if ``every``) must be a stationary
    point of W_k and carry W_k's value there."""
    if not result.candidates:
        raise GateError("empty candidate list")
    values = [c.w_value for c in result.candidates]
    if result.selection == "min_w" and values[result.chosen] != min(values):
        raise GateError(f"chosen W {values[result.chosen]!r} is not the lowest of {values}")
    W = vpt.w_laurent(table, k, gbar, d)
    for cand in result.candidates if every else [result.candidates[result.chosen]]:
        omega = Fraction(cand.omega)
        D = W.derivative()
        if cand.kind == "turning_point":
            D = D.derivative()
        scale = sum(abs(c) * omega**p for p, c in D.terms.items())
        ratio = abs(D.evaluate_exact(omega)) / scale
        if ratio > STATIONARY_RTOL[cand.kind]:
            raise GateError(f"{cand.kind} at Omega={cand.omega!r} is off stationarity: "
                            f"residual/scale {float(ratio):.3e}")
        w_scale = sum(abs(c) * omega**p for p, c in W.terms.items())
        if abs(W.evaluate_exact(omega) - Fraction(cand.w_value)) > Fraction(1, 10**12) * w_scale:
            raise GateError(f"W({cand.omega!r}) = {cand.w_value!r} disagrees with exact W")
    return ",".join(f"{c.kind}:{c.omega!r}:{c.w_value!r}" for c in result.candidates)


class VptScan(Workload):
    """Seeded variational solves over orders k = 1..12.

    Why: vpt.w_laurent and optimize_omega dominate and there is no
    quadrature.  This is where a change to the stationary-point search shows.
    Each pass also solves the near-degenerate cell of acceptance criterion 02
    (gbar = 1/10, k = 11, d = 1/2), where a root-isolation change must not
    lose one of its three candidates.

    Set-up builds the order-12 Bender-Wu table.  A pass is one solve at every
    k = 1..12, with gbar drawn from {1/50, 2/50, .., 2} and d from
    {-3/2, -29/20, .., 2}, plus the criterion-02 cell, in seeded order.  The
    gate re-evaluates dW/dOmega (d2W/dOmega2 for turning points) exactly at
    the chosen Omega, and on the criterion-02 cell at every candidate, of
    which there must be at least three; it does not judge which candidate
    the selection rule picks there.
    """

    name = "vpt-scan"
    nominal_pass_s = 0.2
    CRITERION_02 = (11, Fraction(1, 10), Fraction(1, 2))

    def setup(self, api):
        return api.benderwu.build(12).energy

    def pass_items(self, api, table, rng) -> List[Item]:
        cells = [(k, Fraction(rng.randint(1, 100), 50), Fraction(rng.randint(-30, 40), 20))
                 for k in range(1, 13)]
        cells.append(self.CRITERION_02)
        rng.shuffle(cells)
        items = []
        for k, gbar, d in cells:
            def run(k=k, gbar=gbar, d=d):
                return api.vpt.vpt_energy(table, k, gbar, d)

            def check(result, k=k, gbar=gbar, d=d):
                special = (k, gbar, d) == self.CRITERION_02
                summary = check_stationary(api.vpt, table, result, k, gbar, d, every=special)
                if special and len(result.candidates) < 3:
                    raise GateError(f"criterion-02 cell lost candidates: {summary}")
                return summary

            items.append(Item(f"vpt_energy k={k} gbar={gbar} d={d}", run, check))
        return items


# ---------------------------------------------------------------- paper-figures


def _is_float(text: str) -> bool:
    if not any(ch in text for ch in ".eEn"):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def compare_csv(got: bytes, want: bytes, rtol: float = FIGURE_RTOL) -> None:
    """Raise GateError unless ``got`` matches ``want``: float fields within
    ``rtol`` (relative), every other field, the header and the shape exactly."""
    if got == want:
        return
    got_rows = list(csv.reader(io.StringIO(got.decode("utf-8", "replace"))))
    want_rows = list(csv.reader(io.StringIO(want.decode("utf-8"))))
    if len(got_rows) != len(want_rows):
        raise GateError(f"{len(got_rows)} rows, reference has {len(want_rows)}")
    for r, (grow, wrow) in enumerate(zip(got_rows, want_rows)):
        if len(grow) != len(wrow):
            raise GateError(f"row {r}: {len(grow)} fields, reference has {len(wrow)}")
        for c, (a, b) in enumerate(zip(grow, wrow)):
            if a == b:
                continue
            if r and _is_float(a) and _is_float(b):
                x, y = float(a), float(b)
                if abs(x - y) <= rtol * max(abs(x), abs(y)):
                    continue
            raise GateError(f"row {r} field {c}: {a!r} != reference {b!r}")


class PaperFigures(Workload):
    """The data files of figures 1-9, through the command line, in-process.

    Why: this is what a user runs to reproduce the paper and the only
    workload that covers the cli layer.  It is also the only one on the warm
    resum path: each coupling is followed by 36 anisotropy points that hit the
    basis cache, so a change that speeds up cold resummation but slows cache
    hits shows here.

    A pass runs ``anires figures --which F --out FILE`` for all nine figures
    with default flags; the seed only permutes the order.  Each CSV is
    compared with the reference recorded from the program (see compare_csv);
    ``--raw-g`` is never passed (see NOTES.md).
    """

    name = "paper-figures"
    nominal_pass_s = 8.0
    # With two passes the p50 is the mean of the two fig4 runs and the p90
    # lies among the four long figures, whatever the seed.
    min_passes = 2

    def __init__(self, refs, out_dir):
        self.refs = refs["figures"]
        self.out_dir = out_dir
        self.byte_identical = 0

    def pass_items(self, api, state, rng) -> List[Item]:
        items = []
        for fig in rng.sample(FIGURES, len(FIGURES)):
            path = os.path.join(self.out_dir, f"{fig}.csv")

            def run(fig=fig, path=path):
                diagnostics = io.StringIO()
                with contextlib.redirect_stderr(diagnostics):
                    rc = api.cli.main(["figures", "--which", fig, "--out", path])
                return rc, diagnostics.getvalue()

            def check(out, fig=fig, path=path):
                rc, diagnostics = out
                if rc != 0:
                    raise GateError(f"exit status {rc}: {diagnostics.strip()}")
                with open(path, "rb") as fh:
                    got = fh.read()
                compare_csv(got, self.refs[fig])
                self.byte_identical += got == self.refs[fig]
                return f"{fig}={hashlib.sha256(got).hexdigest()[:16]}"

            items.append(Item(f"figures --which {fig}", run, check))
        return items


WORKLOADS = {w.name: w for w in (ExactTables, ResumCold, VptScan, PaperFigures)}
