"""Command-line interface.

Every command writes one deterministic CSV (or JSON) file: rows are emitted
in sorted grid order, and floats are rendered with shortest round-trip repr,
so identical configurations produce byte-identical output.  Couplings are
entered as g/4 (every figure and table is parameterized that way), so
g = 1 is --g4 1/4.

Exit status is 0 only if every requested grid point evaluated successfully;
failures are listed on stderr and flip the status to 1.  A reader that closes
stdout early (`anires ... | head`) also gives status 1, without a traceback.
A malformed flag value (including a --g4 that is not positive, a --g4 or
--delta that floats cannot hold, and a model-crossover --delta of 2 or more or
--kmax below 32, which would leave one grid point and no slope), a
missing required flag (--g4, and one of --delta and --delta-range, where a
command takes them), conflicting flags (--delta together with --delta-range)
and a figures flag that the chosen figure does not read are usage errors
(status 2) before any work starts.  A --sigma that leaves a nonzero a_pn
without a finite nonzero float is a usage error too, found when the
approximant is built and before any row is written.

A figure is one entry of ``_FIGURES``: its runner with the figure's defaults
(delta and kmax of a crossover scan; g/4, sigma and orders of a resummed
figure) and the flags of ``figures`` that it does not read.  The runners
share their rows with the commands: ``_crossover`` with model-crossover,
``_model_row`` with model-eval and model-resum, ``_qm_row`` with qm-resum.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from . import benderwu, model, qm, vpt
from .borel import approximant_to_json, build_approximant
from .quadrature import QuadratureSpec
from .series import CoefficientTable, local_exponent

_CROSSOVER_NOTE = (
    "note: k_cross is the first grid point whose incoming local slope has "
    "crossed -3/4 (midpoint convention of this package)"
)
_K_CROSS = ("stderr gets k_cross, the first point of the grid k = 16, 32, ..., kmax whose "
            "incoming local slope has passed -3/4 (a grid point, not an interpolated crossing)")


def _arg(convert: Callable, expected: str, check: Callable = lambda value: True):
    """An argparse ``type=``: ``convert(text)``, a usage error unless ``check`` holds."""
    def parse(text: str):
        try:
            value = convert(text)
            ok = check(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _finite(value: Fraction) -> bool:
    return math.isfinite(float(value))


_fraction = _arg(Fraction, "a finite exact decimal or fraction", _finite)
_model_delta = _arg(Fraction, "a finite exact decimal or fraction < 2",
                    lambda v: v < 2 and _finite(v))
_sigma = _arg(Fraction, "an exact decimal or fraction that is a finite positive float",
              lambda v: 0 < float(v) < math.inf)
# the commands evaluate at float(g/4) and at g = 4.0 * float(g/4)
_coupling = _arg(Fraction, "an exact decimal or fraction > 0 whose g/4 and g are finite "
                 "positive floats", lambda v: float(v) > 0 and math.isfinite(4.0 * float(v)))
_tolerance = _arg(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_count = _arg(int, "an integer >= 0", lambda v: v >= 0)
# a doubling grid k = 16, 32, ..., kmax needs two points for a slope
_crossover_kmax = _arg(int, "an integer >= 32", lambda v: v >= 32)
_orders = _arg(lambda text: [int(s) for s in text.split(",")], "comma-separated orders >= 0",
               lambda ks: min(ks) >= 0)


def _qm_approximants(energy: CoefficientTable, orders: Sequence[int], sigma: Fraction) -> list:
    """``qm.qm_approximant`` at each order; a sigma whose a_pn floats cannot
    hold is a usage error, raised before any row is written."""
    try:
        return [qm.qm_approximant(energy, N, sigma) for N in orders]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"argument --sigma: {exc}") from None


def _quad_spec(tol: Optional[float]) -> QuadratureSpec:
    if tol is None:
        return QuadratureSpec()
    return QuadratureSpec(abs_tol=tol, rel_tol=tol, max_refinements=12)


def _parse_range(text: str) -> List[Fraction]:
    """Parse 'start:stop:step' into an inclusive exact grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (_fraction(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError("empty range")
    out = []
    x = start
    while x <= stop:
        out.append(x)
        x += step
    return out


def _fraction_decimal(value: Fraction, digits: int = 40) -> str:
    """Decimal expansion of a rational, up to `digits` significant digits."""
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    ipart, rem = divmod(num, den)
    int_digits = len(str(ipart)) if ipart else 0
    frac_digits = max(digits - int_digits, 0)
    scaled = rem * 10**frac_digits
    frac, tail = divmod(scaled, den)
    frac_str = str(frac).rjust(frac_digits, "0") if frac_digits else ""
    if tail == 0:
        frac_str = frac_str.rstrip("0")
    return f"{sign}{ipart}" + (f".{frac_str}" if frac_str else "")


def _write_rows(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence],
                fmt: str) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
            out.write("\n")
    finally:
        if path:
            out.close()


def _delta_grid(args) -> List[Fraction]:
    return args.delta_range or [args.delta]


def _run_grid(args, header: Sequence[str], evaluate: Callable[..., tuple],
              points: Sequence[Dict[str, object]]) -> int:
    """Write the row ``evaluate(**point)`` of every grid point, sorted.

    A point that raises is left out and listed on stderr as a FAILED line;
    the status is then 1.
    """
    rows, failures = [], []
    for point in points:
        try:
            rows.append(evaluate(**point))
        except Exception as exc:  # one bad point must not cost the others
            where = ", ".join(f"{name}={float(v) if isinstance(v, Fraction) else v}"
                              for name, v in point.items())
            failures.append(f"{where}: {exc}")
    _write_rows(args.out, header, sorted(rows), args.format)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


def _write_table(args, table: CoefficientTable) -> int:
    """The exact entries k, n, numerator, denominator and decimal of a table."""
    header = ["k", "n", "numerator", "denominator", "decimal"]
    rows = [(k, n, str(v.numerator), str(v.denominator), _fraction_decimal(v))
            for (k, n), v in table.items()]
    _write_rows(args.out, header, rows, args.format)
    return 0


def _dump_approximant(args, approx) -> None:
    if args.dump_approximant:
        with open(args.dump_approximant, "w") as fh:
            fh.write(approximant_to_json(approx))


def _model_row(g: float, approxes: Sequence, spec: QuadratureSpec) -> Callable[..., tuple]:
    """The row delta, Z^(N) of each approximant, then z_reference, at coupling g."""
    def row(delta):
        df = float(delta)
        return (df, *(a.resum(g, df, spec) for a in approxes), model.z_reference(g, df, spec))
    return row


def _qm_row(gbar: Fraction, approxes: Sequence, spec: QuadratureSpec, energy: CoefficientTable,
            vpt_order: int) -> Callable[..., tuple]:
    """The row delta, E^(N) of each approximant, then the VPT energy at
    ``vpt_order`` unless it is 0, at g/4 = gbar."""
    def row(delta):
        out = (float(delta), *(a.resum(float(gbar), 2.0 * float(delta), spec) for a in approxes))
        if vpt_order:
            out += (vpt.vpt_energy(energy, vpt_order, gbar, delta).energy,)
        return out
    return row


def _crossover(args, delta: float, kmax: int) -> int:
    """The local exponent of Z_k(delta) on the doubling grid k = 16, 32, ..., kmax."""
    ks = [16 * 2**i for i in range(kmax.bit_length() - 4)]
    report = local_exponent(model.z_coeffs_delta_scaled(ks, delta), 4.0, ks)
    # the first grid point has no incoming slope
    rows = list(zip(report.k_grid, report.f_values, ("", *report.beta_local)))
    _write_rows(args.out, ["k", "f", "beta_local"], rows, args.format)
    print(f"k_cross={report.k_cross}; {_CROSSOVER_NOTE}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- commands


def cmd_model_coeffs(args) -> int:
    return _write_table(args, model.ModelCoefficients.build(args.kmax).table)


def cmd_qm_coeffs(args) -> int:
    return _write_table(args, benderwu.build(args.kmax).energy)


def cmd_model_eval(args) -> int:
    row = _model_row(4.0 * float(args.g4), [], _quad_spec(args.tol))
    return _run_grid(args, ["delta", "z_reference"], row,
                     [{"delta": d} for d in _delta_grid(args)])


def cmd_model_crossover(args) -> int:
    return _crossover(args, float(args.delta), args.kmax)


def cmd_model_resum(args) -> int:
    N = args.order
    approx = build_approximant(model.ModelCoefficients.build(N).table, N,
                               model.model_large_order_params())
    _dump_approximant(args, approx)
    row = _model_row(4.0 * float(args.g4), [approx], _quad_spec(args.tol))

    def one(delta):
        df, zn, zr = row(delta)
        return df, zn, zr, abs(zn - zr)

    return _run_grid(args, ["delta", "z_resummed", "z_reference", "abs_error"], one,
                     [{"delta": d} for d in _delta_grid(args)])


def cmd_qm_resum(args) -> int:
    N = args.order
    state = benderwu.build(max(N, args.vpt_baseline))
    approx, = _qm_approximants(state.energy, [N], args.sigma)
    _dump_approximant(args, approx)
    row = _qm_row(args.g4, [approx], _quad_spec(args.tol), state.energy, args.vpt_baseline)
    header = ["delta", "e_resummed"] + (["vpt_baseline"] if args.vpt_baseline else [])
    return _run_grid(args, header, row, [{"delta": d} for d in _delta_grid(args)])


def cmd_vpt(args) -> int:
    orders = args.orders
    g4 = args.g4
    points = [{"delta": d, "k": k} for d in _delta_grid(args) for k in orders]
    state = benderwu.build(max(orders))
    selection = "min_omega" if args.min_omega else "min_w"

    def one(delta, k):
        res = vpt.vpt_energy(state.energy, k, g4, delta, selection=selection)
        return k, float(delta), float(g4), res.omega, res.energy, res.kind

    return _run_grid(args, ["k", "delta", "g_over_4", "omega_k", "W_k", "candidate_kind"],
                     one, points)


# ----------------------------------------------------------------- figures
# A figure runner reads args.g4 and args.sigma, which are None unless given,
# in place of the defaults in its _FIGURES entry.


def _model_figure(args, gbar: Fraction, orders: Sequence[int]) -> int:
    mc = model.ModelCoefficients.build(max(orders))
    params = model.model_large_order_params()
    approxes = [build_approximant(mc.table, N, params) for N in orders]
    row = _model_row(4.0 * float(args.g4 or gbar), approxes, _quad_spec(args.tol))
    header = ["delta"] + [f"z_N{N}" for N in orders] + ["z_reference"]
    return _run_grid(args, header, row, [{"delta": d} for d in _parse_range("-1:3/2:1/20")])


def _qm_figure(args, gbar: Fraction, sigma: int, orders: Sequence[int]) -> int:
    state = benderwu.build(11)  # VPT at k = 11 is the highest order read
    approxes = _qm_approximants(state.energy, orders, args.sigma or sigma)
    row = _qm_row(args.g4 or gbar, approxes, _quad_spec(args.tol), state.energy, 11)
    header = ["delta"] + [f"e_N{N}" for N in orders] + ["vpt_baseline"]
    return _run_grid(args, header, row, [{"delta": d} for d in _parse_range("-3/2:2:1/10")])


def _vpt_figure(args, gbar: Fraction) -> int:
    """W_5 on an Omega grid at four deltas."""
    state = benderwu.build(5)
    rows = []
    for ds in ("-3/2", "-1/2", "1/2", "3/2"):
        W = vpt.w_laurent(state.energy, 5, args.g4 or gbar, Fraction(ds))
        om = 0.8
        while om <= 2.0 + 1e-9:
            rows.append((float(Fraction(ds)), round(om, 4), W.evaluate(om)))
            om += 0.02
    _write_rows(args.out, ["delta", "omega", "W"], rows, args.format)
    return 0


# each figure: its runner, with the figure's defaults, and the flags of
# `figures` that it does not read; fig8/fig9 are the larger-sigma refit of fig5/fig6
_FIGURES = {
    "fig1": (partial(_crossover, delta=0.01, kmax=4096), ("g4", "sigma", "tol")),
    "fig2a": (partial(_crossover, delta=1e-4, kmax=8192), ("g4", "sigma", "tol")),
    "fig2b": (partial(_crossover, delta=1.0, kmax=4096), ("g4", "sigma", "tol")),
    "fig4": (partial(_model_figure, gbar=Fraction(1, 4), orders=(2, 4, 6, 8)), ("sigma",)),
    "fig5": (partial(_qm_figure, gbar=Fraction(1, 10), sigma=3, orders=(2, 4, 6, 8)), ()),
    "fig6": (partial(_qm_figure, gbar=Fraction(1), sigma=3, orders=(2, 4, 6, 8)), ()),
    "fig7": (partial(_vpt_figure, gbar=Fraction(1, 10)), ("sigma", "tol")),
    "fig8": (partial(_qm_figure, gbar=Fraction(1, 10), sigma=4, orders=(2, 4, 6)), ()),
    "fig9": (partial(_qm_figure, gbar=Fraction(1), sigma=4, orders=(2, 4, 6)), ()),
}


def cmd_figures(args) -> int:
    runner, _ = _FIGURES[args.which]
    return runner(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anires",
        description="Anisotropic divergent-series resummation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, g4=False, delta=False, order=False, orders=False,
               sigma=False, kmax=None, tol=True):
        if g4:
            p.add_argument("--g4", type=_coupling, required=True,
                           help="coupling g/4 > 0 (exact decimal or fraction)")
        if delta:
            grid = p.add_mutually_exclusive_group(required=True)
            grid.add_argument("--delta", type=_fraction,
                              help="anisotropy (exact decimal or fraction)")
            grid.add_argument("--delta-range", type=_parse_range, help="grid start:stop:step")
        if order:
            p.add_argument("--order", type=_count, default=8, help="resummation order N")
        if orders:
            p.add_argument("--orders", type=_orders, default="1,3,5,7,9,11",
                           help="comma-separated variational orders k")
        if sigma:
            p.add_argument("--sigma", type=_sigma, default="3",
                           help="large-order growth parameter in g/4 (default 3)")
        if kmax is not None:
            p.add_argument("--kmax", type=_count, default=kmax)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=None,
                           help="absolute and relative quadrature tolerance, with 12 refinement "
                                "levels (default 1e-12 absolute, 1e-10 relative, 10 levels)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("model-coeffs", help="exact model coefficient table")
    common(p, kmax=12, tol=False)
    p.set_defaults(fn=cmd_model_coeffs)

    p = sub.add_parser("model-eval", help="reference model integral on a grid")
    common(p, g4=True, delta=True)
    p.set_defaults(fn=cmd_model_eval)

    p = sub.add_parser("model-crossover", help="large-order crossover scan", description=_K_CROSS)
    common(p, tol=False)
    p.add_argument("--kmax", type=_crossover_kmax, default=4096,
                   help="the grid stops at the last k <= kmax; at least 32 (default 4096)")
    p.add_argument("--delta", type=_model_delta, required=True,
                   help="anisotropy < 2 (exact decimal or fraction)")
    p.set_defaults(fn=cmd_model_crossover)

    p = sub.add_parser("model-resum", help="resummed model vs reference")
    common(p, g4=True, delta=True, order=True)
    p.add_argument("--dump-approximant", help="also write the approximant JSON here")
    p.set_defaults(fn=cmd_model_resum)

    p = sub.add_parser("qm-coeffs", help="exact oscillator energy coefficients")
    common(p, kmax=12, tol=False)
    p.set_defaults(fn=cmd_qm_coeffs)

    p = sub.add_parser("qm-resum", help="resummed oscillator ground-state energy")
    common(p, g4=True, delta=True, order=True, sigma=True)
    p.add_argument("--vpt-baseline", type=_count, default=0,
                   help="add a variational baseline column at this order")
    p.add_argument("--dump-approximant", help="also write the approximant JSON here")
    p.set_defaults(fn=cmd_qm_resum)

    p = sub.add_parser("vpt", help="variational energies W_k(Omega_k)")
    common(p, g4=True, delta=True, orders=True, tol=False)
    p.add_argument("--min-omega", action="store_true",
                   help="select the smallest-Omega stationary point instead of min W")
    p.set_defaults(fn=cmd_vpt)

    p = sub.add_parser("figures", help="reproduce a figure's data as CSV",
                       description="fig1, fig2a and fig2b are model-crossover scans: " + _K_CROSS)
    p.add_argument("--which", required=True, choices=list(_FIGURES))
    p.add_argument("--g4", type=_coupling, help="coupling g/4 > 0 (default per figure)")
    common(p)
    p.add_argument("--sigma", type=_sigma, default=None,
                   help="growth parameter override (default 3; 4 for fig8/fig9)")
    p.set_defaults(fn=cmd_figures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figures":
        _, ignored = _FIGURES[args.which]
        unused = [f"--{name}" for name in ignored if getattr(args, name) is not None]
        if unused:
            parser.error(f"figures --which {args.which} does not use {', '.join(unused)}")
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # The reader closed stdout early (`anires ... | head`).  Point stdout at
        # devnull so the flush at exit cannot raise again (Python docs, "Note on
        # SIGPIPE") and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
