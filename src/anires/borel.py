r"""Hypergeometric-Borel resummation of factorially divergent series.

Given low-order coefficients c_k of a series ``sum_k c_k g^k`` whose
large-order growth is ``gamma (-1)^k sigma^k k! k^beta`` and whose sum obeys a
strong-coupling power law ``~ g^alpha``, the series is reexpanded in a basis
of Borel-summable functions

    I_p(g) = int_0^inf dt e^{-t} t^{b0} / Gamma(b0+1) *
             ((1 + sqrt(1+sigma g t))/2)^{2 alpha} *
             (sigma g t)^p / (1 + sqrt(1+sigma g t))^{2 p},

with b0 = beta + 3/2 and the normalization 1/(4^p Gamma(b0+1)) folded in as
written.  Each I_p carries the prescribed large-order and strong-coupling
behavior, so the truncated reexpansion ``sum_{p<=N} a_p I_p(g)`` converges
toward the resummed function as N grows.

The expansion coefficients come out triangular and fully explicit:

    a_p = sum_{k<=p} c_k / (b0+1)_k (4/sigma)^k C(p+k-1-2 alpha, p-k),

and are computed in exact rational arithmetic whenever sigma, alpha, b0 and
the c_k are rational (the (N+1) x (N+1) triangle is badly conditioned in
floats).  The triangle and its check, the power series sum_p a_p I^p_k of
the basis against c_k, run in Python ints over one denominator per order.
With sigma = sn/sd, b0 = bn/bd and 2 alpha = an/ad, column n carries a_p,
and the check's sum at order k, over

    D_p = L sn^p (bn+bd)(bn+2bd)...(bn+p bd) ad^(p-n) (p-n)!,
    D_k = L (4 sd bd)^k ad^(k-n) (k-n)!,

L the lcm of the column's input denominators.  D_p holds every denominator
of a term c_k (4/sigma)^k / (b0+1)_k C(., p-k) of a_p, the binomial's being
ad^(p-k) (p-k)!.  D_k holds every one of a_p I^p_k, the coefficient of g^k
in I_p(g): with a = p - alpha, m = k - p and F_j = j ad - an,
I^p_k = (sigma/4)^p (-sigma)^m (b0+1)_k (a)_m (a+1/2)_m / ((2a+1)_m m!) and
(a)_m (a+1/2)_m / (2a+1)_m = F_2p F_(p+k+1) ... F_(2k-1) / (4 ad)^m, so no
F_j is left below.  D times each term is thus an integer, and a step of a
term to the next order, its ratio times D's, ends in one exact ``//``.  A
zero D_p (some b0 + i = 0) or F_j in a divisor (a pole of the stepped ratio)
raises ZeroDivisionError, as the rational sums do.

For evaluation a weighted sum sum_i c_i I_{p0+i}(g) is one t-integral on
(0, inf): the last factor of I_p is w^p, w = (R-1)/(R+1) with
R = sqrt(1+sigma g t), so the integrand carries the polynomial sum_i c_i w^i,
and the double-exponential quadrature takes it as it stands at every finite
g > 0.  At fixed g these integrands differ only by powers of t and w, a
constant and that polynomial, so the column sums sum_p a_pn I_pn of one
coupling are integrated together, on one node set (:func:`basis_integrals`).

Double series: the anisotropic generalization resums the g-series of each
anisotropy power separately, with n-dependent Borel parameter b0(n).  The
:class:`ResummedApproximant` stores the triangular coefficient matrix a_pn and
evaluates ``sum_n (sum_{p=n}^N a_pn I_pn(g)) y^n`` where y is the anisotropy
variable of the input table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_semiline
from .series import CoefficientTable, LargeOrderParams

__all__ = [
    "BorelBasisSpec",
    "ResummedApproximant",
    "borel_coefficients",
    "basis_integral",
    "basis_integrals",
    "basis_integral_tform",
    "build_approximant",
    "reexpansion_check",
    "approximant_to_json",
]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class BorelBasisSpec:
    """Parameters of one basis integral I_p."""

    p: int
    b0: Fraction
    alpha: Fraction
    sigma: Fraction

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def borel_coefficients(
    column: Sequence[Rational],
    params: LargeOrderParams,
    n: int,
) -> List[Fraction]:
    """Expansion coefficients a_pn, p = n .. n + len(column) - 1, for one anisotropy power.

    ``column[j]`` is the coefficient c_k of g^k at k = n + j; entries below
    k = n vanish identically for triangular double series.  Exact rational
    throughout (requires rational sigma and alpha, which both applications
    satisfy).

    Each term is carried over D_p (module docstring) by its ratio to the
    previous one: term k starts at p = k as L c_k (4 sd bd)^k ad^(k-n) (k-n)!
    and steps to p, by C(x+1, m+1) = C(x, m) (x+1)/(m+1), times
    sn (bn + p bd) (p-n) ((k+p-1) ad - an), then ``//`` (p-k).
    """
    N = n + len(column) - 1
    column = [Fraction(c) for c in column]
    sn, sd = Fraction(params.sigma).as_integer_ratio()
    bn, bd = Fraction(n + params.b0_offset).as_integer_ratio()
    an, ad = (2 * Fraction(params.alpha)).as_integer_ratio()
    L = math.lcm(*(c.denominator for c in column))
    rise = [sn * (bn + p * bd) * (p - n) for p in range(n, N + 1)]  # D_p / (ad D_{p-1}), p > n
    out = [0] * len(column)
    lead = (4 * sd * bd) ** n  # (4 sd bd)^k ad^(k-n) (k-n)!
    for k, c_k in enumerate(column, n):
        if k > n:
            lead *= 4 * sd * bd * ad * (k - n)
        if not c_k:
            continue
        term = c_k.numerator * (L // c_k.denominator) * lead
        out[k - n] += term
        for p in range(k + 1, N + 1):
            term = term * rise[p - n] * ((k + p - 1) * ad - an) // (p - k)
            out[p - n] += term
    dens = [L * sn**n * math.prod(bn + i * bd for i in range(1, n + 1))]  # D_p
    for r in rise[1:]:
        dens.append(dens[-1] * ad * r)
    return [Fraction(value, den) for value, den in zip(out, dens)]


def basis_integrals(
    sigma: Fraction,
    alpha: Fraction,
    columns: Sequence[Tuple[Fraction, int, Sequence[float]]],
    g: float,
    quad: QuadratureSpec = DEFAULT_SPEC,
) -> List[float]:
    """Weighted sums ``sum_i weights[i] I_{p0+i}(g)`` of every column
    ``(b0, p0, weights)``, one float per column in the order given, from one
    t-integral on one node set: per node ln t, ln(1+R) and ln w are formed
    once, and each column takes one exp and, unless that underflows to 0.0,
    one Horner pass in w over its weights.  A refinement level is accepted
    only when every column sum meets the tolerance.  Where sigma*g*t
    overflows, R > 1e154, so ln(1+R) = ln(sigma g t)/2 and w = 1 to rounding.
    """
    if not 0 < g < math.inf:
        raise ValueError(f"requires a finite g > 0, got {g}")
    if not columns:
        return []
    sigma, two_alpha = float(sigma), 2.0 * float(alpha)
    sg = sigma * g
    ln_sg = math.log(sigma) + math.log(g)  # finite where sg overflows
    # per column: log offset and extra power of t relative to the first
    # column's b0, power of w, and the weights from the top down, for Horner
    b0_base = float(columns[0][0])
    ln_norm = math.lgamma(b0_base + 1.0)
    terms = [(ln_norm - math.lgamma(float(b0) + 1.0), float(b0) - b0_base, p0,
              weights[-1], weights[-2::-1]) for b0, p0, weights in columns]
    ln_pref = -two_alpha * math.log(2.0) - ln_norm
    inf, log, log1p, exp, sqrt = math.inf, math.log, math.log1p, math.exp, math.sqrt

    def integrand(t: float) -> List[float]:
        ln_t = log(t)
        sgt = sg * t
        if sgt < inf:
            root = sqrt(1.0 + sgt)
            ln_1r = log1p(root)
            w = sgt / (1.0 + root) / (1.0 + root)
        else:
            ln_1r = 0.5 * (ln_sg + ln_t)
            w = 1.0
        ln_w = ln_sg + ln_t - 2.0 * ln_1r
        common = ln_pref - t + b0_base * ln_t + two_alpha * ln_1r
        out: List[float] = []
        for offset, c_t, p0, top, lower in terms:
            # exp underflows to 0.0 below about -745, as the tails need
            factor = exp(common + offset + c_t * ln_t + p0 * ln_w)
            if factor == 0.0:
                out.append(0.0)
                continue
            poly = top
            for weight in lower:
                poly = poly * w + weight
            out.append(factor * poly)
        return out

    return integrate_semiline(integrand, quad).value


def basis_integral(
    spec: BorelBasisSpec, g: float, quad: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """I_p(g) for finite g > 0, as the one-column case of :func:`basis_integrals`."""
    return basis_integrals(spec.sigma, spec.alpha, [(spec.b0, spec.p, [1.0])], g, quad)[0]


def basis_integral_tform(
    spec: BorelBasisSpec, g: float, quad: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """I_p(g) via the Borel t-integral, one basis function at a time: the
    independent per-basis oracle for :func:`basis_integrals`."""
    if not 0 < g < math.inf:
        raise ValueError(f"requires a finite g > 0, got {g}")
    b0 = float(spec.b0)
    alpha = float(spec.alpha)
    sg = float(spec.sigma) * g
    p = spec.p
    # ln of t^b0 ((1 + root)/2)^{2 alpha} (sg t)^p / (1 + root)^{2p} / Gamma(b0+1),
    # root = sqrt(1 + sg t), with the powers of t and of 1 + root gathered
    const = p * math.log(sg) - 2.0 * alpha * math.log(2.0) - math.lgamma(b0 + 1.0)
    c_t, c_root = b0 + p, 2.0 * (alpha - p)

    def integrand(t: float) -> float:
        ln_val = const - t + c_t * math.log(t) + c_root * math.log1p(math.sqrt(1.0 + sg * t))
        if ln_val < -745.0:
            return 0.0
        return math.exp(ln_val)

    return integrate_semiline(integrand, quad).value


@dataclass
class ResummedApproximant:
    """Order-N reexpansion of a triangular double series.

    ``a[(p, n)]`` holds the exact coefficients, n <= p <= N.  ``resum``
    evaluates ``sum_n S_n(g) y^n`` where S_n = sum_p a_pn I_pn is the Borel
    sum of column n and y is the anisotropy variable the input table is
    written in.  Every S_n is computed by :func:`basis_integrals`, one
    weighted column per n, and the sums of the latest (g, quadrature spec)
    are kept: callers evaluate every anisotropy at one coupling in a row, and
    a memo of every coupling seen would grow without bound over a scan.

    Construction raises ValueError when a nonzero a_pn has no finite nonzero
    float (a growth constant sigma far from the series' own), since the
    float sums would then drop or overflow that term.
    """

    N: int
    a: Dict[Tuple[int, int], Fraction]
    params: LargeOrderParams
    input_table: CoefficientTable
    _cache: Dict[Tuple[float, QuadratureSpec], List[float]] = field(
        default_factory=dict, repr=False)
    # per n with a nonzero a_pn: n, the lowest such p, and the a_pn as floats from
    # that p up to the highest such p (zero a_pn in between as 0.0)
    _columns: List[Tuple[int, int, List[float]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._columns = []
        for n in range(self.N + 1):
            ps = [p for p in range(n, self.N + 1) if self.a[(p, n)] != 0]
            if ps:
                self._columns.append(
                    (n, ps[0], [self._float(p, n) for p in range(ps[0], ps[-1] + 1)]))

    def _float(self, p: int, n: int) -> float:
        value = self.a[(p, n)]
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if value and not 0.0 < abs(out) < math.inf:
            raise ValueError(f"a_pn at (p, n) = ({p}, {n}) has no finite nonzero float "
                             f"(sigma = {float(self.params.sigma)!r})")
        return out

    def basis_spec(self, p: int, n: int) -> BorelBasisSpec:
        return BorelBasisSpec(
            p=p,
            b0=n + self.params.b0_offset,
            alpha=Fraction(self.params.alpha),
            sigma=Fraction(self.params.sigma),
        )

    def basis_values(self, g: float, quad: QuadratureSpec = DEFAULT_SPEC) -> List[float]:
        """The column sums S_n(g), one per column of ``_columns``; the latest
        (g, quad) is memoized."""
        key = (g, quad)
        values = self._cache.get(key)
        if values is None:
            params = self.params
            values = basis_integrals(
                params.sigma, params.alpha,
                [(n + params.b0_offset, p0, weights) for n, p0, weights in self._columns],
                g, quad)
            self._cache = {key: values}
        return values

    def basis_value(self, p: int, n: int, g: float, quad: QuadratureSpec = DEFAULT_SPEC) -> float:
        """I_pn(g) alone; ``resum`` does not read it."""
        return basis_integral(self.basis_spec(p, n), g, quad)

    def resum(self, g: float, y: float, quad: QuadratureSpec = DEFAULT_SPEC) -> float:
        if not 0 < g < math.inf:
            raise ValueError(f"requires a finite g > 0, got {g}")
        if not abs(y) < math.inf:
            raise ValueError(f"requires a finite y, got {y}")
        total = 0.0
        for (n, _, _), value in zip(self._columns, self.basis_values(g, quad)):
            total += value * y**n
        return total


def build_approximant(
    table: CoefficientTable, N: int, params: LargeOrderParams
) -> ResummedApproximant:
    """Assemble the a_pn triangle from the first N+1 orders of the table."""
    if N < 0:
        raise ValueError(f"order N must be >= 0, got {N}")
    if N > table.kmax:
        raise ValueError(f"N={N} exceeds table kmax={table.kmax}")
    a: Dict[Tuple[int, int], Fraction] = {}
    for n in range(N + 1):
        column = table.column(n, N)
        for p, value in zip(range(n, N + 1), borel_coefficients(column, params, n)):
            a[(p, n)] = value
    return ResummedApproximant(N=N, a=a, params=params, input_table=table)


def reexpansion_check(approx: ResummedApproximant) -> Fraction:
    """Max relative residual of sum_p I^p_k a_pn against the input c_kn.

    Exact; the construction makes this identically zero, so any nonzero
    return is a hard failure of the coefficient algebra.  Over D_k (module
    docstring), D_k a_pn I^p_k starts at k = p and steps to k+1 times
    -sn (bn + (k+1) bd) (k+1-n) F_2k F_2k+1, then ``//`` F_(p+k+1) (k+1-p).
    """
    N, params = approx.N, approx.params
    sn, sd = Fraction(params.sigma).as_integer_ratio()
    an, ad = (2 * Fraction(params.alpha)).as_integer_ratio()
    F = [j * ad - an for j in range(2 * N)]
    worst: Fraction = Fraction(0)
    for n in range(N + 1):
        bn, bd = Fraction(n + params.b0_offset).as_integer_ratio()
        coeffs = [approx.a[(p, n)] for p in range(n, N + 1)]
        L = math.lcm(*(c.denominator for c in coeffs))
        step = [-sn * (bn + (k + 1) * bd) * (k + 1 - n) * F[2 * k] * F[2 * k + 1]
                for k in range(n, N)]
        recovered = [0] * len(coeffs)  # times D_k, at k = n .. N
        lead = sn**n * math.prod(bn + i * bd for i in range(1, n + 1))  # D_p I^p_p / L
        for p, coeff in enumerate(coeffs, n):
            if p > n:
                lead *= sn * (bn + p * bd) * ad * (p - n)
            if not coeff:
                continue
            term = coeff.numerator * (L // coeff.denominator) * lead
            recovered[p - n] += term
            for k in range(p, N):
                term = term * step[k - n] // (F[p + k + 1] * (k + 1 - p))
                recovered[k + 1 - n] += term
        den = L * (4 * sd * bd) ** n  # D_k
        for k, value in enumerate(recovered, n):
            if k > n:
                den *= 4 * sd * bd * ad * (k - n)
            target = approx.input_table.entry(k, n)
            if value * target.denominator != den * target.numerator:
                rel = abs(Fraction(value, den) - target) / max(Fraction(1), abs(target))
                worst = max(worst, rel)
    return worst


def approximant_to_json(approx: ResummedApproximant) -> str:
    """Serialize {N, sigma, alpha, b0_offset, a:[{p,n,numerator,denominator}]}.

    Rationals are emitted as exact strings; b0(n) = n + b0_offset.
    """
    doc = {
        "N": approx.N,
        "sigma": str(Fraction(approx.params.sigma)),
        "alpha": str(Fraction(approx.params.alpha)),
        "b0_offset": str(approx.params.b0_offset),
        "a": [
            {
                "p": p,
                "n": n,
                "numerator": str(value.numerator),
                "denominator": str(value.denominator),
            }
            for (p, n), value in sorted(approx.a.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
