r"""Variational perturbation theory for the anisotropic oscillator energy.

The Rayleigh-Schroedinger series is reorganized around a trial frequency
Omega: with rho = 2(omega^2 - Omega^2)/g the reexpansion coefficients are

    eps_l(rho, d) = sum_{j<=l} sum_{n<=j} E_jn (2d)^n
                    C((1-3j)/2, l-j) (2 rho Omega)^{l-j},

and the truncated variational energy is the Laurent object

    W_k(g, d, Omega) = Omega sum_{l<=k} eps_l(rho, d) (gbar / Omega^3)^l ,

built here exactly: with 2 rho Omega = (omega^2 - Omega^2) Omega / gbar the
term (l, j) contributes to the powers Omega^{1 + (l-j) - 3l + 2s} after
expanding (omega^2 - Omega^2)^{l-j}, so W_k has integer powers in
[1-3k, 1] (omega = 1 in reduced units).  Coefficients stay exact rationals
until evaluation.

At finite k the optimum Omega_k is a stationary point of W_k.  For odd k
minima exist; for even k there is no extremum and turning points
(d^2 W/dOmega^2 = 0) are used.  When several stationary points coexist the
candidate with the smallest W is chosen by default ("min_w"): high orders
develop a shallow first minimum that tracks the exact energy together with a
spurious deeper-Omega structure, and the printed reference table follows the
lowest value in all but one near-degenerate cell.  The literal
smallest-Omega reading is available as selection="min_omega".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .series import CoefficientTable
from .specfun import generalized_binomial

__all__ = [
    "LaurentInOmega",
    "OmegaCandidate",
    "VptOrderResult",
    "reexpansion_coefficients",
    "w_laurent",
    "optimize_omega",
    "vpt_energy",
]

# str goes through Fraction's exact decimal parser; floats convert exactly
Exactish = Union[int, str, Fraction, float]


@dataclass(frozen=True)
class LaurentInOmega:
    """Finite Laurent polynomial sum_p c_p Omega^p with exact coefficients."""

    terms: Dict[int, Fraction]

    def evaluate(self, omega: float) -> float:
        if omega <= 0:
            raise ValueError("requires Omega > 0")
        return sum(float(c) * omega**p for p, c in self.terms.items())

    def evaluate_exact(self, omega: Fraction) -> Fraction:
        if omega <= 0:
            raise ValueError("requires Omega > 0")
        return sum((c * omega**p for p, c in self.terms.items()), Fraction(0))

    def derivative(self) -> "LaurentInOmega":
        return LaurentInOmega({p - 1: c * p for p, c in self.terms.items() if p != 0})

    def scale(self, omega: float) -> float:
        """Sum of term magnitudes at omega: the natural cancellation scale."""
        return sum(abs(float(c)) * omega**p for p, c in self.terms.items())

    @property
    def min_power(self) -> int:
        return min(self.terms)

    @property
    def max_power(self) -> int:
        return max(self.terms)


def _energy_slices(table: CoefficientTable, k: int, delta: Exactish) -> List[Fraction]:
    """E_j(d) = sum_{n<=j} E_jn (2d)^n for j = 0 .. k."""
    two_d = 2 * Fraction(delta)
    return [sum((table.entry(j, n) * two_d**n for n in range(j + 1)), Fraction(0))
            for j in range(k + 1)]


def _eps_coefficients(slices: List[Fraction], l: int) -> List[Fraction]:
    """eps_l in powers of (2 rho Omega) from the slices E_j(d), j <= l."""
    return [generalized_binomial(Fraction(1 - 3 * (l - t), 2), t) * slices[l - t]
            for t in range(l + 1)]


def reexpansion_coefficients(
    table: CoefficientTable, l: int, delta: Exactish
) -> List[Fraction]:
    """Coefficients of eps_l as a polynomial in (2 rho Omega).

    Returns ``coeffs`` with ``coeffs[t]`` multiplying (2 rho Omega)^t:
    coeffs[t] = C((1-3j)/2, t) * sum_{n<=j} E_jn (2d)^n at j = l - t.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l > table.kmax:
        raise ValueError(f"l={l} exceeds table kmax={table.kmax}")
    return _eps_coefficients(_energy_slices(table, l, delta), l)


def w_laurent(
    table: CoefficientTable,
    k: int,
    g_over_4: Exactish,
    delta: Exactish,
    omega: Exactish = 1,
) -> LaurentInOmega:
    """W_k(Omega) as an exact Laurent polynomial, reduced units omega=1.

    The general-omega path exists for the scale-consistency check
    W_k^(omega)(Omega; gbar) = omega * W_k^(1)(Omega/omega; gbar/omega^3).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > table.kmax:
        raise ValueError(f"k={k} exceeds table kmax={table.kmax}")
    gbar = Fraction(g_over_4)
    if gbar <= 0:
        raise ValueError("requires g/4 > 0")
    om2 = Fraction(omega) ** 2
    slices = _energy_slices(table, k, delta)
    terms: Dict[int, Fraction] = {}
    for l in range(k + 1):
        eps = _eps_coefficients(slices, l)
        for j in range(l + 1):
            t = l - j
            if eps[t] == 0:
                continue
            base = eps[t] * gbar**j
            # (omega^2 - Omega^2)^t expanded; power of Omega: 1 + t - 3l + 2s
            for s in range(t + 1):
                coeff = base * math.comb(t, s) * (-1) ** s * om2 ** (t - s)
                power = 1 + t - 3 * l + 2 * s
                terms[power] = terms.get(power, Fraction(0)) + coeff
    return LaurentInOmega({p: c for p, c in terms.items() if c != 0})


@dataclass(frozen=True)
class OmegaCandidate:
    omega: float
    kind: str  # "extremum" | "turning_point"
    w_value: float


@dataclass(frozen=True)
class VptOrderResult:
    """Stationary-point candidates of one W_k and the chosen optimum."""

    k: int
    candidates: Tuple[OmegaCandidate, ...]  # sorted ascending in omega
    chosen: int
    selection: str

    @property
    def omega(self) -> float:
        return self.candidates[self.chosen].omega

    @property
    def energy(self) -> float:
        return self.candidates[self.chosen].w_value

    @property
    def kind(self) -> str:
        return self.candidates[self.chosen].kind


def _sign_change_roots(
    fn: LaurentInOmega, lo: float, hi: float, subdivisions: int
) -> List[float]:
    """Roots of fn on a geometric grid, refined by bisection to ~1e-12 rel."""
    ratio = (hi / lo) ** (1.0 / subdivisions)
    xs = [lo * ratio**i for i in range(subdivisions + 1)]
    vals = [fn.evaluate(x) for x in xs]
    roots: List[float] = []
    for i in range(subdivisions):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(xs[i])
            continue
        if va * vb < 0.0:
            a, b, fa = xs[i], xs[i + 1], va
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = fn.evaluate(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a <= 1e-12 * mid:
                    break
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def optimize_omega(
    W: LaurentInOmega,
    k: int,
    bracket: Tuple[float, float] = (1e-2, 1e2),
    subdivisions: int = 400,
    selection: str = "min_w",
) -> VptOrderResult:
    """Locate stationary points of W and select the optimal Omega_k.

    Extrema (roots of dW/dOmega) are searched first; if none exist inside the
    bracket, turning points (roots of d2W/dOmega2) are used instead.
    selection="min_w" picks the candidate with the lowest W, "min_omega" the
    leftmost one.  A candidate sitting in the first or last grid cell trips an
    error asking for a wider bracket.
    """
    if selection not in ("min_w", "min_omega"):
        raise ValueError(f"unknown selection {selection!r}")
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ValueError("invalid bracket")
    d1 = W.derivative()
    d2 = d1.derivative()
    roots = _sign_change_roots(d1, lo, hi, subdivisions)
    kind = "extremum"
    if not roots:
        roots = _sign_change_roots(d2, lo, hi, subdivisions)
        kind = "turning_point"
    if not roots:
        raise RuntimeError(
            f"no stationary point of W_{k} inside ({lo}, {hi}); extend the bracket"
        )
    ratio = (hi / lo) ** (1.0 / subdivisions)
    if min(roots) <= lo * ratio or max(roots) >= hi / ratio:
        raise RuntimeError(
            f"candidate at bracket edge for W_{k}; extend the bracket beyond ({lo}, {hi})"
        )
    # stationarity quality, scaled by the term-magnitude sum
    for r in roots:
        if kind == "extremum":
            assert abs(d1.evaluate(r)) <= 1e-10 * max(1.0, d1.scale(r))
        else:
            assert abs(d2.evaluate(r)) <= 1e-8 * max(1.0, d2.scale(r))
    candidates = tuple(
        OmegaCandidate(r, kind, W.evaluate(r)) for r in sorted(roots)
    )
    if selection == "min_omega":
        chosen = 0
    else:
        chosen = min(range(len(candidates)), key=lambda i: candidates[i].w_value)
    return VptOrderResult(k=k, candidates=candidates, chosen=chosen, selection=selection)


def vpt_energy(
    table: CoefficientTable,
    k: int,
    g_over_4: Exactish,
    delta: Exactish,
    omega: Exactish = 1,
    selection: str = "min_w",
    bracket: Tuple[float, float] = (1e-2, 1e2),
    subdivisions: int = 400,
) -> VptOrderResult:
    """Variational energy W_k at the optimized Omega_k."""
    W = w_laurent(table, k, g_over_4, delta, omega)
    return optimize_omega(W, k, bracket=bracket, subdivisions=subdivisions, selection=selection)
