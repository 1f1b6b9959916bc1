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
until evaluation.  Omega^{3k} dW/dOmega is then a polynomial over Q, and every
one of its positive roots is isolated exactly before it is rounded to a float.

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

import functools
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


def _energy_slices(table: CoefficientTable, k: int, delta: Exactish) -> List[Fraction]:
    """E_j(d) = sum_{n<=j} E_jn (2d)^n for j = 0 .. k."""
    two_d = 2 * Fraction(delta)
    return [sum((table.entry(j, n) * two_d**n for n in range(j + 1)), Fraction(0))
            for j in range(k + 1)]


@functools.cache
def _binomial(j: int, t: int) -> Fraction:
    """C((1-3j)/2, t), which depends on neither the table nor the coupling."""
    return generalized_binomial(Fraction(1 - 3 * j, 2), t)


def _eps_coefficients(slices: List[Fraction], l: int) -> List[Fraction]:
    """eps_l in powers of (2 rho Omega) from the slices E_j(d), j <= l."""
    return [_binomial(l - t, t) * slices[l - t] for t in range(l + 1)]


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
) -> LaurentInOmega:
    """W_k(Omega) as an exact Laurent polynomial, reduced units omega=1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > table.kmax:
        raise ValueError(f"k={k} exceeds table kmax={table.kmax}")
    gbar = Fraction(g_over_4)
    if gbar <= 0:
        raise ValueError("requires g/4 > 0")
    slices = _energy_slices(table, k, delta)
    terms: Dict[int, Fraction] = {}
    for l in range(k + 1):
        eps = _eps_coefficients(slices, l)
        for j in range(l + 1):
            t = l - j
            if eps[t] == 0:
                continue
            base = eps[t] * gbar**j
            # (1 - Omega^2)^t expanded; power of Omega: 1 + t - 3l + 2s
            for s in range(t + 1):
                coeff = base * math.comb(t, s) * (-1) ** s
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


def _taylor_shift(a: List[int]) -> List[int]:
    """Coefficients (low to high) of a(x + 1)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _sign_at(a: List[int], u: int, e: int) -> int:
    """Sign of a(u / 2^e), by Horner's rule on 2^(e deg a) a(u / 2^e)."""
    h = 0
    for i, c in enumerate(reversed(a)):
        h = h * u + (c << (e * i))
    return (h > 0) - (h < 0)


def _positive_roots(fn: LaurentInOmega) -> List[float]:
    """Every root Omega > 0 of fn, ascending, isolated in integer arithmetic.

    Omega^(-min power) fn with denominators cleared is an integer polynomial;
    Omega = 2^m x maps all its roots into |x| < 1 (Fujiwara's bound).  A piece
    A(x) of it on (u, u + 1) / 2^e is dropped, kept as isolating or halved as
    the coefficients of (x + 1)^n A(1 / (x + 1)) have 0, 1 or more sign
    changes (Descartes; Vincent-Collins-Akritas bisection).  Each isolating
    interval is then halved by the exact sign at its midpoint until it is
    narrower than 2^-40 of its left end.  A multiple root, or roots that do
    not separate at that width, raise RuntimeError.
    """
    terms = {p: c for p, c in fn.terms.items() if c}
    if not terms:
        return []
    den = math.lcm(*(c.denominator for c in terms.values()))
    P = [int(terms.get(p, 0) * den) for p in range(min(terms), max(terms) + 1)]
    n, lead = len(P) - 1, P[-1].bit_length()
    # 2^m >= 2 max_i |P_i / P_n|^(1 / (n - i)) bounds every |root|
    m = max([0] + [1 - (lead - c.bit_length() - 1) // (n - i) for i, c in enumerate(P[:-1]) if c])
    Q = [c << (m * i) for i, c in enumerate(P)]
    dQ = [i * c for i, c in enumerate(Q)][1:]
    exact, isolated, pieces = [], [], [(0, 0, Q)]
    while pieces:
        u, e, A = pieces.pop()
        signs = [c > 0 for c in _taylor_shift(A[::-1]) if c]
        changes = sum(s != t for s, t in zip(signs, signs[1:]))
        if changes == 1:
            isolated.append((u, e))
        if changes < 2:
            continue
        left = [c << (len(A) - 1 - i) for i, c in enumerate(A)]  # 2^n A(x / 2)
        right = _taylor_shift(left)
        if u >> 40 or right[0] == right[1] == 0:
            raise RuntimeError("a multiple root, or roots closer than 2^-40 relative, near "
                               f"Omega = {math.ldexp(2 * u + 1, m - e - 1):.12g}")
        if right[0] == 0:  # a root at the midpoint
            exact.append((2 * u + 1, e + 1))
            right = right[1:]
        pieces += [(2 * u, e + 1, left), (2 * u + 1, e + 1, right)]
    for u, e in isolated:
        # the sign just right of u / 2^e, which Q' gives if u / 2^e is a root
        s = _sign_at(Q, u, e) or _sign_at(dQ, u, e)
        while not u >> 40:
            u, e = 2 * u + 1, e + 1
            t = _sign_at(Q, u, e)
            if t == 0:
                break
            if t != s:
                u -= 1
        else:
            u, e = 2 * u + 1, e + 1
        exact.append((u, e))
    return sorted(math.ldexp(u, m - e) for u, e in exact)


def optimize_omega(W: LaurentInOmega, k: int, selection: str = "min_w") -> VptOrderResult:
    """Locate stationary points of W and select the optimal Omega_k.

    Every positive root of dW/dOmega is a candidate, found by exact root
    isolation (:func:`_positive_roots`) on the whole half-line Omega > 0.  If
    there is none, the roots of d2W/dOmega2 (turning points) are used; if
    there is none of those either, RuntimeError is raised.  selection="min_w"
    picks the candidate with the lowest W, "min_omega" the leftmost one.
    """
    if selection not in ("min_w", "min_omega"):
        raise ValueError(f"unknown selection {selection!r}")
    d1 = W.derivative()
    d2 = d1.derivative()
    roots = _positive_roots(d1)
    kind = "extremum"
    if not roots:
        roots = _positive_roots(d2)
        kind = "turning_point"
    if not roots:
        raise RuntimeError(f"W_{k} has no stationary or turning point at Omega > 0")
    # stationarity quality, scaled by the term-magnitude sum
    for r in roots:
        if kind == "extremum":
            assert abs(d1.evaluate(r)) <= 1e-10 * max(1.0, d1.scale(r))
        else:
            assert abs(d2.evaluate(r)) <= 1e-8 * max(1.0, d2.scale(r))
    candidates = tuple(OmegaCandidate(r, kind, W.evaluate(r)) for r in roots)
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
    selection: str = "min_w",
) -> VptOrderResult:
    """Variational energy W_k at the optimized Omega_k."""
    return optimize_omega(w_laurent(table, k, g_over_4, delta), k, selection=selection)
