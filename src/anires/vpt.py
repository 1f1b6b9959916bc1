r"""Variational perturbation theory for the anisotropic oscillator energy.

The Rayleigh-Schroedinger series is reorganized around a trial frequency
Omega: with rho = 2(omega^2 - Omega^2)/g the reexpansion coefficients are

    eps_l(rho, d) = sum_{j<=l} E_j(d) C((1-3j)/2, l-j) (2 rho Omega)^{l-j},
    E_j(d) = sum_{n<=j} E_jn (2d)^n,

and the truncated variational energy is the Laurent object

    W_k(g, d, Omega) = Omega sum_{l<=k} eps_l(rho, d) (gbar / Omega^3)^l .

With 2 rho Omega = (omega^2 - Omega^2) Omega / gbar and x = Omega^-2 it
regroups by j = l - t (omega = 1 in reduced units):

    W_k = sum_{j<=k} E_j(d) gbar^j Omega^{1-3j} S_{j,k-j}(x),
    S_{j,T}(x) = sum_{t<=T} C((1-3j)/2, t) (x - 1)^t .

The shape polynomial S_{j,T} depends on neither the table, the coupling nor
the anisotropy, so its coefficients are cached on (j, T) and one W_k costs
O(k^2) exact operations.  W_k has integer powers in [1-3k, 1]; coefficients
stay exact rationals until evaluation.  Omega^{3k} dW/dOmega is then a
polynomial over Q, and every one of its positive roots is isolated exactly
before it is rounded to a float.

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


@functools.cache
def _shape(j: int, T: int) -> Tuple[Fraction, ...]:
    """Coefficients of S_{j,T}(x) = sum_{t<=T} C((1-3j)/2, t) (x - 1)^t in
    powers x^u, u = 0 .. T; the key (j, T) is all the value depends on."""
    if T < 0:
        return ()
    low = _shape(j, T - 1) + (0,)
    c = generalized_binomial(Fraction(1 - 3 * j, 2), T)
    return tuple(low[u] + c * math.comb(T, u) * (-1) ** (T - u) for u in range(T + 1))


def w_laurent(
    table: CoefficientTable,
    k: int,
    g_over_4: Exactish,
    delta: Exactish,
) -> LaurentInOmega:
    """W_k(Omega) as an exact Laurent polynomial, reduced units omega=1.

    W_k = sum_{j<=k} E_j(d) gbar^j Omega^{1-3j} S_{j,k-j}(Omega^-2), with
    E_j(d) by Horner in 2d and the shape polynomials S_{j,T} cached on (j, T):
    the term x^u of S_{j,k-j} lands on the power 1 - 3j - 2u.  Powers are
    inserted in the order of the first (j + u, j) that reaches them, as in the
    sum over eps_l; that is descending unless some E_j(d) vanishes.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > table.kmax:
        raise ValueError(f"k={k} exceeds table kmax={table.kmax}")
    gbar = Fraction(g_over_4)
    if gbar <= 0:
        raise ValueError("requires g/4 > 0")
    two_d = 2 * Fraction(delta)
    bases: List[Fraction] = []  # E_j(d) gbar^j
    gbar_j = Fraction(1)
    for j in range(k + 1):
        e_j = Fraction(0)
        for n in range(j, -1, -1):
            e_j = e_j * two_d + table.entry(j, n)
        bases.append(e_j * gbar_j)
        gbar_j *= gbar
    shapes = [_shape(j, k - j) for j in range(k + 1)]
    terms: Dict[int, Fraction] = {}
    for l in range(k + 1):
        for j in range(l + 1):
            if bases[j]:
                p = 1 - j - 2 * l  # 1 - 3j - 2u with u = l - j
                terms[p] = terms.get(p, 0) + bases[j] * shapes[j][l - j]
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
    den, low = math.lcm(*(c.denominator for c in terms.values())), min(terms)
    P = [0] * (max(terms) - low + 1)
    for p, c in terms.items():
        P[p - low] = c.numerator * (den // c.denominator)
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
