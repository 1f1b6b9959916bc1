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
O(k^2) operations on Python ints.  Like the Bender-Wu blocks, W_k is held as
integer numerators over one denominator; its reduced Fraction coefficients
are formed only when read.  W_k has integer powers in [1-3k, 1], so
Omega^{3k} dW/dOmega times that denominator is an integer polynomial, and
every one of its positive roots is isolated exactly before it is rounded to
a float: Descartes' rule on integer Bernstein coefficients, split by de
Casteljau halving, isolates them (Rouillier & Zimmermann, J. Comput. Appl.
Math. 162 (2004) 33).  Each root is then placed in its cell of width 2^-40
by exact signs, on one path: a float Newton guess only sets where that
search starts.

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
import operator
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
    """Finite Laurent polynomial sum_p c_p Omega^p with exact rational c_p.

    The coefficients are integer numerators over one positive denominator,
    c_p = numerators[p] / denominator, in lowest terms: no integer > 1
    divides the denominator and every numerator, so equal polynomials compare
    equal.  The reduced Fractions, terms, are formed when first read.
    """

    numerators: Dict[int, int]
    denominator: int = 1

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("the denominator must be positive")
        g = math.gcd(self.denominator, *self.numerators.values())
        if g > 1:
            object.__setattr__(self, "numerators", {p: c // g for p, c in self.numerators.items()})
            object.__setattr__(self, "denominator", self.denominator // g)

    @functools.cached_property
    def terms(self) -> Dict[int, Fraction]:
        """{power: coefficient} as reduced Fractions, in the order of numerators."""
        return {p: Fraction(c, self.denominator) for p, c in self.numerators.items()}

    @functools.cached_property
    def _float_terms(self) -> Tuple[Tuple[int, float], ...]:
        # the polynomial is never changed after construction, so it is
        # converted once; int / int is correctly rounded, as float(Fraction) is
        return tuple((p, c / self.denominator) for p, c in self.numerators.items())

    def evaluate(self, omega: float) -> float:
        if not 0 < omega < math.inf:
            raise ValueError(f"requires a finite Omega > 0, got {omega!r}")
        return sum(c * omega**p for p, c in self._float_terms)

    def evaluate_exact(self, omega: Fraction) -> Fraction:
        """The exact value at omega = u/v: one integer Horner pass for
        h = sum_p c_p u^(p-lo) v^(hi-p), then h u^lo / (v^hi denominator)
        as one Fraction, lo and hi the lowest and highest power."""
        if omega <= 0:
            raise ValueError("requires Omega > 0")
        u, v = Fraction(omega).as_integer_ratio()
        nums = self.numerators
        lo, hi = min(nums, default=0), max(nums, default=0)
        h, v_power = 0, 1
        for p in range(hi, lo - 1, -1):
            h = h * u + nums.get(p, 0) * v_power
            v_power *= v
        return Fraction(h * u ** max(lo, 0) * v ** max(-hi, 0),
                        self.denominator * u ** max(-lo, 0) * v ** max(hi, 0))

    def derivative(self) -> "LaurentInOmega":
        return LaurentInOmega({p - 1: c * p for p, c in self.numerators.items() if p != 0},
                              self.denominator)

    def scale(self, omega: float) -> float:
        """Sum of term magnitudes at omega: the natural cancellation scale."""
        return sum(abs(c) * omega**p for p, c in self._float_terms)


@functools.cache
def _shape(j: int, T: int) -> Tuple[Tuple[int, ...], int]:
    """S_{j,T}(x) = sum_{t<=T} C((1-3j)/2, t) (x - 1)^t as integer numerators
    of x^u, u = 0 .. T, over one positive denominator; the key (j, T) is all
    the value depends on."""
    den = math.factorial(T) << T  # 2^T T! C((1-3j)/2, t) is an integer for t <= T
    binom = [int(generalized_binomial(Fraction(1 - 3 * j, 2), t) * den) for t in range(T + 1)]
    nums = [sum(binom[t] * math.comb(t, u) * (-1) ** (t - u) for t in range(u, T + 1))
            for u in range(T + 1)]
    g = math.gcd(den, *nums)
    return tuple(c // g for c in nums), den // g


def _rational(name: str, value: Exactish) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):  # NaN, inf, "1/0", "x"
        raise ValueError(f"{name} must be a finite rational number, got {value!r}") from None


def w_laurent(
    table: CoefficientTable,
    k: int,
    g_over_4: Exactish,
    delta: Exactish,
) -> LaurentInOmega:
    """W_k(Omega) as an exact Laurent polynomial, reduced units omega=1.

    W_k = sum_{j<=k} E_j(d) gbar^j Omega^{1-3j} S_{j,k-j}(Omega^-2): the term
    x^u of S_{j,k-j} lands on the power 1 - 3j - 2u.  The sum runs in Python
    ints over one denominator.  With gbar = gn/gd and 2d = dn/dd, E_j(d) gbar^j
    is gn^j times the Horner sum in (dn, dd) of the row's E_jn over the lcm L_j
    of their denominators, all over L_j (dd gd)^j.  The shape polynomials
    S_{j,T} are integer numerators over one denominator, cached on (j, T).
    Every power's coefficient is accumulated as an int over the lcm of the
    products of the two denominators, and the result keeps those ints; its
    Fractions are formed only when read.  Powers are inserted in the order of
    the first (j + u, j) that reaches them, as in the sum over eps_l; that is
    descending unless some E_j(d) vanishes.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > table.kmax:
        raise ValueError(f"k={k} exceeds table kmax={table.kmax}")
    gbar = _rational("g_over_4", g_over_4)
    if gbar <= 0:
        raise ValueError("requires g/4 > 0")
    gn, gd = gbar.numerator, gbar.denominator
    dn, dd = (2 * _rational("delta", delta)).as_integer_ratio()
    shapes = [_shape(j, k - j) for j in range(k + 1)]
    nums: List[int] = []  # E_j(d) gbar^j over the shape denominator: nums[j] / dens[j]
    dens: List[int] = []
    for j, (_, shape_den) in enumerate(shapes):
        row = [table.entry(j, n) for n in range(j + 1)]
        L = math.lcm(*(e.denominator for e in row))
        h, dd_power = 0, 1
        for e in reversed(row):
            h = h * dn + e.numerator * (L // e.denominator) * dd_power
            dd_power *= dd
        nums.append(h * gn**j)
        dens.append(L * shape_den * (dd * gd) ** j)
    den = math.lcm(*dens)
    scaled = [h * (den // d) for h, d in zip(nums, dens)]
    terms: Dict[int, int] = {}
    for l in range(k + 1):
        for j in range(l + 1):
            if scaled[j]:
                p = 1 - j - 2 * l  # 1 - 3j - 2u with u = l - j
                terms[p] = terms.get(p, 0) + scaled[j] * shapes[j][0][l - j]
    return LaurentInOmega({p: c for p, c in terms.items() if c}, den)


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


def _newton_step(a: List[int], u: int, e: int) -> Tuple[int, int]:
    """The sign of a(u / 2^e), as :func:`_sign_at` gives it, and the integer
    nearest to the Newton step a(u / 2^e) / a'(u / 2^e) in units of 2^-e (0
    where a' vanishes), from one Horner pass on h = 2^(e deg a) a(u / 2^e)
    and its derivative dh in u."""
    h = dh = 0
    for i, c in enumerate(reversed(a)):
        dh = dh * u + h
        h = h * u + (c << (e * i))
    return (h > 0) - (h < 0), (2 * h + dh) // (2 * dh) if dh else 0


def _bernstein(a: List[int]) -> List[int]:
    """Bernstein coefficients b_i of a on (0, 1), times one positive integer.

    The coefficient of x^(n-i) in (x + 1)^n a(1 / (x + 1)) is C(n, i) b_i.
    """
    n = len(a) - 1
    scaled = _taylor_shift(a[::-1])[::-1]
    L = math.lcm(*(math.comb(n, i) for i in range(n + 1)))
    return [c * (L // math.comb(n, i)) for i, c in enumerate(scaled)]


def _halves(b: List[int]) -> Tuple[List[int], List[int]]:
    """Bernstein coefficients of 2^n B(x / 2) and 2^n B((x + 1) / 2), by one
    de Casteljau pass in integers: with row 0 = b and row r the sums of
    adjacent entries of row r - 1, the left half is 2^(n-r) row_r[0] and the
    right half, read from its end, 2^(n-r) row_r[-1]."""
    n = len(b) - 1
    left, right, row = [b[0] << n], [b[-1] << n], b
    for shift in range(n - 1, -1, -1):
        row = list(map(operator.add, row, row[1:]))
        left.append(row[0] << shift)
        right.append(row[-1] << shift)
    right.reverse()
    return left, right


def _float_poly(a: List[int]) -> List[float]:
    """a / 2^(bits of its largest coefficient) in floats, high to low; each
    coefficient is rounded from its own leading bits, so a small one keeps
    its value instead of shifting to 0."""
    top = max(c.bit_length() for c in a)
    out = []
    for c in reversed(a):
        drop = max(c.bit_length() - 64, 0)
        out.append(math.ldexp(float(c >> drop), drop - top))
    return out


def _newton(f: List[float], lo: float, hi: float, s: int) -> float:
    """A float estimate of the one root of f (high to low) in (lo, hi), where
    f has the sign s just right of lo.  Newton from the midpoint; a step that
    leaves the bracket, which the float signs keep shrinking, is replaced by
    bisection.  It stops once a step or the bracket is within 2^-43 of x, a
    quarter or less of the width of the cells :func:`_refine` searches."""
    x = (lo + hi) / 2
    for _ in range(64):
        v = dv = 0.0
        for c in f:
            dv = dv * x + v
            v = v * x + c
        if v == 0:
            break
        if (v > 0) == (s > 0):
            lo = x
        else:
            hi = x
        y = x - v / dv if dv else lo
        if not lo < y < hi:
            y = (lo + hi) / 2
        if abs(y - x) <= 2**-43 * x or hi - lo <= 2**-43 * x:
            return y
        x = y
    return x


def _refine(Q: List[int], u: int, e: int, s: int, x: float) -> Tuple[int, int]:
    """The root of Q in (u, u + 1) / 2^e, where Q has the sign s just right of
    u / 2^e, as (w, f) with root ~ w / 2^f, for any float guess x.

    The reference halves (u, u + 1) / 2^e by the exact sign at the midpoint
    until the cell index reaches 2^40 at some level f, and returns the cell's
    midpoint, or the root itself if a midpoint hits it.  Here x, clipped into
    the interval, only sets where that cell is sought: on the grid of level
    E = max(e, 41 - frexp exponent of x), the exact sign and Newton step at
    floor(x 2^E) (:func:`_newton_step`, clipped into the interval), then exact
    signs from the grid point that step reaches, 1, 2, 4, .. steps apart, and
    bisection find the cell (c, c + 1) / 2^E that holds the root, or the root
    c / 2^E itself.  The interval's ends are never evaluated: they carry the
    signs s and -s, and either may be a root of Q found at a midpoint.  A
    cell index below 2^40 is halved on as in the reference; one of 2^41 or
    more drops its low bits down to level f.
    """
    x = min(math.ldexp(u + 1, -e), max(math.ldexp(u, -e), x))  # NaN goes to the left end
    E = max(e, 41 - math.frexp(x)[1])
    lo, hi = u << (E - e), (u + 1) << (E - e)
    v, step, t = min(max(int(math.ldexp(x, E)), lo + 1), hi - 1), 1, s
    if lo < v < hi:  # the Newton pass gives the sign at v, then a step toward the root
        t, dv = _newton_step(Q, v, E)
        if t == -s:
            hi, v = v, min(v - dv, v - 1)
        else:  # t == s, or t == 0 at the root
            lo, v = v, max(v - dv, v + 1)
    while t and hi - lo > 1:
        if not lo < v < hi:
            v = (lo + hi) // 2
        t = _sign_at(Q, v, E)
        if t == -s:
            hi, v = v, v - step
        else:  # t == s, or t == 0 at the root
            lo, v = v, v + step
        step *= 2
    c = lo
    while t and not c >> 40:
        c, E = 2 * c + 1, E + 1
        t = _sign_at(Q, c, E)
        if t == -s:
            c -= 1
    drop = min(E - e, max(c.bit_length() - 41, 0))
    w, f = c >> drop, E - drop
    if not t and w << drop == c:  # the root is a grid point of level f
        return w, f
    return 2 * w + 1, f + 1


def _positive_roots(fn: LaurentInOmega) -> List[float]:
    """Every root Omega > 0 of fn, ascending, isolated in integer arithmetic.

    Omega^(-min power) fn times its denominator is an integer polynomial, read
    off fn.numerators; Omega = 2^m x maps all its roots into |x| < 1
    (Fujiwara's bound).  A piece of it on (u, u + 1) / 2^e, held as integer
    multiples of its Bernstein coefficients on that interval, is dropped,
    kept as isolating or halved as those coefficients have 0, 1 or more sign
    changes (Descartes' rule in the Bernstein basis; the counts are those of
    (x + 1)^n A(1 / (x + 1)) for the piece A(x) on (0, 1)).  Halving is one
    integer de Casteljau pass.  The first nonzero coefficient of an isolating
    piece has the sign of Q just right of its left end: halving scales by
    positive integers, and a midpoint root divided out lies at or left of that
    end.  Each isolating interval is then narrowed to the cell of width 2^-40 of its left end that
    holds the root, and the cell's midpoint is returned: exact signs search
    for that cell from a float Newton guess (:func:`_refine`).  A multiple
    root, or roots that do not separate at that width, raise RuntimeError.
    """
    terms = {p: c for p, c in fn.numerators.items() if c}
    if not terms:
        return []
    low = min(terms)
    P = [0] * (max(terms) - low + 1)
    for p, c in terms.items():
        P[p - low] = c
    n, lead = len(P) - 1, P[-1].bit_length()
    # 2^m >= 2 max_i |P_i / P_n|^(1 / (n - i)) bounds every |root|
    m = max([0] + [1 - (lead - c.bit_length() - 1) // (n - i) for i, c in enumerate(P[:-1]) if c])
    Q = [c << (m * i) for i, c in enumerate(P)]
    exact, isolated, pieces = [], [], [(0, 0, _bernstein(Q))]
    while pieces:
        u, e, B = pieces.pop()
        signs = [c > 0 for c in B if c]
        changes = sum(s != t for s, t in zip(signs, signs[1:]))
        if changes == 1:
            isolated.append((u, e, 1 if signs[0] else -1))
        if changes < 2:
            continue
        left, right = _halves(B)
        if u >> 40 or right[0] == right[1] == 0:
            raise RuntimeError("a multiple root, or roots closer than 2^-40 relative, near "
                               f"Omega = {math.ldexp(2 * u + 1, m - e - 1):.12g}")
        if right[0] == 0:  # a root at the midpoint: divide it out of the right half
            exact.append((2 * u + 1, e + 1))
            L = math.lcm(*range(1, len(right)))
            right = [c * (L // j) for j, c in enumerate(right[1:], 1)]
        pieces += [(2 * u, e + 1, left), (2 * u + 1, e + 1, right)]
    F = _float_poly(Q)
    for u, e, s in isolated:
        exact.append(_refine(Q, u, e, s, _newton(F, math.ldexp(u, -e), math.ldexp(u + 1, -e), s)))
    return sorted(math.ldexp(u, m - e) for u, e in exact)


def optimize_omega(W: LaurentInOmega, k: int, selection: str = "min_w") -> VptOrderResult:
    """Locate stationary points of W and select the optimal Omega_k.

    Every positive root of dW/dOmega is a candidate, found by exact root
    isolation (:func:`_positive_roots`) on the whole half-line Omega > 0.  If
    there is none, the roots of d2W/dOmega2 (turning points) are used; if
    there is none of those either, RuntimeError is raised.  selection="min_w"
    picks the candidate with the lowest W, "min_omega" the leftmost one.
    A root whose float residual exceeds 1e-10 (1e-8 for turning points) of
    the term-magnitude sum raises RuntimeError.
    """
    if selection not in ("min_w", "min_omega"):
        raise ValueError(f"unknown selection {selection!r}")
    fn, kind, rtol = W.derivative(), "extremum", 1e-10
    roots = _positive_roots(fn)
    if not roots:  # d2W/dOmega2 is built only when it is read
        fn, kind, rtol = fn.derivative(), "turning_point", 1e-8
        roots = _positive_roots(fn)
    if not roots:
        raise RuntimeError(f"W_{k} has no stationary or turning point at Omega > 0")
    # stationarity quality, scaled by the term-magnitude sum
    for r in roots:
        residual, scale = abs(fn.evaluate(r)), max(1.0, fn.scale(r))
        if not residual <= rtol * scale:
            raise RuntimeError(f"Omega = {r!r} is not a {kind} of W_{k}: residual {residual:.3e} "
                               f"exceeds {rtol:g} of the term scale {scale:.3e}")
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
