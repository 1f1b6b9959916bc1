r"""Exact coefficient tables, double power series, and large-order diagnostics.

A :class:`CoefficientTable` stores the exact rational coefficients c_{kn} of a
double series ``sum_{k} sum_{n<=k} c_{kn} g^k d^n`` (k: order in the coupling,
n: order in the anisotropy).  Entries with k < n are identically zero and are
not stored.

The crossover diagnostic :func:`local_exponent` works on one column of such a
table in log space: for coefficients behaving like
``c_k ~ gamma (-sigma)^k k! k^beta`` it tracks

    f(k) = ln |c_k / ((-sigma)^k k!)|  =  beta ln k + const + ...

and estimates beta locally from two-point differences on the given k grid.
The crossover order is reported where the local slope first drops through the
midpoint between the two asymptotic regimes (beta = -1/2 and beta = -1), i.e.
through -3/4.  The midpoint definition is this package's own
convention; the qualitative statement it implements is only that the switch
happens near k ~ 1/|d|.

An application states what the resummation reads of that growth in a
:class:`LargeOrderParams`.  Magnitudes beyond the float range travel as a
:class:`SignedLog`, a sign and a natural log.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "CoefficientTable",
    "LargeOrderParams",
    "SignedLog",
    "CrossoverReport",
    "local_exponent",
    "log_abs_fraction",
]


class SignedLog(NamedTuple):
    """The real number ``sign * exp(ln)``: a magnitude far beyond the float
    range, kept as its natural log."""

    sign: int
    ln: float


Coefficient = Union[Fraction, int, float, SignedLog]

# the crossover slope: package convention, midpoint of -1/2 and -1
_CROSSOVER_SLOPE = -0.75

# what entry returns off the stored triangle; Fractions are immutable
_ZERO = Fraction(0)


def checked_kmax(kmax) -> int:
    """kmax as an int >= 0; anything else raises an error that names kmax."""
    try:
        kmax = operator.index(kmax)
    except TypeError:
        raise TypeError(f"kmax must be an int, got {kmax!r}") from None
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return kmax


class CoefficientTable:
    """Triangular table (k, n) -> exact rational, 0 <= n <= k <= kmax.

    Immutable after construction.
    """

    def __init__(self, entries: Mapping[Tuple[int, int], Fraction], kmax: int):
        kmax = checked_kmax(kmax)
        table: Dict[Tuple[int, int], Fraction] = {}
        for (k, n), value in entries.items():
            if not (0 <= n <= k <= kmax):
                raise ValueError(f"entry ({k},{n}) outside triangular range kmax={kmax}")
            table[(k, n)] = Fraction(value)
        if (0, 0) not in table:
            raise ValueError("entry (0,0) is required")
        self._entries = table
        self._kmax = kmax

    @property
    def kmax(self) -> int:
        return self._kmax

    def entry(self, k: int, n: int) -> Fraction:
        if k < 0 or n < 0:
            raise ValueError(f"negative index ({k},{n})")
        if k > self._kmax:
            raise ValueError(f"k={k} exceeds kmax={self._kmax}")
        if k < n:
            return _ZERO
        return self._entries.get((k, n), _ZERO)

    def column(self, n: int, kmax: Optional[int] = None) -> List[Fraction]:
        """Coefficients of d^n for k = n .. kmax."""
        top = self._kmax if kmax is None else kmax
        return [self.entry(k, n) for k in range(n, top + 1)]

    def items(self) -> Iterable[Tuple[Tuple[int, int], Fraction]]:
        return sorted(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientTable):
            return NotImplemented
        return self._kmax == other._kmax and self._entries == other._entries


@dataclass(frozen=True)
class LargeOrderParams:
    """What the resummation reads of the growth c_{kn} ~ (-1)^k sigma^k k! k^{beta(n)}.

    ``b0_offset`` fixes the Borel parameter b0(n) = n + b0_offset, which is
    beta(n) + 3/2 in both applications; ``alpha`` is the strong-coupling
    exponent.  All three are rational so that downstream coefficient
    algebra stays exact.
    """

    sigma: Fraction
    b0_offset: Fraction
    alpha: Fraction

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class CrossoverReport:
    """Result of a local-exponent scan over a coefficient column."""

    k_grid: Tuple[int, ...]
    f_values: Tuple[float, ...]
    beta_local: Tuple[float, ...]  # slope on (k_i, k_{i+1}), one fewer entry
    k_cross: Optional[int]


def log_abs_fraction(value: Fraction) -> float:
    """ln |p/q| without overflowing, for arbitrarily large integers."""
    if value == 0:
        raise ValueError("log of zero")
    return math.log(abs(value.numerator)) - math.log(value.denominator)


def _ln_abs(value: Coefficient) -> float:
    if isinstance(value, SignedLog):
        return value.ln
    if isinstance(value, Fraction):
        return log_abs_fraction(value)
    return math.log(abs(value))


def _sign(value: Coefficient) -> int:
    if isinstance(value, SignedLog):
        return value.sign
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def local_exponent(
    column: Sequence[Coefficient],
    sigma: float,
    k_grid: Sequence[int],
) -> CrossoverReport:
    """Local growth exponent of a sign-alternating coefficient column.

    ``column[i]`` is the coefficient c_k at k = ``k_grid[i]``; entries may be
    exact rationals, floats, or :class:`SignedLog`.  The column must
    alternate in sign as (-1)^k across the grid.  Returns f(k), the two-point
    slopes, and the first grid point whose incoming slope has crossed
    -3/4 (None if no crossing inside the grid).
    """
    if len(k_grid) < 2:
        raise ValueError("k_grid needs at least 2 points")
    if len(column) != len(k_grid):
        raise ValueError("column and k_grid must have equal length")
    ks = list(k_grid)
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])) or ks[0] < 1:
        raise ValueError("k_grid must be strictly increasing and >= 1")

    base = None
    for k, value in zip(ks, column):
        s = _sign(value)
        if s == 0:
            raise ValueError(f"zero coefficient at k={k}")
        parity = s * (-1) ** k
        if base is None:
            base = parity
        elif parity != base:
            raise ValueError(f"sign pattern violated at k={k}")

    ln_sigma = math.log(sigma)
    fs = [_ln_abs(c) - k * ln_sigma - math.lgamma(k + 1) for k, c in zip(ks, column)]
    betas = [
        (fs[i + 1] - fs[i]) / (math.log(ks[i + 1]) - math.log(ks[i]))
        for i in range(len(ks) - 1)
    ]
    k_cross: Optional[int] = None
    for i, beta in enumerate(betas):
        if beta < _CROSSOVER_SLOPE:
            k_cross = ks[i + 1]
            break
    return CrossoverReport(tuple(ks), tuple(fs), tuple(betas), k_cross)
