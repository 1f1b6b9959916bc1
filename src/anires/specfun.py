r"""Scalar special functions with overflow-safe scaled variants.

The quantities handled downstream (factorially growing series coefficients,
Legendre polynomials of degree up to ~10^5) overflow IEEE doubles long before
the diagnostics that consume them are done.  The binomials here are therefore
exact rationals (:class:`fractions.Fraction`), the Legendre recurrence keeps
a float mantissa in ``[1, 2)`` with an unbounded integer power of two, and the
Bessel function comes exponentially scaled as ``e^{-x} I_0(x)``.  All of it is
pure scalar code with no external dependencies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple, Union

__all__ = [
    "generalized_binomial",
    "legendre_scaled",
    "legendre_scaled_grid",
    "bessel_i0_scaled",
]

# Exact power series below, asymptotic expansion above.  At the switch point
# the asymptotic tail bottoms out near 1e-14 relative, the series needs ~60
# terms; both sides hold 1e-13.
_BESSEL_SWITCH = 30.0


def generalized_binomial(x: Union[int, Fraction, float], m: int) -> Fraction:
    """Binomial coefficient ``C(x, m) = x (x-1) ... (x-m+1) / m!`` for real x.

    The upper index may be any real number (negative and fractional upper
    indices both occur in the reexpansion formulas).  The result is an exact
    :class:`~fractions.Fraction`; a float ``x`` is converted exactly first.
    """
    if m < 0:
        raise ValueError(f"lower index must be >= 0, got {m}")
    xq = Fraction(x)
    num = Fraction(1)
    for i in range(m):
        num *= xq - i
    return num / math.factorial(m)


def legendre_scaled(k: int, x: float) -> Tuple[float, int]:
    r"""Legendre polynomial :math:`P_k(x)` for :math:`x \ge 1`, scaled.

    Uses the three-term recurrence

    .. math:: (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x)

    with a renormalization into ``mantissa * 2**exponent`` form at every
    step, so degrees up to ~10^5 are reachable even though
    :math:`P_k(x) \sim (x + \sqrt{x^2-1})^k` overflows doubles near k ~ 200
    already for moderate x.  On ``x >= 1`` the recurrence runs in the
    direction of the dominant solution and is numerically stable.

    Parameters
    ----------
    k : int
        Degree, ``k >= 0``.
    x : float
        Argument, ``x >= 1``.

    Returns
    -------
    (mantissa, exponent)
        ``P_k(x) = ldexp(mantissa, exponent) > 0`` with ``mantissa`` in
        ``[1, 2)`` and ``exponent`` an unbounded integer.
    """
    return legendre_scaled_grid([k], x)[0]


def legendre_scaled_grid(ks: List[int], x: float) -> List[Tuple[float, int]]:
    """:func:`legendre_scaled` at each of the increasing degrees ``ks``, all
    from one pass of the recurrence up to the last degree."""
    if min(ks) < 0 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"degrees must be >= 0 and increase, got {list(ks)}")
    if not 1.0 <= x < math.inf:
        raise ValueError(f"legendre_scaled requires a finite x >= 1, got {x}")
    m, e = math.frexp(x)  # m in [0.5, 1)
    out = [(1.0, 0)] if ks[0] == 0 else []
    if 1 in ks:
        out.append((2.0 * m, e - 1))
    p_prev = 1.0  # P_0
    p_cur = x  # P_1
    expo = 0
    degree = 1  # of p_cur
    for k in ks[len(out):]:
        for j in range(degree, k):
            p_next = ((2 * j + 1) * x * p_cur - j * p_prev) / (j + 1)
            _, e = math.frexp(p_next)
            shift = e - 1  # bring p_next into [1, 2)
            p_prev = math.ldexp(p_cur, -shift)
            p_cur = math.ldexp(p_next, -shift)
            expo += shift
        degree = k
        out.append((p_cur, expo))
    return out


def bessel_i0_scaled(x: float) -> float:
    r"""Exponentially scaled modified Bessel function :math:`e^{-x} I_0(x)`.

    For ``x <= 30`` the defining power series
    :math:`I_0(x) = \sum_m (x/2)^{2m} / (m!)^2` is summed directly (all terms
    positive, perfectly conditioned) and multiplied by ``exp(-x)``.  Above the
    switch point the large-argument expansion

    .. math:: e^{-x} I_0(x) \sim \frac{1}{\sqrt{2\pi x}}
              \sum_k \frac{((2k-1)!!)^2}{k! (8x)^k}

    is truncated at its smallest term, which at x = 30 is already below
    1e-13 relative.  Valid for all ``x >= 0``; the result never overflows.
    """
    if not x >= 0:
        raise ValueError(f"bessel_i0_scaled requires x >= 0, got {x}")
    if x <= _BESSEL_SWITCH:
        q = 0.25 * x * x
        total = 1.0
        term = 1.0
        m = 0
        while True:
            m += 1
            term *= q / (m * m)
            total += term
            if term <= 1e-17 * total:
                break
        return math.exp(-x) * total
    total = 1.0
    term = 1.0
    for j in range(1, 40):
        nxt = term * (2 * j - 1) ** 2 / (8.0 * j * x)
        if nxt >= term:  # asymptotic tail turned around
            break
        term = nxt
        total += term
        if term <= 1e-17 * total:
            break
    return total / math.sqrt(2.0 * math.pi * x)
