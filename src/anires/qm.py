r"""Large-order behavior and Borel resummation of the oscillator energy.

The ground-state energy is tabulated as E = sum (g/4)^k (2d)^n E_kn (see
:mod:`anires.benderwu`).  In these variables the coefficients grow like

    E_kn ~ gamma_n (-1)^k sigma^k k! k^n,        sigma = 3,

with gamma_n = -(6/pi^2) ((-1)^n / n!) B(n+1/2, n+1/2), as follows from the
tunneling imaginary part

    Im E = (6/pi) sum_n ((-2 d)^n / n!) B(n+1/2, n+1/2)
           (4/(3|g|))^{n+1} exp(-4/(3|g|))

through the dispersion relation.  Note 4/(3|g|) = 1/(3 |g/4|): the growth
constant is 3 in the tabulation variable gbar = g/4, equivalently 3/4 in raw
g.  The Table-derived ratio |E_{12,0}/E_{11,0}| = 37.546 ~ 3*12 confirms the
gbar convention used here; the resummation exposes sigma as a parameter
(larger values improve the fit at negative anisotropy).

Resummation parameters: b0(n) = n + 3/2 (from beta(n) = n), strong-coupling
exponent alpha = 1/3 (the energy grows like g^{1/3}).  The resummed energy is

    E^(N)(gbar, d) = sum_{n<=N} ( sum_{p=n}^{N} a_pn I_pn(gbar) ) (2 d)^n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .borel import ResummedApproximant, build_approximant
from .series import CoefficientTable, LargeOrderParams

__all__ = [
    "QM_ALPHA",
    "QM_DEFAULT_SIGMA",
    "qm_large_order_params",
    "qm_approximant",
]

QM_ALPHA = Fraction(1, 3)
QM_DEFAULT_SIGMA = Fraction(3)


def qm_large_order_params(sigma: Union[int, Fraction] = QM_DEFAULT_SIGMA) -> LargeOrderParams:
    """Resummation input of the E_kn table in the (g/4, 2 delta) variables."""
    return LargeOrderParams(sigma=Fraction(sigma), b0_offset=Fraction(3, 2), alpha=QM_ALPHA)


def qm_approximant(
    table: CoefficientTable,
    N: int,
    sigma: Union[int, Fraction] = QM_DEFAULT_SIGMA,
) -> ResummedApproximant:
    """Order-N approximant of the energy table (anisotropy variable 2 delta)."""
    return build_approximant(table, N, qm_large_order_params(sigma))
