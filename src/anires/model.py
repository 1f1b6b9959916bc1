r"""The two-dimensional quartic model integral with cubic anisotropy.

Partition function of the zero-dimensional field theory

    Z(g, d) = (1/2 pi) int dx dy exp{-(x^2+y^2)/2
                                     - (g/4)[x^4 + 2(1-d) x^2 y^2 + y^4]},

with coupling g > 0 and anisotropy d < 2.  Everything about it is exactly
computable, which makes it the testing ground for the resummation machinery:

* exact double-series coefficients ``Z_kn`` (:func:`z_coeff`) and the
  single-series coefficients ``Z_k(d)`` as a sign and a log through a
  Legendre closed form (:func:`z_coeff_delta_scaled`),
* a one-dimensional Bessel-kernel reference integral (:func:`z_reference`),
* the resummation input (:func:`model_large_order_params`).

The constants of that input follow from the tunneling imaginary part on the
negative-g cut,

    Im Z(-|g| + i0, d) = -sum_n (-d)^n Gamma(n+1/2) / (2^n n!^2)
                         (1/(4|g|))^{n+1/2} exp(-1/(4|g|)),

which the dispersion relation turns into the large-order law

    Z_kn ~ gamma_n (-4)^k k! k^{n-1/2},   gamma_n = (-1)^n Gamma(n+1/2) / (pi 2^n n!^2):

sigma = 4 and beta(n) = n - 1/2, so b0(n) = n + 1.  The strong-coupling limit
Z -> kappa(d) g^{-1/2} gives alpha = -1/2.

Conventions: coefficients are defined by Z = sum_{k,n} Z_kn g^k d^n; the sign
pattern is sign(Z_kn) = (-1)^{k+n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_semiline
from .series import CoefficientTable, LargeOrderParams, SignedLog, checked_kmax
from .specfun import bessel_i0_scaled, legendre_scaled_grid

__all__ = [
    "MODEL_SIGMA",
    "MODEL_ALPHA",
    "ModelCoefficients",
    "z_coeff",
    "z_coeff_delta_scaled",
    "z_coeffs_delta_scaled",
    "z_reference",
    "model_large_order_params",
]

MODEL_SIGMA = Fraction(4)
MODEL_ALPHA = Fraction(-1, 2)


def z_coeff(k: int, n: int) -> Fraction:
    """Exact coefficient Z_kn = (-1)^{k+n} (2n)! (2k)! / (8^n n!^3 (k-n)!)."""
    if k < 0 or n < 0:
        raise ValueError(f"negative index ({k},{n})")
    if k < n:
        return Fraction(0)
    sign = -1 if (k + n) % 2 else 1
    num = math.factorial(2 * n) * math.factorial(2 * k)
    den = 8**n * math.factorial(n) ** 3 * math.factorial(k - n)
    return Fraction(sign * num, den)


@dataclass(frozen=True)
class ModelCoefficients:
    """Exact table of Z_kn up to kmax."""

    table: CoefficientTable

    @classmethod
    def build(cls, kmax: int) -> "ModelCoefficients":
        kmax = checked_kmax(kmax)
        entries = {(k, n): z_coeff(k, n) for k in range(kmax + 1) for n in range(k + 1)}
        return cls(CoefficientTable(entries, kmax))


def z_coeff_delta_scaled(k: int, delta: float) -> SignedLog:
    """Z_k(d) through the closed form

    Z_k(d) = ((-1)^k / k!) (2k)! (1 - d/2)^{k/2} P_k((4-d)/(2 sqrt(4-2d))),

    evaluated in log space with the scaled Legendre recurrence.  Usable far
    beyond the float overflow threshold (k ~ 10^5).
    """
    return z_coeffs_delta_scaled([k], delta)[0]


def z_coeffs_delta_scaled(ks: list[int], delta: float) -> list[SignedLog]:
    """:func:`z_coeff_delta_scaled` at each of the increasing orders ``ks``,
    from one Legendre recurrence; the path of the crossover scans."""
    if not -math.inf < delta < 2.0:
        raise ValueError(f"requires a finite delta < 2, got {delta}")
    x = (4.0 - delta) / (2.0 * math.sqrt(4.0 - 2.0 * delta))  # >= 1 for all d < 2
    return [SignedLog(-1 if k % 2 else 1, math.lgamma(2 * k + 1) - math.lgamma(k + 1)
                      + 0.5 * k * math.log1p(-0.5 * delta)
                      + (math.log(mantissa) + exponent * math.log(2.0)))  # ln P_k(x)
            for k, (mantissa, exponent) in zip(ks, legendre_scaled_grid(ks, x))]


def z_reference(g: float, delta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    r"""Reference value of Z(g, d) from the one-dimensional integral

    .. math:: Z = \int_0^\infty d\rho\; e^{-\rho - g(1-d/4)\rho^2}
              I_0\!\left(\tfrac{d}{4} g \rho^2\right).

    The Bessel factor enters in exponentially scaled form, with the
    exponents combined analytically, so the integrand never overflows:
    for any sign of d the combined exponent stays negative for d < 2.
    """
    if not 0 < g < math.inf:
        raise ValueError(f"requires a finite g > 0, got {g}")
    if not -math.inf < delta < 2.0:
        raise ValueError(f"requires a finite delta < 2, got {delta}")
    quarter = 0.25 * delta * g
    # combined quadratic coefficient after absorbing the Bessel scaling:
    # g(1 - d/2) for d > 0, g for d <= 0; positive for all d < 2
    coeff = g * (1.0 - 0.25 * delta) - abs(quarter)

    def integrand(rho: float) -> float:
        expo = -rho - coeff * rho * rho
        if expo < -745.0:  # also catches the inf tail of the node sweep
            return 0.0
        arg = abs(quarter) * rho * rho
        return math.exp(expo) * bessel_i0_scaled(arg)

    return integrate_semiline(integrand, spec).value


def model_large_order_params() -> LargeOrderParams:
    """Resummation input for the model: sigma = 4, alpha = -1/2 and
    b0(n) = n + 1, from beta(n) = n - 1/2."""
    return LargeOrderParams(sigma=MODEL_SIGMA, b0_offset=Fraction(1), alpha=MODEL_ALPHA)
