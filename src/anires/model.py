r"""The two-dimensional quartic model integral with cubic anisotropy.

Partition function of the zero-dimensional field theory

    Z(g, d) = (1/2 pi) int dx dy exp{-(x^2+y^2)/2
                                     - (g/4)[x^4 + 2(1-d) x^2 y^2 + y^4]},

with coupling g > 0 and anisotropy d < 2.  Everything about it is exactly
computable, which makes it the testing ground for the resummation machinery:

* exact double-series coefficients ``Z_kn`` (:func:`z_coeff`) and the
  single-series coefficients ``Z_k(d)`` both as exact polynomials
  (:func:`z_coeff_delta`) and as a sign and a log through a Legendre
  closed form (:func:`z_coeff_delta_scaled`),
* a one-dimensional Bessel-kernel reference integral (:func:`z_reference`),
* the strong-coupling prefactor kappa(d) with Z -> kappa(d) g^{-1/2}
  (:func:`strong_coupling_kappa`),
* the tunneling imaginary part on the negative-g cut, organized per power of
  the anisotropy (:func:`imaginary_part_terms`), and the prefactor
  :func:`gamma_n` of the large-order law it induces through the dispersion
  relation (evaluated by :func:`anires.series.large_order_estimate`), with
  the fixed-d estimate :func:`large_order_estimate_delta`.

Conventions: coefficients are defined by Z = sum_{k,n} Z_kn g^k d^n; the sign
pattern is sign(Z_kn) = (-1)^{k+n}.  The imaginary part is stored as positive
prefactors, with the alternation (-1)^n and the overall minus sign of Im Z
applied at assembly time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Union

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_semiline
from .series import CoefficientTable, LargeOrderParams, SignedLog
from .specfun import bessel_i0_scaled, legendre_scaled

__all__ = [
    "MODEL_SIGMA",
    "MODEL_ALPHA",
    "ModelCoefficients",
    "ImaginaryPartTerm",
    "z_coeff",
    "z_coeff_delta",
    "z_coeff_delta_scaled",
    "z_reference",
    "strong_coupling_kappa",
    "KappaResult",
    "imaginary_part_terms",
    "imaginary_part",
    "gamma_n",
    "large_order_estimate_delta",
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
        entries = {(k, n): z_coeff(k, n) for k in range(kmax + 1) for n in range(k + 1)}
        return cls(CoefficientTable(entries, kmax))


def z_coeff_delta(k: int, delta: Union[Fraction, int]) -> Fraction:
    """Exact Z_k(d) = sum_{n<=k} Z_kn d^n for rational d."""
    if k < 0:
        raise ValueError(f"negative order {k}")
    d = Fraction(delta)
    total = Fraction(0)
    for n in range(k + 1):
        total += z_coeff(k, n) * d**n
    return total


def z_coeff_delta_scaled(k: int, delta: float) -> SignedLog:
    """Z_k(d) through the closed form

    Z_k(d) = ((-1)^k / k!) (2k)! (1 - d/2)^{k/2} P_k((4-d)/(2 sqrt(4-2d))),

    evaluated in log space with the scaled Legendre recurrence.  Usable far
    beyond the float overflow threshold (k ~ 10^5); this is the production
    path for crossover scans, cross-validated against :func:`z_coeff_delta`
    at small k.
    """
    if k < 0:
        raise ValueError(f"negative order {k}")
    if not delta < 2.0:
        raise ValueError(f"requires delta < 2, got {delta}")
    if k == 0:
        return SignedLog(1, 0.0)
    x = (4.0 - delta) / (2.0 * math.sqrt(4.0 - 2.0 * delta))  # >= 1 for all d < 2
    mantissa, exponent = legendre_scaled(k, x)
    ln_abs = (
        math.lgamma(2 * k + 1)
        - math.lgamma(k + 1)
        + 0.5 * k * math.log1p(-0.5 * delta)
        + (math.log(mantissa) + exponent * math.log(2.0))  # ln P_k(x)
    )
    return SignedLog(-1 if k % 2 else 1, ln_abs)


def z_reference(g: float, delta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    r"""Reference value of Z(g, d) from the one-dimensional integral

    .. math:: Z = \int_0^\infty d\rho\; e^{-\rho - g(1-d/4)\rho^2}
              I_0\!\left(\tfrac{d}{4} g \rho^2\right).

    The Bessel factor enters in exponentially scaled form, with the
    exponents combined analytically, so the integrand never overflows:
    for any sign of d the combined exponent stays negative for d < 2.
    """
    if not g > 0:
        raise ValueError(f"requires g > 0, got {g}")
    if not delta < 2.0:
        raise ValueError(f"requires delta < 2, got {delta}")
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


class KappaResult(NamedTuple):
    value: float
    remainder: float  # geometric tail estimate after the last term


def strong_coupling_kappa(delta: float, terms: int) -> KappaResult:
    r"""Partial sum of the strong-coupling prefactor

    .. math:: \kappa(d) = \frac{\sqrt\pi}{2} \sum_{n\ge 0}
              \frac{((2n)!)^2}{(n!)^4\, 2^{5n}}\, d^n ,

    convergent for |d| < 2 (term ratio tends to d/2).  Returns the sum of the
    first ``terms`` terms plus a geometric remainder estimate.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if abs(delta) >= 2.0:
        warnings.warn(f"kappa series diverges for |delta| >= 2 (got {delta})", stacklevel=2)
    # term ratio t_n / t_{n-1} = d (2n-1)^2 / (8 n^2), tending to d/2
    total = 0.0
    term = math.sqrt(math.pi) / 2.0
    last_ratio = abs(delta) / 2.0
    for n in range(terms):
        if n > 0:
            ratio = delta * (2 * n - 1) ** 2 / (8.0 * n * n)
            term *= ratio
            last_ratio = abs(ratio)
        total += term
    if last_ratio < 1.0:
        remainder = abs(term) * last_ratio / (1.0 - last_ratio)
    else:
        remainder = math.inf
    return KappaResult(total, remainder)


@dataclass(frozen=True)
class ImaginaryPartTerm:
    """One power of the anisotropy in the imaginary part on the cut.

    The term reads ``prefactor * (1/(sigma |g|))^power * exp(-1/(sigma |g|))``
    with positive ``prefactor``; the alternation (-1)^n and any overall sign
    are applied by the assembling function, not stored here.
    """

    n: int
    prefactor: float
    exponent_scale: float  # the sigma in exp(-1/(sigma |g|))
    power: float

    def magnitude(self, g_abs: float) -> float:
        if g_abs <= 0:
            raise ValueError("need |g| > 0")
        u = 1.0 / (self.exponent_scale * g_abs)
        if u > 700.0:
            return 0.0
        return self.prefactor * u**self.power * math.exp(-u)


def imaginary_part_terms(n_max: int) -> List[ImaginaryPartTerm]:
    """Terms of Im Z = -sum_n (-1)^n d^n Gamma(n+1/2)/(2^n n!^2)
    (1/(4|g|))^{n+1/2} e^{-1/(4|g|)}.

    prefactor_n = Gamma(n+1/2) / (2^n n!^2) = sqrt(pi) (2n)! / (8^n n!^3).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = []
    for n in range(n_max + 1):
        pref = math.sqrt(math.pi) * math.factorial(2 * n) / (8**n * math.factorial(n) ** 3)
        out.append(ImaginaryPartTerm(n, pref, 4.0, n + 0.5))
    return out


def imaginary_part(g_abs: float, delta: float, n_max: int) -> float:
    """Im Z(-|g| + i0, d) truncated at d^{n_max} (leading order in g)."""
    total = 0.0
    for term in imaginary_part_terms(n_max):
        total += (-delta) ** term.n * term.magnitude(g_abs)
    return -total


def gamma_n(n: int) -> float:
    """The prefactor gamma_n = (-1)^n Gamma(n+1/2) / (pi 2^n n!^2) of
    Z_kn ~ gamma_n (-4)^k k! k^{n-1/2}, the law that
    ``series.large_order_estimate(model_large_order_params(), gamma_n(n), k, n)``
    evaluates."""
    return (-1) ** n * math.exp(math.lgamma(n + 0.5) - n * math.log(2.0)
                                - 2.0 * math.lgamma(n + 1.0)) / math.pi


def large_order_estimate_delta(k: int, delta: float) -> SignedLog:
    """Regime-resolved estimate of Z_k(d) at fixed d.

    d > 0: growth 4^k with subleading k^{-1},
    d < 0: growth (4-2d)^k with subleading k^{-1},
    d = 0: isotropic 4^k k! k^{-1/2} / sqrt(pi).
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    sign = -1 if k % 2 else 1
    if delta == 0.0:
        ln_abs = -0.5 * math.log(math.pi) + k * math.log(4.0) + math.lgamma(k + 1.0) - 0.5 * math.log(k)
        return SignedLog(sign, ln_abs)
    if delta > 0:
        ln_abs = (
            0.5 * math.log(2.0)
            - math.log(math.pi)
            + k * math.log(4.0)
            + math.lgamma(k + 1.0)
            - math.log(k)
            - 0.5 * math.log(delta)
        )
        return SignedLog(sign, ln_abs)
    ln_abs = (
        0.5 * math.log(2.0 - delta)
        - math.log(math.pi)
        + k * math.log(4.0 - 2.0 * delta)
        + math.lgamma(k + 1.0)
        - math.log(k)
        - 0.5 * math.log(-delta)
    )
    return SignedLog(sign, ln_abs)


def model_large_order_params() -> LargeOrderParams:
    """Resummation input for the model: sigma = 4, alpha = -1/2 and
    b0(n) = n + 1, from beta(n) = n - 1/2."""
    return LargeOrderParams(sigma=MODEL_SIGMA, b0_offset=Fraction(1), alpha=MODEL_ALPHA)
