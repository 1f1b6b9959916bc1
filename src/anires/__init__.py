"""anires: resummation toolkit for divergent anisotropic perturbation series.

Subpackage map:

* :mod:`anires.specfun`    scalar special functions, scaled Legendre and Bessel
* :mod:`anires.quadrature` double-exponential integrators on (0,1), (0,inf)
* :mod:`anires.series`     exact coefficient tables, large-order input, crossover
* :mod:`anires.model`      the 2-D quartic model integral, exact and numeric
* :mod:`anires.borel`      hypergeometric-Borel resummation engine
* :mod:`anires.benderwu`   exact oscillator perturbation coefficients
* :mod:`anires.qm`         oscillator large-order input and resummed energy
* :mod:`anires.vpt`        variational perturbation theory
* :mod:`anires.cli`        command-line interface (`anires ...`)
"""

from .specfun import bessel_i0_scaled, generalized_binomial, legendre_scaled
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    integrate_semiline,
    integrate_unit,
)
from .series import (
    CoefficientTable,
    CrossoverReport,
    LargeOrderParams,
    SignedLog,
    local_exponent,
)
from .model import (
    ModelCoefficients,
    model_large_order_params,
    z_coeff,
    z_coeff_delta_scaled,
    z_reference,
)
from .borel import (
    BorelBasisSpec,
    ResummedApproximant,
    approximant_to_json,
    basis_integral,
    basis_integral_tform,
    basis_integrals,
    borel_coefficients,
    build_approximant,
    reexpansion_check,
)
from .benderwu import BwState, build as benderwu_build
from .qm import (
    qm_approximant,
    qm_large_order_params,
)
from .vpt import (
    LaurentInOmega,
    OmegaCandidate,
    VptOrderResult,
    optimize_omega,
    vpt_energy,
    w_laurent,
)

__version__ = "0.1.0"
