"""Lerch transcendent evaluation and verification of cube-integral identities.

The library computes Phi(z,s,u) = sum_{n>=0} z^n/(u+n)^s by several
independent algorithms, reduces a family of m-dimensional log-kernel cube
integrals to 1-D tanh-sinh quadrature, estimates the same integrals by
randomized quasi-Monte Carlo, and checks the resulting closed-form
identities (including the Euler-gamma and ln(4/pi) representations)
against each other at desk scale.
"""

from .constants import (
    EULER_GAMMA,
    LN_4_OVER_PI,
    ConstantResult,
    euler_gamma_via_integral,
    ln4_over_pi_via_integral,
)
from .errors import (
    CancellationWarning,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    PoleError,
)
from .identities import (
    ClosedForm,
    VerificationReport,
    build_integrand,
    rhs_theorem3_pair,
    rhs_theorem3_symmetric,
    rhs_theorem4,
    rhs_theorem5,
    verify,
    verify_batch,
    verify_dimension_lift,
)
from .lerch import LerchArgs, alt_lerch, hurwitz_zeta, phi
from .qmc import QmcOptions, QmcResult, halton_point, qmc_estimate
from .quad1d import KernelTerm, QuadResult, lerch_kernel_integral, reduced_eval
from .simplex import FAMILIES, IntegrandSpec, ReducedIntegrand, reduce
from .special import EvalResult, gamma

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA",
    "LN_4_OVER_PI",
    "CancellationWarning",
    "ClosedForm",
    "ConstantResult",
    "ConvergenceError",
    "DegeneracyError",
    "DomainError",
    "EvalResult",
    "EvaluationError",
    "FAMILIES",
    "IntegrandSpec",
    "KernelTerm",
    "LerchArgs",
    "PoleError",
    "QmcOptions",
    "QmcResult",
    "QuadResult",
    "ReducedIntegrand",
    "VerificationReport",
    "alt_lerch",
    "build_integrand",
    "euler_gamma_via_integral",
    "gamma",
    "halton_point",
    "hurwitz_zeta",
    "lerch_kernel_integral",
    "ln4_over_pi_via_integral",
    "phi",
    "qmc_estimate",
    "reduce",
    "reduced_eval",
    "rhs_theorem3_pair",
    "rhs_theorem3_symmetric",
    "rhs_theorem4",
    "rhs_theorem5",
    "verify",
    "verify_batch",
    "verify_dimension_lift",
]
