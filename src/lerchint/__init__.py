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
from .lerch import LerchArgs, phi, phi_du_fd, phi_shift_u
from .qmc import QmcOptions, QmcResult, halton_point, qmc_estimate
from .quad1d import KernelTerm, QuadResult, lerch_kernel_integral, reduced_eval, tanh_sinh
from .simplex import (
    FAMILIES,
    IntegrandSpec,
    ReducedIntegrand,
    brute_simplex,
    distinct_exponent_simplex,
    lagrange_residual,
    log_simplex_volume,
    power_sum_simplex,
    reduce,
)
from .special import EvalResult, alt_lerch, gamma, hurwitz_zeta

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
    "brute_simplex",
    "build_integrand",
    "distinct_exponent_simplex",
    "euler_gamma_via_integral",
    "gamma",
    "halton_point",
    "hurwitz_zeta",
    "lagrange_residual",
    "lerch_kernel_integral",
    "ln4_over_pi_via_integral",
    "log_simplex_volume",
    "phi",
    "phi_du_fd",
    "phi_shift_u",
    "power_sum_simplex",
    "qmc_estimate",
    "reduce",
    "reduced_eval",
    "rhs_theorem3_pair",
    "rhs_theorem3_symmetric",
    "rhs_theorem4",
    "rhs_theorem5",
    "tanh_sinh",
    "verify",
    "verify_batch",
    "verify_dimension_lift",
]
