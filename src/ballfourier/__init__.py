"""Orthogonal polynomials on the unit ball, their closed-form Fourier
transforms, and a quadrature oracle that machine-checks the identities."""

from .ball import (ball_basis_eval, ball_norm, ball_operator_residual,
                   ball_polynomial, tail_sum, validate_multi_index)
from .classical import (continuous_hahn, gegenbauer, gegenbauer_norm,
                        hahn_orthogonality_constant, jacobi)
from .dfamily import DParams, d_family_eval, d_orthogonality_constant
from .errors import (DenominatorPoleError, DomainError,
                     NonFiniteIntegrandError, PoleError)
from .hypergeometric import HypergeometricSpec, hyp3f2_unit
from .quadrature import (QuadratureSpec, ball_inner_product_numeric,
                         d_biorthogonality_integral, fourier_numeric,
                         fourier_numeric_table, hahn_orthogonality_integral,
                         parseval_sides)
from .special import gamma, log_gamma, pochhammer
from .tanh_family import (FamilyParams, family_eval, fourier_closed_form,
                          fourier_closed_form_table, fourier_via_recursion,
                          theta_factor, theta_factor_hahn)
from .verify import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "FamilyParams", "DParams", "HypergeometricSpec",
    "QuadratureSpec", "VerificationReport",
    "PoleError", "DenominatorPoleError", "DomainError", "NonFiniteIntegrandError",
    "log_gamma", "gamma", "pochhammer",
    "hyp3f2_unit",
    "jacobi", "gegenbauer", "gegenbauer_norm", "continuous_hahn",
    "hahn_orthogonality_constant",
    "tail_sum", "validate_multi_index", "ball_basis_eval",
    "ball_norm", "ball_polynomial", "ball_operator_residual",
    "family_eval",
    "theta_factor", "theta_factor_hahn", "fourier_closed_form", "fourier_closed_form_table",
    "fourier_via_recursion",
    "d_family_eval", "d_orthogonality_constant",
    "fourier_numeric", "fourier_numeric_table", "ball_inner_product_numeric",
    "hahn_orthogonality_integral", "d_biorthogonality_integral", "parseval_sides",
    "__version__",
]
