"""Kernels, truncated matrix models and explicit spectral data for a
family of Hankel integral operators."""

from .combinatorics import alternating_factorial_identity, p_poly, sum_identity
from .kernels import (
    KernelEvaluation,
    X_MIN_CLOSED,
    evaluate,
    exp_poly_self_convolution,
    fourier_psi_tilde,
    fourier_xi_pow,
    k_asymptotic,
    k_closed,
    k_conv,
    lp_diagnostic,
    p_term,
    q_term,
    symbol_psi_ell,
)
from .quadrature import (
    QuadratureBudgetError,
    QuadratureResult,
    fourier_symbol_oracle,
    improper_damped,
    integrate_adaptive,
)
from .specfun import (
    EULER_GAMMA,
    L_MAX,
    SINC_ORDER_MAX,
    damped_moment_shifted,
    damped_trig_moment,
    e1,
    e1_scaled,
    ein,
    gamma_abs_sq,
    sinc,
    sinc_derivative,
)
from .spectral import (
    DiagonalizationDescriptor,
    SpectralDensityPoint,
    block_parameters,
    density_rho,
    diagonalization_of,
    multiplier_h,
)

__version__ = "0.1.0"

__all__ = [
    "BlockCertificate",
    "DiagonalizationDescriptor",
    "EULER_GAMMA",
    "HankelTruncation",
    "HilbertTypeMatrix",
    "KernelEvaluation",
    "L_MAX",
    "QuadratureBudgetError",
    "QuadratureResult",
    "SINC_ORDER_MAX",
    "SpectralDensityPoint",
    "SpectrumReport",
    "X_MIN_CLOSED",
    "alternating_factorial_identity",
    "block_certificate",
    "block_parameters",
    "damped_moment_shifted",
    "damped_trig_moment",
    "density_rho",
    "diagonalization_of",
    "e1",
    "e1_scaled",
    "ein",
    "evaluate",
    "exp_poly_self_convolution",
    "fourier_coefficient",
    "fourier_psi_tilde",
    "fourier_symbol_oracle",
    "fourier_xi_pow",
    "gamma_abs_sq",
    "hankel_truncation",
    "hilbert_type",
    "improper_damped",
    "integrate_adaptive",
    "k_asymptotic",
    "k_closed",
    "k_conv",
    "lp_diagnostic",
    "max_truncation_size",
    "multiplier_h",
    "p_poly",
    "p_term",
    "q_term",
    "sinc",
    "sinc_derivative",
    "spectrum_report",
    "sum_identity",
    "symbol_psi_ell",
    "symm_eigen",
]


def __getattr__(name):
    # The exported names not bound above are those of operators, the one
    # module that imports NumPy; it is loaded on the first use of one.
    if name in __all__:
        from . import operators

        return getattr(operators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
