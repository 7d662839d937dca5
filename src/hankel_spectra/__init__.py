"""Kernels, truncated matrix models and explicit spectral data for a
family of Hankel integral operators.

Importing the package loads none of its modules: each exported name is
resolved from the module that defines it on first use, so a caller pays
only for the modules it touches. The package needs only the standard
library: no module imports NumPy, and matrices are tuples of row tuples.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "combinatorics": ("alternating_factorial_identity", "p_poly", "sum_identity"),
    "kernels": (
        "KernelEvaluation",
        "X_MAX_CLOSED",
        "X_MIN_CLOSED",
        "evaluate",
        "exp_poly_self_convolution",
        "fourier_psi_tilde",
        "fourier_xi_pow",
        "k_asymptotic",
        "k_closed",
        "k_conv",
        "lp_diagnostic",
        "symbol_psi_ell",
    ),
    "operators": (
        "HankelTruncation",
        "HilbertTypeMatrix",
        "Spectrum",
        "SpectrumReport",
        "hankel_truncation",
        "hilbert_type",
        "spectrum_report",
        "symm_eigen",
    ),
    "quadrature": (
        "QuadratureBudgetError",
        "QuadratureResult",
        "fourier_symbol_oracle",
        "improper_damped",
        "integrate_adaptive",
    ),
    "specfun": (
        "EULER_GAMMA",
        "L_MAX",
        "SINC_ORDER_MAX",
        "damped_moment_shifted",
        "damped_trig_moment",
        "e1",
        "e1_scaled",
        "ein",
        "gamma_abs_sq",
        "sinc",
        "sinc_derivative",
    ),
    "spectral": (
        "BlockCertificate",
        "MAX_TRUNCATION_SIZE",
        "SpectralDensityPoint",
        "block_certificate",
        "block_parameters",
        "density_rho",
        "fourier_coefficient",
        "multiplier_h",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
