"""Explicit spectral data: densities, the multiplier, and the per-order
diagonalization descriptor.

Each operator in the family is unitarily equivalent to a direct sum of
two multiplication operators by +/- h on weighted half-line spaces; the
weight is rho_p for a parameter p determined by the order's parity. The
descriptor records exactly that data, built from the one (sign, p)
table ``block_parameters``; ``operators.block_certificate`` checks the
same table against the parity blocks of the truncations.
"""

import math
import sys
from dataclasses import dataclass
from functools import partial

from .specfun import L_MAX, gamma_abs_sq, log_gamma_abs_sq

_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SpectralDensityPoint:
    p: float
    lam: float
    rho: object  # float, or None where it overflows a double
    log_rho: float


@dataclass(frozen=True)
class DiagonalBlock:
    sign: float  # +1.0 or -1.0
    scale: float  # always 1/pi
    p: float
    density: object  # callable lam -> rho_p(lam)


@dataclass(frozen=True)
class DiagonalizationDescriptor:
    ell: int
    blocks: tuple  # two DiagonalBlock records


def multiplier_h(lam):
    """h(lambda) = pi / cosh(pi sqrt(lambda)), strictly decreasing from pi
    to 0 on (0, infinity)."""
    if not math.isfinite(lam):
        raise ValueError(f"multiplier_h: lambda = {lam} must be finite")
    if lam <= 0.0:
        raise ValueError(f"multiplier_h: lambda = {lam} must be positive")
    t = math.pi * math.sqrt(lam)
    try:
        return math.pi / math.cosh(t)
    except OverflowError:
        # t > acosh(DBL_MAX) ~ 710.5, where e^(-2t) is far below an ulp of 1
        return 2.0 * math.pi * math.exp(-t)


def _density_value(p, lam):
    if not (math.isfinite(p) and math.isfinite(lam)):
        raise ValueError(f"density_rho: p = {p} and lambda = {lam} must be finite")
    if lam <= 0.0:
        raise ValueError(f"density_rho: lambda = {lam} must be positive")
    if p > 0.5:
        raise ValueError(f"density_rho: p = {p} must be <= 1/2")
    y = math.sqrt(lam)
    return (
        math.sinh(2.0 * math.pi * y) * gamma_abs_sq(p, y) / (2.0 * math.pi * math.pi)
    )


def _log_density(p, lam):
    # log sinh t = t + log(1 - e^(-2t)) - log 2, finite for every t > 0
    y = math.sqrt(lam)
    t = 2.0 * math.pi * y
    log_sinh = t + math.log(-math.expm1(-2.0 * t)) - math.log(2.0)
    return log_sinh + log_gamma_abs_sq(p, y) - math.log(2.0 * math.pi * math.pi)


def density_rho(p, lam):
    """The weight (1/2 pi^2) sinh(2 pi sqrt(lambda)) |Gamma(1/2 - p -
    i sqrt(lambda))|^2 of the diagonalizing space, as a point record.

    Defined for lambda > 0 only; the value is a raw (unnormalized)
    density and grows exponentially in sqrt(lambda). ``log_rho``,
    computed in log space, is finite for every valid input. The sinh
    factor overflows past lambda = (asinh(DBL_MAX) / 2 pi)^2, about
    1.28e4; from there ``rho`` is exp(log_rho), and None once rho itself
    overflows a double (lambda about 4.6e4 to 5.2e4, by p).
    """
    try:
        rho = _density_value(p, lam)
    except OverflowError:
        rho = None
    log_rho = _log_density(p, lam)
    if rho is None and log_rho < _LOG_DBL_MAX:
        rho = math.exp(log_rho)
    return SpectralDensityPoint(p=p, lam=lam, rho=rho, log_rho=log_rho)


def block_parameters(ell):
    """The (sign, p) pairs of the two blocks diagonalizing the order-ell
    operator, each with scale 1/pi: the first pair belongs to the
    even-coordinate (or post-rotation first) parity block of the
    truncations, which ``operators.block_certificate`` checks against.

    Even order 2m pairs parameter 1/2 - m with sign (-1)^m and
    -1/2 - m with sign (-1)^(m+1); odd order 2m+1 uses -1/2 - m twice,
    signs (-1)^(m+1) then (-1)^m.
    """
    if not 0 <= ell <= L_MAX:
        raise ValueError(f"block_parameters: ell = {ell} outside [0, {L_MAX}]")
    m = ell // 2
    sign = 1.0 if m % 2 == 0 else -1.0
    if ell % 2 == 0:
        return ((sign, 0.5 - m), (-sign, -0.5 - m))
    return ((-sign, -0.5 - m), (sign, -0.5 - m))


def diagonalization_of(ell):
    """The two blocks of ``block_parameters(ell)``, each with scale 1/pi
    and the density rho_p of its parameter."""
    blocks = tuple(
        DiagonalBlock(sign=s, scale=1.0 / math.pi, p=p, density=partial(_density_value, p))
        for s, p in block_parameters(ell)
    )
    return DiagonalizationDescriptor(ell=ell, blocks=blocks)
