"""Explicit spectral data: densities, the multiplier, and the per-order
diagonalization descriptor.

Each operator in the family is unitarily equivalent to a direct sum of
two multiplication operators by +/- h on weighted half-line spaces; the
weight is rho_p for a parameter p determined by the order's parity. The
descriptor records exactly that data. ``block_parameters`` writes the
same (sign, p) pairs as the table of the truncations' parity blocks, and
the spectral verify suite checks that the two writings agree.
"""

import math
from dataclasses import dataclass
from functools import partial

from .specfun import L_MAX, gamma_abs_sq


@dataclass(frozen=True)
class SpectralDensityPoint:
    p: float
    lam: float
    rho: float


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
    return math.pi / math.cosh(math.pi * math.sqrt(lam))


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


def density_rho(p, lam):
    """The weight (1/2 pi^2) sinh(2 pi sqrt(lambda)) |Gamma(1/2 - p -
    i sqrt(lambda))|^2 of the diagonalizing space, as a point record.

    Defined for lambda > 0 only; the value is a raw (unnormalized)
    density and grows exponentially in sqrt(lambda), so the sinh factor
    overflows past lambda = (asinh(DBL_MAX) / 2 pi)^2, about 1.28e4.
    """
    return SpectralDensityPoint(p=p, lam=lam, rho=_density_value(p, lam))


def block_parameters(ell):
    """The (sign, p) pairs of the two diagonal blocks that the parity
    decomposition of the order-ell truncation produces (scale 1/pi each);
    the first pair belongs to the even-coordinate (or post-rotation
    first) block. ``operators`` certifies these blocks and re-exports
    this table."""
    if not 0 <= ell <= L_MAX:
        raise ValueError(f"block_parameters: ell = {ell} outside [0, {L_MAX}]")
    m = ell // 2
    sign = 1.0 if m % 2 == 0 else -1.0
    if ell % 2 == 0:
        return ((sign, 0.5 - m), (-sign, -0.5 - m))
    return ((-sign, -0.5 - m), (sign, -0.5 - m))


def diagonalization_of(ell):
    """The two (sign, p) blocks diagonalizing the order-ell operator.

    Even order 2m pairs parameter 1/2 - m with sign (-1)^m and
    -1/2 - m with sign (-1)^(m+1); odd order 2m+1 uses -1/2 - m twice,
    signs (-1)^(m+1) then (-1)^m. Scale is 1/pi for every block.
    """
    if not 0 <= ell <= L_MAX:
        raise ValueError(f"diagonalization_of: ell = {ell} outside [0, {L_MAX}]")
    m = ell // 2
    sign = 1.0 if m % 2 == 0 else -1.0
    scale = 1.0 / math.pi
    if ell % 2 == 0:
        pairs = ((sign, 0.5 - m), (-sign, -0.5 - m))
    else:
        pairs = ((-sign, -0.5 - m), (sign, -0.5 - m))
    blocks = tuple(
        DiagonalBlock(sign=s, scale=scale, p=p, density=partial(_density_value, p))
        for s, p in pairs
    )
    return DiagonalizationDescriptor(ell=ell, blocks=blocks)
