"""Explicit spectral data: densities, the multiplier, the per-order
diagonalization descriptor, and the certificate of its block structure.

Each operator in the family is unitarily equivalent to a direct sum of
two multiplication operators by +/- h on weighted half-line spaces; the
weight is rho_p for a parameter p determined by the order's parity. The
descriptor records exactly that data, built from the one (sign, p)
table ``block_parameters``; ``block_certificate`` checks the same table
against the parity blocks of the truncations.

Every matrix the certificate involves depends only on row + col, so it
works on the 2N - 1 anti-diagonal values that fix a size-N matrix:
``truncation_values`` (the Fourier coefficients of a truncation) and
``hilbert_type_values`` (1/(1 + s - p)). ``operators`` builds its NumPy
matrices as windows over the same two lists; this module imports only
the standard library and ``specfun``.

The four result records are ``collections.namedtuple`` types: immutable,
compared and hashed by value, and free of the ``dataclasses`` import.
"""

import math
import os
import sys
from collections import namedtuple
from functools import partial

from .specfun import L_MAX, gamma_abs_sq, log_gamma_abs_sq

_LOG_DBL_MAX = math.log(sys.float_info.max)
DEFAULT_MAX_SIZE = 4096
_MAX_SIZE_ENV = "HANKEL_SPECTRA_MAX_N"


# floats; rho is None where it overflows a double
SpectralDensityPoint = namedtuple("SpectralDensityPoint", "p lam rho log_rho")

# sign +1.0 or -1.0, scale always 1/pi, p a float, density the callable
# lam -> rho_p(lam)
DiagonalBlock = namedtuple("DiagonalBlock", "sign scale p density")

# ell an int, blocks the two DiagonalBlock records
DiagonalizationDescriptor = namedtuple("DiagonalizationDescriptor", "ell blocks")

# parity "even" or "odd", m and size ints, the two maxima floats
BlockCertificate = namedtuple(
    "BlockCertificate", "parity m size max_abs_deviation cross_block_max"
)


def max_truncation_size():
    """Configured size cap for matrix construction (env-overridable)."""
    raw = os.environ.get(_MAX_SIZE_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_SIZE
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_MAX_SIZE_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{_MAX_SIZE_ENV} must be positive, got {cap}")
    return cap


def _check_size(n):
    cap = max_truncation_size()
    if not 1 <= n:
        raise ValueError(f"size N = {n} must be a positive integer")
    if n > cap:
        raise ValueError(f"size N = {n} exceeds the configured cap {cap}")


def fourier_coefficient(k):
    """c_k = (2/(pi k)) sin(pi k/2): exactly zero for even k, alternating
    2/(pi k) for odd k."""
    if k < 1:
        raise ValueError(f"fourier_coefficient: k = {k} must be >= 1")
    if k % 2 == 0:
        return 0.0
    value = 2.0 / (math.pi * k)
    return -value if ((k - 1) // 2) % 2 else value


def truncation_values(ell, n):
    """The 2N - 1 anti-diagonal values c_{ell+1}, ..., c_{2N+ell-1} of the
    N x N order-ell truncation, whose entry (row, col) is value row + col."""
    if not 0 <= ell <= L_MAX:
        raise ValueError(f"truncation_values: ell = {ell} outside [0, {L_MAX}]")
    _check_size(n)
    return [fourier_coefficient(s + ell + 1) for s in range(2 * n - 1)]


def hilbert_type_values(p, n):
    """The 2N - 1 anti-diagonal values 1/(1 + s - p) of the N x N
    Hilbert-type matrix with parameter p <= 1/2."""
    if not math.isfinite(p):
        raise ValueError(f"hilbert_type_values: p = {p} must be finite")
    if p > 0.5:
        raise ValueError(f"hilbert_type_values: p = {p} must be <= 1/2")
    _check_size(n)
    return [1.0 / (1.0 + s - p) for s in range(2 * n - 1)]


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
    truncations, which ``block_certificate`` checks against.

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


def _block_deviation(values, sign, p, n):
    """max over s < 2N - 1 of |(-1)^s values[s] - (sign/pi)/(1 + s - p)|:
    the distance from a Hankel block with these anti-diagonal values,
    conjugated by the alternating-sign diagonal, to (sign/pi) times the
    Hilbert-type matrix H_p."""
    scale = sign / math.pi
    return max(
        abs((-value if s % 2 else value) - scale * target)
        for s, (value, target) in enumerate(zip(values, hilbert_type_values(p, n)))
    )


def block_certificate(ell, n):
    """Certificate of the two blocks of ``block_parameters(ell)`` against
    the order-ell truncation of size 2N.

    Entry (row, col) vanishes unless row + col + ell is even, so the
    parity of ell picks which pair of the four N x N parity slices must
    vanish identically and which pair is kept. Slice (a, b), rows of
    parity a and columns of parity b, is itself Hankel with values
    d[2s + a + b], where d = ``truncation_values(ell, 2N)``; so each
    maximum below runs over the 2N - 1 values of a slice, not its N^2
    entries. Conjugated by the alternating-sign diagonal, the kept
    diagonal pair of an even order is the two blocks, (sign/pi) times
    Hilbert-type matrices. The kept off-diagonal pair [[0, U], [L, 0]] of
    an odd order is turned by the sum/difference rotation
    (1/sqrt 2) [[I, -I], [I, I]] into (1/2) [[U+L, U-L], [L-U, -(U+L)]]:
    (U+L)/2 lands on the first block and (U-L)/2 must vanish. Both U and
    L hold the values d[2s + 1], so (U+L)/2 is U and (U-L)/2 is exactly 0.
    """
    values = truncation_values(ell, 2 * n)
    odd = ell % 2
    cross = max(abs(value) for value in values[1 - odd :: 2])
    kept = values[odd::2]
    (sign_a, p_a), (sign_b, p_b) = block_parameters(ell)
    deviation = _block_deviation(kept, sign_a, p_a, n)
    if not odd:
        deviation = max(deviation, _block_deviation(kept[1:], sign_b, p_b, n))
    return BlockCertificate(
        parity="odd" if odd else "even",
        m=ell // 2,
        size=n,
        max_abs_deviation=deviation,
        cross_block_max=cross,
    )
