"""Explicit spectral data: densities, the multiplier, the per-order block
parameters, and the certificate of the block structure.

Each operator in the family is unitarily equivalent to a direct sum of
two multiplication operators by +/- h on weighted half-line spaces; the
weight is rho_p for a parameter p determined by the order's parity.
``block_parameters`` is the one (sign, p) table of that data, with
``density_rho`` and ``multiplier_h`` for the weight and the multiplier.
``_parity_blocks`` lists the parity blocks of the truncations, which
``operators`` solves and ``block_certificate`` checks against them.

Every matrix the certificate involves depends only on row + col, so it
works on the 2N - 1 anti-diagonal values that fix a size-N matrix:
``truncation_values`` (the Fourier coefficients of a truncation) and
``hilbert_type_values`` (1/(1 + s - p)). ``operators`` builds its
matrices as row tuples over the same two lists; this module imports only
the standard library and ``specfun``.

The two result records are ``collections.namedtuple`` types: immutable,
compared and hashed by value, and free of the ``dataclasses`` import.
"""

import math
import sys
from collections import namedtuple

from .specfun import L_MAX, _check_finite, _check_int, gamma_abs_sq, log_gamma_abs_sq

_LOG_DBL_MAX = math.log(sys.float_info.max)

# largest matrix size N a truncation or Hilbert-type list is built for
MAX_TRUNCATION_SIZE = 4096


# floats; rho is None where it overflows a double
SpectralDensityPoint = namedtuple("SpectralDensityPoint", "p lam rho log_rho")

# parity "even" or "odd", m and size ints, the two maxima floats
BlockCertificate = namedtuple(
    "BlockCertificate", "parity m size max_abs_deviation cross_block_max"
)


def _coefficient(k):
    if k % 2 == 0:
        return 0.0
    value = 2.0 / (math.pi * k)
    return -value if ((k - 1) // 2) % 2 else value


def fourier_coefficient(k):
    """c_k = (2/(pi k)) sin(pi k/2): exactly zero for even k, alternating
    2/(pi k) for odd k."""
    return _coefficient(_check_int("fourier_coefficient", "k", k, 1))


def truncation_values(ell, n):
    """The 2N - 1 anti-diagonal values c_{ell+1}, ..., c_{2N+ell-1} of the
    N x N order-ell truncation, whose entry (row, col) is value row + col."""
    ell = _check_int("truncation_values", "ell", ell, 0, L_MAX)
    n = _check_int("truncation_values", "n", n, 1, MAX_TRUNCATION_SIZE)
    return [_coefficient(s + ell + 1) for s in range(2 * n - 1)]


def hilbert_type_values(p, n):
    """The 2N - 1 anti-diagonal values 1/(1 + s - p) of the N x N
    Hilbert-type matrix with parameter p <= 1/2."""
    _check_finite("hilbert_type_values", "p", p)
    if p > 0.5:
        raise ValueError(f"hilbert_type_values: p = {p} must be <= 1/2")
    n = _check_int("hilbert_type_values", "n", n, 1, MAX_TRUNCATION_SIZE)
    return [1.0 / (1.0 + s - p) for s in range(2 * n - 1)]


def multiplier_h(lam):
    """h(lambda) = pi / cosh(pi sqrt(lambda)), strictly decreasing from pi
    to 0 on (0, infinity)."""
    _check_finite("multiplier_h", "lambda", lam)
    if lam <= 0.0:
        raise ValueError(f"multiplier_h: lambda = {lam} must be positive")
    t = math.pi * math.sqrt(lam)
    try:
        return math.pi / math.cosh(t)
    except OverflowError:
        # t > acosh(DBL_MAX) ~ 710.5, where e^(-2t) is far below an ulp of 1
        return 2.0 * math.pi * math.exp(-t)


def density_rho(p, lam):
    """The weight (1/2 pi^2) sinh(2 pi sqrt(lambda)) |Gamma(1/2 - p -
    i sqrt(lambda))|^2 of the diagonalizing space, as a point record.

    Defined for lambda > 0 only; the value is a raw (unnormalized)
    density and grows exponentially in sqrt(lambda). ``log_rho`` is
    computed in log space; below about p = -1.25e305 it leaves the double
    range too, and the call raises OverflowError. Where the direct
    product overflows (the sinh factor past lambda = (asinh(DBL_MAX) /
    2 pi)^2, about 1.28e4, or |Gamma|^2 below lambda = 5.6e-309 at
    p = 1/2), ``rho`` is exp(log_rho), and None once rho itself
    overflows a double (lambda about 4.6e4 to 5.2e4, by p).
    """
    _check_finite("density_rho", "p", p)
    _check_finite("density_rho", "lambda", lam)
    if lam <= 0.0:
        raise ValueError(f"density_rho: lambda = {lam} must be positive")
    if p > 0.5:
        raise ValueError(f"density_rho: p = {p} must be <= 1/2")
    y = math.sqrt(lam)
    t = 2.0 * math.pi * y
    try:
        rho = math.sinh(t) * gamma_abs_sq(p, y) / (2.0 * math.pi * math.pi)
    except OverflowError:
        rho = math.inf  # what the product reads where it overflows without raising
    # log sinh t = t + log(1 - e^(-2t)) - log 2, finite for every t > 0
    log_sinh = t + math.log(-math.expm1(-2.0 * t)) - math.log(2.0)
    log_rho = log_sinh + log_gamma_abs_sq(p, y) - math.log(2.0 * math.pi * math.pi)
    if rho == math.inf:
        rho = math.exp(log_rho) if log_rho < _LOG_DBL_MAX else None
    return SpectralDensityPoint(p=p, lam=lam, rho=rho, log_rho=log_rho)


def block_parameters(ell):
    """The (sign, p) pairs of the two blocks diagonalizing the order-ell
    operator, each with scale 1/pi: the first pair belongs to the parity
    block of the truncations on the even rows, the second to the one on
    the odd rows, which odd orders do not have (``_parity_blocks``).

    Even order 2m pairs parameter 1/2 - m with sign (-1)^m and
    -1/2 - m with sign (-1)^(m+1); odd order 2m+1 uses -1/2 - m twice,
    signs (-1)^(m+1) then (-1)^m.
    """
    ell = _check_int("block_parameters", "ell", ell, 0, L_MAX)
    m = ell // 2
    sign = 1.0 if m % 2 == 0 else -1.0
    if ell % 2 == 0:
        return ((sign, 0.5 - m), (-sign, -0.5 - m))
    return ((-sign, -0.5 - m), (sign, -0.5 - m))


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


def _parity_blocks(ell, values):
    """The parity blocks of the order-ell truncation with anti-diagonal
    values ``values`` (2N - 1 of them), as (block values, rows, cols,
    sign, p). Entry (row, col) vanishes unless row + col + ell is even:
    even ell keeps the even rows and columns, values[2s], and the odd
    ones, values[2s + 2], as square blocks of sizes ceil(N/2) and
    floor(N/2); odd ell keeps the ceil(N/2) x floor(N/2) block
    U = entries[0::2, 1::2] of [[0, U], [U^T, 0]], values[2s + 1]. A
    block reads the first rows + cols - 1 of its values.
    """
    n = (len(values) + 1) // 2
    half = (n + 1) // 2
    (sign, p), (other_sign, other_p) = block_parameters(ell)
    if ell % 2:
        return [(values[1::2], half, n - half, sign, p)]
    return [
        (values[0::2], half, half, sign, p),
        (values[2::2], n - half, n - half, other_sign, other_p),
    ]


def block_certificate(ell, n):
    """Certificate of the parity blocks (``_parity_blocks``) of the
    order-ell truncation of size 2N: ``max_abs_deviation`` is the largest
    distance of a block, conjugated by the alternating-sign diagonal, from
    (sign/pi) H_p, and ``cross_block_max`` the largest value that the
    blocks leave out, which must vanish. Each block is Hankel, so both
    maxima run over 2N - 1 values, not N^2 entries.
    """
    ell = _check_int("block_certificate", "ell", ell, 0, L_MAX)
    n = _check_int("block_certificate", "n", n, 1, MAX_TRUNCATION_SIZE // 2)
    values = truncation_values(ell, 2 * n)
    return BlockCertificate(
        parity="odd" if ell % 2 else "even",
        m=ell // 2,
        size=n,
        max_abs_deviation=max(
            _block_deviation(block, sign, p, rows)
            for block, rows, _, sign, p in _parity_blocks(ell, values)
        ),
        cross_block_max=max(abs(value) for value in values[1 - ell % 2 :: 2]),
    )
