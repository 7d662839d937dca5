"""Finite truncations of the Hankel family and their exact block algebra.

The matrix model lives on sequence space: entry (n, k) of the order-l
truncation is the Fourier coefficient c_{k+n+l+1}, so every identity in
this module is a finite algebraic fact and the certificates measure pure
floating-point noise, not discretization error. The eigensolver is a
hand-rolled cyclic Jacobi in Python over NumPy rows (``_jacobi_py``).

``spectrum_report`` solves the parity blocks that the certificates prove,
not the whole truncation. Entry (row, col) vanishes unless row + col + l
is even, so after the permutation that lists even coordinates first the
truncation is block diagonal for even l (two half-size solves), and for
odd l it is [[0, U], [U, 0]] with U = entries[0::2, 1::2], whose
eigenvalues are +/- those of U (one half-size solve, and the spectrum is
exactly symmetric under negation). U is square only for even N; at odd
N and odd l it is (k + 1) x k, and the one half-size route left, the
square roots of eig(U^T U), squares the singular values and loses the
small ones, so that case keeps the full-matrix solve.

Every matrix built here depends only on row + col, so it is stored as its
2N - 1 anti-diagonal values: ``entries`` of a truncation or Hilbert-type
matrix is a read-only (N, N) Hankel window over them
(``sliding_window_view``), and entries[i, j] is value i + j. It reads
like any array; a caller who wants to write to it copies it first.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._jacobi_py import jacobi_eigenvalues
from .specfun import L_MAX
from .spectral import block_parameters

DEFAULT_MAX_SIZE = 4096
_MAX_SIZE_ENV = "HANKEL_SPECTRA_MAX_N"
_JACOBI_MAX_SWEEPS = 50


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


@dataclass(frozen=True, eq=False)
class HankelTruncation:
    ell: int
    size: int
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class HilbertTypeMatrix:
    p: float
    size: int
    alternating: bool
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockCertificate:
    parity: str  # even | odd
    m: int
    size: int
    max_abs_deviation: float
    cross_block_max: float


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    min: float
    max: float
    containment_violation: float
    coverage_gap: float


def fourier_coefficient(k):
    """c_k = (2/(pi k)) sin(pi k/2): exactly zero for even k, alternating
    2/(pi k) for odd k."""
    if k < 1:
        raise ValueError(f"fourier_coefficient: k = {k} must be >= 1")
    if k % 2 == 0:
        return 0.0
    value = 2.0 / (math.pi * k)
    return -value if ((k - 1) // 2) % 2 else value


def _hankel_window(diagonal, n):
    """The read-only (n, n) view with entry (row, col) = diagonal[row + col]."""
    return np.lib.stride_tricks.sliding_window_view(diagonal, n)


def hankel_truncation(ell, n):
    """The N x N compression with entry (row, col) = c_{row+col+ell+1}.

    ``entries`` is a read-only Hankel window over the 2N - 1 coefficients
    c_{ell+1}, ..., c_{2N+ell-1}; copy it before writing to it.
    """
    if not 0 <= ell <= L_MAX:
        raise ValueError(f"hankel_truncation: ell = {ell} outside [0, {L_MAX}]")
    _check_size(n)
    diagonal = np.array([fourier_coefficient(s + ell + 1) for s in range(2 * n - 1)])
    return HankelTruncation(ell=ell, size=n, entries=_hankel_window(diagonal, n))


def _hilbert_diagonal(p, n):
    """The 2n - 1 anti-diagonal values 1/(1 + s - p) of a Hilbert-type matrix."""
    return 1.0 / (1.0 + np.arange(2 * n - 1) - p)


def hilbert_type(p, n, alternating):
    """Entry (row, col) = 1/(1 + row + col - p), optionally with the
    (-1)^(row+col) sign checkerboard.

    ``entries`` is a read-only Hankel window over the 2N - 1 values
    1/(1 + s - p), s = 0 .. 2N - 2; copy it before writing to it.
    """
    if not math.isfinite(p):
        raise ValueError(f"hilbert_type: p = {p} must be finite")
    if p > 0.5:
        raise ValueError(f"hilbert_type: p = {p} must be <= 1/2")
    _check_size(n)
    diagonal = _hilbert_diagonal(p, n)
    if alternating:
        diagonal *= alternating_signs(2 * n - 1)
    return HilbertTypeMatrix(
        p=p, size=n, alternating=bool(alternating), entries=_hankel_window(diagonal, n)
    )


def alternating_signs(n):
    """The vector (+1, -1, +1, ...): conjugating by its diagonal flips the
    checkerboard sign pattern (exactly, in floating point)."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def _sign_window(n):
    """The (-1)^(row+col) checkerboard as a Hankel window."""
    return _hankel_window(alternating_signs(2 * n - 1), n)


def _scaled_target(sign, p, n):
    """(sign/pi) times the Hilbert-type matrix with parameter p, scaled on
    its 2n - 1 anti-diagonal values rather than on n^2 entries."""
    return _hankel_window((sign / math.pi) * _hilbert_diagonal(p, n), n)


def _max_deviation(block, target):
    """max |block - target|, for a block the caller owns (it is overwritten)."""
    block -= target
    return np.abs(block, out=block).max()


def block_certificate(ell, n):
    """Certificate of the two blocks of ``block_parameters(ell)`` against
    the order-ell truncation of size 2N.

    Entry (row, col) vanishes unless row + col + ell is even, so the
    parity of ell picks which pair of the four N x N parity slices must
    vanish identically and which pair is kept. Conjugated by the
    alternating-sign diagonal, the kept diagonal pair of an even order is
    the two blocks, (sign/pi) times Hilbert-type matrices. The kept
    off-diagonal pair [[0, U], [L, 0]] of an odd order is turned by the
    sum/difference rotation (1/sqrt 2) [[I, -I], [I, I]] into
    (1/2) [[U+L, U-L], [L-U, -(U+L)]]: (U+L)/2 lands on the first block
    and (U-L)/2 must vanish.
    """
    big = hankel_truncation(ell, 2 * n).entries
    odd = ell % 2
    cross = max(np.abs(big[0::2, 1 - odd::2]).max(), np.abs(big[1::2, odd::2]).max())
    signs = _sign_window(n)
    (sign_a, p_a), (sign_b, p_b) = block_parameters(ell)
    if not odd:
        deviation = max(
            _max_deviation(big[0::2, 0::2] * signs, _scaled_target(sign_a, p_a, n)),
            _max_deviation(big[1::2, 1::2] * signs, _scaled_target(sign_b, p_b, n)),
        )
    else:
        upper = big[0::2, 1::2] * signs
        lower = big[1::2, 0::2] * signs
        half_sum = upper + lower
        half_sum /= 2.0
        upper -= lower
        upper /= 2.0
        deviation = max(
            _max_deviation(half_sum, _scaled_target(sign_a, p_a, n)),
            np.abs(upper, out=upper).max(),
        )
    return BlockCertificate(
        parity="odd" if odd else "even",
        m=ell // 2,
        size=n,
        max_abs_deviation=float(deviation),
        cross_block_max=float(cross),
    )


def symm_eigen(matrix):
    """All eigenvalues of a symmetric matrix, ascending.

    Cyclic Jacobi with a fixed sweep order, stopped once the off-diagonal
    norm is at most 1e-14 times the Frobenius norm; there is no accuracy
    argument. The matrix must be square, finite and symmetric to 1e-12
    relative to its largest entry.
    """
    a = np.array(matrix, dtype=float, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"symm_eigen: expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("symm_eigen: matrix entries must be finite")
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.zeros(a.shape[0])
    asym = np.abs(a - a.T).max()
    if asym > 1e-12 * scale:
        raise ValueError(
            f"symm_eigen: symmetry deviation {asym:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    a = (a + a.T) / 2.0
    fro = math.sqrt(float((a * a).sum()))
    threshold = 1e-14 * fro
    values, sweeps, off = jacobi_eigenvalues(a, threshold, _JACOBI_MAX_SWEEPS)
    if off > threshold:
        raise RuntimeError(
            f"symm_eigen: Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-norm {off:.3e} > {threshold:.3e})"
        )
    return values


def _truncation_eigenvalues(ell, entries):
    """Ascending eigenvalues of the order-ell truncation ``entries``,
    solved through its parity blocks where they are square."""
    n = entries.shape[0]
    if ell % 2 == 0:
        blocks = (entries[0::2, 0::2], entries[1::2, 1::2]) if n > 1 else (entries,)
        return np.sort(np.concatenate([symm_eigen(block) for block in blocks]))
    if n % 2 == 0:
        half = symm_eigen(entries[0::2, 1::2])
        return np.sort(np.concatenate((half, -half)))
    return symm_eigen(entries)


def spectrum_report(ell, n):
    """Eigenvalues of the order-ell truncation plus two diagnostics: how
    far the spectrum pokes out of [-1, 1], and the largest eigenvalue gap
    clipped to [-0.95, 0.95].

    The eigenvalues come from the parity blocks (see the module
    docstring): two solves of sizes ceil(N/2) and floor(N/2) for even ell,
    one solve of size N/2 for odd ell at even N, whose spectrum is then
    exactly symmetric (v[i] == -v[N-1-i]), and the full N x N solve for
    odd ell at odd N, where the off-diagonal block is not square.
    """
    truncation = hankel_truncation(ell, n)
    eigenvalues = _truncation_eigenvalues(ell, truncation.entries)
    low = float(eigenvalues[0])
    high = float(eigenvalues[-1])
    violation = max(0.0, max(abs(low), abs(high)) - 1.0)
    gap = 0.0
    for left, right in zip(eigenvalues[:-1], eigenvalues[1:]):
        clipped = min(float(right), 0.95) - max(float(left), -0.95)
        if clipped > gap:
            gap = clipped
    return SpectrumReport(
        eigenvalues=eigenvalues,
        min=low,
        max=high,
        containment_violation=violation,
        coverage_gap=gap,
    )
