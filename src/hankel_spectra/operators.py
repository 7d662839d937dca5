"""Finite truncations of the Hankel family and their spectra.

The matrix model lives on sequence space: entry (n, k) of the order-l
truncation is the Fourier coefficient c_{k+n+l+1}, so its block algebra
is a finite algebraic fact and the certificates (``spectral``) measure
pure floating-point noise, not discretization error. The eigensolver is
a hand-rolled cyclic Jacobi in Python over NumPy rows (``_jacobi_py``).

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
2N - 1 anti-diagonal values, the lists ``spectral.truncation_values`` and
``spectral.hilbert_type_values`` give: ``entries`` of a truncation or
Hilbert-type matrix is a read-only (N, N) Hankel window over them
(``sliding_window_view``), and entries[i, j] is value i + j. It reads
like any array; a caller who wants to write to it copies it first.

The three records are ``collections.namedtuple`` types. They hold NumPy
arrays, so two distinct records do not compare with ``==`` (the array
comparison raises, as it does for bare arrays) and are unhashable.

This is the one module of the package that imports NumPy. The block
certificates and the coefficients live in the NumPy-free ``spectral``
and are re-exported here.
"""

import math
from collections import namedtuple

import numpy as np

from ._jacobi_py import jacobi_eigenvalues
from .specfun import L_MAX, _check_finite, _check_int
from .spectral import MAX_TRUNCATION_SIZE as _MAX_SIZE
from .spectral import (  # the certificate and the coefficients are re-exported
    BlockCertificate,
    block_certificate,
    block_parameters,
    fourier_coefficient,
    hilbert_type_values,
    truncation_values,
)

_JACOBI_MAX_SWEEPS = 50


# ell and size ints, entries the read-only (size, size) Hankel window
HankelTruncation = namedtuple("HankelTruncation", "ell size entries")

# p a float, size an int, alternating a bool, entries as above
HilbertTypeMatrix = namedtuple("HilbertTypeMatrix", "p size alternating entries")

# eigenvalues an ascending NumPy array, the other four floats
SpectrumReport = namedtuple(
    "SpectrumReport", "eigenvalues min max containment_violation coverage_gap"
)


def _hankel_window(diagonal, n):
    """The read-only (n, n) view with entry (row, col) = diagonal[row + col]."""
    return np.lib.stride_tricks.sliding_window_view(diagonal, n)


def hankel_truncation(ell, n):
    """The N x N compression with entry (row, col) = c_{row+col+ell+1}.

    ``entries`` is a read-only Hankel window over the 2N - 1 coefficients
    c_{ell+1}, ..., c_{2N+ell-1}; copy it before writing to it.
    """
    ell = _check_int("hankel_truncation", "ell", ell, 0, L_MAX)
    n = _check_int("hankel_truncation", "n", n, 1, _MAX_SIZE)
    diagonal = np.array(truncation_values(ell, n))
    return HankelTruncation(ell=ell, size=n, entries=_hankel_window(diagonal, n))


def hilbert_type(p, n, alternating):
    """Entry (row, col) = 1/(1 + row + col - p), optionally with the
    (-1)^(row+col) sign checkerboard.

    ``entries`` is a read-only Hankel window over the 2N - 1 values
    1/(1 + s - p), s = 0 .. 2N - 2; copy it before writing to it.
    """
    _check_finite("hilbert_type", "p", p)
    n = _check_int("hilbert_type", "n", n, 1, _MAX_SIZE)
    diagonal = np.array(hilbert_type_values(p, n))
    if alternating:
        diagonal *= alternating_signs(2 * n - 1)
    return HilbertTypeMatrix(
        p=p, size=n, alternating=bool(alternating), entries=_hankel_window(diagonal, n)
    )


def alternating_signs(n):
    """The vector (+1, -1, +1, ...): conjugating by its diagonal flips the
    checkerboard sign pattern (exactly, in floating point)."""
    n = _check_int("alternating_signs", "n", n, 0)
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


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
    ell = _check_int("spectrum_report", "ell", ell, 0, L_MAX)
    n = _check_int("spectrum_report", "n", n, 1, _MAX_SIZE)
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
