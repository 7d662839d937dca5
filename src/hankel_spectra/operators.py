"""Finite truncations of the Hankel family and their spectra.

The matrix model lives on sequence space: entry (n, k) of the order-l
truncation is the Fourier coefficient c_{k+n+l+1}, so its block algebra
is a finite algebraic fact and the certificates (``spectral``) measure
pure floating-point noise, not discretization error. One implicit QL
core (EISPACK ``imtql1``; Golub & Van Loan, *Matrix Computations*, 8.3)
serves two reductions in plain Python: Householder tridiagonalization
(``tred1``), as in ``symm_eigen``, the dense public solver and the
tests' reference, and the Golub-Kahan chain below.

``spectrum_report`` solves the parity blocks that the certificates prove,
not the whole truncation, in one loop over their table in ``spectral``:
for even l two square blocks, for odd l the block U of [[0, U], [U^T, 0]],
whose eigenvalues are +/- the singular values of U, plus one 0 at odd N,
so the spectrum is exactly symmetric under negation.

Every parity block is, conjugated by the sign checkerboard and by its
``block_parameters`` sign, the positive definite Cauchy matrix
A = H_p / pi of size ceil(N/2) or floor(N/2), or, for U at odd
N = 2k + 1, the first k columns of A of size k + 1. A's numerical rank
grows only like log N (21 at size 128, 29 to 30 at 2048). ``_block_factor``
factors A by diagonally pivoted Cholesky from its Cauchy generators,
O(N) a step, so that A ~ L L^T with L of rank r. A square block's
eigenvalues are those of the r x r Gram matrix L^T L, plus exact zeros.
U ~ L M^T, M being L without its last row l, has the singular values
of the (r + 1) x r matrix [R; l] R^T, R from one Gram-Schmidt pass
M = Q R; Golub-Kahan bidiagonalization turns it into a zero-diagonal
tridiagonal of size 2r, whose eigenvalues are +/- them, not squared.
The values enter only through the certificate's O(N) check against A,
which raises ArithmeticError on a miss; the factor's discarded trace
plus rows times that miss bounds every value's error (Weyl).
``_solved_blocks`` yields each block's r, miss, bound and nonzero values;
the spectrum is those values, +/- them for odd l, and exact zeros.

Every matrix built here depends only on row + col, so it is stored as its
2N - 1 anti-diagonal values, the lists ``spectral.truncation_values`` and
``spectral.hilbert_type_values`` give, and one builder, ``_hankel_rows``,
turns them into a tuple of row tuples: row i is values[i : i + N], so
entries[i][j] is value i + j and every row shares the same 2N - 1 float
objects. ``spectrum_report`` builds no rows: a factor holds N r / 2
floats, while a size-N matrix costs N^2 row pointers, about 134 MB at the
cap, and any dense use of it (``symm_eigen``, ``numpy.asarray``) more.

The three records are ``collections.namedtuple`` types whose fields are
numbers, bools and tuples, or for ``SpectrumReport``'s eigenvalues a
``Spectrum``, so all three compare by value; ``HankelTruncation`` and
``HilbertTypeMatrix`` also hash by value. A spectrum of size N is at
most 2r nonzero values and exact zeros (r at most 31 up to the size
cap), so a ``Spectrum`` keeps 8 bytes for each nonzero value and one
count for the zeros: a report costs the same few hundred bytes at any N.

This module imports only the standard library, ``specfun`` and
``spectral``; ``symm_eigen`` reads any sequence of rows, a NumPy array
from a caller too, row by row. The block certificates, the (sign, p)
table and the coefficients are bound in ``spectral`` alone; callers
reach them there.
"""

import math
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, islice, repeat, zip_longest
from operator import index as _as_index
from operator import le, mul, sub, truediv

from .specfun import L_MAX, _check_finite, _check_int
from .spectral import MAX_TRUNCATION_SIZE as _MAX_SIZE, _block_deviation, _parity_blocks
from .spectral import hilbert_type_values, truncation_values

# QL iterations allowed per eigenvalue, as in EISPACK
_QL_MAX_ITERATIONS = 30

# largest miss of a conjugated parity block from (1/pi) H_p, relative to
# its largest entry: valid blocks up to the size cap miss by 2e-16
_MODEL_TOLERANCE = 1e-13


# ell and size ints, entries the (size, size) Hankel matrix as row tuples
HankelTruncation = namedtuple("HankelTruncation", "ell size entries")

# p a float, size an int, alternating a bool, entries as above
HilbertTypeMatrix = namedtuple("HilbertTypeMatrix", "p size alternating entries")

# rank an int, deviation and bound floats, values the nonzero ones as a list
_SolvedBlock = namedtuple("_SolvedBlock", "rank deviation bound values")

# eigenvalues an ascending Spectrum, the other four floats
SpectrumReport = namedtuple(
    "SpectrumReport", "eigenvalues min max containment_violation coverage_gap"
)


class Spectrum(Sequence):
    """An ascending sequence of floats held as its nonzero values and the
    number of exact zeros between the negative and the positive ones.

    It reads as the whole sequence: ``len``, indexing, slicing (to a
    list), iteration both ways, ``tolist`` and ``numpy.asarray``. Zeros
    read as 0.0, never -0.0. Two spectra are equal when their values are;
    a spectrum is unhashable. Values out of ascending order raise
    ValueError.
    """

    __slots__ = ("_nonzero", "_negative", "_size")

    def __init__(self, ascending):
        values = list(ascending)
        # the first value meets itself too, so a lone nan fails as well
        if not all(map(le, chain(values[:1], values), values)):
            raise ValueError("Spectrum: values must be ascending and not nan")
        self._nonzero = array("d", [v for v in values if v])
        self._negative = bisect_left(self._nonzero, 0.0)
        self._size = len(values)

    def __len__(self):
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.tolist()[index]
        i = _as_index(index)
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError("spectrum index out of range")
        zeros = self._size - len(self._nonzero)
        if i < self._negative:
            return self._nonzero[i]
        if i < self._negative + zeros:
            return 0.0
        return self._nonzero[i - zeros]

    def __iter__(self):
        zeros = self._size - len(self._nonzero)
        return chain(
            islice(self._nonzero, self._negative),
            repeat(0.0, zeros),
            islice(self._nonzero, self._negative, None),
        )

    def __reversed__(self):
        return reversed(self.tolist())

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (self._size, self._negative, self._nonzero) == (
            other._size,
            other._negative,
            other._nonzero,
        )

    __hash__ = None

    def __repr__(self):
        return f"Spectrum({self.tolist()!r})"

    def tolist(self):
        return list(self)


def _hankel_rows(values, n):
    """The n x n matrix with entry (row, col) = values[row + col], as a
    tuple of row tuples sharing the floats of ``values``."""
    values = tuple(values)
    return tuple(values[row : row + n] for row in range(n))


def hankel_truncation(ell, n):
    """The N x N compression with entry (row, col) = c_{row+col+ell+1}.

    ``entries`` holds the rows as tuples over the 2N - 1 coefficients
    c_{ell+1}, ..., c_{2N+ell-1}.
    """
    ell = _check_int("hankel_truncation", "ell", ell, 0, L_MAX)
    n = _check_int("hankel_truncation", "n", n, 1, _MAX_SIZE)
    return HankelTruncation(
        ell=ell, size=n, entries=_hankel_rows(truncation_values(ell, n), n)
    )


def hilbert_type(p, n, alternating):
    """Entry (row, col) = 1/(1 + row + col - p), optionally with the
    (-1)^(row+col) sign checkerboard.

    ``entries`` holds the rows as tuples over the 2N - 1 values
    1/(1 + s - p), s = 0 .. 2N - 2.
    """
    _check_finite("hilbert_type", "p", p)
    n = _check_int("hilbert_type", "n", n, 1, _MAX_SIZE)
    values = hilbert_type_values(p, n)
    if alternating:
        values = [-v if s % 2 else v for s, v in enumerate(values)]
    return HilbertTypeMatrix(
        p=p, size=n, alternating=bool(alternating), entries=_hankel_rows(values, n)
    )


def alternating_signs(n):
    """The tuple (+1.0, -1.0, +1.0, ...) of length n: conjugating by its
    diagonal flips the checkerboard sign pattern (exactly, in floating
    point)."""
    n = _check_int("alternating_signs", "n", n, 0)
    return tuple(-1.0 if i % 2 else 1.0 for i in range(n))


def _reflector(x):
    """The Householder reflection I - u u^T / h that takes x onto its last
    coordinate, as (u, h, beta) with beta that coordinate's new value, or
    None when x is zero. x is first divided by the sum of its magnitudes,
    as in EISPACK tred1, so the squares neither overflow nor underflow."""
    scale = sum(map(abs, x))
    if scale == 0.0:
        return None
    u = [v / scale for v in x]
    h = sum(map(mul, u, u))
    f = u[-1]
    g = -math.copysign(math.sqrt(h), f)
    h -= f * g
    u[-1] = f - g
    return u, h, scale * g


def _tridiagonalize(low):
    """Householder reduction (EISPACK tred1) of a symmetric matrix given
    by its lower triangle, row j holding entries 0..j; ``low`` is
    overwritten. Returns the diagonal d and the off-diagonal e, e[i]
    coupling i - 1 and i (e[0] = 0).

    Step i reflects row i's entries left of the diagonal onto the last of
    them, then applies A -= u q^T + q u^T to the leading i x i block. The
    product p = A u needs all of row j of that block: entries 0..j are
    stored in row j, the rest down column j, which one transpose of the
    stored triangle gives.
    """
    n = len(low)
    d = [0.0] * n
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        row = low[i]
        d[i] = row[i]
        reflection = _reflector(row[:i])
        if reflection is None:
            continue
        u, h, e[i] = reflection
        block = low[:i]
        columns = zip_longest(*block, fillvalue=0.0)
        p = [
            (sum(map(mul, r, u)) + sum(map(mul, c[j + 1 :], u[j + 1 :]))) / h
            for j, (r, c) in enumerate(zip(block, columns))
        ]
        k = sum(map(mul, u, p)) / (h + h)
        q = [pj - k * uj for pj, uj in zip(p, u)]
        for j in range(i):
            uj = u[j]
            qj = q[j]
            low[j] = [v - uj * qk - qj * uk for v, qk, uk in zip(low[j], q, u)]
    d[0] = low[0][0]
    return d, e


def _tridiagonal_eigenvalues(d, e):
    """Eigenvalues, unsorted, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e (e[i] couples i - 1 and i): implicit QL
    with Wilkinson shifts (EISPACK imtql1). ``d`` is overwritten and
    returned."""
    n = len(d)
    e = e[1:] + [0.0]  # now e[i] couples i and i + 1
    for start in range(n):
        for iteration in range(_QL_MAX_ITERATIONS + 1):
            # the first negligible coupling at or after start ends the block
            m = start
            while m < n - 1:
                diagonal = abs(d[m]) + abs(d[m + 1])
                if diagonal + abs(e[m]) == diagonal:
                    break
                m += 1
            if m == start:
                break
            if iteration == _QL_MAX_ITERATIONS:
                raise RuntimeError(
                    f"tridiagonal QL of size {n} did not converge in "
                    f"{_QL_MAX_ITERATIONS} iterations for eigenvalue {start}"
                )
            g = (d[start + 1] - d[start]) / (2.0 * e[start])
            r = math.hypot(g, 1.0)
            g = d[m] - d[start] + e[start] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, start - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the rotation splits the block
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[start] -= p
                e[start] = g
                e[m] = 0.0
    return d


def symm_eigen(matrix):
    """All eigenvalues of a symmetric matrix, as an ascending array("d").

    ``matrix`` is a sequence of rows (a NumPy array too), each entry read
    through float(). It must be square, finite and symmetric to 1e-12
    relative to its largest entry; its two triangles are averaged. The
    reduction starts at the last row, and it runs on the matrix with its
    order reversed: graded matrices such as the Hilbert-type ones and the
    truncations, largest at the top left, then meet it small end first,
    which keeps the Hilbert-type eigenvalues near zero at about 2e-17
    where the forward order leaves 8e-16 (n = 512).
    """
    try:
        a = [list(map(float, row)) for row in matrix]
    except TypeError:
        a = []
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("symm_eigen: expected a non-empty square matrix")
    if not all(map(math.isfinite, chain.from_iterable(a))):
        raise ValueError("symm_eigen: matrix entries must be finite")
    scale = max(max(map(abs, row)) for row in a)
    if scale == 0.0:
        return array("d", [0.0]) * n
    asym = max(max(map(abs, map(sub, row, col))) for row, col in zip(a, zip(*a)))
    if asym > 1e-12 * scale:
        raise ValueError(
            f"symm_eigen: symmetry deviation {asym:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    if asym:
        a = [
            [x + 0.5 * (y - x) for x, y in zip(row, col)] for row, col in zip(a, zip(*a))
        ]
    # the reversed matrix's lower triangle is the upper one read backwards
    low = [a[i][i:][::-1] for i in range(n - 1, -1, -1)]
    del a  # the solve holds one triangle of the matrix, not all of it
    return array("d", sorted(_tridiagonal_eigenvalues(*_tridiagonalize(low))))


def _block_factor(values, rows, sign, p):
    """The diagonally pivoted Cholesky factor L, as its columns in pivot
    order, of the rows x rows model A = (1/pi) H_p of a parity block with
    anti-diagonal values ``values`` that ``sign`` and the checkerboard
    conjugate to A or to A's first rows - 1 columns (``block_parameters``),
    with the block's deviation from that model and the trace that the
    factor discards.

    A is the Cauchy matrix g_i g_j / (x_i + x_j), x_i = i + (1 - p)/2 and
    g_i = 1/sqrt(pi), of numerical rank O(log N log 1/eps) (Beckermann &
    Townsend, SIAM J. Matrix Anal. Appl. 38, 2017). Diagonally pivoted
    Cholesky (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012)
    factors A = L L^T + S from the generators, not the values: pivot k,
    the largest remaining diagonal d_k = g_k^2 / (2 x_k), adds the column
    g_i g_k / ((x_i + x_k) sqrt(d_k)) to L, and the Schur complement is
    Cauchy again, with g_i times (x_i - x_k) / (x_i + x_k), both exact
    (Demmel, SIAM J. Matrix Anal. Appl. 21, 1999): a step costs O(rows)
    and zeroes g_k exactly. It stops once d_k is at most eps times A's
    largest entry, at rank r.

    The values enter only through the certificate's formula,
    ``_block_deviation``, which must find the conjugated block within
    _MODEL_TOLERANCE of A, relative to A's largest entry, or
    ArithmeticError is raised; it sees every flipped value, the corner
    too. The trace of the positive semidefinite remainder S bounds the
    2-norm of S and of any columns of S.
    """
    largest = 1.0 / (math.pi * (1.0 - p))  # A's first and largest entry
    deviation = _block_deviation(values, sign, p, rows)
    if not deviation <= _MODEL_TOLERANCE * largest:
        raise ArithmeticError(
            f"spectrum_report: a {rows}-row parity block is not positive "
            f"semidefinite (1/pi) H_p, p = {p:g}, or its first columns, after "
            f"conjugation: it misses that model by {deviation:.3e}"
        )
    sums = [i + 1.0 - p for i in range(rows)]  # x_i + x_0, exact
    twice = [s + i for i, s in enumerate(sums)]  # 2 x_i
    g = [1.0 / math.sqrt(math.pi)] * rows
    columns = []  # of L
    while True:
        diagonal = list(map(truediv, map(mul, g, g), twice))
        top = max(diagonal)
        if top <= sys.float_info.epsilon * largest:
            break
        k = diagonal.index(top)
        shifted = list(map(float(k).__add__, sums))  # x_i + x_k
        columns.append(list(map(truediv, map((g[k] / math.sqrt(top)).__mul__, g), shifted)))
        g = list(map(truediv, map(mul, g, range(-k, rows - k)), shifted))
    return columns, deviation, sum(diagonal)


def _square_block_eigenvalues(columns, sign):
    """The nonzero eigenvalues, unsorted, of a square parity block from
    the columns of its factor L (``_block_factor``): sign times those of
    the r x r Gram matrix L^T L."""
    # the Gram matrix's lower triangle, its order reversed as symm_eigen's
    columns = columns[::-1]
    low = [[sum(map(mul, x, y)) for y in columns[: i + 1]] for i, x in enumerate(columns)]
    return [sign * t for t in _tridiagonal_eigenvalues(*_tridiagonalize(low)) if t]


def _gram_schmidt_rows(columns):
    """The rows of R in Q R = the matrix with these columns, by modified
    Gram-Schmidt, whose R is backward stable however far Q drifts from
    orthogonal (Bjorck & Paige, SIAM J. Matrix Anal. Appl. 13, 1992); a
    column that vanishes exactly leaves a zero row."""
    columns = list(columns)
    rows = []
    for j, q in enumerate(columns):
        row = [0.0] * len(columns)
        norm = row[j] = math.sqrt(sum(map(mul, q, q)))
        if norm:
            q = [v / norm for v in q]
            for i in range(j + 1, len(columns)):
                t = row[i] = sum(map(mul, q, columns[i]))
                columns[i] = [v - t * w for v, w in zip(columns[i], q)]
        rows.append(row)
    return rows


def _bidiagonal_chain(columns):
    """The 2r - 1 couplings (d_1, f_1, d_2, ..., d_r) of the zero-diagonal
    tridiagonal of size 2r whose eigenvalues are +/- the singular values
    of the (r + 1) x r matrix with these columns: Golub-Kahan
    bidiagonalization (SIAM J. Numer. Anal. B 2, 1965) by Householder
    reflections from both sides. A step reflects the last column onto its
    last row, giving d, and transposes the rest, so that the next step
    reflects that row onto its last column, giving f: the bidiagonal is
    built from the bottom right corner, one side per step."""
    vectors = list(columns)
    chain = []
    while vectors:
        reflection = _reflector(vectors.pop())
        if reflection is None:
            chain.append(0.0)
        else:
            u, h, beta = reflection
            chain.append(beta)
            for i, x in enumerate(vectors):
                t = sum(map(mul, x, u)) / h
                vectors[i] = [v - t * w for v, w in zip(x, u)]
        vectors = list(zip(*vectors))
    return chain


def _block_singular_values(columns, cols):
    """The nonzero singular values, ascending, of the (cols + 1) x cols
    parity block from the columns of its factor L (``_block_factor``):
    the block is close to L M^T, M being L without its last row l. One
    Gram-Schmidt pass gives M = Q R, so L M^T = [Q R; l] R^T Q^T has the
    singular values of the (r + 1) x r matrix C = [R; l] R^T, and QL
    solves C's Golub-Kahan chain (``_bidiagonal_chain``) for +/- them.
    L M^T has rank at most cols, so at most the cols largest are kept.
    """
    r = len(columns)
    upper = _gram_schmidt_rows([column[:-1] for column in columns])
    last = [column[-1] for column in columns]
    chain = _bidiagonal_chain([[sum(map(mul, x, y)) for x in (*upper, last)] for y in upper])
    # the chain starts at C's small end, which pivot order puts last; QL
    # given the large end first measured closer to exact SVDs
    pm = sorted(_tridiagonal_eigenvalues([0.0] * (2 * r), [0.0, *reversed(chain)]))
    # sigma from each +/- pair: >= 0 and ascending however they round
    sigma = [(plus - minus) / 2.0 for minus, plus in zip(reversed(pm[:r]), pm[r:])]
    return [s for s in sigma[max(r - cols, 0) :] if s]


def _solved_blocks(ell, n):
    """One ``_SolvedBlock`` per non-empty parity block of the order-ell,
    size-n truncation, in ``_parity_blocks`` order: a factor and a core
    solve each."""
    for values, rows, cols, sign, p in _parity_blocks(ell, truncation_values(ell, n)):
        if cols:  # N = 1 leaves one block empty
            columns, deviation, trace = _block_factor(values, rows, sign, p)
            if rows == cols:
                nonzero = _square_block_eigenvalues(columns, sign)
            else:
                nonzero = _block_singular_values(columns, cols)
            yield _SolvedBlock(len(columns), deviation, trace + rows * deviation, nonzero)


def _truncation_eigenvalues(ell, n):
    """Ascending eigenvalues of the order-ell, size-n truncation, as a list:
    the blocks' nonzero values, +/- them for odd ell, and exact zeros."""
    eigenvalues = [v for block in _solved_blocks(ell, n) for v in block.values]
    if ell % 2:
        eigenvalues += [-v for v in eigenvalues]  # nonzero, so never -0.0
    return sorted(eigenvalues + [0.0] * (n - len(eigenvalues)))


def spectrum_report(ell, n):
    """Eigenvalues of the order-ell truncation plus two diagnostics: how
    far the spectrum pokes out of [-1, 1], and the largest eigenvalue gap
    clipped to [-0.95, 0.95].

    The eigenvalues come from the parity blocks (see the module
    docstring): for even ell those of its two square blocks, for odd ell
    +/- the singular values of its block U, and one 0 at odd N = 2k + 1.
    Each block is read from one pivoted Cholesky factor of rank r (at
    most 31 up to the size cap) of its model (1/pi) H_p and one QL solve
    of size r or 2r; the other values are exact zeros, printed as 0.0,
    never -0.0. The values enter only through the certificate's check
    against that model: a block that misses it raises ArithmeticError.
    The odd-ell spectrum is exactly symmetric (v[i] == -v[N-1-i]), with
    v[k] == 0.0 at odd N. The report holds the eigenvalues as a
    ``Spectrum``: the nonzero values and the number of zeros.
    """
    ell = _check_int("spectrum_report", "ell", ell, 0, L_MAX)
    n = _check_int("spectrum_report", "n", n, 1, _MAX_SIZE)
    eigenvalues = _truncation_eigenvalues(ell, n)
    low = eigenvalues[0]
    high = eigenvalues[-1]
    violation = max(0.0, max(abs(low), abs(high)) - 1.0)
    gap = 0.0
    for left, right in zip(eigenvalues, eigenvalues[1:]):
        clipped = min(right, 0.95) - max(left, -0.95)
        if clipped > gap:
            gap = clipped
    return SpectrumReport(
        eigenvalues=Spectrum(eigenvalues),
        min=low,
        max=high,
        containment_violation=violation,
        coverage_gap=gap,
    )
