import math
import sys
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hankel_spectra import operators as op
from hankel_spectra import spectral


def test_fourier_coefficient_values():
    assert spectral.fourier_coefficient(2) == 0.0
    assert spectral.fourier_coefficient(4) == 0.0
    assert spectral.fourier_coefficient(1) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert spectral.fourier_coefficient(3) == pytest.approx(-2.0 / (3.0 * math.pi), rel=1e-15)
    assert spectral.fourier_coefficient(5) == pytest.approx(2.0 / (5.0 * math.pi), rel=1e-15)
    assert spectral.fourier_coefficient(7) == pytest.approx(-2.0 / (7.0 * math.pi), rel=1e-15)


def test_hankel_truncation_small_examples():
    t0 = op.hankel_truncation(0, 2)
    want0 = np.array([[2.0 / math.pi, 0.0], [0.0, -2.0 / (3.0 * math.pi)]])
    np.testing.assert_allclose(t0.entries, want0, rtol=1e-15)
    t1 = op.hankel_truncation(1, 2)
    c3 = -2.0 / (3.0 * math.pi)
    np.testing.assert_allclose(t1.entries, [[0.0, c3], [c3, 0.0]], rtol=1e-15)
    assert t1.ell == 1
    assert t1.size == 2


def test_hankel_truncation_is_constant_on_antidiagonals():
    entries = op.hankel_truncation(2, 9).entries
    assert type(entries) is tuple and len(entries) == 9
    for k in range(9):
        assert type(entries[k]) is tuple and len(entries[k]) == 9
        for n in range(9):
            assert entries[k][n] == entries[n][k]
            if k + 1 < 9 and n - 1 >= 0:
                assert entries[k][n] is entries[k + 1][n - 1]


def test_hilbert_type_entries_and_conjugation():
    h = op.hilbert_type(0.5, 3, False)
    want = [[2.0, 2.0 / 3.0, 0.4], [2.0 / 3.0, 0.4, 2.0 / 7.0], [0.4, 2.0 / 7.0, 2.0 / 9.0]]
    np.testing.assert_allclose(h.entries, want, rtol=1e-15)
    # conjugation by the sign diagonal removes the checkerboard exactly
    for p in (0.5, -0.5, -1.5):
        plain = op.hilbert_type(p, 16, False).entries
        alt = op.hilbert_type(p, 16, True).entries
        v = np.diag(op.alternating_signs(16))
        assert np.array_equal(v @ alt @ v, plain)


def test_hilbert_type_rejects_large_p():
    with pytest.raises(ValueError):
        op.hilbert_type(0.75, 3, False)


def test_truncation_size_cap():
    cap = spectral.MAX_TRUNCATION_SIZE
    assert cap == 4096
    assert not hasattr(op, "MAX_TRUNCATION_SIZE")
    assert len(spectral.truncation_values(0, cap)) == 2 * cap - 1
    for build in (
        lambda n: op.hankel_truncation(0, n),
        lambda n: op.hilbert_type(0.5, n, False),
        lambda n: op.spectrum_report(0, n),
        lambda n: spectral.truncation_values(0, n),
        lambda n: spectral.hilbert_type_values(0.5, n),
    ):
        with pytest.raises(ValueError, match=f"n = {cap + 1} outside"):
            build(cap + 1)
    # the certificate reads the size-2N truncation
    spectral.block_certificate(2, cap // 2)
    with pytest.raises(ValueError, match=f"n = {cap // 2 + 1} outside"):
        spectral.block_certificate(2, cap // 2 + 1)


def test_block_parameters_frozen():
    assert spectral.block_parameters(0) == ((1.0, 0.5), (-1.0, -0.5))
    assert spectral.block_parameters(1) == ((-1.0, -0.5), (1.0, -0.5))
    assert spectral.block_parameters(2) == ((-1.0, -0.5), (1.0, -1.5))
    assert spectral.block_parameters(3) == ((1.0, -1.5), (-1.0, -1.5))
    assert spectral.block_parameters(4) == ((1.0, -1.5), (-1.0, -2.5))
    assert spectral.block_parameters(5) == ((-1.0, -2.5), (1.0, -2.5))
    assert spectral.block_parameters(6) == ((-1.0, -2.5), (1.0, -3.5))
    assert spectral.block_parameters(7) == ((1.0, -3.5), (-1.0, -3.5))
    assert spectral.block_parameters(8) == ((1.0, -3.5), (-1.0, -4.5))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_even_block_certificates(m):
    cert = spectral.block_certificate(2 * m, 32)
    assert cert.parity == "even"
    assert cert.max_abs_deviation <= 1e-13
    assert cert.cross_block_max == 0.0


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_odd_block_certificates(m):
    cert = spectral.block_certificate(2 * m + 1, 32)
    assert cert.parity == "odd"
    assert cert.max_abs_deviation <= 1e-13
    assert cert.cross_block_max == 0.0


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_block_certificates_catch_a_perturbed_block(monkeypatch, parity, rows, cols):
    # Parity slice (rows, cols) of the size-2n truncation reads the values
    # d[2s + rows + cols], s < 2n - 1, of the coefficient list; the four
    # slices together read all 4n - 1 of them. Each is perturbed in turn.
    delta = 1e-6
    n = 8
    ell = 2 if parity == "even" else 3
    allowed = (rows + cols) % 2 == ell % 2
    exact = spectral.truncation_values
    for s in range(2 * n - 1):
        index = 2 * s + rows + cols

        def perturbed(order, size):
            values = exact(order, size)
            values[index] += delta
            return values

        monkeypatch.setattr(spectral, "truncation_values", perturbed)
        cert = spectral.block_certificate(ell, n)
        if allowed:
            assert cert.max_abs_deviation >= 0.4 * delta, index
            assert cert.cross_block_max == 0.0, index
        else:
            assert cert.cross_block_max >= delta, index
            assert cert.max_abs_deviation <= 1e-13, index


@pytest.mark.parametrize("ell", range(9))
def test_parity_blocks_split_the_truncation(ell):
    for n in range(1, 71):
        values = spectral.truncation_values(ell, n)
        blocks = spectral._parity_blocks(ell, values)
        # the table over the value indices names the values a block reads
        marked = spectral._parity_blocks(ell, list(range(2 * n - 1)))
        read = set()
        for (block, rows, cols, sign, p), (indices, *same) in zip(blocks, marked, strict=True):
            assert same == [rows, cols, sign, p] and (sign, p) in spectral.block_parameters(ell)
            assert rows == cols + (ell % 2) * (n % 2), (n, rows, cols)
            assert block == [values[s] for s in indices] and len(block) >= rows + cols - 1
            read.update(indices[: max(rows + cols - 1, 0)])
        assert sum(rows + cols * (ell % 2) for _, rows, cols, _, _ in blocks) == n
        # what the blocks read is nonzero, the other parity exactly 0.0
        assert all((s in read) == (values[s] != 0.0) for s in range(2 * n - 1)), n


@pytest.mark.parametrize("n", [1, 2, 3, 32, 1024])
def test_block_certificate_is_the_largest_guard_deviation(n):
    # the certificate is the largest deviation that the size-2n solve's
    # guard recorded for its blocks
    for ell in range(9):
        values = spectral.truncation_values(ell, 2 * n)
        guard = max(
            spectral._block_deviation(block, sign, p, rows)
            for block, rows, _, sign, p in spectral._parity_blocks(ell, values)
        )
        recorded = max(block.deviation for block in op._solved_blocks(ell, 2 * n))
        assert spectral.block_certificate(ell, n).max_abs_deviation == guard == recorded, ell


@pytest.mark.parametrize("ell, flipped", [(0, 0), (0, 1), (3, 0), (6, 1), (7, 0)])
def test_a_flipped_block_sign_fails_spectra_and_certificates(monkeypatch, ell, flipped):
    # both read the signs from spectral's table, through _parity_blocks
    pairs = [list(pair) for pair in spectral.block_parameters(ell)]
    pairs[flipped][0] *= -1.0
    monkeypatch.setattr(spectral, "block_parameters", lambda order: pairs)
    for n in (32, 33):
        with pytest.raises(ArithmeticError, match="not positive semidefinite"):
            op.spectrum_report(ell, n)
    assert spectral.block_certificate(ell, 16).max_abs_deviation > 1e-13


def _dense_truncation(ell, n):
    """The truncation as a dense index matrix gathered from the coefficients."""
    coeffs = np.zeros(2 * n + ell)
    for s in range(1, 2 * n + ell):
        coeffs[s] = spectral.fourier_coefficient(s)
    return coeffs[np.add.outer(np.arange(n), np.arange(n)) + ell + 1]


def _dense_hilbert(p, n, alternating):
    entries = 1.0 / (1.0 + np.add.outer(np.arange(n), np.arange(n)) - p)
    if alternating:
        signs = op.alternating_signs(n)
        entries = entries * np.outer(signs, signs)
    return entries


def _dense_certificate(ell, n):
    """(max deviation, cross-block max) computed on dense n x n blocks."""
    big = _dense_truncation(ell, 2 * n)
    signs = np.outer(op.alternating_signs(n), op.alternating_signs(n))
    (sign_a, p_a), (sign_b, p_b) = spectral.block_parameters(ell)
    target_a = (sign_a / math.pi) * _dense_hilbert(p_a, n, False)
    if ell % 2 == 0:
        cross = max(np.abs(big[0::2, 1::2]).max(), np.abs(big[1::2, 0::2]).max())
        target_b = (sign_b / math.pi) * _dense_hilbert(p_b, n, False)
        deviation = max(
            np.abs(big[0::2, 0::2] * signs - target_a).max(),
            np.abs(big[1::2, 1::2] * signs - target_b).max(),
        )
    else:
        cross = max(np.abs(big[0::2, 0::2]).max(), np.abs(big[1::2, 1::2]).max())
        upper = big[0::2, 1::2] * signs
        lower = big[1::2, 0::2] * signs
        deviation = max(
            np.abs((upper + lower) / 2.0 - target_a).max(),
            np.abs((upper - lower) / 2.0).max(),
        )
    return float(deviation).hex(), float(cross).hex()


def _same_bits(rows, dense):
    """Rows are immutable tuples of floats, one window of the anti-diagonal
    values each, and bit-identical to the dense reference."""
    n = len(dense)
    return (
        type(rows) is tuple
        and len(rows) == n
        and all(type(row) is tuple and len(row) == n for row in rows)
        and all(type(v) is float for row in rows for v in row)
        # row i + 1 is row i shifted by one value
        and all(a is b for i in range(n - 1) for a, b in zip(rows[i][1:], rows[i + 1]))
        and np.array(rows, dtype=float).tobytes() == dense.tobytes()
    )


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_truncations_are_read_only_windows_on_the_dense_values(n):
    for ell in range(9):
        entries = op.hankel_truncation(ell, n).entries
        assert _same_bits(entries, _dense_truncation(ell, n))


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("alternating", [False, True])
def test_hilbert_type_are_read_only_windows_on_the_dense_values(n, alternating):
    for p in (0.5, -0.5, -2.5):
        entries = op.hilbert_type(p, n, alternating).entries
        assert _same_bits(entries, _dense_hilbert(p, n, alternating))


def test_alternating_signs_is_a_tuple_of_unit_floats():
    assert op.alternating_signs(0) == ()
    signs = op.alternating_signs(5)
    assert type(signs) is tuple
    assert [v.hex() for v in signs] == [v.hex() for v in (1.0, -1.0, 1.0, -1.0, 1.0)]


@pytest.mark.parametrize("n", [1, 2, 8, 33, 300])
@pytest.mark.parametrize("ell", range(9))
def test_block_certificates_match_the_dense_computation_bit_for_bit(ell, n):
    cert = spectral.block_certificate(ell, n)
    got = (cert.max_abs_deviation.hex(), cert.cross_block_max.hex())
    assert got == _dense_certificate(ell, n)


@pytest.mark.parametrize("ell", [2, 3], ids=["even", "odd"])
def test_block_certificates_allocate_a_few_blocks_at_most(ell):
    # the certificate reads 4n - 1 coefficients and 2n - 1 target values,
    # a few hundred bytes per n; one n x n block of doubles is 8 n^2
    for n in (512, 2048):
        tracemalloc.start()
        try:
            spectral.block_certificate(ell, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * n, (n, peak)


@pytest.mark.parametrize(
    "call",
    [
        lambda: op.symm_eigen(np.array([[math.nan, 0.0], [0.0, 1.0]])),
        lambda: op.symm_eigen(np.array([[1.0, math.inf], [math.inf, 1.0]])),
        lambda: op.hilbert_type(math.nan, 3, False),
        lambda: op.hilbert_type(-math.inf, 3, True),
    ],
    ids=["nan-entry", "inf-entry", "nan-p", "minus-inf-p"],
)
def test_non_finite_input_is_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


def test_block_certificate_validation():
    with pytest.raises(ValueError):
        spectral.block_certificate(-1, 8)
    with pytest.raises(ValueError):
        spectral.block_certificate(9, 8)
    with pytest.raises(ValueError):
        spectral.block_certificate(2, 0)


def _cubic_eigenvalues_exact(matrix_fractions):
    """Roots of the characteristic cubic, solved trigonometrically.

    The coefficients are assembled in exact rational arithmetic so the only
    rounding happens in the final acos/cos calls.
    """
    m = matrix_fractions
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = (
        m[1][1] * m[2][2] - m[1][2] * m[2][1]
        + m[0][0] * m[2][2] - m[0][2] * m[2][0]
        + m[0][0] * m[1][1] - m[0][1] * m[1][0]
    )
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    # depressed cubic t^3 + pt + q via lambda = t + tr/3
    p = minors - tr * tr / 3
    q = -det + tr * minors / 3 - Fraction(2, 27) * tr ** 3
    pf, qf = float(p), float(q)
    r = math.sqrt(-pf / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * qf / (2.0 * pf * r))))
    shift = float(tr) / 3.0
    roots = [2.0 * r * math.cos((phi - 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]
    return sorted(roots)


def test_symm_eigen_matches_exact_cubic():
    h = op.hilbert_type(0.5, 3, False)
    exact = [
        [Fraction(2), Fraction(2, 3), Fraction(2, 5)],
        [Fraction(2, 3), Fraction(2, 5), Fraction(2, 7)],
        [Fraction(2, 5), Fraction(2, 7), Fraction(2, 9)],
    ]
    want = _cubic_eigenvalues_exact(exact)
    got = op.symm_eigen(h.entries)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_symm_eigen_handles_trivial_inputs():
    zeros = op.symm_eigen(np.zeros((3, 3)))
    assert zeros == array("d", [0.0, 0.0, 0.0])
    one = op.symm_eigen([[4.0]])
    assert one == array("d", [4.0])


def test_symm_eigen_validation():
    with pytest.raises(ValueError):
        op.symm_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        op.symm_eigen(np.ones((2, 3)))
    for bad in ([], [[]], [1.0, 2.0], [[1.0, 2.0], [2.0]], np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="square matrix"):
            op.symm_eigen(bad)


def _assert_close_to_lapack(got, matrix, rel=3e-15):
    want = np.linalg.eigvalsh(np.array(matrix, dtype=float))
    scale = 1.0 + np.max(np.abs(want))
    assert isinstance(got, array) and got.typecode == "d"
    assert list(got) == sorted(got)
    assert np.max(np.abs(np.asarray(got) - want)) <= rel * scale


def test_symm_eigen_two_by_two_closed_form():
    for a, b, c in ((2.0, 1.0, -1.0), (1.0, 1e-9, 1.0), (-3.0, 4.0, 3.0), (0.0, 1.0, 0.0)):
        mean = (a + c) / 2.0
        radius = math.hypot((a - c) / 2.0, b)
        got = op.symm_eigen([[a, b], [b, c]])
        scale = max(abs(a), abs(b), abs(c))
        assert abs(got[0] - (mean - radius)) <= 4e-16 * scale
        assert abs(got[1] - (mean + radius)) <= 4e-16 * scale


def test_symm_eigen_diagonal_matrices_are_exact():
    # every coupling is zero, so no reflection or rotation touches them
    diagonal = [3.5, -1.25, 0.0, 7.0, -1.25, 1e-300]
    matrix = np.diag(diagonal)
    assert list(op.symm_eigen(matrix)) == sorted(diagonal)
    assert list(op.symm_eigen(-2.5 * np.eye(7))) == [-2.5] * 7


def test_symm_eigen_repeated_eigenvalues():
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((9, 9)))
    matrix = q @ np.diag([1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, 3.0, 3.0]) @ q.T
    matrix = (matrix + matrix.T) / 2.0
    _assert_close_to_lapack(op.symm_eigen(matrix), matrix)


@pytest.mark.parametrize("index", [0, 4, 9])
def test_symm_eigen_zero_row_and_column(index):
    a = np.random.default_rng(index).uniform(-1.0, 1.0, size=(10, 10))
    matrix = a + a.T
    matrix[index, :] = 0.0
    matrix[:, index] = 0.0
    got = op.symm_eigen(matrix)
    _assert_close_to_lapack(got, matrix)
    assert min(map(abs, got)) <= 1e-15


@pytest.mark.parametrize("direction", [1, -1], ids=["growing", "shrinking"])
def test_symm_eigen_graded_matrices(direction):
    # entries graded over 10^-12 .. 10^12 along both axes
    n = 12
    a = np.random.default_rng(3).uniform(-1.0, 1.0, size=(n, n))
    grades = 10.0 ** (direction * np.linspace(-6.0, 6.0, n))
    matrix = (a + a.T) * np.outer(grades, grades)
    _assert_close_to_lapack(op.symm_eigen(matrix), matrix)


def test_symm_eigen_negative_definite():
    b = np.random.default_rng(11).standard_normal((15, 15))
    matrix = -(b @ b.T + np.eye(15))
    got = op.symm_eigen(matrix)
    assert got[-1] < 0.0
    _assert_close_to_lapack(got, matrix)


def test_symm_eigen_array_and_lists_agree_bit_for_bit():
    a = np.random.default_rng(2).uniform(-5.0, 5.0, size=(23, 23))
    matrix = (a + a.T) / 2.0
    from_array = op.symm_eigen(matrix)
    assert op.symm_eigen(matrix.tolist()).tobytes() == from_array.tobytes()
    assert op.symm_eigen(tuple(map(tuple, matrix))).tobytes() == from_array.tobytes()


def test_symm_eigen_averages_a_slightly_asymmetric_matrix():
    a = np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 6))
    sym = a + a.T
    tilted = sym.copy()
    tilted[0, 3] += 1e-13
    _assert_close_to_lapack(op.symm_eigen(tilted), sym, rel=1e-13)


def test_symm_eigen_iteration_cap_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(op, "_QL_MAX_ITERATIONS", 0)
    assert op.symm_eigen(np.eye(3)) == array("d", [1.0, 1.0, 1.0])
    with pytest.raises(RuntimeError, match="did not converge in 0 iterations"):
        op.symm_eigen([[1.0, 2.0], [2.0, 1.0]])


@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    n=st.integers(min_value=2, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_symm_eigen_matches_lapack(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    sym = (a + a.T) / 2.0
    _assert_close_to_lapack(op.symm_eigen(sym), sym, rel=1e-12)


def test_spectrum_report_small_case():
    report = op.spectrum_report(0, 2)
    np.testing.assert_allclose(
        sorted(report.eigenvalues), [-2.0 / (3.0 * math.pi), 2.0 / math.pi], atol=1e-14
    )
    assert report.containment_violation == 0.0


def test_spectrum_report_containment_and_symmetry():
    report = op.spectrum_report(0, 128)
    assert report.min >= -1.0 - 1e-9
    assert report.max <= 1.0 + 1e-9
    assert report.containment_violation == 0.0
    odd = np.asarray(op.spectrum_report(1, 64).eigenvalues)
    np.testing.assert_allclose(odd, -odd[::-1], atol=1e-10)


def test_spectrum_report_coverage_gap_shrinks():
    gaps = [op.spectrum_report(0, n).coverage_gap for n in (64, 128, 256, 512)]
    for left, right in zip(gaps, gaps[1:]):
        assert right <= left + 1e-15


def test_spectrum_report_is_deterministic():
    a = op.spectrum_report(2, 48)
    b = op.spectrum_report(2, 48)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


@pytest.mark.parametrize(
    "ell, n",
    [(ell, n) for ell in range(9) for n in (1, 2, 3, 8, 33, 64)]
    + [(ell, n) for ell in (1, 3, 5, 7) for n in (45, 91)],
)
def test_spectrum_report_blocks_match_the_full_solve(ell, n):
    # the full-matrix solve and LAPACK stay the oracles for the
    # parity-block path
    values = np.asarray(op.spectrum_report(ell, n).eigenvalues)
    entries = op.hankel_truncation(ell, n).entries
    assert values.shape == (n,)
    assert np.all(np.diff(values) >= 0.0)
    full = np.sort(op.symm_eigen(entries))
    assert np.max(np.abs(values - full)) < 1e-13
    assert np.max(np.abs(values - np.linalg.eigvalsh(entries))) < 1e-13
    if ell % 2 == 1:
        assert np.array_equal(values, -values[::-1])
        if n % 2 == 1:
            assert values[n // 2] == 0.0


def _blocks(ell, n):
    return spectral._parity_blocks(ell, spectral.truncation_values(ell, n))


def _solved(ell, n):
    """(parity block, record of its solve) for each non-empty block."""
    blocks = [block for block in _blocks(ell, n) if block[2]]
    return list(zip(blocks, op._solved_blocks(ell, n), strict=True))


def _with_zeros(block, size):
    """A solved block's values, ascending, with its exact zeros."""
    return sorted(block.values + [0.0] * (size - len(block.values)))


# what the profile hook in the next test reads from each call's arguments
_CALL_SIZES = {
    "_block_factor": lambda args: args["rows"],
    "_tridiagonalize": lambda args: len(args["low"]),
    "_gram_schmidt_rows": lambda args: len(args["columns"]),
    "_bidiagonal_chain": lambda args: (len(args["columns"][0]), len(args["columns"])),
    "_tridiagonal_eigenvalues": lambda args: len(args["d"]),
    "symm_eigen": lambda args: np.shape(args["matrix"]),
}


@pytest.mark.parametrize(
    "ell, n, shapes",
    [
        (0, 64, [(32, 32), (32, 32)]),
        (1, 64, [(32, 32)]),
        (0, 33, [(17, 17), (16, 16)]),
        (1, 33, [(17, 16)]),
        (2, 1, [(1, 1)]),
        (0, 1024, [(512, 512), (512, 512)]),
        (3, 1024, [(512, 512)]),
        (7, 181, [(91, 90)]),
    ],
)
def test_spectrum_report_solves_the_parity_blocks(ell, n, shapes):
    # one pivoted factor per block, then one QL core: the r x r Gram
    # matrix of a square block, given by one triangle and tridiagonalized,
    # or, for the (k + 1) x k block U at odd N, one Gram-Schmidt pass and
    # the Golub-Kahan chain of an (r + 1) x r matrix, a tridiagonal of
    # size 2r; symm_eigen never runs. A profile hook reads the calls'
    # arguments without replacing any function; r is the record's rank.
    calls = []

    def profile(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and frame.f_globals is vars(op) and name in _CALL_SIZES:
            calls.append((name, _CALL_SIZES[name](frame.f_locals)))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        op.spectrum_report(ell, n)
    finally:
        sys.setprofile(previous)
    solved = _solved(ell, n)
    assert [(rows, cols) for (_, rows, cols, _, _), _ in solved] == shapes
    calls = iter(calls)
    for (_, rows, cols, _, _), block in solved:
        r = block.rank
        if rows == cols:
            core = [("_tridiagonalize", r), ("_tridiagonal_eigenvalues", r)]
        else:
            core = [
                ("_gram_schmidt_rows", r),
                ("_bidiagonal_chain", (r + 1, r)),
                ("_tridiagonal_eigenvalues", 2 * r),
            ]
        assert [next(calls) for _ in range(len(core) + 1)] == [("_block_factor", rows), *core]
        assert r <= min(rows, 25) and len(block.values) <= min(r, cols)
    assert next(calls, None) is None


@pytest.mark.parametrize("n", [127, 128, 255, 256, 512])
def test_spectrum_report_matches_lapack(n):
    for ell in range(9):
        values = np.asarray(op.spectrum_report(ell, n).eigenvalues)
        want = np.linalg.eigvalsh(op.hankel_truncation(ell, n).entries)
        assert np.max(np.abs(values - want)) < 1e-13, ell


@pytest.mark.parametrize("ell, n", [(0, 512), (3, 512), (0, 4096), (3, 4096)])
def test_square_block_misses_stay_within_the_discarded_trace(ell, n):
    # Weyl: the discarded remainder is positive semidefinite, so its trace
    # bounds every eigenvalue's miss; the Gram core's QL and LAPACK each
    # add rounding of about an ulp of the largest eigenvalue
    for (values, rows, _, _, _), block in _solved(ell, n):
        want = np.linalg.eigvalsh(np.array(op._hankel_rows(values, rows)))
        miss = np.max(np.abs(np.array(_with_zeros(block, rows)) - want))
        top = np.max(np.abs(want))
        assert 0.0 <= block.bound < 1e-13 * top
        assert miss <= block.bound + 4.0 * np.finfo(float).eps * top
        assert len(block.values) <= 31


@pytest.mark.parametrize("ell, n", [(0, 48), (3, 48), (2, 41), (0, 64), (3, 64)])
def test_square_block_factor_matches_an_exact_solve(ell, n):
    # the factor reads the model (1/pi) H_p; 40 digits of its spectrum
    # are the exact reference, up to the block's own deviation, which
    # the recorded bound covers
    mpmath = pytest.importorskip("mpmath")
    for (_, rows, _, sign, p), block in _solved(ell, n):
        with mpmath.workdps(40):
            x = [i + (1 - mpmath.mpf(p)) / 2 for i in range(rows)]
            model = mpmath.matrix([[1 / (mpmath.pi * (xi + xj)) for xj in x] for xi in x])
            want = sorted(sign * float(v) for v in mpmath.eigsy(model, eigvals_only=True))
        top = max(map(abs, want))
        miss = max(abs(x - y) for x, y in zip(_with_zeros(block, rows), want))
        assert miss <= block.bound + 4.0 * np.finfo(float).eps * top, (rows, miss, block.bound)


def test_every_block_at_the_size_cap_keeps_the_documented_rank_and_bound():
    # measured: r = 29 to 30 and bound <= 4.8e-14 for every order; the
    # odd order at odd size reads the (k + 1) x k block U
    cap = spectral.MAX_TRUNCATION_SIZE
    sizes = [(ell, cap) for ell in range(9)] + [(1, cap - 1)]
    for ell, n in sizes:
        for block in op._solved_blocks(ell, n):
            assert block.rank <= 31 and block.bound < 1e-13, (ell, n, block.rank, block.bound)


def test_valid_blocks_sit_far_inside_the_model_guard():
    # the guard's constant is at least 100 times the largest miss of a
    # valid block from (1/pi) H_p, relative to its largest entry
    for ell in range(9):
        for n in (64, 1023, 1024, 4095, 4096):
            for values, rows, _, sign, p in _blocks(ell, n):
                deviation = spectral._block_deviation(values, sign, p, rows)
                assert 100.0 * deviation * math.pi * (1.0 - p) <= op._MODEL_TOLERANCE, (ell, n)


@pytest.mark.parametrize("ell, n", [(0, 64), (3, 64), (2, 1023), (5, 4096)])
@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_a_block_value_moved_by_1e_12_is_a_numerical_failure(ell, n, index, direction):
    for values, rows, _, sign, p in _blocks(ell, n):
        moved = list(values)
        moved[index] *= 1.0 + direction * 1e-12
        with pytest.raises(ArithmeticError, match="not positive semidefinite"):
            op._block_factor(moved, rows, sign, p)


@pytest.mark.parametrize("ell, n", [(0, 1), (1, 1), (1, 2), (2, 7), (3, 45), (4, 64), (7, 181)])
def test_spectrum_reads_as_the_full_ascending_sequence(ell, n):
    want = op._truncation_eigenvalues(ell, n)
    got = op.spectrum_report(ell, n).eigenvalues
    assert isinstance(got, op.Spectrum)
    assert len(got) == n
    assert list(got) == got.tolist() == want
    assert [got[i] for i in range(-n, n)] == want + want
    assert got[1:-1] == want[1:-1] and got[::-3] == want[::-3]
    assert list(reversed(got)) == want[::-1]
    assert np.asarray(got).tolist() == want
    assert got.count(0.0) == want.count(0.0)
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            got[bad]
    with pytest.raises(TypeError):
        got[0.0]


def test_spectrum_compares_by_value_and_drops_negative_zeros():
    spectrum = op.Spectrum([-2.0, -0.0, 0.0, 0.0, 3.0])
    assert spectrum.tolist() == [-2.0, 0.0, 0.0, 0.0, 3.0]
    assert all(math.copysign(1.0, v) > 0.0 for v in spectrum if v == 0.0)
    assert spectrum == op.Spectrum([-2.0, 0.0, 0.0, 0.0, 3.0])
    assert spectrum != op.Spectrum([-2.0, 0.0, 0.0, 3.0])
    assert spectrum != op.Spectrum([-2.0, -1.0, 0.0, 0.0, 3.0])
    assert spectrum != [-2.0, 0.0, 0.0, 0.0, 3.0]
    assert op.spectrum_report(3, 45) == op.spectrum_report(3, 45)
    with pytest.raises(TypeError):
        hash(spectrum)
    with pytest.raises(AttributeError):
        spectrum.extra = 1
    assert op.Spectrum([]).tolist() == []
    for bad in ([-2.0, 0.0, 3.0, 0.0], [0.0, math.nan], [math.nan]):
        with pytest.raises(ValueError, match="ascending"):
            op.Spectrum(bad)


@pytest.mark.parametrize("ell", [1, 4])
def test_spectrum_report_holds_a_few_hundred_bytes_at_any_size(ell):
    # a report keeps the at most 2r nonzero values and a count of the
    # zeros, not N doubles: 16 KB at N = 2048 as an array("d")
    for n in (255, 2048):
        op.spectrum_report(ell, n)
        tracemalloc.start()
        try:
            report = op.spectrum_report(ell, n)
            held = tracemalloc.get_traced_memory()[0]
            del report
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1024, (n, held)


def test_spectrum_report_has_no_negative_zeros():
    for ell in range(9):
        for n in range(1, 65):
            values = op.spectrum_report(ell, n).eigenvalues
            assert all(math.copysign(1.0, v) > 0.0 for v in values if v == 0.0), (ell, n)


@pytest.mark.parametrize(
    "ell, n, index",
    [
        (0, 64, 20),
        (0, 64, 124),
        (3, 64, 21),
        (3, 64, 125),
        (3, 63, 21),
        (3, 63, 123),
        (1, 45, 1),
        (7, 181, 5),
    ],
)
def test_a_flipped_block_value_is_a_numerical_failure(monkeypatch, ell, n, index):
    # index 124 and 125 are the corner value a_(2 rows - 2) of the first
    # block, whose flip keeps the Frobenius norm; at odd order and odd
    # size, index 123 is the corner of the (k + 1) x k block U
    def flipped(ell, n, truncation_values=spectral.truncation_values):
        values = truncation_values(ell, n)
        values[index] = -values[index]
        return values

    monkeypatch.setattr(op, "truncation_values", flipped)
    with pytest.raises(ArithmeticError, match="not positive semidefinite"):
        op.spectrum_report(ell, n)


@pytest.mark.parametrize("ell", [1, 3, 5, 7])
def test_odd_order_at_odd_size_matches_lapack(ell):
    # N = 1 has no block at all, and at small N the factor's rank r
    # exceeds k, the rank of U
    for n in range(1, 130, 2):
        values = np.asarray(op.spectrum_report(ell, n).eigenvalues)
        want = np.linalg.eigvalsh(op.hankel_truncation(ell, n).entries)
        assert np.max(np.abs(values - want)) <= 1e-13, n
        assert np.array_equal(values, -values[::-1]), n
        assert values[n // 2] == 0.0, n
        assert all(math.copysign(1.0, v) > 0.0 for v in values if v == 0.0), n


@pytest.mark.parametrize("ell, n", [(1, 511), (3, 1023), (7, 255)])
def test_odd_block_misses_stay_within_the_factor_bound(ell, n):
    # U ~ L M^T misses the model's first columns by columns of the
    # positive semidefinite remainder, whose trace bounds their norm
    [((values, _, cols, _, _), block)] = _solved(ell, n)
    matrix = np.array([values[row : row + cols] for row in range(cols + 1)])
    want = np.linalg.svd(matrix, compute_uv=False)[::-1]
    assert len(block.values) <= cols and block.values == sorted(block.values)
    assert all(v > 0.0 for v in block.values)
    assert 0.0 <= block.bound < 1e-13 * want[-1]
    miss = np.max(np.abs(np.array(_with_zeros(block, cols)) - want))
    assert miss <= block.bound + 4.0 * np.finfo(float).eps * want[-1], (miss, block.bound)


@pytest.mark.parametrize("ell, n", [(1, 47), (3, 63)])
def test_odd_block_matches_an_exact_svd(ell, n):
    # 40 digits of the singular values of the model's first k columns are
    # the exact reference, up to the block's own deviation
    mpmath = pytest.importorskip("mpmath")
    [((_, _, cols, _, p), block)] = _solved(ell, n)
    with mpmath.workdps(40):
        x = [i + (1 - mpmath.mpf(p)) / 2 for i in range(cols + 1)]
        model = mpmath.matrix([[1 / (mpmath.pi * (xi + xj)) for xj in x[:cols]] for xi in x])
        want = sorted(float(v) for v in mpmath.svd_r(model, compute_uv=False))
    miss = max(abs(x - y) for x, y in zip(_with_zeros(block, cols), want))
    assert miss <= block.bound + 4.0 * np.finfo(float).eps * want[-1], (miss, block.bound)


def _chain_singular_values(matrix):
    """Singular values, descending, of the upper bidiagonal that
    ``_bidiagonal_chain`` makes of ``matrix``, by LAPACK and by the
    package's QL on the size-2r tridiagonal, after checking the chain."""
    r = matrix.shape[1]
    chain = op._bidiagonal_chain(matrix.T.tolist())
    assert len(chain) == 2 * r - 1 and all(map(math.isfinite, chain))
    bidiagonal = np.diag(chain[0::2]) + np.diag(chain[1::2], 1)
    pm = sorted(op._tridiagonal_eigenvalues([0.0] * (2 * r), [0.0, *chain]))
    return np.linalg.svd(bidiagonal, compute_uv=False), np.array(pm[r:][::-1])


@pytest.mark.parametrize("r", range(1, 41))
def test_bidiagonal_chain_keeps_the_singular_values(r):
    matrix = np.random.default_rng(r).standard_normal((r + 1, r))
    want = np.linalg.svd(matrix, compute_uv=False)
    # the reflections' rounding grows with r: 9 eps at most up to r = 40
    tolerance = 16.0 * np.finfo(float).eps * want[0]
    lapack, ql = _chain_singular_values(matrix)
    assert np.max(np.abs(lapack - want)) <= tolerance
    assert np.max(np.abs(ql - want)) <= tolerance


@pytest.mark.parametrize("case", ["zero column", "equal columns", "zero matrix"])
@pytest.mark.parametrize("r", [1, 2, 7])
def test_bidiagonal_chain_of_a_rank_deficient_matrix(case, r):
    # a column that is zero, or becomes zero, gives a zero reflector
    matrix = np.random.default_rng(100 + r).standard_normal((r + 1, r))
    if case == "zero column":
        matrix[:, r // 2] = 0.0
    elif case == "equal columns":
        matrix[:, -1] = matrix[:, 0]
    else:
        matrix[:] = 0.0
    want = np.linalg.svd(matrix, compute_uv=False)
    tolerance = 4.0 * np.finfo(float).eps * max(want[0], np.finfo(float).tiny)
    for got in _chain_singular_values(matrix):
        assert np.max(np.abs(got - want)) <= tolerance, got


@pytest.mark.parametrize("ell, n", [(1, 4095), (7, 4095), (3, 2047)])
def test_odd_size_spectra_keep_the_frobenius_moment(ell, n):
    # an O(N) oracle where a dense solve is too heavy: the sum of the
    # squared eigenvalues is the squared Frobenius norm, in which value s
    # appears on min(s + 1, 2N - 1 - s) entries
    values = spectral.truncation_values(ell, n)
    eigenvalues = op.spectrum_report(ell, n).eigenvalues
    frobenius = math.fsum(min(s + 1, 2 * n - 1 - s) * v * v for s, v in enumerate(values))
    assert abs(math.fsum(v * v for v in eigenvalues) - frobenius) <= 1e-13
    assert list(eigenvalues) == [0.0 - v for v in reversed(eigenvalues)]


@pytest.mark.parametrize("p", [0.5, -0.5])
def test_hilbert_type_spectrum_range(p):
    # true smallest eigenvalues sit below float resolution, so only a
    # roundoff-sized dip under zero is tolerated here
    for n in (16, 64):
        vals = op.symm_eigen(op.hilbert_type(p, n, False).entries)
        assert vals[0] > -1e-12
        assert vals[-1] < math.pi - 1e-6


_RECORDS = [
    (op.HankelTruncation, ("ell", "size", "entries"), lambda: op.hankel_truncation(2, 4)),
    (
        op.HilbertTypeMatrix,
        ("p", "size", "alternating", "entries"),
        lambda: op.hilbert_type(-0.5, 4, alternating=True),
    ),
    (
        op.SpectrumReport,
        ("eigenvalues", "min", "max", "containment_violation", "coverage_gap"),
        lambda: op.spectrum_report(1, 4),
    ),
    (
        op._SolvedBlock,
        ("rank", "deviation", "bound", "values"),
        lambda: next(op._solved_blocks(3, 33)),
    ),
]


@pytest.mark.parametrize(
    "kind, fields, build", _RECORDS, ids=[kind.__name__ for kind, _, _ in _RECORDS]
)
def test_records_are_immutable_named_tuples(kind, fields, build):
    record = build()
    assert type(record) is kind
    assert kind._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize(
    "build, other",
    [
        (lambda: op.hankel_truncation(2, 4), lambda: op.hankel_truncation(3, 4)),
        (
            lambda: op.hilbert_type(-0.5, 4, alternating=True),
            lambda: op.hilbert_type(-0.5, 4, alternating=False),
        ),
    ],
    ids=["HankelTruncation", "HilbertTypeMatrix"],
)
def test_matrix_records_compare_and_hash_by_value(build, other):
    record = build()
    again = build()
    assert record.entries is not again.entries
    assert record == again and hash(record) == hash(again)
    assert record != other()
    assert len({record, again, other()}) == 2
