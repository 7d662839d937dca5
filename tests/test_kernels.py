import math
import pickle
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hankel_spectra import kernels, specfun
from hankel_spectra.kernels import (
    X_MAX_CLOSED,
    X_MIN_CLOSED,
    KernelEvaluation,
    evaluate,
    exp_poly_self_convolution,
    fourier_psi_tilde,
    fourier_xi_pow,
    k_asymptotic,
    k_closed,
    k_conv,
    lp_diagnostic,
    symbol_psi_ell,
)
from hankel_spectra.quadrature import (
    QuadratureBudgetError,
    _poly_symbol_reference,
    _xi_pow_reference,
    fourier_symbol_oracle,
    integrate_adaptive,
)
from hankel_spectra.specfun import (
    damped_moment_shifted,
    damped_trig_moment,
    e1,
    e1_scaled,
    ein,
    gamma_abs_sq,
    sinc,
    sinc_derivative,
)

import kernel_terms
from kernel_terms import p_term, q_term


def test_symbol_is_unimodular_times_two_on_support():
    for ell in range(0, 9):
        for t in (-0.99, -0.5, 0.0, 0.4, 0.97):
            assert abs(symbol_psi_ell(ell, t)) == pytest.approx(2.0, rel=1e-15)
    assert symbol_psi_ell(0, 2.0) == 0j
    assert symbol_psi_ell(1, 1.5) == 0j
    assert symbol_psi_ell(1, 0.5) == pytest.approx(1.2 + 1.6j, rel=1e-15)


def test_fourier_xi_pow_low_order_closed_forms():
    for w in (-3.0, -0.5, 0.0, 0.5, 1.0, 3.0):
        want1 = math.sqrt(math.pi / 2) * math.exp(-abs(w))
        assert fourier_xi_pow(1, w) == pytest.approx(want1, rel=1e-14)
        want2 = math.pi / (2 * math.sqrt(2 * math.pi)) * math.exp(-abs(w)) * (1 + abs(w))
        assert fourier_xi_pow(2, w) == pytest.approx(want2, rel=1e-14)


def test_fourier_xi_pow_is_even_exactly():
    for ell in range(1, 9):
        for w in (0.25, 1.0, 4.0, 11.0):
            assert fourier_xi_pow(ell, -w) == fourier_xi_pow(ell, w)


@pytest.mark.parametrize("ell", [3, 5])
@pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
def test_fourier_xi_pow_against_quadrature(ell, w):
    assert fourier_xi_pow(ell, w) == pytest.approx(_xi_pow_reference(ell, w), abs=1e-10)


def test_fourier_psi_tilde_order_zero():
    for w in (0.0, 0.7, 2.0, -2.0):
        want = math.sqrt(8 / math.pi) * sinc(w)
        assert fourier_psi_tilde(0, w) == pytest.approx(want, rel=1e-14)
        assert fourier_psi_tilde(0, -w) == fourier_psi_tilde(0, w)


def test_fourier_psi_tilde_at_origin():
    # the even sinc derivatives at 0 are (-1)^k/(2k+1), so ell = 1 gives 2/3
    want = 2.0 / 3.0 * math.sqrt(8 / math.pi)
    assert fourier_psi_tilde(1, 0.0) == pytest.approx(want, rel=1e-14)


def test_fourier_psi_tilde_mirror_identity():
    # Negating w flips the alternating signs off the sinc-derivative sum.
    for ell in (1, 2, 3, 4):
        for w in (0.5, 1.5, 3.0):
            mirrored = math.sqrt(8 / math.pi) * sum(
                math.comb(2 * ell, n) * sinc_derivative(n, w) for n in range(2 * ell + 1)
            )
            assert fourier_psi_tilde(ell, -w) == pytest.approx(mirrored, abs=1e-12)


@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("w", [0.5, 2.0])
def test_fourier_psi_tilde_against_quadrature(ell, w):
    assert fourier_psi_tilde(ell, w) == pytest.approx(_poly_symbol_reference(ell, w), abs=1e-10)


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("y", [0.0, 0.7, 2.0, 5.0])
def test_exp_poly_self_convolution_against_quadrature(ell, y):
    def integrand(x):
        return abs(x) ** ell * math.exp(-abs(x)) * math.exp(-abs(y - x))

    want, _ = quad(integrand, -50.0, 50.0, points=[0.0, y], limit=400)
    assert exp_poly_self_convolution(ell, y) == pytest.approx(want, abs=1e-10)


def test_exp_poly_self_convolution_frozen():
    assert exp_poly_self_convolution(0, 2.0) == pytest.approx(3.0 * math.exp(-2.0), rel=1e-14)
    for ell in range(0, 9):
        assert exp_poly_self_convolution(ell, 0.0) == pytest.approx(
            math.factorial(ell) / 2 ** ell, rel=1e-13
        )


def test_k_conv_order_zero_is_scaled_sinc():
    for x in (0.0, 1.0, -4.0, 12.0):
        assert k_conv(0, x).value == pytest.approx(2.0 / math.pi * sinc(x), rel=1e-14)


@pytest.mark.parametrize("ell", [1, 2, 5, 8])
@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_three_evaluation_routes_agree(ell, x):
    conv = k_conv(ell, x).value
    closed = k_closed(ell, x).value
    oracle = evaluate(ell, x, method="oracle").value
    assert closed == pytest.approx(conv, abs=1e-8)
    assert oracle == pytest.approx(conv, abs=1e-8)


@pytest.mark.parametrize("ell", [1, 8])
def test_routes_agree_at_closed_form_boundary(ell):
    x = X_MIN_CLOSED
    assert k_closed(ell, x).value == pytest.approx(k_conv(ell, x).value, abs=1e-8)


def _term_by_term_closed(ell, x):
    # The explicit formula as a plain sum over (m, n) of the p/q terms with
    # weights (-1)^n C(2 ell, n) (2^m/m!) C(2 ell - m - 2, ell - 1).
    total = 0.0
    for m in range(ell):
        for n in range(2 * ell + 1):
            weight = (
                (-1) ** n
                * math.comb(2 * ell, n)
                * 2**m
                / math.factorial(m)
                * math.comb(2 * ell - m - 2, ell - 1)
            )
            term = p_term if n <= m else q_term
            total += weight * (term("-", m, n, x) + term("+", m, n, x))
    return total / (math.pi * 2.0 ** (2 * ell - 2))


# From order 5 on the float sum of the p/q terms itself rounds, by far
# more than k_closed's error estimate, so it stops being a reference.
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_closed_form_matches_term_by_term_sum(ell):
    for i in range(12):
        x = 0.1 * 100.0 ** (i / 11)
        assert k_closed(ell, x).value == pytest.approx(_term_by_term_closed(ell, x), abs=1e-12)


def _mp_kernel(ell, x):
    # the symbol's Fourier integral over 2 pi at 30 digits, on panels
    # shorter than the oscillation
    with mp.workdps(30):
        f = lambda t: mp.re(((1 + 1j * t) / (1 - 1j * t)) ** ell * mp.exp(-1j * x * t))
        return mp.quad(f, mp.linspace(-1, 1, int(x) + 3)) / mp.pi


@pytest.mark.parametrize("ell", range(1, 9))
def test_closed_values_near_zero_lie_within_their_estimate_of_mpmath(ell):
    # the closed form is analytic at 0, so it serves from x = 0 on
    for x in [0.0] + [1e-12 * 1e11 ** (i / 11) for i in range(12)]:
        record = k_closed(ell, x)
        assert abs(record.value - _mp_kernel(ell, x)) <= record.error_estimate, x


@pytest.mark.parametrize(
    "ell, x, method",
    [(1, 4.231176599936788, "closed"), (3, 8.48528137423857, "oracle"),
     (5, 8.48528137423857, "oracle")],
)
def test_rounding_floors_cover_the_mpmath_miss(ell, x, method):
    # without their floors these estimates fell below the true miss, by
    # 1.06x (closed) and 48x and 4.3x (oracle)
    record = evaluate(ell, x, method=method)
    assert abs(record.value - _mp_kernel(ell, x)) <= record.error_estimate


@pytest.mark.parametrize("ell", range(1, 9))
def test_closed_error_estimate_covers_the_oracle_miss(ell):
    # values come from the kernel's Taylor tables below x = 60 and from the
    # rows over A's asymptotic series from there on
    grid = (1e-3, 0.01, 0.1, 0.3, 1.0, 3.0, 5.0, 8.4, 8.5, 9.9, 20.0, 60.0, 200.0, 1000.0)
    for x in grid:
        record = k_closed(ell, x)
        oracle = evaluate(ell, x, method="oracle")
        miss = abs(record.value - oracle.value)
        bound = record.error_estimate + oracle.error_estimate
        assert miss <= bound, (x, miss, record.error_estimate, oracle.error_estimate)


@pytest.mark.parametrize("ell", range(1, 9))
def test_oracle_reports_the_quadrature_error_estimate(ell):
    # its miss against k_closed is checked in the test above
    estimates = set()
    for x in (0.3, 3.0, 20.0):
        oracle = evaluate(ell, x, method="oracle")
        assert oracle.value == fourier_symbol_oracle(ell, x)
        assert 0.0 < oracle.error_estimate <= 1e-13 / (2.0 * math.pi)
        estimates.add(oracle.error_estimate)
    assert len(estimates) > 1


def _mp_a(x):
    # A(x) = pi e^(-x) + Im(e^(-ix) e^z E1(z)) on z = x(-1+i), at the
    # working precision; A(0) = pi/4
    if x == 0:
        return mp.pi / 4
    z = mp.mpc(-x, x)
    return mp.pi * mp.exp(-x) + mp.im(mp.exp(mp.mpc(0, -x)) * mp.exp(z) * mp.e1(z))


def _horner(coeffs, h):
    acc = 0.0
    for coef in coeffs:
        acc = acc * h + coef
    return acc


def _a_table():
    # x = 60 and X_MAX_CLOSED, and the points from 60 on of 300 log points
    # on [1e-3, X_MAX_CLOSED]: below 60 closed values use no value of A
    grid = {60.0, X_MAX_CLOSED}
    low, high = math.log(1e-3), math.log(X_MAX_CLOSED)
    grid.update(math.exp(low + (high - low) * k / 299) for k in range(300))
    return sorted(x for x in grid if x >= 60.0)


def test_a_series_matches_mpmath():
    # Against 40 digits: within 2 ulps of 1/(1 + x) in the asymptotic
    # series, and no worse than E1's continued fraction
    # (kernel_terms._a_value), which misses by up to 3.5 ulps there
    worst = worst_fraction = 0.0
    with mp.workdps(40):
        for x in _a_table():
            a = kernels._a_value(x, math.sin(x), math.cos(x))
            want = _mp_a(x)
            fraction = kernel_terms._a_value(x)
            ulp = math.ulp(1.0 / (1.0 + x))
            miss, fraction_miss = float(abs(a - want)) / ulp, float(abs(fraction - want)) / ulp
            assert miss <= 2.0, (x, miss)
            worst, worst_fraction = max(worst, miss), max(worst_fraction, fraction_miss)
    assert worst <= worst_fraction


def test_a_asymptotic_tables_are_the_exact_coefficients_cut_by_their_remainder_bound():
    # e^z E1(z) = sum_k (-1)^k k!/z^(k+1) on z = x(-1+i), 1/z = -(1+i)/(2x),
    # so the coefficients of 1/x^(k+1) are w_k = (-1)^k k! (-(1+i)/2)^(k+1).
    # At |ph z| = 3 pi/4 the remainder after n terms is at most sqrt(2)
    # n!/|z|^(n+1) (DLMF 6.12(i)); each octave keeps the fewest terms for
    # which that stays within 2^-57 of (1 - 1/x)/|z| <= |e^z E1(z)| at its
    # lower end (and at 60 in the first)
    with mp.workdps(30):
        for octave in range(6, 1023):
            table = kernels._a_asymptotic(octave)[::-1]
            re, im = 1, 0
            for k, coef in enumerate(table):
                re, im = im - re, -re - im  # (-1-i)^(k+1)
                scale = Fraction((-1) ** k * math.factorial(k), 2 ** (k + 1))
                assert coef == complex(float(scale * re), float(scale * im)), (octave, k)
            low = mp.mpf(max(60.0, 2.0 ** (octave - 1)))
            modulus = low * mp.sqrt(2)
            floor = mp.mpf(2) ** -57 * (1 - 1 / low) / modulus

            def remainder(n):
                return mp.sqrt(2) * mp.factorial(n) / modulus ** (n + 1)

            assert remainder(len(table)) <= floor < remainder(len(table) - 1), octave
            if octave < 40:
                g = mp.exp(mp.mpc(-low, low)) * mp.e1(mp.mpc(-low, low))
                assert abs(g) >= (1 - 1 / low) / modulus, octave
    assert math.frexp(60.0)[1] == 6 and math.frexp(X_MAX_CLOSED)[1] == 1022


_BINS = 240  # quarter-unit Taylor bins on [0, 60)


def _mp_series(i, count):
    # the Taylor coefficients of A, sinc, sin and cos about c = (2i + 1)/8,
    # A's from A' = sinc - A, with sinc's by Leibniz's rule for sin(x)
    # times 1/x
    c = mp.mpf(2 * i + 1) / 8
    sines = [mp.sin(c + j * mp.pi / 2) / mp.factorial(j) for j in range(count)]
    cosines = [mp.cos(c + j * mp.pi / 2) / mp.factorial(j) for j in range(count)]
    inverse = [(-1) ** m / c ** (m + 1) for m in range(count)]
    sincs = [mp.fdot(sines[j::-1], inverse) for j in range(count)]
    a = [_mp_a(c)]
    for j in range(count - 1):
        a.append((sincs[j] - a[j]) / (j + 1))
    return a, sincs, sines, cosines


def _mp_taylor(ell, i, series):
    # k^(ell)'s Taylor coefficients about c = (2i + 1)/8, lowest first. The
    # exact rows of kernels._closed_rows are polynomials p over A, sin and
    # cos; their Taylor coefficients at c, sum_k p_k C(k, m) c^(k-m), are
    # exact rationals, and each multiplies its series as a power series.
    # Then 2 (-1)^ell sinc is added and the sum divided by pi. The rows
    # themselves are checked by the values below against the symbol's
    # integral.
    a, sincs, sines, cosines = series
    c = Fraction(2 * i + 1, 8)
    den, rows = kernels._closed_rows(ell)
    total = [2 * (-1) ** ell * s for s in sincs]
    for column, values in enumerate((a, sines, cosines)):
        poly = [row[column] for row in reversed(rows)]  # lowest first
        for m in range(len(poly)):
            shift = sum(p * math.comb(k, m) * c ** (k - m) for k, p in enumerate(poly) if k >= m)
            shift = mp.mpf(shift.numerator) / (shift.denominator * den)
            for j in range(m, len(total)):
                total[j] += shift * values[j - m]
    return [t / mp.pi for t in total]


def test_taylor_tables_are_the_exact_coefficients_cut_by_their_tail_bound():
    # |k^(j)| <= 2/(pi (j + 1)), so with |x - c| <= 1/8 the terms from J on
    # add at most 4/(pi (J + 1) J! 8^J); each table keeps the fewest terms
    # for which that stays within 2^-64, every coefficient correctly rounded
    # from 60 digits, then its error estimate
    def tail(count):
        return 4 / (mp.pi * (count + 1) * mp.factorial(count) * mp.mpf(8) ** count)

    sparse = sorted(set(range(0, _BINS, 7)) | {_BINS - 1})
    with mp.workdps(60):
        for i in range(_BINS):
            series = _mp_series(i, kernels._TAYLOR_TERMS)
            for ell in range(1, 9):
                if ell in (1, 8) or i in sparse:
                    *table, _ = kernels._taylor_table(ell, i)
                    assert len(table) == kernels._TAYLOR_TERMS
                    assert tail(len(table)) <= mp.mpf(2) ** -64 < tail(len(table) - 1)
                    want = [float(b) for b in reversed(_mp_taylor(ell, i, series))]
                    assert table == want, (ell, i)
                    for j, b in enumerate(reversed(table)):
                        assert abs(b) <= 2 / (math.pi * (j + 1) * math.factorial(j)), (ell, i, j)
    # each side of an edge lies within its own estimate of the kernel, so
    # the two meet within the sum; the last bin meets the asymptotic route
    for ell in range(1, 9):
        tables = [kernels._TAYLOR[ell][i] or kernels._taylor_table(ell, i) for i in range(_BINS)]
        for below, above in zip(tables, tables[1:]):
            gap = abs(_horner(below[:-1], 0.125) - _horner(above[:-1], -0.125))
            assert gap <= below[-1] + above[-1], ell
        record = k_closed(ell, 60.0)
        gap = abs(_horner(tables[-1][:-1], 0.125) - record.value)
        assert gap <= tables[-1][-1] + record.error_estimate, ell


def _kernel_table_points():
    # the closed points of the kernel-table benchmark: log-midpoints of 72
    # strata of [0.1, 1000], stratum k at order 1 + k % 8
    return [(1 + k % 8, 0.1 * math.exp(math.log(1e4) * (k + 0.5) / 72)) for k in range(72)]


_RULE_PANELS, _RULE_NODES = 8, 20


def _mp_rule():
    # _mp_kernel's integral over [-1, 1] folded onto [0, 1], where the real
    # part is even, as a fixed Gauss-Legendre rule of _RULE_NODES nodes on
    # each of _RULE_PANELS panels: the nodes, and per order the weights
    # times Re and Im of the symbol, so that one cos(x t) and sin(x t) per
    # node serve all eight orders at one x
    with mp.workdps(50):
        nodes, weights = mp.gauss_quadrature(_RULE_NODES, "legendre")
        ts, rows = [], {ell: ([], []) for ell in range(1, 9)}
        for p in range(_RULE_PANELS):
            for node, weight in zip(nodes, weights):
                t = (2 * p + 1 + node) / (2 * _RULE_PANELS)
                ts.append(t)
                symbol = mp.mpc(1, t) / mp.mpc(1, -t)
                for ell, (re_part, im_part) in rows.items():
                    value = weight / (_RULE_PANELS * mp.pi) * symbol**ell
                    re_part.append(value.real)
                    im_part.append(value.imag)
    return ts, rows


def _mp_kernels(rule, x):
    # the kernel of every order at x, at 40 digits
    ts, rows = rule
    with mp.workdps(40):
        cos, sin = zip(*(mp.cos_sin(x * t) for t in ts))
        return {
            ell: mp.fdot(re_part, cos) + mp.fdot(im_part, sin)
            for ell, (re_part, im_part) in rows.items()
        }


def test_closed_values_below_60_lie_within_their_estimate_of_mpmath():
    # x = 0, both sides of every 8th bin edge, of 40 and of 60, and the
    # kernel-table points below 60, against the symbol's integral at 40
    # digits; the fixed rule meets _mp_kernel_wide's adaptive one at the
    # top of the range, where it is hardest
    rule = _mp_rule()
    with mp.workdps(40):
        assert abs(_mp_kernels(rule, 60.0)[8] - _mp_kernel_wide(8, 60.0)) <= 1e-28
    grid = {0.0}
    for edge in [2.0 * k for k in range(1, 30)] + [40.0, 60.0]:
        grid.update((math.nextafter(edge, 0.0), edge))
    points = [(ell, x) for x in sorted(grid) for ell in range(1, 9)]
    points += [(ell, x) for ell, x in _kernel_table_points() if x < 60.0]
    assert len(points) == 8 * 61 + 50
    references = {}
    for ell, x in points:
        if x not in references:
            references[x] = _mp_kernels(rule, x)
        record = k_closed(ell, x)
        assert x == 60.0 or record.error_estimate <= 4e-15, (ell, x)
        assert abs(record.value - references[x][ell]) <= record.error_estimate, (ell, x)


def test_the_kernel_table_point_at_43_54_meets_the_oracle():
    # it used to pass perfbench's 1e-8 check by one ulp of A, missing by 9.6e-9
    (ell, x), = [(ell, x) for ell, x in _kernel_table_points() if ell == 8 and 43 < x < 44]
    assert abs(evaluate(ell, x).value - fourier_symbol_oracle(ell, x)) <= 1e-15


def _clear_tables(monkeypatch):
    # every table is built again on its next use
    monkeypatch.setattr(kernels, "_TAYLOR", [[None] * _BINS for _ in range(kernels.L_MAX + 1)])
    kernels._a_taylor.cache_clear()
    kernels._a_asymptotic.cache_clear()


def test_closed_values_never_call_the_continued_fraction(monkeypatch):
    def refuse(z):
        raise AssertionError(f"continued fraction called at z = {z!r}")

    assert "_e1_cf_scaled" not in vars(kernels)
    monkeypatch.setattr(specfun, "_e1_cf_scaled", refuse)
    _clear_tables(monkeypatch)
    grid = _kernel_table_points()
    grid += [(ell, 0.1 * 1e7 ** (k / 99)) for ell in range(1, 9) for k in range(100)]
    for ell, x in grid:
        assert evaluate(ell, x).route == "closed"
    with pytest.raises(AssertionError, match="continued fraction called"):
        specfun.e1_scaled(complex(-50.0, 50.0))


def test_one_evaluate_call_builds_at_most_one_table(monkeypatch):
    # tables are built on first use: per order and Taylor bin, one shared
    # series per bin and one per octave, so a cold command pays for the
    # tables its points touch and no more
    def built():
        orders = sum(table is not None for row in kernels._TAYLOR for table in row)
        return (
            orders,
            kernels._a_taylor.cache_info().currsize,
            kernels._a_asymptotic.cache_info().currsize,
        )

    _clear_tables(monkeypatch)
    grid = _kernel_table_points() + [(3, 0.5 + 999.5 * k / 23) for k in range(24)]
    grid += [(1, 1e7 ** (k / 49)) for k in range(50)]
    for ell, x in grid:
        before = built()
        evaluate(ell, x)
        assert all(0 <= b - a <= 1 for a, b in zip(before, built())), (ell, x)
    assert kernels._a_taylor.cache_info().currsize <= _BINS


# value and error_estimate as float.hex, from the kernel's Taylor tables below
# x = 60 and from the rows over A's asymptotic series from there on; the
# test after the pinned ones holds each value within its estimate of mpmath
_CLOSED_PINS = {
    (1, 0.0): ("0x1.7419f246c6efap-2", "0x1.a704b37e31dccp-54"),
    (1, 0.1): ("0x1.8fbe2ef538a7bp-2", "0x1.a704b37e31dccp-54"),
    (1, 1.0): ("0x1.2a5bbb84cb7dcp-1", "0x1.2af71af5675a6p-53"),
    (1, 5.0): ("-0x1.32a4259f70fc6p-7", "0x1.049e838e5c89ap-56"),
    (1, 8.485): ("0x1.96c611c83a229p-5", "0x1.c63ca0cfdc9e0p-57"),
    (4, 0.0): ("0x1.05880ca8a090cp-5", "0x1.1115bbc070fcdp-56"),
    (4, 0.1): ("0x1.3411b4b3a6cfbp-6", "0x1.1115bbc070fcdp-56"),
    (4, 1.0): ("-0x1.da8955244c3ffp-4", "0x1.5525555032095p-55"),
    (4, 5.0): ("0x1.369baa708fb0ap-2", "0x1.787d86a27dd7cp-54"),
    (4, 8.485): ("0x1.93f664147052bp-2", "0x1.8dacd12c3261cp-54"),
    (8, 0.0): ("0x1.302fca996f520p-7", "0x1.3f97186ba3c02p-57"),
    (8, 0.1): ("0x1.c8707bd17411cp-10", "0x1.3f97186ba3c02p-57"),
    (8, 1.0): ("-0x1.0e35a9348efcfp-4", "0x1.526509b7f18fcp-56"),
    (8, 5.0): ("0x1.3ff2299498c90p-3", "0x1.380478793c6dap-55"),
    (8, 8.485): ("-0x1.178038733b92fp-2", "0x1.2a58f1a40850bp-54"),
    (1, 9.0): ("0x1.282a94796537ap-4", "0x1.2f7ec350a83c0p-56"),
    (1, 20.0): ("-0x1.c2bdfd06c690cp-7", "0x1.186b4d37b3d24p-58"),
    (1, 100.0): ("-0x1.6b626769f625bp-8", "0x1.1d36deebad7c8p-57"),
    (1, 1000.0): ("-0x1.77ca0bacb8827p-12", "0x1.0cf609f4b2c6cp-61"),
    (4, 9.0): ("0x1.18586b708b463p-2", "0x1.e885235b9bd74p-55"),
    (4, 20.0): ("0x1.278abb9aa3dfbp-5", "0x1.3605f055ceab2p-57"),
    (4, 100.0): ("-0x1.b874857602c52p-9", "0x1.b1ab6f73cb372p-37"),
    (4, 1000.0): ("0x1.1518d47a9ea2ep-11", "0x1.83ea5054ad507p-31"),
    (8, 9.0): ("-0x1.3c1d57f6bb1d1p-2", "0x1.24f9b35a5a879p-54"),
    (8, 20.0): ("0x1.7d36bd03e8381p-4", "0x1.4bf9c4207ba36p-56"),
    (8, 100.0): ("-0x1.ccc2a4c68bb8ap-9", "0x1.e6b48a7d101cfp-16"),
    (8, 1000.0): ("-0x1.6175998f36633p-1", "0x1.b79dc67d99787p+3"),
}


@pytest.mark.parametrize("ell, x", sorted(k for k in _CLOSED_PINS if k[1] > 8.5))
def test_closed_values_beyond_the_radius_are_pinned(ell, x):
    record = k_closed(ell, x)
    assert (record.value.hex(), record.error_estimate.hex()) == _CLOSED_PINS[ell, x]


@pytest.mark.parametrize("ell, x", sorted(k for k in _CLOSED_PINS if k[1] < 8.5))
def test_closed_values_below_the_radius_are_pinned(ell, x):
    record = k_closed(ell, x)
    assert (record.value.hex(), record.error_estimate.hex()) == _CLOSED_PINS[ell, x]


def _mp_kernel_wide(ell, x):
    # _mp_kernel by Gauss-Legendre on panels of 16/x, 0.4 s at x = 1000
    # where _mp_kernel takes 9 s; the two agree to 30 digits at x = 20
    # and 100
    with mp.workdps(30):
        f = lambda t: mp.re(((1 + 1j * t) / (1 - 1j * t)) ** ell * mp.exp(-1j * x * t))
        panels = mp.linspace(-1, 1, int(x / 16) + 3)
        return mp.quad(f, panels, method="gauss-legendre") / mp.pi


@pytest.mark.parametrize("ell, x", sorted(_CLOSED_PINS))
def test_pinned_values_lie_within_their_estimate_of_mpmath(ell, x):
    value, estimate = (float.fromhex(h) for h in _CLOSED_PINS[ell, x])
    assert abs(value - _mp_kernel_wide(ell, x)) <= estimate


@pytest.mark.parametrize("ell, x", sorted(_CLOSED_PINS))
def test_evaluate_returns_the_k_closed_record_on_every_pin(ell, x):
    record = k_closed(ell, x)
    assert record == (x, record.value, "closed", record.error_estimate)
    assert evaluate(ell, x, method="closed") == record
    if x >= kernels._CROSSOVER:
        assert evaluate(ell, x) == record
    else:
        assert evaluate(ell, x).route == "convolution"


@pytest.mark.parametrize("ell", range(1, 9))
def test_conv_error_estimate_covers_the_oracle_miss(ell):
    for x in (1e-3, 0.01, 0.05, 0.3, 1.0, 3.0):
        record = k_conv(ell, x)
        miss = abs(record.value - fourier_symbol_oracle(ell, x))
        assert miss <= record.error_estimate, (x, miss, record.error_estimate)


@given(ell=st.integers(1, 8), x=st.floats(0.1, 50.0))
@settings(max_examples=25, deadline=None)
def test_closed_and_convolution_routes_agree_within_estimates(ell, x):
    closed = k_closed(ell, x)
    conv = k_conv(ell, x)
    bound = closed.error_estimate + conv.error_estimate + 1e-10
    assert abs(closed.value - conv.value) <= bound


def test_evaluate_route_selection():
    assert evaluate(1, 0.05).route == "convolution"
    assert evaluate(1, 0.5).route == "closed"
    assert evaluate(1, -3.0).route == "convolution"
    assert evaluate(2, 4.0, method="oracle").route == "oracle"


def test_evaluate_returns_populated_record():
    record = evaluate(2, 1.5)
    assert isinstance(record, KernelEvaluation)
    assert record.x == 1.5
    assert record.error_estimate >= 0.0
    assert math.isfinite(record.value)


def test_kernel_evaluation_is_a_slotted_value():
    record = evaluate(1, 1.0)
    assert not hasattr(record, "__dict__")
    assert record == KernelEvaluation(
        x=record.x, value=record.value, route="closed", error_estimate=record.error_estimate
    )
    assert hash(record) == hash(evaluate(1, 1.0))


def test_kernel_evaluation_is_an_immutable_named_tuple():
    record = evaluate(2, 0.05)
    assert KernelEvaluation._fields == ("x", "value", "route", "error_estimate")
    for field in KernelEvaluation._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is KernelEvaluation
    assert restored == record


def test_kernel_values_stay_inside_symbol_bound():
    # the symbol has modulus 2 on an interval of length 2, so no kernel
    # value can exceed 2/pi
    bound = 2.0 / math.pi + 1e-9
    for ell in (1, 2, 3, 4, 5, 6):
        for x in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0):
            assert abs(evaluate(ell, x).value) <= bound


@pytest.mark.parametrize(
    "ell,cap", [(1, 1.47), (2, 2.45), (3, 3.45), (4, 4.37)]
)
def test_scaled_kernel_decay_bound(ell, cap):
    for x in (1.0, 3.2, 10.0, 31.6, 100.0, 316.0, 1000.0, 10000.0):
        assert abs(x * k_closed(ell, x).value) < cap


def test_asymptotic_form():
    for ell in (0, 1, 2, 3):
        for x in (5.0, 17.0, 120.0):
            want = 2.0 / math.pi * math.sin(x - ell * math.pi / 2) / x
            assert k_asymptotic(ell, x) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("ell", [1, 2])
def test_kernel_approaches_asymptotic_form(ell):
    x = 500.0
    diff = abs(x * k_closed(ell, x).value - x * k_asymptotic(ell, x))
    assert diff < 0.01


def test_large_argument_example():
    x = 100.3
    got = x * k_closed(1, x).value
    want = 2.0 / math.pi * math.sin(x - math.pi / 2)
    assert abs(got - want) < 0.05


def test_p_and_q_term_regression_values():
    assert p_term("+", 2, 1, 1.5) == pytest.approx(-0.218543046871477, rel=1e-12)
    assert p_term("-", 3, 3, 0.7) == pytest.approx(-0.48845496123512966, rel=1e-12)
    assert q_term("+", 1, 4, 2.0) == pytest.approx(-0.10411774126023415, rel=1e-12)
    assert q_term("-", 0, 2, 1.0) == pytest.approx(-0.2642282251279444, rel=1e-12)


def test_p_and_q_term_validation():
    with pytest.raises(ValueError):
        p_term("+", 2, 3, 1.0)
    with pytest.raises(ValueError):
        p_term("+", 8, 1, 1.0)
    with pytest.raises(ValueError):
        p_term("x", 1, 1, 1.0)
    with pytest.raises(ValueError):
        p_term("+", 1, 1, 0.0)
    with pytest.raises(ValueError):
        q_term("+", 2, 2, 1.0)
    with pytest.raises(ValueError):
        q_term("+", 8, 9, 1.0)


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate(9, 1.0)
    with pytest.raises(ValueError):
        evaluate(-1, 1.0)
    with pytest.raises(ValueError):
        k_closed(1, -1e-4)
    with pytest.raises(ValueError, match="X_MIN_CLOSED"):
        evaluate(1, -1e-4, method="closed")
    with pytest.raises(ValueError):
        evaluate(1, 1.0, method="magic")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "route",
    [
        lambda x: evaluate(0, x),
        lambda x: evaluate(1, x),
        lambda x: evaluate(2, x, method="oracle"),
        lambda x: k_closed(2, x),
        lambda x: k_conv(1, x),
        lambda x: k_asymptotic(1, x),
        lambda x: p_term("+", 1, 0, x),
        lambda x: q_term("-", 0, 2, x),
        lambda x: sinc(x),
        lambda x: sinc_derivative(2, x),
        lambda x: e1(x),
        lambda x: e1_scaled(complex(1.0, x)),
        lambda x: ein(x),
        lambda x: gamma_abs_sq(x, 1.0),
        lambda x: gamma_abs_sq(0.0, x),
        lambda x: damped_moment_shifted(2, x, 1.0),
        lambda x: damped_moment_shifted(2, 1.0, x),
        lambda x: damped_trig_moment(2, x, "sin"),
        lambda x: fourier_xi_pow(2, x),
        lambda x: exp_poly_self_convolution(2, x),
        lambda x: symbol_psi_ell(2, x),
    ],
    ids=[
        "evaluate-sinc",
        "evaluate-auto",
        "evaluate-oracle",
        "k_closed",
        "k_conv",
        "k_asymptotic",
        "p_term",
        "q_term",
        "sinc",
        "sinc_derivative",
        "e1",
        "e1_scaled",
        "ein",
        "gamma_abs_sq-p",
        "gamma_abs_sq-y",
        "damped_moment_shifted-a",
        "damped_moment_shifted-x",
        "damped_trig_moment",
        "fourier_xi_pow",
        "exp_poly_self_convolution",
        "symbol_psi_ell",
    ],
)
def test_non_finite_x_is_rejected(route, bad):
    with pytest.raises(ValueError, match="must be finite"):
        route(bad)


@pytest.mark.parametrize("ell, x", [(8, 1e100), (4, 1e155)])
def test_closed_sum_past_the_double_range_is_a_numerical_failure(ell, x):
    # the x^(ell-1) terms overflow; the sum read -inf or its estimate inf
    with pytest.raises(OverflowError, match="^k_closed: "):
        k_closed(ell, x)
    with pytest.raises(OverflowError):
        evaluate(ell, x)


_TOP_OF_THE_RANGE = [8e307, 9e307, 1e308, 1.5e308, sys.float_info.max]


@pytest.mark.parametrize("x", _TOP_OF_THE_RANGE)
@pytest.mark.parametrize("ell", [1, 2, 3, 8])
def test_closed_x_past_its_limit_is_an_overflow_naming_k_closed(ell, x):
    # the E1 continued fraction used to stall from x of about 9e307 (exit 3,
    # "too close to the branch cut"), and abs(-x + ix) to overflow from
    # about 1.27e308
    want = "^" + re.escape(f"k_closed: x = {x} exceeds X_MAX_CLOSED = 3e+307")
    for route in (k_closed, evaluate, lambda ell, x: evaluate(ell, x, method="closed")):
        with pytest.raises(OverflowError, match=want):
            route(ell, x)


def test_closed_values_at_the_limit_lie_within_their_estimate():
    # orders 1 and 2 still give values this far out; the kernel is
    # (2/pi) sin(x - ell pi/2)/x up to a relative 1/x, and 340 digits
    # resolve x - ell pi/2. At X_MAX_CLOSED, 1/z on A's ray is still normal.
    assert X_MAX_CLOSED == 3e307 < 1.0 / (math.sqrt(2.0) * sys.float_info.min)
    with mp.workdps(340):
        for x in (1e306, 1e307, X_MAX_CLOSED):
            for ell in (1, 2):
                record = k_closed(ell, x)
                want = 2 / mp.pi * mp.sin(mp.mpf(x) - ell * mp.pi / 2) / x
                assert abs(record.value - want) <= record.error_estimate, (ell, x)


def test_lp_diagnostic_basic():
    value = lp_diagnostic(1, 1.0, 10.0)
    assert math.isfinite(value)
    assert value > 0.0
    assert value == pytest.approx(2.447815675520306, rel=1e-6)


def test_lp_diagnostic_l1_grows_and_l2_saturates():
    small = lp_diagnostic(1, 1.0, 100.0)
    large = lp_diagnostic(1, 1.0, 1000.0)
    assert small == pytest.approx(3.406469, rel=1e-4)
    assert large == pytest.approx(4.344557, rel=1e-4)
    assert large > small
    l2_small = lp_diagnostic(1, 2.0, 100.0)
    l2_large = lp_diagnostic(1, 2.0, 1000.0)
    assert abs(l2_large - l2_small) < 0.05


def test_lp_diagnostic_validation():
    with pytest.raises(ValueError):
        lp_diagnostic(1, 0.5, 100.0)


@pytest.mark.parametrize(
    "p, big_x",
    [(math.nan, 10.0), (math.inf, 10.0), (1.0, math.nan), (1.0, math.inf)],
    ids=["nan-p", "inf-p", "nan-x", "inf-x"],
)
def test_lp_diagnostic_rejects_non_finite_input(p, big_x):
    with pytest.raises(ValueError, match="^lp_diagnostic: .* must be finite"):
        lp_diagnostic(1, p, big_x)


def _two_region_lp(ell, p, big_x):
    # the former route: k_conv on (0, 0.1], k_closed beyond
    def piece(route, a, b, seeds=()):
        f = lambda x: abs(route(ell, x).value) ** p
        return integrate_adaptive(f, a, b, 1e-5, breakpoints=seeds).value

    low = piece(k_conv, 0.0, min(big_x, 0.1))
    if big_x <= 0.1:
        return low
    zeros = [ell * math.pi / 2 + k * math.pi for k in range(-ell, int(big_x / math.pi) + 1)]
    return low + piece(k_closed, 0.1, big_x, zeros)


@pytest.mark.parametrize(
    "ell, p, big_x", [(8, 1.0, 20.0), (1, 2.0, 100.0), (1, 1.0, 10.0), (4, 1.0, 0.05)]
)
def test_lp_diagnostic_matches_the_two_region_integral(ell, p, big_x):
    assert abs(lp_diagnostic(ell, p, big_x) - _two_region_lp(ell, p, big_x)) <= 1e-5


def test_lp_diagnostic_never_calls_the_convolution_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("k_conv called")

    monkeypatch.setattr(kernels, "k_conv", refuse)
    assert lp_diagnostic(8, 1.0, 20.0) > 0.0
    assert lp_diagnostic(3, 2.0, 0.05) > 0.0


def test_lp_diagnostic_refuses_closed_values_its_tolerance_disowns():
    # the closed estimate passes 1e-5 from x of about 84 at order 8; the
    # whole 80 000-panel budget used to be spent first
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="^lp_diagnostic: error estimate"):
        lp_diagnostic(8, 1.0, 1000.0)
    assert time.perf_counter() - start < 1.0


def test_lp_diagnostic_checks_the_panel_budget_before_building_seeds():
    # about 3.2e8 asymptotic zeros would be seeded; the input is valid, so
    # the refusal is a budget failure (exit 3), not a configuration error
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureBudgetError, match="^lp_diagnostic: .* seed panels exceed"):
            lp_diagnostic(1, 1.0, 1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
