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
    # A comes from its real series up to x = 12/sqrt(2) = 8.485, from E1 beyond
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


def _a_coefficient(k):
    # b_k = (-1)^(k+1) Im((-1+i)^k)/(k k!), (-1+i)^k by Gaussian-integer
    # multiplication
    re, im = 1, 0
    for _ in range(k):
        re, im = -re - im, re - im
    return Fraction((-1) ** (k + 1) * im, k * math.factorial(k))


def test_a_series_table_is_the_exact_coefficients_rounded_once():
    bins = kernels._a_series()
    assert len(bins) == math.floor(4 * kernels._A_SERIES_X) + 1
    for i, coefficients in enumerate(bins):
        *terms, constant = coefficients
        assert constant == math.pi / 4
        want = [float(_a_coefficient(k)) for k in range(len(terms), 0, -1)]
        assert terms == want, i
        # the dropped terms, at the bin's upper end and damped by e^(-x)
        # at its lower end, stay below 2^-57
        x_low, x_high = i / 4, (i + 1) / 4
        tail = sum(
            abs(_a_coefficient(k)) * Fraction(x_high) ** k
            for k in range(len(terms) + 1, len(terms) + 60)
        )
        assert math.exp(-x_low) * tail <= 2.0**-57, i


def test_a_series_serves_up_to_the_e1_series_radius():
    edge = kernels._A_SERIES_X
    assert edge == 12.0 / math.sqrt(2.0)
    assert abs(complex(-edge, edge)) <= 12.0
    above = math.nextafter(edge, math.inf)
    assert abs(complex(-above, above)) > 12.0


def test_a_series_matches_mpmath():
    with mp.workdps(40):
        for i in range(300):
            x = 1e-3 * (12.0 / math.sqrt(2.0) / 1e-3) ** (i / 299)
            z = mp.mpc(-x, x)
            want = mp.exp(-x) * (mp.pi + mp.im(mp.e1(z)))
            assert abs(kernels._a_value(x, math.sin(x), math.cos(x)) - want) <= 4e-16, x


def test_a_series_meets_the_e1_form_at_the_radius():
    edge = 12.0 / math.sqrt(2.0)
    last = kernels._a_series()[-1]
    for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
        series = 0.0
        for coef in last:
            series = series * x + coef
        series *= math.exp(-x)
        assert series == pytest.approx(kernel_terms._a_value(x), rel=1e-15, abs=0.0)


def test_a_beyond_the_radius_is_the_e1_form_unchanged():
    # _a_value calls the continued fraction itself, which is e1_scaled's
    # route on A's ray at every x the closed form serves past the radius
    edge = 12.0 / math.sqrt(2.0)
    grid = [math.nextafter(edge, math.inf)]
    grid += [8.5 * (X_MAX_CLOSED / 8.5) ** (i / 99) for i in range(100)]
    assert grid[-1] == X_MAX_CLOSED
    for x in grid:
        assert specfun._scaled_route(complex(-x, x)) is specfun._e1_cf_scaled, x
        a = kernels._a_value(x, math.sin(x), math.cos(x))
        assert a == kernel_terms._a_value(x), x


# value, as float.hex, from the E1 form of A and the coefficient loop
# before its unrolling (from the real series of A at x <= 8.485);
# error_estimate from the same sum plus its floor of two ulps of the value
_CLOSED_PINS = {
    (1, 0.0): ("0x1.7419f246c6efap-2", "0x1.0bdc9cb769fa2p-50"),
    (1, 0.1): ("0x1.8fbe2ef538a7ap-2", "0x1.0f7240b280420p-50"),
    (1, 1.0): ("0x1.2a5bbb84cb7dbp-1", "0x1.2e62733ff3758p-50"),
    (1, 5.0): ("-0x1.32a4259f70ff9p-7", "0x1.2c5192bb08199p-53"),
    (1, 8.485): ("0x1.96c611c83a22cp-5", "0x1.c9dfc2c892e54p-54"),
    (4, 0.0): ("0x1.05880ca8a0908p-5", "0x1.22616f3cdae4fp-48"),
    (4, 0.1): ("0x1.3411b4b3a6d6bp-6", "0x1.7e231b334dbd7p-48"),
    (4, 1.0): ("-0x1.da8955244c3eep-4", "0x1.8e57a861b7872p-46"),
    (4, 5.0): ("0x1.369baa708fad3p-2", "0x1.1100cb81b7901p-44"),
    (4, 8.485): ("0x1.93f66414705aep-2", "0x1.61cf765daf117p-43"),
    (8, 0.0): ("0x1.302fca996f569p-7", "0x1.2085c9696cac6p-47"),
    (8, 0.1): ("0x1.c8707bd175252p-10", "0x1.0ab6e8b5c369ap-46"),
    (8, 1.0): ("-0x1.0e35a9348f25fp-4", "0x1.3453dc2650f50p-42"),
    (8, 5.0): ("0x1.3ff22994a4949p-3", "0x1.702777e6512b0p-37"),
    (8, 8.485): ("-0x1.1780387373fd8p-2", "0x1.aea43fcd7dfccp-34"),
    (1, 9.0): ("0x1.282a94796537cp-4", "0x1.ad29fcdddfd4cp-54"),
    (1, 20.0): ("-0x1.c2bdfd06c6915p-7", "0x1.d93056cb33e21p-56"),
    (1, 100.0): ("-0x1.6b626769f6256p-8", "0x1.1d36deebad7c6p-57"),
    (1, 1000.0): ("-0x1.77ca0bacb8826p-12", "0x1.0cf609f4b2c6cp-61"),
    (4, 9.0): ("0x1.18586b708b4ccp-2", "0x1.6fa6e8f8af051p-43"),
    (4, 20.0): ("0x1.278abb9a9f261p-5", "0x1.c23923080cb13p-42"),
    (4, 100.0): ("-0x1.b874856993abdp-9", "0x1.b1ab6f73cb370p-37"),
    (4, 1000.0): ("0x1.1518d47a9ea2ep-11", "0x1.83ea5054ad507p-31"),
    (8, 9.0): ("-0x1.3c1d57f6a4d6dp-2", "0x1.0596a6faf7639p-33"),
    (8, 20.0): ("0x1.7d36bcfd583f4p-4", "0x1.a74200d85db06p-29"),
    (8, 100.0): ("-0x1.cb306be1189ffp-9", "0x1.e6b48a7d101cbp-16"),
    (8, 1000.0): ("0x1.7ab5e8bc4698ap-2", "0x1.b79dc67d99787p+3"),
}


@pytest.mark.parametrize("ell, x", sorted(k for k in _CLOSED_PINS if k[1] > 8.5))
def test_closed_values_beyond_the_radius_are_pinned(ell, x):
    record = k_closed(ell, x)
    assert (record.value.hex(), record.error_estimate.hex()) == _CLOSED_PINS[ell, x]


@pytest.mark.parametrize("ell, x", sorted(k for k in _CLOSED_PINS if k[1] < 8.5))
def test_closed_values_below_the_radius_are_pinned(ell, x):
    record = k_closed(ell, x)
    assert (record.value.hex(), record.error_estimate.hex()) == _CLOSED_PINS[ell, x]


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
