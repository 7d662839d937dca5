import math
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hankel_spectra.quadrature import (
    QuadratureBudgetError,
    QuadratureResult,
    _gk15_panel,
    _poly_symbol_reference,
    _xi_pow_reference,
    fourier_symbol_oracle,
    improper_damped,
    integrate_adaptive,
)

mp.mp.dps = 30


@pytest.mark.parametrize("degree", range(0, 23))
def test_panel_integrates_polynomials_exactly(degree):
    # A 15-point Gauss-Kronrod panel is exact through degree 22.
    value, _err = _gk15_panel(lambda x: x ** degree, -1.0, 1.0)[:2]
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert value == pytest.approx(exact, abs=3e-16)


def test_panel_degree_23_is_not_exact():
    value, _err = _gk15_panel(lambda x: x ** 24, -1.0, 1.0)[:2]
    assert abs(value - 2.0 / 25.0) > 1e-12


def test_adaptive_polynomial_single_panel():
    result = integrate_adaptive(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0, tol=1e-12)
    assert result.value == 3.75
    assert result.evaluations == 15


def test_adaptive_gaussian():
    result = integrate_adaptive(lambda x: math.exp(-x * x), -8.0, 8.0, tol=1e-13)
    assert result.value == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert result.abs_error_estimate < 1e-10


def test_adaptive_is_deterministic():
    first = integrate_adaptive(lambda x: math.sin(x * x), 0.0, 10.0, tol=1e-11)
    second = integrate_adaptive(lambda x: math.sin(x * x), 0.0, 10.0, tol=1e-11)
    assert first.value == second.value
    assert first.evaluations == second.evaluations
    assert first.evaluations % 15 == 0


@given(
    breakpoints=st.lists(st.floats(-0.99, 0.99), max_size=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_ignores_the_order_of_its_breakpoints(breakpoints, data):
    def f(x):
        return abs(x - 0.3) + math.sin(5.0 * x)

    shuffled = data.draw(st.permutations(breakpoints))
    first = integrate_adaptive(f, -1.0, 1.0, tol=1e-12, breakpoints=breakpoints)
    second = integrate_adaptive(f, -1.0, 1.0, tol=1e-12, breakpoints=shuffled)
    assert first == second


def test_adaptive_breakpoints_handle_kinks():
    result = integrate_adaptive(abs, -1.0, 1.0, tol=1e-14, breakpoints=(0.0,))
    assert result.value == pytest.approx(1.0, abs=1e-15)


def test_adaptive_budget_error_carries_best_estimate():
    with pytest.raises(QuadratureBudgetError) as exc:
        integrate_adaptive(
            lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0, tol=1e-15, max_panels=12
        )
    best = exc.value.best_estimate
    assert isinstance(best, QuadratureResult)
    assert math.isfinite(best.value)
    assert isinstance(exc.value, RuntimeError)


@given(
    coeffs=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=7
    )
)
@settings(max_examples=100, deadline=None)
def test_adaptive_matches_antiderivative(coeffs):
    def f(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    def big_f(x):
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    result = integrate_adaptive(f, 0.0, 2.0, tol=1e-12)
    scale = 1.0 + sum(abs(c) for c in coeffs)
    assert abs(result.value - (big_f(2.0) - big_f(0.0))) < 1e-11 * scale


def test_improper_damped_exact_values():
    cos_pair = improper_damped(lambda y: math.exp(-abs(y)) * math.cos(y), tol=1e-12)
    assert cos_pair.value == pytest.approx(1.0, abs=1e-12)
    cubic = improper_damped(lambda y: math.exp(-abs(y)) * abs(y) ** 3, tol=1e-12)
    assert cubic.value == pytest.approx(12.0, rel=1e-12)


def test_improper_damped_heavier_polynomial_weight():
    # degree widens the truncation window so slowly decaying moments still fit
    result = improper_damped(lambda y: math.exp(-abs(y)) * y ** 8, tol=1e-11, degree=8)
    assert result.value == pytest.approx(2.0 * math.factorial(8), rel=1e-11)


def test_fourier_symbol_oracle_order_zero_closed_form():
    for x in (0.0, 0.5, 2.0, 7.0, 20.0):
        want = 2.0 / math.pi * (math.sin(x) / x if x else 1.0)
        assert fourier_symbol_oracle(0, x) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_fourier_symbol_oracle_against_mpmath(ell, x):
    def symbol(t):
        return 2 * ((1 + 1j * t) / (1 - 1j * t)) ** ell

    want = complex(mp.quad(lambda t: symbol(t) * mp.exp(-1j * x * t), [-1, 0, 1]))
    want = want.real / (2 * math.pi)
    assert fourier_symbol_oracle(ell, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 3.0])
def test_xi_pow_reference_low_order_closed_forms(w):
    got1 = _xi_pow_reference(1, w)
    assert got1 == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-w), abs=1e-11)
    got2 = _xi_pow_reference(2, w)
    want2 = math.pi / (2 * math.sqrt(2 * math.pi)) * math.exp(-w) * (1 + w)
    assert got2 == pytest.approx(want2, abs=1e-11)


def test_poly_symbol_reference_order_zero():
    for w in (0.0, 1.0, 3.0):
        want = math.sqrt(8 / math.pi) * (math.sin(w) / w if w else 1.0)
        assert _poly_symbol_reference(0, w) == pytest.approx(want, abs=1e-12)


def test_poly_symbol_reference_against_mpmath():
    for w in (1.0, 3.0):
        want = complex(
            mp.quad(lambda t: 2 * (1 + 1j * t) ** 4 * mp.exp(-1j * t * w), [-1, 0, 1])
        ).real / math.sqrt(2 * math.pi)
        assert _poly_symbol_reference(2, w) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_adaptive(math.exp, 0.0, 1.0, tol=math.nan),
        lambda: integrate_adaptive(math.exp, 0.0, 1.0, tol=math.inf),
        lambda: integrate_adaptive(math.exp, -math.inf, 1.0, tol=1e-10),
        lambda: improper_damped(lambda y: math.exp(-abs(y)), tol=math.nan),
        lambda: fourier_symbol_oracle(1, math.inf),
        lambda: fourier_symbol_oracle(1, math.nan),
        lambda: fourier_symbol_oracle(1, 1.0, tol=math.nan),
        lambda: _xi_pow_reference(1, math.inf),
        lambda: _poly_symbol_reference(1, math.nan),
    ],
    ids=[
        "adaptive-nan-tol",
        "adaptive-inf-tol",
        "adaptive-inf-bound",
        "damped-nan-tol",
        "oracle-inf-x",
        "oracle-nan-x",
        "oracle-nan-tol",
        "xi-pow-inf-w",
        "poly-symbol-nan-w",
    ],
)
def test_non_finite_input_is_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: fourier_symbol_oracle(1, 1e6),
        lambda: _poly_symbol_reference(1, 1e6),
        lambda: _xi_pow_reference(1, 1e6),
    ],
    ids=["oracle", "poly-symbol", "xi-pow"],
)
def test_panel_budget_is_checked_before_the_seeds_are_built(call):
    # at x = 1e6 the oscillation cuts alone would be a list of 636 620
    # floats (tens of MB of peak allocation) before the budget check
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="seed panels exceed max_panels"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
