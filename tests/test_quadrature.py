import math
import pickle
import re
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hankel_spectra import quadrature
from hankel_spectra.kernels import fourier_xi_pow
from hankel_spectra.quadrature import (
    _WG,
    _WGK,
    _XGK,
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


def _gk15_at_60_digits():
    """Gauss-Kronrod 7-15 nodes and weights on [-1, 1], positive half,
    descending, in 60-digit arithmetic.

    The Gauss nodes are the roots of P7. The Kronrod nodes are the roots
    of the Stieltjes polynomial E8 = x^8 + c6 x^6 + c4 x^4 + c2 x^2 + c0,
    defined by int P7 E8 x^k dx = 0 over [-1, 1] for k = 1, 3, 5, 7 (the
    even k hold by parity). The Kronrod weights make the 15-point rule
    exact on even powers up to x^14; the Gauss weights are
    2 / ((1 - x^2) P7'(x)^2).
    """
    p7 = {7: 429, 5: -693, 3: 315, 1: -35}  # 16 P7(x)

    def p7_moment(n):  # 16 times the integral of P7(x) x^n over [-1, 1]
        return sum(mp.mpf(2 * c) / (d + n + 1) for d, c in p7.items() if (d + n) % 2 == 0)

    def positive_roots_in_x2(coeffs):  # roots x > 0 of a polynomial in x^2
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        return [mp.sqrt(mp.re(r)) for r in roots]

    with mp.workdps(60):
        odd = (1, 3, 5, 7)
        system = mp.matrix([[p7_moment(e + k) for e in (0, 2, 4, 6)] for k in odd])
        c0, c2, c4, c6 = mp.lu_solve(system, mp.matrix([-p7_moment(8 + k) for k in odd]))
        kronrod = positive_roots_in_x2([1, c6, c4, c2, c0])
        gauss = sorted(positive_roots_in_x2([429, -693, 315, -35]), reverse=True)
        nodes = sorted(kronrod + gauss, reverse=True) + [mp.mpf(0)]
        moments = mp.matrix(
            [[2 * x ** (2 * j) for x in nodes[:7]] + [int(j == 0)] for j in range(8)]
        )
        wgk = mp.lu_solve(moments, mp.matrix([mp.mpf(2) / (2 * j + 1) for j in range(8)]))
        p7_prime = [(7 * 429 * x**6 - 5 * 693 * x**4 + 3 * 315 * x**2 - 35) / 16
                    for x in gauss + [mp.mpf(0)]]
        wg = [2 / ((1 - x * x) * d**2) for x, d in zip(gauss + [mp.mpf(0)], p7_prime)]
        return nodes, list(wgk), wg


@pytest.mark.parametrize(
    "index, constants", [(0, _XGK), (1, _WGK), (2, _WG)], ids=["xgk", "wgk", "wg"]
)
def test_gk15_constants_match_a_60_digit_regeneration(index, constants):
    values = _gk15_at_60_digits()[index]
    # every constant is the double nearest to its 60-digit value
    assert constants == tuple(float(v) for v in values)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5j, "x"])
def test_adaptive_rejects_a_non_finite_or_non_real_breakpoint(bad):
    with pytest.raises(ValueError, match="integrate_adaptive: breakpoint"):
        integrate_adaptive(math.exp, 0.0, 1.0, 1e-10, breakpoints=[0.5, bad])
    with pytest.raises(ValueError, match="integrate_adaptive: breakpoint"):
        improper_damped(lambda y: math.exp(-abs(y)), 1e-10, breakpoints=[bad])


def test_adaptive_ignores_finite_breakpoints_outside_the_interval():
    plain = integrate_adaptive(math.exp, 0.0, 1.0, 1e-10)
    assert integrate_adaptive(math.exp, 0.0, 1.0, 1e-10, breakpoints=[-2.0, 0.0, 1.0, 7.5]) == plain


def test_adaptive_breakpoints_handle_kinks():
    result = integrate_adaptive(abs, -1.0, 1.0, tol=1e-14, breakpoints=(0.0,))
    assert result.value == pytest.approx(1.0, abs=1e-15)


def test_adaptive_stops_once_the_exact_error_sum_meets_tol():
    # the first panel's estimate is about 1576; the running total kept a
    # rounding residue of 1.6e-13 after the panels had converged and used
    # to exhaust the 10 000-panel budget
    result = integrate_adaptive(lambda v: v**14 * math.exp(-v * v), 0.0, 14.0, 1e-13)
    assert result.value == pytest.approx(math.gamma(7.5) / 2, abs=1e-10)
    assert result.evaluations // quadrature._EVALS_PER_PANEL < 30


def test_adaptive_budget_error_carries_best_estimate():
    with pytest.raises(QuadratureBudgetError) as exc:
        integrate_adaptive(
            lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0, tol=1e-15, max_panels=12
        )
    best = exc.value.best_estimate
    assert isinstance(best, QuadratureResult)
    # the message reports the exact sum of the panel estimates
    reported = float(re.search(r"error estimate (\S+) > tol", str(exc.value)).group(1))
    assert reported > 1e-15
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


def _xi_pow_bessel(ell, w):
    """The transform of (1+t^2)^(-ell) from mpmath's Bessel K (DLMF
    10.32.10): sqrt(2/pi) sqrt(pi)/Gamma(ell) (w/2)^(ell-1/2) K_(ell-1/2)(w),
    with its limit Gamma(ell-1/2)/(sqrt(2) Gamma(ell)) at w = 0."""
    w = abs(mp.mpf(w))
    nu = ell - mp.mpf(1) / 2
    if w == 0:
        return mp.gamma(nu) / (mp.sqrt(2) * mp.gamma(ell))
    return mp.sqrt(2 / mp.pi) * mp.sqrt(mp.pi) / mp.gamma(ell) * (w / 2) ** nu * mp.besselk(nu, w)


_XI_POW_GRID = (0.0, 0.01, 0.1, 0.2, 0.2499, 0.5, 1.0, 3.0, 10.0, 50.0)


@pytest.mark.parametrize("ell", range(1, 9))
def test_xi_pow_reference_matches_bessel_k(ell):
    worst = max(abs(_xi_pow_reference(ell, w) - _xi_pow_bessel(ell, w)) for w in _XI_POW_GRID)
    assert worst <= 1e-14


def test_xi_pow_reference_cost_and_accuracy(monkeypatch):
    panels = []

    def counting(*args, **kwargs):
        result = integrate_adaptive(*args, **kwargs)
        panels.append(result.evaluations // quadrature._EVALS_PER_PANEL)
        return result

    grid = (0.0, 0.5, 1.0, 3.0)
    monkeypatch.setattr(quadrature, "integrate_adaptive", counting)
    for ell in (1, 2, 3):  # the points of `verify --suite fourier`
        for w in grid:
            _xi_pow_reference(ell, w)
    assert sum(panels) <= 300
    worst = max(
        abs(fourier_xi_pow(ell, w) - _xi_pow_reference(ell, w))
        for ell in range(1, 9)
        for w in grid
    )
    assert worst <= 1e-14


@pytest.mark.parametrize("w", [0.1, -0.2, 0.2499])
def test_xi_pow_reference_covers_small_nonzero_w(w):
    for ell in range(1, 9):
        assert abs(_xi_pow_reference(ell, w) - fourier_xi_pow(ell, w)) <= 1e-14


def test_xi_pow_reference_is_zero_far_out_without_allocating():
    # the integrand underflows everywhere at w = 1e6, as the closed form does
    tracemalloc.start()
    try:
        value = _xi_pow_reference(1, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.0 == fourier_xi_pow(1, 1e6)
    assert peak < 1_000_000
    # v^(2 ell-2) alone would overflow on the far panels
    assert _xi_pow_reference(8, -1e300) == 0.0


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
    ],
    ids=["oracle", "poly-symbol"],
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


@pytest.mark.parametrize(
    "f",
    [lambda t: math.nan, lambda t: math.inf, lambda t: math.nan if t > 0.9 else 1.0],
    ids=["nan", "inf", "nan-on-one-panel"],
)
def test_non_finite_integrand_is_a_numerical_failure(f):
    # a nan error estimate would end the refinement and return nan
    with pytest.raises(ArithmeticError, match="^integrate_adaptive: "):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


def test_quadrature_result_is_an_immutable_named_tuple():
    record = integrate_adaptive(math.exp, 0.0, 1.0, 1e-12)
    assert QuadratureResult._fields == ("value", "abs_error_estimate", "evaluations")
    for field in QuadratureResult._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is QuadratureResult
    assert restored == record
