"""The kernel family k^(l) by every available route.

Four independent evaluations coexist here. The convolution route k_conv
integrates the private pieces behind the Fourier building blocks
fourier_xi_pow and fourier_psi_tilde (p_ell and the alternating
sinc-derivative sum); the fully explicit route k_closed expands the
symbol in partial fractions of 1/(1-it), which gives once per order an
exact linear form over A(x) x^k, sin(x) x^k and cos(x) x^k plus one
multiple of sinc(x), with A from an exact real power series up to
|x(-1+i)| = 12 and from e1_scaled beyond (the tests compare it with a
second, term-by-term derivation); fourier_symbol_oracle from the
quadrature module is the slow reference; and k_asymptotic is the
large-x limit shape. Their mutual agreement is the package's main
correctness argument, so none of them is allowed to call into another's
machinery.

Every route returns a ``KernelEvaluation`` named tuple.
"""

import cmath
import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import quadrature
from .combinatorics import p_poly
from .specfun import (
    L_MAX,
    _SERIES_RADIUS,
    _check_finite,
    _check_int,
    _gaussian_power,
    _sinc_derivative,
    e1_scaled,
    sinc,
)

X_MIN_CLOSED = 0.0

# x at which the automatic route passes from k_conv to the closed form,
# which holds from x = 0 at a thousandth of the cost: moving it would raise
# kernel-table's op count 100-fold, and perfbench keeps every result.
_CROSSOVER = 0.1

_SQRT_8_OVER_PI = math.sqrt(8.0 / math.pi)
_LP_MAX_PANELS = 80_000


# x, value and error_estimate floats; route "closed", "convolution" or "oracle"
KernelEvaluation = namedtuple("KernelEvaluation", "x value route error_estimate")


def symbol_psi_ell(ell, t):
    """Symbol value 2 ((1+it)/(1-it))^ell on [-1, 1], zero outside."""
    ell = _check_int("symbol_psi_ell", "ell", ell, 0, L_MAX)
    _check_finite("symbol_psi_ell", "t", t)
    if abs(t) > 1.0:
        return 0.0 + 0.0j
    return 2.0 * (complex(1.0, t) / complex(1.0, -t)) ** ell


@lru_cache(maxsize=None)
def _p_poly_floats(ell):
    return tuple(float(c) for c in p_poly(ell))


def _p_poly_eval(ell, u):
    coeffs = _p_poly_floats(ell)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def fourier_xi_pow(ell, w):
    """Fourier transform of (1+t^2)^(-ell): a decaying exponential times
    the positive polynomial p_ell, scaled by (1/sqrt(2 pi)) pi/2^(ell-1)."""
    ell = _check_int("fourier_xi_pow", "ell", ell, 1, L_MAX)
    _check_finite("fourier_xi_pow", "w", w)
    u = abs(w)
    scale = math.pi / (2.0 ** (ell - 1) * math.sqrt(2.0 * math.pi))
    return scale * math.exp(-u) * _p_poly_eval(ell, u)


def _alt_sinc_sum(ell, u):
    # sum_{n=0}^{2 ell} (-1)^n C(2 ell, n) sinc^(n)(u)
    total = 0.0
    for n in range(2 * ell + 1):
        coef = math.comb(2 * ell, n)
        if n % 2 == 1:
            coef = -coef
        total += coef * _sinc_derivative(n, u)
    return total


def fourier_psi_tilde(ell, w):
    """Fourier transform of the polynomial part of the symbol: the
    alternating binomial sum of sinc derivatives times sqrt(8/pi)."""
    ell = _check_int("fourier_psi_tilde", "ell", ell, 0, L_MAX)
    _check_finite("fourier_psi_tilde", "w", w)
    return _SQRT_8_OVER_PI * _alt_sinc_sum(ell, w)


def exp_poly_self_convolution(ell, y):
    """Closed form of the convolution of |x|^ell e^(-|x|) with e^(-|x|).

    e^(-|y|)/(ell+1) { |y|^(ell+1) + sum_{j<ell} (ell+1)!/(ell-j)!
    |y|^(ell-j)/2^(1+j) + (ell+1)!/2^ell }, even and strictly positive.
    """
    ell = _check_int("exp_poly_self_convolution", "ell", ell, 0, 2 * L_MAX)
    _check_finite("exp_poly_self_convolution", "y", y)
    u = abs(y)
    fact = math.factorial(ell + 1)
    inner = u ** (ell + 1) + fact / 2.0**ell
    for j in range(ell):
        inner += fact // math.factorial(ell - j) * u ** (ell - j) / 2.0 ** (1 + j)
    return math.exp(-u) * inner / (ell + 1)


@lru_cache(maxsize=None)
def _conv_rounding(ell):
    # Each sample of the alternating sum adds 2 ell + 1 terms
    # C(2 ell, n) sinc^(n), bounded by C(2 ell, n)/(n + 1); its rounding is
    # at most (2 ell + 1) eps times their total, and the weight
    # e^(-|y|) p_ell(|y|) integrates to 2 sum_d c_d d!.
    sinc_mass = sum(Fraction(math.comb(2 * ell, n), n + 1) for n in range(2 * ell + 1))
    weight = 2 * sum(c * math.factorial(d) for d, c in enumerate(p_poly(ell)))
    mass = float((2 * ell + 1) * sinc_mass * weight)
    return mass * sys.float_info.epsilon / (math.pi * 2.0 ** (ell - 1))


def k_conv(ell, x):
    """Kernel value through the convolution representation.

    The alternating sinc-derivative sum is evaluated inside a single
    damped improper integral against e^(-|y|) p_ell(|y|); only y = 0 is a
    kink. Order 0 is the plain sinc formula. The error estimate is the
    quadrature's plus a per-order bound on the rounding of the
    alternating sum, which dominates at high order (about 1.85e-11 at
    ell = 8).
    """
    ell = _check_int("k_conv", "ell", ell, 0, L_MAX)
    _check_finite("k_conv", "x", x)
    if ell == 0:
        return KernelEvaluation(
            x=x, value=2.0 / math.pi * sinc(x), route="convolution", error_estimate=0.0
        )

    def integrand(y):
        return math.exp(-abs(y)) * _p_poly_eval(ell, abs(y)) * _alt_sinc_sum(ell, x - y)

    prefactor = 1.0 / (math.pi * 2.0 ** (ell - 1))
    result = quadrature.improper_damped(integrand, 1e-10, degree=ell - 1)
    return KernelEvaluation(
        x=x,
        value=prefactor * result.value,
        route="convolution",
        error_estimate=prefactor * result.abs_error_estimate + _conv_rounding(ell),
    )


# The largest x with |x(-1+i)| <= _SERIES_RADIUS as e1_scaled computes it,
# so the series below serves exactly where e1_scaled would take the Ein
# series on A's ray (the tests check that the next double lies past it).
_A_SERIES_X = _SERIES_RADIUS / math.sqrt(2.0)
_A_BINS_PER_UNIT = 4
_A_TAIL = 2.0**-57


@lru_cache(maxsize=None)
def _a_series():
    # On z = x(-1+i), Im log z = 3 pi/4, so E1 = Ein - log z - gamma gives
    # A(x) = e^(-x) (pi/4 + sum_{k>=1} b_k x^k) with the exact rationals
    # b_k = (-1)^(k+1) Im((-1+i)^k)/(k k!), (-1+i)^k = i^k (1+i)^k
    # (DLMF 6.6.2; Abramowitz & Stegun 5.1.11). Bin i holds, highest first,
    # the terms kept for x in [i/4, (i+1)/4), then pi/4. With y = x sqrt(2),
    # |b_k| x^k <= t_k = y^k/(k k!) and t_(k+1)/t_k < y/(k+1), so once
    # K + 1 > y the tail from K on is at most t_K/(1 - y/(K+1)); K is the
    # first index at which that bound, at the bin's upper end and times
    # e^(-x) at its lower end, is at most _A_TAIL.
    bins = []
    coeffs = [None]
    for i in range(math.floor(_A_SERIES_X * _A_BINS_PER_UNIT) + 1):
        y = math.sqrt(2.0) * (i + 1) / _A_BINS_PER_UNIT
        damping = math.exp(-i / _A_BINS_PER_UNIT)
        k, t = 1, y
        while not (y < k + 1 and damping * t / (1.0 - y / (k + 1)) <= _A_TAIL):
            t *= y * k / (k + 1) ** 2
            k += 1
        while len(coeffs) < k:
            n = len(coeffs)
            re, im = _gaussian_power(n)
            im_n = (im, re, -im, -re)[n % 4]  # Im(i^n (re + i im))
            coeffs.append(float(Fraction((-1) ** (n + 1) * im_n, n * math.factorial(n))))
        bins.append((*reversed(coeffs[1:k]), math.pi / 4.0))
    return tuple(bins)


def _a_value(x):
    # integral over (0, inf) of e^(-y) sinc(x - y) dy, x >= 0,
    #   = pi e^(-x) + e^(-x) Im E1(-x + ix):
    # the real series of _a_series up to _A_SERIES_X, E1 beyond
    if x <= _A_SERIES_X:
        acc = 0.0
        for coef in _a_series()[int(x * _A_BINS_PER_UNIT)]:
            acc = acc * x + coef
        return math.exp(-x) * acc
    z = complex(-x, x)
    return math.pi * math.exp(-x) + (cmath.exp(complex(0.0, -x)) * e1_scaled(z)).imag


@lru_cache(maxsize=None)
def _closed_form(ell):
    # Rows k < ell of the coefficients of A x^k, sin(x) x^k and cos(x) x^k
    # in pi k^(ell)(x) - 2 (-1)^ell sinc(x), exact, then rounded once. The
    # symbol's partial fractions ((1+it)/(1-it))^ell = sum_j C(ell, j)
    # (-1)^(ell-j) 2^j (1-it)^(-j) make pi k^(ell) the same sum over the
    # integrals I_j(x) of e^(-ixt) (1-it)^(-j) over [-1, 1]: I_0 = 2 sinc x,
    # I_1 = 2 A(x) and, by parts, I_j = (x I_(j-1) + 2 Im(w^(j-1) e^(-ix)))
    # / (j-1) with w = (1+i)/2. So (j-1)!/2 I_j = x^(j-1) A + sum_{r<j}
    # (r-1)! x^(j-1-r) (Im(w^r) cos x - Re(w^r) sin x), weighted by c below.
    # Rows come highest first, each followed by its absolute values.
    poly = [[Fraction(0)] * 3 for _ in range(ell)]  # rows k: A, sin, cos
    for j in range(1, ell + 1):
        c = Fraction(
            (-1) ** (ell - j) * math.comb(ell, j) * 2 ** (j + 1), math.factorial(j - 1)
        )
        poly[j - 1][0] = c
        for r in range(1, j):
            re, im = _gaussian_power(r)
            lead = c * Fraction(math.factorial(r - 1), 2**r)
            poly[j - 1 - r][1] -= lead * re
            poly[j - 1 - r][2] += lead * im
    rows = (tuple(map(float, row)) for row in reversed(poly))
    return tuple((*row, *map(abs, row)) for row in rows)


def k_closed(ell, x):
    """Kernel value through the explicit exponential-integral formula.

    The kernel is the Fourier transform of the symbol 2 ((1+it)/(1-it))^ell
    on [-1, 1] against e^(-ixt), divided by 2 pi. Expanding the symbol in
    partial fractions of 1/(1-it) turns pi k^(ell)(x) into 2 (-1)^ell sinc(x)
    plus a fixed rational linear combination of A(x) x^k, sin(x) x^k and
    cos(x) x^k (k < ell), with A the damped sinc integral behind the
    E1(-x + ix) terms. Its coefficients are built once per order in exact
    arithmetic (on first use, then cached). A call costs one value of A,
    one Horner step per row of the three polynomials and one sinc. Up to
    x = 12/sqrt(2), where e1_scaled would take its Ein series, A is
    e^(-x) (pi/4 + sum b_k x^k) with exact rational b_k, summed by Horner
    to a stated tail bound; beyond, it costs one e1_scaled call.

    A is analytic, with A(0) = pi/4, so the route serves every x >= 0
    (X_MIN_CLOSED is 0; k_conv serves negative x): against 30-digit
    mpmath values at orders 1 to 8, at x = 0 and at 60 log points on
    [1e-12, 0.1], every value lies within its estimate, the worst at 0.27
    of it. At large x the polynomial terms grow like x^(ell-1)
    and cancel to a value of order 1/x. The error estimate is rounding
    noise scaled by the total absolute mass of the sum, so it grows with
    that cancellation, plus two ulps of the value, which the mass term
    alone can miss at order 1, where the mass is about the value. Where
    the sum or that mass leaves the double range it raises OverflowError.
    """
    ell = _check_int("k_closed", "ell", ell, 1, L_MAX)
    _check_finite("k_closed", "x", x)
    if x < X_MIN_CLOSED:
        raise ValueError(
            f"k_closed: x = {x} below X_MIN_CLOSED = {X_MIN_CLOSED}; use k_conv"
        )
    a, s, c = _a_value(x), math.sin(x), math.cos(x)
    abs_a, abs_s, abs_c = abs(a), abs(s), abs(c)
    total = 0.0
    abs_mass = 0.0
    # |coef| |value| rounds exactly as |coef value| does
    for ca, cs, cc, qa, qs, qc in _closed_form(ell):
        total = total * x + ca * a + cs * s + cc * c
        abs_mass = abs_mass * x + qa * abs_a + qs * abs_s + qc * abs_c
    term = 2.0 * (-1) ** ell * sinc(x)
    total += term
    abs_mass += abs(term)
    if not (math.isfinite(total) and math.isfinite(abs_mass)):
        raise OverflowError(f"k_closed: the sum at ell = {ell}, x = {x} overflows")
    value = total / math.pi
    return KernelEvaluation(
        x=x,
        value=value,
        route="closed",
        error_estimate=abs_mass / math.pi * 5e-16 + 2.0 * math.ulp(value),
    )


def k_asymptotic(ell, x):
    """Leading large-x shape (2/pi) sin(x - ell pi/2)/x."""
    ell = _check_int("k_asymptotic", "ell", ell, 0, L_MAX)
    _check_finite("k_asymptotic", "x", x)
    if x == 0.0:
        raise ValueError("k_asymptotic: undefined at x = 0")
    return 2.0 / math.pi * math.sin(x - 0.5 * ell * math.pi) / x


def evaluate(ell, x, method="auto"):
    """Route dispatcher: closed form for x >= 0.1, convolution below, the
    quadrature oracle only on demand, with the error estimate that its
    adaptive quadrature measured. Order 0 is always the exact sinc
    formula."""
    if method not in ("auto", "closed", "conv", "oracle"):
        raise ValueError(f"evaluate: unknown method {method!r}")
    ell = _check_int("evaluate", "ell", ell, 0, L_MAX)
    _check_finite("evaluate", "x", x)
    if ell == 0 and method in ("auto", "closed"):
        return KernelEvaluation(
            x=x, value=2.0 / math.pi * sinc(x), route="closed", error_estimate=0.0
        )
    if method == "auto":
        method = "closed" if x >= _CROSSOVER else "conv"
    if method == "closed":
        return k_closed(ell, x)
    if method == "conv":
        return k_conv(ell, x)
    value, error = quadrature._symbol_oracle(ell, x)
    return KernelEvaluation(x=x, value=value, route="oracle", error_estimate=error)


def lp_diagnostic(ell, p, big_x):
    """Integral of |k^(ell)|^p over (0, X) by the closed form, to 1e-5.

    Panel seeds sit at the asymptotic zeros x = ell pi/2 + k pi > 0, so
    the |.| kinks of the p = 1 case land on panel edges as x grows. The
    number of seeds, about X/pi, is checked against the panel budget
    before any work is done. A closed value whose own error estimate
    exceeds the tolerance raises ArithmeticError at once: from x of about
    84 at order 8, 2.6e3 at order 5 and 9e4 at order 4 on; orders 1 to 3
    stay within it up to x = 1e9.
    """
    ell = _check_int("lp_diagnostic", "ell", ell, 1, L_MAX)
    _check_finite("lp_diagnostic", "p", p)
    _check_finite("lp_diagnostic", "X", big_x)
    if p < 1.0:
        raise ValueError(f"lp_diagnostic: p = {p} must be >= 1")
    if big_x <= 0.0:
        raise ValueError(f"lp_diagnostic: X = {big_x} must be positive")
    first = 0.5 * math.pi if ell % 2 else math.pi
    seeds = math.ceil((big_x - first) / math.pi)
    quadrature._check_seed_panels(seeds + 1, _LP_MAX_PANELS)
    tol = 1e-5

    def integrand(x):
        record = k_closed(ell, x)
        if record.error_estimate > tol:
            raise ArithmeticError(
                f"lp_diagnostic: error estimate {record.error_estimate:.3e} > {tol} at x = {x}"
            )
        return abs(record.value) ** p

    return quadrature.integrate_adaptive(
        integrand,
        0.0,
        big_x,
        tol,
        breakpoints=[first + k * math.pi for k in range(seeds)],
        max_panels=_LP_MAX_PANELS,
    ).value
