"""The kernel family k^(l) by every available route.

Four independent evaluations coexist here. The convolution route k_conv
integrates the private pieces behind the Fourier building blocks
fourier_xi_pow and fourier_psi_tilde (p_ell and the alternating
sinc-derivative sum); the fully explicit route k_closed expands the
symbol in partial fractions of 1/(1-it), which gives once per order an
exact linear form over A(x) x^k, sin(x) x^k and cos(x) x^k plus one
multiple of sinc(x). Below x = 60 k_closed sums the kernel's own Taylor
tables, one per order and quarter-unit bin, built once in fixed point
from that form; from x = 60 on it sums the form itself, with A from E1's
asymptotic series per octave of x (the tests compare the route with a
second, term-by-term derivation). fourier_symbol_oracle from the
quadrature module is the slow reference, and k_asymptotic is the
large-x limit shape. Their mutual agreement is the package's main
correctness argument, so none of them is allowed to call into another's
machinery.

Every route returns a ``KernelEvaluation`` named tuple. ``evaluate``
checks its arguments once and calls the closed route's unchecked core.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import quadrature
from .combinatorics import p_poly
from .specfun import (
    L_MAX,
    _check_finite,
    _check_int,
    _gaussian_power,
    _sinc,
    _sinc_derivative,
)

X_MIN_CLOSED = 0.0
# Past this x k_closed raises OverflowError. From x of about 2.2e307 on, A,
# about 1/x, is subnormal, and from 2.86e307 on so is the kernel's envelope
# 2/(pi x): values keep fewer than 53 bits. Only the last division of
# _a_value rounds into the subnormals, and against 340-digit references
# orders 1 and 2 stay within 0.32 of their estimate on [2.2e307, 3e307];
# order 2 misses it by up to 1.04x from about 1.67e308. The limit stays
# where E1's continued fraction, which served these x before, put it.
X_MAX_CLOSED = 3e307

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
            x=x, value=2.0 / math.pi * _sinc(x), route="convolution", error_estimate=0.0
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


# Closed values have two regimes. Below _ASYMPTOTIC_X a value is one Horner
# sum over k^(ell)'s Taylor coefficients about the centre of x's quarter-unit
# bin, built on first use into _TAYLOR[ell][bin]. From there on it is the
# rows of _closed_form over A, whose e^z E1(z) is E1's asymptotic series per
# octave of x, cut where its remainder stays within _A_TAIL of |e^z E1(z)|.
_ASYMPTOTIC_X = 60.0
_A_TAIL = 2.0**-57
# |k^(j)| <= 2/(pi (j + 1)), as the symbol has modulus 2 on [-1, 1], and
# |x - c| <= 1/8, so the Taylor terms from J on add at most twice the first,
# _taylor_tail(J): each term is under 1/16 of the one before. Every table
# keeps the _TAYLOR_TERMS = 12 terms, the fewest for which that is at most
# 2^-64, which is 2^-57 of the envelope 2/(pi x) at x = 81.5.
_TAYLOR_TERMS = 12


def _taylor_tail(count):
    return 4 / (math.pi * (count + 1) * math.factorial(count) * 8**count)


_TAYLOR = [[None] * int(4 * _ASYMPTOTIC_X) for _ in range(L_MAX + 1)]
# The tables are built in fixed point, as integers in units of 2^-_BITS. The
# series for A(c) cancels to e^(-c) of its largest term, about e^(-0.41 c) or
# 2^-36 at c = 60, and the rows cancel to about 2^-40 of their largest term
# at order 8, so 192 bits leave more than 100 to spare.
_BITS = 192
_PI_FIXED = int(
    Fraction("3.14159265358979323846264338327950288419716939937510582097494459")
    * 2**_BITS
)


def _eighth_turns(m):
    # (cos, sin) of m/8 in fixed point: e^(i/8) from its Taylor series,
    # raised to the m-th power by squaring
    one = 1 << _BITS
    cos, sin, term, k = one, 0, one, 0
    while term:
        k += 1
        term //= 8 * k
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
    power = (one, 0)
    while m:
        if m & 1:
            power = (
                (power[0] * cos - power[1] * sin) >> _BITS,
                (power[0] * sin + power[1] * cos) >> _BITS,
            )
        cos, sin = (cos * cos - sin * sin) >> _BITS, (2 * cos * sin) >> _BITS
        m >>= 1
    return power


@lru_cache(maxsize=None)
def _a_taylor(i):
    # The series that every order's table of bin i, [i/4, (i + 1)/4), is
    # built from: the Taylor coefficients of A, sinc, sin and cos about the
    # bin's centre c = m/8, m = 2i + 1, _TAYLOR_TERMS of each, lowest first,
    # in fixed point. a_0 = A(c): on z = c(-1+i), Im log z = 3 pi/4, so
    # E1 = Ein - log z - gamma gives A(c) = e^(-c) (pi/4 + Im Ein(z)),
    # Ein(z) = sum_{k>=1} (-1)^(k+1) z^k/(k k!) (DLMF 6.6.2), whose terms are
    # -(1-i)^k t_k/k with t_k = c^k/k!. One pass over t_k sums e^c and
    # Im Ein(z), until the Ein terms, at most 2^(k/2) t_k, fall below
    # 2^-(_BITS - 40) e^c with ratios under 1/2. sin's coefficients are
    # sigma_j = sin(c + j pi/2)/j! and cos's cos(c + j pi/2)/j!; sinc's are
    # s_j = (sigma_j - s_(j-1))/c, as sin(c + h) = (c + h) sinc(c + h); and
    # A' = sinc - A gives a_(j+1) = (s_j - a_j)/(j + 1).
    m = 2 * i + 1
    one = 1 << _BITS
    term, re, im = one, 1, 0  # t_k in fixed point, (1-i)^k
    growth, ein = one, 0
    k = 0
    while k <= 3 * m / 8 or term << (k // 2 + 1) > growth >> (_BITS - 40):
        k += 1
        term = term * m // (8 * k)
        re, im = re + im, im - re
        growth += term
        ein -= im * term // k
    cos, sin = _eighth_turns(m)
    trig = (sin, cos, -sin, -cos)
    sines = [trig[j % 4] // math.factorial(j) for j in range(_TAYLOR_TERMS)]
    cosines = [trig[(j + 1) % 4] // math.factorial(j) for j in range(_TAYLOR_TERMS)]
    sincs = []
    for sigma in sines:
        sincs.append((sigma - (sincs[-1] if sincs else 0)) * 8 // m)
    a = [((_PI_FIXED >> 2) + ein) * one // growth]
    for j in range(_TAYLOR_TERMS - 1):
        a.append((sincs[j] - a[j]) // (j + 1))
    return a, sincs, sines, cosines


def _taylor_table(ell, i):
    # k^(ell)'s Taylor coefficients b_j about the centre c = m/8 of bin i,
    # highest first, then the bin's error estimate; stored in _TAYLOR[ell][i].
    # pi k^(ell)(c + h) is 2 (-1)^ell sinc(c + h) plus the rows of
    # _closed_rows, each a series in h over _a_taylor's series for A, sin and
    # cos, combined by Horner in c + h. All of it is summed in fixed point,
    # whose errors stay far below 2^-100 of every coefficient, then divided
    # by pi and rounded once.
    a, sincs, sines, cosines = _a_taylor(i)
    m = 2 * i + 1
    den, rows = _closed_rows(ell)
    total = [0] * _TAYLOR_TERMS  # in units of 2^-_BITS/den
    for row_a, row_s, row_c in rows:
        total = [
            (t * m >> 3) + below + row_a * a_j + row_s * s_j + row_c * c_j
            for t, below, a_j, s_j, c_j in zip(total, [0, *total], a, sines, cosines)
        ]
    sign = -2 if ell % 2 else 2
    coeffs = [(t + sign * den * s) / (den * _PI_FIXED) for t, s in zip(total, sincs)]
    # The estimate bounds, with |h| <= eta = 1/8: the dropped tail; each
    # coefficient's rounding, half an ulp, times eta^j; and the Horner sum's.
    # Its step k rounds a product of at most eta M_(k+1) and a sum of at most
    # M_k, M_k = sum_{j>=k} |b_j| eta^(j-k), each by at most u = 2^-53 of it,
    # and the value carries that error times eta^k; the factor 1.01 covers
    # the second-order terms. h = x - c is exact by Sterbenz's lemma except in
    # bin 0 for x < 1/16, where it rounds by at most u/8 and |k'| <= 1/pi.
    eta, u = 0.125, sys.float_info.epsilon / 2
    masses = [0.0]
    for b in reversed(coeffs):
        masses.append(masses[-1] * eta + abs(b))
    masses.reverse()
    horner = sum(eta**k * (eta * masses[k + 1] + masses[k]) for k in range(len(coeffs) - 1))
    rounding = sum(math.ulp(b) / 2 * eta**j for j, b in enumerate(coeffs))
    estimate = _taylor_tail(len(coeffs)) + rounding + 1.01 * u * horner
    if i == 0:
        estimate += u / (8 * math.pi)
    table = (*reversed(coeffs), estimate)
    _TAYLOR[ell][i] = table
    return table


@lru_cache(maxsize=None)
def _a_asymptotic(octave):
    # e^z E1(z) on z = x(-1+i) is G(1/x)/x, with G(u) summed by Horner
    # over the first n of w_k u^k, highest first, for x in [2^(octave-1),
    # 2^octave) and x >= _ASYMPTOTIC_X. 1/z = -(1+i)/(2x) makes the terms
    # (-1)^k k!/z^(k+1) of the asymptotic series (DLMF 6.12.1) exact: w_k =
    # -k! (1+i)^(k+1)/2^(k+1), rounded once. At |ph z| = 3 pi/4 the
    # remainder after n terms is at most csc(3 pi/4) = sqrt(2) times the
    # first neglected term, n!/|z|^(n+1) (DLMF 6.12(i)), and |e^z E1(z)| >=
    # (1 - sqrt(2)/|z|)/|z| = (1 - 1/x)/|z|; n is the first count at which
    # that remainder is at most _A_TAIL times this bound at the octave's
    # lower end, or, squared and with |z| = x sqrt(2), at which
    # (n!)^2 <= (_A_TAIL (x - 1))^2 2^(n-1) x^(2n-2).
    low = int(max(_ASYMPTOTIC_X, 2.0 ** (octave - 1)))
    num, den = _A_TAIL.as_integer_ratio()
    bound = (num * (low - 1)) ** 2
    n = 1
    while (den * math.factorial(n)) ** 2 > bound * 2 ** (n - 1) * low ** (2 * n - 2):
        n += 1
    coeffs = []
    for k in range(n):
        re, im = _gaussian_power(k + 1)
        scale = -math.factorial(k)
        coeffs.append(complex(scale * re / 2 ** (k + 1), scale * im / 2 ** (k + 1)))
    return tuple(reversed(coeffs))


def _a_value(x, s, c):
    # integral over (0, inf) of e^(-y) sinc(x - y) dy for x >= _ASYMPTOTIC_X,
    # s = sin x, c = cos x: pi e^(-x) + Im(e^(-ix) e^z E1(z)) on z = x(-1+i),
    # with e^(-ix) = c - i s and e^z E1(z) = G/x from the asymptotic series,
    # so that only the last division can round into the subnormals. Below
    # _ASYMPTOTIC_X no value of A is formed: _a_taylor's fixed-point series
    # for A goes into the kernel's own Taylor tables.
    u = 1.0 / x
    g = 0j
    for coef in _a_asymptotic(math.frexp(x)[1]):
        g = g * u + coef
    return math.pi * math.exp(-x) + (c * g.imag - s * g.real) / x


@lru_cache(maxsize=None)
def _closed_rows(ell):
    # Rows k < ell of the coefficients of A x^k, sin(x) x^k and cos(x) x^k
    # in pi k^(ell)(x) - 2 (-1)^ell sinc(x), exact: integers over the common
    # denominator (ell - 1)!, returned first, rows highest first. The
    # symbol's partial fractions ((1+it)/(1-it))^ell = sum_j C(ell, j)
    # (-1)^(ell-j) 2^j (1-it)^(-j) make pi k^(ell) the same sum over the
    # integrals I_j(x) of e^(-ixt) (1-it)^(-j) over [-1, 1]: I_0 = 2 sinc x,
    # I_1 = 2 A(x) and, by parts, I_j = (x I_(j-1) + 2 Im(w^(j-1) e^(-ix)))
    # / (j-1) with w = (1+i)/2. So (j-1)!/2 I_j = x^(j-1) A + sum_{r<j}
    # (r-1)! x^(j-1-r) (Im(w^r) cos x - Re(w^r) sin x), weighted by c below.
    den = math.factorial(ell - 1)
    poly = [[0] * 3 for _ in range(ell)]  # rows k: A, sin, cos, times den
    for j in range(1, ell + 1):
        c = (-1) ** (ell - j) * math.comb(ell, j) * 2 ** (j + 1) * (den // math.factorial(j - 1))
        poly[j - 1][0] = c
        for r in range(1, j):
            re, im = _gaussian_power(r)
            lead = c * math.factorial(r - 1) >> r  # exact, as 2^(j+1) divides c
            poly[j - 1 - r][1] -= lead * re
            poly[j - 1 - r][2] += lead * im
    return den, tuple(tuple(row) for row in reversed(poly))


@lru_cache(maxsize=None)
def _closed_form(ell):
    # _closed_rows rounded once, each row followed by its absolute values
    den, rows = _closed_rows(ell)
    rows = (tuple(n / den for n in row) for row in rows)
    return tuple((*row, *map(abs, row)) for row in rows)


def k_closed(ell, x):
    """Kernel value through the explicit exponential-integral formula.

    The kernel is the Fourier transform of the symbol 2 ((1+it)/(1-it))^ell
    on [-1, 1] against e^(-ixt), divided by 2 pi. Expanding the symbol in
    partial fractions of 1/(1-it) turns pi k^(ell)(x) into 2 (-1)^ell sinc(x)
    plus a fixed rational linear combination of A(x) x^k, sin(x) x^k and
    cos(x) x^k (k < ell), with A the damped sinc integral behind the
    E1(-x + ix) terms. Its coefficients are built once per order in exact
    arithmetic (on first use, then cached). The route has two regimes, each
    summed by Horner over tables built once, on first use, to stated tail
    bounds.

    Below x = 60 a value is one Horner sum of 12 terms over k^(ell)'s own
    Taylor expansion about the centre c of x's quarter-unit bin. The
    coefficients come from that formula, in fixed point: A(c) from A's
    exact power series, A's other coefficients from A' = sinc - A, and
    the coefficients of sin, cos and sinc from their series, combined with
    the exact rows and divided by pi, each rounded once. The error estimate
    is a constant per (order, bin): the dropped tail, the coefficients'
    rounding and the Horner sum's, at most 1.3e-16 on [0, 60).

    From x = 60 on a value costs one sin x and one cos x, one value of A
    and one Horner step per row of the three polynomials; the sinc term
    is sin(x)/x. A is pi e^(-x) + Im((cos x - i sin x) e^z E1(z)) on
    z = x(-1+i), with e^z E1(z) from E1's asymptotic series in 1/x, whose
    coefficients are exact, cut per octave of x by its remainder bound
    (DLMF 6.12(i)). There the polynomial terms grow like x^(ell-1) and
    cancel to a value of order 1/x. The error estimate is rounding noise
    scaled by the total absolute mass of the sum, so it grows with that
    cancellation, plus two ulps of the value, which the mass term alone
    can miss at order 1, where the mass is about the value. Where the sum
    or that mass leaves the double range it raises OverflowError, and so
    it does past X_MAX_CLOSED = 3e307, where the kernel's values, about
    2/(pi x), are subnormal.

    k^(ell) is entire, so the route serves every x >= 0 (X_MIN_CLOSED is
    0; k_conv serves negative x): against 30-digit mpmath values at orders
    1 to 8, at x = 0 and at 60 log points on [1e-12, 0.1], every value lies
    within its estimate, the worst at 0.53 of it.
    """
    ell = _check_int("k_closed", "ell", ell, 1, L_MAX)
    _check_finite("k_closed", "x", x)
    _check_closed_x(x)
    return _closed_value(ell, x)


def _check_closed_x(x):
    # the closed route's domain, named after k_closed whichever caller asks
    if x < X_MIN_CLOSED:
        raise ValueError(
            f"k_closed: x = {x} below X_MIN_CLOSED = {X_MIN_CLOSED}; use k_conv"
        )
    if x > X_MAX_CLOSED:
        raise OverflowError(
            f"k_closed: x = {x} exceeds X_MAX_CLOSED = {X_MAX_CLOSED}, past which "
            "e^z E1(z) on z = x(-1+i) is subnormal"
        )


def _closed_value(ell, x):
    # k_closed after its checks: ell in [1, L_MAX], x in the closed domain
    if x < _ASYMPTOTIC_X:
        i = int(x * 4)
        table = _TAYLOR[ell][i] or _taylor_table(ell, i)
        # the _TAYLOR_TERMS coefficients, highest first, then the estimate
        b11, b10, b9, b8, b7, b6, b5, b4, b3, b2, b1, b0, estimate = table
        h = x - (i + 0.5) * 0.25
        value = (((((b11 * h + b10) * h + b9) * h + b8) * h + b7) * h + b6) * h + b5
        value = ((((value * h + b4) * h + b3) * h + b2) * h + b1) * h + b0
        return KernelEvaluation(x, value, "closed", estimate)
    s, c = math.sin(x), math.cos(x)
    a = _a_value(x, s, c)
    abs_a, abs_s, abs_c = abs(a), abs(s), abs(c)
    total = 0.0
    abs_mass = 0.0
    # |coef| |value| rounds exactly as |coef value| does
    for ca, cs, cc, qa, qs, qc in _closed_form(ell):
        total = total * x + ca * a + cs * s + cc * c
        abs_mass = abs_mass * x + qa * abs_a + qs * abs_s + qc * abs_c
    term = (-2.0 if ell % 2 else 2.0) * (s / x)
    total += term
    abs_mass += abs(term)
    if not (math.isfinite(total) and math.isfinite(abs_mass)):
        raise OverflowError(f"k_closed: the sum at ell = {ell}, x = {x} overflows")
    value = total / math.pi
    return KernelEvaluation(
        x, value, "closed", abs_mass / math.pi * 5e-16 + 2.0 * math.ulp(value)
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
    formula. The closed route refuses x as k_closed does, with the same
    messages, and returns the same record."""
    if method not in ("auto", "closed", "conv", "oracle"):
        raise ValueError(f"evaluate: unknown method {method!r}")
    ell = _check_int("evaluate", "ell", ell, 0, L_MAX)
    _check_finite("evaluate", "x", x)
    if ell == 0 and method in ("auto", "closed"):
        return KernelEvaluation(x, 2.0 / math.pi * _sinc(x), "closed", 0.0)
    if method == "auto":
        method = "closed" if x >= _CROSSOVER else "conv"
    if method == "closed":
        _check_closed_x(x)
        return _closed_value(ell, x)
    if method == "conv":
        return k_conv(ell, x)
    value, error = quadrature._symbol_oracle(ell, x)
    return KernelEvaluation(x, value, "oracle", error)


def lp_diagnostic(ell, p, big_x):
    """Integral of |k^(ell)|^p over (0, X) by the closed form, to 1e-5.

    Panel seeds sit at the asymptotic zeros x = ell pi/2 + k pi > 0, so
    the |.| kinks of the p = 1 case land on panel edges as x grows. The
    number of seeds, about X/pi, is checked against the panel budget
    before any work is done; past it, from X of about 2.5e5, the valid
    input raises QuadratureBudgetError. A closed value whose own error
    estimate exceeds the tolerance raises ArithmeticError at once: from x
    of about 84 at order 8, 2.6e3 at order 5 and 9e4 at order 4 on;
    orders 1 to 3 stay within it up to x = 1e9.
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
    quadrature._check_seed_panels("lp_diagnostic", seeds + 1, _LP_MAX_PANELS)
    tol = 1e-5

    def integrand(x):
        record = _closed_value(ell, x)
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
