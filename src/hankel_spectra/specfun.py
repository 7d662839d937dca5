"""Special functions used by the kernel closed forms.

Everything here is scalar and pure: sinc and its derivatives, the
exponential integrals E1 / Ein on the cut plane, an overflow-safe scaled
variant exp(z)*E1(z), squared Gamma magnitudes along vertical lines, and
two families of damped integrals with elementary closed forms.
"""

import cmath
import math
import operator
import sys

L_MAX = 8

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

SINC_ORDER_MAX = 2 * L_MAX + 4

# |z| below which the Ein power series is used for E1; beyond it the
# continued fraction takes over, except close to the cut where the
# continued fraction degrades: there the series serves |z| < 40 and the
# asymptotic series, whose smallest term is below 1e-16 relative from
# |z| = 40 on, serves the rest.
_SERIES_RADIUS = 12.0
_SERIES_RADIUS_POS = 4.0
_WIDE_ARG = 5.0 * math.pi / 6.0
_ASYMPTOTIC_RADIUS = 40.0
_CF_MAX_ITER = 400
# Past this modulus 1/z, and with it e^z E1(z), is subnormal: the continued
# fraction loses digits there and, off the two axes, stops converging from
# |z| of about 1e308 on.
_SUBNORMAL_MODULUS = 1.0 / sys.float_info.min
_SERIES_MAX_ITER = 2000

# The sinc-derivative Taylor series is accurate for any |x| but its terms
# peak near exp(|x|)/(2|x|), so it is capped where that stays ~1e3; the
# Leibniz closed form takes over where its own x^(-j-1) terms are tame.
_SINC_SERIES_LIMIT = 10.0


def _check_int(name, label, value, low, high=None):
    """value as an int in [low, high] (no upper end when high is None).

    Accepts what ``operator.index`` accepts, so Python and NumPy integers
    pass and floats (2.0 too) and strings do not.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: {label} = {value!r} must be an integer") from None
    if number < low or (high is not None and number > high):
        bound = f"must be >= {low}" if high is None else f"outside [{low}, {high}]"
        raise ValueError(f"{name}: {label} = {number} {bound}")
    return number


def _check_finite(name, label, value, complex_domain=False):
    """value must be a finite real number, NumPy floats too, or a finite
    real or complex one where ``complex_domain`` is set."""
    isfinite = cmath.isfinite if complex_domain else math.isfinite
    try:
        finite = isfinite(value) and (complex_domain or not getattr(value, "imag", 0))
    except TypeError:
        finite = False
    if not finite:
        kind = "" if complex_domain else " and real"
        raise ValueError(f"{name}: {label} = {value!r} must be finite{kind}")


def _sinc(x):
    return 1.0 if x == 0.0 else math.sin(x) / x


def sinc(x):
    """sin(x)/x with the removable singularity filled in."""
    _check_finite("sinc", "x", x)
    return _sinc(x)


def _sinc_derivative_series(n, x):
    # d^n/dx^n of sum_m (-1)^m x^(2m)/(2m+1)! term by term:
    # sum over 2m >= n of (-1)^m x^(2m-n) / ((2m-n)! (2m+1)).
    m = (n + 1) // 2
    k = 2 * m - n  # 0 or 1
    term = (-1.0) ** m * x**k / (math.factorial(k) * (2 * m + 1))
    total = 0.0
    while abs(term) >= 1e-18:
        total += term
        term *= -x * x * (2 * m + 1) / ((k + 1) * (k + 2) * (2 * m + 3))
        m += 1
        k += 2
    return total


def _sinc_derivative_leibniz(n, x):
    # d^n sinc = sum_j C(n,j) (d^j x^-1) (d^(n-j) sin)
    #          = sum_j C(n,j) (-1)^j j! x^(-j-1) sin(x + (n-j) pi/2)
    trig = (math.sin(x), math.cos(x), -math.sin(x), -math.cos(x))
    total = 0.0
    coef = 1.0  # C(n,j) (-1)^j j!
    xpow = 1.0 / x
    for j in range(n + 1):
        total += coef * xpow * trig[(n - j) % 4]
        coef *= -(n - j)
        xpow /= x
    return total


def _sinc_derivative(n, x):
    # the branch selector behind sinc_derivative, for loops whose caller
    # has checked n and x
    if n == 0:
        return _sinc(x)
    if abs(x) < _SINC_SERIES_LIMIT:
        return _sinc_derivative_series(n, x)
    return _sinc_derivative_leibniz(n, x)


def sinc_derivative(n, x):
    """n-th derivative of sinc at x, for 0 <= n <= 2*L_MAX + 4.

    Taylor series near the origin, Leibniz closed form away from it; the
    crossover at |x| = 10 keeps both branches near machine accuracy.
    """
    n = _check_int("sinc_derivative", "n", n, 0, SINC_ORDER_MAX)
    _check_finite("sinc_derivative", "x", x)
    return _sinc_derivative(n, x)


def _on_cut(z):
    return z.imag == 0.0 and z.real <= 0.0


def _scaled_route(z):
    # None where the series serves, else the function giving e^z E1(z).
    # In the right half-plane E1 decays like e^(-Re z) while the absolute
    # noise of the alternating series grows like e^|z| ulp, so the series
    # sector must stay small there; with Re z <= 0 the result is never
    # exponentially small and the series stays accurate out to radius 12,
    # and to radius 40 in the wide-argument sector. hypot is abs(z) without
    # its OverflowError past the largest double.
    modulus = math.hypot(z.real, z.imag)
    if modulus <= _SERIES_RADIUS_POS:
        return None
    if z.real <= 0.0 and modulus <= _SERIES_RADIUS:
        return None
    if abs(cmath.phase(z)) > _WIDE_ARG:
        return None if modulus < _ASYMPTOTIC_RADIUS else _e1_asymptotic_scaled
    return _e1_cf_scaled


def _scaled(name, route, z):
    # route(z) = e^z E1(z) off the series sector; the continued fraction
    # fails where 1/z is subnormal, and that is the overflow of |z|
    try:
        return route(z)
    except ArithmeticError as error:
        modulus = math.hypot(z.real, z.imag)
        if modulus > _SUBNORMAL_MODULUS:
            raise OverflowError(
                f"{name}: z = {z!r} overflows the continued fraction: |z| = "
                f"{modulus:.6g} > {_SUBNORMAL_MODULUS:.6g}, where 1/z is subnormal"
            ) from None
        raise ArithmeticError(f"{name}: {error}") from None


def _ein_series(z):
    # Ein(z) = sum_{k>=1} (-1)^(k+1) z^k / (k * k!)
    if z == 0:
        return 0.0 + 0.0j
    term = complex(z)
    total = 0.0 + 0.0j
    for k in range(1, _SERIES_MAX_ITER):
        total += term
        term *= -z * k / ((k + 1) * (k + 1))
        if abs(term) <= 1e-18 * (1.0 + abs(total)):
            return total + term
    raise ArithmeticError("ein: power series failed to converge")


def _e1_cf_scaled(z):
    # Modified Lentz evaluation of
    #   e^z E1(z) = 1/(z+1 - 1/(z+3 - 4/(z+5 - 9/(z+7 - ...))))
    tiny = 1e-300
    b = z + 1.0
    f = b if b != 0 else tiny
    c = f
    d = 0.0 + 0.0j
    for k in range(1, _CF_MAX_ITER):
        a = -float(k * k)
        b = z + (2 * k + 1)
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        # The doubles next to 1 are 1.1e-16 below and 2.2e-16 above, and
        # at some large |z| rounding never gives delta == 1.0 exactly.
        if abs(delta - 1.0) <= 4.5e-16:
            return 1.0 / f
    raise ArithmeticError(
        f"continued fraction failed to converge in {_CF_MAX_ITER} steps (z = {z!r})"
    )


def _e1_asymptotic_scaled(z):
    # e^z E1(z) ~ sum_k (-1)^k k! / z^(k+1), summed while its terms shrink
    # and still change the sum
    term = total = 1.0 / z
    k = 1
    while True:
        step = -k * term / z
        if abs(step) >= abs(term) or total + step == total:
            return total
        total += step
        term = step
        k += 1


def _unscaled(name, z, scaled):
    # E1(z) = e^(-z) * scaled, e^(-z) taken in two halves so that no
    # intermediate overflows where E1 itself fits a double
    try:
        half = cmath.exp(-0.5 * z)
    except OverflowError:
        half = complex(math.inf)
    value = half * scaled * half
    if not cmath.isfinite(value):
        raise OverflowError(f"{name}: the value at z = {z!r} exceeds the double range")
    return value


def ein(z):
    """Entire complementary exponential integral Ein(z).

    Raises OverflowError where |Ein(z)| exceeds the double range, and where
    the continued fraction for e^z E1(z) stalls past |z| = 4.49e307.
    """
    _check_finite("ein", "z", z, complex_domain=True)
    z = complex(z)
    route = _scaled_route(z)
    if route is None:
        return _ein_series(z)
    # Off the cut and away from the origin: recover Ein from e^z E1(z)
    # through E1 = Ein - log - gamma.
    return _unscaled("ein", z, _scaled("ein", route, z)) + cmath.log(z) + EULER_GAMMA


def e1(z):
    """Principal-branch exponential integral E1(z), z not on (-inf, 0].

    Raises OverflowError where |E1(z)| exceeds the double range, and where
    the continued fraction for e^z E1(z) stalls past |z| = 4.49e307.
    """
    _check_finite("e1", "z", z, complex_domain=True)
    z = complex(z)
    if _on_cut(z):
        raise ValueError(f"e1: {z!r} lies on the branch cut (-inf, 0]")
    route = _scaled_route(z)
    if route is None:
        return _ein_series(z) - cmath.log(z) - EULER_GAMMA
    return _unscaled("e1", z, _scaled("e1", route, z))


def e1_scaled(z):
    """exp(z) * E1(z) without forming exp(z), z not on (-inf, 0].

    Raises OverflowError where its continued fraction stalls past
    |z| = 4.49e307, where 1/z, about the value, is subnormal.
    """
    _check_finite("e1_scaled", "z", z, complex_domain=True)
    z = complex(z)
    if _on_cut(z):
        raise ValueError(f"e1_scaled: {z!r} lies on the branch cut (-inf, 0]")
    route = _scaled_route(z)
    if route is None:
        # in the series sector either |z| <= 4 (exp bounded by e^4) or
        # Re z <= 0 (exp only shrinks the series result)
        return cmath.exp(z) * (_ein_series(z) - cmath.log(z) - EULER_GAMMA)
    return _scaled("e1_scaled", route, z)


# Stirling series coefficients B_2k / (2k (2k-1)) for k = 1..8.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def _log_gamma_re(w):
    # Re log Gamma(w) for Re w >= 10 via the Stirling series.
    s = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi)
    winv = 1.0 / w
    w2 = winv * winv
    term = winv
    for coef in _STIRLING:
        s += coef * term
        term *= w2
    return s.real


def _check_gamma_args(name, p, y):
    _check_finite(name, "p", p)
    _check_finite(name, "y", y)
    if p > 0.5:
        raise ValueError(f"{name}: p = {p} exceeds 1/2")
    if y <= 0.0:
        raise ValueError(f"{name}: y = {y} must be positive")


def gamma_abs_sq(p, y):
    """|Gamma(1/2 - p - i*y)|^2 for p <= 1/2 and y > 0.

    Shifts the argument up by the recurrence |Gamma(w)|^2 =
    |Gamma(w+1)|^2 / |w|^2 until Re w >= 10, then applies the Stirling
    series for log Gamma. Raises OverflowError past the double range.
    """
    _check_gamma_args("gamma_abs_sq", p, y)
    w = complex(0.5 - p, -y)
    shift = 1.0
    while w.real < 10.0:
        shift *= w.real * w.real + w.imag * w.imag
        w += 1.0
    value = math.exp(2.0 * _log_gamma_re(w)) / shift if shift else math.inf
    if not math.isfinite(value):
        raise OverflowError(f"gamma_abs_sq: |Gamma|^2 overflows at p = {p}, y = {y}")
    return value


def log_gamma_abs_sq(p, y):
    """log |Gamma(1/2 - p - i*y)|^2 for p <= 1/2 and y > 0.

    The shift of ``gamma_abs_sq`` summed as 2 log|w| rather than
    multiplied as |w|^2, so it stays finite where |Gamma|^2 or the
    shift product leaves the double range (|Gamma|^2 ~ e^(-pi y)).
    It raises OverflowError only below about p = -1.25e305.
    """
    _check_gamma_args("log_gamma_abs_sq", p, y)
    w = complex(0.5 - p, -y)
    log_shift = 0.0
    while w.real < 10.0:
        log_shift += 2.0 * math.log(abs(w))
        w += 1.0
    value = 2.0 * _log_gamma_re(w) - log_shift
    if not math.isfinite(value):
        raise OverflowError(f"log_gamma_abs_sq: log |Gamma|^2 overflows at p = {p}")
    return value


def damped_moment_shifted(n, a, x):
    """Closed form of the integral of y^n e^(-a y) / (x + y) over (0, inf).

    Equals (-1)^n x^n e^(a x) E1(a x) + sum_{r=1}^{n} (-1)^(n-r) (r-1)!
    a^(-r) x^(n-r); the exponentially growing factor is absorbed into
    e1_scaled. Requires Re a > 0 and x > 0.
    """
    n = _check_int("damped_moment_shifted", "n", n, 0)
    _check_finite("damped_moment_shifted", "a", a, complex_domain=True)
    _check_finite("damped_moment_shifted", "x", x)
    a = complex(a)
    if a.real <= 0.0:
        raise ValueError(f"damped_moment_shifted: Re a = {a.real} must be > 0")
    if x <= 0.0:
        raise ValueError(f"damped_moment_shifted: x = {x} must be > 0")
    total = (-1.0) ** n * x**n * e1_scaled(a * x)
    for r in range(1, n + 1):
        total += (-1.0) ** (n - r) * math.factorial(r - 1) * a ** (-r) * x ** (n - r)
    return total


def _gaussian_power(r):
    # (Re, Im) of (1+i)^r as exact ints, r >= 0: (1+i)^2 = 2i, so
    # (1+i)^r = 2^q i^q (1+i)^(r - 2q) with q = r // 2
    q, odd = divmod(r, 2)
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[q % 4]
    re, im = re << q, im << q
    return (re - im, re + im) if odd else (re, im)


def damped_trig_moment(m, x, kind):
    """Closed form of the integral of e^(-|y|) |y|^m trig(x - y) over R.

    The coefficient m!/2^((m-1)/2) cos((m+1) pi/4) is m! Re((1+i)^(m+1))/2^m,
    a quotient of exact integers rounded once, so the only other rounding
    is the final trig evaluation.
    """
    m = _check_int("damped_trig_moment", "m", m, 0, 2 * L_MAX)
    _check_finite("damped_trig_moment", "x", x)
    if kind == "sin":
        t = math.sin(x)
    elif kind == "cos":
        t = math.cos(x)
    else:
        raise ValueError(f"damped_trig_moment: kind must be 'sin' or 'cos', got {kind!r}")
    return math.factorial(m) * _gaussian_power(m + 1)[0] / 2**m * t
