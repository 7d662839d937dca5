"""Adaptive quadrature oracles.

The workhorse is a nested Gauss-Kronrod 7-15 pair with bisection
adaptivity: the 7-point Gauss rule is embedded in the 15-point Kronrod
extension, and their difference drives the per-panel error estimate the
same way QUADPACK does. Panels are kept in a priority queue keyed by
(error, left endpoint) so refinement order, and therefore output, is
deterministic; final values are summed left to right.

These routines are the ground truth the closed-form modules are tested
against, so they deliberately know nothing about those closed forms.

Each integral comes back as a ``QuadratureResult`` named tuple.
"""

import cmath
import heapq
import math
from collections import namedtuple
from functools import lru_cache

from .specfun import L_MAX, _check_finite, _check_int

# Gauss-Kronrod 7-15 constants on [-1, 1], positive half (descending),
# generated from the Stieltjes polynomial orthogonality conditions in
# 60-digit arithmetic and written as the nearest double to each.
# tests/test_quadrature.py regenerates them.
_XGK = (
    0.99145537112081264,
    0.94910791234275852,
    0.86486442335976907,
    0.74153118559939444,
    0.58608723546769113,
    0.40584515137739717,
    0.20778495500789847,
    0.0,
)
_WGK = (
    0.022935322010529225,
    0.063092092629978553,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478541,
    0.20443294007529889,
    0.20948214108472783,
)
# Gauss-7 weights for the nodes at indices 1, 3, 5 of _XGK, plus the center.
_WG = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
    0.41795918367346939,
)

_EVALS_PER_PANEL = 15
DEFAULT_MAX_PANELS = 10_000
_XI_POW_MAX_PANELS = 20_000


# value (float or complex), accumulated error estimate and evaluation count
QuadratureResult = namedtuple("QuadratureResult", "value abs_error_estimate evaluations")


class QuadratureBudgetError(RuntimeError):
    """Panel budget exhausted; carries the best estimate computed so far."""

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


def _gk15_panel(f, a, b):
    """One Gauss-Kronrod 7-15 application on [a, b].

    Returns (kronrod value, error estimate). The estimate follows the
    QUADPACK recipe: the raw Gauss/Kronrod difference is damped through
    the panel's own variation resasc so that it stays meaningful when the
    integrand is nearly resolved.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    pairs = []
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(center - dx)
        f2 = f(center + dx)
        pairs.append((f1, f2))
        resk += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for i in range(7):
        f1, f2 = pairs[i]
        resasc += _WGK[i] * (abs(f1 - reskh) + abs(f2 - reskh))
    resasc *= half
    err = abs(resk - resg) * half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


def _check_tol(name, tol):
    _check_finite(name, "tol", tol)
    if tol <= 0.0:
        raise ValueError(f"{name}: tol = {tol} must be positive")


def _combine(panels):
    # Deterministic combination: sort by left endpoint, sum in order.
    panels = sorted(panels, key=lambda p: p[0])
    value = sum(p[2] for p in panels)
    err = sum(p[3] for p in panels)
    evals = _EVALS_PER_PANEL * len(panels)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def _check_seed_panels(count, max_panels):
    # Callers that derive their breakpoints from a count check it here
    # before building the list, so an oversized request fails before it
    # allocates.
    if count > max_panels:
        raise ValueError(
            f"integrate_adaptive: {count} seed panels exceed "
            f"max_panels = {max_panels}"
        )


def integrate_adaptive(f, a, b, tol, breakpoints=(), max_panels=DEFAULT_MAX_PANELS):
    """Adaptively integrate f over the finite interval [a, b].

    Interior breakpoints seed the initial panel list, so integrands that
    are only piecewise smooth converge at the full rate provided their
    kinks are declared. Raises QuadratureBudgetError (carrying the best
    estimate) once max_panels panels exist and the tolerance is still out
    of reach, and ArithmeticError when the integrand's values leave the
    double range (a nan estimate would otherwise end the refinement).
    """
    _check_finite("integrate_adaptive", "a", a)
    _check_finite("integrate_adaptive", "b", b)
    if not a < b:
        raise ValueError(f"integrate_adaptive: bad interval [{a}, {b}]")
    _check_tol("integrate_adaptive", tol)
    max_panels = _check_int("integrate_adaptive", "max_panels", max_panels, 1)
    points = [a, *sorted(p for p in set(breakpoints) if a < p < b), b]
    _check_seed_panels(len(points) - 1, max_panels)
    heap = []
    total_err = 0.0
    for u, v in zip(points, points[1:]):
        value, err = _gk15_panel(f, u, v)
        heapq.heappush(heap, (-err, u, v, value, err))
        total_err += err
    while total_err > tol:
        neg_err, u, v, value, err = heap[0]
        if err == 0.0:
            break  # cannot refine further; estimates are at the floor
        if len(heap) >= max_panels:
            best = _combine([(u_, v_, val_, e_) for _, u_, v_, val_, e_ in heap])
            raise QuadratureBudgetError(
                f"integrate_adaptive: panel budget {max_panels} exhausted with "
                f"error estimate {best.abs_error_estimate:.3e} > tol {tol:.3e}",
                best,
            )
        heapq.heappop(heap)
        mid = 0.5 * (u + v)
        if not (u < mid < v):
            break  # interval at floating-point resolution
        left_value, left_err = _gk15_panel(f, u, mid)
        right_value, right_err = _gk15_panel(f, mid, v)
        heapq.heappush(heap, (-left_err, u, mid, left_value, left_err))
        heapq.heappush(heap, (-right_err, mid, v, right_value, right_err))
        total_err += left_err + right_err - err
    result = _combine([(u, v, value, err) for _, u, v, value, err in heap])
    if not (cmath.isfinite(result.value) and math.isfinite(result.abs_error_estimate)):
        raise ArithmeticError(
            f"integrate_adaptive: the integrand is not finite on [{a}, {b}]"
        )
    return result


def improper_damped(f, tol, breakpoints=(), degree=L_MAX):
    """Integrate f over the whole line assuming exponential damping.

    The caller promises |f(y)| <= C e^(-|y|) (1+|y|)^degree. Tails are cut
    where that bound (with C = 1) drops below tol/10; the interior is
    always split at 0 and at any declared kinks.
    """
    _check_tol("improper_damped", tol)
    degree = _check_int("improper_damped", "degree", degree, 0, 2 * L_MAX)
    cut = 40.0 + degree * math.log(1.0 + degree)
    while math.exp(-cut) * (1.0 + cut) ** degree > 0.1 * tol:
        cut *= 1.25
    inner = [p for p in breakpoints if -cut < p < cut]
    return integrate_adaptive(f, -cut, cut, tol, breakpoints=[0.0, *inner])


def fourier_symbol_oracle(ell, x):
    """Direct quadrature of (1/2 pi) times the Fourier integral of the
    order-ell symbol over [-1, 1].

    This is the reference route for the kernel values: nothing here uses
    the closed forms. The integrand is pre-split into panels no wider
    than pi/|x| so the oscillation is resolved deterministically, and the
    imaginary residue (zero in exact arithmetic because the symbol has
    conjugate symmetry) is checked against 1e-12 before being discarded.
    """
    ell = _check_int("fourier_symbol_oracle", "ell", ell, 0, L_MAX)
    _check_finite("fourier_symbol_oracle", "x", x)

    def g(t):
        moebius = complex(1.0, t) / complex(1.0, -t)
        return 2.0 * moebius**ell * cmath.exp(complex(0.0, -t * x))

    width = math.pi / abs(x) if x != 0.0 else 2.0
    segments = max(1, math.ceil(2.0 / width))
    _check_seed_panels(segments, DEFAULT_MAX_PANELS)
    cuts = [-1.0 + 2.0 * i / segments for i in range(1, segments)]
    result = integrate_adaptive(g, -1.0, 1.0, 1e-13, breakpoints=cuts)
    value = result.value / (2.0 * math.pi)
    if abs(value.imag) > 1e-12:
        raise ArithmeticError(
            f"fourier_symbol_oracle: imaginary residue {value.imag:.3e} "
            f"exceeds 1e-12 at ell = {ell}, x = {x}"
        )
    return value.real


@lru_cache(maxsize=None)
def _xi_pow_fourth_derivative_numerator(ell):
    """Integer coefficients, constant term first, of P_4 in
    f^(4) = P_4(t) (1+t^2)^(-ell-4), f = (1+t^2)^(-ell).

    P_0 = 1 and P_(n+1) = (1+t^2) P_n' - 2 (ell+n) t P_n.
    """
    poly = (1,)
    for n in range(4):
        step = [0] * (len(poly) + 1)
        for k in range(1, len(poly)):
            step[k - 1] += k * poly[k]
            step[k + 1] += k * poly[k]
        for k, c in enumerate(poly):
            step[k + 1] -= 2 * (ell + n) * c
        poly = tuple(step)
    return poly


def _xi_pow_reference(ell, w):
    """Quadrature route for the transform of f = (1+t^2)^(-ell),
    independent of the exponential-polynomial closed form.

    The slow t^(-2 ell) decay is handled by moving four derivatives onto
    f: the integral of f(t) cos(ut) over [0, inf) is u^-4 times that of
    f^(4)(t) cos(ut), because f'(0) = f'''(0) = 0 and every other
    boundary term vanishes. With f^(4) = P(t) (1+t^2)^(-ell-4),
    P = sum_k c_k t^k, and (1+t^2)^(-ell-4) <= t^(-2 ell-8) for t > 0,

        u^-4 int_T^inf |f^(4)| <= u^-4 sum_k |c_k| T^(k-2 ell-7) / (2 ell+7-k),

    and the cut T is placed where that bound is 1e-13. The core runs at
    tol u^4 / 2, which adds at most tol / sqrt(2 pi) to the result. The
    u^-4 factor lifts the core's rounding as well, past tol below
    |w| = 1/4 at some orders, so 0 < |w| < 1/4 is rejected. The w = 0
    case instead maps the tail to [0, 1/T] by inversion. Every integrand
    is even in t, so each is integrated over [0, T] only and doubled.
    """
    ell = _check_int("_xi_pow_reference", "ell", ell, 1, L_MAX)
    _check_finite("_xi_pow_reference", "w", w)
    tol = 1e-11
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    u = abs(w)
    if u == 0.0:
        cut = 50.0
        core = integrate_adaptive(lambda t: (1.0 + t * t) ** (-ell), 0.0, cut, tol / 4.0)
        tail = integrate_adaptive(
            lambda v: v ** (2 * ell - 2) * (1.0 + v * v) ** (-ell),
            0.0,
            1.0 / cut,
            tol / 4.0,
        )
        return norm * 2.0 * (core.value + tail.value)
    if u < 0.25:
        raise ValueError(f"_xi_pow_reference: |w| = {u} lies in (0, 1/4)")
    coeffs = _xi_pow_fourth_derivative_numerator(ell)
    # The bound is T^(-2 ell-3) times a sum that falls as T grows, so the
    # sum taken at the cut of its leading term alone gives a cut where the
    # whole bound holds.
    power = 2 * ell + 3
    weights = [abs(c) / (2 * ell + 7 - k) for k, c in enumerate(coeffs)]
    target = 1e-13 * u**4
    cut = (weights[4] / target) ** (1.0 / power)
    cut = (sum(b * cut ** (k - 4) for k, b in enumerate(weights)) / target) ** (1.0 / power)

    def fourth_derivative(t):
        numerator = 0.0
        for c in reversed(coeffs):
            numerator = numerator * t + c
        return numerator * (1.0 + t * t) ** (-ell - 4)

    spacing = math.pi / u
    count = int(cut / spacing)
    # the seeds split [0, cut] into count + 1 panels, or count when the
    # last one lands on cut itself
    _check_seed_panels(count + (count * spacing < cut), _XI_POW_MAX_PANELS)
    seeds = [k * spacing for k in range(1, count + 1)]
    core = integrate_adaptive(
        lambda t: fourth_derivative(t) * math.cos(u * t),
        0.0,
        cut,
        tol * u**4 / 2.0,
        breakpoints=seeds,
        max_panels=_XI_POW_MAX_PANELS,
    )
    return norm * 2.0 * core.value / u**4


def _poly_symbol_reference(ell, w):
    """Quadrature route for the transform of the degree-2 ell polynomial
    symbol factor 2 (1+it)^(2 ell) on [-1, 1], independent of the
    sinc-derivative closed form."""
    ell = _check_int("_poly_symbol_reference", "ell", ell, 0, L_MAX)
    _check_finite("_poly_symbol_reference", "w", w)

    def integrand(t):
        return 2.0 * complex(1.0, t) ** (2 * ell) * cmath.exp(complex(0.0, -t * w))

    pieces = max(1, math.ceil(2.0 * abs(w) / math.pi))
    _check_seed_panels(pieces, DEFAULT_MAX_PANELS)
    seeds = [-1.0 + 2.0 * k / pieces for k in range(1, pieces)]
    result = integrate_adaptive(integrand, -1.0, 1.0, 1e-12, breakpoints=seeds)
    value = result.value / math.sqrt(2.0 * math.pi)
    if abs(value.imag) > 1e-11:
        raise ArithmeticError(
            f"_poly_symbol_reference: imaginary residue {value.imag:.3e} "
            f"at ell = {ell}, w = {w}"
        )
    return value.real
