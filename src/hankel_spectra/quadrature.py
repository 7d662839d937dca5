"""Adaptive quadrature oracles.

The workhorse is a nested Gauss-Kronrod 7-15 pair with bisection
adaptivity: the 7-point Gauss rule is embedded in the 15-point Kronrod
extension, and their difference drives the per-panel error estimate the
same way QUADPACK does. Panels are kept in a priority queue keyed by
(error, left endpoint) so refinement order, and therefore output, is
deterministic; final values are summed left to right. Refinement stops
once the panels' error estimates sum to at most tol; near tol, and at
the panel budget, that sum is taken exactly (math.fsum), because the
running total carries the rounding of every update.

These routines are the ground truth the closed-form modules are tested
against, so they deliberately know nothing about those closed forms.

Each integral comes back as a ``QuadratureResult`` named tuple.
"""

import cmath
import heapq
import math
import sys
from collections import namedtuple

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
_EPS = sys.float_info.epsilon
DEFAULT_MAX_PANELS = 10_000


# value (float or complex), accumulated error estimate and evaluation count
QuadratureResult = namedtuple("QuadratureResult", "value abs_error_estimate evaluations")


class QuadratureBudgetError(RuntimeError):
    """Panel budget exhausted; carries the best estimate computed so far
    (None when the seed panels alone exceed the budget)."""

    def __init__(self, message, best_estimate=None):
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


def _check_seed_panels(name, count, max_panels, error=QuadratureBudgetError):
    # Callers that derive their breakpoints from a count of valid input
    # check it here before building the list, so an oversized request fails
    # as a budget failure before it allocates; integrate_adaptive's check of
    # the breakpoints its caller passed raises ValueError.
    if count > max_panels:
        raise error(f"{name}: {count} seed panels exceed max_panels = {max_panels}")


def integrate_adaptive(f, a, b, tol, breakpoints=(), max_panels=DEFAULT_MAX_PANELS):
    """Adaptively integrate f over the finite interval [a, b].

    Interior breakpoints seed the initial panel list, so integrands that
    are only piecewise smooth converge at the full rate provided their
    kinks are declared. Each breakpoint must be a finite real number;
    those outside (a, b) are ignored. Raises QuadratureBudgetError
    (carrying the best estimate) once max_panels panels exist and the
    tolerance is still out of reach, and ArithmeticError when the
    integrand's values leave the double range (a nan estimate would
    otherwise end the refinement).
    """
    _check_finite("integrate_adaptive", "a", a)
    _check_finite("integrate_adaptive", "b", b)
    if not a < b:
        raise ValueError(f"integrate_adaptive: bad interval [{a}, {b}]")
    _check_tol("integrate_adaptive", tol)
    max_panels = _check_int("integrate_adaptive", "max_panels", max_panels, 1)
    breakpoints = list(breakpoints)
    for point in breakpoints:
        _check_finite("integrate_adaptive", "breakpoint", point)
    points = [a, *sorted(p for p in set(breakpoints) if a < p < b), b]
    _check_seed_panels("integrate_adaptive", len(points) - 1, max_panels, ValueError)
    heap = []
    for u, v in zip(points, points[1:]):
        value, err = _gk15_panel(f, u, v)
        heapq.heappush(heap, (-err, u, v, value, err))
    # drift bounds the rounding that the running total has picked up
    total_err, drift = math.fsum(item[4] for item in heap), 0.0
    while True:
        if abs(total_err - tol) <= drift or len(heap) >= max_panels:
            total_err, drift = math.fsum(item[4] for item in heap), 0.0
        if total_err <= tol:
            break
        neg_err, u, v, value, err = heap[0]
        if err == 0.0:
            break  # cannot refine further; estimates are at the floor
        if len(heap) >= max_panels:
            best = _combine([(u_, v_, val_, e_) for _, u_, v_, val_, e_ in heap])
            raise QuadratureBudgetError(
                f"integrate_adaptive: panel budget {max_panels} exhausted with "
                f"error estimate {total_err:.3e} > tol {tol:.3e}",
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
        drift += _EPS * (left_err + right_err + err + abs(total_err))
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
    return integrate_adaptive(f, -cut, cut, tol, breakpoints=[0.0, *breakpoints])


def _symbol_transform(symbol, x, tol):
    """Integral of 2 symbol(t) e^(-ixt) over [-1, 1], on seed panels no
    wider than pi/|x| so the oscillation is resolved deterministically.
    The seed count is checked before the seeds are built; past the budget
    it raises QuadratureBudgetError, as the input itself is valid."""
    pieces = max(1, math.ceil(2.0 * abs(x) / math.pi))
    _check_seed_panels("integrate_adaptive", pieces, DEFAULT_MAX_PANELS)
    seeds = [-1.0 + 2.0 * k / pieces for k in range(1, pieces)]
    return integrate_adaptive(
        lambda t: 2.0 * symbol(t) * cmath.exp(complex(0.0, -t * x)),
        -1.0, 1.0, tol, breakpoints=seeds,
    )


def _symbol_oracle(ell, x):
    # fourier_symbol_oracle's value and error estimate over 2 pi: the one
    # integrate_adaptive measured plus 2 eps times 4, the integral of
    # |2 symbol e^(-ixt)|, a floor for the rounding of the quadrature sum
    ell = _check_int("fourier_symbol_oracle", "ell", ell, 0, L_MAX)
    _check_finite("fourier_symbol_oracle", "x", x)
    result = _symbol_transform(
        lambda t: (complex(1.0, t) / complex(1.0, -t)) ** ell, x, 1e-13
    )
    value = result.value / (2.0 * math.pi)
    if abs(value.imag) > 1e-12:
        raise ArithmeticError(
            f"fourier_symbol_oracle: imaginary residue {value.imag:.3e} "
            f"exceeds 1e-12 at ell = {ell}, x = {x}"
        )
    return value.real, (result.abs_error_estimate + 8.0 * _EPS) / (2.0 * math.pi)


def fourier_symbol_oracle(ell, x):
    """Direct quadrature of (1/2 pi) times the Fourier integral of the
    order-ell symbol over [-1, 1].

    This is the reference route for the kernel values: nothing here uses
    the closed forms. The imaginary residue (zero in exact arithmetic
    because the symbol has conjugate symmetry) is checked against 1e-12
    before being discarded.
    """
    return _symbol_oracle(ell, x)[0]


def _xi_pow_reference(ell, w):
    """Quadrature route for the transform of (1+t^2)^(-ell), independent
    of the exponential-polynomial closed form.

    Writing (1+t^2)^(-ell) = Gamma(ell)^-1 int_0^inf s^(ell-1)
    e^(-s (1+t^2)) ds, taking the Gaussian's transform and putting s = v^2
    gives F(w) = sqrt(2)/Gamma(ell) times the integral over (0, inf) of
    v^(2 ell-2) exp(-v^2 - w^2/(4 v^2)), that of DLMF 10.32.10. This
    integrand is positive, does not oscillate and peaks at sqrt(|w|/2);
    12 past the peak it is below 1e-50 of its maximum, so the interval
    ends there. The tolerance is scaled by Gamma(ell)/sqrt(2), so F is
    good to 1e-13 absolute at every finite w.
    """
    ell = _check_int("_xi_pow_reference", "ell", ell, 1, L_MAX)
    _check_finite("_xi_pow_reference", "w", w)
    half = 0.5 * abs(w)
    peak = math.sqrt(half)

    def integrand(v):
        if v == 0.0:  # the limit: 1 at ell = 1, w = 0; 0 otherwise
            return 1.0 if ell == 1 and half == 0.0 else 0.0
        q = half / v
        decay = math.exp(-v * v - q * q)
        # decay is 0 wherever v^(2 ell-2) could overflow (v > 28)
        return v ** (2 * ell - 2) * decay if decay else 0.0

    scale = math.sqrt(2.0) / math.gamma(ell)
    result = integrate_adaptive(integrand, 0.0, peak + 12.0, 1e-13 / scale, breakpoints=(peak,))
    return scale * result.value


def _poly_symbol_reference(ell, w):
    """Quadrature route for the transform of the degree-2 ell polynomial
    symbol factor 2 (1+it)^(2 ell) on [-1, 1], independent of the
    sinc-derivative closed form."""
    ell = _check_int("_poly_symbol_reference", "ell", ell, 0, L_MAX)
    _check_finite("_poly_symbol_reference", "w", w)
    value = _symbol_transform(
        lambda t: complex(1.0, t) ** (2 * ell), w, 1e-12
    ).value / math.sqrt(2.0 * math.pi)
    if abs(value.imag) > 1e-11:
        raise ArithmeticError(
            f"_poly_symbol_reference: imaginary residue {value.imag:.3e} "
            f"at ell = {ell}, w = {w}"
        )
    return value.real
