"""Term-by-term reference for the closed kernel route.

``p_term`` and ``q_term`` evaluate, one (sign, m, n) term at a time, the
exponential-integral pieces of a second derivation of the kernel: the
convolution formula integrated by parts, with A and B the damped sinc
integrals and sinc-derivative boundary terms. ``kernels.k_closed`` comes
from the symbol's partial fractions instead; the tests compare it
against the plain sum of these terms over (m, n).
"""

import cmath
import math

from hankel_spectra.specfun import L_MAX, e1_scaled, sinc_derivative


def _a_value(x):
    # integral over (0, inf) of e^(-y) sinc(x - y) dy
    #   = pi e^(-x) + Im(e^(-ix) e1_scaled(-x + ix)), from E1 at every x
    z = complex(-x, x)
    return math.pi * math.exp(-x) + (cmath.exp(complex(0.0, -x)) * e1_scaled(z)).imag


def _b_value(x):
    # integral over (0, inf) of e^(-y) sinc(x + y) dy = -e^x Im E1(x + ix)
    z = complex(x, x)
    return -(cmath.exp(complex(0.0, -x)) * e1_scaled(z)).imag


def _falling(m, j):
    # m!/(m-j)! as an exact float (tiny integers here)
    return float(math.factorial(m) // math.factorial(m - j))


def _poly_block(sign, m, n, j_max, x, ab):
    # The shared polynomial-and-trig block of the explicit terms. For the
    # minus sign: sum_j C(n,j)(-1)^(n-j) m!/(m-j)! [ A x^(m-j) +
    # sum_r (r-1)!/2^(r/2) sin(r pi/4 - x) x^(m-j-r) ], and the plus sign
    # swaps in (-1)^m B, sin(r pi/4 + x) and the factor (-1)^(m-r).
    total = 0.0
    for j in range(j_max + 1):
        weight = math.comb(n, j) * _falling(m, j)
        if sign == "-":
            if (n - j) % 2 == 1:
                weight = -weight
            inner = ab * x ** (m - j)
            for r in range(1, m - j + 1):
                inner += (
                    math.factorial(r - 1)
                    / 2.0 ** (0.5 * r)
                    * math.sin(0.25 * r * math.pi - x)
                    * x ** (m - j - r)
                )
        else:
            inner = ab * x ** (m - j)
            if m % 2 == 1:
                inner = -inner
            for r in range(1, m - j + 1):
                piece = (
                    math.factorial(r - 1)
                    / 2.0 ** (0.5 * r)
                    * math.sin(0.25 * r * math.pi + x)
                    * x ** (m - j - r)
                )
                if (m - r) % 2 == 1:
                    piece = -piece
                inner += piece
        total += weight * inner
    return total


def _check_term_args(name, sign, x):
    if sign not in ("-", "+"):
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")
    if not math.isfinite(x):
        raise ValueError(f"{name}: x = {x} must be finite")
    if x <= 0.0:
        raise ValueError(f"{name}: x = {x} must be positive")


def p_term(sign, m, n, x):
    """Closed form of the integral of y^m e^(-y) sinc^(n)(x -+ y) over
    (0, inf) in the regime n <= m.

    Evaluated term by term, independently of k_closed."""
    if not 0 <= n <= m <= L_MAX - 1:
        raise ValueError(f"p_term: need 0 <= n <= m <= {L_MAX - 1}, got m={m}, n={n}")
    _check_term_args("p_term", sign, x)
    ab = _a_value(x) if sign == "-" else _b_value(x)
    return _poly_block(sign, m, n, n, x, ab)


def q_term(sign, m, n, x):
    """Closed form of the same integral in the regime n > m, where the
    repeated integrations by parts leave extra sinc-derivative boundary
    terms at the origin. Term by term, like p_term."""
    if not (0 <= m <= L_MAX - 1 and m < n <= 2 * L_MAX):
        raise ValueError(
            f"q_term: need 0 <= m <= {L_MAX - 1} and m < n <= {2 * L_MAX}, "
            f"got m={m}, n={n}"
        )
    _check_term_args("q_term", sign, x)
    boundary = 0.0
    for s in range(n - m):
        piece = math.factorial(n - s - 1) // math.factorial(n - m - s - 1)
        if sign == "-" and s % 2 == 1:
            piece = -piece
        boundary += piece * sinc_derivative(s, x)
    flip = (n - m - 1) % 2 if sign == "-" else (m + 1) % 2
    if flip:
        boundary = -boundary
    ab = _a_value(x) if sign == "-" else _b_value(x)
    return boundary + _poly_block(sign, m, n, m, x, ab)
