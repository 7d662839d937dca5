"""Exact combinatorial identities and the polynomial coefficient family."""

import math
from fractions import Fraction

from .specfun import L_MAX, _check_int, _gaussian_power


def p_poly(ell):
    """Coefficients of the degree ell-1 polynomial p_ell, ascending, exact.

    p_ell(w) = sum_{j=0}^{ell-1} 2^(-j) C(ell+j-1, ell-1) w^(ell-j-1)/(ell-j-1)!
    reindexed by degree d = ell-j-1.
    """
    ell = _check_int("p_poly", "ell", ell, 1, L_MAX)
    return [
        Fraction(math.comb(2 * ell - 2 - d, ell - 1), 2 ** (ell - 1 - d) * math.factorial(d))
        for d in range(ell)
    ]


def sum_identity(kind, ell):
    """Both sides of one of the three closed summation identities, exact.

    kind 1: sum_j cos((ell-j)pi/4)/2^((ell+j-2)/2) C(ell+j-1, ell-1) = 1
    kind 2: sum_n (-1)^n C(2 ell, 2n) = cos(ell pi/2) 2^ell
    kind 3: sum_n (-1)^(n+1) C(2 ell, 2n+1) = sin(-ell pi/2) 2^ell
    """
    kind = _check_int("sum_identity", "kind", kind, 1, 3)
    ell = _check_int("sum_identity", "ell", ell, 1)
    if kind == 1:
        # cos(k pi/4) 2^(k/2) = Re (1+i)^k, so term j is
        # Re (1+i)^(ell-j) C(ell+j-1, ell-1) / 2^(ell-1)
        lhs = sum(
            Fraction(
                _gaussian_power(ell - j)[0] * math.comb(ell + j - 1, ell - 1),
                2 ** (ell - 1),
            )
            for j in range(ell)
        )
        return lhs, Fraction(1)
    # cos(ell pi/2) 2^ell and sin(ell pi/2) 2^ell are Re and Im of (1+i)^(2 ell)
    re, im = _gaussian_power(2 * ell)
    if kind == 2:
        lhs = sum((-1) ** n * math.comb(2 * ell, 2 * n) for n in range(ell + 1))
        return lhs, re
    lhs = sum((-1) ** (n + 1) * math.comb(2 * ell, 2 * n + 1) for n in range(ell))
    return lhs, -im


def alternating_factorial_identity(m, r):
    """lhs = sum_{j=r}^{m} (-1)^j C(m,j) (j-1)!/(j-r)!, rhs = (-1)^r (r-1)!."""
    m = _check_int("alternating_factorial_identity", "m", m, 1, 2 * L_MAX)
    r = _check_int("alternating_factorial_identity", "r", r, 1, m)
    lhs = sum(
        (-1) ** j * math.comb(m, j) * math.factorial(j - 1) // math.factorial(j - r)
        for j in range(r, m + 1)
    )
    rhs = (-1) ** r * math.factorial(r - 1)
    return lhs, rhs
