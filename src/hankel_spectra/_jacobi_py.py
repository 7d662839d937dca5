"""Cyclic Jacobi eigenvalue sweeps in Python.

Deterministic sweep order, fresh off-diagonal norm per sweep, rotations
skipped only below threshold/(4 n^2) so that skipping everything already
implies convergence. Row and column updates are vectorized with numpy
and apply the scalar rotation formulas.
"""

import math

import numpy as np


def _off_norm(a):
    sq = 0.0
    n = a.shape[0]
    for i in range(n - 1):
        row = a[i, i + 1 :]
        sq += float(row @ row)
    return math.sqrt(2.0 * sq)


def jacobi_eigenvalues(a, threshold, max_sweeps):
    """Rotate a symmetric matrix (in place) until the off-diagonal norm
    is at most threshold; returns (sorted eigenvalues, sweeps, off_norm)."""
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]]), 0, 0.0
    off = _off_norm(a)
    sweeps = 0
    skip = threshold / (4.0 * n * n)
    while off > threshold and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = 0.5 * (aqq - app) / apq
                if abs(theta) > 1e154:
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                h = t * apq
                g_col = a[:, p].copy()
                h_col = a[:, q].copy()
                new_p = g_col - s * (h_col + tau * g_col)
                new_q = h_col + s * (g_col - tau * h_col)
                a[:, p] = new_p
                a[p, :] = new_p
                a[:, q] = new_q
                a[q, :] = new_q
                a[p, p] = app - h
                a[q, q] = aqq + h
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
        off = _off_norm(a)
    return np.sort(np.diagonal(a).copy()), sweeps, off
