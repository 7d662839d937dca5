"""Acceptance gate: one test per numbered criterion, run at the stated
tolerances.  Each test prints a single PASS/FAIL line with the measured
quantity before asserting, so failures carry their evidence."""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from hankel_spectra import kernels, operators, spectral
from hankel_spectra.combinatorics import alternating_factorial_identity, sum_identity
from hankel_spectra.quadrature import (
    _poly_symbol_reference,
    _xi_pow_reference,
    improper_damped,
)
from hankel_spectra.specfun import (
    EULER_GAMMA,
    damped_moment_shifted,
    damped_trig_moment,
    e1,
    ein,
    gamma_abs_sq,
)


def _report(num, name, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {details}")
    assert ok, f"criterion {num:02d} {name}: {details}"


def test_criterion_01_exact_identity_suite():
    start = time.perf_counter()
    failures = []
    for ell in range(1, 21):
        for kind in (1, 2, 3):
            lhs, rhs = sum_identity(kind, ell)
            if lhs != rhs:
                failures.append((kind, ell))
    for m in range(1, 17):
        for r in range(1, m + 1):
            lhs, rhs = alternating_factorial_identity(m, r)
            if lhs != rhs:
                failures.append(("factorial", m, r))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(1, "exact identities", ok,
            f"mismatches={failures!r} runtime={elapsed:.3f}s (budget 1s)")


def test_criterion_02_fourier_closed_forms():
    start = time.perf_counter()
    grid = (0.0, 0.5, 1.0, 3.0)
    worst_xi = max(
        abs(kernels.fourier_xi_pow(ell, w) - _xi_pow_reference(ell, w))
        for ell in range(1, 7)
        for w in grid
    )
    worst_sum = max(
        abs(kernels.fourier_psi_tilde(ell, w) - _poly_symbol_reference(ell, w))
        for ell in range(0, 7)
        for w in grid
    )
    elapsed = time.perf_counter() - start
    ok = worst_xi <= 1e-10 and worst_sum <= 1e-10 and elapsed < 10.0
    _report(2, "Fourier closed forms vs oracle", ok,
            f"max|d| transform={worst_xi:.2e} sum={worst_sum:.2e} (tol 1e-10) "
            f"runtime={elapsed:.2f}s (budget 10s)")


def test_criterion_03_convolution_and_trig_moment_closed_forms():
    worst = 0.0
    for ell, y in ((0, 0.0), (0, 2.0), (1, 0.0)):
        def integrand(t, ell=ell, y=y):
            return abs(t) ** ell * math.exp(-abs(t)) * math.exp(-abs(y - t))

        oracle = improper_damped(integrand, tol=1e-12, breakpoints=(0.0, y), degree=ell + 1)
        worst = max(worst, abs(kernels.exp_poly_self_convolution(ell, y) - oracle.value))
    for m, x, kind in ((0, 0.7, "sin"), (1, 0.3, "sin"), (3, 1.0, "cos")):
        trig = math.sin if kind == "sin" else math.cos

        def integrand(t, m=m, x=x, trig=trig):
            return math.exp(-abs(t)) * abs(t) ** m * trig(x - t)

        oracle = improper_damped(integrand, tol=1e-12, breakpoints=(0.0,), degree=m + 1)
        worst = max(worst, abs(damped_trig_moment(m, x, kind) - oracle.value))
    ok = worst <= 1e-9
    _report(3, "convolution and trig-moment closed forms", ok,
            f"max|d|={worst:.2e} (tol 1e-9)")


def test_criterion_04_triple_route_agreement():
    start = time.perf_counter()
    worst = 0.0
    for ell in range(1, 7):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            closed = kernels.k_closed(ell, x).value
            conv = kernels.k_conv(ell, x).value
            oracle = kernels.evaluate(ell, x, method="oracle").value
            worst = max(
                worst,
                abs(closed - conv),
                abs(closed - oracle),
                abs(conv - oracle),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(4, "triple-route kernel agreement", ok,
            f"max pairwise |d|={worst:.2e} (tol 1e-8) runtime={elapsed:.1f}s (budget 60s)")


def test_criterion_05_shifted_moment_formula():
    worst = 0.0
    for n in range(0, 5):
        for a in (1.0, 1 + 1j, 2 - 1j):
            for x in (0.5, 1.0, 2.0, 5.0):
                def real_part(y, n=n, a=a, x=x):
                    if y <= 0.0:
                        return 0.0
                    return (y ** n * cmath.exp(-a * y) / (x + y)).real

                def imag_part(y, n=n, a=a, x=x):
                    if y <= 0.0:
                        return 0.0
                    return (y ** n * cmath.exp(-a * y) / (x + y)).imag

                re = improper_damped(real_part, tol=1e-12, breakpoints=(0.0,), degree=n + 1)
                im = improper_damped(imag_part, tol=1e-12, breakpoints=(0.0,), degree=n + 1)
                got = damped_moment_shifted(n, a, x)
                worst = max(worst, abs(got - complex(re.value, im.value)))
    ok = worst <= 1e-9
    _report(5, "shifted-moment closed form vs quadrature", ok,
            f"max|d|={worst:.2e} (tol 1e-9)")


def test_criterion_06_block_certificates():
    start = time.perf_counter()
    worst_dev = 0.0
    worst_cross = 0.0
    for ell in range(0, 8):
        cert = spectral.block_certificate(ell, 64)
        worst_dev = max(worst_dev, cert.max_abs_deviation)
        worst_cross = max(worst_cross, cert.cross_block_max)
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-13 and worst_cross == 0.0 and elapsed < 5.0
    _report(6, "block decomposition certificates", ok,
            f"max deviation={worst_dev:.2e} (tol 1e-13) vanishing-block max={worst_cross!r} "
            f"runtime={elapsed:.2f}s (budget 5s)")


def test_criterion_07_checkerboard_conjugation_exact():
    size = 64
    signs = np.diag(operators.alternating_signs(size))
    bad = []
    for p in (0.5, -0.5, -1.5):
        plain = operators.hilbert_type(p, size, False).entries
        alternating = operators.hilbert_type(p, size, True).entries
        if not np.array_equal(signs @ alternating @ signs, plain):
            bad.append(p)
    ok = not bad
    _report(7, "sign conjugation is entrywise exact", ok, f"failures at p={bad!r}")


def test_criterion_08_spectral_containment_and_symmetry():
    start = time.perf_counter()
    worst_violation = 0.0
    for ell in range(0, 5):
        report = operators.spectrum_report(ell, 512)
        worst_violation = max(worst_violation, report.containment_violation)
    worst_sym = 0.0
    for ell in (1, 3):
        vals = np.asarray(operators.spectrum_report(ell, 512).eigenvalues)
        worst_sym = max(worst_sym, float(np.max(np.abs(vals + vals[::-1]))))
    elapsed = time.perf_counter() - start
    ok = worst_violation <= 1e-9 and worst_sym <= 1e-10 and elapsed < 300.0
    _report(8, "containment and negation symmetry", ok,
            f"containment excess={worst_violation:.2e} (tol 1e-9) "
            f"symmetry defect={worst_sym:.2e} (tol 1e-10) runtime={elapsed:.0f}s (budget 300s)")


def test_criterion_08_peak_eigenvalue_pin():
    start = time.perf_counter()
    report = operators.spectrum_report(0, 1024)
    elapsed = time.perf_counter() - start
    ok = report.max >= 0.98 and elapsed < 300.0
    _report(8, "peak eigenvalue at N=1024", ok,
            f"max eigenvalue={report.max:.6f} (required >= 0.98) runtime={elapsed:.0f}s")


def test_criterion_09_hilbert_type_spectrum_range():
    bad = []
    details = []
    for p in (0.5, -0.5, -1.5):
        vals = operators.symm_eigen(operators.hilbert_type(p, 512, False).entries)
        low, high = float(vals[0]), float(vals[-1])
        details.append(f"p={p}: [{low:.3e}, {high:.9f}]")
        if not (low > 0.0 and high < math.pi - 1e-6):
            bad.append(p)
    ok = not bad
    _report(9, "Hilbert-type eigenvalues inside (0, pi)", ok,
            "; ".join(details) + f"; failures at p={bad!r}")


def test_criterion_10_asymptotic_error_decay():
    def error_at(ell, x):
        value = kernels.evaluate(ell, x).value
        return abs(x * value - 2.0 / math.pi * math.sin(x - ell * math.pi / 2))

    rows = []
    ok = True
    for ell in range(1, 5):
        near, far = error_at(ell, 10.0), error_at(ell, 1000.0)
        rows.append(f"l={ell}: E(10)={near:.2e} E(1000)={far:.2e}")
        if not (far < near and far <= 0.01):
            ok = False
    # the order-zero kernel coincides with its own asymptote, so only the
    # magnitude clause is informative there
    ok = ok and error_at(0, 1000.0) <= 0.01
    _report(10, "asymptotic error decay", ok, "; ".join(rows))


def test_criterion_11_l1_divergence_l2_membership():
    xs = (1e2, 1e3, 1e4)
    values = [kernels.lp_diagnostic(1, 1.0, x) for x in xs]
    design = np.array([[math.log(x), 1.0] for x in xs])
    target = np.array(values)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.linalg.norm(target - design @ coef) / np.linalg.norm(target))
    l2_small = kernels.lp_diagnostic(1, 2.0, 1e2)
    l2_large = kernels.lp_diagnostic(1, 2.0, 1e3)
    l2_shift = abs(l2_large - l2_small)
    ok = coef[0] > 0.0 and residual < 0.2 and l2_shift <= 0.05
    _report(11, "L1 grows like log, L2 saturates", ok,
            f"fit c={coef[0]:.4f} (require > 0) residual={residual:.2%} (limit 20%) "
            f"L2 shift={l2_shift:.2e} (limit 0.05)")


def test_criterion_12_special_function_cross_checks():
    worst_e1 = 0.0
    for r in (0.1, 1.0, 5.0, 12.5, 30.0, 50.0):
        for arg in (0.0, 0.7, 1.6, 2.4, 2.95, -0.7, -1.6, -2.4, -2.95):
            z = r * cmath.exp(1j * arg)
            lhs = e1(z)
            rhs = ein(z) - cmath.log(z) - EULER_GAMMA
            worst_e1 = max(worst_e1, abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst_gamma = 0.0
    for y in (0.1, 0.5, 1.0, 2.0, 5.0):
        worst_gamma = max(
            worst_gamma,
            abs(gamma_abs_sq(0.0, y) * math.cosh(math.pi * y) / math.pi - 1.0),
            abs(gamma_abs_sq(0.5, y) * y * math.sinh(math.pi * y) / math.pi - 1.0),
        )
    worst_rho = 0.0
    for lam in (0.01, 0.25, 1.0, 4.0, 25.0):
        root = math.sqrt(lam)
        rho0 = spectral.density_rho(0.0, lam).rho
        rho_half = spectral.density_rho(0.5, lam).rho
        worst_rho = max(
            worst_rho,
            abs(rho0 / (math.sinh(math.pi * root) / math.pi) - 1.0),
            abs(rho_half / (math.cosh(math.pi * root) / (math.pi * root)) - 1.0),
        )
    ok = worst_e1 <= 1e-11 and worst_gamma <= 1e-12 and worst_rho <= 1e-12
    _report(12, "special-function cross-checks", ok,
            f"identity={worst_e1:.2e} (tol 1e-11) reflection={worst_gamma:.2e} (tol 1e-12) "
            f"density={worst_rho:.2e} (tol 1e-12)")
