"""Correctness checks the benchmark applies to every timed operation.

Each check takes an operation's inputs and outputs and returns None when
the output is right, or a one-line reason when it is not. They run after
the timed phase and import nothing from the package under test, so they
can be tested on hand-made outputs.

Two defects of the package are known and stay counted as failures (they
are in ``failed`` and in ``fail_frac``). ``kernel_known_defect`` and
``cli_known_defect`` recognise them, so that a run can tell them apart
from a new failure:

- ``k_closed`` loses accuracy at order >= 4 and large x, beyond the
  x <= 20 and order <= 4 ranges that the acceptance tests check;
- ``density`` overflows in ``math.sinh(2 pi sqrt(lambda))`` once lambda
  passes about 1.28e4, and the CLI exits 3.
"""

import csv
import io
import json
import math

# The same absolute tolerance as the `verify` suites' default --tol.
KERNEL_TOL = 1e-8
# Acceptance criterion 08: containment and odd-order negation symmetry.
CONTAINMENT_TOL = 1e-9
SYMMETRY_TOL = 1e-10
TRACE_TOL = 1e-9

KNOWN_CLOSED_MIN_ORDER = 4
KNOWN_CLOSED_MIN_X = 20.0
# sinh overflows at 710.48, i.e. lambda = (710.48 / (2 pi))^2 = 12786.
DENSITY_OVERFLOW_LAMBDA = (math.asinh(1.7976931348623157e308) / (2.0 * math.pi)) ** 2


def kernel_failure(ell, x, value, reference):
    """Reason the kernel value misses the quadrature oracle, or None."""
    if not math.isfinite(value):
        return f"kernel({ell}, {x!r}) = {value!r} is not finite"
    miss = abs(value - reference)
    if miss > KERNEL_TOL:
        return f"kernel({ell}, {x!r}) = {value!r} misses oracle {reference!r} by {miss:.3e}"
    return None


def fourier_coefficient(k):
    """c_k = (2/(pi k)) sin(pi k/2), written out independently of the package."""
    if k % 2 == 0:
        return 0.0
    value = 2.0 / (math.pi * k)
    return -value if ((k - 1) // 2) % 2 else value


def truncation_trace(ell, n):
    """Trace of the order-ell truncation of size n: sum of c_(2j+ell+1)."""
    return math.fsum(fourier_coefficient(2 * j + ell + 1) for j in range(n))


def spectrum_failure(ell, n, eigenvalues, containment_violation):
    """Reason the spectrum report is wrong, or None.

    Checks the reported containment excess, the eigenvalue sum against
    the trace, and for odd orders that the spectrum is symmetric under
    negation (ascending eigenvalues pair up as v[i] = -v[n-1-i]).
    """
    values = [float(v) for v in eigenvalues]
    if len(values) != n:
        return f"spectrum({ell}, {n}) has {len(values)} eigenvalues"
    if not all(math.isfinite(v) for v in values):
        return f"spectrum({ell}, {n}) has non-finite eigenvalues"
    excess = max(0.0, max(abs(v) for v in values) - 1.0)
    if containment_violation > CONTAINMENT_TOL or excess > CONTAINMENT_TOL:
        return f"spectrum({ell}, {n}) leaves [-1, 1] by {max(excess, containment_violation):.3e}"
    drift = abs(math.fsum(values) - truncation_trace(ell, n))
    if drift > TRACE_TOL:
        return f"spectrum({ell}, {n}) eigenvalue sum misses the trace by {drift:.3e}"
    if ell % 2 == 1:
        asym = max(abs(a + b) for a, b in zip(values, reversed(values)))
        if asym > SYMMETRY_TOL:
            return f"spectrum({ell}, {n}) negation symmetry defect {asym:.3e}"
    return None


def _numbers_in(node):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for value in node.values():
            yield from _numbers_in(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers_in(value)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def output_failure(text):
    """Reason the CLI output does not parse or holds a non-finite number.

    Output is JSON, CSV, or CSV followed by one JSON summary line (the
    `spectrum` command); every numeric cell must be finite.
    """
    if not text.strip():
        return "empty output"
    try:
        if text.lstrip().startswith("{"):
            payloads, lines = [json.loads(text, parse_constant=_reject_constant)], []
        else:
            lines = text.splitlines()
            payloads = [
                json.loads(line, parse_constant=_reject_constant)
                for line in lines
                if line.startswith("{")
            ]
            lines = [line for line in lines if not line.startswith("{")]
    except ValueError as error:
        return f"output is not valid JSON: {error}"
    for payload in payloads:
        bad = [v for v in _numbers_in(payload) if not math.isfinite(v)]
        if bad:
            return f"non-finite numbers in JSON output: {bad[:3]}"
    if lines:
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
            return "CSV output is ragged or has no data row"
        for row in rows[1:]:
            for cell in row:
                try:
                    number = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    return f"non-finite CSV cell {cell!r}"
    return None


def cli_failure(argv, returncode, stdout):
    """Reason a CLI command failed (every scripted command should exit 0)."""
    if returncode != 0:
        return f"`{' '.join(argv)}` exited {returncode}"
    return output_failure(stdout)


def _flag(argv, name):
    return float(argv[argv.index(name) + 1]) if name in argv else None


def kernel_known_defect(ell, x, route):
    """True when a missed kernel value lies in k_closed's known loss region."""
    return route == "closed" and ell >= KNOWN_CLOSED_MIN_ORDER and x >= KNOWN_CLOSED_MIN_X


def cli_known_defect(argv, returncode):
    """True when a failed CLI command is the known density overflow."""
    if argv[0] != "density" or returncode != 3:
        return False
    top = _flag(argv, "--lambda-max") or _flag(argv, "--lambda")
    return top is not None and top > DENSITY_OVERFLOW_LAMBDA
