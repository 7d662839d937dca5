"""Command-line surface: kernel tables, verification suites, truncation
spectra, densities and block certificates, emitted as CSV or JSON.

Each subcommand builds one JSON document and names its table, a list of
flat dicts; ``_render`` writes the document as JSON or the table as CSV.

This module imports only the standard library; each command imports the
package modules it uses when it runs:

- ``kernel`` and ``verify --suite fourier|kernels``: ``kernels``, which
  loads ``quadrature``, ``combinatorics`` and ``specfun``;
- ``density``, ``blocks`` and ``verify --suite spectral``: ``spectral``
  and ``specfun``;
- ``verify --suite identities``: ``combinatorics`` and ``specfun``;
- ``spectrum`` and ``verify --suite operators``: ``operators``, which
  loads ``spectral`` and ``specfun``.

No package module loads NumPy.

``tempfile`` is imported only to write an --out file.

Exit codes: 0 success, 1 a verification check failed, 2 configuration
error (including an --out path that cannot be written), 3 numerical
failure. Output for a fixed configuration is byte-identical across runs;
when --out is given the file is written atomically (temp file then
rename) with the mode the umask gives a new file.
"""

import argparse
import csv
import io
import json
import math
import os
import sys


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(table):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table[0])
    for row in table:
        writer.writerow([_format_cell(cell) for cell in row.values()])
    return buffer.getvalue()


def _json_text(document):
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _render(fmt, document, table):
    """The document as JSON, or the table (flat dicts sharing the first
    row's keys) as CSV."""
    return _json_text(document) if fmt == "json" else _csv_text(table)


def _write_atomic(path, text):
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode a new file gets
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp_path, 0o666 & ~umask)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _emit(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        _write_atomic(out_path, text)
    except OSError as error:
        raise ValueError(f"cannot write {out_path}: {error.strerror or error}") from None


def _points(single, low, high, num, flags):
    """The one point given by the first of ``flags``, or the grid that the
    other two and --num give; the two forms do not mix."""
    point, low_flag, high_flag = flags
    grid = f"{low_flag}/{high_flag}/--num"
    if single is not None:
        if (low, high, num) != (None, None, None):
            raise ValueError(f"give either {point} or the grid {grid}, not both")
        return [single]
    if low is None or high is None or num is None:
        raise ValueError(f"provide either {point} or all of {grid}")
    if not low < high:
        raise ValueError(f"grid needs {low_flag} < {high_flag}, got {low} >= {high}")
    if num < 2:
        raise ValueError(f"grid needs --num >= 2, got {num}")
    if not math.isfinite(high - low):
        raise ValueError(f"grid span {high_flag} - {low_flag} overflows a double")
    step = (high - low) / (num - 1)
    # low + (num - 1) * step can miss high by an ulp; the grid ends at high
    return [low + k * step for k in range(num - 1)] + [high]


def cmd_kernel(args):
    from . import kernels

    rows = []
    for x in _points(args.x, args.xmin, args.xmax, args.num, ("--x", "--xmin", "--xmax")):
        evaluation = kernels.evaluate(args.ell, x, method=args.method)
        rows.append(
            {
                "x": x,
                "value": evaluation.value,
                "route": evaluation.route,
                "error_estimate": evaluation.error_estimate,
            }
        )
    document = {"command": "kernel", "ell": args.ell, "method": args.method, "rows": rows}
    _emit(_render(args.format, document, rows), args.out)
    return 0


def cmd_density(args):
    from . import spectral

    rows = []
    flags = ("--lambda", "--lambda-min", "--lambda-max")
    for lam in _points(args.lam, args.lam_min, args.lam_max, args.num, flags):
        point = spectral.density_rho(args.p, lam)
        rows.append(
            {
                "lambda": lam,
                "rho": point.rho,
                "h": spectral.multiplier_h(lam),
                "log_rho": point.log_rho,
            }
        )
    document = {"command": "density", "p": args.p, "rows": rows}
    _emit(_render(args.format, document, rows), args.out)
    return 0


def cmd_spectrum(args):
    from . import operators

    report = operators.spectrum_report(args.ell, args.size)
    summary = {
        "command": "spectrum",
        "ell": args.ell,
        "size": args.size,
        "min": report.min,
        "max": report.max,
        "containment_violation": report.containment_violation,
        "coverage_gap": report.coverage_gap,
    }
    eigenvalues = report.eigenvalues.tolist()
    rows = [{"index": i, "eigenvalue": v} for i, v in enumerate(eigenvalues)]
    text = _render(args.format, dict(summary, eigenvalues=eigenvalues), rows)
    if args.out:
        # the table goes to the file, the summary to stdout
        _emit(text, args.out)
        text = _json_text(summary)
    elif args.format == "csv":
        text += json.dumps(summary, allow_nan=False) + "\n"
    sys.stdout.write(text)
    return 0


def cmd_blocks(args):
    from . import spectral

    certificate = spectral.block_certificate(args.ell, args.size)
    document = {
        "command": "blocks",
        "ell": args.ell,
        "parity": certificate.parity,
        "m": certificate.m,
        "size": certificate.size,
        "max_abs_deviation": certificate.max_abs_deviation,
        "cross_block_max": certificate.cross_block_max,
    }
    _emit(_render(args.format, document, [document]), args.out)
    return 0


def _check(name, statement, measured, threshold):
    return {
        "name": name,
        "statement": statement,
        "measured": measured,
        "threshold": threshold,
        "pass": measured <= threshold,
    }


def _suite_identities(tol):
    from .combinatorics import alternating_factorial_identity, sum_identity

    worst_sum = 0
    for kind in (1, 2, 3):
        for ell in range(1, 21):
            lhs, rhs = sum_identity(kind, ell)
            worst_sum = max(worst_sum, abs(lhs - rhs))
    worst_fact = 0
    for m in range(1, 17):
        for r in range(1, m + 1):
            lhs, rhs = alternating_factorial_identity(m, r)
            worst_fact = max(worst_fact, abs(lhs - rhs))
    return [
        _check(
            "alternating-sum-identities",
            "three exact binomial sum families (orders 1..20) in integer arithmetic",
            float(worst_sum),
            0.0,
        ),
        _check(
            "alternating-factorial-identity",
            "alternating factorial-ratio sum collapses exactly for m <= 16",
            float(worst_fact),
            0.0,
        ),
    ]


def _suite_fourier(tol):
    from . import kernels, quadrature

    worst_xi = 0.0
    for ell in (1, 2, 3):
        for w in (0.0, 0.5, 1.0, 3.0):
            closed = kernels.fourier_xi_pow(ell, w)
            reference = quadrature._xi_pow_reference(ell, w)
            worst_xi = max(worst_xi, abs(closed - reference))
    worst_poly = 0.0
    for ell in (0, 1, 2, 3):
        for w in (0.0, 0.5, 1.0, 3.0):
            closed = kernels.fourier_psi_tilde(ell, w)
            reference = quadrature._poly_symbol_reference(ell, w)
            worst_poly = max(worst_poly, abs(closed - reference))
    return [
        _check(
            "exp-poly-transform-vs-quadrature",
            "closed-form transform of (1+t^2)^-ell matches direct quadrature",
            worst_xi,
            tol,
        ),
        _check(
            "sinc-sum-transform-vs-quadrature",
            "sinc-derivative sum matches quadrature of the polynomial symbol factor",
            worst_poly,
            tol,
        ),
    ]


def _suite_kernels(tol):
    from . import kernels, quadrature

    worst_route = 0.0
    for ell in (1, 2, 3, 4):
        for x in (0.5, 1.0, 5.0, 20.0):
            closed = kernels.k_closed(ell, x).value
            conv = kernels.k_conv(ell, x).value
            oracle = quadrature.fourier_symbol_oracle(ell, x)
            worst_route = max(
                worst_route,
                abs(closed - conv),
                abs(closed - oracle),
                abs(conv - oracle),
            )
    worst_asym = 0.0
    for ell in (1, 2, 3, 4):
        x = 1000.0
        drift = abs(
            x * kernels.k_closed(ell, x).value
            - 2.0 / math.pi * math.sin(x - 0.5 * ell * math.pi)
        )
        worst_asym = max(worst_asym, drift)
    return [
        _check(
            "triple-route-agreement",
            "closed, convolution and oracle kernel routes agree on the sample grid",
            worst_route,
            tol,
        ),
        _check(
            "large-x-asymptotics",
            "x * kernel approaches the shifted sine wave by x = 1000",
            worst_asym,
            0.01,
        ),
    ]


def _suite_operators(tol):
    from . import operators, spectral
    from .specfun import L_MAX

    certificates = [spectral.block_certificate(ell, 32) for ell in range(L_MAX + 1)]
    worst_cert = max(c.max_abs_deviation for c in certificates)
    worst_cross = max(c.cross_block_max for c in certificates)
    worst_conj = 0.0
    size = 64
    signs = operators.alternating_signs(size)
    for p in (0.5, -0.5, -1.5):
        plain = operators.hilbert_type(p, size, False).entries
        checker = operators.hilbert_type(p, size, True).entries
        for sign_i, row, plain_row in zip(signs, checker, plain):
            for sign_j, value, target in zip(signs, row, plain_row):
                worst_conj = max(worst_conj, abs(sign_i * value * sign_j - target))
    return [
        _check(
            "block-certificates",
            "parity blocks of every order's truncation match the (sign/pi) "
            "Hilbert-type blocks of block_parameters",
            worst_cert,
            tol,
        ),
        _check(
            "vanishing-parity-blocks",
            "forbidden parity blocks of the truncations are exactly zero",
            worst_cross,
            0.0,
        ),
        _check(
            "checkerboard-conjugation",
            "sign-diagonal conjugation removes the checkerboard exactly",
            worst_conj,
            0.0,
        ),
    ]


def _suite_spectral(tol):
    from . import spectral

    worst_p0 = 0.0
    worst_ph = 0.0
    for lam in (0.01, 0.1, 1.0, 4.0, 25.0):
        root = math.sqrt(lam)
        rho0 = spectral.density_rho(0.0, lam).rho
        target0 = math.sinh(math.pi * root) / math.pi
        worst_p0 = max(worst_p0, abs(rho0 - target0) / target0)
        rho_half = spectral.density_rho(0.5, lam).rho
        target_half = math.cosh(math.pi * root) / (math.pi * root)
        worst_ph = max(worst_ph, abs(rho_half - target_half) / target_half)
    grid = [0.01 * 1.5**k for k in range(30)]
    values = [spectral.multiplier_h(lam) for lam in grid]
    violation = 0.0
    for left, right in zip(values[:-1], values[1:]):
        violation = max(violation, right - left)
    violation = max(violation, max(values) - math.pi, -min(values))
    return [
        _check(
            "density-closed-form-p0",
            "density at p=0 reduces to sinh(pi sqrt(lambda))/pi (relative)",
            worst_p0,
            tol,
        ),
        _check(
            "density-closed-form-p-half",
            "density at p=1/2 reduces to cosh(pi sqrt(lambda))/(pi sqrt(lambda)) (relative)",
            worst_ph,
            tol,
        ),
        _check(
            "multiplier-bounds",
            "multiplier stays in (0, pi) and decreases along an increasing grid",
            violation,
            0.0,
        ),
    ]


_SUITES = {
    "identities": _suite_identities,
    "fourier": _suite_fourier,
    "kernels": _suite_kernels,
    "operators": _suite_operators,
    "spectral": _suite_spectral,
}


def cmd_verify(args):
    checks = _SUITES[args.suite](args.tol)
    all_pass = all(check["pass"] for check in checks)
    document = {
        "command": "verify",
        "suite": args.suite,
        "tol": args.tol,
        "checks": checks,
        "all_pass": all_pass,
    }
    _emit(_render(args.format, document, checks), args.out)
    return 0 if all_pass else 1


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text):
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _add_common(parser, default_format):
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--out", metavar="PATH", default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hankel-spectra",
        description=(
            "Kernels, truncated matrix models and spectral data for a family "
            "of Hankel integral operators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="evaluate a kernel on a point or grid")
    kernel.add_argument("--ell", type=int, required=True)
    kernel.add_argument("--x", type=_finite_float)
    kernel.add_argument("--xmin", type=_finite_float)
    kernel.add_argument("--xmax", type=_finite_float)
    kernel.add_argument("--num", type=int)
    kernel.add_argument(
        "--method", choices=("auto", "closed", "conv", "oracle"), default="auto"
    )
    _add_common(kernel, "csv")
    kernel.set_defaults(func=cmd_kernel)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", choices=sorted(_SUITES), required=True)
    verify.add_argument("--tol", type=_tolerance, default=1e-8)
    _add_common(verify, "json")
    verify.set_defaults(func=cmd_verify)

    spectrum = sub.add_parser(
        "spectrum", help="eigenvalues and diagnostics of a truncation"
    )
    spectrum.add_argument("--ell", type=int, required=True)
    spectrum.add_argument("--size", type=int, required=True)
    _add_common(spectrum, "csv")
    spectrum.set_defaults(func=cmd_spectrum)

    density = sub.add_parser(
        "density", help="spectral density and multiplier on a lambda grid"
    )
    density.add_argument("--p", type=_finite_float, required=True)
    density.add_argument("--lambda", dest="lam", type=_finite_float)
    density.add_argument("--lambda-min", dest="lam_min", type=_finite_float)
    density.add_argument("--lambda-max", dest="lam_max", type=_finite_float)
    density.add_argument("--num", type=int)
    _add_common(density, "csv")
    density.set_defaults(func=cmd_density)

    blocks = sub.add_parser("blocks", help="block decomposition certificate")
    blocks.add_argument("--ell", type=int, required=True)
    blocks.add_argument("--size", type=int, required=True)
    _add_common(blocks, "json")
    blocks.set_defaults(func=cmd_blocks)

    return parser


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv):
    """argparse reads a value such as -2e-2 as a flag (its negative-number
    pattern has no exponent), so each --flag followed by a token that
    starts with '-' and parses as a float becomes --flag=token."""
    joined = []
    for token in argv:
        previous = joined[-1] if joined else ""
        if (
            previous.startswith("--")
            and "=" not in previous
            and not "--help".startswith(previous)
            and token.startswith("-")
            and _is_float(token)
        ):
            joined[-1] = f"{previous}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except ValueError as error:
        print(f"{args.command}: configuration error: {error}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as error:
        print(f"{args.command}: numerical failure: {error}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
