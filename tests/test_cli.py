import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hankel_spectra import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_kernel_single_point_csv(capsys):
    code, out = run_cli(capsys, "kernel", "--ell", "0", "--x", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value,route,error_estimate"
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[1]) == pytest.approx(2.0 / math.pi * math.sin(1.0), rel=1e-14)


def test_kernel_grid_json(capsys):
    code, out = run_cli(
        capsys, "kernel", "--ell", "2", "--xmin", "0.5", "--xmax", "2.0",
        "--num", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "kernel"
    assert payload["ell"] == 2
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["x"] == 0.5
    assert payload["rows"][-1]["x"] == 2.0
    for row in payload["rows"]:
        assert row["route"] == "closed"
        assert math.isfinite(row["value"])


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--ell", "1", "--xmin", "0.1", "--xmax", "1000", "--num", "24"),
        ("density", "--p", "0.5", "--lambda-min", "0.1", "--lambda-max", "1000",
         "--num", "24"),
    ],
)
def test_grid_ends_exactly_at_its_upper_flag(capsys, argv):
    # 0.1 + 23 * ((1000 - 0.1) / 23) rounds to 1000.0000000000001
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 24
    assert float(rows[0].split(",")[0]) == 0.1
    assert float(rows[-1].split(",")[0]) == 1000.0


def test_kernel_rejects_bad_order(capsys):
    code, out = run_cli(capsys, "kernel", "--ell", "9", "--x", "1.0")
    assert code == 2


def test_kernel_rejects_empty_grid(capsys):
    code, _ = run_cli(capsys, "kernel", "--ell", "1", "--xmin", "2.0", "--xmax", "1.0", "--num", "4")
    assert code == 2


def test_density_row_values(capsys):
    code, out = run_cli(capsys, "density", "--p", "0.5", "--lambda", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,rho,h,log_rho"
    cells = [float(c) for c in lines[1].split(",")]
    assert cells[0] == 1.0
    assert cells[1] == pytest.approx(math.cosh(math.pi) / math.pi, rel=1e-13)
    assert cells[2] == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-13)
    assert cells[3] == pytest.approx(math.log(cells[1]), rel=1e-13)


def _log_rho_reference(p, lam):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        y = mpmath.sqrt(mpmath.mpf(lam))
        log_gamma = mpmath.re(mpmath.loggamma(mpmath.mpf(0.5) - p - 1j * y))
        return float(
            mpmath.log(mpmath.sinh(2 * mpmath.pi * y))
            + 2 * log_gamma
            - mpmath.log(2 * mpmath.pi**2)
        )


@pytest.mark.parametrize("lam", ["1e5", "1e300"])
def test_density_past_the_sinh_overflow_reports_log_rho(capsys, lam):
    code, out = run_cli(capsys, "density", "--p", "0", "--lambda", lam)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "lambda,rho,h,log_rho"
    _, rho_cell, h_cell, log_rho_cell = row.split(",")
    assert rho_cell == ""
    assert float(h_cell) == 0.0
    assert float(log_rho_cell) == pytest.approx(_log_rho_reference(0.0, float(lam)), rel=1e-12)
    code, out = run_cli(capsys, "density", "--p", "0", "--lambda", lam, "--format", "json")
    assert code == 0
    (entry,) = json.loads(out)["rows"]
    assert entry["rho"] is None
    assert entry["log_rho"] == float(log_rho_cell)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lam", ["1e-309", "5e-324"])
def test_density_past_the_gamma_overflow_prints_a_finite_rho(capsys, lam, fmt):
    # |Gamma(-i sqrt(lambda))|^2 overflows here; rho, about 1e154, does not
    code, out = run_cli(capsys, "density", "--p", "0.5", "--lambda", lam, "--format", fmt)
    assert code == 0
    if fmt == "json":
        (entry,) = json.loads(out)["rows"]
        rho, log_rho = entry["rho"], entry["log_rho"]
    else:
        _, rho, _, log_rho = map(float, out.splitlines()[1].split(","))
    assert math.isfinite(rho)
    assert rho == pytest.approx(math.exp(log_rho), rel=1e-13)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_log_rho_overflow_is_a_numerical_failure(capsys, fmt):
    code, out = run_cli(capsys, "density", "--p", "-1e306", "--lambda", "1", "--format", fmt)
    assert code == 3
    assert out == ""
    # log_rho = 1.6835e308 is still a double
    code, out = run_cli(capsys, "density", "--p", "-1.2e305", "--lambda", "1", "--format", fmt)
    assert code == 0
    assert "1.6835" in out


def test_density_rejects_large_p(capsys):
    code, _ = run_cli(capsys, "density", "--p", "0.75", "--lambda", "1.0")
    assert code == 2


def test_spectrum_json_small(capsys):
    code, out = run_cli(capsys, "spectrum", "--ell", "0", "--size", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    values = sorted(payload["eigenvalues"])
    assert values[0] == pytest.approx(-2.0 / (3.0 * math.pi), abs=1e-14)
    assert values[1] == pytest.approx(2.0 / math.pi, abs=1e-14)
    assert payload["containment_violation"] == 0.0


def test_spectrum_csv_has_table_and_summary(capsys):
    code, out = run_cli(capsys, "spectrum", "--ell", "1", "--size", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    data_rows = [l for l in lines if l and l.split(",")[0].isdigit()]
    assert len(data_rows) == 8
    assert "containment_violation" in lines[-1]


def test_spectrum_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "spectrum.csv"
    code, out = run_cli(
        capsys, "spectrum", "--ell", "0", "--size", "4", "--out", str(target)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["size"] == 4
    text = target.read_text()
    assert text.startswith("index,eigenvalue")
    assert len(text.strip().splitlines()) == 5
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".partial-")]
    assert leftovers == []


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_out_file_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    target = tmp_path / "kernel.csv"
    previous = os.umask(umask)
    try:
        code, _ = run_cli(capsys, "kernel", "--ell", "1", "--x", "1.0", "--out", str(target))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_spectrum_rejects_oversized_request(capsys):
    # the cap is 4096; the request fails before any matrix is built
    code, out = run_cli(capsys, "spectrum", "--ell", "0", "--size", "4097")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_prints_no_negative_zero(capsys, fmt):
    # odd order at even N negates U's spectrum, exact zeros included
    code, out = run_cli(capsys, "spectrum", "--ell", "1", "--size", "128", "--format", fmt)
    assert code == 0
    assert re.search(r"(?<![-\d.])0\.0(?!\d)", out)
    assert not re.search(r"-0\.0(?!\d)", out)


def test_spectrum_of_an_indefinite_block_exits_three(monkeypatch, capsys):
    from hankel_spectra import operators, spectral

    def flipped(ell, n):
        values = spectral.truncation_values(ell, n)
        values[21] = -values[21]
        return values

    monkeypatch.setattr(operators, "truncation_values", flipped)
    # at odd size the (k + 1) x k block U passes the same guard
    for size in ("64", "63"):
        code = cli.main(["spectrum", "--ell", "3", "--size", size])
        captured = capsys.readouterr()
        assert code == 3, size
        assert captured.out == "", size
        assert "not positive semidefinite" in captured.err, size


@pytest.mark.parametrize(
    "ell, size",
    [
        pytest.param(0, 4096, id="0"),
        pytest.param(3, 4096, id="3"),
        pytest.param(1, 4095, id="1-4095"),
        pytest.param(3, 4095, id="3-4095"),
    ],
)
def test_spectrum_at_the_size_cap_runs_in_seconds(ell, size):
    result = _run_module("spectrum", "--ell", str(ell), "--size", str(size))
    assert result.returncode == 0
    rows = result.stdout.splitlines()[1:-1]
    assert len(rows) == size
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


def _run_module(*argv):
    """``python -m hankel_spectra`` with these arguments in a fresh
    process, reading the package from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hankel_spectra", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_odd_order_at_odd_size_prints_an_exactly_symmetric_spectrum(fmt):
    # ell 7 at N = 181 reads +/- the singular values of the 91 x 90 block U
    argv = ("spectrum", "--ell", "7", "--size", "181", "--format", fmt)
    first, second = (_run_module(*argv) for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    if fmt == "json":
        texts = re.findall(r"^    (\S+?),?$", first.stdout, re.MULTILINE)
        assert json.loads(first.stdout)["eigenvalues"] == [float(text) for text in texts]
    else:
        texts = [row.split(",")[1] for row in first.stdout.splitlines()[1:-1]]
    assert len(texts) == 181 and texts[90] == "0.0"
    assert "-0.0" not in texts
    values = [float(text) for text in texts]
    assert values == sorted(values) and values == [0.0 - v for v in reversed(values)]


def test_blocks_applies_the_size_cap_to_twice_the_size(capsys):
    # the certificate reads the size-2N truncation, so blocks stops at 2048
    code, _ = run_cli(capsys, "blocks", "--ell", "2", "--size", "2048")
    assert code == 0
    code, out = run_cli(capsys, "blocks", "--ell", "2", "--size", "2049")
    assert code == 2
    assert out == ""


def test_blocks_even_payload(capsys):
    code, out = run_cli(capsys, "blocks", "--ell", "4", "--size", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["parity"] == "even"
    assert payload["m"] == 2
    assert payload["max_abs_deviation"] <= 1e-13
    assert payload["cross_block_max"] == 0.0


def test_blocks_odd_payload(capsys):
    code, out = run_cli(capsys, "blocks", "--ell", "3", "--size", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["parity"] == "odd"
    assert payload["m"] == 1


def test_blocks_rejects_out_of_range_order(capsys):
    code, _ = run_cli(capsys, "blocks", "--ell", "9", "--size", "16")
    assert code == 2


@pytest.mark.parametrize(
    "suite", ["identities", "fourier", "kernels", "operators", "spectral"]
)
def test_verify_suites_pass(capsys, suite):
    code, out = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["checks"]
    for check in payload["checks"]:
        assert check["pass"] is True
        assert "measured" in check and "threshold" in check


def test_verify_operators_at_tight_tolerance(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "operators", "--tol", "1e-13")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_accepts_zero_tolerance(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "identities", "--tol", "0")
    assert code == 0
    assert json.loads(out)["tol"] == 0.0


def test_verify_operators_certifies_every_order(capsys, monkeypatch):
    from hankel_spectra import spectral

    certified = []
    certify = spectral.block_certificate

    def spy(ell, n):
        certified.append(ell)
        return certify(ell, n)

    monkeypatch.setattr(spectral, "block_certificate", spy)
    code, _ = run_cli(capsys, "verify", "--suite", "operators")
    assert code == 0
    assert certified == list(range(9))


def test_verify_operators_checks_the_package_checkerboard(capsys, monkeypatch):
    from hankel_spectra import operators

    code, out = run_cli(capsys, "verify", "--suite", "operators")
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    assert code == 0
    assert checks["checkerboard-conjugation"]["measured"] == 0.0
    build = operators.hilbert_type

    def no_flip(p, n, alternating):
        return build(p, n, False)

    monkeypatch.setattr(operators, "hilbert_type", no_flip)
    code, out = run_cli(capsys, "verify", "--suite", "operators")
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    assert code == 1
    assert checks["checkerboard-conjugation"]["pass"] is False
    assert checks["checkerboard-conjugation"]["measured"] > 0.0


def test_verify_operators_statements_are_pinned(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "operators")
    assert code == 0
    statements = {check["name"]: check["statement"] for check in json.loads(out)["checks"]}
    assert statements["block-certificates"] == (
        "parity blocks of every order's truncation match the (sign/pi) "
        "Hilbert-type blocks of block_parameters"
    )
    assert not any("descriptor" in statement for statement in statements.values())


def test_verify_unreachable_tolerance_fails(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "fourier", "--tol", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    assert any(not check["pass"] for check in payload["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--ell", "1", "--x", "nan"),
        ("kernel", "--ell", "1", "--xmin", "-inf", "--xmax", "1.0", "--num", "3"),
        ("density", "--p", "nan", "--lambda", "1"),
        ("density", "--p", "0", "--lambda", "inf"),
        ("density", "--p", "0", "--lambda-min", "0.1", "--lambda-max", "nan", "--num", "3"),
        ("verify", "--suite", "operators", "--tol", "nan"),
        ("verify", "--suite", "fourier", "--tol", "-1"),
        ("verify", "--suite", "identities", "--tol", "-1"),
        ("kernel", "--ell", "1", "--x", "-inf"),
    ],
)
def test_non_finite_float_flags_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (("kernel", "--ell", "2", "--x", "-2e-2"), ("kernel", "--ell", "2", "--x=-2e-2")),
        (
            ("kernel", "--ell", "1", "--xmin", "-1e-3", "--xmax", "1e-1", "--num", "3"),
            ("kernel", "--ell", "1", "--xmin=-1e-3", "--xmax", "1e-1", "--num", "3"),
        ),
        (("density", "--p", "-1e-3", "--lambda", "2"), ("density", "--p=-1e-3", "--lambda", "2")),
    ],
    ids=["kernel-x", "kernel-xmin", "density-p"],
)
def test_negative_values_in_exponent_notation_are_values(capsys, spaced, joined):
    # argparse's negative-number pattern has no exponent, so it would
    # read -2e-2 as a flag
    code, out = run_cli(capsys, *spaced)
    assert code == 0
    assert out
    assert run_cli(capsys, *joined) == (0, out)


def test_numerical_failure_maps_to_exit_three(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ArithmeticError("synthetic loss of convergence")

    monkeypatch.setattr("hankel_spectra.kernels.evaluate", explode)
    code, _ = run_cli(capsys, "kernel", "--ell", "1", "--x", "1.0")
    assert code == 3


@pytest.mark.parametrize("x, want", [("0", 0), ("5e-4", 0), ("-5", 2)])
def test_closed_kernel_serves_every_x_from_zero(capsys, x, want):
    code = cli.main(["kernel", "--ell", "5", "--method", "closed", "--x", x])
    captured = capsys.readouterr()
    assert code == want
    if want:
        assert captured.out == "" and "X_MIN_CLOSED = 0.0" in captured.err
    else:
        row = list(csv.DictReader(io.StringIO(captured.out)))[0]
        assert row["route"] == "closed" and math.isfinite(float(row["value"]))


def test_oracle_panel_budget_is_a_numerical_failure(capsys):
    # a valid x whose oscillation needs more seed panels than the budget
    code = cli.main(["kernel", "--ell", "1", "--x", "1e5", "--method", "oracle"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "63662 seed panels exceed max_panels = 10000" in captured.err


def test_eigensolver_iteration_cap_maps_to_exit_three(capsys, monkeypatch):
    monkeypatch.setattr("hankel_spectra.operators._QL_MAX_ITERATIONS", 0)
    # order 1 at odd size solves a Golub-Kahan chain, no matrix of rows
    for ell, size in (("0", "8"), ("1", "9")):
        code = cli.main(["spectrum", "--ell", ell, "--size", size])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "did not converge in 0 iterations" in captured.err
        assert "symm_eigen" not in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ell, x", [("8", "1e100"), ("4", "1e155")])
def test_kernel_overflow_is_a_numerical_failure(capsys, ell, x, fmt):
    # CSV printed -inf or an inf estimate with exit 0, JSON exited 2
    code, out = run_cli(capsys, "kernel", "--ell", ell, "--x", x, "--format", fmt)
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "ell, x",
    [(ell, "1e67") for ell in range(1, 8)]
    + [(ell, x) for x in ("1e142", "1e157") for ell in (1, 2, 3)],
)
def test_closed_kernel_at_huge_x_prints_a_value_or_reports_overflow(capsys, ell, x):
    # these points used to exhaust the e1 continued fraction (exit 3)
    code = cli.main(["kernel", "--ell", str(ell), "--method", "closed", "--x", x])
    captured = capsys.readouterr()
    if code == 0:
        row = list(csv.DictReader(io.StringIO(captured.out)))[0]
        assert math.isfinite(float(row["value"]))
    else:
        assert code == 3
        assert captured.out == ""
        assert "overflows" in captured.err and "continued fraction" not in captured.err


def _reject_constant(name):
    raise ValueError(f"JSON output holds {name}")


_DENSITY_ARGV = st.builds(
    lambda p, lam: ("density", "--p", repr(p), "--lambda", repr(lam)),
    st.floats(max_value=0.5, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
_KERNEL_ARGV = st.builds(
    lambda ell, x: ("kernel", "--ell", str(ell), "--method", "closed", "--x", repr(x)),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.0, max_value=1e308),
)


@given(argv=st.one_of(_DENSITY_ARGV, _KERNEL_ARGV))
@example(argv=("density", "--p", "0.5", "--lambda", "5e-324"))
@example(argv=("density", "--p", "0.5", "--lambda", "1e-309"))
@example(argv=("density", "--p", "-1e306", "--lambda", "1.0"))
@example(argv=("density", "--p", "-1.7976931348623157e308", "--lambda", "1e308"))
@example(argv=("density", "--p", "0.5", "--lambda", "1.7976931348623157e308"))
@example(argv=("kernel", "--ell", "8", "--method", "closed", "--x", "1e308"))
@settings(max_examples=400, deadline=None)
def test_float_flags_print_finite_values_or_fail_cleanly(argv):
    # exit 0 with finite numbers, or exit 2 or 3 with nothing on stdout
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main([*argv, "--format", fmt])
        text = out.getvalue()
        assert code in (0, 2, 3), (argv, fmt, code)
        if code:
            assert text == "", (argv, fmt)
        elif fmt == "json":
            json.loads(text, parse_constant=_reject_constant)
        else:
            cells = {cell.lower() for row in csv.reader(io.StringIO(text)) for cell in row}
            assert not cells & {"inf", "-inf", "nan"}, (argv, text)


def test_output_is_byte_deterministic(capsys):
    _, first = run_cli(capsys, "kernel", "--ell", "3", "--xmin", "0.2", "--xmax", "9.0", "--num", "7")
    _, second = run_cli(capsys, "kernel", "--ell", "3", "--xmin", "0.2", "--xmax", "9.0", "--num", "7")
    assert first == second


_SUMMARY_KEYS = [
    "command", "ell", "size", "min", "max", "containment_violation", "coverage_gap",
]


@pytest.mark.parametrize(
    "argv, header, keys",
    [
        (("kernel", "--ell", "1", "--x", "1.0"), "x,value,route,error_estimate",
         ["command", "ell", "method", "rows"]),
        (("density", "--p", "0", "--lambda", "2.0"), "lambda,rho,h,log_rho",
         ["command", "p", "rows"]),
        (("blocks", "--ell", "3", "--size", "8"),
         "command,ell,parity,m,size,max_abs_deviation,cross_block_max",
         ["command", "ell", "parity", "m", "size", "max_abs_deviation", "cross_block_max"]),
        (("verify", "--suite", "identities"), "name,statement,measured,threshold,pass",
         ["command", "suite", "tol", "checks", "all_pass"]),
        (("spectrum", "--ell", "1", "--size", "4"), "index,eigenvalue",
         [*_SUMMARY_KEYS, "eigenvalues"]),
    ],
    ids=["kernel", "density", "blocks", "verify", "spectrum"],
)
def test_output_layout_is_pinned(capsys, argv, header, keys):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    if argv[0] == "spectrum":
        assert list(json.loads(lines[-1])) == _SUMMARY_KEYS
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == keys


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_out_layout_is_pinned(tmp_path, capsys, fmt):
    target = tmp_path / f"spectrum.{fmt}"
    code, out = run_cli(
        capsys, "spectrum", "--ell", "2", "--size", "5", "--format", fmt, "--out", str(target)
    )
    assert code == 0
    assert list(json.loads(out)) == _SUMMARY_KEYS
    text = target.read_text()
    if fmt == "csv":
        assert text.splitlines()[0] == "index,eigenvalue"
    else:
        assert list(json.loads(text)) == [*_SUMMARY_KEYS, "eigenvalues"]


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--ell", "1", "--x", "1.0"),
        ("spectrum", "--ell", "1", "--size", "4"),
        ("verify", "--suite", "identities"),
    ],
    ids=["kernel", "spectrum", "verify"],
)
def test_unwritable_out_is_a_configuration_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code = cli.main([*argv, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"cannot write {target}" in captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--x", "1.0"),
        ("density", "--lambda", "1.0"),
        ("spectrum", "--ell", "1"),
        ("spectrum", "--size", "4"),
        ("blocks", "--ell", "1"),
        ("blocks", "--size", "4"),
        ("verify",),
    ],
)
def test_missing_required_flag_exits_two(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "hankel_spectra", *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 2
    assert result.stdout == ""


def test_console_script_runs():
    result = subprocess.run(
        ["hankel-spectra", "density", "--p", "0.0", "--lambda", "4.0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("lambda,rho,h")


def test_console_script_bad_flag_exits_two():
    result = subprocess.run(
        ["hankel-spectra", "density", "--nonsense"], capture_output=True, text=True
    )
    assert result.returncode == 2


def test_module_runs_without_installation():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "hankel_spectra", "density", "--p", "0.0", "--lambda", "4.0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("lambda,rho,h")


_NUMPY_FREE_START = """
import contextlib, io, sys
# site may have loaded these; the CLI must not
for name in ("tempfile", "dataclasses", "inspect", "fractions"):
    sys.modules.pop(name, None)

def loaded():
    return {m for m in sys.modules if m.startswith("hankel_spectra")}

import hankel_spectra
assert loaded() == {"hankel_spectra"}, loaded()
from hankel_spectra import cli
assert loaded() == {"hankel_spectra", "hankel_spectra.cli"}, loaded()
assert "tempfile" not in sys.modules, "importing the CLI loaded tempfile"

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

# the command named on the command line runs first, in a process that has
# loaded no other package module
if sys.argv[1] == "density":
    run("density", "--p", "-0.5", "--lambda-min", "0.1", "--lambda-max", "25", "--num", "4")
    unused = {"kernels", "quadrature", "combinatorics", "operators"}
elif sys.argv[1] == "spectrum":
    run("spectrum", "--ell", "1", "--size", "33")
    unused = {"kernels", "quadrature", "combinatorics"}
elif sys.argv[1] == "blocks":
    run("blocks", "--ell", "3", "--size", "8")
    unused = {"kernels", "quadrature", "combinatorics", "operators"}
else:
    run("verify", "--suite", "identities")
    unused = {"kernels", "quadrature", "spectral"}
assert not loaded() & {"hankel_spectra." + m for m in unused}, (sys.argv[1], loaded())
if sys.argv[1] != "identities":
    stdlib = {"dataclasses", "inspect", "fractions"} & set(sys.modules)
    assert not stdlib, (sys.argv[1], stdlib)
run("kernel", "--ell", "2", "--xmin", "0.05", "--xmax", "5", "--num", "4")
run("density", "--p", "-0.5", "--lambda-min", "0.1", "--lambda-max", "25", "--num", "4")
for suite in ("identities", "fourier", "kernels", "spectral", "operators"):
    run("verify", "--suite", suite)
run("blocks", "--ell", "2", "--size", "8", "--format", "csv")
run("spectrum", "--ell", "2", "--size", "8", "--format", "json")
assert "numpy" not in sys.modules, "a command imported numpy"
stdlib = {"dataclasses", "inspect"} & set(sys.modules)
assert not stdlib, f"a command imported {stdlib}"
"""


def test_every_command_runs_without_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for first in ("density", "blocks", "identities", "spectrum"):
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_START, first],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr


_OPERATORS_IMPORT = """
import sys
import hankel_spectra.operators as op
op.spectrum_report(3, 16)
op.symm_eigen([[1.0, 2.0], [2.0, 1.0]])
for entries in (op.hankel_truncation(2, 5).entries, op.hilbert_type(-0.5, 5, True).entries):
    assert type(entries) is tuple and len(entries) == 5
    assert all(type(row) is tuple and len(row) == 5 for row in entries)
    op.symm_eigen(entries)
op.alternating_signs(5)
assert "numpy" not in sys.modules, "operators loaded numpy"
"""


def test_operators_never_loads_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _OPERATORS_IMPORT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
