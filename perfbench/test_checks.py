"""Self-tests of the benchmark's check functions, tracer and report.

Run with: python3 -m pytest -q perfbench
"""

import io
import json
import math
import sys
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class _Evaluation:
    def __init__(self, value, route):
        self.value = value
        self.route = route


def _kernel_table(reference):
    table = workloads.KernelTable()
    table.quadrature = types.SimpleNamespace(fourier_symbol_oracle=lambda ell, x: reference)
    return table


def test_perturbed_kernel_value_counts_as_failure():
    reference = 0.123456789
    table = _kernel_table(reference)
    records = [
        ((2, 5.0), 1e-3, _Evaluation(reference, "closed")),
        ((2, 5.0), 1e-3, _Evaluation(reference + 1e-6, "closed")),
    ]
    failed, known, unexpected = run.check_records(table, records)
    assert (failed, known, len(unexpected)) == (1, 0, 1)
    assert "misses oracle" in unexpected[0]


def test_kernel_miss_in_the_known_region_is_failed_but_known():
    table = _kernel_table(5.3e-4)
    records = [((8, 1000.0), 1e-3, _Evaluation(-677.0, "closed"))]
    assert run.check_records(table, records) == (1, 1, [])
    assert not checks.kernel_known_defect(3, 1000.0, "closed")
    assert not checks.kernel_known_defect(8, 0.05, "convolution")


def test_raising_operation_counts_as_failure():
    records = [((2, 5.0), 1e-3, ArithmeticError("no convergence"))]
    failed, known, unexpected = run.check_records(_kernel_table(0.0), records)
    assert (failed, known) == (1, 0)
    assert "ArithmeticError" in unexpected[0]


def test_asymmetric_odd_order_spectrum_counts_as_failure():
    # odd orders have a zero trace, so only the symmetry check can fire
    symmetric = [-0.5, -0.1, 0.1, 0.5]
    assert checks.spectrum_failure(3, 4, symmetric, 0.0) is None
    skewed = [-0.5, -0.1, 0.1 + 1e-6, 0.5 - 1e-6]
    assert "symmetry" in checks.spectrum_failure(3, 4, skewed, 0.0)
    report = types.SimpleNamespace(eigenvalues=skewed, containment_violation=0.0)
    assert run.check_records(workloads.SpectrumSweep(), [((3, 4), 1.0, report)])[0] == 1


def test_spectrum_trace_and_containment_checks():
    n = 3
    trace = checks.truncation_trace(0, n)
    assert trace == math.fsum(checks.fourier_coefficient(2 * j + 1) for j in range(n))
    good = [trace / 3.0] * 3
    assert checks.spectrum_failure(0, n, good, 0.0) is None
    assert "trace" in checks.spectrum_failure(0, n, [v + 1e-6 for v in good], 0.0)
    assert "leaves" in checks.spectrum_failure(0, n, good, 2e-9)


def test_nonzero_exit_counts_as_failure():
    argv = ["blocks", "--ell", "3", "--size", "1024"]
    assert checks.cli_failure(argv, 3, "") is not None
    assert not checks.cli_known_defect(argv, 3)
    session = workloads.CliSession("src")
    assert run.check_records(session, [(argv, 0.3, (1, "{}"))]) == (1, 0, [checks.cli_failure(argv, 1, "{}")])


def test_density_overflow_is_the_known_cli_defect():
    beyond = ["density", "--p", "0.5", "--lambda-min", "1000", "--lambda-max", "1e5", "--num", "16"]
    below = ["density", "--p", "0.5", "--lambda-min", "1", "--lambda-max", "1000", "--num", "16"]
    assert checks.cli_known_defect(beyond, 3)
    assert not checks.cli_known_defect(below, 3)
    assert not checks.cli_known_defect(beyond, 1)


def test_cli_output_must_parse_and_be_finite():
    assert checks.output_failure("x,value\n1.0,2.5\n") is None
    assert checks.output_failure('index,eigenvalue\n0,-0.5\n{"min": -0.5}\n') is None
    assert checks.output_failure('{"rows": [{"x": 1.0}]}') is None
    assert checks.output_failure("x,value\n1.0,nan\n") is not None
    assert checks.output_failure('{"value": NaN}') is not None
    assert checks.output_failure('{"value": 1.0') is not None
    assert checks.output_failure("") is not None


def test_tail_latency_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


class _Sleeper:
    """A workload whose every op sleeps the given seconds."""

    def __init__(self, reading=None):
        self.reading = reading
        self.in_children = reading is not None

    def run(self, seconds):
        time.sleep(seconds)
        return (0, "", self.reading) if self.reading else seconds


def test_op_times_are_rescaled_by_the_speed_read_around_them(monkeypatch):
    # a machine twice as slow as the reference halves every reported time
    monkeypatch.setattr(run.speed, "measure", lambda: 2 * run.speed.REFERENCE_S)
    records, raw = run.run_ops(_Sleeper(), [0.02, 0.15, 0.01])
    for (_, scaled, _), took in zip(records, raw):
        assert math.isclose(scaled, took / 2)
    assert [op for op, _, _ in records] == [0.02, 0.15, 0.01]


def test_commands_are_rescaled_by_their_own_readings():
    reading = (4 * run.speed.REFERENCE_S, 4 * run.speed.REFERENCE_S, 0.005)
    records, raw = run.run_ops(_Sleeper(reading), [0.03, 0.03])
    for (_, scaled, _), took in zip(records, raw):
        assert math.isclose(scaled, took / 4)
        assert took >= 0.03 - 0.005 - 1e-3


def test_setup_is_rescaled_by_the_median_reading():
    ref = run.speed.REFERENCE_S
    probes = [(0.2, ref, ref), (0.4, 2 * ref, 2 * ref), (0.3, 2 * ref, 9 * ref)]
    assert run.setup_seconds(probes) == (0.15, 0.3)


def test_kernel_rounds_hold_the_same_points_for_every_seed():
    table = workloads.KernelTable()
    first = next(workloads.rounds(table, 1))
    for seed in (2, 3):
        again = next(workloads.rounds(table, seed))
        assert again != first and sorted(again) == sorted(first)


def test_tracer_self_time_and_absent_names():
    spans = tracer.Tracer()
    module = types.ModuleType("fake")
    module.inner = lambda: sum(range(1000))
    module.outer = lambda: module.inner() + module.inner()
    targets = [
        (module, "outer", lambda fn: spans.span("fake.outer", fn)),
        (module, "inner", lambda fn: spans.leaf("fake.inner", fn)),
        (module, "removed", lambda fn: spans.span("fake.removed", fn)),
    ]
    original = module.outer
    with spans.install(targets):
        module.outer()
    assert module.outer is original
    assert spans.absent == ["fake.removed"]
    metrics = spans.metrics()
    assert metrics["fake.outer.calls"] == 1
    assert metrics["fake.inner.calls"] == 2
    total = metrics["fake.outer.total_s"]
    assert math.isclose(metrics["fake.outer.self_s"] + metrics["fake.inner.self_s"], total)


def test_cf_region_matches_the_documented_split():
    assert not tracer.in_cf_region(3.0)
    assert not tracer.in_cf_region(complex(-8.0, 8.0))
    assert not tracer.in_cf_region(complex(-20.0, 1.0))
    assert tracer.in_cf_region(complex(20.0, 20.0))


def test_every_metric_is_printed_with_name_and_unit():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for units in (run.END_TO_END, run.PER_LAYER):
        out = io.StringIO()
        with redirect_stdout(out):
            run.print_metrics({name: 1.5 for name in units}, units, {})
        lines = out.getvalue().splitlines()
        assert len(lines) == len(units)
        for line, (name, unit) in zip(lines, units.items()):
            assert line.split() == [name, "1.5", unit]


def test_rounds_repeat_for_a_seed():
    for name in workloads.NAMES:
        workload = workloads.make(name, "src")
        first = next(workloads.rounds(workload, 7))
        assert first == next(workloads.rounds(workload, 7))
        assert first != next(workloads.rounds(workload, 8))


def test_kernel_round_keeps_the_conv_share_and_ranges():
    ops = workloads.KernelTable().round(__import__("random").Random(3), 0)
    conv = [x for _, x in ops if x < 0.1]
    assert len(ops) == 80 and len(conv) == 8
    assert all(1e-3 <= x < 0.1 for x in conv)
    assert all(0.1 <= x <= 1000.0 for _, x in ops if x >= 0.1)
    assert sorted({ell for ell, _ in ops}) == list(range(1, 9))


def test_spectrum_round_covers_the_size_ladder():
    sweep = workloads.SpectrumSweep()
    rounds = [sweep.round(__import__("random").Random(3), index) for index in range(4)]
    for ops in rounds:
        assert len(ops) == 12
        assert sorted(n for ell, n in ops if ell % 2) == list(sweep.ODD_SIZES)
        assert sorted(n for ell, n in ops if ell % 2 == 0) == list(sweep.EVEN_SIZES)
        assert {n % 2 for ell, n in ops if ell % 2} == {n % 2 for ell, n in ops if ell % 2 == 0} == {0, 1}
    # any four rounds in a row give each odd-ladder size every odd order
    for size in sweep.ODD_SIZES:
        assert sorted(ell for ops in rounds for ell, n in ops if n == size and ell % 2) == [1, 3, 5, 7]
