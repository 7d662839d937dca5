"""Benchmark of hankel-spectra: three workloads driven through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel-table --seed 1 --seconds 20 --trace 0

Workloads: kernel-table, spectrum-sweep, cli-session (see workloads.py).
One client runs a closed loop: each operation starts when the previous
one has finished. The timed phase runs whole rounds of operations until
--seconds have passed, and at least the workload's MIN_ROUNDS; every
result is then checked outside the timed region. Every end-to-end time
is a wall time rescaled to a reference machine speed measured next to it
(speed.py); the raw figures are printed beside them. The per-layer span
times of --trace 1 are raw.

--trace 0 prints the end-to-end metrics. --trace 1 runs whole rounds
untraced for half of --seconds, replays the same operations with spans
around the package's public functions (tracer.py), and prints the
per-layer metrics and the tracing overhead. Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. ``correct`` is false when any operation fails in a
way other than the two known defects described in checks.py; those stay
counted in ``failed``.

The package is imported from src/ of the checkout and nothing is built.
Without it the benchmark exits 2 and prints no result.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CLI_COMMANDS = ("kernel", "spectrum", "blocks", "density", "verify")

PER_LAYER = {
    "specfun.e1_scaled.calls": "count",
    "specfun.e1_scaled.self_s": "s",
    "specfun.e1_scaled.cf_share": "frac",
    "specfun.sinc_derivative.calls": "count",
    "specfun.sinc_derivative.self_s": "s",
    "specfun.gamma_abs_sq.calls": "count",
    "specfun.gamma_abs_sq.self_s": "s",
    "quadrature.integrate_adaptive.calls": "count",
    "quadrature.integrate_adaptive.self_s": "s",
    "quadrature.integrate_adaptive.panels": "count",
    "quadrature.integrate_adaptive.budget_fails": "count",
    "quadrature.fourier_symbol_oracle.calls": "count",
    "quadrature.fourier_symbol_oracle.total_s": "s",
    "kernels.k_closed.calls": "count",
    "kernels.k_closed.self_s": "s",
    "kernels.k_conv.calls": "count",
    "kernels.k_conv.self_s": "s",
    "kernels.evaluate.closed_share": "frac",
    "operators.symm_eigen.calls": "count",
    "operators.symm_eigen.self_s": "s",
    "operators.symm_eigen.n3": "count",
    "operators.hankel_truncation.calls": "count",
    "operators.hankel_truncation.self_s": "s",
    "operators.spectrum_report.self_s": "s",
    "operators.hilbert_type.calls": "count",
    "operators.hilbert_type.self_s": "s",
    "operators.block_decompose.calls": "count",
    "operators.block_decompose.self_s": "s",
    "operators.block_decompose.max_dev": "1",
    "spectral.density_rho.calls": "count",
    "spectral.density_rho.self_s": "s",
    "spectral.density_rho.fails": "count",
    "spectral.multiplier_h.calls": "count",
    "cli.import_s": "s",
    **{f"cli.{command}.self_s": "s" for command in _CLI_COMMANDS},
    "trace.overhead_frac": "frac",
    "fail_frac": "frac",
}


# ---------------------------------------------------------------- set-up


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def setup_probe(name):
    """(raw seconds, speed before, speed after) of set-up in a fresh process.

    In-process workloads time the import plus the warm-up calls that fill
    the caches. The CLI probe times ``import hankel_spectra.cli``, what
    every command pays first. The probe reads the machine's speed just
    before and just after, in the same process.
    """
    if name == workloads.CliSession.name:
        work = "import hankel_spectra.cli\n"
    else:
        work = (
            "workload.bind()\n"
            "workload.warm_up()\n"
        )
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import speed, workloads\n"
        f"workload = workloads.make({name!r}, {str(SRC)!r})\n"
        "before = speed.measure()\n"
        "start = time.perf_counter()\n"
        f"{work}"
        "took = time.perf_counter() - start\n"
        "print(took, before, speed.measure())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return tuple(map(float, done.stdout.split()[-3:]))


def setup_seconds(probes):
    """(rescaled, raw) median set-up time of the probes.

    One process's speed readings are noisy, so all probes are rescaled by
    the median of all their readings.
    """
    raw = statistics.median(took for took, _, _ in probes)
    readings = [reading for _, *pair in probes for reading in pair]
    return raw * speed.REFERENCE_S / statistics.median(readings), raw


# ---------------------------------------------------------------- facts


def _blas_config(numpy):
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {key: config.get(key) for key in ("name", "version", "openblas configuration")}


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return function()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts(args):
    import numpy
    from hankel_spectra import operators

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_config(numpy),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if hasattr(operators, "JACOBI_BACKEND"):
        facts["jacobi_backend"] = operators.JACOBI_BACKEND
    return facts


# ---------------------------------------------------------------- running


def run_ops(workload, ops):
    """Run ops one after another; (records, raw wall seconds of each op).

    A record is (op, rescaled seconds, result). The machine's speed is
    measured before the first op, after the last, and whenever
    speed.INTERVAL_S has passed since the last measurement; each op's
    time is rescaled by the two measurements around it.
    """
    if workload.in_children:
        return run_commands(workload, ops)
    records = []
    raw = []
    pending = []
    before = speed.measure()
    measured_at = perf_counter()
    for index, op in enumerate(ops):
        began = perf_counter()
        try:
            result = workload.run(op)
        except Exception as error:  # a raising operation is a failed one
            result = error
        ended = perf_counter()
        pending.append((op, ended - began, result))
        if ended - measured_at >= speed.INTERVAL_S or index == len(ops) - 1:
            after = speed.measure()
            measured_at = perf_counter()
            scale = speed.factor(before, after)
            records.extend((op, took * scale, result) for op, took, result in pending)
            raw.extend(took for _, took, _ in pending)
            pending = []
            before = after
    return records, raw


def run_commands(workload, ops):
    """run_ops for commands that each run in a fresh process.

    The process reads the machine's speed itself, since it need not run
    on the parent's CPU. One reading is noisy, so every command of the
    batch is rescaled by the median of all the batch's readings; the
    seconds the readings took are not counted.
    """
    done = []
    readings = []
    for op in ops:
        began = perf_counter()
        try:
            result = workload.run(op)
        except Exception as error:  # a raising operation is a failed one
            result = error
        took = perf_counter() - began
        reading = None if isinstance(result, Exception) else result[2]
        if reading is not None:
            before, after, own = reading
            readings += [before, after]
            took -= own
        done.append((op, took, result))
    scale = speed.REFERENCE_S / statistics.median(readings) if readings else 1.0
    return [(op, took * scale, result) for op, took, result in done], [t for _, t, _ in done]


def timed_phase(workload, stream, seconds, min_rounds=1):
    """Whole rounds until `seconds` have passed and at least `min_rounds`
    have run; (records, raw op seconds, [round rates])."""
    records = []
    raw = []
    rates = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(rates) < min_rounds:
        done, took = run_ops(workload, next(stream))
        records.extend(done)
        raw.extend(took)
        rates.append(len(done) / sum(latency for _, latency, _ in done))
    return records, raw, rates


def check_records(workload, records):
    """(failed, known-defect failures, reasons of the other failures)."""
    failed = known = 0
    unexpected = []
    for op, _, result in records:
        if isinstance(result, Exception):
            reason, is_known = f"{op!r} raised {type(result).__name__}: {result}", False
        else:
            try:
                reason, is_known = workload.check(op, result)
            except Exception as error:
                reason, is_known = f"checking {op!r} raised {type(error).__name__}: {error}", False
        if reason is None:
            continue
        failed += 1
        if is_known:
            known += 1
        else:
            unexpected.append(reason)
    return failed, known, unexpected


def tail_latency(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it; fewer when the run is short."""
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def end_to_end(workload, records, raw, rates, probes, failed):
    latencies = [latency for _, latency, _ in records]
    tail, percentile, beyond = tail_latency(latencies)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup, raw_setup = setup_seconds(probes)
    metrics = {
        # the median round resists what the rescaling leaves of the
        # machine's slow spells better than the mean over the whole run
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "ok_frac": 1.0 - failed / len(records),
        "setup_s": setup,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {
        "ops_per_s": f"median of {len(rates)} rounds; raw {len(raw) / sum(raw):.4g}",
        "op_p50_ms": f"raw {1e3 * statistics.median(raw):.4g}",
        "op_tail_ms": f"p{percentile:.1f} of n={len(records)}, {beyond} samples beyond; "
        f"raw {1e3 * tail_latency(raw)[0]:.4g}",
        "ok_frac": f"fail_frac = {failed / len(records):.6g} ({failed} of {len(records)})",
        "setup_s": f"median of {len(probes)} fresh processes; raw {raw_setup:.4g}",
    }
    return metrics, notes


def per_layer(workload, stream, seconds, probes):
    """Untraced rounds for half the time, then the same operations traced."""
    workload.bind()
    workload.warm_up()
    plain, _, _ = timed_phase(workload, stream, seconds / 2.0)
    ops = [op for op, _, _ in plain]
    plain_wall = sum(latency for _, latency, _ in plain)
    spans = tracer.Tracer()
    with spans.install(tracer.package_targets(spans)):
        traced, _ = run_ops(workload, ops)
    traced_wall = sum(latency for _, latency, _ in traced)
    raw = spans.metrics()
    metrics = {name: raw.get(name, 0.0) for name in PER_LAYER}

    def share(part, whole):
        return raw.get(part, 0.0) / raw[whole] if raw.get(whole) else 0.0

    metrics["specfun.e1_scaled.cf_share"] = share(
        "specfun.e1_scaled.cf_args", "specfun.e1_scaled.calls"
    )
    metrics["kernels.evaluate.closed_share"] = share(
        "kernels.evaluate.closed_calls", "kernels.evaluate.calls"
    )
    metrics["cli.import_s"] = (
        0.0 if workload.in_process else setup_seconds(probes)[0]
    )
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = {
        "trace.overhead_frac": f"traced {traced_wall:.3f} s over untraced {plain_wall:.3f} s, "
        f"{len(ops)} operations",
    }
    if spans.absent:
        notes["absent"] = ", ".join(spans.absent)
    return traced, metrics, notes


def print_metrics(metrics, units, notes):
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {metrics[name]:>16.6g} {unit}{note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hankel_spectra" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC / 'hankel_spectra'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.make(args.workload, str(SRC))
    stream = workloads.rounds(workload, args.seed)

    probes = [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
    print("facts " + json.dumps(machine_facts(args), sort_keys=True))

    if args.trace:
        records, metrics, notes = per_layer(workload, stream, args.seconds, probes)
        failed, known, unexpected = check_records(workload, records)
        metrics["fail_frac"] = failed / len(records)
        units = PER_LAYER
    else:
        if workload.in_process:
            workload.bind()
            workload.warm_up()
        records, raw, rates = timed_phase(workload, stream, args.seconds, workload.MIN_ROUNDS)
        failed, known, unexpected = check_records(workload, records)
        metrics, notes = end_to_end(workload, records, raw, rates, probes, failed)
        units = END_TO_END

    print(f"{args.workload}: {len(records)} operations, {failed} failed "
          f"({known} from the known defects in checks.py)")
    for reason in unexpected[:10]:
        print(f"  unexpected failure: {reason}")
    print_metrics(metrics, units, notes)
    if "absent" in notes:
        print(f"  absent from the package: {notes['absent']}")
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
