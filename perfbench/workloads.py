"""The benchmark's three workloads: seeded inputs, one operation, its check.

Each workload yields its operations in rounds. A round covers the
workload's input ranges in fixed strata, which fix how much work it holds
and how many of its operations hit a known defect. The seed draws the
order of each round, where a rotation of orders and sizes from round to
round starts, and in cli-session the grids. That keeps a run's totals
close from one seed to the next without narrowing any input range.

Nothing here imports the package at module level; ``bind`` does, so that
the set-up probe can time the import.
"""

import contextlib
import io
import math
import os
import random
import subprocess
import sys

import checks

CLI_TIMEOUT_S = 120
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Runs the CLI as `python -m hankel_spectra.cli` does, between two readings
# of the machine's speed taken in the same process (speed.py). The last
# line of stderr reports them and the seconds they took.
_MEASURED_CLI = f"""\
import sys, time
sys.path.insert(0, {BENCH_DIR!r})
import speed
del sys.path[0]
start = time.perf_counter()
before = speed.measure()
own = time.perf_counter() - start
try:
    import runpy
    runpy.run_module("hankel_spectra.cli", run_name="__main__", alter_sys=True)
finally:
    start = time.perf_counter()
    after = speed.measure()
    own += time.perf_counter() - start
    print("speed", before, after, own, file=sys.stderr)
"""


def _log_midpoint(low, high, stratum, strata):
    """Log-midpoint of stratum `stratum` of `strata` equal log-width slices."""
    return low * math.exp(math.log(high / low) * (stratum + 0.5) / strata)


class KernelTable:
    """kernels.evaluate(ell, x), the way users build kernel tables.

    ell is uniform in 1..8. Nine points in ten have x spread log-uniformly
    over [0.1, 1000] and take the closed route; one in ten has x spread
    log-uniformly over [1e-3, 0.1) and takes the convolution-quadrature
    route. The two
    routes' times differ by about 20x, so op_p50_ms follows the closed
    form and op_tail_ms the quadrature.

    Every round is the same table of 80 points, the log-midpoints of 72
    closed and 8 convolution strata, in a seeded order. Whether k_closed
    misses the oracle at a point is fixed, so every round holds the same
    number of known-defect misses (12 of 80 today), and fail_frac is the
    same in every run instead of following the luck of a draw.
    """

    name = "kernel-table"
    in_process = True
    in_children = False
    MIN_ROUNDS = 1
    ORDERS = tuple(range(1, 9))
    CLOSED_X = (0.1, 1000.0)
    CONV_X = (1e-3, 0.1)

    def bind(self):
        from hankel_spectra import kernels, quadrature

        self.kernels = kernels
        self.quadrature = quadrature

    def warm_up(self):
        # the first call per order fills the lru_caches of both routes
        for ell in self.ORDERS:
            self.kernels.evaluate(ell, 1.0)
            self.kernels.evaluate(ell, 0.05)

    def round(self, rng, index):
        # 80 operations: 9 closed points and 1 convolution point per order.
        # Closed stratum k goes to order 1 + k % 8, so each order spans the
        # whole x range; convolution stratum j goes to order 1 + 3j % 8.
        # Every block of ten holds exactly one convolution point.
        closed = [(1 + k % 8, _log_midpoint(*self.CLOSED_X, k, 72)) for k in range(72)]
        conv = [(1 + 3 * j % 8, _log_midpoint(*self.CONV_X, j, 8)) for j in range(8)]
        rng.shuffle(closed)
        rng.shuffle(conv)
        ops = []
        for block in range(8):
            chunk = closed[9 * block : 9 * block + 9]
            chunk.insert(rng.randrange(10), conv[block])
            ops.extend(chunk)
        return ops

    def run(self, op):
        return self.kernels.evaluate(*op)

    def check(self, op, result):
        ell, x = op
        reference = self.quadrature.fourier_symbol_oracle(ell, x)
        reason = checks.kernel_failure(ell, x, result.value, reference)
        return reason, reason is not None and checks.kernel_known_defect(ell, x, result.route)


class SpectrumSweep:
    """operators.spectrum_report(ell, N): ell in 0..8, N from 32 to 256.

    Odd N keeps the full-matrix path measured once a block path exists.
    """

    name = "spectrum-sweep"
    in_process = True
    in_children = False
    # Four rounds hold 48 operations. The tail's rank (11th from the top)
    # then always falls on the same slot of the ladder; a run that ended
    # after three rounds on a slow machine would report a different slot.
    MIN_ROUNDS = 4
    # Odd orders run on the half-octave ladder 32 * 2^(k/2), even orders
    # on the same ladder from 64 up, less one; both hold odd and even N.
    ODD_SIZES = (32, 45, 64, 91, 128, 181, 256)
    EVEN_SIZES = (63, 90, 127, 180, 255)
    EVEN_ORDERS = (0, 2, 4, 6, 8)
    ODD_ORDERS = (1, 3, 5, 7)

    def bind(self):
        from hankel_spectra import operators

        self.operators = operators

    def warm_up(self):
        self.operators.spectrum_report(1, 33)

    def round(self, rng, index):
        # 12 operations: each odd-ladder size with an odd order and each
        # even-ladder size with an even order. An odd order costs about
        # 2.3x an even one at the same N, close to one ladder step (2x in
        # N^2), so sorted latencies come in pairs of near-equal values: an
        # odd order at N with an even one at about 1.4N. Over four rounds
        # the median (rank 24.5 of 48) falls in the middle of the (91, 127)
        # pairs and the tail (rank 11 from the top) inside the (181, 255)
        # pairs, not on a gap between two groups of pairs. The cost also
        # varies by 1.5x between orders of one parity, so the orders rotate
        # along the ladders from round to round: any four rounds in a row
        # give every odd-ladder size every odd order once.
        odd = [self.ODD_ORDERS[(i + index) % 4] for i in range(len(self.ODD_SIZES))]
        even = [self.EVEN_ORDERS[(i + index) % 5] for i in range(len(self.EVEN_SIZES))]
        ops = list(zip(odd, self.ODD_SIZES)) + list(zip(even, self.EVEN_SIZES))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        return self.operators.spectrum_report(*op)

    def check(self, op, result):
        ell, n = op
        reason = checks.spectrum_failure(ell, n, result.eigenvalues, result.containment_violation)
        return reason, False


def _num(value):
    return f"{value:.6g}"


class CliSession:
    """A seeded script of `python -m hankel_spectra.cli` commands.

    Each command runs in a fresh process, one at a time, so every one pays
    start-up as users do. One round is one pass of the script: kernel
    grids, density grids (one reaching past the sinh overflow), block
    certificates for two even orders and one odd order at size 1024 and
    one smaller, a small spectrum and every verify suite. The three
    size-1024 certificates are the slowest commands; with at least four
    passes (MIN_ROUNDS) a run holds at least eleven of them, so op_tail_ms
    is one of the even-order ones whatever the number of passes. The
    orders of the size-1024 certificates rotate from pass to pass, so any
    four passes in a row hold each odd order once. The traced run calls
    cli.main in-process instead, to attribute time to the layers.

    A command's result is (exit code, stdout, speed reading); the reading
    is (before, after, seconds taken) from the command's own process, or
    None in-process or when the process did not report one.
    """

    name = "cli-session"
    in_process = False
    MIN_ROUNDS = 4
    SUITES = ("identities", "fourier", "kernels", "operators", "spectral")
    DENSITY_P = (0.5, 0.0, -0.5, -1.5, -2.5, -3.5)

    def __init__(self, src_dir):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src_dir, *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self.cli = None

    @property
    def in_children(self):
        return self.cli is None

    def bind(self):
        # the parent only needs the package for the in-process traced run
        from hankel_spectra import cli

        self.cli = cli

    def warm_up(self):
        pass

    def round(self, rng, index):
        def grid(low, high):
            return ["--xmin", _num(low), "--xmax", _num(high)]

        # Orders and sizes, which set a command's cost, rotate from pass
        # to pass; the seed draws the grids, the density exponents and
        # the order of the pass.
        script = [
            ["kernel", "--ell", str(1 + index % 8),
             *grid(10 ** rng.uniform(-1, 0), 10 ** rng.uniform(1, 3)), "--num", "24"],
            ["kernel", "--ell", str(1 + (index + 4) % 8),
             *grid(10 ** rng.uniform(-1, 0), 10 ** rng.uniform(1, 2)), "--num", "12",
             "--method", "oracle", "--format", "json"],
            ["density", "--p", _num(rng.choice(self.DENSITY_P)),
             "--lambda-min", _num(10 ** rng.uniform(-2, 0)),
             "--lambda-max", _num(10 ** rng.uniform(2, 4)), "--num", "24"],
            ["density", "--p", _num(rng.choice(self.DENSITY_P)),
             "--lambda-min", _num(10 ** rng.uniform(-2, 0)),
             "--lambda-max", _num(10 ** rng.uniform(1, 3)), "--num", "12", "--format", "json"],
            # beyond lambda = 5e4: exits 3 until density works in log space
            ["density", "--p", _num(rng.choice(self.DENSITY_P)),
             "--lambda-min", _num(10 ** rng.uniform(3, 4)),
             "--lambda-max", _num(10 ** rng.uniform(math.log10(5e4), 6)), "--num", "16"],
            ["blocks", "--ell", str((4 * index) % 10), "--size", "1024"],
            ["blocks", "--ell", str((4 * index + 2) % 10), "--size", "1024"],
            ["blocks", "--ell", str(1 + (2 * index) % 8), "--size", "1024"],
            ["blocks", "--ell", str(index % 9), "--size", str(64 + 80 * (index % 5)),
             "--format", "csv"],
            ["spectrum", "--ell", str((5 * index) % 9), "--size", str(24 + 8 * (index % 4))],
            *(["verify", "--suite", suite] for suite in self.SUITES),
        ]
        rng.shuffle(script)
        return script

    def run(self, op):
        if self.cli is not None:
            return self._run_in_process(op)
        done = subprocess.run(
            [sys.executable, "-c", _MEASURED_CLI, *op],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        reading = None
        for line in reversed(done.stderr.splitlines()):
            if line.startswith("speed "):
                reading = tuple(map(float, line.split()[1:]))
                break
        return done.returncode, done.stdout, reading

    def _run_in_process(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(op)
            except SystemExit as stop:
                code = stop.code
        return code, out.getvalue(), None

    def check(self, op, result):
        returncode, stdout = result[:2]
        reason = checks.cli_failure(op, returncode, stdout)
        return reason, reason is not None and checks.cli_known_defect(op, returncode)


def make(name, src_dir):
    if name == KernelTable.name:
        return KernelTable()
    if name == SpectrumSweep.name:
        return SpectrumSweep()
    if name == CliSession.name:
        return CliSession(src_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (KernelTable.name, SpectrumSweep.name, CliSession.name)


def rounds(workload, seed):
    """Endless rounds of operations, the same for the same seed.

    The seed also picks where a workload's rotation of inputs from round
    to round starts.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    index = rng.randrange(60)
    while True:
        yield workload.round(rng, index)
        index += 1
