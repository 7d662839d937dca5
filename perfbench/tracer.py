"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced public name, in the module where
its caller looks it up, with a wrapper that records a span, and puts the
originals back on exit. Every span stores its parent, so a layer's self
time is its duration minus what its children cover. The two hottest
leaves (``e1_scaled`` and ``sinc_derivative``, hundreds of calls per
kernel value) get no span each; their count and time are added up per
parent span instead.

A name the package does not define (for instance after a refactor
removes it) is reported as absent and left alone.
"""

import cmath
import contextlib
import functools
import math
from collections import defaultdict
from time import perf_counter

# The series/continued-fraction split documented in specfun: the series
# serves |z| <= 4, Re z <= 0 with |z| <= 12, and |arg z| > 5 pi / 6.
_SERIES_RADIUS_POS = 4.0
_SERIES_RADIUS = 12.0
_WIDE_ARG = 5.0 * math.pi / 6.0

_EVALS_PER_PANEL = 15


def in_cf_region(z):
    """True when specfun evaluates E1(z) by its continued fraction."""
    z = complex(z)
    if abs(z) <= _SERIES_RADIUS_POS:
        return False
    if z.real <= 0.0 and abs(z) <= _SERIES_RADIUS:
        return False
    return abs(cmath.phase(z)) <= _WIDE_ARG


class Span:
    __slots__ = ("name", "parent", "seconds", "child_seconds")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.seconds = 0.0
        self.child_seconds = 0.0


class Tracer:
    """In-memory spans, per-parent leaf totals and counters of one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [calls, s]
        self.counters = defaultdict(float)
        self.absent = []

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(tracer, args, result_or_error) records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = Span(name(args) if callable(name) else name,
                          self.stack[-1] if self.stack else None)
            self.spans.append(record)
            self.stack.append(record)
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as error:
                outcome = error
                raise
            finally:
                record.seconds = perf_counter() - start
                self.stack.pop()
                if record.parent is not None:
                    record.parent.child_seconds += record.seconds
                if after is not None:
                    after(self, args, outcome)

        return wrapper

    def leaf(self, name, fn, before=None):
        """Wrap a hot leaf: count and time it against the enclosing span."""

        @functools.wraps(fn)
        def wrapper(*args):
            if before is not None:
                before(self, args)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds = perf_counter() - start
                parent = self.stack[-1] if self.stack else None
                bucket = self.leaves[(id(parent), name)]
                bucket[0] += 1
                bucket[1] += seconds
                if parent is not None:
                    parent.child_seconds += seconds

        return wrapper

    @contextlib.contextmanager
    def install(self, targets):
        """Patch [(module, attribute, wrap)] in place, restoring on exit."""
        saved = []
        try:
            for module, attribute, wrap in targets:
                original = getattr(module, attribute, None)
                if original is None:
                    self.absent.append(f"{module.__name__}.{attribute}")
                    continue
                saved.append((module, attribute, original))
                setattr(module, attribute, wrap(original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def metrics(self):
        """Calls, self time and total time per span name, plus leaves and counters."""
        out = defaultdict(float)
        for record in self.spans:
            out[f"{record.name}.calls"] += 1
            out[f"{record.name}.self_s"] += record.seconds - record.child_seconds
            out[f"{record.name}.total_s"] += record.seconds
        for (_, name), (calls, seconds) in self.leaves.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += seconds
        out.update(self.counters)
        return dict(out)


def _count_cf(tracer, args):
    tracer.counters["specfun.e1_scaled.cf_args"] += in_cf_region(args[0])


def _after_integrate(tracer, args, outcome):
    if isinstance(outcome, Exception):
        budget = type(outcome).__name__ == "QuadratureBudgetError"
        tracer.counters["quadrature.integrate_adaptive.budget_fails"] += budget
    else:
        tracer.counters["quadrature.integrate_adaptive.panels"] += (
            outcome.evaluations / _EVALS_PER_PANEL
        )


def _after_evaluate(tracer, args, outcome):
    if not isinstance(outcome, Exception):
        tracer.counters["kernels.evaluate.closed_calls"] += outcome.route == "closed"


def _after_eigen(tracer, args, outcome):
    n = len(args[0])
    tracer.counters["operators.symm_eigen.n3"] += float(n) ** 3


def _after_blocks(tracer, args, outcome):
    if not isinstance(outcome, Exception):
        key = "operators.block_decompose.max_dev"
        tracer.counters[key] = max(tracer.counters[key], outcome.max_abs_deviation)


def _after_density(tracer, args, outcome):
    if isinstance(outcome, Exception):
        tracer.counters["spectral.density_rho.fails"] += 1


def _cli_span_name(args):
    return f"cli.{args[0][0]}"  # cli.main(argv) -> cli.<subcommand>


def package_targets(tracer):
    """The traced names, each patched where its callers look it up."""
    from hankel_spectra import cli, kernels, operators, quadrature, spectral, specfun

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def leaf(name, before=None):
        return lambda fn: tracer.leaf(name, fn, before)

    e1 = leaf("specfun.e1_scaled", _count_cf)
    return [
        (kernels, "e1_scaled", e1),
        (specfun, "e1_scaled", e1),
        (kernels, "sinc_derivative", leaf("specfun.sinc_derivative")),
        (spectral, "gamma_abs_sq", leaf("specfun.gamma_abs_sq")),
        (quadrature, "integrate_adaptive",
         span("quadrature.integrate_adaptive", _after_integrate)),
        (quadrature, "fourier_symbol_oracle", span("quadrature.fourier_symbol_oracle")),
        (kernels, "evaluate", span("kernels.evaluate", _after_evaluate)),
        (kernels, "k_closed", span("kernels.k_closed")),
        (kernels, "k_conv", span("kernels.k_conv")),
        (operators, "symm_eigen", span("operators.symm_eigen", _after_eigen)),
        (operators, "hankel_truncation", span("operators.hankel_truncation")),
        (operators, "spectrum_report", span("operators.spectrum_report")),
        (operators, "hilbert_type", span("operators.hilbert_type")),
        (operators, "block_decompose_even", span("operators.block_decompose", _after_blocks)),
        (operators, "block_decompose_odd", span("operators.block_decompose", _after_blocks)),
        (spectral, "density_rho", span("spectral.density_rho", _after_density)),
        (spectral, "multiplier_h", leaf("spectral.multiplier_h")),
        (cli, "main", span(_cli_span_name)),
    ]
