import math
import pickle
import sys

import pytest

from hankel_spectra.spectral import (
    BlockCertificate,
    SpectralDensityPoint,
    block_certificate,
    density_rho,
    multiplier_h,
)


def test_multiplier_frozen_value_and_monotonicity():
    assert multiplier_h(1.0) == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-15)
    grid = [0.01, 0.1, 1.0, 4.0, 25.0]
    values = [multiplier_h(lam) for lam in grid]
    for left, right in zip(values, values[1:]):
        assert left > right
    assert all(0.0 < v < math.pi for v in values)


def test_multiplier_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        multiplier_h(0.0)
    with pytest.raises(ValueError):
        multiplier_h(-1.0)


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0, 4.0, 25.0])
def test_density_elementary_closed_forms(lam):
    root = math.sqrt(lam)
    assert density_rho(0.0, lam).rho == pytest.approx(math.sinh(math.pi * root) / math.pi, rel=1e-12)
    assert density_rho(0.5, lam).rho == pytest.approx(
        math.cosh(math.pi * root) / (math.pi * root), rel=1e-12
    )
    assert density_rho(-0.5, lam).rho == pytest.approx(
        root * math.cosh(math.pi * root) / math.pi, rel=1e-12
    )


def test_density_via_gamma_recurrence():
    # |Gamma(2-i)|^2 = 2 |Gamma(1-i)|^2 collapses rho at p = -3/2 to an
    # elementary hyperbolic expression.
    assert density_rho(-1.5, 1.0).rho == pytest.approx(2.0 * math.cosh(math.pi) / math.pi, rel=1e-13)


def test_density_times_multiplier_is_tanh():
    for lam in (0.04, 0.25, 1.0, 9.0):
        product = multiplier_h(lam) * density_rho(0.0, lam).rho
        assert product == pytest.approx(math.tanh(math.pi * math.sqrt(lam)), rel=1e-12)
        assert 0.0 < product < 1.0


def test_density_point_record():
    point = density_rho(0.5, 2.0)
    assert isinstance(point, SpectralDensityPoint)
    assert point.p == 0.5
    assert point.lam == 2.0
    assert point.rho > 0.0


@pytest.mark.parametrize("p", [0.5, 0.0, -0.5, -1.5, -3.5])
def test_log_density_matches_the_linear_value_below_the_overflow(p):
    for lam in (1e-6, 0.01, 1.0, 100.0, 1e4, 12700.0):
        point = density_rho(p, lam)
        assert point.log_rho == pytest.approx(math.log(point.rho), abs=1e-13 * max(1.0, abs(point.log_rho)))


def test_density_rho_is_none_past_the_sinh_overflow():
    # the sinh factor overflows at 1.28e4, rho itself only near 5e4
    point = density_rho(-0.5, 12800.0)
    assert point.log_rho > 350.0
    assert point.rho == math.exp(point.log_rho)
    for lam in (1e5, 1e300):
        point = density_rho(-0.5, lam)
        assert point.rho is None
        assert math.isfinite(point.log_rho)
        assert point.log_rho > 709.0


def _rho_reference(p, lam):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        y = mpmath.sqrt(mpmath.mpf(lam))
        gamma = mpmath.gamma(mpmath.mpf(0.5) - p - 1j * y)
        return mpmath.sinh(2 * mpmath.pi * y) * abs(gamma) ** 2 / (2 * mpmath.pi**2)


@pytest.mark.parametrize("p", [0.5, 0.0, -0.5, -1.5, -3.5])
def test_density_rho_past_the_sinh_overflow_matches_mpmath(p):
    for lam in (1.28e4, 2e4, 3e4, 4e4, 5e4):
        reference = _rho_reference(p, lam)
        rho = density_rho(p, lam).rho
        if reference < sys.float_info.max:
            assert rho == pytest.approx(float(reference), rel=1e-12)
        else:
            assert rho is None


@pytest.mark.parametrize(
    "p, lam",
    [(0.5, 1e-309), (0.5, 5e-324), (-98.2, 1.0)],
    ids=["gamma-1e-309", "gamma-5e-324", "product"],
)
def test_density_rho_where_a_factor_overflows_matches_mpmath(p, lam):
    # rho is finite, but |Gamma|^2 alone, or the product sinh * |Gamma|^2
    # before its division by 2 pi^2, leaves the double range
    point = density_rho(p, lam)
    assert point.rho == pytest.approx(float(_rho_reference(p, lam)), rel=1e-12)
    assert point.log_rho == pytest.approx(math.log(point.rho), rel=1e-13)


def test_density_rho_is_none_where_the_product_overflows():
    point = density_rho(-98.5, 1.0)
    assert _rho_reference(-98.5, 1.0) > sys.float_info.max
    assert point.rho is None
    assert point.log_rho > 709.0


def test_density_raises_where_log_rho_overflows():
    point = density_rho(-1.2e305, 1.0)
    assert point.rho is None
    assert point.log_rho == pytest.approx(1.6835e308, rel=1e-4)
    for p in (-1.3e305, -1e306):
        with pytest.raises(OverflowError):
            density_rho(p, 1.0)


def test_multiplier_is_finite_past_the_cosh_overflow():
    # acosh(DBL_MAX) ~ 710.48; just past it h is 2 pi e^(-t) (subnormal)
    t = 711.0
    assert multiplier_h((t / math.pi) ** 2) == pytest.approx(2.0 * math.pi * math.exp(-t), rel=1e-9)
    assert multiplier_h(1e300) == 0.0


def test_density_validation():
    with pytest.raises(ValueError):
        density_rho(0.75, 1.0)
    with pytest.raises(ValueError):
        density_rho(0.0, 0.0)
    with pytest.raises(ValueError):
        density_rho(0.0, -2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        multiplier_h,
        lambda v: density_rho(0.0, v),
        lambda v: density_rho(v, 1.0),
    ],
    ids=["multiplier_h", "density-lambda", "density-p"],
)
def test_non_finite_arguments_are_rejected(call, bad):
    with pytest.raises(ValueError, match="must be finite"):
        call(bad)


_RECORDS = [
    (SpectralDensityPoint, ("p", "lam", "rho", "log_rho"), lambda: density_rho(-0.5, 2.0)),
    (
        BlockCertificate,
        ("parity", "m", "size", "max_abs_deviation", "cross_block_max"),
        lambda: block_certificate(3, 8),
    ),
]


@pytest.mark.parametrize(
    "kind, fields, build", _RECORDS, ids=[kind.__name__ for kind, _, _ in _RECORDS]
)
def test_records_are_immutable_named_tuples(kind, fields, build):
    record = build()
    assert type(record) is kind
    assert kind._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is kind
    assert restored == record
