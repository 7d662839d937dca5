import math
import cmath
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hankel_spectra import specfun
from hankel_spectra.specfun import (
    EULER_GAMMA,
    SINC_ORDER_MAX,
    _gaussian_power,
    damped_moment_shifted,
    damped_trig_moment,
    e1,
    e1_scaled,
    ein,
    gamma_abs_sq,
    log_gamma_abs_sq,
    sinc,
    sinc_derivative,
)

mp.mp.dps = 30


def test_sinc_basic_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(math.pi)) < 1e-16
    assert abs(sinc(math.pi / 2) - 2.0 / math.pi) < 1e-15
    assert sinc(-3.7) == sinc(3.7)


def test_sinc_derivative_order_zero_matches_sinc():
    for x in (0.0, 0.3, 2.0, 9.9, 10.1, 18.0):
        assert sinc_derivative(0, x) == pytest.approx(sinc(x), rel=1e-14, abs=1e-16)


def test_sinc_derivative_frozen_values():
    # d/dx [sin x / x] at pi is cos(pi)/pi, and the second derivative at the
    # origin is the Taylor coefficient -2/3! of the sine series.
    assert sinc_derivative(1, 0.0) == 0.0
    assert sinc_derivative(2, 0.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert sinc_derivative(1, math.pi) == pytest.approx(-1.0 / math.pi, rel=1e-13)
    assert sinc_derivative(4, 0.0) == pytest.approx(0.2, rel=1e-14)


def test_sinc_derivative_parity():
    for n in range(0, 11):
        for x in (0.25, 1.5, 7.0, 10.5, 19.0):
            left = sinc_derivative(n, -x)
            right = (-1.0) ** n * sinc_derivative(n, x)
            assert left == pytest.approx(right, rel=1e-13, abs=1e-16)


@given(
    n=st.integers(min_value=1, max_value=10),
    x=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_sinc_derivative_matches_finite_difference(n, x):
    h = 1e-5
    fd = (sinc_derivative(n - 1, x + h) - sinc_derivative(n - 1, x - h)) / (2 * h)
    assert abs(sinc_derivative(n, x) - fd) < 1e-6


def test_sinc_derivative_rejects_large_order():
    with pytest.raises(ValueError):
        sinc_derivative(SINC_ORDER_MAX + 1, 1.0)
    with pytest.raises(ValueError):
        sinc_derivative(-1, 1.0)


def test_ein_e1_frozen_values():
    assert ein(0) == 0j
    assert ein(1.0) == pytest.approx(0.7965995992970534, rel=1e-15)
    assert e1(1.0) == pytest.approx(0.2193839343955205, rel=1e-15)
    assert e1_scaled(1.0) == pytest.approx(0.5963473623231946, rel=1e-15)
    assert e1_scaled(50.0) == pytest.approx(0.019615109930114876, rel=1e-13)
    got = e1(-1 + 1j)
    assert got.real == pytest.approx(-1.7646259855638542, rel=1e-13)
    assert got.imag == pytest.approx(-0.7538228020792705, rel=1e-13)


def test_e1_just_above_negative_axis():
    """Approaching the cut from above gives -Ei(1) - i*pi in the limit."""
    got = e1(complex(-1.0, 1e-300))
    assert got.real == pytest.approx(-1.895117816355937, rel=1e-12)
    assert got.imag == pytest.approx(-math.pi, rel=1e-12)


def test_e1_conjugate_symmetry_is_exact():
    for z in (0.3 + 0.7j, -1 + 1j, 5 + 2j, 20 + 3j, 0.1 + 0.05j, -4 + 9j, 40 + 1j):
        assert e1(z.conjugate()) == e1(z).conjugate()
        assert ein(z.conjugate()) == ein(z).conjugate()


def test_e1_matches_mpmath_on_annulus():
    for r in (0.1, 0.5, 1.0, 4.0, 12.5, 30.0, 50.0):
        for arg in (0.0, 0.4, 1.2, 2.2, 2.9, -0.4, -1.2, -2.2, -2.9):
            z = r * cmath.exp(1j * arg)
            want = complex(mp.e1(mp.mpc(z)))
            got = e1(z)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_ein_entire_series_oracle():
    # Ein has the everywhere-convergent series sum_{k>=1} (-1)^{k+1} z^k / (k k!).
    for z in (0.5, -2.0, 3 + 4j, -6 + 0.5j, 11.0):
        want = complex(mp.nsum(lambda k: (-1) ** (k + 1) * mp.mpc(z) ** k / (k * mp.factorial(k)), [1, mp.inf]))
        got = complex(ein(z))
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_e1_identity_on_annulus():
    """e1, ein and the log term satisfy their defining relation off the cut."""
    for r in (0.1, 1.0, 12.0, 13.0, 50.0):
        for arg in (0.0, 0.7, 2.0, 2.95, -0.7, -2.0, -2.95):
            z = r * cmath.exp(1j * arg)
            lhs = e1(z)
            rhs = ein(z) - cmath.log(z) - EULER_GAMMA
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))


def _assert_continuous_across(inside, outside):
    """e1 and e1_scaled agree on the two sides of a branch boundary up to
    the change of the function between the two points (|E1'| = |e^-z/z|,
    |(e^z E1)'| = |e^z E1 - 1/z|) plus 1e-10 relative."""
    step = abs(inside - outside)
    for f, slope in (
        (e1, lambda z: abs(cmath.exp(-z) / z)),
        (e1_scaled, lambda z: abs(e1_scaled(z) - 1.0 / z)),
    ):
        a, b = f(inside), f(outside)
        bound = 2.0 * step * max(slope(inside), slope(outside)) + 1e-10 * abs(b)
        assert abs(a - b) <= bound, (f.__name__, inside, outside, abs(a - b), bound)


_SIDE = 1e-12  # relative offset of the two points from the boundary


@given(theta=st.floats(-0.999 * math.pi / 2, 0.999 * math.pi / 2))
@settings(max_examples=200, deadline=None)
def test_e1_is_continuous_across_radius_4(theta):
    # in the right half-plane the series serves |z| <= 4, the continued
    # fraction beyond it
    ray = cmath.exp(1j * theta)
    _assert_continuous_across(4.0 * (1.0 - _SIDE) * ray, 4.0 * (1.0 + _SIDE) * ray)


@given(
    theta=st.floats(1.001 * math.pi / 2, 0.999 * 5.0 * math.pi / 6),
    sign=st.sampled_from((1.0, -1.0)),
)
@settings(max_examples=200, deadline=None)
def test_e1_is_continuous_across_radius_12(theta, sign):
    # in the left half-plane, off the wide-argument sector, the series
    # serves |z| <= 12
    ray = cmath.exp(1j * sign * theta)
    _assert_continuous_across(12.0 * (1.0 - _SIDE) * ray, 12.0 * (1.0 + _SIDE) * ray)


@given(radius=st.floats(12.01, 60.0), sign=st.sampled_from((1.0, -1.0)))
@settings(max_examples=200, deadline=None)
def test_e1_is_continuous_across_the_wide_argument_sector(radius, sign):
    # past |z| = 12 the series serves |arg z| > 5 pi / 6
    edge = 5.0 * math.pi / 6.0
    inside = radius * cmath.exp(1j * sign * edge * (1.0 + _SIDE))
    outside = radius * cmath.exp(1j * sign * edge * (1.0 - _SIDE))
    _assert_continuous_across(inside, outside)


@given(
    theta=st.floats(1.001 * 5.0 * math.pi / 6, math.pi * (1.0 - 1e-15)),
    sign=st.sampled_from((1.0, -1.0)),
)
@settings(max_examples=200, deadline=None)
def test_e1_is_continuous_across_radius_40(theta, sign):
    # in the wide-argument sector the series serves |z| < 40 and the
    # asymptotic series the rest
    ray = cmath.exp(1j * sign * theta)
    _assert_continuous_across(40.0 * (1.0 - _SIDE) * ray, 40.0 * (1.0 + _SIDE) * ray)


_WIDE_RAYS = [sign * arg for arg in (12.0 * math.pi / 13.0, math.pi - 1e-12) for sign in (1, -1)]
_WIDE_RADII = [13.0, 20.0, 39.9, 40.0, 60.0, 100.0, 300.0, 712.0, 720.0, 740.0, 1e3, 1e4, 1e6, 1e15, 1e30]


@pytest.mark.parametrize("arg", _WIDE_RAYS)
def test_e1_matches_mpmath_far_out_in_the_wide_argument_sector(arg):
    # e^z E1(z) is about 1/z out there; e1 and ein overflow a double
    # from about |z| = 730 on, and must say so rather than return inf or nan
    with mp.workdps(40):
        for r in _WIDE_RADII:
            z = r * cmath.exp(1j * arg)
            e1_z = mp.e1(mp.mpc(z))
            for f, want in (
                (e1_scaled, mp.exp(mp.mpc(z)) * e1_z),
                (e1, e1_z),
                (ein, e1_z + mp.log(mp.mpc(z)) + mp.euler),
            ):
                if float(abs(want)) == math.inf:
                    with pytest.raises(OverflowError, match=f"^{f.__name__}: "):
                        f(z)
                    continue
                got = f(z)
                assert abs(got - want) <= 2e-15 * abs(want), (f.__name__, r, arg)


@given(
    n=st.integers(min_value=1, max_value=SINC_ORDER_MAX),
    sign=st.sampled_from((1.0, -1.0)),
    gap=st.floats(0.0, 1e-9),
)
@settings(max_examples=200, deadline=None)
def test_sinc_derivative_is_continuous_across_radius_10(n, sign, gap):
    # the series serves |x| < 10 and the Leibniz form |x| >= 10;
    # |sinc^(n+1)| <= 1/(n+2) bounds the change between the two points
    below = sign * math.nextafter(10.0 * (1.0 - gap), 0.0)
    above = sign * 10.0 * (1.0 + gap)
    step = abs(above - below)
    change = abs(sinc_derivative(n, above) - sinc_derivative(n, below))
    assert change <= step / (n + 2) + 1e-13


def test_e1_scaled_tail_approaches_one_from_below():
    values = [x * complex(e1_scaled(x)).real for x in (1.0, 5.0, 10.0, 50.0, 200.0, 1000.0)]
    for left, right in zip(values, values[1:]):
        assert left < right
    assert all(v < 1.0 for v in values)


def test_e1_scaled_converges_at_large_arguments():
    # at some large |z| the Lentz ratio stalls one ulp below 1; the stop
    # test used to need it to reach 1.0 exactly, and ran out of iterations
    z = complex(-1e30, 1e30)
    assert abs(e1_scaled(z) - 1.0 / z) <= 1e-15 * abs(1.0 / z)
    # the kernels' argument -x + ix, out to where x^2 still fits a double
    for exponent in range(8, 154):
        z = complex(-(10.0**exponent), 10.0**exponent)
        want = 1.0 / z - 1.0 / (z * z)
        assert abs(e1_scaled(z) - want) <= 1e-15 * abs(want), exponent


_HUGE = sys.float_info.max


@pytest.mark.parametrize("f", [e1_scaled, e1, ein], ids=lambda f: f.__name__)
def test_moduli_past_the_normal_range_of_1_over_z_are_an_overflow(f):
    # the continued fraction stalls where 1/z is subnormal, and used to
    # blame the branch cut; abs(z) itself overflowed from |z| = 1.8e308
    for z in (
        complex(-1e308, 1e308),
        complex(-1.5e308, 1.5e308),
        complex(1.5e308, 1.5e308),
        complex(-_HUGE, _HUGE),
    ):
        with pytest.raises(OverflowError, match=f"^{f.__name__}: .* overflows the continued") as info:
            f(z)
        assert "branch cut" not in str(info.value)


def test_huge_moduli_where_the_fraction_converges_keep_their_values():
    assert e1(1e308) == 0j
    assert ein(1e308) == pytest.approx(math.log(1e308) + EULER_GAMMA, rel=1e-15)
    assert e1_scaled(1e308) == pytest.approx(1e-308, rel=1e-15)
    assert e1_scaled(complex(0.0, 1.7e308)) == pytest.approx(1 / complex(0.0, 1.7e308), rel=1e-14)


@pytest.mark.parametrize("f", [e1_scaled, e1, ein], ids=lambda f: f.__name__)
def test_a_stalled_continued_fraction_names_its_caller(f, monkeypatch):
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 2)
    with pytest.raises(ArithmeticError, match=f"^{f.__name__}: continued fraction failed") as info:
        f(complex(5.0, 5.0))
    assert type(info.value) is ArithmeticError


def test_e1_rejects_cut_and_origin():
    for bad in (0.0, -1.0, complex(-5.0, 0.0), complex(0.0, 0.0)):
        with pytest.raises(ValueError):
            e1(bad)


def test_gamma_abs_sq_closed_forms():
    # p = 0, 1/2 and -1/2 reduce to elementary hyperbolic expressions.
    for y in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert gamma_abs_sq(0.0, y) == pytest.approx(math.pi / math.cosh(math.pi * y), rel=1e-12)
        assert gamma_abs_sq(0.5, y) == pytest.approx(math.pi / (y * math.sinh(math.pi * y)), rel=1e-12)
        assert gamma_abs_sq(-0.5, y) == pytest.approx(math.pi * y / math.sinh(math.pi * y), rel=1e-12)


def test_gamma_abs_sq_matches_mpmath():
    for p in (0.5, 0.25, 0.0, -0.5, -1.5, -2.5, -3.0):
        for y in (0.1, 1.0, 3.0, 7.0):
            want = float(abs(mp.gamma(mp.mpc(0.5 - p, -y))) ** 2)
            assert gamma_abs_sq(p, y) == pytest.approx(want, rel=1e-12)


@given(
    p=st.floats(min_value=-3.0, max_value=0.5, allow_nan=False),
    y=st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_gamma_abs_sq_recurrence(p, y):
    # |Gamma(a + 1 - iy)|^2 = (a^2 + y^2) |Gamma(a - iy)|^2 with a = 1/2 - p.
    a = 0.5 - p
    lhs = gamma_abs_sq(p - 1.0, y)
    rhs = (a * a + y * y) * gamma_abs_sq(p, y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_abs_sq_rejects_large_p():
    with pytest.raises(ValueError):
        gamma_abs_sq(0.75, 1.0)


def test_gamma_abs_sq_overflow_is_an_error():
    # at p = 1/2, |Gamma|^2 ~ 1/y^2 leaves the double range below
    # y ~ 7.5e-155, and y^2 itself underflows to 0 below y ~ 1.6e-162
    assert gamma_abs_sq(0.5, 1e-154) == pytest.approx(1e308, rel=1e-12)
    for y in (1e-156, 1e-163):
        with pytest.raises(OverflowError, match="^gamma_abs_sq: "):
            gamma_abs_sq(0.5, y)
        want = float(2 * mp.re(mp.loggamma(mp.mpc(0, -y))))
        assert log_gamma_abs_sq(0.5, y) == pytest.approx(want, rel=1e-13)
    with pytest.raises(OverflowError, match="^gamma_abs_sq: "):
        gamma_abs_sq(-1e306, 1.0)


def test_log_gamma_abs_sq_overflow_is_an_error():
    # log |Gamma(a - iy)|^2 ~ 2 a log a leaves the double range near
    # a = 1.25e305
    want = float(2 * mp.re(mp.loggamma(mp.mpc(0.5 + 1.2e305, -1.0))))
    assert log_gamma_abs_sq(-1.2e305, 1.0) == pytest.approx(want, rel=1e-13)
    for p in (-1.3e305, -1e306, -1.7976931348623157e308):
        with pytest.raises(OverflowError, match="^log_gamma_abs_sq: "):
            log_gamma_abs_sq(p, 1.0)


def test_log_gamma_abs_sq_matches_mpmath_beyond_the_double_range():
    # |Gamma|^2 ~ 2 pi y^(-2p) e^(-pi y) underflows from y ~ 230 on
    for p in (0.5, 0.0, -0.5, -3.5):
        for y in (0.1, 3.0, 100.0, 300.0, 1e8, 1e150):
            want = float(2 * mp.re(mp.loggamma(mp.mpc(0.5 - p, -y))))
            assert log_gamma_abs_sq(p, y) == pytest.approx(want, rel=1e-13, abs=1e-13)
            if y <= 100.0:
                assert log_gamma_abs_sq(p, y) == pytest.approx(
                    math.log(gamma_abs_sq(p, y)), rel=1e-13, abs=1e-13
                )
    with pytest.raises(ValueError):
        log_gamma_abs_sq(0.75, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        log_gamma_abs_sq(0.0, math.inf)


def test_damped_moment_shifted_frozen():
    assert complex(damped_moment_shifted(0, 1.0, 1.0)).real == pytest.approx(0.5963473623231946, rel=1e-14)
    got = damped_moment_shifted(2, 1 + 1j, 2.0)
    assert got.real == pytest.approx(-0.08480726611233957, rel=1e-12)
    assert got.imag == pytest.approx(-0.17873624004224287, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("a", [1.0, 1 + 1j, 2 - 1j])
@pytest.mark.parametrize("x", [0.5, 2.0])
def test_damped_moment_shifted_against_quadrature(n, a, x):
    def integrand_re(y):
        return (y ** n * cmath.exp(-a * y) / (x + y)).real

    def integrand_im(y):
        return (y ** n * cmath.exp(-a * y) / (x + y)).imag

    re, _ = quad(integrand_re, 0.0, 80.0, limit=300)
    im, _ = quad(integrand_im, 0.0, 80.0, limit=300)
    got = damped_moment_shifted(n, a, x)
    assert abs(got - complex(re, im)) < 1e-9


def test_damped_moment_shifted_rejects_nonpositive_shift():
    with pytest.raises(ValueError):
        damped_moment_shifted(0, 1.0, -2.0)
    with pytest.raises(ValueError):
        damped_moment_shifted(0, 1.0, 0.0)


def test_gaussian_power_is_the_scaled_eighth_turn():
    # (1+i)^r = 2^(r/2) e^(i r pi/4); every part is an integer, so the
    # rounded float reference is exact while 2^(r/2) stays far below 2^53
    for r in range(41):
        re, im = _gaussian_power(r)
        assert type(re) is int and type(im) is int
        assert re == round(2 ** (r / 2) * math.cos(r * math.pi / 4)), r
        assert im == round(2 ** (r / 2) * math.sin(r * math.pi / 4)), r


def test_damped_trig_moment_frozen():
    assert damped_trig_moment(0, 0.7, "cos") == pytest.approx(math.cos(0.7), rel=1e-15)
    assert damped_trig_moment(1, 0.7, "sin") == 0.0
    assert damped_trig_moment(1, 5.0, "cos") == 0.0
    assert damped_trig_moment(3, 1.0, "cos") == pytest.approx(-3.0 * math.cos(1.0), rel=1e-14)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("x", [0.3, 2.0])
def test_damped_trig_moment_against_quadrature(m, kind, x):
    trig = math.cos if kind == "cos" else math.sin

    def integrand(y):
        return math.exp(-abs(y)) * abs(y) ** m * trig(x - y)

    want, _ = quad(integrand, -60.0, 60.0, points=[0.0], limit=400)
    assert damped_trig_moment(m, x, kind) == pytest.approx(want, abs=1e-9)


def test_damped_trig_moment_rejects_unknown_kind():
    with pytest.raises(ValueError):
        damped_trig_moment(0, 1.0, "tan")
