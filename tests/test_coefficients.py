import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from identities import big_c_prime, big_c_second, drift_dirichlet, t_kappa_lambda

from eigenbounds.coefficients import (
    CurvatureParams,
    big_c,
    c_kappa,
    drift_kahler,
    first_zero,
    s_kappa,
    t_kappa,
    weight_dirichlet,
    weight_dirichlet_radius,
    weight_kahler,
    weight_kahler_radius,
    weight_riemannian,
    weight_riemannian_dirichlet,
)
from eigenbounds.errors import DomainError, InvalidDimension

kappas = st.floats(min_value=-10.0, max_value=10.0)
fractions = st.floats(min_value=0.01, max_value=0.95)


def t_in_domain(kappa, frac, cap=2.0):
    # scale a fraction into the positivity interval of c_kappa
    if kappa > 0:
        return frac * min(cap, 0.5 * math.pi / math.sqrt(kappa))
    return frac * cap


# --- known values ----------------------------------------------------------


def test_t_kappa_known_values():
    assert t_kappa(0.0, 1.7) == 0.0
    assert t_kappa(1.0, math.pi / 4) == pytest.approx(1.0, rel=1e-12)
    assert t_kappa(-1.0, 1.0) == pytest.approx(-math.tanh(1.0), rel=1e-12)
    assert t_kappa(4.0, math.pi / 8) == pytest.approx(2.0, rel=1e-12)


def test_c_kappa_known_values():
    assert c_kappa(1.0, math.pi / 3) == pytest.approx(0.5, rel=1e-12)
    assert c_kappa(0.0, 3.7) == 1.0
    assert c_kappa(-1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)


def test_s_kappa_known_values():
    assert s_kappa(1.0, math.pi / 2) == pytest.approx(1.0, rel=1e-12)
    assert s_kappa(0.0, 2.5) == 2.5
    assert s_kappa(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-12)


def test_big_c_known_values():
    assert big_c(1.0, 1.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)
    assert big_c(0.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert big_c(-1.0, 0.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)


def test_t_kappa_lambda_known_values():
    # kappa = 0, lam = 1: profile 1 - t, drift 1/(1 - t)
    assert t_kappa_lambda(0.0, 1.0, 0.5) == pytest.approx(2.0, rel=1e-12)
    # lam = 0 reduces to t_kappa
    assert t_kappa_lambda(1.0, 0.0, 0.7) == pytest.approx(math.tan(0.7), rel=1e-12)


def test_first_zero_known_values():
    assert first_zero(1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert first_zero(0.0, 1.0) == 1.0
    assert first_zero(0.0, -1.0) == math.inf
    assert first_zero(0.0, 0.0) == math.inf
    assert first_zero(-1.0, 2.0) == pytest.approx(math.atanh(0.5), rel=1e-15)
    assert first_zero(-1.0, 1.0) == math.inf
    assert first_zero(-1.0, 0.5) == math.inf
    assert first_zero(4.0, 2.0) == pytest.approx((math.pi / 2 - math.atan(1.0)) / 2, rel=1e-15)


def test_weight_known_values():
    p = CurvatureParams(m=2, kappa1=0.0, kappa2=0.0)
    assert weight_dirichlet(p, 1.0, 0.5) == pytest.approx(0.125, rel=1e-12)
    assert weight_kahler(p, 0.3) == 1.0
    p2 = CurvatureParams(m=2, kappa1=0.25, kappa2=1.0)
    assert weight_kahler(p2, 0.5) == pytest.approx(math.cos(0.5) ** 3, rel=1e-12)
    assert drift_kahler(p2, 0.5) == pytest.approx(3 * math.tan(0.5), rel=1e-12)
    # m = 1: the kappa2 channel is inert
    p1 = CurvatureParams(m=1, kappa1=0.25, kappa2=123.0)
    assert weight_kahler(p1, 0.5) == pytest.approx(math.cos(0.5), rel=1e-12)
    assert drift_kahler(p1, 0.5) == pytest.approx(math.tan(0.5), rel=1e-12)


def test_weight_riemannian_known_values():
    assert weight_riemannian(3, 1.0, 0.5) == pytest.approx(math.cos(0.5) ** 2, rel=1e-12)
    assert weight_riemannian_dirichlet(2, 0.0, 1.0, 0.25) == pytest.approx(0.75, rel=1e-12)


def test_radii():
    # c_{4 kappa1} vanishes first at pi/(4 sqrt(kappa1)), c_{kappa2} at pi/(2 sqrt(kappa2))
    p = CurvatureParams(m=2, kappa1=1.0, kappa2=1.0)
    assert weight_kahler_radius(p) == pytest.approx(math.pi / 4)
    assert weight_kahler_radius(CurvatureParams(m=2, kappa1=-1.0, kappa2=0.0)) == math.inf
    assert weight_dirichlet_radius(p, 0.0) == pytest.approx(math.pi / 4)
    # m = 1 ignores kappa2 in the radius
    p1 = CurvatureParams(m=1, kappa1=1.0, kappa2=100.0)
    assert weight_kahler_radius(p1) == pytest.approx(math.pi / 4)
    # a diameter cap is twice its factor's first zero, equal to the closed
    # form to the last bit
    for k in (1e-300, 1e-8, 0.1, 0.25, 1.0, 2.0, 3.7, 1e8, 1e300):
        assert 2.0 * first_zero(4.0 * k, 0.0) == math.pi / (2.0 * math.sqrt(k))
        assert 2.0 * first_zero(k, 0.0) == math.pi / math.sqrt(k)
        params = CurvatureParams(m=1, kappa1=k, kappa2=0.0)
        assert 2.0 * weight_kahler_radius(params) == math.pi / (2.0 * math.sqrt(k))


# --- domain errors ---------------------------------------------------------


def test_t_kappa_domain_error():
    with pytest.raises(DomainError):
        t_kappa(1.0, math.pi / 2)
    with pytest.raises(DomainError):
        t_kappa(1.0, 2.0)
    with pytest.raises(DomainError):
        t_kappa(4.0, np.array([0.1, 0.9]))


def test_t_kappa_lambda_domain_error():
    with pytest.raises(DomainError):
        t_kappa_lambda(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        t_kappa_lambda(0.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        t_kappa_lambda(1.0, 0.0, math.pi / 2)


def test_weight_domain_errors():
    p = CurvatureParams(m=2, kappa1=1.0, kappa2=1.0)
    with pytest.raises(DomainError):
        weight_kahler(p, math.pi / 4)
    with pytest.raises(DomainError):
        weight_dirichlet(p, 1.0, weight_dirichlet_radius(p, 1.0))
    with pytest.raises(DomainError):
        weight_dirichlet(p, 1.0, -0.01)


def test_dimension_validation():
    with pytest.raises(InvalidDimension):
        CurvatureParams(m=0, kappa1=1.0, kappa2=0.0)
    with pytest.raises(InvalidDimension):
        weight_riemannian(1, 1.0, 0.1)
    with pytest.raises(InvalidDimension):
        weight_riemannian_dirichlet(1, 0.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        CurvatureParams(m=2, kappa1=math.nan, kappa2=0.0)


# --- structural identities -------------------------------------------------


@given(kappas, fractions)
def test_pythagorean_identity(kappa, frac):
    t = t_in_domain(kappa, frac)
    val = c_kappa(kappa, t) ** 2 + kappa * s_kappa(kappa, t) ** 2
    assert val == pytest.approx(1.0, rel=1e-10, abs=1e-10)


@given(kappas, fractions)
def test_oddness_evenness(kappa, frac):
    t = t_in_domain(kappa, frac)
    assert t_kappa(kappa, -t) == pytest.approx(-t_kappa(kappa, t), rel=1e-14, abs=1e-300)
    assert s_kappa(kappa, -t) == pytest.approx(-s_kappa(kappa, t), rel=1e-14, abs=1e-300)
    assert c_kappa(kappa, -t) == c_kappa(kappa, t)


@given(kappas, fractions)
def test_t_kappa_is_log_derivative_of_c(kappa, frac):
    # t_kappa = kappa * s / c, the negative log-derivative of c_kappa
    t = t_in_domain(kappa, frac)
    expected = kappa * s_kappa(kappa, t) / c_kappa(kappa, t)
    assert t_kappa(kappa, t) == pytest.approx(expected, rel=1e-10, abs=1e-12)


@given(kappas, st.floats(min_value=-3.0, max_value=3.0), fractions)
def test_big_c_solves_ode(kappa, lam, frac):
    t = t_in_domain(kappa, frac)
    assert big_c(kappa, lam, 0.0) == 1.0
    assert big_c_prime(kappa, lam, 0.0) == pytest.approx(-lam, rel=1e-15)
    resid = big_c_second(kappa, lam, t) + kappa * big_c(kappa, lam, t)
    assert abs(resid) <= 1e-12 * max(1.0, abs(kappa) * abs(big_c(kappa, lam, t)))
    # finite-difference cross-check of the exact derivative
    h = 1e-5
    fd = (big_c(kappa, lam, t + h) - big_c(kappa, lam, t - h)) / (2 * h)
    assert fd == pytest.approx(big_c_prime(kappa, lam, t), rel=1e-7, abs=1e-7)


def test_big_c_prime_no_cancellation_at_critical_lam():
    # kappa = -9, lam = 3: big_c = exp(-3t), so big_c' = -3 exp(-3t), where
    # 3 sinh(3t) - 3 cosh(3t) cancels
    assert big_c_prime(-9.0, 3.0, 20.0) == pytest.approx(-3.0 * math.exp(-60.0), rel=1e-12)


def test_t_kappa_lambda_no_cancellation_at_critical_lam():
    # the drift -big_c'/big_c of exp(-3t) is exactly 3 for every t
    assert t_kappa_lambda(-9.0, 3.0, 12.0) == pytest.approx(3.0, rel=1e-12)
    ts = np.linspace(0.0, 20.0, 201)
    np.testing.assert_allclose(t_kappa_lambda(-9.0, 3.0, ts), 3.0, rtol=1e-13)


def test_critical_lam_keeps_digits_before_switch():
    # at x = 3t near 9.3 the closed forms cosh - sinh had cancelled to half
    # their digits without reaching the old 1.5e-8 switch
    assert t_kappa_lambda(-9.0, 3.0, 3.1) == pytest.approx(3.0, rel=1e-13)
    assert big_c(-9.0, 3.0, 3.08) == pytest.approx(math.exp(-9.24), rel=1e-14)


@pytest.mark.parametrize(
    "kappa, lam", [(-1.0, 1.0000000000000009), (-1.0, 1.0000000000000002), (-9.0, 3.0000000000000004)]
)
@pytest.mark.parametrize("frac", [0.9, 0.999])
def test_big_c_prime_near_zero_for_lam_just_above_root(kappa, lam, frac):
    # sinh - (lam/root) cosh cancels there as big_c does; the closed form was
    # off by 0.09% to 15% of big_c' and of the drift -big_c'/big_c
    t = frac * first_zero(kappa, lam)
    h = 1e-4
    fd = (big_c(kappa, lam, t + h) - big_c(kappa, lam, t - h)) / (2 * h)
    assert big_c_prime(kappa, lam, t) == pytest.approx(fd, rel=1e-7)
    assert t_kappa_lambda(kappa, lam, t) == pytest.approx(-fd / big_c(kappa, lam, t), rel=1e-7)


@given(kappas, fractions)
def test_t_kappa_lambda_reduces_at_zero_lam(kappa, frac):
    t = abs(t_in_domain(kappa, frac))
    assert t_kappa_lambda(kappa, 0.0, t) == pytest.approx(t_kappa(kappa, t), rel=1e-13, abs=1e-13)


@given(st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=0.01, max_value=0.4))
def test_small_curvature_continuity(kappa, t):
    # |t_kappa(k, t) - k t| <= k^2 |t|^3 while |k| t^2 <= 0.1
    assert abs(kappa) * t * t <= 0.1
    assert abs(t_kappa(kappa, t) - kappa * t) <= kappa * kappa * abs(t) ** 3 + 1e-300


@given(kappas, st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=200)
@example(kappa=-9.0, lam=3.0)  # big_c = exp(-3t): cosh - sinh used to cancel to 0
# lam just above sqrt(-kappa): cosh - (lam/root) sinh cancelled to 0.0 or to
# +7.45e-9 on both sides of the zero, and atanh of the rounded ratio root/lam
# put the zero 0.8% late
@example(kappa=-1.0, lam=1.0000000000000009)
@example(kappa=-1.0, lam=1.0000000000000002)
@example(kappa=-9.0, lam=3.0000000000000004)
def test_first_zero_matches_bisection(kappa, lam):
    zero = first_zero(kappa, lam)
    if math.isinf(zero):
        ts = np.linspace(0.0, 60.0, 4001)
        assert np.all(big_c(kappa, lam, ts) > 0.0)
        return
    lo, hi = 0.0, zero * 1.5
    # profile is positive at 0 and changes sign at the first zero
    assert big_c(kappa, lam, zero * 0.999) > 0.0
    assert big_c(kappa, lam, min(hi, zero * 1.001)) < 0.0
    f_lo = 1.0
    f_hi = big_c(kappa, lam, hi)
    if f_hi > 0:
        hi = zero * 1.0001
        f_hi = big_c(kappa, lam, hi)
    assert f_hi <= 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if big_c(kappa, lam, mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(zero, rel=1e-9, abs=1e-12)


@given(
    st.sampled_from([1, 2, 3, 5]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    fractions,
)
def test_weight_log_derivative_is_minus_drift(m, kappa1, kappa2, frac):
    p = CurvatureParams(m=m, kappa1=kappa1, kappa2=kappa2)
    rad = min(weight_kahler_radius(p), 2.0)
    t = frac * 0.9 * rad
    h = 1e-5 * max(1.0, t)
    fd = (
        math.log(weight_kahler(p, t + h)) - math.log(weight_kahler(p, t - h))
    ) / (2 * h)
    assert fd == pytest.approx(-drift_kahler(p, t), rel=1e-5, abs=1e-5)


@given(
    st.sampled_from([1, 2, 3]),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    fractions,
)
def test_dirichlet_weight_log_derivative(m, kappa1, kappa2, lam, frac):
    p = CurvatureParams(m=m, kappa1=kappa1, kappa2=kappa2)
    rad = min(weight_dirichlet_radius(p, lam), 2.0)
    t = 0.05 * rad + frac * 0.85 * rad
    h = 1e-6 * max(1.0, rad)
    fd = (
        math.log(weight_dirichlet(p, lam, t + h)) - math.log(weight_dirichlet(p, lam, t - h))
    ) / (2 * h)
    assert fd == pytest.approx(-drift_dirichlet(p, lam, t), rel=1e-4, abs=1e-4)


@given(
    st.sampled_from([1, 2, 4]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    fractions,
)
def test_dirichlet_weight_reduces_at_zero_lam(m, kappa1, kappa2, frac):
    p = CurvatureParams(m=m, kappa1=kappa1, kappa2=kappa2)
    t = frac * 0.9 * min(weight_kahler_radius(p), 2.0)
    assert weight_dirichlet(p, 0.0, t) == pytest.approx(weight_kahler(p, t), rel=1e-12)


def test_vectorized_matches_scalar():
    p = CurvatureParams(m=3, kappa1=0.3, kappa2=-0.7)
    ts = np.linspace(0.0, 0.8, 7)
    w = weight_kahler(p, ts)
    d = drift_kahler(p, ts)
    for i, t in enumerate(ts):
        assert w[i] == weight_kahler(p, float(t))
        assert d[i] == drift_kahler(p, float(t))
    assert isinstance(weight_kahler(p, 0.5), float)
    assert isinstance(w, np.ndarray)


# --- the expressions the weights were first written with, bit for bit --------
#
# References written out as the series with u**3 on every sample, both
# branches and np.where.  The series is selected only where |u| < 1e-6, where
# its cubic term is below half an ulp of the sum, so evaluating it there
# alone, by multiplication, changes no bit; nor does big_c returning c_kappa
# at lam = 0, as c - 0 s = c for finite s.


def ref_c(kappa, t):
    if kappa > 0:
        return np.cos(math.sqrt(kappa) * t)
    if kappa < 0:
        return np.cosh(math.sqrt(-kappa) * t)
    return np.ones_like(t)


def ref_s(kappa, t):
    if kappa == 0.0:
        return t.copy()
    u = kappa * t * t
    series = t * (1.0 - u / 6.0 + u * u / 120.0 - u**3 / 5040.0)
    root = math.sqrt(abs(kappa))
    branch = np.sin(root * t) / root if kappa > 0 else np.sinh(root * t) / root
    return np.where(np.abs(u) < 1e-6, series, branch)


def ref_t(kappa, t):
    if kappa == 0.0:
        return np.zeros_like(t)
    u = kappa * t * t
    series = kappa * t * (1.0 + u / 3.0 + u * u * (2.0 / 15.0) + u**3 * (17.0 / 315.0))
    root = math.sqrt(abs(kappa))
    branch = root * np.tan(root * t) if kappa > 0 else -root * np.tanh(root * t)
    return np.where(np.abs(u) < 1e-6, series, branch)


def ref_big_c(kappa, lam, t):
    out = ref_c(kappa, t) - lam * ref_s(kappa, t)
    if kappa < 0 and lam <= math.sqrt(-kappa):
        root = math.sqrt(-kappa)
        x = root * t
        tail = np.exp(-x) + ((root - lam) / root) * np.sinh(x)
        out = np.where(out < 0.5 * np.cosh(x), tail, out)
    return out


def ref_weight(factors, t, lam=None):
    profile = ref_c if lam is None else (lambda k, x: ref_big_c(k, lam, x))
    terms = [profile(k, t) ** p for k, p in factors]
    out = terms[0]
    for term in terms[1:]:
        out = out * term
    return out


EXACT_KAPPAS = (-4.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 4.0)


def exact_grid(kappa, radius):
    """t >= 0 through the series switch at 1e-3/sqrt|kappa| and on to 0.99
    of `radius` (10/sqrt|kappa|, or 10, where the radius is infinite)."""
    scale = 1.0 / math.sqrt(abs(kappa)) if kappa else 1.0
    end = 0.99 * radius if math.isfinite(radius) else 10.0 * scale
    near = np.linspace(0.0, min(2e-3 * scale, end), 257)
    return np.concatenate([near, np.linspace(0.0, end, 257)])


def exact_lams(kappa):
    return (0.0, -0.5, math.sqrt(abs(kappa)))


@pytest.mark.parametrize("kappa", EXACT_KAPPAS)
def test_profiles_match_reference_bit_for_bit(kappa):
    ts = exact_grid(kappa, first_zero(kappa, 0.0))
    assert np.array_equal(s_kappa(kappa, ts), ref_s(kappa, ts))
    assert np.array_equal(t_kappa(kappa, ts), ref_t(kappa, ts))
    assert np.array_equal(s_kappa(kappa, -ts), ref_s(kappa, -ts))
    assert np.array_equal(t_kappa(kappa, -ts), ref_t(kappa, -ts))
    for t in ts[::16]:
        assert s_kappa(kappa, float(t)) == float(ref_s(kappa, np.array(t)))
        assert t_kappa(kappa, float(t)) == float(ref_t(kappa, np.array(t)))
    for lam in exact_lams(kappa):
        ts = exact_grid(kappa, first_zero(kappa, lam))
        assert np.array_equal(big_c(kappa, lam, ts), ref_big_c(kappa, lam, ts)), lam


@pytest.mark.parametrize("kappa", EXACT_KAPPAS)
def test_weights_match_reference_bit_for_bit(kappa):
    # kappa1 = kappa/4 puts both Kahler factors at curvature kappa
    params = CurvatureParams(m=3, kappa1=kappa / 4.0, kappa2=kappa)
    kahler = ((kappa, 1), (kappa, 4))
    ts = exact_grid(kappa, weight_kahler_radius(params))
    assert np.array_equal(weight_kahler(params, ts), ref_weight(kahler, ts))
    assert np.array_equal(weight_kahler(params, -ts), ref_weight(kahler, -ts))
    assert np.array_equal(weight_riemannian(4, kappa, ts), ref_weight(((kappa, 3),), ts))
    # lam = 0 recovers the interior weight on t >= 0, to the last bit
    assert np.array_equal(weight_dirichlet(params, 0.0, ts), weight_kahler(params, ts))
    for lam in exact_lams(kappa):
        ts = exact_grid(kappa, weight_dirichlet_radius(params, lam))
        assert np.array_equal(weight_dirichlet(params, lam, ts), ref_weight(kahler, ts, lam)), lam
        assert np.array_equal(
            weight_riemannian_dirichlet(4, kappa, lam, ts), ref_weight(((kappa, 3),), ts, lam)
        ), lam
