import math

import numpy as np
import pytest

from eigenbounds.coefficients import CurvatureParams, weight_kahler
from eigenbounds.errors import DomainError, NoBracketFound, ZeroDenominator
from eigenbounds.sturm_liouville import (
    EigenResult,
    SLProblem,
    eigen_limit,
    neumann_first_nonzero_direct,
    rayleigh_quotient,
    solve_fd,
    solve_shooting,
)


def flat(t):
    return np.ones_like(np.asarray(t, dtype=float))


def cos_pow(p):
    return lambda t: np.cos(np.asarray(t, dtype=float)) ** p


FLAT = SLProblem(length=1.0, weight=flat)


# --- shooting ---------------------------------------------------------------


def test_shooting_flat_exact():
    r = solve_shooting(FLAT)
    exact = math.pi**2 / 4
    assert r.value == pytest.approx(exact, rel=1e-12)
    assert r.method == "shooting"
    assert r.residual < 1e-10
    # eigenfunction sin(pi t / 2) with phi'(0) = 1 normalization
    expected = (2 / math.pi) * np.sin(math.pi * r.ts / 2)
    assert np.max(np.abs(r.phi - expected)) < 1e-9


def test_shooting_flat_scaling():
    for ell in (0.37, 2.0, 5.0):
        r = solve_shooting(SLProblem(length=ell, weight=flat))
        assert r.value == pytest.approx(math.pi**2 / (4 * ell * ell), rel=1e-11)


def test_shooting_warm_bracket():
    exact = math.pi**2 / 4
    r = solve_shooting(FLAT, bracket=(0.9 * exact, 1.1 * exact))
    assert r.value == pytest.approx(exact, rel=1e-12)
    # a useless bracket falls back to the scan
    r2 = solve_shooting(FLAT, bracket=(5.0, 6.0))
    assert r2.value == pytest.approx(exact, rel=1e-12)


def test_shooting_monotone_eigenfunction():
    # Increasing first eigenfunction on the half interval
    p = SLProblem(length=1.2, weight=lambda t: np.cosh(np.asarray(t, float)) ** 3)
    r = solve_shooting(p)
    assert r.phi[0] == 0.0
    assert np.all(np.diff(r.phi) > -1e-9 * np.abs(r.phi).max())


def test_shooting_rejects_bad_input():
    with pytest.raises(DomainError):
        solve_shooting(FLAT, tol=0.0)
    with pytest.raises(DomainError):
        solve_shooting(SLProblem(length=1.0, weight=lambda t: -flat(t)))


def test_no_bracket_below_scan_floor():
    # a near-zero weight plateau in the middle lets the trial function climb
    # there cheaply, pushing the first eigenvalue below the documented scan floor
    def w(t):
        t = np.asarray(t, dtype=float)
        dip = 1e-8 + 0.5 * (1 + np.tanh(40 * (0.05 - t))) + 0.5 * (1 + np.tanh(40 * (t - 0.95)))
        return dip

    with pytest.raises(NoBracketFound):
        solve_shooting(SLProblem(length=1.0, weight=w))


def test_no_bracket_above_scan_ceiling():
    # strong inward drift raises the first eigenvalue past the scan ceiling
    w = lambda t: np.exp(440.0 * np.asarray(t, dtype=float))
    with pytest.raises(NoBracketFound):
        solve_shooting(SLProblem(length=1.0, weight=w))


# --- finite differences ------------------------------------------------------


def test_fd_flat():
    r = solve_fd(FLAT, n=2000)
    assert r.value == pytest.approx(math.pi**2 / 4, rel=1e-6)
    assert r.method == "finite_difference"
    assert abs(r.phi).max() == pytest.approx(1.0)
    assert r.phi[0] == 0.0
    assert np.all(np.diff(r.phi) > -1e-9)


def test_fd_sharp_endpoint_rows():
    # boundary-sharp model rows solved directly: weight vanishes at ell
    cases = [
        (cos_pow(2), math.pi / 2, 3.0),
        (cos_pow(4), math.pi / 2, 5.0),
        (cos_pow(8), math.pi / 2, 9.0),
        (lambda t: np.cos(2 * np.asarray(t, float)), math.pi / 4, 8.0),
    ]
    for wf, ell, exact in cases:
        r = solve_fd(SLProblem(length=ell, weight=wf), n=2000)
        assert r.value == pytest.approx(exact, rel=1e-5)


def test_fd_rejects_bad_input():
    with pytest.raises(DomainError):
        solve_fd(FLAT, n=8)


def test_cross_method_agreement():
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        m = int(rng.integers(1, 5))
        kappa1 = float(rng.uniform(-1.0, 1.0))
        kappa2 = float(rng.uniform(-1.0, 1.0))
        params = CurvatureParams(m=m, kappa1=kappa1, kappa2=kappa2)
        from eigenbounds.coefficients import weight_kahler_radius

        ell = 0.7 * min(weight_kahler_radius(params), 2.0)
        prob = SLProblem(length=ell, weight=lambda t: weight_kahler(params, t))
        rs = solve_shooting(prob)
        rf = solve_fd(prob, n=1500)
        assert rf.value == pytest.approx(rs.value, rel=1e-5)


def test_domain_monotonicity():
    # shrinking the interval raises the eigenvalue
    vals = [solve_fd(SLProblem(length=ell, weight=cos_pow(2)), n=800).value
            for ell in (0.5, 0.9, 1.3)]
    assert vals[0] > vals[1] > vals[2]


# --- full-interval Neumann ----------------------------------------------------


def test_neumann_direct_flat():
    r = neumann_first_nonzero_direct(flat, 1.0, n=2000)
    assert r.value == pytest.approx(math.pi**2 / 4, rel=1e-7)


def test_neumann_direct_matches_half_interval():
    r_full = neumann_first_nonzero_direct(cos_pow(2), math.pi / 2, n=2000)
    r_half = solve_fd(SLProblem(length=math.pi / 2, weight=cos_pow(2)), n=2000)
    assert r_full.value == pytest.approx(3.0, rel=1e-6)
    assert r_full.value == pytest.approx(r_half.value, rel=1e-6)


def test_neumann_direct_rejects_odd_weight():
    w = lambda t: np.exp(np.asarray(t, dtype=float))
    with pytest.raises(DomainError):
        neumann_first_nonzero_direct(w, 1.0, n=200)


# --- Rayleigh quotient ---------------------------------------------------------


def test_rayleigh_linear_trial():
    ts = np.linspace(0.0, 1.0, 801)
    assert rayleigh_quotient(FLAT, ts, ts) == pytest.approx(3.0, rel=1e-12)


def test_rayleigh_at_eigenfunction():
    p = SLProblem(length=1.0, weight=cos_pow(2))
    r = solve_shooting(p)
    q = rayleigh_quotient(p, r.ts, r.phi)
    assert q == pytest.approx(r.value, rel=1e-9)


def test_rayleigh_upper_bound():
    p = SLProblem(length=1.0, weight=lambda t: np.cosh(np.asarray(t, float)) ** 2)
    lam = solve_shooting(p).value
    ts = np.linspace(0.0, 1.0, 1201)
    trial = np.sin(math.pi * ts / 2)
    assert rayleigh_quotient(p, ts, trial) >= lam - 1e-8


def test_rayleigh_zero_denominator():
    ts = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ZeroDenominator):
        rayleigh_quotient(FLAT, ts, np.zeros_like(ts))


# --- limit procedure -----------------------------------------------------------


def test_eigen_limit_recovers_sharp_value():
    # kappa1-sharp family via fast FD solves; exact limit is 8
    wf = lambda t: np.cos(2 * np.asarray(t, dtype=float))
    ell_max = math.pi / 4

    def solve_at(h):
        return solve_fd(SLProblem(length=ell_max * (1 - h), weight=wf), n=700).value

    lam, err, seq = eigen_limit(solve_at, [0.04 / 2**k for k in range(6)], order=1)
    assert lam == pytest.approx(8.0, rel=1e-6)
    assert np.all(np.diff(seq) < 0)  # truncations approach from above
    assert err < 1e-4


def test_eigen_limit_needs_enough_points():
    with pytest.raises(Exception):
        eigen_limit(lambda h: 1.0, [0.1, 0.05], order=1)


# --- problem validation ---------------------------------------------------------


def test_slproblem_validation():
    with pytest.raises(DomainError):
        SLProblem(length=-1.0, weight=flat)
    with pytest.raises(TypeError):
        SLProblem(length=1.0)
