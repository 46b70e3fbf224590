import gc
import math
import weakref

import numpy as np
import pytest

from eigenbounds import sturm_liouville
from eigenbounds.coefficients import CurvatureParams, weight_kahler, weight_riemannian
from eigenbounds.errors import (
    DomainError,
    NoBracketFound,
    SolverError,
    StabilityFailure,
    ZeroDenominator,
)
from eigenbounds.sturm_liouville import (
    SLProblem,
    _shoot,
    _Shooter,
    _weight_tables,
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
KAHLER_K1 = CurvatureParams(m=2, kappa1=1.0)
# graded mesh: the interval ends just short of the weight's zero at pi/4
NEAR_CAP = SLProblem(0.75, lambda t: weight_kahler(KAHLER_K1, t), layer=math.pi / 4 - 0.75)
# the finest truncation of the kappa1-sharp bound, h = 0.04/32 short of pi/4
SHARP_H = 0.04 / 32
SHARP_TRUNCATED = SLProblem(
    math.pi / 4 * (1 - SHARP_H), lambda t: np.cos(2 * np.asarray(t, float)), layer=math.pi / 4 * SHARP_H
)
# kappa < 0: the weight cosh(2t) cosh(t)^4 grows 21-fold along the interval
GROWING = SLProblem(1.0, lambda t: weight_kahler(CurvatureParams(m=3, kappa1=-1.0, kappa2=-1.0), t))


def rk4_reference(problem, ts, lam, want_path=False):
    """The float RK4 loop that the banded kernel replaced, as its reference:
    one Python step per cell, stopping at the first node with phi < 0 < u."""
    w_nodes, w_mids = _weight_tables(problem, ts)
    columns = (np.diff(ts), w_nodes[:-1], w_mids, w_nodes[1:])
    steps = list(zip(*(c.tolist() for c in columns)))
    neg = -lam
    phi = 0.0
    slope = steps[0][1]
    path = [phi]
    for h, w0, wm, w1 in steps:
        k1p = slope / w0
        k1s = neg * w0 * phi
        p2 = phi + 0.5 * h * k1p
        s2 = slope + 0.5 * h * k1s
        k2p = s2 / wm
        k2s = neg * wm * p2
        p3 = phi + 0.5 * h * k2p
        s3 = slope + 0.5 * h * k2s
        k3p = s3 / wm
        k3s = neg * wm * p3
        p4 = phi + h * k3p
        s4 = slope + h * k3s
        k4p = s4 / w1
        k4s = neg * w1 * p4
        phi = phi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        slope = slope + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        path.append(phi)
        if not want_path and phi < 0.0 < slope:
            return -steps[0][1]
    return np.array(path) if want_path else slope


def reference_phi(problem, lam):
    """Nodes and eigenfunction (phi'(0) = 1) of the float RK4 loop at lam, on
    the mesh the solver uses for lam."""
    ts, _ = _Shooter(problem).mesh(lam)
    return ts, rk4_reference(problem, ts, lam, want_path=True)


# --- shooting ---------------------------------------------------------------


def test_shooting_flat_exact():
    r = solve_shooting(FLAT)
    exact = math.pi**2 / 4
    assert r.value == pytest.approx(exact, rel=1e-12)
    assert r.method == "shooting"
    assert r.residual < 1e-10
    # eigenfunction sin(pi t / 2) with phi'(0) = 1 normalization
    ts, phi = reference_phi(FLAT, r.value)
    expected = (2 / math.pi) * np.sin(math.pi * ts / 2)
    assert np.max(np.abs(phi - expected)) < 1e-9


def test_shooting_flat_scaling():
    for ell in (0.37, 2.0, 5.0):
        r = solve_shooting(SLProblem(length=ell, weight=flat))
        assert r.value == pytest.approx(math.pi**2 / (4 * ell * ell), rel=1e-11)


def test_shooting_monotone_eigenfunction():
    # Increasing first eigenfunction on the half interval
    p = SLProblem(length=1.2, weight=lambda t: np.cosh(np.asarray(t, float)) ** 3)
    _, phi = reference_phi(p, solve_shooting(p).value)
    assert phi[0] == 0.0
    assert np.all(np.diff(phi) > -1e-9 * np.abs(phi).max())


@pytest.mark.parametrize("problem", [FLAT, NEAR_CAP], ids=["flat", "near_cap"])
def test_shooting_sign_marks_first_eigenvalue(problem):
    # S(lam) > 0 exactly below the first eigenvalue, on the mesh the solver
    # uses; every lam up to 40 lam1 shares that mesh.  The float RK4 loop
    # gives the same sign at every lam.
    r = solve_shooting(problem)
    ts, table = _Shooter(problem).mesh(40.0 * r.value)
    assert len(ts) - 1 == r.grid_size
    for lam in r.value * np.linspace(0.01, 1.0 - 1e-9, 100):
        assert _shoot(table, float(lam)) > 0.0
        assert rk4_reference(problem, ts, float(lam)) > 0.0
    above = r.value * np.linspace(1.0 + 1e-9, 40.0, 400)
    if problem is FLAT:
        # past the second eigenvalue the raw flux u(1) = cos(sqrt(30)) is positive
        assert math.cos(math.sqrt(30.0)) > 0.0
        above = np.append(above, 30.0)
    for lam in above:
        assert _shoot(table, float(lam)) <= 0.0
        assert rk4_reference(problem, ts, float(lam)) <= 0.0


@pytest.mark.parametrize(
    "problem", [SLProblem(1.0, cos_pow(2)), SHARP_TRUNCATED, GROWING],
    ids=["uniform", "graded_sharp", "growing"],
)
def test_banded_kernel_matches_rk4_reference(problem):
    # the banded solve is the RK4 recurrence: S(lam) agrees with the float
    # loop to rounding
    r = solve_shooting(problem)
    ts, table = _Shooter(problem).mesh(r.value)
    if problem is SHARP_TRUNCATED:
        assert np.ptp(np.diff(ts)) > 0.0
    else:
        assert np.allclose(np.diff(ts), ts[1], rtol=1e-12)
    w0 = float(table[1][1])
    for lam in r.value * np.geomspace(0.05, 30.0, 20):
        kernel = _shoot(table, float(lam))
        assert abs(kernel - rk4_reference(problem, ts, float(lam))) <= 1e-12 * w0, lam


def test_shooting_leaves_no_table_alive(monkeypatch):
    # brentq wraps its callback in a function that refers to itself: a
    # callback closing over a mesh table would keep the table alive until
    # a cyclic collection, one table per solve
    inner = sturm_liouville._shoot
    refs = []

    def tracked(table, lam, *args, **kwargs):
        refs.append(weakref.ref(table[0]))
        return inner(table, lam, *args, **kwargs)

    monkeypatch.setattr(sturm_liouville, "_shoot", tracked)
    gc.collect()
    gc.disable()
    try:
        solve_shooting(NEAR_CAP)
        solve_shooting(FLAT)
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert refs and alive == 0


def test_shooting_rejects_bad_input():
    with pytest.raises(DomainError):
        solve_shooting(FLAT, tol=0.0)
    with pytest.raises(DomainError):
        solve_shooting(SLProblem(length=1.0, weight=lambda t: -flat(t)))


def test_shooting_misses_tol_is_solver_error():
    # the root is converged near machine precision; a residual tolerance
    # below what that root reaches is refused, not silently exceeded
    with pytest.raises(SolverError):
        solve_shooting(NEAR_CAP, tol=1e-300)
    assert solve_shooting(FLAT, tol=math.inf).value == pytest.approx(math.pi**2 / 4, rel=1e-12)


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


def test_overflowing_weight_is_solver_error():
    # exp(800 t) overflows near t = 0.89: a solver failure, not a numpy warning
    w = lambda t: np.exp(800.0 * np.asarray(t, float))
    with pytest.raises(SolverError):
        solve_shooting(SLProblem(1.0, w))


def test_subnormal_weight_is_stability_failure():
    # exp(-740) is subnormal, so 1/w overflows in the RK4 step coefficients:
    # the sweep would overflow, and that is reported, not a numpy warning
    w = lambda t: np.exp(-740.0 * np.asarray(t, float))
    with pytest.raises(StabilityFailure):
        solve_shooting(SLProblem(1.0, w))


# --- finite differences ------------------------------------------------------


def test_fd_flat():
    r = solve_fd(FLAT, n=2000)
    assert r.value == pytest.approx(math.pi**2 / 4, rel=1e-6)
    assert r.method == "finite_difference"


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


@pytest.mark.parametrize(
    "solve, pencils",
    [
        (lambda n: solve_fd(FLAT, n=n), []),
        (lambda n: neumann_first_nonzero_direct(flat, 1.0, n=n), []),
    ],
    ids=["mixed", "full_interval"],
)
def test_fd_requests_eigenvalues_only(monkeypatch, solve, pencils):
    # both FD solvers run the Green's-function iteration and make no
    # eigh_tridiagonal call
    inner = sturm_liouville.eigh_tridiagonal
    calls = []

    def spy(d, e, **kwargs):
        calls.append((len(d), kwargs.get("eigvals_only")))
        return inner(d, e, **kwargs)

    monkeypatch.setattr(sturm_liouville, "eigh_tridiagonal", spy)
    solve(100)
    assert calls == pencils


def _cosh2(t):
    return np.cosh(np.asarray(t, float)) ** 2


@pytest.mark.parametrize(
    "solve, n",
    [(lambda n: solve_fd(SLProblem(1.0, _cosh2), n=n), n) for n in (2000, 32000, 250000)]
    + [(lambda n: neumann_first_nonzero_direct(_cosh2, 1.0, n=n), n)
       for n in (20000, 100000, 250000)],
    ids=["2000", "32000", "250000"] + [f"full_interval-{n}" for n in (20000, 100000, 250000)],
)
def test_fd_keeps_relative_accuracy_on_fine_grids(solve, n):
    # the symmetrized pencil lost about eps/h^2: the mixed one was 1e-6 off at
    # n = 32,000 and 6e-5 at 250,000, and the full-interval one lost its zero
    # mode from n = 100,000 on.  At n = 2,000 the mixed gap, 2.8e-12, is the
    # h^3 term of the half-cell end mass that Richardson leaves; it falls
    # 8-fold per doubling, and with twice the h the full interval is 2.2e-11 off
    assert solve(n).value == pytest.approx(1.68204332003855, rel=5e-12 if n == 2000 else 1e-12)


def test_fd_tiny_eigenvalue_keeps_relative_accuracy():
    # ROADMAP 6(a): the first eigenvalue of cosh^4 on [0, 10] is 4.07842e-16,
    # far below the pencil's old rounding floor (it gave 8.4e-11)
    r = solve_fd(SLProblem(length=10.0, weight=lambda t: weight_riemannian(5, -1.0, t)))
    assert r.value == pytest.approx(4.07842e-16, rel=1e-5)


def test_fd_cuts_tail_that_underflows_to_zero():
    # cos^98 is exactly 0.0 in the last cells before pi/2: they carry no flux
    # and no mass, and the mixed eigenvalue is still 2*49 + 1
    r = solve_fd(SLProblem(length=math.pi / 2, weight=cos_pow(98)))
    assert r.value == pytest.approx(99.0, abs=1e-9)


@pytest.mark.parametrize(
    "weight",
    [
        lambda t: np.cos(np.asarray(t, float)),
        lambda t: np.where(np.asarray(t) < 0.5, 0.0, 1.0),
        lambda t: np.where(np.abs(np.asarray(t) - 0.5) < 0.01, 0.0, 1.0),
    ],
    ids=["negative", "zero_at_start", "zero_inside"],
)
def test_fd_weight_not_positive(weight):
    # only a tail of exact zeros is cut; a negative weight or a zero before
    # a positive one is outside the domain
    with pytest.raises(DomainError, match=r"weight not positive on \(0, ell\)"):
        solve_fd(SLProblem(length=2.0, weight=weight), n=100)


@pytest.mark.parametrize(
    "solve, sweeps",
    [
        (lambda: solve_fd(FLAT), 18),
        (
            lambda: solve_fd(
                SLProblem(1.0, lambda t: weight_kahler(CurvatureParams(m=2, kappa1=0.25), t))
            ),
            20,
        ),
        (lambda: neumann_first_nonzero_direct(flat, 1.0), 18),
    ],
    ids=["flat", "regular_baseline", "full_interval"],
)
def test_fd_sweeps_count_power_iterations(monkeypatch, solve, sweeps):
    inner = sturm_liouville._green_first
    counts = []

    def counted(*args):
        lam, its = inner(*args)
        counts.append(its)
        return lam, its

    monkeypatch.setattr(sturm_liouville, "_green_first", counted)
    assert solve().sweeps == sum(counts) == sweeps
    assert len(counts) == 2


def test_fd_iteration_cap_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(sturm_liouville, "FD_MAX_ITERATIONS", 1)
    with pytest.raises(SolverError, match="did not settle"):
        solve_fd(FLAT)


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


@pytest.mark.parametrize("p", [8, 26, 78])
def test_neumann_direct_weight_vanishing_at_both_ends(p):
    # cos^p on [-pi/2, pi/2]: the first nonzero eigenvalue is p + 1.  A flux
    # summed from the far end would carry eps * sum|y| over the tiny face
    # weights near lo
    r = neumann_first_nonzero_direct(cos_pow(p), math.pi / 2)
    assert r.value == pytest.approx(p + 1.0, rel=1e-10)


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
    lam = solve_shooting(p).value
    q = rayleigh_quotient(p, *reference_phi(p, lam))
    assert q == pytest.approx(lam, rel=1e-9)


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
