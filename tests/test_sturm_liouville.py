import dataclasses
import gc
import json
import math
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from identities import ZeroDenominator, rayleigh_quotient

from eigenbounds import sturm_liouville
from eigenbounds.bounds import (
    kahler_dirichlet_bound,
    kahler_neumann_bound,
    riemannian_dirichlet_bound,
    riemannian_neumann_bound,
)
from eigenbounds.coefficients import CurvatureParams, weight_kahler, weight_riemannian
from eigenbounds.errors import DomainError, NoBracketFound, SolverError, StabilityFailure
from eigenbounds.sturm_liouville import (
    ROOT_RTOL,
    SLProblem,
    _bracket,
    _brent,
    _build_mesh,
    _green_first,
    _shoot,
    _Shooter,
    _step_bands,
    _unscaled,
    _weight_tables,
    dtbtrs,
    eigen_limit,
    neumann_first_nonzero_direct,
    solve_fd,
    solve_shooting,
)


def flat(t):
    return np.ones_like(np.asarray(t, dtype=float))


def cos_pow(p):
    return lambda t: np.cos(np.asarray(t, dtype=float)) ** p


FLAT = SLProblem(length=1.0, weight=flat)
KAHLER_K1 = CurvatureParams(m=2, kappa1=1.0)
# the interval ends just short of the weight's zero at pi/4
NEAR_CAP = SLProblem(0.75, lambda t: weight_kahler(KAHLER_K1, t))
# the kappa1-sharp bound's problem: shooting cuts it, on a mesh graded into the cut
SHARP = SLProblem(math.pi / 4, lambda t: np.cos(2 * np.asarray(t, float)), order=1)
# kappa < 0: the weight cosh(2t) cosh(t)^4 grows 21-fold along the interval
GROWING = SLProblem(1.0, lambda t: weight_kahler(CurvatureParams(m=3, kappa1=-1.0, kappa2=-1.0), t))


def rk4_reference(problem, ts, lam, want_path=False):
    """The float RK4 loop that the banded kernel replaced, as its reference:
    one Python step per cell, stopping at the first node with phi < 0 < u."""
    w_nodes, w_mids = _weight_tables(problem.weight, ts)
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
    the mesh the solver uses."""
    ts = _Shooter(problem).ts
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
    # S(lam) > 0 exactly below the first eigenvalue, up to 40 lam1, on the
    # solve's one table.  The float RK4 loop gives the same sign at every lam.
    r = solve_shooting(problem)
    shooter = _Shooter(problem)
    ts, table = shooter.ts, shooter.table
    assert len(ts) - 1 == r.grid_size
    for lam in r.value * np.linspace(0.01, 1.0 - 1e-9, 100):
        assert _shoot(table, float(lam))[0] > 0.0
        assert rk4_reference(problem, ts, float(lam)) > 0.0
    above = r.value * np.linspace(1.0 + 1e-9, 40.0, 400)
    if problem is FLAT:
        # past the second eigenvalue the raw flux u(1) = cos(sqrt(30)) is positive
        assert math.cos(math.sqrt(30.0)) > 0.0
        above = np.append(above, 30.0)
    for lam in above:
        assert _shoot(table, float(lam))[0] <= 0.0
        assert rk4_reference(problem, ts, float(lam)) <= 0.0


@pytest.mark.parametrize(
    "problem", [SLProblem(1.0, cos_pow(2)), SHARP, GROWING],
    ids=["uniform", "graded_sharp", "growing"],
)
def test_banded_kernel_matches_rk4_reference(problem):
    # the banded solve is the RK4 recurrence: S(lam) agrees with the float
    # loop to rounding, on a uniform mesh and on one graded into a cut (the
    # loop has no end mass, so the kernel runs without it)
    r = solve_shooting(problem)
    shooter = _Shooter(problem)
    ts, (bands, rhs, _) = shooter.ts, shooter.table
    if problem is SHARP:
        assert np.ptp(np.diff(ts)) > 0.0
    else:
        assert np.allclose(np.diff(ts), ts[1], rtol=1e-12)
    w0 = float(rhs[1])
    for lam in r.value * np.geomspace(0.05, 30.0, 20):
        kernel = _shoot((bands, rhs, 0.0), float(lam))[0]
        assert abs(kernel - rk4_reference(problem, ts, float(lam))) <= 1e-12 * w0, lam


@pytest.mark.parametrize(
    "ts", [_build_mesh(1.0, 6, 0.0), _build_mesh(1.0, 6, 1e-3)], ids=["uniform", "graded_cut"]
)
def test_step_bands_solve_is_classical_rk4(ts):
    # the band's forward solve gives, at every node, the state of classical
    # RK4 on phi' = u/w, u' = -lam w phi with w sampled at t, t + h/2, t + h
    rng = np.random.default_rng(7)
    w_nodes = rng.uniform(0.5, 2.0, len(ts))
    w_mids = rng.uniform(0.5, 2.0, len(ts) - 1)
    bands = _step_bands(ts, w_nodes, w_mids)
    rhs = np.zeros(2 * len(ts))
    rhs[1] = w_nodes[0]
    # the problem's first eigenvalue is above (pi/2)^2 min(w)/max(w) > 0.6
    for lam in (0.05, 0.5):
        band = bands[..., 0] + lam * (bands[..., 1] + lam * bands[..., 2])
        states, info = dtbtrs(band, rhs, uplo="L", diag="U")
        assert info == 0

        def f(w, y):
            return np.array([y[1] / w, -lam * w * y[0]])

        y = np.array([0.0, w_nodes[0]])
        expected = [y]
        for h, w0, wm, w1 in zip(np.diff(ts), w_nodes[:-1], w_mids, w_nodes[1:]):
            k1 = f(w0, y)
            k2 = f(wm, y + 0.5 * h * k1)
            k3 = f(wm, y + 0.5 * h * k2)
            k4 = f(w1, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(y)
        np.testing.assert_allclose(states, np.concatenate(expected), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "power, steps", [(0, 2000), (5, 2000), (9, 2550), (98, 8414), (1999, 38003)],
)
def test_regular_mesh_is_uniform_and_sized_by_power(power, steps):
    # max(2000, 850 sqrt(P)) uniform steps
    ts = _Shooter(SLProblem(1.0, flat, power=power)).ts
    assert len(ts) - 1 == steps
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.allclose(np.diff(ts), 1.0 / steps, rtol=1e-9)


@pytest.mark.parametrize("rate, steps", [(1.0, 2000), (10.001, 6000), (80.0, 40000)])
def test_regular_mesh_resolves_the_start_slope(rate, steps):
    # 600 steps per unit of ell |w'(0)/w(0)|, up to 40,000, read from the
    # first cell of a 2,000-step mesh, which is built again where it is fewer
    shooter = _Shooter(SLProblem(1.0, lambda t: np.exp(-rate * np.asarray(t, float))))
    assert shooter.steps == len(shooter.ts) - 1 == steps
    assert np.allclose(np.diff(shooter.ts), 1.0 / steps, rtol=1e-9)


@pytest.mark.parametrize(
    "problem, cells, first, last",
    [
        (SHARP, 4039, 1.9630036923657502e-4, 5.138527913173263e-7),
        (SLProblem(math.pi / 2, cos_pow(98), order=98), 8400, 9.324789256691602e-5, 1.0548880825367313e-4),
    ],
    ids=["p1", "p98"],
)
def test_cut_mesh_is_graded_into_the_cut(problem, cells, first, last):
    # a cut problem keeps its graded mesh: at least 4,000 uniform steps and
    # 850 sqrt(p), ending at the cut (in units of 2^e, see _Shooter)
    shooter = _Shooter(problem)
    ts = shooter.ts
    h = np.diff(ts)
    assert len(ts) - 1 == cells
    assert ts[-1] == pytest.approx(shooter.length - shooter.eps, rel=1e-15)
    assert h[0] == pytest.approx(first, rel=1e-12) and h[-1] == pytest.approx(last, rel=1e-12)


def test_shooting_leaves_no_table_alive(monkeypatch):
    # nothing a solve leaves behind may hold a mesh table in a reference
    # cycle (scipy's brentq wrapped its callback in one): each table would
    # stay alive until a cyclic collection, one table per solve
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


def _recorded(f):
    """f, and the list of the points it is called at."""
    seen = []

    def call(x):
        seen.append(x)
        return f(x)

    return call, seen


def _brent_against_brentq(f, a, b, xtol, rtol):
    """_brent's and brentq's roots and evaluation points, from the same ends."""
    mine, mine_seen = _recorded(f)
    root = _brent(mine, a, b, xtol, rtol)
    theirs, theirs_seen = _recorded(f)
    assert root.hex() == brentq(theirs, a, b, xtol=xtol, rtol=rtol).hex()
    assert mine_seen == theirs_seen
    return root


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x * x - 2.0, 0.5, 3.0),
        (lambda x: math.cos(x) - x, 0.1, 1.0),
        (lambda x: x**3 - x - 1.0, 1.0, 2.0),
        (lambda x: math.tanh(50.0 * (x - 0.123)), 0.01, 1.0),
        (lambda x: 3.0 - math.exp(x), 4.0, 0.5),
        (lambda x: math.atan(x - 1.0) * 1e-300, 0.25, 8.0),
    ],
    ids=["quadratic", "cosine", "cubic", "steep", "reversed", "tiny_values"],
)
def test_brent_equals_brentq_bit_for_bit(f, a, b):
    # the port evaluates f at the same points as scipy's brentq, in order,
    # at the shooting solver's tolerances
    _brent_against_brentq(f, a, b, ROOT_RTOL * min(a, b), ROOT_RTOL)


def test_brent_equals_brentq_on_random_brackets():
    # rounding differences of the inverse quadratic step show on a few
    # brackets in a hundred, so many brackets are drawn
    rng = np.random.default_rng(0)
    funcs = (
        lambda x: math.cos(x) - x,
        lambda x: x**3 - x - 1.0,
        lambda x: math.exp(x) - 3.0,
        lambda x: math.atan(x - 0.3),
        lambda x: math.sinh(2.0 * x - 1.4),
    )
    checked = 0
    for _ in range(1000):
        f = funcs[rng.integers(len(funcs))]
        a, b = rng.uniform(-3.0, 1.0), rng.uniform(1.0, 4.0)
        if (f(a) < 0) != (f(b) < 0):
            xtol, rtol = float(rng.choice([1e-12, 2e-12])), float(rng.choice([ROOT_RTOL, 1e-8]))
            _brent_against_brentq(f, a, b, xtol, rtol)
            checked += 1
    assert checked > 500


# the benchmark's five panel bounds
PANEL = pytest.mark.parametrize(
    "result",
    [
        lambda: kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.25), 2.0),
        lambda: kahler_dirichlet_bound(CurvatureParams(m=2, kappa1=0.25, kappa2=1.0), 0.0, 0.6),
        lambda: kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.0), 1.0),
        lambda: kahler_neumann_bound(CurvatureParams(m=2, kappa1=1.0), math.pi / 2),
        lambda: kahler_neumann_bound(CurvatureParams(m=5, kappa1=0.0, kappa2=1.0), math.pi),
    ],
    ids=["kahler_neumann", "kahler_dirichlet", "flat", "kappa1_sharp", "kappa2_sharp"],
)


@PANEL
def test_brent_equals_brentq_on_shooting(result):
    # S(lam) on the walk's bracket of the panel bounds; the solver, starting
    # from the walk's sweeps of the ends, lands on the root
    problem = result().problem
    shooter = _Shooter(problem)
    lo, hi = _bracket(lambda lam: _shoot(shooter.table, lam)[0], shooter)
    root = _brent_against_brentq(
        lambda lam: _shoot(shooter.table, lam)[0], lo, hi, ROOT_RTOL * lo, ROOT_RTOL
    )
    assert solve_shooting(problem).value == _unscaled(root, shooter.e)


def _sweep_tables(monkeypatch):
    """The band arrays of every _shoot call from now on, kept alive so that
    distinct tables keep distinct ids."""
    inner = sturm_liouville._shoot
    seen = []

    def tracked(table, lam, *args, **kwargs):
        seen.append(table[0])
        return inner(table, lam, *args, **kwargs)

    monkeypatch.setattr(sturm_liouville, "_shoot", tracked)
    return seen


@PANEL
def test_shooting_sweeps_one_table(monkeypatch, result):
    # the walk, Brent's method, the residual and the cut_error secant all
    # sweep the solve's one table, and no lam twice
    problem = result().problem
    seen = _sweep_tables(monkeypatch)
    r = solve_shooting(problem)
    assert len({id(bands) for bands in seen}) == 1
    assert r.sweeps == len(seen)


def _logistic(a, t0):
    return lambda t: 1.0 / (1.0 + np.exp(a * (np.asarray(t, float) - t0)))


@pytest.mark.parametrize(
    "a, t0, value, steps",
    [(200.0, 0.05, 960.7406825435454, 3015), (300.0, 0.03, 2643.451860846916, 6000)],
    ids=["a200", "a300"],
)
def test_phase_of_the_bracket_sizes_a_second_table(monkeypatch, a, t0, value, steps):
    # a weight that drops to a plateau near 0 puts lam1 ell^2 at 1e3 and more:
    # 60 steps per radian of the phase at the bracket's upper end exceed the
    # 2,000-step table, so the walk and Brent's method run again on a table
    # of that many steps.  Without it the values were 2.9e-9 and 2.0e-8 off
    # FD at n = 64,000, against 5.6e-10 and 2.5e-10 with it
    seen = _sweep_tables(monkeypatch)
    r = solve_shooting(SLProblem(1.0, _logistic(a, t0)))
    assert r.value == pytest.approx(value, rel=1e-12)
    assert r.grid_size == steps
    # two tables, the first one's sweeps counted too
    tables = [id(bands) for bands in seen]
    assert len(set(tables)) == 2 and tables.index(tables[-1]) > 0
    assert r.sweeps == len(seen)


@pytest.mark.parametrize("problem", [FLAT, SHARP], ids=["regular", "cut"])
def test_shooting_function_is_a_python_float(problem):
    # so _brent runs in Python float arithmetic, where a zero divisor raises
    shooter = _Shooter(problem)
    assert type(shooter.table[2]) is float
    s, phi = _shoot(shooter.table, 1.0)
    assert type(s) is float and phi.shape == shooter.ts.shape


def test_brent_failures_are_solver_errors():
    def step(x):
        return 1.0 if x < 0.1 else -1.0

    # only bisection applies, and 100 halvings leave the bracket far wider than xtol
    with pytest.raises(RuntimeError):
        brentq(step, 1e-300, 1e300, xtol=1e-300, rtol=ROOT_RTOL)
    with pytest.raises(SolverError, match="did not converge in 100 iterations"):
        _brent(step, 1e-300, 1e300, 1e-300, ROOT_RTOL)
    with pytest.raises(SolverError, match="no sign change"):
        _brent(step, 0.2, 0.3, 1e-12, ROOT_RTOL)


@pytest.mark.parametrize(
    "problem, exact",
    [
        (SLProblem(math.pi / 4, lambda t: np.cos(2 * np.asarray(t, float)), order=1), 8.0),
        (SLProblem(math.pi / 2, cos_pow(2), order=2), 3.0),
        (SLProblem(math.pi / 2, cos_pow(8), order=8), 9.0),
        (SLProblem(math.pi / 2, cos_pow(98), order=98), 99.0),
    ],
    ids=["p1", "p2", "p8", "p98"],
)
def test_shooting_cut_gives_sharp_value(problem, exact):
    # one solve on [0, ell - eps] with the tail lumped into the end mass
    r = solve_shooting(problem)
    assert r.value == pytest.approx(exact, rel=1e-12)
    assert r.sweeps <= 20
    assert 0.0 <= r.cut_error < 1e-15 * exact


def test_cut_keeps_weight_normal_and_error_small():
    # the model weights fall like (1.6 eps/ell)^p at the cut: a normal float
    # for every order of the documented domain, and a cut error (eps/ell)^(p+2)
    # near 1e-16
    for p in range(1, 100):
        cut = sturm_liouville._cut(p)
        assert math.cos(math.pi / 2 * (1.0 - cut)) ** p >= np.finfo(float).tiny
        assert cut ** (p + 2) <= 1.1e-16


@pytest.mark.parametrize(
    "weight",
    [
        lambda t: np.cos(2 * np.asarray(t, float)),
        lambda t: weight_kahler(CurvatureParams(m=3, kappa1=1.0, kappa2=-1.0), t),
    ],
    ids=["pure_power", "linear_term"],
)
def test_cut_error_estimates_the_cut(monkeypatch, weight):
    # at a coarse cut, eps/ell = 1e-2, the cut's error is far above rounding:
    # the estimate from the one solve is within a factor 2 of it
    problem = SLProblem(math.pi / 4, weight, order=1)
    reference = solve_shooting(problem).value
    monkeypatch.setattr(sturm_liouville, "_cut", lambda order: 1e-2)
    r = solve_shooting(problem)
    assert 0.5 <= abs(r.value - reference) / r.cut_error <= 2.0


def test_end_mass_sign_marks_first_eigenvalue():
    # flat weight on [0, 1] with end mass M: the roots solve cot(k) = M k,
    # k = sqrt(lam).  Between the second root and the angle 3pi/2 at the end,
    # u(1) - lam M phi(1) > 0 with phi(1) < 0: S must stay negative there too
    mass = 0.5
    bands, rhs, _ = _Shooter(FLAT).table
    table = (bands, rhs, mass)
    k1 = brentq(lambda k: math.cos(k) - mass * k * math.sin(k), 0.1, math.pi / 2)
    k2 = brentq(lambda k: math.cos(k) - mass * k * math.sin(k), math.pi, 1.5 * math.pi)
    for lam in k1 * k1 * np.linspace(0.01, 1.0 - 1e-9, 50):
        assert _shoot(table, float(lam))[0] > 0.0
    window = np.linspace(k2 + 1e-6, 1.5 * math.pi - 1e-6, 50) ** 2
    for lam in np.concatenate([k1 * k1 * np.linspace(1.0 + 1e-9, 40.0, 400), window]):
        assert _shoot(table, float(lam))[0] <= 0.0


def test_shooting_rejects_bad_input():
    with pytest.raises(DomainError):
        solve_shooting(SLProblem(length=1.0, weight=lambda t: -flat(t)))


def test_weight_tables_cut_only_a_trailing_underflow():
    ts = np.linspace(0.0, 1.0, 11)
    # below the floor from the midpoint 0.75 on: the tables end at node 0.7
    tail = lambda t: np.where(t < 0.72, 1.0, 1e-310)
    w_nodes, w_mids = _weight_tables(tail, ts)
    assert len(w_nodes) == 8 and len(w_mids) == 7
    # a zero run before a normal weight, or a negative tail, is refused
    for weight in (
        lambda t: np.where(abs(t - 0.5) < 0.1, 0.0, 1.0),
        lambda t: np.where(t < 0.72, 1.0, -1e-310),
    ):
        with pytest.raises(DomainError):
            _weight_tables(weight, ts)


def test_shooting_misses_tol_is_solver_error(monkeypatch):
    # the root is converged near machine precision; a residual bound below
    # what that root reaches is refused, not silently exceeded
    monkeypatch.setattr(sturm_liouville, "RESIDUAL_MAX", 1e-300)
    with pytest.raises(SolverError):
        solve_shooting(NEAR_CAP)
    monkeypatch.setattr(sturm_liouville, "RESIDUAL_MAX", math.inf)
    assert solve_shooting(FLAT).value == pytest.approx(math.pi**2 / 4, rel=1e-12)


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


def test_subnormal_weight_tail_is_cut():
    # exp(-740) is subnormal, and 1/w would overflow in the RK4 step
    # coefficients: the mesh ends before the samples below 8 times the
    # smallest normal float, near t = 0.955.  On what is left the drift puts
    # the first eigenvalue above 740^2/4, past the scan ceiling, which is
    # reported, not a numpy warning
    w = lambda t: np.exp(-740.0 * np.asarray(t, float))
    ts = _Shooter(SLProblem(1.0, w)).ts
    assert 0.95 < ts[-1] < 0.96 and w(ts[-1]) >= 8.0 * np.finfo(float).tiny
    with pytest.raises(NoBracketFound, match="no sign change of the shooting function up to"):
        solve_shooting(SLProblem(1.0, w))


def test_weight_ratio_overflow_is_stability_failure():
    # a weight that falls from 1e300 to 1e-300 within one cell: both are kept
    # samples, but w0/wm overflows in the RK4 step coefficients, so the sweep
    # would overflow, and that is reported, not a numpy warning
    w = lambda t: np.where(np.asarray(t, float) < 0.5, 1e300, 1e-300)
    with pytest.raises(StabilityFailure, match="shooting integration overflowed"):
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

    def spy(d, e, count):
        calls.append((len(d), count))
        return inner(d, e, count)

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
    # mode from n = 100,000 on
    assert solve(n).value == pytest.approx(1.68204332003855, rel=5e-12 if n == 2000 else 1e-12)


def test_fd_richardson_error_falls_like_h4():
    # with the trapezoid end masses the error of the FD pair runs in even
    # powers of h, so Richardson leaves h^4: 16-fold per doubling.  An end
    # mass a quarter cell inside left an h^3 term, 8-fold.  The mixed error
    # reaches the power iteration's stopping tolerance at n = 2,000 (the full
    # interval's, with twice the h, at 4,000), so the rate is read on coarser
    # grids and n = 4,000 is held to that tolerance
    k = brentq(lambda k: k * math.cos(k) - math.tanh(1.0) * math.sin(k), 0.5, 1.5, xtol=1e-17)
    exact = 1.0 + k * k  # cosh^2 on [0, 1]: phi = sin(k t)/cosh t
    for solve in (
        lambda n: solve_fd(SLProblem(1.0, _cosh2), n=n),
        lambda n: neumann_first_nonzero_direct(_cosh2, 1.0, n=n),
    ):
        errors = [abs(solve(n).value / exact - 1.0) for n in (250, 500, 1000, 4000)]
        assert errors[0] >= 12.0 * errors[1] and errors[1] >= 12.0 * errors[2]
        assert errors[3] <= sturm_liouville.FD_RTOL


def test_fd_never_evaluates_a_vanishing_weight_at_its_end():
    # with order > 0 the end node carries no mass and the weight is not
    # evaluated there, as the model weights refuse a cap; with order 0 the
    # end mass is w(ell) h/2
    def weight(t):
        if np.any(np.asarray(t) >= math.pi / 2):
            raise DomainError("weight evaluated at the cap")
        return cos_pow(2)(t)

    r = solve_fd(SLProblem(math.pi / 2, weight, order=2))
    assert r.value == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(DomainError, match="at the cap"):
        solve_fd(SLProblem(math.pi / 2, weight))


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
    "solve, counts",
    [
        (lambda: solve_fd(FLAT), [9, 2]),
        (
            lambda: solve_fd(
                SLProblem(1.0, lambda t: weight_kahler(CurvatureParams(m=2, kappa1=0.25), t))
            ),
            [10, 2],
        ),
        (lambda: neumann_first_nonzero_direct(flat, 1.0), [9, 3]),
    ],
    ids=["flat", "regular_baseline", "full_interval"],
)
def test_fd_sweeps_count_power_iterations(monkeypatch, solve, counts):
    # the n grid starts cold, the 2n grid from the n grid's iterate
    inner = sturm_liouville._green_first
    seen = []

    def counted(*args):
        lam, its, x = inner(*args)
        seen.append(its)
        return lam, its, x

    monkeypatch.setattr(sturm_liouville, "_green_first", counted)
    assert solve().sweeps == sum(seen)
    assert seen == counts


def _cold_green_first(weight, lo, hi, cells, free=False):
    """One FD grid on its own, sampled from the weight and not through _fd:
    the trapezoid samples w(lo + k h/2) of its half-cell lattice, halved at
    the Neumann ends, and a cold start (ones, or the ramp t when `free`)."""
    h = (hi - lo) / cells
    nodes = np.linspace(lo, hi, cells + 1)
    f = int(free)
    samples = np.asarray(weight(lo + 0.5 * h * np.arange(1 - f, 2 * cells + 1)), dtype=float)
    samples[-1] *= 0.5
    if free:
        samples[0] *= 0.5
    kept = np.flatnonzero(samples != 0.0)
    lead = 2 * (kept[0] // 2) if free else 0
    faces_kept = (kept[-1] + 2 - lead - f) // 2
    samples = samples[lead:]
    w, mass = samples[f : f + 2 * faces_kept : 2], samples[1 - f : f + 2 * faces_kept : 2]
    x = nodes[lead // 2 : lead // 2 + mass.size].copy() if free else np.ones(faces_kept)
    lam = math.inf
    total = mass.sum()
    for it in range(1, 501):
        if free:
            x -= (mass * x).sum() / total
        y = mass * x
        flux = np.cumsum(y[::-1])[::-1][f:]
        if free:
            flux = np.where(x[:-1] < 0.0, -np.cumsum(y[:-1]), flux)
        green = np.cumsum(flux / w)
        lam, lam_old = float((y * x).sum()) / float((y[f:] * green).sum()), lam
        if lam_old - lam <= 1e-14 * lam:
            return lam / (h * h), it
        if free:
            x[0] = 0.0
        np.divide(green, green[-1], out=x[f:])
    raise AssertionError("cold reference did not settle")


@pytest.mark.parametrize(
    "weight, ell, most",
    [
        (flat, 1.0, (2, 3)),
        (lambda t: weight_kahler(CurvatureParams(m=2, kappa1=0.25), t), 1.0, (2, 3)),
        (cos_pow(2), math.pi / 2, (2, 3)),
        (cos_pow(8), math.pi / 2, (3, 4)),
        (cos_pow(26), math.pi / 2, (4, 5)),
        # the trailing underflow of test_fd_cuts_tail_that_underflows_to_zero and
        # the two-end cut of test_neumann_direct_cuts_zeros_at_both_ends
        (cos_pow(98), math.pi / 2, (5, 7)),
    ],
    ids=["flat", "regular_baseline", "cos2", "cos8", "cos26", "cos98_cut"],
)
def test_warm_fine_grid_matches_cold_grids(monkeypatch, weight, ell, most):
    # one weight table and a warm 2n grid give the values of two cold grids,
    # each with its own samples, to 1e-13; the 2n grid takes `most` (mixed,
    # full interval) iterations or fewer, against 11 to 16 cold.  The n grid's
    # eigenvector is off the 2n grid's by its own O(h^2) discretization error,
    # which grows with the power p, so cos^26 and cos^98 need more than 4
    inner = sturm_liouville._green_first
    seen = []

    def counted(*args):
        lam, its, x = inner(*args)
        seen.append(its)
        return lam, its, x

    monkeypatch.setattr(sturm_liouville, "_green_first", counted)
    n = 2000
    for solve, lo, free, fine_most in (
        (lambda: solve_fd(SLProblem(ell, weight), n=n), 0.0, False, most[0]),
        (lambda: neumann_first_nonzero_direct(weight, ell, n=n), -ell, True, most[1]),
    ):
        seen.clear()
        (lam_n, _), (lam_2n, it_2n) = (
            _cold_green_first(weight, lo, ell, cells, free) for cells in (n, 2 * n)
        )
        r = solve()
        assert r.value == pytest.approx((4.0 * lam_2n - lam_n) / 3.0, rel=1e-13, abs=0.0)
        assert r.residual == pytest.approx(abs(lam_n - lam_2n) / 3.0, rel=1e-6)
        assert len(seen) == 2 and seen[1] <= fine_most < it_2n


# problems whose FD side starts from the shooting eigenfunction in a bound:
# the regular baseline, a Dirichlet weight steep enough at 0 that the
# shooting mesh is built again at the start slope's count, the kappa1 and
# kappa2 cuts, and weights that underflow short of the cap, where the root's
# phi is held (see solve_shooting)
WARM_PANEL = pytest.mark.parametrize(
    "make",
    [
        lambda: kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.25), 2.0),
        lambda: riemannian_dirichlet_bound(20, 0.0, 2.0, 0.4),
        lambda: kahler_neumann_bound(CurvatureParams(m=2, kappa1=1.0), math.pi / 2),
        lambda: kahler_neumann_bound(CurvatureParams(m=5, kappa1=0.0, kappa2=1.0), math.pi),
        lambda: kahler_neumann_bound(CurvatureParams(m=50, kappa1=0.0, kappa2=1.0), (1 - 1e-6) * math.pi),
        lambda: kahler_neumann_bound(CurvatureParams(m=50, kappa1=0.0, kappa2=1.0), (1 - 1e-9) * math.pi),
        lambda: riemannian_neumann_bound(2000, 1.0, 0.99 * math.pi),
    ],
    ids=["regular_baseline", "dirichlet_slope", "k1_cut", "k2_cut", "m50-1e-6", "m50-1e-9",
         "n2000-0.99"],
)


@WARM_PANEL
def test_warm_fd_matches_cold(make):
    # the start moves only the iterate the stop rule stops on, at its floor
    problem = make().problem
    shoot = solve_shooting(problem)
    for n in (500, 2000, 8000):
        cold, warm = solve_fd(problem, n), solve_fd(problem, n, start=shoot)
        assert warm.value == pytest.approx(cold.value, rel=2e-14, abs=0.0)
        assert warm.sweeps < cold.sweeps


def test_warm_fd_saves_iterations_on_the_baseline():
    problem = kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.25), 2.0).problem
    assert solve_fd(problem).sweeps == 12
    assert solve_fd(problem, start=solve_shooting(problem)).sweeps <= 6


def test_dirichlet_panel_problem_takes_the_slope_rebuild():
    # so WARM_PANEL's Dirichlet row covers a mesh built twice
    problem = riemannian_dirichlet_bound(20, 0.0, 2.0, 0.4).problem
    assert _Shooter(problem).steps > 2000


def _root_phi(problem, value, hold=True):
    """phi of one sweep at the root, in problem units, held as
    solve_shooting holds it unless `hold` is False."""
    shooter = _Shooter(problem)
    _, phi = _shoot(shooter.table, math.ldexp(value, 2 * shooter.e))
    if hold:
        w = shooter.w_nodes
        held = np.flatnonzero(w >= np.finfo(float).eps * w.max())[-1]
        phi[held + 1 :] = phi[held]
    return np.ldexp(shooter.ts, shooter.e), np.ldexp(phi, shooter.e)


@WARM_PANEL
def test_eigenfunction_is_the_root_sweep_held(monkeypatch, make):
    problem = make().problem
    seen = _sweep_tables(monkeypatch)
    r = solve_shooting(problem)
    # the root's phi comes from the memo: no sweep outside `sweeps`
    assert r.sweeps == len(seen)
    monkeypatch.undo()
    t, phi = r.eigenfunction
    t_ref, phi_ref = _root_phi(problem, r.value)
    assert np.array_equal(t, t_ref) and np.array_equal(phi, phi_ref)
    assert t[0] == 0.0 and phi[0] == 0.0 and np.all(phi[1:] > 0.0) and np.all(np.isfinite(phi))


def test_eigenfunction_is_the_root_sweep_after_a_nearer_one(monkeypatch):
    # a sweep after Brent's root with a smaller |S| than the root's leaves
    # the eigenfunction the root's: the memo holds every sweep, and `sweeps`
    # counts each _shoot call, the decoy's too
    inner_shoot, inner_brent = sturm_liouville._shoot, sturm_liouville._brent
    decoy, calls = [], []

    def shoot(table, lam):
        calls.append(lam)
        s, phi = inner_shoot(table, lam)
        return (0.0, np.full_like(phi, 7.0)) if lam in decoy else (s, phi)

    def brent(f, *args):
        root = inner_brent(f, *args)
        decoy.append(root * (1.0 + 1e-9))
        f(decoy[0])
        return root

    problem = kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.25), 2.0).problem
    plain = solve_shooting(problem)
    monkeypatch.setattr(sturm_liouville, "_shoot", shoot)
    monkeypatch.setattr(sturm_liouville, "_brent", brent)
    r = solve_shooting(problem)
    assert r.value == plain.value
    assert r.sweeps == len(calls) == plain.sweeps + 1
    assert np.array_equal(r.eigenfunction[1], plain.eigenfunction[1])


def test_fd_refuses_grids_that_are_not_one_eigenvalue():
    # the unheld root sweep of the m = 50 Kahler weight a relative 1e-6 short
    # of its cap reaches 5e284 where the weight is below eps max(w); as a
    # start it drove the n grid to 2.7e23 against the 2n grid's 99, and the
    # Richardson value to -9.16e22, which no bound may carry
    problem = kahler_neumann_bound(
        CurvatureParams(m=50, kappa1=0.0, kappa2=1.0), (1 - 1e-6) * math.pi
    ).problem
    r = solve_shooting(problem)
    unheld = dataclasses.replace(r, eigenfunction=_root_phi(problem, r.value, hold=False))
    with pytest.raises(SolverError, match="not one eigenvalue at two resolutions"):
        solve_fd(problem, start=unheld)
    assert solve_fd(problem, start=r).value == pytest.approx(r.value, rel=1e-9)


@pytest.mark.parametrize(
    "lam_n, lam_2n",
    [(3.0, 1.0), (1.0, 2.5), (5e307, 5e307)],
    ids=["n_grid_far_above", "n_grid_far_below", "richardson_overflows"],
)
def test_fd_guard_refuses_grid_pairs(monkeypatch, lam_n, lam_2n):
    # |lam_n - lam_2n| above lam_2n/2, or a Richardson value that is not
    # finite and positive, is a SolverError with one line
    values = iter((lam_n, lam_2n))
    monkeypatch.setattr(
        sturm_liouville, "_green_first", lambda samples, *args: (next(values), 1, np.ones(65))
    )
    with pytest.raises(SolverError, match="not one eigenvalue at two resolutions") as info:
        solve_fd(FLAT, n=64)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
def test_green_first_refuses_a_start_not_finite_and_positive(bad):
    # a start that is not finite and positive on the kept nodes would break
    # the falling quotient that the stop rule relies on
    samples = np.ones(2 * 64)
    start = np.ones(65)
    start[40] = bad
    with pytest.raises(SolverError, match="start is not finite and positive"):
        _green_first(samples, 0.0, 1.0, start=start)
    # node 0 is fixed at 0, and nodes past an underflowed tail are not kept
    start = np.ones(65)
    start[0] = bad
    samples[100:] = 0.0
    start[52:] = bad
    assert _green_first(samples, 0.0, 1.0, start=start)[0] > 0.0


def test_fd_start_without_eigenfunction_is_cold():
    # an FD result has no eigenfunction: the n grid starts cold
    r = solve_fd(FLAT)
    assert r.eigenfunction is None
    assert solve_fd(FLAT, start=r).sweeps == r.sweeps


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


def test_neumann_direct_cuts_zeros_at_both_ends():
    # cos^98 underflows to exactly 0.0 at the free end lo as well as at hi:
    # both runs of zeros carry no flux and no mass, and are cut
    r = neumann_first_nonzero_direct(cos_pow(98), math.pi / 2)
    assert r.value == pytest.approx(99.0, rel=1e-9)


def test_neumann_direct_rejects_odd_weight():
    w = lambda t: np.exp(np.asarray(t, dtype=float))
    with pytest.raises(DomainError):
        neumann_first_nonzero_direct(w, 1.0, n=200)


def test_neumann_direct_checks_evenness_before_solving(monkeypatch):
    # an uneven weight is refused before either grid is solved
    calls = []
    monkeypatch.setattr(sturm_liouville, "_green_first", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="not even"):
        neumann_first_nonzero_direct(lambda t: np.exp(np.asarray(t, dtype=float)), 1.0)
    assert calls == []


def test_neumann_direct_weight_not_positive_keeps_its_message():
    # a weight that is negative somewhere is refused as not positive, also
    # where it is uneven
    w = lambda t: np.asarray(t, dtype=float) + 0.5
    with pytest.raises(DomainError, match=r"weight not positive on \(0, ell\)"):
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


# ---------------------------------------------------------------------------
# LAPACK loaded without the scipy.linalg package

# A fresh interpreter imports the CLI (with the file lookup made to miss in
# the fallback case), then scipy.linalg, and compares the routines and the
# eigenvalues of the symmetric surface mode matrices, mode k's
# F^-1/2 (B^T G B + k^2 F^-1) F^-1/2 on the staggered grid.  The extension
# is registered as scipy.linalg._flapack, so `from scipy.linalg import
# _flapack` finds it, but the attribute scipy.linalg._flapack stays missing
# until scipy re-binds it.
_FLAPACK_SCRIPT = """
import importlib.util, json, sys
import numpy as np
if sys.argv[1] == "fallback":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *a: None if name == "scipy" else find_spec(name, *a)
import eigenbounds.cli
from eigenbounds import sturm_liouville, surfaces
if sys.argv[1] == "fallback":
    importlib.util.find_spec = find_spec
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
import scipy.linalg
from scipy.linalg import _flapack, lapack
ops = []
profiles = (surfaces.sphere_profile(1.0),
            surfaces.random_convex_profile(np.random.default_rng(3)))
for profile in profiles:
    for n in (512, 1024):
        h = profile.length / n
        faces = np.linspace(0.0, profile.length, n + 1)
        w_cell = profile.f(faces[:-1] + 0.5 * h)
        g = profile.f(faces)[1:-1] / (h * h)
        diag = np.zeros(n)
        diag[:-1] += g
        diag[1:] += g
        scale = np.sqrt(w_cell)
        e = -g / (scale[:-1] * scale[1:])
        for k in range(4):
            d = (diag + (k * k) / w_cell) / w_cell
            count = 2 if k == 0 else 1
            ops.append((d, e, count, sturm_liouville.eigh_tridiagonal(d, e, count)))
differ = [
    len(d) for d, e, count, vals in ops
    if scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                     eigvals_only=True).tobytes() != vals.tobytes()
]
print(json.dumps({
    "loaded": loaded,
    "same_module": _flapack is sturm_liouville._flapack,
    "same_routines": [lapack.dtbtrs is sturm_liouville.dtbtrs,
                      lapack.dpttrf is sturm_liouville.dpttrf,
                      lapack.dpttrs is sturm_liouville.dpttrs],
    "solves": len(ops),
    "differ": differ,
}))
"""


@pytest.mark.parametrize("path", ["loader", "fallback"])
def test_flapack_is_scipys_and_solves_bit_for_bit(path):
    proc = subprocess.run(
        [sys.executable, "-c", _FLAPACK_SCRIPT, path], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # the loader brings in no scipy package; the fallback imports scipy.linalg
    if path == "loader":
        assert got["loaded"] == ["scipy.linalg._flapack"]
    else:
        assert "scipy.linalg" in got["loaded"]
    assert got["same_module"] and got["same_routines"] == [True, True, True]
    # two profiles, two grids, modes 0 to 3
    assert got["solves"] == 16
    assert got["differ"] == []


@pytest.mark.parametrize("where, value", [(0, np.nan), (0, np.inf), (1, np.nan), (1, -np.inf)])
def test_eigh_tridiagonal_refuses_non_finite_entries(where, value):
    # scipy's check_finite raised a ValueError here, a traceback at the CLI
    diagonals = [np.full(8, 2.0), np.full(7, -1.0)]
    diagonals[where][3] = value
    with pytest.raises(SolverError, match="non-finite"):
        sturm_liouville.eigh_tridiagonal(*diagonals, 2)


def test_eigh_tridiagonal_refuses_nonzero_info():
    # more eigenvalues than rows: dstebz refuses its 7th argument, iu
    with pytest.raises(SolverError, match="info = -7"):
        sturm_liouville.eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), 4)


def test_eigh_tridiagonal_refuses_short_result(monkeypatch):
    # dstebz reporting fewer eigenvalues than asked for, with info = 0
    def dstebz(d, e, *args):
        return 1, np.zeros(len(d)), None, None, 0

    monkeypatch.setattr(sturm_liouville, "_flapack", types.SimpleNamespace(dstebz=dstebz))
    with pytest.raises(SolverError, match="1 of 2 eigenvalues"):
        sturm_liouville.eigh_tridiagonal(np.full(8, 2.0), np.full(7, -1.0), 2)
