"""Tests for the 1D flow evolution and envelope comparisons."""

import math

import numpy as np
import pytest

from eigenbounds.coefficients import CurvatureParams, drift_kahler
from eigenbounds.errors import DegenerateInitialData, DomainError, StabilityFailure
from eigenbounds.heatflow import (
    CFL_SAFETY,
    FIT_RESIDUAL_MAX,
    LINEAR,
    MAX_FLOW_NODES,
    RECORDS,
    FlowResult,
    heatflow_1d,
    modulus_envelope_check,
    modulus_of_continuity,
)

PI = math.pi


def _psi(s):
    # first mixed eigenfunction of the flat half-problem, slope 1 at 0
    return np.sin(PI * np.asarray(s, dtype=float)) / PI


def _sign_like(x):
    return np.tanh(6.0 * x)


class TestDecayRates:
    def test_flat_rate_is_pi2(self):
        r = heatflow_1d(None, LINEAR, 0.5, _sign_like, 3.0, n=128, fit_target=PI**2)
        assert r.fit is not None
        assert abs(r.fit.fitted_rate - PI**2) / PI**2 < 1e-2
        assert r.fit.fit_residual < FIT_RESIDUAL_MAX
        assert r.fit.fit_window[0] == pytest.approx(2.0, abs=0.01)

    def test_kappa2_drift_rate_is_three(self):
        params = CurvatureParams(m=2, kappa1=0.0, kappa2=1.0)
        r = heatflow_1d(
            lambda x: drift_kahler(params, x),
            LINEAR,
            PI / 2,
            lambda x: np.tanh(4.0 * x),
            2.0,
            n=128,
            fit_target=3.0,
        )
        assert abs(r.fit.fitted_rate - 3.0) / 3.0 < 1e-2
        assert r.fit.fit_residual < FIT_RESIDUAL_MAX

    def test_no_fit_without_target(self):
        r = heatflow_1d(None, LINEAR, 0.5, _sign_like, 0.2, n=64)
        assert r.fit is None


class TestOscillation:
    def test_monotone_under_heat(self):
        r = heatflow_1d(None, LINEAR, 0.5, _sign_like, 1.0, n=64)
        assert np.all(np.diff(r.osc) <= 1e-12 * r.osc[0])


class TestFailureModes:
    def test_constant_initial_data(self):
        with pytest.raises(DegenerateInitialData):
            heatflow_1d(None, LINEAR, 0.5, lambda x: np.ones_like(x), 1.0, n=32)

    def test_stability_failure_on_huge_drift(self):
        # the transport limit puts the stable step far below T / 1e8
        with pytest.raises(StabilityFailure, match="stable step .* fell below 1.000e-08"):
            heatflow_1d(lambda x: 1e9 * x, LINEAR, 0.5, _sign_like, 1.0, n=16)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            heatflow_1d(None, LINEAR, 0.0, _sign_like, 1.0)
        with pytest.raises(DomainError):
            heatflow_1d(None, LINEAR, 0.5, _sign_like, -1.0)
        with pytest.raises(DomainError):
            heatflow_1d(None, LINEAR, 0.5, _sign_like, 1.0, n=8)
        with pytest.raises(DomainError, match="must have 32 values"):
            heatflow_1d(None, LINEAR, 0.5, lambda x: np.zeros(7), 1.0, n=32)
        with pytest.raises(DomainError):
            heatflow_1d(None, LINEAR, 0.5, _sign_like, 1.0, n=MAX_FLOW_NODES + 1)
        with pytest.raises(DomainError, match="the only flow profile is LINEAR, got 'mcf'"):
            heatflow_1d(None, "mcf", 0.5, _sign_like, 1.0)


def _euler_reference(drift, ell, u0, T, n):
    """Plain explicit Euler loop for the linear flow, one step at a time."""
    h = 2.0 * ell / n
    xs = -ell + (np.arange(n) + 0.5) * h
    u = u0(xs)
    tau = drift(xs) if drift is not None else np.zeros(n)
    dt = CFL_SAFETY * (h * h) / 2.0
    if np.any(tau):
        dt = min(dt, CFL_SAFETY * h / float(np.max(np.abs(tau))))
    times = np.linspace(0.0, T, RECORDS + 1)
    states = [u]
    t = 0.0
    for t_goal in times[1:]:
        while t < t_goal:
            pad = np.concatenate(([u[0]], u, [u[-1]]))
            d1 = (pad[2:] - pad[:-2]) / (2.0 * h)
            d2 = (pad[2:] - 2.0 * u + pad[:-2]) / (h * h)
            step = min(dt, t_goal - t)
            u = u + step * (d2 - tau * d1)
            t += step
        states.append(u)
    states = np.array(states)
    osc = states.max(axis=1) - states.min(axis=1)
    window = times >= (2.0 / 3.0) * T
    slope = np.polyfit(times[window], np.log(osc[window]), 1)[0]
    return states, float(-slope), dt


_KAPPA2 = CurvatureParams(m=2, kappa1=0.0, kappa2=1.0)


class TestPropagator:
    @pytest.mark.parametrize(
        "drift, ell, u0, T",
        [
            (None, 0.5, _sign_like, 0.3),
            (lambda x: drift_kahler(_KAPPA2, x), PI / 2, lambda x: np.tanh(4.0 * x), 0.2),
        ],
        ids=["flat", "kappa2_drift"],
    )
    def test_matches_euler_loop(self, drift, ell, u0, T):
        n = 64
        r = heatflow_1d(drift, LINEAR, ell, u0, T, n=n, fit_target=1.0)
        states, rate, dt = _euler_reference(drift, ell, u0, T, n)
        scale = float(np.max(np.abs(states[0])))
        assert np.max(np.abs(r.states - states)) <= 1e-12 * scale
        assert abs(r.fit.fitted_rate - rate) <= 1e-10 * abs(rate)
        # the benchmark counts node records from the state array
        assert r.states.size == (RECORDS + 1) * n
        assert r.dt == dt
        assert r.steps == RECORDS * math.ceil(T / RECORDS / dt)


def _envelope_constant(C, lam):
    def env(s, t):
        return C * math.exp(-lam * t) * _psi(s)

    return env


def _calibrate(flow):
    iu, ju = np.triu_indices(len(flow.xs), k=1)
    s_pairs = 0.5 * np.abs(flow.xs[ju] - flow.xs[iu])
    gaps = np.abs(flow.states[0][ju] - flow.states[0][iu])
    return float(np.max(gaps / (2.0 * _psi(s_pairs))))


def _random_smooth(x):
    coef = np.random.default_rng(20240819).normal(size=4)
    out = np.sin(PI * x)
    for j, c in enumerate(coef):
        out = out + 0.2 * c * np.cos((j + 1) * PI * x) / (j + 1)
    return out


class TestEnvelope:
    def test_generic_data_never_violates(self):
        flow = heatflow_1d(None, LINEAR, 0.5, _sign_like, 1.5, n=128)
        C = _calibrate(flow)
        rep = modulus_envelope_check(flow, _envelope_constant(C, PI**2))
        assert rep.ok
        assert rep.max_violation <= 1e-6
        assert rep.initial_violation <= 1e-12

    def test_random_smooth_data(self):
        flow = heatflow_1d(None, LINEAR, 0.5, _random_smooth, 1.5, n=128)
        C = _calibrate(flow)
        rep = modulus_envelope_check(flow, _envelope_constant(C, PI**2))
        assert rep.ok
        assert rep.max_violation <= 1e-6

    def test_separable_equality_case(self):
        # the envelope-generating solution: violation bounded by grid error
        flow = heatflow_1d(None, LINEAR, 0.5, lambda x: _psi(x), 1.0, n=128)
        rep = modulus_envelope_check(flow, _envelope_constant(1.0, PI**2), tol=1e-3)
        assert rep.ok
        assert rep.max_violation <= 5e-4

    def test_constant_trajectory_dominated_by_any_envelope(self):
        xs = np.linspace(-0.45, 0.45, 32)
        states = np.ones((3, 32)) * 0.7
        flow = FlowResult(
            xs=xs,
            times=np.array([0.0, 0.5, 1.0]),
            states=states,
            osc=np.zeros(3),
            drift=None,
            length=0.5,
        )
        rep = modulus_envelope_check(flow, lambda s, t: 0.1 * np.ones_like(s))
        assert rep.ok
        assert rep.max_violation == pytest.approx(-0.2)

    def test_rejects_decreasing_barrier(self):
        flow = heatflow_1d(None, LINEAR, 0.5, _sign_like, 0.5, n=64)
        rep = modulus_envelope_check(
            flow, lambda s, t: 5.0 * math.exp(-PI**2 * t) * np.cos(PI * np.asarray(s))
        )
        assert not rep.ok
        assert rep.monotone_margin < 0

    def test_rejects_too_fast_decay(self):
        # decays faster than its own diffusion allows: not a supersolution
        flow = heatflow_1d(None, LINEAR, 0.5, _sign_like, 0.5, n=64)
        rep = modulus_envelope_check(flow, _envelope_constant(5.0, 30.0))
        assert not rep.ok
        assert rep.supersolution_margin < 0


def _pairwise_violations(flow, envelope):
    """Per-pair reference sweep: every pair against 2 phi at its own distance.

    Returns (max_violation, initial_violation) over all records.
    """
    iu, ju = np.triu_indices(len(flow.xs), k=1)
    s_pairs = 0.5 * np.abs(flow.xs[ju] - flow.xs[iu])
    viol = []
    for k, t in enumerate(flow.times):
        u = flow.states[k]
        gaps = np.abs(u[ju] - u[iu])
        viol.append(float(np.max(gaps - 2.0 * np.asarray(envelope(s_pairs, float(t))))))
    return max(viol), viol[0]


_SWEEP_DATA = {
    "tanh": _sign_like,
    "mixed_mode": lambda x: np.sin(PI * x) + 0.3 * np.cos(2.0 * PI * x),
    "random_smooth": _random_smooth,
    "non_monotone": lambda x: np.cos(3.0 * PI * x) + 0.5 * np.sin(5.0 * PI * x),
}


class TestOffsetSweep:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("name", sorted(_SWEEP_DATA))
    def test_bit_identical_to_pairs_on_dyadic_grid(self, name, n):
        # h = 1/64 and 1/128: every pair distance is exactly its offset's
        flow = heatflow_1d(None, LINEAR, 0.5, _SWEEP_DATA[name], 0.5, n=n)
        env = _envelope_constant(_calibrate(flow), PI**2)
        rep = modulus_envelope_check(flow, env)
        assert (rep.max_violation, rep.initial_violation) == _pairwise_violations(flow, env)

    @pytest.mark.parametrize("name", sorted(_SWEEP_DATA))
    def test_matches_pairs_to_rounding_on_general_grid(self, name):
        # h = 1/150: pair distances at one offset differ in the last ulp
        flow = heatflow_1d(None, LINEAR, 1.0 / 3.0, _SWEEP_DATA[name], 0.3, n=100)
        env = _envelope_constant(_calibrate(flow), PI**2)
        rep = modulus_envelope_check(flow, env)
        max_v, init_v = _pairwise_violations(flow, env)
        iu, ju = np.triu_indices(len(flow.xs), k=1)
        scale = float(np.max(np.abs(env(0.5 * np.abs(flow.xs[ju] - flow.xs[iu]), 0.0))))
        assert abs(rep.max_violation - max_v) <= 1e-15 * scale
        assert abs(rep.initial_violation - init_v) <= 1e-15 * scale

    def test_offsets_and_gaps(self):
        xs = np.arange(5) * 0.25
        states = np.array([[0.0, 1.0, 3.0, 2.0, 0.5], [1.0, 1.0, 1.0, 1.0, 1.0]])
        s, gaps = modulus_of_continuity(xs, states)
        assert s.tolist() == [0.125, 0.25, 0.375, 0.5]
        assert gaps.tolist() == [[2.0, 0.0], [3.0, 0.0], [2.0, 0.0], [0.5, 0.0]]
        with pytest.raises(DomainError, match="5 nodes per record"):
            modulus_of_continuity(xs, states[:, :4])
        with pytest.raises(DomainError, match="at least 2 nodes"):
            modulus_of_continuity(xs[:1], states[:, :1])

    def test_non_uniform_grid_is_refused(self):
        xs = np.linspace(-0.45, 0.45, 32)
        xs[10] += 1e-3
        flow = FlowResult(
            xs=xs,
            times=np.array([0.0, 1.0]),
            states=np.tile(np.tanh(xs), (2, 1)),
            osc=np.zeros(2),
            drift=None,
            length=0.5,
        )
        with pytest.raises(DomainError, match="uniform grid"):
            modulus_envelope_check(flow, _envelope_constant(1.0, PI**2))

    def test_one_envelope_call_per_record_on_offset_distances(self):
        n = 128
        flow = heatflow_1d(None, LINEAR, 0.5, _sign_like, 0.5, n=n)
        env = _envelope_constant(_calibrate(flow), PI**2)
        sizes = []

        def counted(s, t):
            sizes.append(np.size(s))
            return env(s, t)

        modulus_envelope_check(flow, counted)
        # two hypothesis-grid calls, then one per record on the n - 1
        # offsets rather than the n (n - 1) / 2 pairs
        assert len(sizes) == len(flow.times) + 2 == RECORDS + 3
        assert sizes[:2] == [257, 257]
        assert sizes[2:] == [n - 1] * len(flow.times)
