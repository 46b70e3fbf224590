"""Linear 1D heat flows and modulus-of-continuity envelope checks.

Evolves u_t = u'' - drift(x) u' on a symmetric interval [-ell, ell] with
Neumann ends and records the oscillation of the solution over time.  The
oscillation decays like exp(-lambda_1 t), so a least-squares fit of log
osc recovers the first nonzero eigenvalue of the matching weighted
problem.

The envelope check takes a recorded trajectory and a candidate barrier
phi(s, t): it verifies the barrier's supersolution property and monotonicity
numerically at t = 0, then compares the modulus of continuity at every
recorded time against 2 phi(d/2, t).  On the uniform grid all pairs at one
index offset lie the same distance apart, so the sweep over all pairs
keeps one largest gap per offset and the barrier is evaluated on the n - 1
offset distances only.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateInitialData, DomainError, StabilityFailure

__all__ = [
    "DecayFit",
    "FlowResult",
    "EnvelopeReport",
    "LINEAR",
    "heatflow_1d",
    "modulus_envelope_check",
    "modulus_of_continuity",
    "FIT_RESIDUAL_MAX",
    "MAX_FLOW_NODES",
]

# rms residual of the log-oscillation fit above which the fit is rejected
FIT_RESIDUAL_MAX = 1e-3
HYPOTHESIS_RTOL = 1e-4  # relative slack of the envelope check's hypotheses

# fraction of the diffusion / transport stability limits actually used
CFL_SAFETY = 0.4
# grid nodes per flow: the linear flow's dense n x n propagator takes
# 8 n^2 bytes (32 MB at n = 2048), and the envelope check's offset sweep
# about 3 x 8 x n x (RECORDS + 1) bytes (20 MB at n = 2048)
MAX_FLOW_NODES = 2048
RECORDS = 400  # record intervals per flow, each one propagator product


# the profile argument of heatflow_1d, kept for its positional callers: the
# flow is always the linear u_t = u'' - drift u'
LINEAR = "linear"


@dataclass
class DecayFit:
    """Least-squares exponential rate of the oscillation decay."""

    fitted_rate: float
    target_rate: float
    fit_window: tuple
    fit_residual: float


@dataclass
class FlowResult:
    """A recorded trajectory of the 1D flow."""

    xs: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    osc: np.ndarray = field(repr=False)
    drift: Callable | None
    length: float
    fit: DecayFit | None = None
    # explicit Euler steps folded into the propagator, and the stable step
    steps: int = 0
    dt: float = 0.0


@dataclass
class EnvelopeReport:
    """Outcome of a modulus-vs-envelope comparison."""

    ok: bool
    max_violation: float
    supersolution_margin: float
    monotone_margin: float
    initial_violation: float


def heatflow_1d(
    drift: Callable | None,
    profile: str,
    ell: float,
    u0,
    T: float,
    n: int = 192,
    fit_target: float | None = None,
) -> FlowResult:
    """Evolve the flow on [-ell, ell] and record oscillation over time.

    `u0` is a callable sampled on the grid.  The grid is cell-centered
    (nodes at half-cell offsets from the ends), so a drift with integrable
    singularities at the endpoints stays finite.  Explicit Euler stepping
    with combined diffusion/transport stability control; the step shrinks
    where the drift is large.  The right-hand side and the step are fixed,
    so each of the RECORDS record intervals is one precomputed propagator.
    `profile` must be LINEAR.  When `fit_target` is given, log osc is
    fitted on the final third of [0, T] and reported as a DecayFit
    against that target.
    """
    if profile != LINEAR:
        raise DomainError(f"the only flow profile is LINEAR, got {profile!r}")
    if not (np.isfinite(ell) and ell > 0):
        raise DomainError(f"half-length must be positive and finite, got {ell}")
    if not (np.isfinite(T) and T > 0):
        raise DomainError(f"time horizon must be positive and finite, got {T}")
    if not 16 <= n <= MAX_FLOW_NODES:
        raise DomainError(f"need 16 to {MAX_FLOW_NODES} nodes, got {n}")
    record_times = np.linspace(0.0, T, RECORDS + 1)
    h = 2.0 * ell / n
    xs = -ell + (np.arange(n) + 0.5) * h
    u = np.asarray(u0(xs), dtype=float)
    if u.shape != xs.shape:
        raise DomainError(f"initial data must have {n} values, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise DomainError("initial data must be finite")
    scale = max(1.0, float(np.max(np.abs(u))))
    if float(np.max(u) - np.min(u)) <= 1e-14 * scale:
        raise DegenerateInitialData("initial data is constant; oscillation cannot decay")

    tau = np.asarray(drift(xs), dtype=float) if drift is not None else np.zeros(n)
    if tau.shape != xs.shape or not np.all(np.isfinite(tau)):
        raise DomainError("drift must be finite on the interior grid")

    states = np.empty((RECORDS + 1, n))
    states[0] = u
    # u_t = L u with L = D2 - tau D1 and one fixed step dt: a record
    # interval is s full Euler steps and a remainder step r, so each
    # record advances by the propagator (I + r L)(I + dt L)^s
    eye = np.eye(n)
    d1, d2 = _differences(eye, h)
    lop = d2 - tau[:, None] * d1
    dt = _stable_step(float(np.max(np.abs(tau))), h, T / 1e8)
    s = int((T / RECORDS) // dt)
    r = T / RECORDS - s * dt
    prop = np.linalg.matrix_power(eye + dt * lop, s)
    if r > 0.0:
        prop = (eye + r * lop) @ prop
    steps = RECORDS * (s + int(r > 0.0))
    for k in range(1, RECORDS + 1):
        np.dot(prop, states[k - 1], out=states[k])
    # checked once over the table, naming the first record that is not finite
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t = record_times[np.argmin(finite)]
        raise StabilityFailure(f"solution lost finiteness by t = {t:.6f}")

    osc = states.max(axis=1) - states.min(axis=1)
    fit = None
    if fit_target is not None:
        window = record_times >= (2.0 / 3.0) * T
        ts_w = record_times[window]
        log_osc = np.log(osc[window])
        slope, intercept = np.polyfit(ts_w, log_osc, 1)
        resid = float(np.sqrt(np.mean((log_osc - (slope * ts_w + intercept)) ** 2)))
        fit = DecayFit(
            fitted_rate=float(-slope),
            target_rate=float(fit_target),
            fit_window=(float(ts_w[0]), float(ts_w[-1])),
            fit_residual=resid,
        )
    return FlowResult(
        xs=xs,
        times=record_times,
        states=states,
        osc=osc,
        drift=drift,
        length=ell,
        fit=fit,
        steps=steps,
        dt=dt,
    )


def _differences(u, h):
    """Central first and second differences along axis 0, ghost-copy Neumann ends."""
    pad = np.concatenate((u[:1], u, u[-1:]))
    return (pad[2:] - pad[:-2]) * (0.5 / h), (pad[2:] - 2.0 * u + pad[:-2]) * (1.0 / (h * h))


def _stable_step(transport, h, dt_min):
    """Largest explicit step the diffusion and transport limits allow."""
    dt = CFL_SAFETY * (h * h) / 2.0
    if transport > 0.0:
        dt = min(dt, CFL_SAFETY * h / transport)
    if dt < dt_min:
        raise StabilityFailure(f"stable step {dt:.3e} fell below {dt_min:.3e}")
    return dt


def modulus_of_continuity(xs, states):
    """Largest gap per grid offset of each recorded state, with its distance.

    On a uniform grid every pair (i, i + d) is the same d h apart, so the
    modulus of continuity of a state at half-distance s_d = d h / 2 is
    max_i |u(i + d) - u(i)|.  Returns the n - 1 half-distances s_d and an
    (n - 1, len(states)) table of those maxima; every pair is swept once.
    The states are copied node-major, so each offset is one contiguous
    difference over all records into a reused buffer.  The copy, the
    buffer and the table take about 3 x 8 x n x len(states) bytes.
    """
    xs = np.asarray(xs, dtype=float)
    hs = np.diff(xs)
    if hs.size == 0 or not np.allclose(hs, hs[0], rtol=1e-10, atol=0.0):
        raise DomainError("modulus of continuity needs a uniform grid of at least 2 nodes")
    nodes = np.ascontiguousarray(np.asarray(states, dtype=float).T)
    n = len(xs)
    if nodes.shape[0] != n:
        raise DomainError(f"states must have {n} nodes per record, got {nodes.shape[0]}")
    buf = np.empty((n - 1, nodes.shape[1]))
    gap_max = np.empty_like(buf)
    for d in range(1, n):
        diff = buf[: n - d]
        np.subtract(nodes[d:], nodes[:-d], out=diff)
        np.abs(diff, out=diff)
        np.max(diff, axis=0, out=gap_max[d - 1])
    return 0.5 * np.abs(xs[1:] - xs[0]), gap_max


def modulus_envelope_check(
    result: FlowResult,
    envelope: Callable,
    tol: float = 1e-6,
) -> EnvelopeReport:
    """Compare the trajectory's modulus of continuity against a barrier.

    `envelope` maps (s array, t) to barrier values on s in [0, ell].  Three
    numerical hypothesis checks at t = 0 (supersolution margin against the
    trajectory's own drift, s-monotonicity, initial
    domination), then the modulus of every record against 2 phi(s, t).
    The grid must be uniform (DomainError otherwise): the pair sweep of
    `modulus_of_continuity` leaves one largest gap per offset, so the
    envelope is called once per record on the n - 1 offset distances.
    Violations are reported, never raised.
    """
    s_offsets, gap_max = modulus_of_continuity(result.xs, result.states)
    ell = result.length

    # hypothesis grid: endpoints included for evaluation, conditions at
    # the interior nodes where central differences are defined
    ns = 256
    s_grid = np.linspace(0.0, ell, ns + 1)
    ds = ell / ns
    phi0 = np.asarray(envelope(s_grid, 0.0), dtype=float)
    dt_fd = 1e-7 * max(1.0, float(result.times[-1]))
    phi_t = (np.asarray(envelope(s_grid, dt_fd), dtype=float) - phi0) / dt_fd
    d1 = (phi0[2:] - phi0[:-2]) / (2.0 * ds)
    d2 = (phi0[2:] - 2.0 * phi0[1:-1] + phi0[:-2]) / (ds * ds)
    s_int = s_grid[1:-1]
    tau = np.asarray(result.drift(s_int), dtype=float) if result.drift else np.zeros(ns - 1)
    lphi = d2 - tau * d1
    margin = phi_t[1:-1] - lphi
    hyp_scale = max(1.0, float(np.max(np.abs(lphi))))
    supersolution_margin = float(np.min(margin))
    monotone_margin = float(np.min(d1))

    # the barrier at every offset and record, then one sweep over the offsets
    env = np.empty_like(gap_max)
    for k, t in enumerate(result.times):
        env[:, k] = envelope(s_offsets, float(t))
    env *= 2.0
    viol = np.max(np.subtract(gap_max, env, out=env), axis=0)
    initial_violation = float(viol[0])
    max_violation = float(np.max(viol))

    ok = (
        supersolution_margin >= -HYPOTHESIS_RTOL * hyp_scale
        and monotone_margin >= -HYPOTHESIS_RTOL
        and initial_violation <= tol
        and max_violation <= tol
    )
    return EnvelopeReport(
        ok=bool(ok),
        max_violation=float(max_violation),
        supersolution_margin=supersolution_margin,
        monotone_margin=monotone_margin,
        initial_violation=float(initial_violation),
    )
