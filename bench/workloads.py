"""Seeded inputs, the ops that run them, and each op's correctness oracle.

A workload is a list of rounds drawn from the benchmark seed before any
timing starts.  Every round follows the workload's fixed template of
slots (family, path, reference), so two seeds run the same mix of work
and differ only in the parameters drawn inside each slot.  The loop in
run.py is a closed loop with one client that walks the rounds in order.

An op is a call plus an oracle.  The oracles use only the tolerances the
acceptance criteria in tests/test_acceptance.py already pin.  Inputs of
the ROADMAP item-4 failure classes are fixed ops tagged with `defect`;
run.py runs them once per run outside the timed loop, so the known
defects show in every run record instead of being hidden.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from eigenbounds import bounds, cli, heatflow, surfaces
from eigenbounds.coefficients import (
    CurvatureParams,
    drift_kahler,
    first_zero,
    weight_dirichlet_radius,
)
from eigenbounds.errors import SolverError, ValidityError
from eigenbounds.heatflow import FIT_RESIDUAL_MAX, LINEAR

WORKLOADS = ("bounds", "checks")

# rounds drawn per run; the loop starts over at the first when it runs out
ROUNDS = 40

# tolerances pinned by the acceptance criteria
AGREEMENT_TOL = 1e-5  # criterion 5: shooting vs finite differences
CLOSED_FORM_TOL = 1e-7  # criteria 1 and 4: shooting vs closed form
RIEMANN_SHARP_TOL = 1e-5  # criterion 4: Riemannian sharp limit
FD_SHARP_TOL = 1e-4  # criterion 1: finite differences vs closed form
SPHERE_TOL = 5e-3  # criterion 8
RATE_TOL = 1e-2  # criterion 6
ENVELOPE_TOL = 1e-6  # criterion 7
COLLAPSE_MAX = 1.10  # criterion 10
CAPSULE_ASPECTS = (0.2, 0.05, 0.02)  # criterion 10
SPHERE_RADII = (1.0, 0.5, 2.0)  # criterion 8

# diameter or inradius drawn when curvature sets no cap
NO_CAP = 6.0
# fractions of the cap drawn in the bulk and next to the cap
BULK = (0.05, 0.95)
NEAR = (0.95, 0.999)
# Negative curvature or a negative shape parameter makes the weight grow
# like exp(a t), and the first eigenvalue falls like exp(-a ell), with a
# the largest log-derivative of the weight.  Draws keep a * ell <= 8; the
# NoBracketFound failures of ROADMAP item 4(a) start near a * ell = 11,
# and that class enters only through defect_ops.
MAX_GROWTH = 8.0

# the seed the package's own suites use; it fixes the baseline convex surface
SUITE_SEED = 20240817


@dataclass
class Check:
    """Outcome of an op's oracle, with the accuracy figures it measured."""

    ok: bool
    ref_err: float | None = None
    gap: float | None = None


@dataclass
class Op:
    """One request: `call` is timed, `check` is its oracle.

    `panel` marks an op whose input is the same on every seed; the
    accuracy metrics are taken over these.  `defect` names the ROADMAP
    item-4 class of an input known to fail.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Check]
    panel: bool = False
    defect: str | None = None


class ExitCode(Exception):
    """The CLI returned a nonzero exit code."""

    def __init__(self, code):
        super().__init__(f"exit {code}")
        self.code = code


EXIT_CLASS = {1: "solver", 2: "validity"}


def execute(op):
    """Run one op; return its record with its class: ok or how it failed."""
    error = None
    t0 = time.perf_counter()
    try:
        raw = op.call()
        cls = None
    except ExitCode as exc:
        cls, error = EXIT_CLASS.get(exc.code, "exception"), str(exc)
    except ValidityError as exc:
        cls, error = "validity", repr(exc)
    except SolverError as exc:
        cls, error = "solver", repr(exc)
    except Exception as exc:  # an uncaught exception is a traceback: record it, go on
        cls, error = "exception", repr(exc)
    elapsed = time.perf_counter() - t0
    check = Check(False)
    if cls is None:
        check = op.check(raw)
        cls = "ok" if check.ok else "wrong"
    return {
        "kind": op.kind, "elapsed_s": elapsed, "class": cls, "panel": op.panel,
        "defect": op.defect, "ref_err": check.ref_err, "gap": check.gap, "error": error,
    }


def is_correct(log):
    """No wrong answer, and every failure is a known-defect input."""
    return all(r["class"] == "ok" or (r["defect"] and r["class"] != "wrong") for r in log)


# ---------------------------------------------------------------------------
# bound ops through the CLI


def _cli_bound(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise ExitCode(code)
    return json.loads(out.getvalue())["results"]


def _argv(family, **flags):
    argv = ["bound", family]
    for key, value in flags.items():
        argv += ["--lambda" if key == "lam" else f"--{key}", repr(value)]
    return argv


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _regular_check(ref=None):
    def check(res):
        gap = res["method_agreement"]
        ok = gap < AGREEMENT_TOL
        ref_err = None
        if ref is not None:
            ref_err = _rel(res["value"], ref)
            ok = ok and ref_err < CLOSED_FORM_TOL
        return Check(ok, ref_err, gap)

    return check


def _sharp_check(ref, shoot_tol):
    def check(res):
        ref_err = _rel(res["shooting_value"], ref)
        ok = (
            res["is_limit"]
            and ref_err < shoot_tol
            and _rel(res["fd_value"], ref) < FD_SHARP_TOL
        )
        return Check(ok, ref_err, res["method_agreement"])

    return check


def _bound_op(kind, family, check, panel=False, defect=None, **flags):
    argv = _argv(family, **flags)
    return Op(kind, lambda: _cli_bound(argv), check, panel, defect)


# ---------------------------------------------------------------------------
# bounds


def _kahler_cap(m, k1, k2):
    cap = math.inf
    if k1 > 0:
        cap = math.pi / (2.0 * math.sqrt(k1))
    if m > 1 and k2 > 0:
        cap = min(cap, math.pi / math.sqrt(k2))
    return cap


def _rate(kappa, lam=0.0):
    """Largest log-derivative of the profile c_kappa - lam s_kappa for t >= 0."""
    return max(-lam, math.sqrt(max(-kappa, 0.0)), 0.0)


def _kahler_growth(m, k1, k2, lam=0.0):
    return _rate(4.0 * k1, lam) + (2 * m - 2) * _rate(k2, lam)


def _riemann_growth(n, k, lam=0.0):
    return (n - 1) * _rate(k, lam)


def _safe_length(growth):
    return MAX_GROWTH / growth if growth > 0 else math.inf


def _regular_draws(rng):
    """Eleven regular bounds over all four families.

    m 1..8, n 2..10, curvatures in [-1, 1], D or R a fraction of its cap
    (NO_CAP without one).  Three draws are flat and have a closed form;
    four sit at 0.95..0.999 of a cap, where the shooting mesh is graded
    into the boundary layer.
    """
    u = rng.uniform

    def m_():
        return int(rng.integers(1, 9))

    def n_():
        return int(rng.integers(2, 11))

    ops = []
    # kahler-neumann: flat, two bulk, near cap
    D = u(*BULK) * NO_CAP
    ops.append(_bound_op("kahler_neumann_flat", "kahler-neumann",
                         _regular_check(math.pi**2 / D**2), m=m_(), k1=0.0, k2=0.0, D=D))
    for _ in range(2):
        m, k1, k2 = m_(), u(-1, 1), u(-1, 1)
        d_max = min(_kahler_cap(m, k1, k2), NO_CAP, 2.0 * _safe_length(_kahler_growth(m, k1, k2)))
        ops.append(_bound_op("kahler_neumann", "kahler-neumann", _regular_check(),
                             m=m, k1=k1, k2=k2, D=u(*BULK) * d_max))
    m, k1, k2 = m_(), u(0.05, 1), u(0, 1)
    ops.append(_bound_op("kahler_neumann_near_cap", "kahler-neumann", _regular_check(),
                         m=m, k1=k1, k2=k2, D=u(*NEAR) * _kahler_cap(m, k1, k2)))

    # kahler-dirichlet: flat, bulk, near the validity radius
    R = u(*BULK) * NO_CAP
    ops.append(_bound_op("kahler_dirichlet_flat", "kahler-dirichlet",
                         _regular_check(math.pi**2 / (4.0 * R**2)),
                         m=m_(), k1=0.0, k2=0.0, lam=0.0, R=R))
    m, k1, k2, lam = m_(), u(-1, 1), u(-1, 1), u(-1, 1)
    rad = weight_dirichlet_radius(CurvatureParams(m=m, kappa1=k1, kappa2=k2), lam)
    r_max = min(rad, NO_CAP, _safe_length(_kahler_growth(m, k1, k2, lam)))
    ops.append(_bound_op("kahler_dirichlet", "kahler-dirichlet", _regular_check(),
                         m=m, k1=k1, k2=k2, lam=lam, R=u(*BULK) * r_max))
    m, k1, k2, lam = m_(), u(0.05, 1), u(0, 1), u(0.1, 1)
    rad = weight_dirichlet_radius(CurvatureParams(m=m, kappa1=k1, kappa2=k2), lam)
    ops.append(_bound_op("kahler_dirichlet_near_cap", "kahler-dirichlet", _regular_check(),
                         m=m, k1=k1, k2=k2, lam=lam, R=u(*NEAR) * rad))

    # riemannian-neumann: bulk, near cap
    n, k = n_(), u(-1, 1)
    cap = math.pi / math.sqrt(k) if k > 0 else math.inf
    d_max = min(cap, NO_CAP, 2.0 * _safe_length(_riemann_growth(n, k)))
    ops.append(_bound_op("riemannian_neumann", "riemannian-neumann", _regular_check(),
                         n=n, k=k, D=u(*BULK) * d_max))
    n, k = n_(), u(0.05, 1)
    ops.append(_bound_op("riemannian_neumann_near_cap", "riemannian-neumann", _regular_check(),
                         n=n, k=k, D=u(*NEAR) * math.pi / math.sqrt(k)))

    # riemannian-dirichlet: flat, bulk
    R = u(*BULK) * NO_CAP
    ops.append(_bound_op("riemannian_dirichlet_flat", "riemannian-dirichlet",
                         _regular_check(math.pi**2 / (4.0 * R**2)),
                         n=n_(), k=0.0, lam=0.0, R=R))
    n, k, lam = n_(), u(-1, 1), u(-1, 1)
    r_max = min(first_zero(k, lam), NO_CAP, _safe_length(_riemann_growth(n, k, lam)))
    ops.append(_bound_op("riemannian_dirichlet", "riemannian-dirichlet", _regular_check(),
                         n=n, k=k, lam=lam, R=u(*BULK) * r_max))
    return ops


def _sharp_draws(rng):
    """Four bounds on their maximal diameter, each with a closed form."""
    u = rng.uniform
    # kappa2 = 0, where the kappa1-sharp value is exactly 8 kappa1
    m, k1 = int(rng.integers(1, 9)), u(0.1, 4.0)
    ops = [_bound_op("kappa1_sharp", "kahler-neumann", _sharp_check(8.0 * k1, CLOSED_FORM_TOL),
                     m=m, k1=k1, D=math.pi / (2.0 * math.sqrt(k1)))]
    for _ in range(2):
        m, k2 = int(rng.integers(2, 9)), u(0.25, 2.0)
        ops.append(_bound_op("kappa2_sharp", "kahler-neumann",
                             _sharp_check((2 * m - 1) * k2, CLOSED_FORM_TOL),
                             m=m, k2=k2, D=math.pi / math.sqrt(k2)))
    n, k = int(rng.integers(2, 9)), u(0.25, 2.0)
    ops.append(_bound_op("riemannian_sharp", "riemannian-neumann",
                         _sharp_check(n * k, RIEMANN_SHARP_TOL),
                         n=n, k=k, D=math.pi / math.sqrt(k)))
    return ops


def defect_ops(workload):
    """The ROADMAP item-4 inputs, run once per run outside the timed loop.

    They fail today, and a failing op in the loop would make the failure
    count follow throughput; run a fixed number of times they record the
    known defects in every run record, and a fix shows there as `ok`.
    """
    if workload != "bounds":
        return []
    return [
        # 4(a): valid inputs refused with NoBracketFound
        _bound_op("defect_4a", "riemannian-neumann", _regular_check(),
                  defect="4a", n=5, k=-1.0, D=20.0),
        _bound_op("defect_4a", "kahler-neumann", _regular_check(),
                  defect="4a", m=3, k1=-1.0, k2=-1.0, D=6.0),
        # 4(b): c^78 underflows and eigh_tridiagonal raises a raw
        # ValueError instead of an exit code
        _bound_op("defect_4b", "kahler-neumann", _sharp_check(79.0, CLOSED_FORM_TOL),
                  defect="4b", m=40, k2=1.0, D=math.pi),
    ]


def _bounds_round(rng, index):
    """One round of bound requests: 5 panel ops and 15 draws.

    Regular bounds pay a cold bracket scan, refinement and the
    eigenfunction pass, so a faster scan, S(lam) kernel or a dropped
    eigenfunction pass shows on them.  Sharp bounds run one cold scan,
    then warm-started truncated solves on graded meshes and the limit
    fit, so a saving per S(lam) evaluation shows on both kinds.  Draws
    are interleaved about three regular to one sharp, so that any prefix
    of the round holds about the same mix.  Sharp bounds take about three
    times as long as regular ones; regular ones are 14 of the 20 ops, so
    the median latency sits well inside the regular ones.
    """
    # the ROADMAP baseline cases, and criterion 1's flat case for a
    # regular closed-form reference
    panel = [
        _bound_op("baseline_kahler_neumann", "kahler-neumann", _regular_check(),
                  panel=True, m=2, k1=0.25, D=2.0),
        _bound_op("baseline_kahler_dirichlet", "kahler-dirichlet", _regular_check(),
                  panel=True, m=2, k1=0.25, k2=1.0, lam=0.0, R=0.6),
        _bound_op("flat_reference", "kahler-neumann", _regular_check(math.pi**2),
                  panel=True, m=2, D=1.0),
        _bound_op("baseline_kappa1_sharp", "kahler-neumann", _sharp_check(8.0, CLOSED_FORM_TOL),
                  panel=True, m=2, k1=1.0, D=math.pi / 2.0),
        _bound_op("baseline_kappa2_sharp", "kahler-neumann", _sharp_check(9.0, CLOSED_FORM_TOL),
                  panel=True, m=5, k2=1.0, D=math.pi),
    ]
    regular, sharp = _regular_draws(rng), _sharp_draws(rng)
    draws = []
    while regular or sharp:
        draws += regular[:3] + sharp[:1]
        regular, sharp = regular[3:], sharp[1:]
    return panel[:3] + draws[:10] + panel[3:] + draws[10:]


# ---------------------------------------------------------------------------
# checks: surface comparison checks and heat flows


@contextlib.contextmanager
def _bound_tap(seen):
    """Keep each BoundResult that comparison_check computes, for its gap."""
    inner = surfaces.kahler_neumann_bound

    def tap(*args, **kwargs):
        res = inner(*args, **kwargs)
        seen.append(res)
        return res

    surfaces.kahler_neumann_bound = tap
    try:
        yield
    finally:
        surfaces.kahler_neumann_bound = inner


def _comparison(profile):
    seen = []
    with _bound_tap(seen):
        rep = surfaces.comparison_check(profile)
    return rep, seen[-1].method_agreement


def _convex_op(kind, profile, panel=False):
    def check(raw):
        rep, gap = raw
        return Check(rep.ok, None, gap)

    return Op(kind, lambda: _comparison(profile), check, panel)


def _sphere_op(a):
    exact = 2.0 / a**2

    def check(raw):
        rep, gap = raw
        ref_err = _rel(rep.mu1, exact)
        ok = ref_err < SPHERE_TOL and _rel(rep.mu1, rep.bound) < SPHERE_TOL
        return Check(ok, ref_err, gap)

    profile = surfaces.sphere_profile(a)
    return Op("sphere", lambda: _comparison(profile), check, panel=True)


def _collapse():
    ratios = []
    for aspect in CAPSULE_ASPECTS:
        prof = surfaces.capsule_profile(aspect)
        mu1 = surfaces.surface_eigen(prof).mu1
        dhat = surfaces.surface_diameter_upper(prof).value
        ratios.append(mu1 * dhat**2 / math.pi**2)
    return ratios


def _collapse_check(ratios):
    return Check(ratios[0] > ratios[1] > ratios[2] > 1.0 and ratios[2] <= COLLAPSE_MAX)


def _surface_round(rng, index):
    """One round: the ROADMAP baseline convex check, two seeded convex
    surfaces, a sphere and the capsule collapsing family.  Sphere radii
    cycle through the sphere suite's radii; the relative error of mu1 is
    scale free, so it is the same on every radius.

    The diameter graph and Dijkstra do most of the work, the mode solver
    almost none and the bound (a limit bound when the diameter is clamped
    to its cap) about a third.
    """
    baseline = surfaces.random_convex_profile(np.random.default_rng(SUITE_SEED))
    return [
        _convex_op("baseline_convex", baseline, panel=True),
        _convex_op("convex", surfaces.random_convex_profile(rng)),
        _convex_op("convex", surfaces.random_convex_profile(rng)),
        _sphere_op(SPHERE_RADII[index % len(SPHERE_RADII)]),
        Op("capsule_collapse", _collapse, _collapse_check),
    ]




def _decay_check(ref_is_closed_form):
    def check(raw):
        flow, gap = raw
        fit = flow.fit
        rel = _rel(fit.fitted_rate, fit.target_rate)
        monotone = bool(np.all(np.diff(flow.osc) <= 1e-12 * flow.osc[0]))
        ok = rel < RATE_TOL and fit.fit_residual < FIT_RESIDUAL_MAX and monotone
        return Check(ok, rel if ref_is_closed_form else None, gap)

    return check


def _tanh_data(c):
    return lambda x: np.tanh(c * x)


def _flat_decay(u0):
    return heatflow.heatflow_1d(None, LINEAR, 0.5, u0, 3.0, n=128, fit_target=math.pi**2), None


def _kappa2_decay(u0):
    params = CurvatureParams(m=2, kappa1=0.0, kappa2=1.0)
    flow = heatflow.heatflow_1d(
        lambda x: drift_kahler(params, x), LINEAR, math.pi / 2, u0, 2.0, n=128, fit_target=3.0
    )
    return flow, None


def _kappa1_decay(u0):
    params = CurvatureParams(m=1, kappa1=-0.25, kappa2=0.0)
    target = bounds.kahler_neumann_bound(params, 2.0)
    flow = heatflow.heatflow_1d(
        lambda x: drift_kahler(params, x), LINEAR, 1.0, u0, 3.0, n=128,
        fit_target=target.value,
    )
    return flow, target.method_agreement


def _flat_psi(s):
    return np.sin(math.pi * np.asarray(s, dtype=float)) / math.pi


def _envelope(u0):
    flow = heatflow.heatflow_1d(None, LINEAR, 0.5, u0, 1.5, n=128)
    iu, ju = np.triu_indices(len(flow.xs), k=1)
    s_pairs = 0.5 * np.abs(flow.xs[ju] - flow.xs[iu])
    gaps = np.abs(flow.states[0][ju] - flow.states[0][iu])
    big_c = float(np.max(gaps / (2.0 * _flat_psi(s_pairs))))
    lam = math.pi**2
    return heatflow.modulus_envelope_check(
        flow, lambda s, t: big_c * math.exp(-lam * t) * _flat_psi(s), tol=ENVELOPE_TOL
    )


def _envelope_check(rep):
    return Check(rep.ok and rep.max_violation <= ENVELOPE_TOL)


def _smooth_data(coef):
    def u0(x):
        out = np.sin(math.pi * x)
        for j, c in enumerate(coef):
            out = out + 0.2 * c * np.cos((j + 1) * math.pi * x) / (j + 1)
        return out

    return u0


def _heat_round(rng, index):
    """One round: decay flows on the three suite drifts (flat, kappa2 > 0,
    kappa1 < 0) and three envelope checks on flat flows, as in the
    heat-flow suite.

    Flat flows start from seeded data: tanh(c x) with a seeded c, and
    seeded smooth modes.  The curved flows keep the suite's data, which
    makes them the panel.  Explicit stepping and the O(n^2) pair sweep do
    the work, with shooting (the kappa1 < 0 target rate) near 5%.
    """
    decay = _tanh_data(rng.uniform(4.0, 8.0))
    envelopes = [_tanh_data(rng.uniform(4.0, 8.0)),
                 _smooth_data(rng.normal(size=4)), _smooth_data(rng.normal(size=4))]
    return [
        Op("decay_flat", lambda: _flat_decay(decay), _decay_check(True)),
        Op("envelope_flat", lambda: _envelope(envelopes[0]), _envelope_check),
        Op("decay_kappa2_positive", lambda: _kappa2_decay(_tanh_data(4.0)),
           _decay_check(True), panel=True),
        Op("envelope_flat", lambda: _envelope(envelopes[1]), _envelope_check),
        Op("decay_kappa1_negative", lambda: _kappa1_decay(_tanh_data(5.0)),
           _decay_check(False), panel=True),
        Op("envelope_flat", lambda: _envelope(envelopes[2]), _envelope_check),
    ]


def _checks_round(rng, index):
    """One surface round and one heat round, interleaved.

    Bounds are a small share here: shooting does about a sixth of the
    work, Dijkstra on the diameter graph 30% and explicit heat stepping
    half, so a diameter-graph or heat-flow change shows only here, and a
    solver change should move this workload far less than `bounds`.  The two kinds of check share one workload so that
    each run can be long enough to average out the host's speed drift.
    """
    heat, surface = _heat_round(rng, index), _surface_round(rng, index)
    return [op for pair in zip(heat, surface + [None]) for op in pair if op]


_ROUND = {
    "bounds": _bounds_round,
    "checks": _checks_round,
}


def make_rounds(workload, seed, rounds=ROUNDS):
    """All rounds of a workload, drawn from the seed before timing starts."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [_ROUND[workload](rng, i) for i in range(rounds)]
