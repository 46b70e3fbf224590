"""Named verification suites bundling the cross-checks behind one runner.

Each suite returns per-check records (name, inputs, computed values,
margins, pass/fail) so the front end can render them as JSON; the
heat-flow suite also keeps its oscillation time series for CSV output.
Suites are deterministic given the seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    explicit_bound_table,
    kahler_dirichlet_bound,
    kahler_neumann_bound,
    monotonicity_scan,
)
from .coefficients import CurvatureParams, drift_kahler, weight_kahler
from .errors import DomainError, NotDecreasing
from .heatflow import (
    FIT_RESIDUAL_MAX,
    LINEAR,
    heatflow_1d,
    modulus_envelope_check,
    modulus_of_continuity,
)
from .sturm_liouville import SLProblem, neumann_first_nonzero_direct, solve_shooting
from .surfaces import (
    capsule_profile,
    comparison_check,
    random_convex_profile,
    sphere_profile,
    surface_diameter_upper,
    surface_eigen,
)

__all__ = ["SUITE_NAMES", "DEFAULT_SEED", "SuiteResult", "run_suite"]

DEFAULT_SEED = 20240817


@dataclass
class SuiteResult:
    """Outcome of one named suite."""

    name: str
    checks: list
    series: dict = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c["ok"])

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c["ok"])

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
            "checks": self.checks,
        }


def _chk(name, inputs, values, tol, ok):
    return {
        "name": name,
        "inputs": inputs,
        "values": values,
        "tol": tol,
        "ok": bool(ok),
    }


# half-interval mixed value vs the independent full-interval solver, on
# parameter tuples spanning the curvature sign combinations
LEMMA32_TUPLES = (
    (1, 1.0, 0.0, 1.2),
    (2, -1.0, 1.0, 2.0),
    (3, 0.0, -1.0, 1.5),
    (2, 0.5, 0.5, 1.8),
    (5, 0.0, 0.0, 2.0),
)


def lemma32_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    for m, k1, k2, D in LEMMA32_TUPLES:
        params = CurvatureParams(m=m, kappa1=k1, kappa2=k2)
        weight = lambda t, p=params: weight_kahler(p, t)
        full = neumann_first_nonzero_direct(weight, 0.5 * D, n=grid)
        half = solve_shooting(SLProblem(length=0.5 * D, weight=weight))
        rel = abs(full.value - half.value) / max(full.value, half.value)
        checks.append(
            _chk(
                "half_interval_reduction",
                {"m": m, "kappa1": k1, "kappa2": k2, "D": D},
                {"full_interval": full.value, "half_interval": half.value, "agreement": rel},
                1e-6,
                rel < 1e-6,
            )
        )
    return SuiteResult("lemma32", checks)


def prop13_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    for row in explicit_bound_table(n=grid):
        dev = abs(row["ratio"] - 1.0)
        checks.append(
            _chk(
                f"explicit_value_{row['case']}",
                {"m": row["m"], "kappa1": row["kappa1"], "kappa2": row["kappa2"], "D": row["D"]},
                {"expected": row["expected"], "computed": row["computed"], "ratio": row["ratio"]},
                1e-6,
                dev <= 1e-6,
            )
        )
    return SuiteResult("prop13", checks)


DIRICHLET_TUPLES = (
    (1, 1.0, 0.0, 0.5),
    (2, 0.25, 1.0, 0.6),
    (3, -0.5, -1.0, 0.8),
    (2, 0.0, 0.5, 0.7),
    (5, -1.0, 0.25, 0.4),
)


def dirichlet_identity_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    for m, k1, k2, R in DIRICHLET_TUPLES:
        params = CurvatureParams(m=m, kappa1=k1, kappa2=k2)
        d = kahler_dirichlet_bound(params, 0.0, R, n=grid)
        nb = kahler_neumann_bound(params, 2.0 * R, n=grid)
        rel = abs(d.value - nb.value) / max(d.value, nb.value)
        checks.append(
            _chk(
                "dirichlet_lambda0_reduction",
                {"m": m, "kappa1": k1, "kappa2": k2, "R": R},
                {"dirichlet": d.value, "neumann_2R": nb.value, "agreement": rel},
                1e-8,
                rel < 1e-8,
            )
        )
    return SuiteResult("dirichlet-identity", checks)


def _flow_check(name, inputs, flow):
    osc_ok = bool(np.all(np.diff(flow.osc) <= 1e-12 * flow.osc[0]))
    rel = abs(flow.fit.fitted_rate - flow.fit.target_rate) / flow.fit.target_rate
    values = {
        "fitted_rate": flow.fit.fitted_rate,
        "target_rate": flow.fit.target_rate,
        "relative_gap": rel,
        "fit_residual": flow.fit.fit_residual,
        "oscillation_monotone": osc_ok,
        "steps": flow.steps,
        "dt": flow.dt,
    }
    ok = rel < 1e-2 and flow.fit.fit_residual < FIT_RESIDUAL_MAX and osc_ok
    return _chk(name, inputs, values, 1e-2, ok)


def _flat_psi(s):
    return np.sin(math.pi * np.asarray(s, dtype=float)) / math.pi


def _envelope_check(name, u0, seedval):
    flow = heatflow_1d(None, LINEAR, 0.5, u0, 1.5, n=128)
    s_offsets, gap_max = modulus_of_continuity(flow.xs, flow.states[:1])
    big_c = float(np.max(gap_max[:, 0] / (2.0 * _flat_psi(s_offsets))))
    lam = math.pi**2
    rep = modulus_envelope_check(
        flow, lambda s, t: big_c * math.exp(-lam * t) * _flat_psi(s), tol=1e-6
    )
    values = {
        "max_violation": rep.max_violation,
        "supersolution_margin": rep.supersolution_margin,
        "monotone_margin": rep.monotone_margin,
        "initial_violation": rep.initial_violation,
        "amplitude": big_c,
    }
    return _chk(name, {"initial_data": seedval, "rate": lam}, values, 1e-6, rep.ok)


def heatflow_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    series = {}

    flat = heatflow_1d(
        None, LINEAR, 0.5, lambda x: np.tanh(6.0 * x), 3.0, n=128, fit_target=math.pi**2
    )
    checks.append(_flow_check("decay_flat", {"D": 1.0, "target": "pi^2"}, flat))
    series["flat"] = (flat.times, flat.osc)

    params = CurvatureParams(m=2, kappa1=0.0, kappa2=1.0)
    curved = heatflow_1d(
        lambda x: drift_kahler(params, x),
        LINEAR,
        math.pi / 2,
        lambda x: np.tanh(4.0 * x),
        2.0,
        n=128,
        fit_target=3.0,
    )
    checks.append(
        _flow_check("decay_kappa2_positive", {"m": 2, "kappa2": 1.0, "D": math.pi}, curved)
    )
    series["kappa2_positive"] = (curved.times, curved.osc)

    neg = CurvatureParams(m=1, kappa1=-0.25, kappa2=0.0)
    target = kahler_neumann_bound(neg, 2.0, n=grid).value
    hyper = heatflow_1d(
        lambda x: drift_kahler(neg, x),
        LINEAR,
        1.0,
        lambda x: np.tanh(5.0 * x),
        3.0,
        n=128,
        fit_target=target,
    )
    checks.append(
        _flow_check("decay_kappa1_negative", {"m": 1, "kappa1": -0.25, "D": 2.0}, hyper)
    )
    series["kappa1_negative"] = (hyper.times, hyper.osc)

    checks.append(
        _envelope_check("envelope_sign_like", lambda x: np.tanh(6.0 * x), "tanh(6x)")
    )
    checks.append(
        _envelope_check(
            "envelope_mixed_modes",
            lambda x: np.sin(math.pi * x) + 0.3 * np.cos(2.0 * math.pi * x),
            "sin(pi x) + 0.3 cos(2 pi x)",
        )
    )
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=4)

    def u0(x):
        out = np.sin(math.pi * x)
        for j, c in enumerate(coef):
            out = out + 0.2 * c * np.cos((j + 1) * math.pi * x) / (j + 1)
        return out

    checks.append(_envelope_check("envelope_random_smooth", u0, f"seed {seed}"))
    return SuiteResult("heatflow", checks, series=series)


def sphere_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    for a in (0.5, 1.0, 2.0):
        exact = 2.0 / a**2
        rep = comparison_check(sphere_profile(a), grid=grid)
        rel_exact = abs(rep.mu1 - exact) / exact
        rel_bound = abs(rep.mu1 - rep.bound) / rep.bound
        checks.append(
            _chk(
                "sphere_sharpness",
                {"a": a},
                {
                    "mu1": rep.mu1,
                    "exact": exact,
                    "bound": rep.bound,
                    "gap_to_exact": rel_exact,
                    "gap_to_bound": rel_bound,
                },
                5e-3,
                rel_exact < 5e-3 and rel_bound < 5e-3,
            )
        )
    return SuiteResult("sphere", checks)


def surfaces_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    rng = np.random.default_rng(seed)
    for i in range(10):
        rep = comparison_check(random_convex_profile(rng), grid=grid)
        checks.append(
            _chk(
                f"convex_profile_{i}",
                {"profile": rep.profile_name, "seed": seed},
                {
                    "mu1": rep.mu1,
                    "bound": rep.bound,
                    "margin": rep.margin,
                    "slack": rep.slack,
                    "k_min": rep.k_min,
                },
                -rep.slack,
                rep.ok,
            )
        )
    ratios = []
    for aspect in (0.2, 0.05, 0.02):
        prof = capsule_profile(aspect)
        mu1 = surface_eigen(prof).mu1
        dhat = surface_diameter_upper(prof).value
        ratios.append(mu1 * dhat**2 / math.pi**2)
    collapse_ok = ratios[0] > ratios[1] > ratios[2] > 1.0 and ratios[2] <= 1.10
    checks.append(
        _chk(
            "collapsing_family",
            {"aspects": [0.2, 0.05, 0.02]},
            {"ratios": ratios},
            1.10,
            collapse_ok,
        )
    )
    return SuiteResult("surfaces", checks)


def monotonicity_suite(seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    checks = []
    cases = [
        (CurvatureParams(m=2, kappa1=0.0, kappa2=0.0), [0.5, 1.0, 1.5, 2.0]),
        (CurvatureParams(m=2, kappa1=0.25, kappa2=0.25), [0.6, 1.2, 1.8, 2.4, 3.0]),
    ]
    for params, D_grid in cases:
        inputs = {"m": params.m, "kappa1": params.kappa1, "kappa2": params.kappa2, "grid": D_grid}
        # the scan raises on the first value that fails to decrease: a failed
        # check, kept in the record with the scan's message
        try:
            rows = monotonicity_scan(params, D_grid, n=grid)
            values, ok = {"values": [r["value"] for r in rows]}, True
        except NotDecreasing as exc:
            values, ok = {"error": str(exc)}, False
        checks.append(_chk("diameter_monotonicity", inputs, values, 0.0, ok))
    return SuiteResult("monotonicity", checks)


_SUITES = {
    "lemma32": lemma32_suite,
    "prop13": prop13_suite,
    "dirichlet-identity": dirichlet_identity_suite,
    "heatflow": heatflow_suite,
    "sphere": sphere_suite,
    "surfaces": surfaces_suite,
    "monotonicity": monotonicity_suite,
}
SUITE_NAMES = ("all", *_SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED, grid: int = 2000) -> SuiteResult:
    """Run one named suite, or every suite under the name 'all'."""
    if name == "all":
        checks = []
        series = {}
        for key in _SUITES:
            sub = run_suite(key, seed=seed, grid=grid)
            for c in sub.checks:
                c = dict(c)
                c["name"] = f"{key}.{c['name']}"
                checks.append(c)
            series.update(sub.series)
        return SuiteResult("all", checks, series=series)
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](seed=seed, grid=grid)
