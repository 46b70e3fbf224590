"""Eigenvalue lower bounds with validity checking and explicit-case tables.

Each bound builds the half-interval model problem for its curvature data,
solves it by shooting and by finite differences, records the agreement,
and packages validity checks (maximal diameter, inradius caps) into the
result.  Boundary-sharp diameters, where the model weight vanishes at the
interval end, are evaluated by the limit procedure on the shooting side
and by the endpoint-tolerant discretization on the finite-difference
side; such results are tagged is_limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    CurvatureParams,
    first_zero,
    weight_dirichlet,
    weight_dirichlet_radius,
    weight_kahler,
    weight_kahler_radius,
    weight_riemannian,
    weight_riemannian_dirichlet,
    weight_riemannian_dirichlet_radius,
    weight_riemannian_radius,
)
from .errors import (
    DiameterExceedsMaximal,
    DomainError,
    InradiusExceedsValidity,
    InvalidDimension,
    SolverError,
)
from .sturm_liouville import SLProblem, eigen_limit, solve_fd, solve_shooting

__all__ = [
    "BoundResult",
    "ComparisonReport",
    "kahler_neumann_bound",
    "kahler_dirichlet_bound",
    "riemannian_neumann_bound",
    "riemannian_dirichlet_bound",
    "lichnerowicz_comparison",
    "explicit_bound_table",
    "monotonicity_scan",
]

# relative slack for deciding that a diameter sits exactly on its cap
SHARP_RTOL = 1e-12
# truncation fractions for the shooting-side limit procedure
LIMIT_STEPS = tuple(0.04 / 2**k for k in range(6))


@dataclass
class BoundResult:
    """A computed eigenvalue lower bound and its certificate data."""

    value: float
    theorem_tag: str
    problem: SLProblem = field(repr=False)
    shooting_value: float
    fd_value: float
    fd_error: float
    shooting_residual: float
    method_agreement: float
    validity: list
    is_limit: bool = False
    limit_error: float | None = None
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "theorem_tag": self.theorem_tag,
            "problem": {
                "length": self.problem.length,
                "bc": ["dirichlet", "neumann"],
                "target": "first",
                "weight": self.problem.name,
            },
            "shooting_value": self.shooting_value,
            "fd_value": self.fd_value,
            "fd_error": self.fd_error,
            "shooting_residual": self.shooting_residual,
            "method_agreement": self.method_agreement,
            "validity": self.validity,
            "is_limit": self.is_limit,
            "limit_error": self.limit_error,
            "warnings": self.warnings,
        }


@dataclass
class ComparisonReport:
    """A bound next to a reference value it is expected to dominate."""

    bound: BoundResult
    reference_bound: float
    reference_name: str
    margin: float

    def to_dict(self) -> dict:
        return {
            "bound": self.bound.to_dict(),
            "reference_bound": self.reference_bound,
            "reference_name": self.reference_name,
            "margin": self.margin,
        }


def _check(name, actual, limit, ok):
    return {"name": name, "actual": actual, "limit": limit, "ok": bool(ok)}


def _diameter_cap(validity, name, D, cap, what):
    """Refuse D beyond `cap`, record the check, and say whether D sits on it."""
    if D > cap * (1.0 + SHARP_RTOL):
        raise DiameterExceedsMaximal(f"D = {D} exceeds the {what} = {cap}")
    validity.append(_check(name, D, cap, True))
    return D >= cap * (1.0 - SHARP_RTOL)


def _solve_pair(weight_fn, ell, rad, tag, name, validity, order, tol, n):
    """Run both solvers on the weight on [0, ell] and assemble a BoundResult.

    For order > 0 the weight vanishes at ell to that order (the sharp
    case): the shooting value comes from the truncation-limit
    extrapolation, finite differences solve the endpoint directly.
    Otherwise, when ell ends within a tenth of itself of the weight's
    validity radius `rad`, the gap grades the shooting mesh.
    """
    sharp = order > 0
    limit_error = None
    if sharp:
        state = {"bracket": None, "prev": None}

        def solve_at(h):
            length = ell * (1.0 - h)
            prob = SLProblem(length=length, weight=weight_fn, layer=ell * h, name=name)
            res = solve_shooting(prob, tol=tol, bracket=state["bracket"], want_phi=False)
            prev = state["prev"]
            drop = (prev - res.value) if prev is not None else 0.3 * res.value
            state["bracket"] = (res.value - 1.5 * max(drop, 1e-9 * res.value), res.value)
            state["prev"] = res.value
            return res.value

        shoot_val, limit_error, _ = eigen_limit(solve_at, LIMIT_STEPS, order=order)
        shoot_resid = limit_error
        problem = SLProblem(length=ell, weight=weight_fn, name=name)
    else:
        layer = rad - ell if (math.isfinite(rad) and rad - ell < 0.1 * ell) else None
        problem = SLProblem(length=ell, weight=weight_fn, layer=layer, name=name)
        shoot = solve_shooting(problem, tol=tol, want_phi=False)
        shoot_val, shoot_resid = shoot.value, shoot.residual
    fd = solve_fd(problem, n=n)
    agreement = abs(shoot_val - fd.value) / max(abs(shoot_val), abs(fd.value))
    if shoot_val <= 0:
        raise SolverError(f"nonpositive eigenvalue {shoot_val} for {tag}")
    return BoundResult(
        value=shoot_val,
        theorem_tag=tag,
        problem=problem,
        shooting_value=shoot_val,
        fd_value=fd.value,
        fd_error=fd.residual,
        shooting_residual=shoot_resid,
        method_agreement=agreement,
        validity=validity,
        is_limit=sharp,
        limit_error=limit_error,
    )


def kahler_neumann_bound(
    params: CurvatureParams, D: float, tol: float = 1e-10, n: int = 2000
) -> BoundResult:
    """Lower bound for the first nonzero Neumann eigenvalue, diameter D.

    Model problem: mixed eigenvalue of the interior weight on [0, D/2]
    (the half-interval reduction of the even full-interval problem).
    Caps: D <= pi/(2 sqrt(kappa1)) when kappa1 > 0, D <= pi/sqrt(kappa2)
    when kappa2 > 0 and m >= 2.  Sitting exactly on the binding cap is the
    boundary-sharp case, evaluated as a limit.
    """
    if not (math.isfinite(D) and D > 0):
        raise DomainError(f"diameter must be positive and finite, got {D}")
    validity = []
    order = 0
    if params.kappa1 > 0:
        cap = math.pi / (2.0 * math.sqrt(params.kappa1))
        what = "kappa1 diameter cap pi/(2 sqrt(kappa1))"
        if _diameter_cap(validity, "kappa1_diameter_cap", D, cap, what):
            order += 1
    if params.m > 1 and params.kappa2 > 0:
        cap = math.pi / math.sqrt(params.kappa2)
        what = "kappa2 diameter cap pi/sqrt(kappa2)"
        if _diameter_cap(validity, "kappa2_diameter_cap", D, cap, what):
            order += 2 * params.m - 2
    name = f"c(k2)^(2m-2) c(4k1) interior weight, m={params.m}, k1={params.kappa1}, k2={params.kappa2}"
    return _solve_pair(
        lambda t: weight_kahler(params, t), 0.5 * D, weight_kahler_radius(params),
        "kahler_neumann", name, validity, order, tol, n,
    )


def kahler_dirichlet_bound(
    params: CurvatureParams, lam: float, R: float, tol: float = 1e-10, n: int = 2000
) -> BoundResult:
    """Lower bound for the first Dirichlet eigenvalue, inradius R.

    Model problem: mixed eigenvalue of the boundary weight on [0, R].
    Requires R strictly below the validity radius (smallest first zero
    among the weight factors).
    """
    if not (math.isfinite(R) and R > 0):
        raise DomainError(f"inradius must be positive and finite, got {R}")
    if not math.isfinite(lam):
        raise DomainError("lambda must be finite")
    rad = weight_dirichlet_radius(params, lam)
    if R >= rad * (1.0 - SHARP_RTOL):
        binding = "4*kappa1" if first_zero(4 * params.kappa1, lam) <= rad * (1 + SHARP_RTOL) else "kappa2"
        raise InradiusExceedsValidity(
            f"R = {R} reaches the validity radius {rad} (first zero of the {binding} factor)"
        )
    name = (
        f"C(k2,L)^(2m-2) C(4k1,L) boundary weight, m={params.m}, "
        f"k1={params.kappa1}, k2={params.kappa2}, L={lam}"
    )
    return _solve_pair(
        lambda t: weight_dirichlet(params, lam, t), R, rad, "kahler_dirichlet", name,
        [_check("inradius_validity_radius", R, rad, True)], 0, tol, n,
    )


def riemannian_neumann_bound(
    n_dim: int, kappa: float, D: float, tol: float = 1e-10, n: int = 2000
) -> BoundResult:
    """Riemannian first-nonzero-Neumann lower bound, dimension n_dim.

    Model weight c_kappa^(n-1) on [0, D/2]; for kappa > 0 the diameter is
    capped at pi/sqrt(kappa), and at the cap the bound is the sharp
    (limit) value n_dim * kappa.
    """
    rad = weight_riemannian_radius(n_dim, kappa)  # validates the dimension
    if not (math.isfinite(D) and D > 0):
        raise DomainError(f"diameter must be positive and finite, got {D}")
    validity = []
    sharp = kappa > 0 and _diameter_cap(
        validity, "diameter_cap", D, math.pi / math.sqrt(kappa), "diameter cap pi/sqrt(kappa)"
    )
    name = f"c(kappa)^(n-1) weight, n={n_dim}, kappa={kappa}"
    return _solve_pair(
        lambda t: weight_riemannian(n_dim, kappa, t), 0.5 * D, rad, "riemannian_neumann",
        name, validity, n_dim - 1 if sharp else 0, tol, n,
    )


def riemannian_dirichlet_bound(
    n_dim: int, kappa: float, lam: float, R: float, tol: float = 1e-10, n: int = 2000
) -> BoundResult:
    """Riemannian first-Dirichlet lower bound, inradius R.

    Model weight C_{kappa,lam}^(n-1) on [0, R]; R must lie strictly below
    the first zero of the profile.
    """
    if not (math.isfinite(R) and R > 0):
        raise DomainError(f"inradius must be positive and finite, got {R}")
    rad = weight_riemannian_dirichlet_radius(n_dim, kappa, lam)  # validates the dimension
    if R >= rad * (1.0 - SHARP_RTOL):
        raise InradiusExceedsValidity(
            f"R = {R} reaches the first zero of the boundary profile at {rad}"
        )
    name = f"C(kappa,L)^(n-1) weight, n={n_dim}, kappa={kappa}, L={lam}"
    return _solve_pair(
        lambda t: weight_riemannian_dirichlet(n_dim, kappa, lam, t), R, rad,
        "riemannian_dirichlet", name, [_check("inradius_validity_radius", R, rad, True)],
        0, tol, n,
    )


def lichnerowicz_comparison(params: CurvatureParams, D: float, **kw) -> ComparisonReport:
    """Compare the diameter-refined bound against the dimension-free 8*kappa1.

    Valid for kappa1 > 0, kappa2 >= 0.  The margin is zero at the maximal
    diameter and strictly positive below it.
    """
    if not params.kappa1 > 0:
        raise DomainError("comparison requires kappa1 > 0")
    if params.kappa2 < 0:
        raise DomainError("comparison requires kappa2 >= 0")
    bound = kahler_neumann_bound(params, D, **kw)
    ref = 8.0 * params.kappa1
    return ComparisonReport(
        bound=bound,
        reference_bound=ref,
        reference_name="8*kappa1",
        margin=bound.value - ref,
    )


def explicit_bound_table(ms=(1, 2, 3, 5), tol: float = 1e-10, n: int = 2000) -> list:
    """The three explicit-value rows, for each complex dimension in ms.

    Rows: flat (kappa1 = kappa2 = 0, D = 1, expected pi^2), the kappa1-sharp
    row (kappa1 = 1 at maximal diameter pi/2, expected 8), and the
    kappa2-sharp row (kappa2 = 1 at maximal diameter pi, expected 2m - 1).
    Returns dict rows with computed, expected, and their ratio.
    """
    cache = {}

    def bound_for(m, k1, k2, D):
        # kappa2 is inert at m = 1 and the weight ignores m when kappa2 = 0
        key = (k1, None, D) if (m == 1 or k2 == 0.0) else (k1, k2, m, D)
        if key not in cache:
            cache[key] = kahler_neumann_bound(
                CurvatureParams(m=m, kappa1=k1, kappa2=k2), D, tol=tol, n=n
            )
        return cache[key]

    rows = []
    for m in ms:
        cases = [
            ("flat", 0.0, 0.0, 1.0, math.pi**2),
            ("kappa1_sharp", 1.0, 0.0, math.pi / 2, 8.0),
            ("kappa2_sharp", 0.0, 1.0, math.pi, float(2 * m - 1)),
        ]
        for case, k1, k2, D, expected in cases:
            b = bound_for(m, k1, k2, D)
            rows.append(
                {
                    "case": case,
                    "m": m,
                    "kappa1": k1,
                    "kappa2": k2,
                    "D": D,
                    "expected": expected,
                    "computed": b.value,
                    "ratio": b.value / expected,
                    "fd_value": b.fd_value,
                    "is_limit": b.is_limit,
                }
            )
    return rows


def monotonicity_scan(params: CurvatureParams, D_grid, tol: float = 1e-10, n: int = 2000) -> list:
    """Bound values over an increasing diameter grid; asserts strict decrease."""
    grid = [float(d) for d in D_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("diameter grid must be strictly increasing")
    rows = []
    for D in grid:
        b = kahler_neumann_bound(params, D, tol=tol, n=n)
        rows.append({"D": D, "value": b.value, "method_agreement": b.method_agreement})
    values = [r["value"] for r in rows]
    if len(values) > 1 and any(b >= a for a, b in zip(values, values[1:])):
        raise SolverError("bound failed to decrease strictly along the diameter grid")
    return rows
