"""Eigenvalue lower bounds with validity checking and explicit-case tables.

Each bound builds the half-interval model problem for its curvature data,
solves it by shooting and by finite differences, records the agreement,
and packages validity checks (maximal diameter, inradius caps) into the
result.  Boundary-sharp diameters, where the model weight vanishes at the
interval end, are evaluated by shooting to a cut just short of the end and
on the finite-difference side with no mass at the end; such results are
tagged is_limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .coefficients import (
    CurvatureParams,
    first_zero,
    kahler_factors,
    riemannian_factors,
    weight_dirichlet,
    weight_kahler,
    weight_radius,
    weight_riemannian,
    weight_riemannian_dirichlet,
)
from .errors import DiameterExceedsMaximal, DomainError, InradiusExceedsValidity, NotDecreasing
from .sturm_liouville import MIN_LENGTH, SLProblem, check_length, solve_fd, solve_shooting
# unused here: only the benchmark tracer looks up bounds.eigen_limit; drop with its span
from .sturm_liouville import eigen_limit  # noqa: F401

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

# names of each family's weight factors, in the order of its factor table in
# `coefficients`: the factor in messages, the validity record of its diameter
# cap, and that cap in words
KAHLER_FACTOR_NAMES = (
    ("4*kappa1", "kappa1_diameter_cap", "kappa1 diameter cap pi/(2 sqrt(kappa1))"),
    ("kappa2", "kappa2_diameter_cap", "kappa2 diameter cap pi/sqrt(kappa2)"),
)
RIEMANNIAN_FACTOR_NAMES = (("kappa", "diameter_cap", "diameter cap pi/sqrt(kappa)"),)


@dataclass
class BoundResult:
    """A computed eigenvalue lower bound and its certificate data.

    `fd_error` is |lam_n - lam_2n|/3, the error estimate of the coarse
    FD pair, not of the Richardson `fd_value`; it usually overstates the
    error of `fd_value` by orders of magnitude (see `_richardson`).
    `limit_error`, for a sharp bound (`is_limit`), estimates the error of
    the shooting cut (see `sturm_liouville.solve_shooting`); else None.

    `to_dict` is the `results` of the CLI's `bound` record: the fields in
    order, with the model `problem` as its summary (length, boundary
    conditions, target, weight name).  A new field is a new key there.
    """

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
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["problem"] = {
            "length": self.problem.length,
            "bc": ["dirichlet", "neumann"],
            "target": "first",
            "weight": self.problem.name,
        }
        return record


@dataclass
class ComparisonReport:
    """A bound next to a reference value it is expected to dominate."""

    bound: BoundResult
    reference_bound: float
    reference_name: str
    margin: float


def _check(name, actual, limit):
    return {"name": name, "actual": actual, "limit": limit, "ok": True}


def _solve_pair(weight_fn, ell, power, tag, name, validity, order, n):
    """Run both solvers on the weight on [0, ell] and assemble a BoundResult.

    For order > 0 the weight vanishes at ell to that order (the sharp
    case): shooting imposes boundedness at a cut short of ell (see
    `sturm_liouville._cut`), finite differences solve up to ell with no
    mass there.  `power`, the summed power of the weight's non-constant
    factors, sizes the shooting mesh (see `sturm_liouville._Shooter`).
    Finite differences start from the shooting eigenfunction (see
    `sturm_liouville.solve_fd`).
    """
    problem = SLProblem(length=ell, weight=weight_fn, power=power, name=name, order=order)
    shoot = solve_shooting(problem)
    fd = solve_fd(problem, n=n, start=shoot)
    agreement = abs(shoot.value - fd.value) / max(abs(shoot.value), abs(fd.value))
    return BoundResult(
        value=shoot.value,
        theorem_tag=tag,
        problem=problem,
        shooting_value=shoot.value,
        fd_value=fd.value,
        fd_error=fd.residual,
        shooting_residual=shoot.residual,
        method_agreement=agreement,
        validity=validity,
        is_limit=order > 0,
        limit_error=shoot.cut_error,
    )


def _neumann(factors, names, D, weight_fn, tag, name, n):
    """The Neumann model problem of a weight on [0, D/2].

    Each positive-curvature factor caps D at twice its profile's first
    zero; D beyond a cap is refused, and on a cap the bound is the sharp
    (limit) one, of order the summed powers of the factors whose cap D
    sits on.
    """
    check_length("diameter", D, 2.0 * MIN_LENGTH)
    validity = []
    order = 0
    for (k, p), (_, check, what) in zip(factors, names):
        if k > 0:
            cap = 2.0 * first_zero(k, 0.0)
            if D > cap * (1.0 + SHARP_RTOL):
                raise DiameterExceedsMaximal(f"D = {D} exceeds the {what} = {cap}")
            validity.append(_check(check, D, cap))
            if D >= cap * (1.0 - SHARP_RTOL):
                order += p
    power = sum(p for k, p in factors if k)  # of the non-constant factors
    return _solve_pair(weight_fn, 0.5 * D, power, tag, name, validity, order, n)


def _dirichlet(factors, names, lam, R, weight_fn, tag, name, n):
    """The Dirichlet model problem of a boundary weight on [0, R]; R must lie
    strictly below the weight's validity radius."""
    if not math.isfinite(lam):
        raise DomainError("lambda must be finite")
    rad = weight_radius(factors, lam)
    if R >= rad * (1.0 - SHARP_RTOL):
        binding = next(
            label for (k, _), (label, _, _) in zip(factors, names)
            if first_zero(k, lam) <= rad * (1.0 + SHARP_RTOL)
        )
        raise InradiusExceedsValidity(
            f"R = {R} reaches the validity radius {rad} (first zero of the {binding} factor)"
        )
    power = sum(p for k, p in factors if k or lam)  # with lam != 0 no factor is constant
    return _solve_pair(
        weight_fn, R, power, tag, name, [_check("inradius_validity_radius", R, rad)], 0, n
    )


def kahler_neumann_bound(params: CurvatureParams, D: float, n: int = 2000) -> BoundResult:
    """Lower bound for the first nonzero Neumann eigenvalue, diameter D.

    Model problem: mixed eigenvalue of the interior weight on [0, D/2]
    (the half-interval reduction of the even full-interval problem).
    Caps: D <= pi/(2 sqrt(kappa1)) when kappa1 > 0, D <= pi/sqrt(kappa2)
    when kappa2 > 0 and m >= 2.  Sitting exactly on the binding cap is the
    boundary-sharp case, evaluated as a limit.
    """
    return _neumann(
        kahler_factors(params), KAHLER_FACTOR_NAMES, D, lambda t: weight_kahler(params, t),
        "kahler_neumann",
        f"c(k2)^(2m-2) c(4k1) interior weight, m={params.m}, k1={params.kappa1}, k2={params.kappa2}",
        n,
    )


def kahler_dirichlet_bound(
    params: CurvatureParams, lam: float, R: float, n: int = 2000
) -> BoundResult:
    """Lower bound for the first Dirichlet eigenvalue, inradius R.

    Model problem: mixed eigenvalue of the boundary weight on [0, R].
    Requires R strictly below the validity radius (smallest first zero
    among the weight factors).
    """
    check_length("inradius", R, MIN_LENGTH)
    return _dirichlet(
        kahler_factors(params), KAHLER_FACTOR_NAMES, lam, R,
        lambda t: weight_dirichlet(params, lam, t), "kahler_dirichlet",
        f"C(k2,L)^(2m-2) C(4k1,L) boundary weight, m={params.m}, "
        f"k1={params.kappa1}, k2={params.kappa2}, L={lam}",
        n,
    )


def riemannian_neumann_bound(n_dim: int, kappa: float, D: float, n: int = 2000) -> BoundResult:
    """Riemannian first-nonzero-Neumann lower bound, dimension n_dim.

    Model weight c_kappa^(n-1) on [0, D/2]; for kappa > 0 the diameter is
    capped at pi/sqrt(kappa), and at the cap the bound is the sharp
    (limit) value n_dim * kappa.
    """
    return _neumann(
        riemannian_factors(n_dim, kappa), RIEMANNIAN_FACTOR_NAMES, D,
        lambda t: weight_riemannian(n_dim, kappa, t), "riemannian_neumann",
        f"c(kappa)^(n-1) weight, n={n_dim}, kappa={kappa}", n,
    )


def riemannian_dirichlet_bound(
    n_dim: int, kappa: float, lam: float, R: float, n: int = 2000
) -> BoundResult:
    """Riemannian first-Dirichlet lower bound, inradius R.

    Model weight C_{kappa,lam}^(n-1) on [0, R]; R must lie strictly below
    the first zero of the profile.
    """
    check_length("inradius", R, MIN_LENGTH)
    return _dirichlet(
        riemannian_factors(n_dim, kappa), RIEMANNIAN_FACTOR_NAMES, lam, R,
        lambda t: weight_riemannian_dirichlet(n_dim, kappa, lam, t), "riemannian_dirichlet",
        f"C(kappa,L)^(n-1) weight, n={n_dim}, kappa={kappa}, L={lam}", n,
    )


def lichnerowicz_comparison(params: CurvatureParams, D: float, n: int = 2000) -> ComparisonReport:
    """Compare the diameter-refined bound against the dimension-free 8*kappa1.

    Valid for kappa1 > 0, kappa2 >= 0.  The margin is zero at the maximal
    diameter and strictly positive below it.
    """
    if not params.kappa1 > 0:
        raise DomainError("comparison requires kappa1 > 0")
    if params.kappa2 < 0:
        raise DomainError("comparison requires kappa2 >= 0")
    bound = kahler_neumann_bound(params, D, n=n)
    ref = 8.0 * params.kappa1
    return ComparisonReport(
        bound=bound,
        reference_bound=ref,
        reference_name="8*kappa1",
        margin=bound.value - ref,
    )


def explicit_bound_table(n: int = 2000) -> list:
    """The three explicit-value rows, for complex dimensions m = 1, 2, 3, 5.

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
            cache[key] = kahler_neumann_bound(CurvatureParams(m=m, kappa1=k1, kappa2=k2), D, n=n)
        return cache[key]

    rows = []
    for m in (1, 2, 3, 5):
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


def monotonicity_scan(params: CurvatureParams, D_grid, n: int = 2000) -> list:
    """Bound values over an increasing diameter grid; a value that fails to
    decrease strictly raises NotDecreasing."""
    grid = [float(d) for d in D_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("diameter grid must be strictly increasing")
    rows = []
    for D in grid:
        b = kahler_neumann_bound(params, D, n=n)
        rows.append({"D": D, "value": b.value, "method_agreement": b.method_agreement})
    values = [r["value"] for r in rows]
    if len(values) > 1 and any(b >= a for a, b in zip(values, values[1:])):
        raise NotDecreasing("bound failed to decrease strictly along the diameter grid")
    return rows
