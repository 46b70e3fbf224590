"""One-dimensional Sturm-Liouville eigenvalue solvers.

Two independent routes to the same eigenvalues:

  * solve_shooting: integrates the self-adjoint first-order system
    phi' = u/w, u' = -lam*w*phi from the left end and root-finds the
    Neumann shooting function S(lam) = u(ell; lam).
  * solve_fd: finite-difference discretization of (w phi')' = -lam*w*phi,
    reduced to a symmetric tridiagonal pencil and solved by LAPACK
    Sturm-sequence bisection, with Richardson extrapolation over n and 2n.

Both solve the mixed problem phi(0)=0, phi'(ell)=0 on a half interval.
neumann_first_nonzero_direct solves the full-interval Neumann problem
without using any symmetry, so the half-interval reduction can be
validated against it.  eigen_limit extrapolates eigenvalues of problems
whose weight vanishes at the right endpoint (boundary-sharp cases) from a
sequence of truncated regular problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, NoBracketFound, SolverError, StabilityFailure, ZeroDenominator

__all__ = [
    "SLProblem",
    "EigenResult",
    "solve_shooting",
    "solve_fd",
    "rayleigh_quotient",
    "neumann_first_nonzero_direct",
    "eigen_limit",
]

# lambda-scan contract: geometric grid from SCAN_FLOOR_FACTOR * pi^2/(4 ell^2)
# up to SCAN_CEIL_FACTOR / ell^2, SCAN_STEPS_PER_DECADE points per decade
SCAN_FLOOR_FACTOR = 1e-2
SCAN_CEIL_FACTOR = 1e4
SCAN_STEPS_PER_DECADE = 400


@dataclass(frozen=True)
class SLProblem:
    """The mixed problem (w phi')' = -lam*w*phi, phi(0) = 0, phi'(length) = 0.

    `weight` is w(t) > 0 on [0, length].  `layer`, when set, is the
    distance scale on which the weight varies near the right endpoint
    (used to grade integration meshes for truncations of a weight that
    vanishes just beyond `length`).
    """

    length: float
    weight: Callable
    layer: float | None = None
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise DomainError(f"interval length must be positive and finite, got {self.length}")


@dataclass
class EigenResult:
    """A computed eigenpair with its provenance."""

    value: float
    method: str
    residual: float
    grid_size: int
    ts: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# meshes and weight tables for the shooting integrator


def _build_mesh(ell: float, n_uniform: int, layer: float | None) -> np.ndarray:
    """Integration nodes on [0, ell], geometrically graded into a right
    boundary layer of width `layer` when one is declared."""
    if layer is None or layer <= 0 or layer >= 0.1 * ell:
        return np.linspace(0.0, ell, n_uniform + 1)
    h = ell / n_uniform
    # switch to graded cells once the distance to the singular point
    # (at ell + layer) drops below 8 uniform cells
    d_switch = min(0.5 * ell, max(8.0 * h, 4.0 * layer))
    t_switch = ell + layer - d_switch
    n_flat = max(8, int(math.ceil(t_switch / h)))
    flat = np.linspace(0.0, t_switch, n_flat + 1)
    # distances from the singular point shrink geometrically to `layer`
    n_tail = max(4, int(math.ceil(math.log(d_switch / layer) / math.log(8.0 / 7.0))))
    ds = d_switch * (layer / d_switch) ** (np.arange(1, n_tail + 1) / n_tail)
    tail = ell + layer - ds
    tail[-1] = ell
    return np.concatenate([flat, tail])


def _weight_tables(problem: SLProblem, ts: np.ndarray):
    mids = 0.5 * (ts[:-1] + ts[1:])
    w_nodes = np.asarray(problem.weight(ts), dtype=float)
    w_mids = np.asarray(problem.weight(mids), dtype=float)
    if np.any(w_nodes <= 0) or np.any(w_mids <= 0):
        raise DomainError("weight not positive on [0, ell]")
    if not (np.all(np.isfinite(w_nodes)) and np.all(np.isfinite(w_mids))):
        raise DomainError("coefficient not finite on [0, ell]")
    return w_nodes, w_mids


def _shoot_batch(ts, w_nodes, w_mids, lams, want_path=False):
    """Classical RK4 sweep of the shooting system, vectorized over lams.

    y = (phi, u), phi' = u/w, u' = -lam*w*phi, u(0) = w(0).  Returns the
    Neumann shooting values S(lam) = u(ell) and optionally the phi samples
    at the nodes.
    """
    lams = np.asarray(lams, dtype=float)
    phi = np.zeros_like(lams)
    slope = np.full_like(lams, w_nodes[0])
    hs = np.diff(ts)
    path = [phi.copy()] if want_path else None

    for j in range(len(hs)):
        h = hs[j]
        w0 = w_nodes[j]
        wm = w_mids[j]
        w1 = w_nodes[j + 1]
        k1p = slope / w0
        k1s = -lams * (w0 * phi)
        p2 = phi + 0.5 * h * k1p
        s2 = slope + 0.5 * h * k1s
        k2p = s2 / wm
        k2s = -lams * (wm * p2)
        p3 = phi + 0.5 * h * k2p
        s3 = slope + 0.5 * h * k2s
        k3p = s3 / wm
        k3s = -lams * (wm * p3)
        p4 = phi + h * k3p
        s4 = slope + h * k3s
        k4p = s4 / w1
        k4s = -lams * (w1 * p4)
        phi = phi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        slope = slope + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        if want_path:
            path.append(phi.copy())
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(slope))):
        raise StabilityFailure("shooting integration overflowed")
    if want_path:
        return slope, np.array(path)
    return slope


def _shoot_scalar(hs_l, w0_l, wm_l, w1_l, lam, w_start):
    """Scalar RK4 sweep in plain Python floats (fast path for refinement)."""
    phi = 0.0
    slope = w_start
    for j in range(len(hs_l)):
        h = hs_l[j]
        w0 = w0_l[j]
        wm = wm_l[j]
        w1 = w1_l[j]
        k1p = slope / w0
        k1s = -lam * w0 * phi
        p2 = phi + 0.5 * h * k1p
        s2 = slope + 0.5 * h * k1s
        k2p = s2 / wm
        k2s = -lam * wm * p2
        p3 = phi + 0.5 * h * k2p
        s3 = slope + 0.5 * h * k2s
        k3p = s3 / wm
        k3s = -lam * wm * p3
        p4 = phi + h * k3p
        s4 = slope + h * k3s
        k4p = s4 / w1
        k4s = -lam * w1 * p4
        phi += (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        slope += (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    if not (math.isfinite(phi) and math.isfinite(slope)):
        raise StabilityFailure("shooting integration overflowed")
    return slope


class _Shooter:
    """Caches meshes and coefficient tables for repeated S(lam) sweeps."""

    def __init__(self, problem: SLProblem):
        self.problem = problem
        self._cache = {}

    def _tables(self, n_uniform: int):
        key = n_uniform
        if key not in self._cache:
            ts = _build_mesh(self.problem.length, n_uniform, self.problem.layer)
            w_nodes, w_mids = _weight_tables(self.problem, ts)
            scalar = (
                list(np.diff(ts)),
                list(w_nodes[:-1]),
                list(w_mids),
                list(w_nodes[1:]),
                float(w_nodes[0]),
            )
            self._cache[key] = (ts, w_nodes, w_mids, scalar)
        return self._cache[key]

    def _n_for(self, lam_max: float, per_rad: float, floor: int) -> int:
        phase = math.sqrt(max(lam_max, 0.0)) * self.problem.length
        return max(floor, int(per_rad * phase))

    def batch(self, lams, per_rad=25.0, floor=600, want_path=False):
        ts, w_nodes, w_mids, _ = self._tables(self._n_for(np.max(lams), per_rad, floor))
        out = _shoot_batch(ts, w_nodes, w_mids, lams, want_path)
        return (out, ts) if want_path else out

    def scalar(self, lam, per_rad=60.0, floor=4000) -> float:
        _, _, _, (hs_l, w0_l, wm_l, w1_l, w_start) = self._tables(
            self._n_for(lam, per_rad, floor)
        )
        return _shoot_scalar(hs_l, w0_l, wm_l, w1_l, lam, w_start)


def _scan_bracket(shooter: _Shooter, ell: float):
    """Geometric lambda scan; returns the first sign-change bracket of S."""
    lam_lo = SCAN_FLOOR_FACTOR * math.pi**2 / (4.0 * ell * ell)
    lam_hi = SCAN_CEIL_FACTOR / (ell * ell)
    decades = math.log10(lam_hi / lam_lo)
    n_chunks = int(math.ceil(decades))
    prev_lam = None
    prev_s = None
    for c in range(n_chunks):
        lo = lam_lo * 10.0**c
        hi = min(lam_lo * 10.0 ** (c + 1), lam_hi)
        lams = np.geomspace(lo, hi, SCAN_STEPS_PER_DECADE + 1)
        svals = shooter.batch(lams)
        if c == 0 and svals[0] <= 0.0:
            raise NoBracketFound(
                "shooting function not positive at the scan floor; "
                "first eigenvalue below the documented scan range"
            )
        if prev_s is not None and prev_s > 0.0 >= svals[0]:
            return prev_lam, float(lams[0])
        idx = np.nonzero((svals[:-1] > 0.0) & (svals[1:] <= 0.0))[0]
        if idx.size:
            i = int(idx[0])
            return float(lams[i]), float(lams[i + 1])
        # keep the second-to-last point so a sign flip right at the chunk
        # seam still yields a bracket of nonzero width
        prev_lam, prev_s = float(lams[-2]), float(svals[-2])
    raise NoBracketFound(f"no sign change of the shooting function up to lambda = {lam_hi}")


def _refine(shooter: _Shooter, lo: float, hi: float, tol: float):
    """Bisection (batched) plus safeguarded secant until |S| < tol.

    S is normalized by its value at lambda -> 0 (the left-end flux) so the
    tolerance is scale free.  Returns (lam, |S_norm|).
    """
    s_scale = abs(shooter.scalar(0.0)) or 1.0
    # batched bisection: two rounds with 32 interior points shrink the
    # bracket by ~1000x
    for _ in range(2):
        if hi - lo <= 1e-13 * hi:
            break
        grid = np.linspace(lo, hi, 34)
        svals = shooter.batch(grid[1:-1], per_rad=40.0, floor=1500)
        below = np.nonzero(svals <= 0.0)[0]
        if below.size == 0:
            lo = float(grid[-2])
            continue
        j = int(below[0])
        hi = float(grid[1 + j])
        if j > 0:
            lo = float(grid[j])
    s_lo = shooter.scalar(lo) / s_scale
    s_hi = shooter.scalar(hi) / s_scale
    if s_lo == 0.0:
        return lo, 0.0
    lam, s_lam = hi, s_hi
    for _ in range(80):
        if abs(s_lam) < tol or hi - lo <= 1e-14 * hi:
            return lam, abs(s_lam)
        denom = s_hi - s_lo
        if denom == 0.0:
            lam = 0.5 * (lo + hi)
        else:
            lam = hi - s_hi * (hi - lo) / denom
            if not (lo < lam < hi):
                lam = 0.5 * (lo + hi)
        s_lam = shooter.scalar(lam) / s_scale
        if s_lam > 0.0:
            lo, s_lo = lam, s_lam
        else:
            hi, s_hi = lam, s_lam
    return lam, abs(s_lam)


def solve_shooting(
    problem: SLProblem, tol: float = 1e-10, bracket=None, want_phi: bool = True
) -> EigenResult:
    """First eigenvalue of the mixed problem by shooting.

    Integrates from phi(0) = 0 with unit initial slope and root-finds the
    right-end flux S(lam).  `bracket`, when given, is a (lo, hi) warm
    start; it is verified and the scan is skipped if it already straddles
    the root.  Eigenfunction is reported with phi'(0) = 1; callers that
    only need the eigenvalue pass want_phi=False to skip that pass.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    shooter = _Shooter(problem)
    lo = hi = None
    if bracket is not None:
        b_lo, b_hi = bracket
        if 0 < b_lo < b_hi and shooter.scalar(b_lo) > 0.0 >= shooter.scalar(b_hi):
            lo, hi = b_lo, b_hi
    if lo is None:
        lo, hi = _scan_bracket(shooter, problem.length)
    lam, resid = _refine(shooter, lo, hi, tol)
    if want_phi:
        (_, path), ts = shooter.batch(
            np.array([lam]), per_rad=60.0, floor=4000, want_path=True
        )
        phi = path[:, 0]
        grid = len(ts) - 1
    else:
        ts = phi = None
        grid = shooter._n_for(lam, 60.0, 4000)
    return EigenResult(
        value=float(lam),
        method="shooting",
        residual=float(resid),
        grid_size=grid,
        ts=ts,
        phi=phi,
    )


# ---------------------------------------------------------------------------
# finite differences


def _fd_mixed_pencil(weight, ell, n):
    """Stiffness/mass diagonals for phi(0)=0, phi'(ell)=0 on n cells.

    Centered second-order scheme: interior rows are the standard
    three-point flux form; the Neumann end row is the ghost-point
    elimination, which involves only the flux at the last interior face
    and a half mass cell.  The half cell's mass uses the weight at its
    midpoint ell - h/4, so a weight that vanishes exactly at ell (the
    boundary-sharp rows) stays admissible; the interior of the domain is
    never sampled at the endpoint.  Unknowns are the nodes 1..n.
    """
    h = ell / n
    nodes = np.linspace(0.0, ell, n + 1)
    faces = 0.5 * (nodes[:-1] + nodes[1:])
    w_mass = np.asarray(weight(nodes[1:-1]), dtype=float)
    w_faces = np.asarray(weight(faces), dtype=float)
    w_last = float(weight(ell - 0.25 * h))
    if np.any(w_mass <= 0) or np.any(w_faces <= 0) or w_last <= 0:
        raise DomainError("weight not positive on (0, ell)")
    diag = np.empty(n)
    diag[:-1] = w_faces[:-1] + w_faces[1:]
    diag[-1] = w_faces[-1]
    off = -w_faces[1:]
    mass = h * h * np.concatenate([w_mass, [0.5 * w_last]])
    return diag, off, mass, nodes


def _fd_eigh(diag, off, mass, indices):
    # masses of a weight that underflows near a vanishing endpoint make
    # d or e infinite; that is a solver failure, not a numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = diag / mass
        e = off / np.sqrt(mass[:-1] * mass[1:])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise SolverError("finite-difference pencil not finite: the weight underflows on the grid")
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=indices)
    return vals, vecs / np.sqrt(mass)[:, None]


def solve_fd(problem: SLProblem, n: int = 2000) -> EigenResult:
    """First eigenvalue of the mixed problem by finite differences.

    Solves the symmetric tridiagonal pencil at n and 2n cells via
    Sturm-sequence bisection and reports the Richardson-extrapolated
    eigenvalue (4*lam_2n - lam_n)/3 with error estimate |lam_n - lam_2n|/3.
    Eigenfunction (from the 2n grid) is max-norm normalized.
    """
    if n < 16:
        raise DomainError("n must be at least 16")
    lam_n, _ = _fd_eigh(*_fd_mixed_pencil(problem.weight, problem.length, n)[:3], (0, 0))
    diag, off, mass, nodes = _fd_mixed_pencil(problem.weight, problem.length, 2 * n)
    lam_2n, vecs = _fd_eigh(diag, off, mass, (0, 0))
    lam = (4.0 * lam_2n[0] - lam_n[0]) / 3.0
    err = abs(lam_n[0] - lam_2n[0]) / 3.0
    phi = np.concatenate([[0.0], vecs[:, 0]])
    phi = phi / np.abs(phi).max()
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    return EigenResult(
        value=float(lam),
        method="finite_difference",
        residual=float(err),
        grid_size=2 * n,
        ts=nodes,
        phi=phi,
    )


def neumann_first_nonzero_direct(weight, half_length: float, n: int = 2000) -> EigenResult:
    """First nonzero Neumann eigenvalue on [-half_length, half_length].

    Full-interval discretization with Neumann ghost rows at both ends; no
    symmetry of the weight is used, so this is an independent check of the
    half-interval reduction.  The weight must be even and positive;
    evenness is verified on the grid.  Richardson over n and 2n as in
    solve_fd.
    """
    ell = half_length
    if not (math.isfinite(ell) and ell > 0):
        raise DomainError("half_length must be positive and finite")
    if n < 16:
        raise DomainError("n must be at least 16")

    def pencil(cells):
        h = 2.0 * ell / cells
        nodes = np.linspace(-ell, ell, cells + 1)
        faces = 0.5 * (nodes[:-1] + nodes[1:])
        w_inner = np.asarray(weight(nodes[1:-1]), dtype=float)
        w_faces = np.asarray(weight(faces), dtype=float)
        # half-cell masses from the cell midpoints, as in the mixed pencil
        w_lo = float(weight(-ell + 0.25 * h))
        w_hi = float(weight(ell - 0.25 * h))
        if np.any(w_inner <= 0) or np.any(w_faces <= 0) or w_lo <= 0 or w_hi <= 0:
            raise DomainError("weight not positive on the interval")
        asym = np.abs(w_inner - w_inner[::-1]).max() / w_inner.max()
        if asym > 1e-8:
            raise DomainError("weight is not even on the interval")
        diag = np.empty(cells + 1)
        diag[0] = w_faces[0]
        diag[1:-1] = w_faces[:-1] + w_faces[1:]
        diag[-1] = w_faces[-1]
        off = -w_faces
        mass = h * h * np.concatenate([[0.5 * w_lo], w_inner, [0.5 * w_hi]])
        return diag, off, mass, nodes

    lam_n, _ = _fd_eigh(*pencil(n)[:3], (0, 1))
    diag, off, mass, nodes = pencil(2 * n)
    lam_2n, vecs = _fd_eigh(diag, off, mass, (0, 1))
    if abs(lam_2n[0]) > 1e-6 * max(1.0, abs(lam_2n[1])):
        raise SolverError("discrete Neumann pencil lost its zero mode")
    lam = (4.0 * lam_2n[1] - lam_n[1]) / 3.0
    err = abs(lam_n[1] - lam_2n[1]) / 3.0
    phi = vecs[:, 1]
    phi = phi / np.abs(phi).max()
    if phi[-1] < 0:
        phi = -phi
    return EigenResult(
        value=float(lam),
        method="finite_difference",
        residual=float(err),
        grid_size=2 * n,
        ts=nodes,
        phi=phi,
    )


# ---------------------------------------------------------------------------
# Rayleigh quotient


def _derivative_samples(ts, ys):
    """Fourth-order finite-difference derivative on a uniform grid,
    second-order one-sided at the ends; np.gradient on nonuniform grids."""
    hs = np.diff(ts)
    if hs.size >= 4 and np.allclose(hs, hs[0], rtol=1e-10):
        h = hs[0]
        d = np.empty_like(ys)
        d[2:-2] = (ys[:-4] - 8 * ys[1:-3] + 8 * ys[3:-1] - ys[4:]) / (12 * h)
        d[0] = (-3 * ys[0] + 4 * ys[1] - ys[2]) / (2 * h)
        d[1] = (ys[2] - ys[0]) / (2 * h)
        d[-2] = (ys[-1] - ys[-3]) / (2 * h)
        d[-1] = (3 * ys[-1] - 4 * ys[-2] + ys[-3]) / (2 * h)
        return d
    return np.gradient(ys, ts, edge_order=2)


def rayleigh_quotient(problem: SLProblem, ts, phi) -> float:
    """Quotient of weighted energies int w phi'^2 / int w phi^2.

    Simpson on uniform grids, trapezoid otherwise.  An upper bound for the
    first eigenvalue of the matching problem, up to quadrature error, for
    any trial satisfying the essential condition phi(0) = 0.
    """
    ts = np.asarray(ts, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if ts.ndim != 1 or ts.shape != phi.shape or ts.size < 5:
        raise DomainError("trial must be sampled on a 1D grid of at least 5 points")
    w = np.asarray(problem.weight(ts), dtype=float)
    dphi = _derivative_samples(ts, phi)
    hs = np.diff(ts)
    uniform = np.allclose(hs, hs[0], rtol=1e-10)
    if uniform:
        num = simpson(w * dphi * dphi, x=ts)
        den = simpson(w * phi * phi, x=ts)
    else:
        num = np.trapezoid(w * dphi * dphi, x=ts)
        den = np.trapezoid(w * phi * phi, x=ts)
    scale = float(np.max(w) * np.max(phi * phi) * problem.length)
    if den <= 1e-14 * max(scale, 1e-300):
        raise ZeroDenominator("trial function has vanishing weighted norm")
    return float(num / den)


# ---------------------------------------------------------------------------
# boundary-sharp limit procedure


def eigen_limit(solve_at, hs, order: float, extra_terms: int = 3):
    """Extrapolate lam(h) -> lam(0) for truncations of a singular problem.

    solve_at(h) returns the eigenvalue of the problem truncated a relative
    distance h short of the weight-vanishing endpoint.  The truncation
    error of such problems opens as h^(order+1), so lam(h) is fit by
    lam* + sum_j c_j h^(order+1+j) over j < extra_terms and lam* reported.
    Returns (lam*, err_estimate, fitted values).
    """
    hs = np.asarray(sorted(hs, reverse=True), dtype=float)
    if hs.size < extra_terms + 2:
        raise SolverError("need at least extra_terms + 2 truncation points")
    lams = np.array([solve_at(float(h)) for h in hs])
    exps = order + 1.0 + np.arange(extra_terms)
    basis = np.column_stack([np.ones_like(hs)] + [hs**e for e in exps])
    scale = np.abs(basis).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, lams, rcond=None)
    coef = coef / scale
    fit = basis @ coef
    # stability probe: refit without the coarsest point
    coef2, *_ = np.linalg.lstsq((basis / scale)[1:], lams[1:], rcond=None)
    coef2 = coef2 / scale
    rms = float(np.sqrt(np.mean((fit - lams) ** 2)))
    err = abs(coef[0] - coef2[0]) + rms
    return float(coef[0]), float(err), lams
