"""One-dimensional Sturm-Liouville eigenvalue solvers.

Two independent routes to the same eigenvalues:

  * solve_shooting: integrates the self-adjoint first-order system
    phi' = u/w, u' = -lam*w*phi from the left end by classical RK4,
    brackets the sign change of the Neumann shooting function
    S(lam) = u(ell; lam) by a walk in lam and finds its root with brentq.
    The system is linear, so a sweep is one banded triangular LAPACK
    solve for all node states; S(lam) = -w(0) when any node has
    phi < 0 < u.
  * solve_fd: node-based finite differences for (w phi')' = -lam*w*phi,
    with face weights at the cell midpoints and a half-cell end mass,
    with Richardson extrapolation over n and 2n cells.  The inverse of
    the mixed stiffness is the discrete Green's function, two cumulative
    sums and a division by the face weights, so power iteration on it
    finds the first eigenvalue from sums of positive terms; it keeps
    relative accuracy on fine grids and for tiny eigenvalues.

Both solve the mixed problem phi(0)=0, phi'(ell)=0 on a half interval and
return eigenvalues only.  neumann_first_nonzero_direct solves the
full-interval Neumann problem without using any symmetry, so the
half-interval reduction can be validated against it; it runs the same
Green's-function iteration with the left end free, deflated against the
constants.  eigen_limit
extrapolates eigenvalues of problems whose weight vanishes at the right
endpoint (boundary-sharp cases) from a sequence of truncated regular
problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson
# unused here: only the benchmark tracer looks up sturm_liouville.eigh_tridiagonal;
# drop with its span
from scipy.linalg import eigh_tridiagonal  # noqa: F401
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import brentq

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

# the shooting solver looks for the first eigenvalue in
# [SCAN_FLOOR_FACTOR * pi^2/(4 ell^2), SCAN_CEIL_FACTOR / ell^2]
SCAN_FLOOR_FACTOR = 1e-2
SCAN_CEIL_FACTOR = 1e4
# relative tolerance of the shooting root
ROOT_RTOL = 1e-14
# FD cells per grid.  The cumulative sums keep relative accuracy on fine
# grids, so the cap bounds memory and time: n = 10^6 takes about 170 MB and
# 0.7 to 0.9 s on a 2-core VM, in either FD solver
MAX_FD_CELLS = 1_000_000
# the FD power iteration stops once lam falls by at most FD_RTOL
# relative, and fails after FD_MAX_ITERATIONS
FD_RTOL = 1e-14
FD_MAX_ITERATIONS = 500


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
    """A computed eigenvalue with its provenance.  `sweeps` counts the
    S(lam) evaluations of the bracket walk and brentq, or for the FD
    solvers the power iterations over both grids."""

    value: float
    method: str
    residual: float
    grid_size: int
    sweeps: int


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
    # a weight that grows like exp(a*t) overflows on a long interval; that
    # is a solver failure, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        w_nodes = np.asarray(problem.weight(ts), dtype=float)
        w_mids = np.asarray(problem.weight(mids), dtype=float)
    if np.any(w_nodes <= 0) or np.any(w_mids <= 0):
        raise DomainError("weight not positive on [0, ell]")
    if not (np.all(np.isfinite(w_nodes)) and np.all(np.isfinite(w_mids))):
        raise SolverError("weight not finite on the grid: it overflows in floating point")
    return w_nodes, w_mids


def _step_bands(ts: np.ndarray, w_nodes: np.ndarray, w_mids: np.ndarray):
    """Band of the node recurrence of classical RK4, as B0, B1, B2 with
    band(lam) = B0 + lam*(B1 + lam*B2).

    The shooting system is linear, so one RK4 step maps (phi, u) at t to
    (a phi + b u, c phi + d u) at t + h, with a, b, c, d quadratic in lam
    (the four stages written out; w0, wm, w1 = w at t, t + h/2, t + h):

        a = 1 - lam h^2/6 (w0/wm + 1 + wm/w1) + lam^2 h^4 w0/(24 w1)
        b = h/6 (1/w0 + 4/wm + 1/w1) - lam h^3/12 (1/w0 + 1/w1)
        c = -lam h/6 (w0 + 4 wm + w1) + lam^2 h^3/12 (w0 + w1)
        d = 1 - lam h^2/6 (wm/w0 + 1 + w1/wm) + lam^2 h^4 w1/(24 w0)

    The node states (phi_0, u_0, phi_1, u_1, ...) then solve a unit lower
    triangular system with 3 subdiagonals, stored in LAPACK's lower band
    layout (row i holds the i-th subdiagonal) and in Fortran order, so
    dtbtrs takes it without a copy.  Row 0, the unit diagonal, is never read.
    A weight whose reciprocal or ratios overflow is a StabilityFailure, as
    the sweep through it would overflow.
    """
    h = np.diff(ts)
    h2 = h * h
    w0, wm, w1 = w_nodes[:-1], w_mids, w_nodes[1:]
    bands = np.zeros((4, 2 * len(ts), 3), order="F")
    # columns of phi_k and u_k for k < n; the last node couples to nothing
    phi_col, u_col = slice(0, -2, 2), slice(1, -2, 2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bands[2, phi_col, 0] = -1.0
        bands[2, phi_col, 1] = h2 / 6.0 * (w0 / wm + 1.0 + wm / w1)
        bands[2, phi_col, 2] = -h2 * h2 * w0 / (24.0 * w1)
        bands[3, phi_col, 1] = h / 6.0 * (w0 + 4.0 * wm + w1)
        bands[3, phi_col, 2] = -h * h2 / 12.0 * (w0 + w1)
        bands[1, u_col, 0] = -h / 6.0 * (1.0 / w0 + 4.0 / wm + 1.0 / w1)
        bands[1, u_col, 1] = h * h2 / 12.0 * (1.0 / w0 + 1.0 / w1)
        bands[2, u_col, 0] = -1.0
        bands[2, u_col, 1] = h2 / 6.0 * (wm / w0 + 1.0 + w1 / wm)
        bands[2, u_col, 2] = -h2 * h2 * w1 / (24.0 * w0)
    if not np.all(np.isfinite(bands)):
        raise StabilityFailure("shooting integration overflowed")
    return bands


def _shoot(table, lam):
    """Classical RK4 sweep of the shooting system, as one banded solve.

    y = (phi, u), phi' = u/w, u' = -lam*w*phi, u(0) = w(0).  `table` is
    (bands, rhs) from _Shooter.mesh: the band of _step_bands and the right
    side (phi_0, u_0) = (0, w(0)) with zeros after it.  Forward substitution
    in dtbtrs is the RK4 recurrence.  Returns the Neumann shooting value
    S(lam) = u(ell), or -w(0) when any node has phi < 0 < u, so S(lam) > 0
    exactly when lam lies below the first eigenvalue.
    """
    bands, rhs = table
    # B0 + lam*(B1 + lam*B2), formed in place
    band = bands[..., 2] * lam
    band += bands[..., 1]
    band *= lam
    band += bands[..., 0]
    states, info = dtbtrs(band, rhs, uplo="L", diag="U")
    if info != 0:
        raise SolverError(f"banded shooting solve failed: LAPACK info = {info}")
    phi, u = states[0::2], states[1::2]
    # u falls while phi > 0 and phi turns only after u has, so phi < 0 < u
    # puts the Pruefer angle past 3pi/2: lam is past the first eigenvalue
    if np.any((phi < 0.0) & (u > 0.0)):
        return -float(rhs[1])
    if not (math.isfinite(phi[-1]) and math.isfinite(u[-1])):
        raise StabilityFailure("shooting integration overflowed")
    return float(u[-1])


def _sweep(lam, table, svals):
    """S(lam) for brentq, kept in svals.  The table comes in through brentq's
    args: a closure over it would sit in the reference cycle of brentq's
    function wrapper and keep the table alive until a cyclic collection."""
    svals[lam] = _shoot(table, lam)
    return svals[lam]


class _Shooter:
    """Caches one mesh and band table per resolution for repeated S(lam) sweeps."""

    def __init__(self, problem: SLProblem):
        self.problem = problem
        self._cache = {}

    def mesh(self, lam):
        """Nodes and (bands, rhs) table resolving the phase of lam: 60 steps
        per radian, at least 4,000."""
        phase = math.sqrt(max(lam, 0.0)) * self.problem.length
        n_uniform = max(4000, int(60.0 * phase))
        if n_uniform not in self._cache:
            ts = _build_mesh(self.problem.length, n_uniform, self.problem.layer)
            w_nodes, w_mids = _weight_tables(self.problem, ts)
            rhs = np.zeros(2 * len(ts))
            rhs[1] = w_nodes[0]
            self._cache[n_uniform] = (ts, (_step_bands(ts, w_nodes, w_mids), rhs))
        return self._cache[n_uniform]


def _bracket(shooter: _Shooter, ell: float):
    """Walk by factors of 4 from pi^2/(4 ell^2) to a sign change of S,
    inside the documented range; returns (lo, hi, sweeps) with
    S(lo) > 0 >= S(hi) and sweeps the number of S(lam) evaluations."""
    lam_lo = SCAN_FLOOR_FACTOR * math.pi**2 / (4.0 * ell * ell)
    lam_hi = SCAN_CEIL_FACTOR / (ell * ell)
    lam = math.pi**2 / (4.0 * ell * ell)
    sweeps = 0

    def below(lam):
        nonlocal sweeps
        sweeps += 1
        return _shoot(shooter.mesh(lam)[1], lam) > 0.0

    if below(lam):
        while lam < lam_hi:
            lo, lam = lam, min(4.0 * lam, lam_hi)
            if not below(lam):
                return lo, lam, sweeps
        raise NoBracketFound(f"no sign change of the shooting function up to lambda = {lam_hi}")
    while lam > lam_lo:
        hi, lam = lam, max(0.25 * lam, lam_lo)
        if below(lam):
            return lam, hi, sweeps
    raise NoBracketFound(
        "shooting function not positive at the scan floor; "
        "first eigenvalue below the documented scan range"
    )


def solve_shooting(problem: SLProblem, tol: float = 1e-10) -> EigenResult:
    """First eigenvalue of the mixed problem by shooting.

    Integrates from phi(0) = 0 with unit initial slope.  A walk by factors
    of 4 brackets the sign change of S(lam) (see _shoot), and brentq finds
    the root on the mesh of the bracket's upper end.  `tol` bounds the
    normalized residual |S(lam)/S(0)| at that root; a root that misses it
    is a SolverError.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    shooter = _Shooter(problem)
    lo, hi, sweeps = _bracket(shooter, problem.length)
    ts, table = shooter.mesh(hi)
    # brentq returns a point it has evaluated: keep each S(lam) for the residual
    svals = {}
    lam, root = brentq(
        _sweep, lo, hi, args=(table, svals), xtol=ROOT_RTOL * lo, rtol=ROOT_RTOL, full_output=True
    )
    # S(0) = u(0) = w(0): at lam = 0 the flux is constant
    resid = abs(svals[lam]) / float(table[1][1])
    if not resid <= tol:
        raise SolverError(f"shooting residual {resid:.3g} misses tol = {tol} at lambda = {lam}")
    return EigenResult(
        value=lam, method="shooting", residual=resid, grid_size=len(ts) - 1,
        sweeps=sweeps + root.function_calls,
    )


# ---------------------------------------------------------------------------
# finite differences


def _green_first(weight, lo, hi, cells, free=False):
    """First nonzero eigenvalue of the FD pencil on [lo, hi] at `cells`
    cells, with phi'(hi) = 0 and phi(lo) = 0 (or phi'(lo) = 0 when `free`),
    and the number of power iterations it took.

    Node-based centered scheme: face weights sit at the cell midpoints, and
    a Neumann end node carries half a cell of mass weighted a quarter cell
    inside, so a weight that vanishes exactly at hi stays admissible.  With
    phi(lo) = 0 the stiffness is K = B^T W B, B the lower-bidiagonal
    difference and W the face weights, so K^-1 y is a reverse cumulative
    sum, a division by W and a forward cumulative sum: the discrete Green's
    function of the mixed problem, entrywise positive.  Power iteration on
    K^-1 M from a positive start converges to the first mode, and its
    eigenvalue (y.x)/(y.K^-1 y), y = M x, is a quotient of sums of positive
    terms.  A free node at lo adds its half-cell mass, and the constants
    become the kernel of K.  Iterates kept M-orthogonal to them (deflation)
    give a y that sums to zero, so the same sums solve K z = y up to a
    constant, which the quotient ignores.  The increasing ramp start meets
    the first nonzero mode, which is monotone, and the iterates stay
    increasing, so the flux through a face where x < 0 is minus the sum of
    the negative y up to it: no flux cancels, even where the weight
    vanishes at lo.  No symmetry of the weight is used.  Trailing cells whose
    weight underflows to exactly 0.0 carry no flux and no mass, and are cut
    at the last positive face.
    """
    h = (hi - lo) / cells
    nodes = np.linspace(lo, hi, cells + 1)
    faces = 0.5 * (nodes[:-1] + nodes[1:])
    # the free end mass, then face weights and node masses in order along
    # the interval
    f = int(free)
    samples = np.empty(2 * cells + f)
    samples[f + 1 : -1 : 2] = np.asarray(weight(nodes[1:-1]), dtype=float)
    samples[f:-1:2] = np.asarray(weight(faces), dtype=float)
    samples[-1] = 0.5 * float(weight(hi - 0.25 * h))
    if free:
        samples[0] = 0.5 * float(weight(lo + 0.25 * h))
    # only a tail of exact zeros, an underflow, is cut; a zero before a
    # positive sample is outside the domain
    kept = np.flatnonzero(samples != 0.0)
    if kept.size == 0 or kept[-1] + 1 != kept.size or np.any(samples < 0.0):
        raise DomainError("weight not positive on (0, ell)")
    faces_kept = (kept.size + 1 - f) // 2
    w, mass = samples[f : f + 2 * faces_kept : 2], samples[1 - f : f + 2 * faces_kept : 2]
    x = nodes[: mass.size].copy() if free else np.ones(faces_kept)
    lam = math.inf
    # a weight that overflows, or a subnormal face under a finite flux, is a
    # solver failure, not a numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total = mass.sum()
        for it in range(1, FD_MAX_ITERATIONS + 1):
            if free:
                x -= (mass * x).sum() / total
            y = mass * x
            # the flux through each face: the sum of y beyond it or, with lo
            # free and x < 0, minus the sum up to it; each sums terms of one sign
            flux = np.cumsum(y[::-1])[::-1][f:]
            if free:
                flux = np.where(x[:-1] < 0.0, -np.cumsum(y[:-1]), flux)
            # z at the nodes after lo, with z(lo) = 0
            green = np.cumsum(flux / w)
            # numpy's pairwise sums, not a BLAS dot: no thread start-up, and
            # the rounding grows like log(cells)
            lam, lam_old = float((y * x).sum()) / float((y[f:] * green).sum()), lam
            if not (math.isfinite(lam) and lam > 0.0):
                raise SolverError(
                    "finite-difference iteration not finite: the weight under- or overflows on the grid"
                )
            # the quotient falls in exact arithmetic, so a rise is rounding
            if lam_old - lam <= FD_RTOL * lam:
                return lam / (h * h), it
            if free:
                x[0] = 0.0
            np.divide(green, green[-1], out=x[f:])
    raise SolverError(
        f"finite-difference power iteration did not settle in {FD_MAX_ITERATIONS} iterations"
    )


def _richardson(lam_n, lam_2n, n, sweeps):
    """(4*lam_2n - lam_n)/3 with error estimate |lam_n - lam_2n|/3.

    The estimate is the error of the coarse pair (lam_2n's, for an h^2
    scheme), not of the extrapolated value it is reported with, which is
    usually far more accurate: on `bound kahler-neumann --m 5 --k2 1
    --D pi` it is 1.16e-7 against an actual error of 3.7e-13.
    """
    return EigenResult(
        value=float((4.0 * lam_2n - lam_n) / 3.0),
        method="finite_difference",
        residual=float(abs(lam_n - lam_2n) / 3.0),
        grid_size=2 * n,
        sweeps=sweeps,
    )


def _fd(weight, lo, hi, n, free=False):
    """_green_first at n and 2n cells, Richardson-extrapolated; `sweeps`
    counts the power iterations over both grids."""
    if n < 16:
        raise DomainError("n must be at least 16")
    if n > MAX_FD_CELLS:
        raise DomainError(f"n must be at most {MAX_FD_CELLS}")
    lam_n, it_n = _green_first(weight, lo, hi, n, free)
    lam_2n, it_2n = _green_first(weight, lo, hi, 2 * n, free)
    return _richardson(lam_n, lam_2n, n, it_n + it_2n)


def solve_fd(problem: SLProblem, n: int = 2000) -> EigenResult:
    """First eigenvalue of the mixed problem by finite differences (see
    _green_first and _fd)."""
    return _fd(problem.weight, 0.0, problem.length, n)


def neumann_first_nonzero_direct(weight, half_length: float, n: int = 2000) -> EigenResult:
    """First nonzero Neumann eigenvalue on [-half_length, half_length].

    The scheme of solve_fd with the left end free as well; no symmetry of
    the weight is used, so this is an independent check of the
    half-interval reduction.  The weight must be even and positive;
    evenness is verified on the 2n grid.
    """
    ell = half_length
    if not (math.isfinite(ell) and ell > 0):
        raise DomainError("half_length must be positive and finite")
    result = _fd(weight, -ell, ell, n, free=True)
    w = np.asarray(weight(np.linspace(-ell, ell, 2 * n + 1)[1:-1]), dtype=float)
    if np.abs(w - w[::-1]).max() / w.max() > 1e-8:
        raise DomainError("weight is not even on the interval")
    return result


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
