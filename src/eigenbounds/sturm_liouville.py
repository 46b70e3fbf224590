"""One-dimensional Sturm-Liouville eigenvalue solvers.

Two independent routes to the same eigenvalues:

  * solve_shooting: advances the self-adjoint first-order system
    phi' = u/w, u' = -lam*w*phi from the left end by classical RK4,
    brackets the sign change of the Neumann shooting function
    S(lam) = u(ell; lam) by a walk in lam and finds its root by Brent's
    method (_brent, a port of scipy's brentq).
    The system is linear, so a sweep is one banded triangular LAPACK
    solve for all node states; S(lam) = -w(0) when any node has
    phi < 0 < u.  A solve tabulates one mesh (_Shooter), and every
    sweep of it goes through one memo of S.
  * solve_fd: node-based finite differences for (w phi')' = -lam*w*phi,
    with face weights at the cell midpoints and a half-cell end mass at
    the end node, with Richardson extrapolation over n and 2n cells.  The
    inverse of the mixed stiffness is the discrete Green's function, two
    cumulative sums and a division by the face weights, so power iteration
    on it finds the first eigenvalue from sums of positive terms; it keeps
    relative accuracy on fine grids and for tiny eigenvalues.  The weight
    is sampled once, on the 2n grid's half-cell lattice, and the n grid
    reads every other sample.  Given solve_shooting's result, the n grid
    starts from its eigenfunction, and the 2n grid starts from the n grid's
    iterate (see _fd).

Both solve the mixed problem phi(0)=0, phi'(ell)=0 on a half interval and
return eigenvalues only; where the weight vanishes at ell (SLProblem.order,
the boundary-sharp cases) shooting stops at a cut and lumps the tail into
an end mass (see _cut), and finite differences put no mass at ell.  Both
work at a power-of-two length scale (see _Shooter), and an eigenvalue that
is not a normal float is a SolverError.  neumann_first_nonzero_direct
solves the full-interval Neumann problem without using any symmetry, so the
half-interval reduction can be validated against it; it runs the same
Green's-function iteration with the left end free, deflated against the
constants.  eigen_limit extrapolates eigenvalues from truncated problems;
no bound calls it, and it stays only because the benchmark tracer looks up
bounds.eigen_limit, until ROADMAP item 2.  eigh_tridiagonal (dstebz) is
likewise called by no solver and stays for the tracer's spans; the surface
modes factor and solve with dpttrf and dpttrs.  LAPACK comes from scipy's
compiled _flapack (_load_flapack).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NoBracketFound, SolverError, StabilityFailure

__all__ = [
    "SLProblem",
    "EigenResult",
    "solve_shooting",
    "solve_fd",
    "neumann_first_nonzero_direct",
    "eigen_limit",
    "check_length",
]

# the shooting solver looks for the first eigenvalue in
# [SCAN_FLOOR_FACTOR * pi^2/(4 ell^2), SCAN_CEIL_FACTOR / ell^2]
SCAN_FLOOR_FACTOR = 1e-2
SCAN_CEIL_FACTOR = 1e4
# relative tolerance of the shooting root, and the Brent steps it may take
ROOT_RTOL = 1e-14
ROOT_MAX_ITERATIONS = 100
RESIDUAL_MAX = 1e-10  # largest normalized residual |S(lam)/S(0)| accepted at the root
# FD cells per grid.  The cumulative sums keep relative accuracy on fine
# grids, so the cap bounds memory and time: n = 10^6 takes about 165 MB over
# the interpreter's and 0.3 s (solve_fd) or 0.45 s (the full interval) on a
# 2-core Xeon VM
MAX_FD_CELLS = 1_000_000
# the FD power iteration stops once lam falls by at most FD_RTOL
# relative, and fails after FD_MAX_ITERATIONS
FD_RTOL = 1e-14
FD_MAX_ITERATIONS = 500
# shortest interval solved: the first eigenvalue, about 1/ell^2, overflows
# near ell = 1e-154
MIN_LENGTH = 1e-152
# the StabilityFailure of a shooting sweep that leaves the float range
OVERFLOW_MESSAGE = (
    "shooting integration overflowed: the weight spans more orders of magnitude"
    " on the interval than floating point holds"
)


def check_length(what, ell, least):
    """Refuse a length that is not finite, or below `least`: MIN_LENGTH for
    a length that is solved, twice that for a diameter, whose half is."""
    if not (math.isfinite(ell) and ell > 0):
        raise DomainError(f"{what} must be positive and finite, got {ell}")
    if ell < least:
        raise DomainError(
            f"{what} must be at least {least} (eigenvalues scale like 1/length^2), got {ell}"
        )


# ---------------------------------------------------------------------------
# LAPACK


def _load_flapack():
    """scipy.linalg._flapack, loaded without importing the scipy.linalg package.

    That import takes about 300 ms, most of a command's start-up (its
    array-API layer loads numpy.f2py); the extension alone loads in a few ms.
    It is registered under its own name, so scipy.linalg.lapack, once
    imported, exports the same function objects.  Where the file is not
    found, the package import is the fallback.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_loader(name, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    from scipy.linalg import _flapack

    return _flapack


_flapack = _load_flapack()
dtbtrs = _flapack.dtbtrs
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


def eigh_tridiagonal(d, e, count):
    """The `count` smallest eigenvalues, ascending, of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e: dstebz by
    bisection, the call of scipy.linalg.eigh_tridiagonal(select="i",
    eigvals_only=True), with its refusals as SolverErrors.
    """
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise SolverError("tridiagonal eigenproblem has non-finite entries")
    m, w, _, _, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, 1, count, 0.0, "E")
    if info != 0:
        raise SolverError(f"tridiagonal eigensolve failed: LAPACK dstebz info = {info}")
    if m < count:
        raise SolverError(f"tridiagonal eigensolve returned {m} of {count} eigenvalues")
    return w[:count]


@dataclass(frozen=True)
class SLProblem:
    """The mixed problem (w phi')' = -lam*w*phi, phi(0) = 0, phi'(length) = 0.

    `weight` is w(t) > 0 on [0, length).  `power` is the summed power of
    the weight's non-constant factors, 0 when it has none or is not a
    product of factors; it sizes the shooting mesh (see _Shooter).
    `order` > 0 says the weight vanishes at `length` to that order:
    solve_shooting then cuts the interval (see _cut), and solve_fd puts no
    mass at `length`, where the weight is never evaluated.
    """

    length: float
    weight: Callable
    power: float = 0
    name: str = ""
    order: float = 0

    def __post_init__(self):
        check_length("interval length", self.length, MIN_LENGTH)


@dataclass
class EigenResult:
    """A computed eigenvalue with its provenance.  `sweeps` counts every
    S(lam) sweep of solve_shooting, or for the FD solvers the power
    iterations over both grids.  `cut_error` and `eigenfunction`, the pair
    (t, phi) of mesh nodes and eigenfunction values that solve_fd can start
    from: see solve_shooting; None from the FD solvers."""

    value: float
    method: str
    residual: float
    grid_size: int
    sweeps: int
    cut_error: float | None = None
    eigenfunction: tuple | None = None


# ---------------------------------------------------------------------------
# meshes and weight tables for the shooting integrator


def _build_mesh(ell: float, n_uniform: int, layer: float) -> np.ndarray:
    """Integration nodes on [0, ell]: uniform, or with a `layer` > 0 (a cut's
    eps, see _Shooter) geometrically graded into a right boundary layer of
    that width."""
    if not layer:
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


def _weight_tables(weight: Callable, ts: np.ndarray):
    """`weight` at the nodes `ts` and the cell midpoints, up to the last
    node before a trailing run of samples below 8 times the smallest normal
    float: the weight has underflowed there, the caller ends the mesh at
    len(w_nodes) nodes, and the kept samples' reciprocals in _step_bands,
    1/w0 + 4/wm + 1/w1, stay finite.  A sample <= 0 before that run, or < 0
    in it, is a DomainError."""
    # one call along the mesh, node 0, mid 0, node 1, ...
    points = np.empty(2 * len(ts) - 1)
    points[0::2], points[1::2] = ts, 0.5 * (ts[:-1] + ts[1:])
    # a weight that grows like exp(a*t) overflows on a long interval; that
    # is a solver failure, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.asarray(weight(points), dtype=float)
    # keep the nodes up to the last one not below 8 times the smallest normal float
    normal = np.flatnonzero(~(samples < 8.0 * np.finfo(float).tiny))
    keep = normal[-1] // 2 + 1 if normal.size else 0
    if keep < 2 or np.any(samples[: 2 * keep - 1] <= 0) or np.any(samples < 0):
        raise DomainError("weight not positive on [0, ell]")
    samples = samples[: 2 * keep - 1]
    if not np.all(np.isfinite(samples)):
        raise SolverError("weight not finite on the grid: it overflows in floating point")
    return samples[0::2], samples[1::2]


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
    w0, wm, w1 = w_nodes[:-1], w_mids, w_nodes[1:]
    bands = np.zeros((4, 2 * len(ts), 3), order="F")
    # columns of phi_k and u_k for k < n; the last node couples to nothing
    phi_col, u_col = slice(0, -2, 2), slice(1, -2, 2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # each shared factor once, in the same float operations: (-x)*y = -(x*y)
        h2 = h * h
        h_6, h2_6, h3_12, neg_h4 = h / 6.0, h2 / 6.0, h * h2 / 12.0, -h2 * h2
        inv0, inv1 = 1.0 / w0, 1.0 / w1
        bands[2, phi_col, 0] = -1.0
        bands[2, phi_col, 1] = h2_6 * (w0 / wm + 1.0 + wm / w1)
        bands[2, phi_col, 2] = neg_h4 * w0 / (24.0 * w1)
        bands[3, phi_col, 1] = h_6 * (w0 + 4.0 * wm + w1)
        bands[3, phi_col, 2] = -h3_12 * (w0 + w1)
        bands[1, u_col, 0] = -h_6 * (inv0 + 4.0 / wm + inv1)
        bands[1, u_col, 1] = h3_12 * (inv0 + inv1)
        bands[2, u_col, 0] = -1.0
        bands[2, u_col, 1] = h2_6 * (wm / w0 + 1.0 + w1 / wm)
        bands[2, u_col, 2] = neg_h4 * w1 / (24.0 * w0)
    if not np.all(np.isfinite(bands)):
        raise StabilityFailure(OVERFLOW_MESSAGE)
    return bands


def _shoot(table, lam):
    """Classical RK4 sweep of the shooting system, as one banded solve.

    y = (phi, u), phi' = u/w, u' = -lam*w*phi, u(0) = w(0).  `table` is
    (bands, rhs, mass) from _Shooter: the band of _step_bands, the right
    side (phi_0, u_0) = (0, w(0)) with zeros after it, and the end mass of
    a cut (see _cut; 0.0 without one), a float.  Forward substitution in
    dtbtrs is the RK4 recurrence.  Returns (S(lam), phi) with phi at the
    nodes and, at the last node b, S(lam) = u(b) - lam*mass*phi(b), or -w(0)
    past the first eigenvalue (see below), so S(lam) > 0 exactly when lam
    lies below it.
    """
    bands, rhs, mass = table
    # B0 + lam*(B1 + lam*B2), formed in place
    band = bands[..., 2] * lam
    band += bands[..., 1]
    band *= lam
    band += bands[..., 0]
    states, info = dtbtrs(band, rhs, uplo="L", diag="U")
    if info != 0:
        raise SolverError(f"banded shooting solve failed: LAPACK info = {info}")
    phi, u = states[0::2], states[1::2]
    s = float(u[-1]) - lam * mass * float(phi[-1])
    # u falls while phi > 0 and phi turns only after u has, so phi < 0 < u
    # puts the Pruefer angle past 3pi/2, and (with an end mass) phi(b) < 0 < S
    # puts it in (pi, 3pi/2) at b: lam is past the first eigenvalue
    if np.any((phi < 0.0) & (u > 0.0)) or phi[-1] < 0.0 < s:
        s = -float(rhs[1])
    elif not math.isfinite(s):
        raise StabilityFailure(OVERFLOW_MESSAGE)
    return s, phi


def _cut(order):
    """eps/ell of the cut short of an end where the weight vanishes to order p.

    The bounded solution has u(ell) = 0, so its flux at the cut is lam int w phi
    over the tail, lumped into the end mass w(ell - eps) eps/(p + 1), the leading
    Frobenius term.  The mass is off by O(eps/ell) of itself and is O((eps/ell)^(p+1))
    of the norm, so lam is off by O((eps/ell)^(p+2)): 10^(-16/(p+2)) puts that near
    1e-16.  From p = 4 on it is 1e-3, where w(ell - eps) is about (1.6e-3)^p w(0) on
    the model weights, a normal float up to p = 109 (1e-4 underflows at p = 98).
    """
    return min(1e-3, 10.0 ** (-16.0 / (order + 2.0)))


class _Shooter:
    """The mesh `ts` and the (bands, rhs, mass) table of one shooting solve.

    It solves the problem in units of 2^e, e the integer nearest
    log2(length): `length` and `weight` are the scaled ones.  Lengths and
    steps are divided and lam multiplied by exact powers of two, so h^3 and
    h^4 in the band stay normal at any length, and values match the
    unscaled solve bit for bit wherever that stayed normal.

    The mesh is uniform, with at least 2,000 steps, 850 sqrt(P), P the
    problem's `power` (RK4's relative error on a weight that falls like a
    Gaussian of width ell/sqrt(P) grows like P^2 h^4, and this keeps it
    below 3e-13), and 600 per unit of ell |w'(0)/w(0)|, up to 40,000, read
    from that mesh's first cell and built again where it asks for more (a
    Dirichlet model weight starts like exp(-lam' P t)).  With `order` p > 0
    the mesh ends at the cut, graded into a layer eps, with at least 4,000
    steps, and P is at least p.  `steps` is the uniform count, and
    `w_nodes` the weight at the nodes `ts`.
    """

    def __init__(self, problem: SLProblem):
        self.problem = problem
        e = self.e = round(math.log2(problem.length))
        self.length = math.ldexp(problem.length, -e)
        self.weight = lambda t: problem.weight(np.ldexp(t, e))
        self.eps = _cut(problem.order) * self.length if problem.order > 0 else 0.0
        power = max(problem.power, problem.order)
        self.build(max(4000 if self.eps else 2000, int(850.0 * math.sqrt(power))), slope=True)

    def build(self, steps, slope=False):
        """Tabulate the mesh of `steps` uniform steps; with `slope`, build it
        again at the start slope's count where that is more (see above)."""
        ts = _build_mesh(self.length - self.eps, steps, self.eps)
        w_nodes, w_mids = _weight_tables(self.weight, ts)
        if slope:
            slope = abs(math.log(w_nodes[1]) - math.log(w_nodes[0])) * steps
            more = min(40000, int(600.0 * slope))
            if more > steps:
                return self.build(more)
        self.steps, self.w_nodes = steps, w_nodes
        ts = self.ts = ts[: len(w_nodes)]
        rhs = np.zeros(2 * len(ts))
        rhs[1] = w_nodes[0]
        mass = float(w_nodes[-1] * self.eps / (self.problem.order + 1.0))
        self.table = (_step_bands(ts, w_nodes, w_mids), rhs, mass)


def _unscaled(lam, e):
    """An eigenvalue lam found in units of 2^e, in the problem's units:
    lam * 4^-e.  One that is not a normal float is a SolverError, never a bound."""
    try:
        value = math.ldexp(lam, -2 * e)
    except OverflowError:
        value = math.inf
    if not np.finfo(float).tiny <= value < math.inf:
        way = "over" if value > 1.0 else "under"
        raise SolverError(f"the eigenvalue {way}flows in floating point: {lam!r} * 2^{-2 * e}")
    return value


def _bracket(S, shooter: _Shooter):
    """Walk by factors of 4 from pi^2/(4 ell^2) to a sign change of S,
    inside the documented range, ell the shooter's scaled length; returns
    (lo, hi) with S(lo) > 0 >= S(hi)."""
    ell = shooter.length
    lam_lo = SCAN_FLOOR_FACTOR * math.pi**2 / (4.0 * ell * ell)
    lam_hi = SCAN_CEIL_FACTOR / (ell * ell)
    lam = math.pi**2 / (4.0 * ell * ell)
    if S(lam) > 0.0:
        while lam < lam_hi:
            lo, lam = lam, min(4.0 * lam, lam_hi)
            if S(lam) <= 0.0:
                return lo, lam
        length = shooter.problem.length
        raise NoBracketFound(
            "no sign change of the shooting function up to "
            f"lambda = {SCAN_CEIL_FACTOR / (length * length)}"
        )
    while lam > lam_lo:
        hi, lam = lam, max(0.25 * lam, lam_lo)
        if S(lam) > 0.0:
            return lam, hi
    raise NoBracketFound(
        "shooting function not positive at the scan floor; "
        "first eigenvalue below the documented scan range"
    )


def _brent(f, xa, xb, xtol, rtol):
    """Root of f between xa and xb: a port of scipy's brentq.c (Brent 1973,
    ch. 4) with the same float operations in the same order, so its iterates
    equal brentq's bit for bit.  f returns finite floats.  xblk is the
    bracket end across the root from xcur.  No sign change, or no
    convergence in ROOT_MAX_ITERATIONS steps (brentq's default), is a
    SolverError."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverError(f"no sign change for the root search between {xa!r} and {xb!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAX_ITERATIONS):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        # secant or inverse quadratic step; none, or one dividing by zero (an
        # inf or nan step in C), bisects
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SolverError(f"root search did not converge in {ROOT_MAX_ITERATIONS} iterations")


def solve_shooting(problem: SLProblem) -> EigenResult:
    """First eigenvalue of the mixed problem by shooting.

    Integrates from phi(0) = 0 with unit initial slope, on the table of a
    _Shooter.  Every sweep goes through S(lam) (see _shoot), one memo entry
    per lam: a walk by factors of 4 brackets its sign change (_bracket),
    and Brent's method (_brent) finds the root.  Where 60 steps per radian
    of the phase sqrt(hi) ell at the bracket's upper end are more than the
    table has, it is built again at that count and the walk runs again.
    A root whose residual |S(lam)/S(0)| exceeds RESIDUAL_MAX, or whose
    value is not a normal float, is a SolverError.  With a cut (see _cut),
    `cut_error` estimates the cut's error from the same sweeps: the shift
    of lam the end mass makes, lam mass phi(b)/|S'| with S' the secant to
    the nearest sweep 1e-8 lam or more below the root, times the mass's
    relative error from its next Frobenius terms (the weight's departure
    from (ell - t)^p over the last cell, and phi's variation over the tail).
    Where the weight underflows short of the cut (see _weight_tables),
    cut_error is only the error of the end mass at the last kept node, not
    of the dropped tail, whose weight is below 8 times the smallest normal float.

    `eigenfunction` is (t, phi) at the mesh nodes, in the problem's units,
    from the root's sweep, which the memo holds with every other.  Past the
    last node where w >= eps max(w), eps the float epsilon, phi is held at
    its value there: at the root's residual, phi carries a share of about
    residual * int 1/w of the second solution, which can dominate where w
    is that small (unheld, phi reaches 5e284 on the m = 50 Kahler weight at
    a diameter a relative 1e-6 short of its cap).
    """
    shooter = _Shooter(problem)
    svals = {}  # lam: (S(lam), phi) of _shoot on the shooter's table

    def S(lam):
        if lam not in svals:
            svals[lam] = _shoot(shooter.table, lam)
        return svals[lam][0]

    lo, hi = _bracket(S, shooter)
    sweeps = 0
    steps = int(60.0 * (math.sqrt(hi) * shooter.length))
    if steps > shooter.steps:
        sweeps = len(svals)
        svals.clear()
        shooter.build(steps)
        lo, hi = _bracket(S, shooter)
    lam = _brent(S, lo, hi, ROOT_RTOL * lo, ROOT_RTOL)
    value = _unscaled(lam, shooter.e)
    ts, (_, rhs, mass) = shooter.ts, shooter.table
    # S(0) = u(0) = w(0): at lam = 0 the flux is constant
    resid = abs(S(lam)) / float(rhs[1])
    if not resid <= RESIDUAL_MAX:
        raise SolverError(
            f"shooting residual {resid:.3g} exceeds {RESIDUAL_MAX} at lambda = {value}"
        )
    cut_error = None
    if shooter.eps:
        p, eps = problem.order, shooter.eps
        r = float((shooter.length - ts[-2]) / eps)
        w_in, w_cut = (float(w) for w in shooter.weight(ts[-2:]))
        # w_in/(w_cut r^p) is 0 where r^p overflows: the mesh ended far short of the cut
        dev = w_in / (w_cut * r**p) - 1.0 if p * math.log(r) < 709.0 else -1.0
        rel = abs(dev) / ((r - 1.0) * (p + 2.0))
        rel += lam * eps * eps / ((p + 1.0) * (p + 3.0))
        near = max((v for v in svals if v <= lam * (1 - 1e-8) and S(v) > 0.0), default=lo)
        slope = (S(near) - S(lam)) / (lam - near)
        cut_error = math.ldexp(rel * lam * mass * abs(svals[lam][1][-1]) / slope, -2 * shooter.e)
    phi = svals[lam][1]  # the root's record: S(lam) above ran or read it
    w = shooter.w_nodes
    held = np.flatnonzero(w >= np.finfo(float).eps * w.max())[-1]
    phi[held + 1 :] = phi[held]
    return EigenResult(
        value=value, method="shooting", residual=resid, grid_size=len(ts) - 1,
        sweeps=sweeps + len(svals), cut_error=cut_error,
        eigenfunction=(np.ldexp(ts, shooter.e), np.ldexp(phi, shooter.e)),
    )


# ---------------------------------------------------------------------------
# finite differences


def _green_first(samples, lo, hi, free=False, start=None):
    """First nonzero eigenvalue of the FD pencil on [lo, hi], with
    phi'(hi) = 0 and phi(lo) = 0 (or phi'(lo) = 0 when `free`), the number
    of power iterations it took and the converged iterate at the nodes.

    `samples` holds the weight along a grid of len(samples) // 2 cells (see
    _fd): with `free` half the weight at lo, then the face and inner node
    weights in turn, face 0 first, then half the weight at hi.  `start` is a
    vector at the cells + 1 nodes, increasing with `free` and otherwise
    finite and positive on the kept nodes after lo, or a SolverError; by
    default ones, or with `free` the ramp t.  The iteration runs in it, and
    it is returned, set to the first and last kept values outside the kept
    nodes and to 0 at a fixed lo.  From any such start the quotient falls
    in exact arithmetic, which the stop rule relies on.

    Node-based centered scheme: face weights sit at the cell midpoints, and
    a Neumann end node carries half a cell of mass weighted by the weight
    there, the trapezoid rule's end term.  With phi(lo) = 0 the stiffness
    is K = B^T W B, B the lower-bidiagonal difference and W the face
    weights, so K^-1 y is a reverse cumulative sum, a division by W and a
    forward cumulative sum: the discrete Green's function of the mixed
    problem, entrywise positive.  Power iteration on K^-1 M from a
    positive start converges to the first mode, and its
    eigenvalue (y.x)/(y.K^-1 y), y = M x, is a quotient of sums of positive
    terms.  A free node at lo adds its half-cell mass, and the constants
    become the kernel of K.  Iterates kept M-orthogonal to them (deflation)
    give a y that sums to zero, so the same sums solve K z = y up to a
    constant, which the quotient ignores.  An increasing start meets the
    first nonzero mode, which is monotone, and the iterates stay
    increasing, so the flux through a face where x < 0 is minus the sum of
    the negative y up to it: no flux cancels, even where the weight
    vanishes at lo.  No symmetry of the weight is used.  Trailing cells whose
    weight underflows to exactly 0.0 carry no flux and no mass, and are cut
    at the last positive face, as are leading ones at a free lo.
    """
    f = int(free)
    cells = (samples.size - f) // 2
    h = (hi - lo) / cells
    # only runs of exact zeros, an underflow, at hi and at a free lo (from the
    # node before the first positive sample) are cut; other zeros are outside
    kept = np.flatnonzero(samples != 0.0)
    lead = 2 * (kept[0] // 2) if free and kept.size else 0
    if kept.size == 0 or kept[0] > lead + f or kept[-1] - kept[0] >= kept.size or np.any(samples < 0):
        raise DomainError("weight not positive on (0, ell)")
    faces_kept = (kept[-1] + 2 - lead - f) // 2
    samples = samples[lead:]
    w, mass = samples[f : f + 2 * faces_kept : 2], samples[1 - f : f + 2 * faces_kept : 2]
    if start is None:
        start = np.linspace(lo, hi, cells + 1) if free else np.ones(cells + 1)
    first = lead // 2 if free else 1
    x = start[first : first + mass.size]
    # nan fails both comparisons
    if not (free or (x.min() > 0.0 and x.max() < math.inf)):
        raise SolverError("finite-difference start is not finite and positive on the grid")
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
                # h^2 formed in units of 2^e as in _Shooter, where it is normal
                e = round(math.log2(hi - lo))
                h_e = math.ldexp(h, -e)
                start[:first] = x[0] if free else 0.0
                start[first + x.size :] = x[-1]
                return _unscaled(lam / (h_e * h_e), e), it, start
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
    usually far more accurate: with the trapezoid end masses of _fd the
    error of a smooth positive weight runs in even powers of h, so the
    extrapolated value is off by O(h^4).  On `bound kahler-neumann --m 5
    --k2 1 --D pi` the estimate is 1.16e-7 against an actual error of 3.9e-13.
    """
    return EigenResult(
        value=float((4.0 * lam_2n - lam_n) / 3.0),
        method="finite_difference",
        residual=float(abs(lam_n - lam_2n) / 3.0),
        grid_size=2 * n,
        sweeps=sweeps,
    )


def _fd(weight, lo, hi, n, free=False, order=0, start=None):
    """_green_first at n and 2n cells, Richardson-extrapolated; `sweeps` counts
    the power iterations over both grids.

    The weight is sampled once, on the 2n grid's half-cell lattice lo + k h/2,
    k = 1 ... 4n - 1, with the end mass w(hi)/2 (with `free` also w(lo)/2
    first).  With `order` > 0 the weight vanishes at hi and the end mass is 0:
    the model weights refuse to evaluate at a cap.  The n grid's samples are
    every other one of these, so it reads a view of the same table.  The n
    grid starts cold (see _green_first) or, given `start`, a pair (t, phi)
    of nodes and eigenfunction values on [lo, hi] (solve_shooting's
    `eigenfunction`), from phi linearly interpolated onto its nodes and held
    at the end values past t's ends.  The 2n grid starts from the n grid's
    iterate, linearly interpolated, which is positive, and increasing with
    `free`.  With `free` the weight must be even, checked on the lattice.
    |lam_n - lam_2n| above lam_2n/2, or a Richardson value not finite and
    positive, cannot be one eigenvalue at two resolutions: a SolverError.
    """
    if n < 16:
        raise DomainError("n must be at least 16")
    if n > MAX_FD_CELLS:
        raise DomainError(f"n must be at most {MAX_FD_CELLS}")
    f = int(free)
    # the lattice up to hi, or short of it where the weight vanishes
    stop = 4 * n if order > 0 else 4 * n + 1
    fine = np.zeros(4 * n + f)
    fine[: stop - 1 + f] = weight(np.linspace(lo, hi, 4 * n + 1)[1 - f : stop])
    fine[-1] *= 0.5
    if free:
        fine[0] *= 0.5
        # before either solve; a weight negative somewhere gets _green_first's message
        if np.all(fine >= 0.0) and np.abs(fine - fine[::-1]).max() > 1e-8 * fine.max():
            raise DomainError("weight is not even on the interval")
    if start is not None:
        start = np.interp(np.linspace(lo, hi, n + 1), *start)
    lam_n, it_n, x = _green_first(fine[1 - f :: 2], lo, hi, free, start)
    start = np.empty(2 * n + 1)
    start[0::2] = x
    start[1::2] = 0.5 * (x[:-1] + x[1:])
    lam_2n, it_2n, _ = _green_first(fine, lo, hi, free, start)
    if not (0.0 < 4.0 * lam_2n - lam_n < math.inf and abs(lam_n - lam_2n) <= 0.5 * lam_2n):
        raise SolverError(
            f"finite-difference grids give {lam_n!r} at n = {n} and {lam_2n!r} at 2n:"
            " not one eigenvalue at two resolutions"
        )
    return _richardson(lam_n, lam_2n, n, it_n + it_2n)


def solve_fd(problem: SLProblem, n: int = 2000, start: EigenResult | None = None) -> EigenResult:
    """First eigenvalue of the mixed problem by finite differences (see
    _green_first and _fd).  `start`, solve_shooting's result on the same
    problem, starts the n grid's power iteration from its eigenfunction;
    the value is the converged first eigenvalue of the same pencil under the
    same stop rule, so it moves only at that rule's floor, a few 1e-15."""
    phi = None if start is None else start.eigenfunction
    return _fd(problem.weight, 0.0, problem.length, n, order=problem.order, start=phi)


def neumann_first_nonzero_direct(weight, half_length: float, n: int = 2000) -> EigenResult:
    """First nonzero Neumann eigenvalue on [-half_length, half_length].

    The scheme of solve_fd with the left end free as well; no symmetry of
    the weight is used, so this is an independent check of the
    half-interval reduction.  The weight must be even and positive;
    evenness is verified on the 2n grid before either grid is solved.
    """
    check_length("half_length", half_length, MIN_LENGTH)
    return _fd(weight, -half_length, half_length, n, free=True)


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
