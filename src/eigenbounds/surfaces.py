"""Rotationally symmetric surfaces: spectra, diameters, comparison reports.

A surface of revolution with metric dr^2 + f(r)^2 dtheta^2 decomposes the
Laplace eigenproblem into Fourier modes k:

    -(f v')' + (k^2 / f) v = lam f v   on (0, L).

The mode solver uses a staggered (cell-centered) grid so 1/f is never
evaluated at a pole, with zero-flux faces at both ends: at a pole the face
coefficient f(0) = 0 encodes the regularity condition on its own, and for
k >= 1 the potential wall k^2/f enforces decay.  The first nonzero
eigenvalue over modes 0..MODES is the surface's mu_1.  Each mode's value
is the first eigenvalue of a positive definite tridiagonal pencil, found
by inverse iteration whose shifts dpttrf certifies to lie below it (see
_first_pair).

The diameter of a two-pole surface is its meridian length L: the metric
is at least dr^2, so every pole-to-pole path is at least L long, and two
points at r1, r2 are at most min(r1 + r2, 2L - r1 - r2) <= L apart through
the nearer pole.

The comparison report puts the two together against the m = 1 interior
bound with kappa_1 = K_min / 4, K_min the minimum Gauss curvature -f''/f.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import kahler_neumann_bound
from .coefficients import CurvatureParams, weight_kahler_radius
from .errors import ProfileError, SolverError
from .sturm_liouville import dpttrf, dpttrs

__all__ = [
    "SurfaceProfile",
    "SurfaceSpectrum",
    "DiameterEstimate",
    "SurfaceComparison",
    "sphere_profile",
    "capsule_profile",
    "random_convex_profile",
    "surface_eigen",
    "surface_diameter_upper",
    "comparison_check",
]


def __getattr__(name):
    # only the benchmark tracer looks up surfaces.dijkstra: resolved on that
    # lookup, as scipy.sparse.csgraph loads scipy.linalg; goes with its span
    # (ROADMAP item 2)
    if name == "dijkstra":
        from scipy.sparse.csgraph import dijkstra

        return dijkstra
    # only the benchmark tracer looks up surfaces.eigh_tridiagonal: nothing
    # here calls it, so its span reads 0; goes with ROADMAP item 2
    if name == "eigh_tridiagonal":
        from .sturm_liouville import eigh_tridiagonal

        return eigh_tridiagonal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# minimal analytic Gauss curvature accepted by the random generator
CONVEX_K_FLOOR = 0.05
MAX_PROFILE_DRAWS = 64  # candidates the random generator draws before giving up
# a mode's shift-invert iteration stops once its Rayleigh quotient moves by
# at most MODE_RTOL relative, and fails after MODE_MAX_SOLVES solves
MODE_RTOL = 1e-14
MODE_MAX_SOLVES = 50
# surface_eigen solves Fourier modes 0..MODES on MODE_CELLS and 2 MODE_CELLS cells
MODES = 3
MODE_CELLS = 512


@dataclass(frozen=True)
class SurfaceProfile:
    """Warping function of a two-pole surface of revolution, with derivatives."""

    f: Callable
    df: Callable
    d2f: Callable
    length: float
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ProfileError(f"meridian length must be positive, got {self.length}")
        rs = np.linspace(0.0, self.length, 513)[1:-1]
        vals = np.asarray(self.f(rs), dtype=float)
        if not (np.all(np.isfinite(vals)) and np.all(vals > 0.0)):
            raise ProfileError("warping function must be positive on the open meridian")
        scale = float(np.max(vals))
        f0 = float(self.f(0.0))
        fL = float(self.f(self.length))
        if abs(f0) > 1e-9 * scale or abs(fL) > 1e-9 * scale:
            raise ProfileError("a two-pole profile needs f(0) = f(L) = 0")
        if not float(self.df(0.0)) > 0.0:
            raise ProfileError("a two-pole profile needs f'(0) > 0")
        if not float(self.df(self.length)) < 0.0:
            raise ProfileError("a two-pole profile needs f'(L) < 0")


@dataclass
class SurfaceSpectrum:
    """First eigenvalues per Fourier mode and their minimum.  `iterations`
    counts the shift-invert solves over both grids."""

    mu1: float
    mu1_error: float
    mu1_mode: int
    modes: list
    grid_size: int
    iterations: int


@dataclass
class DiameterEstimate:
    """Diameter of a two-pole surface: its meridian length."""

    value: float


@dataclass
class SurfaceComparison:
    """Surface spectrum versus the m = 1 interior bound."""

    profile_name: str
    mu1: float
    mu1_error: float
    diameter: float
    diameter_used: float
    k_min: float
    kappa1: float
    bound: float
    bound_error: float
    margin: float
    slack: float
    ok: bool
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# profile constructors


def sphere_profile(a: float) -> SurfaceProfile:
    """Round sphere of radius a: f(r) = a sin(r/a) on [0, pi a]."""
    if not a > 0:
        raise ProfileError(f"radius must be positive, got {a}")
    return SurfaceProfile(
        f=lambda r: a * np.sin(np.asarray(r, dtype=float) / a),
        df=lambda r: np.cos(np.asarray(r, dtype=float) / a),
        d2f=lambda r: -np.sin(np.asarray(r, dtype=float) / a) / a,
        length=math.pi * a,
        name=f"sphere a={a}",
    )


def capsule_profile(aspect: float) -> SurfaceProfile:
    """Cylinder of length L = 1 and width eps = aspect with hemispherical caps.

    Smooth poles (f'(0) = 1) and K = 0 on the flat middle, so the family
    collapses to the interval [0, 1] with the flat bound pi^2 in the
    limit: the right family for the zero-curvature sharpness check.
    """
    if not 0 < aspect < 2.0 / math.pi:
        raise ProfileError(f"capsule needs 0 < aspect < 2/pi, got aspect={aspect}")
    eps = aspect
    cap = 0.5 * math.pi * eps

    def f(r):
        r = np.asarray(r, dtype=float)
        left = eps * np.sin(np.minimum(r, cap) / eps)
        right = eps * np.sin(np.minimum(1.0 - r, cap) / eps)
        return np.minimum(left, right)

    def df(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        out = np.where(r < cap, np.cos(np.minimum(r, cap) / eps), out)
        out = np.where(1.0 - r < cap, -np.cos(np.minimum(1.0 - r, cap) / eps), out)
        return out

    def d2f(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        out = np.where(r < cap, -np.sin(np.minimum(r, cap) / eps) / eps, out)
        out = np.where(1.0 - r < cap, -np.sin(np.minimum(1.0 - r, cap) / eps) / eps, out)
        return out

    return SurfaceProfile(
        f=f, df=df, d2f=d2f, length=1.0,
        name=f"capsule aspect={aspect} L=1.0",
    )


def random_convex_profile(rng: np.random.Generator) -> SurfaceProfile:
    """Seeded low-order perturbation of the unit sphere with K_min above floor.

    Candidates f(r) = sin(r) (1 + sum_j a_j sin(j r)) keep the pole slopes
    and are rejected unless f > 0 on (0, pi) and the analytic curvature
    -f''/f stays above the configured floor.
    """
    rs = np.linspace(0.0, math.pi, 2049)[1:-1]
    for _ in range(MAX_PROFILE_DRAWS):
        amps = rng.uniform(-1.0, 1.0, size=3) * np.array([0.08, 0.04, 0.02])

        def make(amps):
            js = np.arange(2, 2 + len(amps))

            def series(r, coef, trig):
                # one row per term j, summed as (t0 + t1) + t2, as along a last axis
                rows = (-1,) + (1,) * np.ndim(r)
                return np.sum(coef.reshape(rows) * trig(js.reshape(rows) * r), axis=0)

            p = lambda r: series(r, amps, np.sin)
            dp = lambda r: series(r, amps * js, np.cos)
            d2p = lambda r: series(r, -amps * js * js, np.sin)

            f = lambda r: np.sin(np.asarray(r, dtype=float)) * (1.0 + p(r))
            df = lambda r: (
                np.cos(np.asarray(r, dtype=float)) * (1.0 + p(r))
                + np.sin(np.asarray(r, dtype=float)) * dp(r)
            )
            d2f = lambda r: (
                -np.sin(np.asarray(r, dtype=float)) * (1.0 + p(r))
                + 2.0 * np.cos(np.asarray(r, dtype=float)) * dp(r)
                + np.sin(np.asarray(r, dtype=float)) * d2p(r)
            )
            return f, df, d2f

        f, df, d2f = make(amps)
        fv = f(rs)
        if not np.all(fv > 0.0):
            continue
        k_min = float(np.min(-d2f(rs) / fv))
        if k_min < CONVEX_K_FLOOR:
            continue
        return SurfaceProfile(
            f=f, df=df, d2f=d2f, length=math.pi,
            name=f"perturbed sphere amps={np.round(amps, 4).tolist()}",
        )
    raise ProfileError(f"no admissible convex profile found in {MAX_PROFILE_DRAWS} draws")


# ---------------------------------------------------------------------------
# mode spectra


def _first_pair(d, e, mass, quotient, x, previous=None):
    """First eigenpair of the pencil (T, diag(mass)), T positive definite
    tridiagonal (diagonal d, off-diagonal e), by inverse iteration from x.

    A shift sigma is taken only where dpttrf factors T - sigma M, which
    holds exactly when sigma is below the first eigenvalue mu; a refused
    one is bisected toward the last taken one, or falls to 0.  A solve
    cuts the error of the quotient rho by about ((mu - sigma) /
    (mu_2 - sigma))^2, so rho falls by nearly all of its error and the
    next shift, rho less twice that fall, stays below mu.  `previous`, the
    value on the n/2 grid, seeds the first fall; without it the first
    shift is 0.  Returns rho, its vector and the number of solves.
    """
    rho, taken, refused = quotient(x), None, math.inf
    sigma = 0.0 if previous is None else max(rho - 2.0 * abs(previous - rho), 0.0)
    for solves in range(1, MODE_MAX_SOLVES + 1):
        while True:
            dd, ee, info = dpttrf(d - sigma * mass, e)
            if info == 0:
                break
            floor = 0.0 if taken is None else taken
            if sigma == floor:
                raise SolverError(f"no certified shift: dpttrf refused the mode pencil at {sigma}")
            refused, mid = sigma, 0.5 * (floor + sigma)
            sigma = mid if taken is not None and mid < refused else floor
        taken = sigma
        x = dpttrs(dd, ee, mass * x)[0]
        x *= 1.0 / math.sqrt(x @ x)
        fall, rho = rho, quotient(x)
        fall -= rho
        if abs(fall) <= MODE_RTOL * rho:
            return float(rho), x, solves
        sigma = max(rho - 2.0 * abs(fall), taken)
        if sigma >= refused:
            sigma = 0.5 * (taken + refused)
    raise SolverError(f"mode solve did not converge in {MODE_MAX_SOLVES} solves")


def _mode_values(profile: SurfaceProfile, n: int, modes: int, start=None):
    """First nonzero eigenvalue of each Fourier mode 0..modes on n staggered
    cells, with the vectors and the number of solves.

    Mode k >= 1 is the pencil (B^T G B + k^2 F^-1, F), B the face
    differences, G the face weights over h^2 and F the cell weights.  The
    zero mode's first nonzero eigenvalue is the first of the flux pencil
    (B F^-1 B^T, G^-1) on the n - 1 inner faces, whose spectrum is the
    nonzero spectrum of k = 0, with v = G B u.  Every quotient is a ratio
    of sums of positive terms.  `start` is the (values, vectors) of the
    n/2 grid: its vectors are interpolated and its values seed the first
    shifts; without it each mode starts from the sphere's: the flux
    f sin(pi r / L), and f^k.
    """
    L = profile.length
    h = L / n
    faces = np.linspace(0.0, L, n + 1)
    centers = faces[:-1] + 0.5 * h
    w_face = np.asarray(profile.f(faces), dtype=float)
    w_cell = np.asarray(profile.f(centers), dtype=float)
    if not np.all(w_cell > 0.0):
        raise ProfileError("warping function must be positive at cell centers")
    with np.errstate(over="ignore", divide="ignore"):
        g = w_face[1:-1] / (h * h)
        inv = 1.0 / w_cell
        flux_mass = 1.0 / g
    if not all(np.all(np.isfinite(a)) for a in (g, inv, flux_mass)):
        raise SolverError("mode pencil has non-finite entries")
    diag = np.zeros(n)
    diag[:-1] += g
    diag[1:] += g

    def quotient(x, kk):
        dx = x[1:] - x[:-1]
        x2 = x * x
        return (g @ (dx * dx) + kk * (inv @ x2)) / (x2 @ w_cell)

    def flux_quotient(v):
        # B^T v is -v[0], v[:-1] - v[1:], v[-1] on the cells
        dv = v[1:] - v[:-1]
        edges = inv[0] * v[0] ** 2 + inv[-1] * v[-1] ** 2
        return (inv[1:-1] @ (dv * dv) + edges) / ((v * v) @ flux_mass)

    if start is None:
        previous = [None] * (modes + 1)
        guesses = [w_face[1:-1] * np.sin(faces[1:-1] * (math.pi / L))]
        guesses += [w_cell**k for k in range(1, modes + 1)]
    else:
        # the n/2 grid's faces are every other face, its cell centers the odd faces
        previous = start[0]
        guesses = [np.interp(faces[1:-1], faces[::2], np.pad(start[1][0], 1))]
        guesses += [np.interp(centers, faces[1::2], x) for x in start[1][1:]]
    mu, v, total = _first_pair(
        inv[:-1] + inv[1:], -inv[1:-1], flux_mass, flux_quotient, guesses[0], previous[0]
    )
    # the flux must map back to a k = 0 eigenvector, u = F^-1 B^T v
    primal = quotient(inv * np.diff(v, prepend=0.0, append=0.0), 0)
    if not abs(primal - mu) <= 1e-10 * mu:
        raise SolverError(f"zero mode's flux value {mu} disagrees with its recovered quotient {primal}")
    values, vectors = [mu], [v]
    for k in range(1, modes + 1):
        mu, x, solves = _first_pair(
            diag + (k * k) * inv, -g, w_cell,
            lambda x, kk=k * k: quotient(x, kk), guesses[k], previous[k],
        )
        values.append(mu)
        vectors.append(x)
        total += solves
    return values, vectors, total


def surface_eigen(profile: SurfaceProfile) -> SurfaceSpectrum:
    """First nonzero eigenvalue of the surface over Fourier modes 0..MODES.

    Each mode is solved on n = MODE_CELLS and 2n cells, the 2n grid
    warm-started from the n grid; the doubled-grid value is reported with
    the grid difference as its convergence estimate.
    """
    n = MODE_CELLS
    coarse = _mode_values(profile, n, MODES)
    fine = _mode_values(profile, 2 * n, MODES, start=coarse)
    rows = [
        {"k": k, "value": f, "error": abs(f - c)} for k, (c, f) in enumerate(zip(coarse[0], fine[0]))
    ]
    best = min(rows, key=lambda row: row["value"])
    return SurfaceSpectrum(
        mu1=best["value"],
        mu1_error=best["error"],
        mu1_mode=best["k"],
        modes=rows,
        grid_size=2 * n,
        iterations=coarse[2] + fine[2],
    )


# ---------------------------------------------------------------------------
# diameter


def surface_diameter_upper(profile: SurfaceProfile) -> DiameterEstimate:
    """Diameter of a two-pole surface, exactly its meridian length L.

    Every pole-to-pole path is at least L long and any two points are at
    most L apart through the nearer pole.
    """
    return DiameterEstimate(profile.length)


# ---------------------------------------------------------------------------
# the comparison report


def comparison_check(profile: SurfaceProfile, grid: int = 2000) -> SurfaceComparison:
    """Check the surface's mu_1 against the m = 1 interior bound.

    `grid` is the bound's FD grid; the spectrum is surface_eigen's.

    kappa_1 = K_min / 4 with K_min the analytic curvature minimum over a
    dense meridian grid.  The diameter is the meridian length L, exact for
    a two-pole surface (see `surface_diameter_upper`).  It is clamped to
    the positive-curvature validity cap when it exceeds it: the true
    diameter obeys the cap up to the sampling of K_min, and the bound
    decreases in D.
    """
    rs = np.linspace(0.0, profile.length, 4097)[1:-1]
    fv = np.asarray(profile.f(rs), dtype=float)
    k_min = float(np.min(-np.asarray(profile.d2f(rs), dtype=float) / fv))
    kappa1 = 0.25 * k_min
    est = surface_diameter_upper(profile)
    warnings = []
    d_used = est.value
    params = CurvatureParams(m=1, kappa1=kappa1, kappa2=0.0)
    cap = 2.0 * weight_kahler_radius(params)
    if d_used > cap:
        warnings.append(
            f"diameter overestimate {d_used:.6f} clamped to the validity cap {cap:.6f}"
        )
        d_used = cap
    spec = surface_eigen(profile)
    bound = kahler_neumann_bound(params, d_used, n=grid)
    bound_error = bound.value * bound.method_agreement
    if bound.limit_error is not None:
        bound_error += bound.limit_error
    slack = 1e-9 + spec.mu1_error + bound_error
    margin = spec.mu1 - bound.value
    return SurfaceComparison(
        profile_name=profile.name,
        mu1=spec.mu1,
        mu1_error=spec.mu1_error,
        diameter=est.value,
        diameter_used=d_used,
        k_min=k_min,
        kappa1=kappa1,
        bound=bound.value,
        bound_error=bound_error,
        margin=margin,
        slack=slack,
        ok=margin >= -slack,
        warnings=warnings + list(bound.warnings),
    )
