"""Rotationally symmetric surfaces: spectra, diameters, comparison reports.

A surface of revolution with metric dr^2 + f(r)^2 dtheta^2 decomposes the
Laplace eigenproblem into Fourier modes k:

    -(f v')' + (k^2 / f) v = lam f v   on (0, L).

The mode solver uses a staggered (cell-centered) grid so 1/f is never
evaluated at a pole, with zero-flux faces at both ends: at a pole the face
coefficient f(0) = 0 encodes the regularity condition on its own, on a
band end it is the Neumann condition, and for k >= 1 the potential wall
k^2/f enforces decay at poles.  The first nonzero eigenvalue over modes
0..K is the surface's mu_1.

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
from .sturm_liouville import eigh_tridiagonal

__all__ = [
    "SurfaceProfile",
    "SurfaceSpectrum",
    "DiameterEstimate",
    "SurfaceComparison",
    "sphere_profile",
    "band_profile",
    "spindle_profile",
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
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# minimal analytic Gauss curvature accepted by the random generator
CONVEX_K_FLOOR = 0.05
MAX_PROFILE_DRAWS = 64  # candidates the random generator draws before giving up


@dataclass(frozen=True)
class SurfaceProfile:
    """Warping function of a surface of revolution with its derivatives."""

    f: Callable
    df: Callable
    d2f: Callable
    length: float
    closure: str
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ProfileError(f"meridian length must be positive, got {self.length}")
        if self.closure not in ("two_poles", "neumann_band"):
            raise ProfileError(f"unknown closure {self.closure!r}")
        rs = np.linspace(0.0, self.length, 513)[1:-1]
        vals = np.asarray(self.f(rs), dtype=float)
        if not (np.all(np.isfinite(vals)) and np.all(vals > 0.0)):
            raise ProfileError("warping function must be positive on the open meridian")
        scale = float(np.max(vals))
        f0 = float(self.f(0.0))
        fL = float(self.f(self.length))
        if self.closure == "two_poles":
            if abs(f0) > 1e-9 * scale or abs(fL) > 1e-9 * scale:
                raise ProfileError("two_poles closure needs f(0) = f(L) = 0")
            if not float(self.df(0.0)) > 0.0:
                raise ProfileError("two_poles closure needs f'(0) > 0")
            if not float(self.df(self.length)) < 0.0:
                raise ProfileError("two_poles closure needs f'(L) < 0")
        else:
            if f0 <= 0.0 or fL <= 0.0:
                raise ProfileError("neumann_band closure needs f > 0 at both ends")


@dataclass
class SurfaceSpectrum:
    """First eigenvalues per Fourier mode and their minimum."""

    mu1: float
    mu1_error: float
    mu1_mode: int
    modes: list
    grid_size: int


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
        closure="two_poles",
        name=f"sphere a={a}",
    )


def band_profile(c: float, L: float) -> SurfaceProfile:
    """Flat cylinder band of circumference 2 pi c and height L."""
    if not (c > 0 and L > 0):
        raise ProfileError(f"band needs positive width and length, got c={c}, L={L}")
    return SurfaceProfile(
        f=lambda r: np.full_like(np.asarray(r, dtype=float), c),
        df=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d2f=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        length=L,
        closure="neumann_band",
        name=f"band c={c} L={L}",
    )


def spindle_profile(eps: float) -> SurfaceProfile:
    """Cone-pole profile eps sin(pi r) on [0, 1]: constant curvature pi^2.

    The poles are conical for eps pi != 1 (the mode solver admits
    them); the k = 0 spectrum does not depend on eps at all, so the
    family realizes the maximal-diameter equality case of the positive
    curvature bound rather than a flat collapse.
    """
    if not eps > 0:
        raise ProfileError(f"spindle needs positive eps, got eps={eps}")
    return SurfaceProfile(
        f=lambda r: eps * np.sin(math.pi * np.asarray(r, dtype=float)),
        df=lambda r: eps * math.pi * np.cos(math.pi * np.asarray(r, dtype=float)),
        d2f=lambda r: -eps * math.pi * math.pi * np.sin(math.pi * np.asarray(r, dtype=float)),
        length=1.0,
        closure="two_poles",
        name=f"spindle eps={eps} L=1.0",
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
        f=f, df=df, d2f=d2f, length=1.0, closure="two_poles",
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

            def p(r):
                r = np.asarray(r, dtype=float)[..., None]
                return np.sum(amps * np.sin(js * r), axis=-1)

            def dp(r):
                r = np.asarray(r, dtype=float)[..., None]
                return np.sum(amps * js * np.cos(js * r), axis=-1)

            def d2p(r):
                r = np.asarray(r, dtype=float)[..., None]
                return np.sum(-amps * js * js * np.sin(js * r), axis=-1)

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
            f=f, df=df, d2f=d2f, length=math.pi, closure="two_poles",
            name=f"perturbed sphere amps={np.round(amps, 4).tolist()}",
        )
    raise ProfileError(f"no admissible convex profile found in {MAX_PROFILE_DRAWS} draws")


# ---------------------------------------------------------------------------
# mode spectra


def _mode_values(profile: SurfaceProfile, n: int, modes: int):
    """First nonzero eigenvalue of each Fourier mode 0..modes on n staggered
    cells: the zero mode's second eigenvalue, and the first of every other.

    The profile is sampled once; mode k adds k^2/f to the diagonal.
    """
    L = profile.length
    h = L / n
    faces = np.linspace(0.0, L, n + 1)
    centers = faces[:-1] + 0.5 * h
    w_face = np.asarray(profile.f(faces), dtype=float)
    w_cell = np.asarray(profile.f(centers), dtype=float)
    if not np.all(w_cell > 0.0):
        raise ProfileError("warping function must be positive at cell centers")
    g = w_face[1:-1] / (h * h)
    diag = np.zeros(n)
    diag[:-1] += g
    diag[1:] += g
    scale = np.sqrt(w_cell)
    te = -g / (scale[:-1] * scale[1:])
    values = []
    for k in range(modes + 1):
        td = (diag + (k * k) / w_cell if k > 0 else diag) / w_cell
        want = 1 if k == 0 else 0
        vals = eigh_tridiagonal(td, te, want + 1)
        if k == 0 and abs(vals[0]) > 1e-6 * max(1.0, abs(vals[1])):
            raise SolverError(f"zero mode of the k=0 problem came out as {vals[0]}")
        values.append(float(vals[want]))
    return values


def surface_eigen(profile: SurfaceProfile, modes: int = 3, n: int = 512) -> SurfaceSpectrum:
    """First nonzero eigenvalue of the surface over Fourier modes 0..modes.

    Each mode is solved on n and 2n cells; the doubled-grid value is
    reported with the grid difference as its convergence estimate.
    """
    if modes < 1:
        raise ProfileError(f"need at least one rotational mode, got {modes}")
    if n < 64:
        raise ProfileError(f"need at least 64 cells, got {n}")
    coarse, fine = _mode_values(profile, n, modes), _mode_values(profile, 2 * n, modes)
    rows = [
        {"k": k, "value": f, "error": abs(f - c)} for k, (c, f) in enumerate(zip(coarse, fine))
    ]
    best = min(rows, key=lambda row: row["value"])
    return SurfaceSpectrum(
        mu1=best["value"],
        mu1_error=best["error"],
        mu1_mode=best["k"],
        modes=rows,
        grid_size=2 * n,
    )


# ---------------------------------------------------------------------------
# diameter


def surface_diameter_upper(profile: SurfaceProfile) -> DiameterEstimate:
    """Diameter of a two-pole surface, exactly its meridian length L.

    Every pole-to-pole path is at least L long and any two points are at
    most L apart through the nearer pole.  A band's diameter is not its
    length, so band profiles are refused.
    """
    if profile.closure != "two_poles":
        raise ProfileError(f"diameter needs a two_poles profile, got {profile.closure}")
    return DiameterEstimate(profile.length)


# ---------------------------------------------------------------------------
# the comparison report


def comparison_check(profile: SurfaceProfile, grid: int = 2000) -> SurfaceComparison:
    """Check the surface's mu_1 against the m = 1 interior bound.

    `grid` is the bound's FD grid; the spectrum takes surface_eigen's defaults.

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
