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
from scipy.linalg import eigh_tridiagonal
# unused here: only the benchmark tracer looks up surfaces.dijkstra; drop with its span
from scipy.sparse.csgraph import dijkstra  # noqa: F401

from .bounds import kahler_neumann_bound
from .coefficients import CurvatureParams
from .errors import ProfileError, SolverError

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

# minimal analytic Gauss curvature accepted by the random generator
CONVEX_K_FLOOR = 0.05


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

    def to_dict(self) -> dict:
        return {
            "profile": self.profile_name,
            "mu1": self.mu1,
            "mu1_error": self.mu1_error,
            "diameter": self.diameter,
            "diameter_used": self.diameter_used,
            "k_min": self.k_min,
            "kappa1": self.kappa1,
            "bound": self.bound,
            "bound_error": self.bound_error,
            "margin": self.margin,
            "slack": self.slack,
            "ok": self.ok,
            "warnings": self.warnings,
        }


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


def spindle_profile(eps: float, L: float = 1.0) -> SurfaceProfile:
    """Cone-pole profile eps sin(pi r / L): constant curvature (pi/L)^2.

    The poles are conical for eps pi / L != 1 (the mode solver admits
    them); the k = 0 spectrum does not depend on eps at all, so the
    family realizes the maximal-diameter equality case of the positive
    curvature bound rather than a flat collapse.
    """
    if not (eps > 0 and L > 0):
        raise ProfileError(f"spindle needs positive parameters, got eps={eps}, L={L}")
    w = math.pi / L
    return SurfaceProfile(
        f=lambda r: eps * np.sin(w * np.asarray(r, dtype=float)),
        df=lambda r: eps * w * np.cos(w * np.asarray(r, dtype=float)),
        d2f=lambda r: -eps * w * w * np.sin(w * np.asarray(r, dtype=float)),
        length=L,
        closure="two_poles",
        name=f"spindle eps={eps} L={L}",
    )


def capsule_profile(aspect: float, L: float = 1.0) -> SurfaceProfile:
    """Cylinder of width eps = aspect L with hemispherical caps.

    Smooth poles (f'(0) = 1) and K = 0 on the flat middle, so the family
    collapses to the interval [0, L] with the flat bound pi^2 / L^2 in
    the limit: the right family for the zero-curvature sharpness check.
    """
    if not (0 < aspect < 2.0 / math.pi) or not L > 0:
        raise ProfileError(
            f"capsule needs 0 < aspect < 2/pi and L > 0, got aspect={aspect}, L={L}"
        )
    eps = aspect * L
    cap = 0.5 * math.pi * eps

    def f(r):
        r = np.asarray(r, dtype=float)
        left = eps * np.sin(np.minimum(r, cap) / eps)
        right = eps * np.sin(np.minimum(L - r, cap) / eps)
        return np.minimum(left, right)

    def df(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        out = np.where(r < cap, np.cos(np.minimum(r, cap) / eps), out)
        out = np.where(L - r < cap, -np.cos(np.minimum(L - r, cap) / eps), out)
        return out

    def d2f(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        out = np.where(r < cap, -np.sin(np.minimum(r, cap) / eps) / eps, out)
        out = np.where(L - r < cap, -np.sin(np.minimum(L - r, cap) / eps) / eps, out)
        return out

    return SurfaceProfile(
        f=f, df=df, d2f=d2f, length=L, closure="two_poles",
        name=f"capsule aspect={aspect} L={L}",
    )


def random_convex_profile(rng: np.random.Generator, max_tries: int = 64) -> SurfaceProfile:
    """Seeded low-order perturbation of the unit sphere with K_min above floor.

    Candidates f(r) = sin(r) (1 + sum_j a_j sin(j r)) keep the pole slopes
    and are rejected unless f > 0 on (0, pi) and the analytic curvature
    -f''/f stays above the configured floor.
    """
    rs = np.linspace(0.0, math.pi, 2049)[1:-1]
    for _ in range(max_tries):
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
    raise ProfileError(f"no admissible convex profile found in {max_tries} draws")


# ---------------------------------------------------------------------------
# mode spectra


def _mode_values(profile: SurfaceProfile, k: int, n: int):
    """First eigenvalue(s) of Fourier mode k on n staggered cells.

    Returns (lam0, lam1) for k = 0 (zero mode and first nonzero) and
    (lam0, None) for k >= 1.
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
    off = -g
    if k > 0:
        diag = diag + (k * k) / w_cell
    scale = np.sqrt(w_cell)
    td = diag / w_cell
    te = off / (scale[:-1] * scale[1:])
    want = 1 if k == 0 else 0
    vals = eigh_tridiagonal(td, te, select="i", select_range=(0, want), eigvals_only=True)
    if k == 0:
        if abs(vals[0]) > 1e-6 * max(1.0, abs(vals[1])):
            raise SolverError(f"zero mode of the k=0 problem came out as {vals[0]}")
        return vals[0], vals[1]
    return vals[0], None


def surface_eigen(profile: SurfaceProfile, modes: int = 3, n: int = 512) -> SurfaceSpectrum:
    """First nonzero eigenvalue of the surface over Fourier modes 0..modes.

    Each mode is solved on n and 2n cells; the doubled-grid value is
    reported with the grid difference as its convergence estimate.
    """
    if modes < 1:
        raise ProfileError(f"need at least one rotational mode, got {modes}")
    if n < 64:
        raise ProfileError(f"need at least 64 cells, got {n}")
    rows = []
    for k in range(modes + 1):
        idx = 1 if k == 0 else 0
        coarse = _mode_values(profile, k, n)[idx]
        fine = _mode_values(profile, k, 2 * n)[idx]
        rows.append({"k": k, "value": float(fine), "error": float(abs(fine - coarse))})
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


def comparison_check(
    profile: SurfaceProfile, modes: int = 3, n: int = 512, tol: float = 1e-10, grid: int = 2000
) -> SurfaceComparison:
    """Check the surface's mu_1 against the m = 1 interior bound.

    `n` is the surface mode solver's grid, `grid` the bound's FD grid.

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
    if kappa1 > 0:
        cap = math.pi / (2.0 * math.sqrt(kappa1))
        if d_used > cap:
            warnings.append(
                f"diameter overestimate {d_used:.6f} clamped to the validity cap {cap:.6f}"
            )
            d_used = cap
    spec = surface_eigen(profile, modes=modes, n=n)
    params = CurvatureParams(m=1, kappa1=kappa1, kappa2=0.0)
    bound = kahler_neumann_bound(params, d_used, tol=tol, n=grid)
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
