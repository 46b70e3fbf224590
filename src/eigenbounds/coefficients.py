"""Curvature-indexed model coefficients and weights.

Everything here is built from two scalar families, the generalized cosine
and sine

    c_k(t) = cos(sqrt(k) t) | 1 | cosh(sqrt(-k) t)        (k > 0 | = 0 | < 0)
    s_k(t) = sin(sqrt(k) t)/sqrt(k) | t | sinh(sqrt(-k) t)/sqrt(-k)

which solve y'' + k y = 0 with (c, c')(0) = (1, 0) and (s, s')(0) = (0, 1).
Derived quantities:

    t_kappa(k, t)  = -c_k'(t)/c_k(t) = sqrt(k) tan(sqrt(k) t), continued
                     through k <= 0; the tangent-type drift coefficient.
    big_c(k, L, t) = c_k(t) - L s_k(t); solves y'' + k y = 0 with
                     y(0) = 1, y'(0) = -L (boundary-curvature profile).

Each family's weight is described once, by a factor table of (curvature,
power) pairs: (4 kappa1, 1) and (kappa2, 2m - 2) for Kahler, (kappa, n - 1)
for Riemannian.  The interior (Neumann) weight is the product of the c_k
factors to their powers, even in t; the boundary (Dirichlet) weight uses
big_c(k, L) factors on t >= 0.  The validity radius is the smallest first
zero among the factors, the interior drift the sum of power times tangent.

All functions are branch-safe in the curvature argument: near k = 0 the
tangent and sine families switch to truncated power series in u = k t^2 so
that values vary smoothly across the sign change.  The series is evaluated
only on the samples with |u| < SERIES_THRESHOLD, with no power call (u < 0
for k < 0), and its cubic term is below half an ulp of the sum there.
big_c at L = 0 is c_k itself; for k < 0 and L <= 2 sqrt(-k) it switches to
a cancellation-free form where the profile decays or nears its zero (see
big_c).

Scalars broadcast over array `t` arguments; curvature arguments are scalars.
Pure functions, safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimension

__all__ = [
    "CurvatureParams",
    "t_kappa",
    "c_kappa",
    "s_kappa",
    "big_c",
    "first_zero",
    "kahler_factors",
    "riemannian_factors",
    "weight_radius",
    "drift_kahler",
    "weight_kahler",
    "weight_kahler_radius",
    "weight_dirichlet",
    "weight_dirichlet_radius",
    "weight_riemannian",
    "weight_riemannian_dirichlet",
]

# Below |k| t^2 < SERIES_THRESHOLD the tan/tanh and sin/sinh branch formulas
# lose relative accuracy to cancellation against the k -> 0 limit, so the
# series in u = k t^2 is used instead.
SERIES_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CurvatureParams:
    """Curvature data (m, kappa1, kappa2) for the interior model problem.

    m is the complex dimension; kappa1 bounds the holomorphic sectional
    curvature from below by 4*kappa1 and kappa2 bounds the orthogonal Ricci
    curvature from below by 2(m-1)*kappa2.  At m = 1 the kappa2 channel is
    inert (its coefficient 2(m-1) vanishes).
    """

    m: int
    kappa1: float
    kappa2: float = 0.0

    def __post_init__(self):
        if self.m < 1 or int(self.m) != self.m:
            raise InvalidDimension(f"complex dimension m must be a positive integer, got {self.m}")
        for name in ("kappa1", "kappa2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


def _eval(t, fn):
    """Apply `fn` to t as a float array, returning a scalar for scalar input."""
    arr = np.asarray(t, dtype=float)
    out = fn(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _near_zero(branch, kappa, arr, series):
    """`branch` with the entries where |u| < SERIES_THRESHOLD, u = kappa t^2,
    replaced by series(t, u) evaluated on those entries alone."""
    out = np.asarray(branch)
    small = np.abs(kappa * arr * arr) < SERIES_THRESHOLD
    if small.any():
        x = arr[small]
        out[small] = series(x, kappa * x * x)
    return out


def t_kappa(kappa: float, t):
    """Tangent-type coefficient sqrt(k) tan(sqrt(k) t), continued through k <= 0.

    Equals -c_k'(t)/c_k(t).  Odd in t.  For k > 0 the domain is
    |t| < pi/(2 sqrt(k)); outside it a DomainError is raised.  Where
    |k| t^2 < SERIES_THRESHOLD the series k t (1 + u/3 + 2u^2/15 + 17u^3/315),
    u = k t^2, replaces the branch formula on those samples alone.
    """

    def f(arr):
        half = first_zero(kappa, 0.0)
        if np.any(np.abs(arr) >= half):
            raise DomainError(
                f"t_kappa with kappa={kappa} requires |t| < pi/(2 sqrt(kappa)) = {half}"
            )
        if kappa == 0.0:
            return np.zeros_like(arr)
        root = math.sqrt(abs(kappa))
        branch = root * np.tan(root * arr) if kappa > 0 else -root * np.tanh(root * arr)

        def series(x, u):  # k t times the series for t_kappa/(k t) in u = k t^2
            return kappa * x * (1.0 + u / 3.0 + u * u * (2.0 / 15.0) + u * u * u * (17.0 / 315.0))

        return _near_zero(branch, kappa, arr, series)

    return _eval(t, f)


def c_kappa(kappa: float, t):
    """Generalized cosine: cos(sqrt(k) t) | 1 | cosh(sqrt(-k) t).  Even; c_k(0)=1."""

    def f(arr):
        if kappa > 0:
            return np.cos(math.sqrt(kappa) * arr)
        if kappa < 0:
            return np.cosh(math.sqrt(-kappa) * arr)
        return np.ones_like(arr)

    return _eval(t, f)


def s_kappa(kappa: float, t):
    """Generalized sine: sin(sqrt(k) t)/sqrt(k) | t | sinh(sqrt(-k) t)/sqrt(-k).

    Odd; s_k'(0) = 1.  Branch-safe near k = 0: where |k| t^2 <
    SERIES_THRESHOLD the series t (1 - u/6 + u^2/120 - u^3/5040), u = k t^2,
    replaces the branch formula on those samples alone.
    """

    def f(arr):
        if kappa == 0.0:
            return arr.copy()
        root = math.sqrt(abs(kappa))
        branch = (np.sin if kappa > 0 else np.sinh)(root * arr) / root

        def series(x, u):
            return x * (1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0)

        return _near_zero(branch, kappa, arr, series)

    return _eval(t, f)


def big_c(kappa: float, lam: float, t):
    """Boundary-curvature profile: solves y'' + kappa y = 0, y(0)=1, y'(0)=-lam.

    Closed form c_kappa(t) - lam * s_kappa(t), and c_kappa(t) itself at
    lam = 0.  For kappa < 0 and lam near root = sqrt(-kappa) the profile
    nears exp(-x), x = root t, while cosh(x) and lam s_kappa(t) grow and
    cancel: the closed form's error is about eps cosh(x).  Where it is below
    cosh(x)/2, more than one bit is lost, so for lam <= 2 root it is
    recomputed as exp(-x) + ((root - lam)/root) sinh(x), whose error is
    about eps exp(-x) near the zero that lam > root puts at first_zero;
    root - lam is exact there (Sterbenz, as lam > root/2 wherever the
    switch is taken).
    """

    def f(arr):
        if lam == 0.0:
            return c_kappa(kappa, arr)
        out = np.asarray(c_kappa(kappa, arr) - lam * s_kappa(kappa, arr))
        if kappa < 0 and lam <= 2.0 * math.sqrt(-kappa):
            root = math.sqrt(-kappa)
            x = root * arr
            tail = np.exp(-x) + ((root - lam) / root) * np.sinh(x)
            out = np.where(out < 0.5 * np.cosh(x), tail, out)
        return out

    return _eval(t, f)


def first_zero(kappa: float, lam: float) -> float:
    """Smallest t > 0 where big_c(kappa, lam, t) vanishes, or +inf if none.

    Closed form per curvature sign: for kappa > 0 the profile is sinusoidal
    and always vanishes; for kappa = 0 it is the line 1 - lam*t; for
    kappa < 0 it vanishes only when lam exceeds root = sqrt(-kappa), at
    atanh(root/lam)/root = log1p(2 root/(lam - root))/(2 root).
    """
    if kappa > 0:
        root = math.sqrt(kappa)
        if lam > 0:
            # atan(root/lam) = pi/2 - atan(lam/root), stable as kappa -> 0+
            return math.atan(root / lam) / root
        return (0.5 * math.pi + math.atan(-lam / root)) / root
    if kappa == 0.0:
        return 1.0 / lam if lam > 0 else math.inf
    root = math.sqrt(-kappa)
    if lam > root:
        # the ratio root/lam rounds, and atanh magnifies that near 1;
        # lam - root is exact for lam <= 2 root (Sterbenz)
        return 0.5 * math.log1p(2.0 * root / (lam - root)) / root
    return math.inf


# ---------------------------------------------------------------------------
# Factor tables and the weights, radii and drifts derived from them


def kahler_factors(params: CurvatureParams) -> tuple:
    """Factors of the Kahler weights: 4 kappa1 to the power 1 and kappa2 to
    2m - 2 (inert, so left out, at m = 1)."""
    if params.m == 1:
        return ((4.0 * params.kappa1, 1),)
    return ((4.0 * params.kappa1, 1), (params.kappa2, 2 * params.m - 2))


def riemannian_factors(n: int, kappa: float) -> tuple:
    """Factor of the real-dimension-n weights: kappa to the power n - 1."""
    if n < 2 or int(n) != n:
        raise InvalidDimension(f"real dimension n must be an integer >= 2, got {n}")
    if not math.isfinite(kappa):
        raise DomainError("kappa must be finite")
    return ((kappa, n - 1),)


def weight_radius(factors, lam: float = 0.0) -> float:
    """Validity radius of a weight: the smallest first zero among its factors."""
    return min(first_zero(k, lam) for k, _ in factors)


def _weight(factors, t, lam=None):
    """Product of the factors' profiles to their powers: c_k with lam None
    (|t| below the radius), else big_c(k, lam) (0 <= t below the radius)."""
    rad = weight_radius(factors, lam or 0.0)
    profile = c_kappa if lam is None else lambda k, x: big_c(k, lam, x)

    def f(arr):
        if lam is not None and np.any(arr < 0.0):
            raise DomainError("boundary weight requires t >= 0")
        if np.any(np.abs(arr) >= rad):
            raise DomainError(f"weight positive only for |t| < {rad} with factors {factors}")
        terms = (np.asarray(profile(k, arr)) ** p for k, p in factors)
        return functools.reduce(operator.mul, terms)

    return _eval(t, f)


def drift_kahler(params: CurvatureParams, t):
    """Interior drift t_kappa(4 kappa1, t) + 2(m-1) t_kappa(kappa2, t): -(log
    weight_kahler)', the sum of power * tangent over the factors."""
    terms = (p * t_kappa(k, t) for k, p in kahler_factors(params))
    return functools.reduce(operator.add, terms)


def weight_kahler_radius(params: CurvatureParams) -> float:
    """Positivity radius of the interior weight (half the maximal diameter)."""
    return weight_radius(kahler_factors(params))


def weight_kahler(params: CurvatureParams, t):
    """Interior weight c_{4 kappa1} c_{kappa2}^{2m-2}; log-derivative -drift_kahler."""
    return _weight(kahler_factors(params), t)


def weight_dirichlet_radius(params: CurvatureParams, lam: float) -> float:
    """Validity radius of the boundary weight: smallest first zero among factors."""
    return weight_radius(kahler_factors(params), lam)


def weight_dirichlet(params: CurvatureParams, lam: float, t):
    """Boundary weight big_c_{4 kappa1} big_c_{kappa2}^{2m-2} on [0, radius); lam = 0
    recovers weight_kahler."""
    return _weight(kahler_factors(params), t, lam)


def weight_riemannian(n: int, kappa: float, t):
    """Real-dimension-n interior weight c_kappa^{n-1}."""
    return _weight(riemannian_factors(n, kappa), t)


def weight_riemannian_dirichlet(n: int, kappa: float, lam: float, t):
    """Real-dimension-n boundary weight big_c_{kappa,lam}^{n-1} on [0, first_zero)."""
    return _weight(riemannian_factors(n, kappa), t, lam)
