"""Paper identities and fixtures that only the tests use.

The derivatives of the boundary profile big_c, the boundary drift, the
Rayleigh quotient of a sampled trial function and two surface profiles.
No command computes them; the tests check the production `big_c`,
`weight_dirichlet`, `solve_shooting` and `surface_eigen` against them.
This file is not a test module; pytest does not collect it.
"""

import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
from scipy.integrate import simpson

from eigenbounds.coefficients import (
    CurvatureParams,
    _eval,
    big_c,
    c_kappa,
    first_zero,
    kahler_factors,
    s_kappa,
)
from eigenbounds.errors import DomainError, ProfileError, SolverError
from eigenbounds.sturm_liouville import SLProblem
from eigenbounds.surfaces import SurfaceProfile

# ---------------------------------------------------------------------------
# the boundary profile's derivatives and drift


def big_c_prime(kappa: float, lam: float, t):
    """Exact derivative of big_c: -kappa*s_kappa(t) - lam*c_kappa(t).

    Cancels like big_c for kappa < 0 with lam near root = sqrt(-kappa);
    where the closed form is below lam cosh(x)/2, x = root t, it is
    recomputed as -root exp(-x) + (root - lam) cosh(x), whose terms are
    no larger than lam cosh(x) for root/2 <= lam <= 2 root.
    """

    def f(arr):
        out = np.asarray(-kappa * s_kappa(kappa, arr) - lam * c_kappa(kappa, arr))
        if kappa < 0 and 0.5 * math.sqrt(-kappa) <= lam <= 2.0 * math.sqrt(-kappa):
            root = math.sqrt(-kappa)
            x = root * arr
            tail = -root * np.exp(-x) + (root - lam) * np.cosh(x)
            out = np.where(np.abs(out) < 0.5 * lam * np.cosh(x), tail, out)
        return out

    return _eval(t, f)


def big_c_second(kappa: float, lam: float, t):
    """Exact second derivative of big_c, i.e. -kappa * big_c."""
    return -kappa * big_c(kappa, lam, t)


def t_kappa_lambda(kappa: float, lam: float, t):
    """Drift of the boundary family: -big_c'(t)/big_c(t) on 0 <= t < first_zero.

    Reduces to t_kappa when lam = 0.  Raises DomainError at or beyond the
    first zero of the profile, where the quotient is undefined.
    """
    zero = first_zero(kappa, lam)

    def f(arr):
        if np.any(arr < 0.0):
            raise DomainError("t_kappa_lambda requires t >= 0")
        if np.any(arr >= zero):
            raise DomainError(
                f"t_kappa_lambda undefined at/beyond the first profile zero t = {zero}"
            )
        return -np.asarray(big_c_prime(kappa, lam, arr)) / np.asarray(big_c(kappa, lam, arr))

    return _eval(t, f)


def drift_dirichlet(params: CurvatureParams, lam: float, t):
    """Boundary drift t_kappa_lambda(4 kappa1, lam, t) + 2(m-1) t_kappa_lambda(kappa2, lam, t),
    the negative log-derivative of weight_dirichlet."""
    terms = (p * t_kappa_lambda(k, lam, t) for k, p in kahler_factors(params))
    return functools.reduce(operator.add, terms)


# ---------------------------------------------------------------------------
# Rayleigh quotient


class ZeroDenominator(SolverError):
    """Rayleigh quotient denominator below machine threshold."""


def _derivative_samples(ts, ys):
    """Fourth-order finite-difference derivative on a uniform grid,
    second-order one-sided at the ends."""
    h = ts[1] - ts[0]
    d = np.empty_like(ys)
    d[2:-2] = (ys[:-4] - 8 * ys[1:-3] + 8 * ys[3:-1] - ys[4:]) / (12 * h)
    d[0] = (-3 * ys[0] + 4 * ys[1] - ys[2]) / (2 * h)
    d[1] = (ys[2] - ys[0]) / (2 * h)
    d[-2] = (ys[-1] - ys[-3]) / (2 * h)
    d[-1] = (3 * ys[-1] - 4 * ys[-2] + ys[-3]) / (2 * h)
    return d


def rayleigh_quotient(problem: SLProblem, ts, phi) -> float:
    """Quotient of weighted energies int w phi'^2 / int w phi^2, by Simpson
    on a uniform grid.  An upper bound for the first eigenvalue of the
    matching problem, up to quadrature error, for any trial satisfying the
    essential condition phi(0) = 0.
    """
    ts = np.asarray(ts, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if ts.ndim != 1 or ts.shape != phi.shape or ts.size < 5:
        raise DomainError("trial must be sampled on a 1D grid of at least 5 points")
    hs = np.diff(ts)
    if not np.allclose(hs, hs[0], rtol=1e-10):
        raise DomainError("trial must be sampled on a uniform grid")
    w = np.asarray(problem.weight(ts), dtype=float)
    dphi = _derivative_samples(ts, phi)
    num = simpson(w * dphi * dphi, x=ts)
    den = simpson(w * phi * phi, x=ts)
    scale = float(np.max(w) * np.max(phi * phi) * problem.length)
    if den <= 1e-14 * max(scale, 1e-300):
        raise ZeroDenominator("trial function has vanishing weighted norm")
    return float(num / den)


# ---------------------------------------------------------------------------
# surface fixtures


def band_profile(c: float, L: float) -> SimpleNamespace:
    """Flat cylinder band of circumference 2 pi c and height L.

    Not a SurfaceProfile, whose ends are poles: the band's ends are
    boundary circles.  The mode solver reads only `f` and `length`, and
    its zero-flux end faces are the band's Neumann condition.
    """
    if not (c > 0 and L > 0):
        raise ProfileError(f"band needs positive width and length, got c={c}, L={L}")
    return SimpleNamespace(
        f=lambda r: np.full_like(np.asarray(r, dtype=float), c),
        df=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d2f=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        length=L,
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
        name=f"spindle eps={eps} L=1.0",
    )
