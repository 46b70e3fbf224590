"""Tests for the surface-of-revolution spectra, diameters, and reports."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from eigenbounds.errors import ProfileError
from eigenbounds.surfaces import (
    CONVEX_K_FLOOR,
    band_profile,
    capsule_profile,
    comparison_check,
    random_convex_profile,
    sphere_profile,
    spindle_profile,
    surface_diameter_upper,
    surface_eigen,
)

PI = math.pi


class TestModeSolver:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_sphere_spectrum(self, a):
        spec = surface_eigen(sphere_profile(a))
        assert spec.mu1 == pytest.approx(2.0 / a**2, rel=5e-3)
        by_k = {row["k"]: row["value"] for row in spec.modes}
        assert by_k[2] == pytest.approx(6.0 / a**2, rel=2e-2)

    def test_band_product_spectrum(self):
        spec = surface_eigen(band_profile(0.4, 2.0))
        assert spec.mu1 == pytest.approx(PI**2 / 4.0, rel=5e-3)
        assert spec.mu1_mode == 0
        wide = surface_eigen(band_profile(2.0, 1.0))
        assert wide.mu1 == pytest.approx(0.25, rel=5e-3)
        assert wide.mu1_mode == 1

    def test_spindle_k0_value_independent_of_eps(self):
        # eps cancels from the k = 0 problem; the value is the constant
        # curvature sharp one, 2 pi^2 / L^2
        a = surface_eigen(spindle_profile(0.3)).modes[0]["value"]
        b = surface_eigen(spindle_profile(0.05)).modes[0]["value"]
        assert a == pytest.approx(b, rel=1e-9)
        assert a == pytest.approx(2.0 * PI**2, rel=1e-3)

    def test_capsule_family_decreases_with_aspect(self):
        values = [surface_eigen(capsule_profile(t)).mu1 for t in (0.3, 0.15, 0.05)]
        assert values[0] > values[1] > values[2] > PI**2

    def test_error_estimate_shrinks_with_grid(self):
        coarse = surface_eigen(sphere_profile(1.0), n=128)
        fine = surface_eigen(sphere_profile(1.0), n=512)
        assert fine.mu1_error < coarse.mu1_error

    def test_input_validation(self):
        with pytest.raises(ProfileError):
            surface_eigen(sphere_profile(1.0), modes=0)
        with pytest.raises(ProfileError):
            surface_eigen(sphere_profile(1.0), n=32)


def _full_circle_diameter(profile, n_r):
    """Graph overestimate of a two-pole surface's diameter, by Dijkstra.

    Rings at the cell centers of an (r, theta) grid plus the two poles.
    Edge weights are lengths of actual curves on the surface (the envelope
    of f along a move's radial span bounds its angular part), so graph
    distances never fall below true distances.  Moves (a, b) with a <= 4,
    |b| <= 3 and gcd 1 keep the direction error below 0.3 percent.
    """
    L = profile.length
    h = L / n_r
    radii = (np.arange(n_r) + 0.5) * h
    f_typical = float(np.max(np.asarray(profile.f(radii), dtype=float)))
    n_t = 2 * int(np.clip(round(math.pi * f_typical / h), 4, 3 * n_r))
    dtheta = 2.0 * math.pi / n_t
    n_nodes = n_r * n_t + 2
    moves = [(0, 1)] + [
        (a, b) for a in range(1, 5) for b in range(-3, 4) if math.gcd(a, abs(b)) == 1
    ]
    rows, cols, wts = [], [], []
    all_j = np.arange(n_t)
    for a, b in moves:
        i0 = np.arange(n_r - a)
        samples = radii[i0][:, None] + np.linspace(0.0, a * h, 2 * a + 1)[None, :]
        fmax = np.max(np.asarray(profile.f(samples), dtype=float), axis=1)
        w = np.sqrt((a * h) ** 2 + (fmax * abs(b) * dtheta) ** 2)
        rows.append((i0[:, None] * n_t + all_j[None, :]).ravel())
        cols.append(((i0[:, None] + a) * n_t + (all_j[None, :] + b) % n_t).ravel())
        wts.append(np.repeat(w, n_t))
    p0, pL = n_r * n_t, n_r * n_t + 1
    for pole, ring in ((p0, 0), (pL, n_r - 1)):
        rows.append(np.full(n_t, pole))
        cols.append(ring * n_t + all_j)
        wts.append(np.full(n_t, 0.5 * h))
    graph = csr_matrix(
        (np.concatenate(wts), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    )
    sources = [i * n_t for i in range(0, n_r, 2)] + [(n_r - 1) * n_t, p0, pL]
    dist = dijkstra(graph, directed=False, indices=sources)
    assert np.all(np.isfinite(dist))
    return float(np.max(dist))


_FOLD_RNG = np.random.default_rng(715)
FOLD_PROFILES = [
    (sphere_profile(1.0), 48),
    (sphere_profile(1.0), 96),
    (capsule_profile(0.02), 48),
    (spindle_profile(0.3), 48),
] + [(random_convex_profile(_FOLD_RNG), 48) for _ in range(3)]


class TestDiameter:
    @pytest.mark.parametrize(
        "profile, n_r", FOLD_PROFILES, ids=[f"{p.name} n_r={n}" for p, n in FOLD_PROFILES]
    )
    def test_graph_matches_meridian_length(self, profile, n_r):
        # a graph of curve lengths overestimates every distance, and the
        # diameter of a two-pole surface is exactly its meridian length
        assert surface_diameter_upper(profile).value == profile.length
        ref = _full_circle_diameter(profile, n_r)
        assert ref >= profile.length - 1e-12
        assert ref == pytest.approx(profile.length, rel=1e-12)

    def test_sphere_diameter_overestimates_antipodal(self):
        # the antipodal distance pi a, attained exactly
        for a in (0.5, 2.0):
            assert surface_diameter_upper(sphere_profile(a)).value == PI * a

    def test_band_diameter_is_refused(self):
        # a band's diameter exceeds its length; only two-pole surfaces
        # have the meridian length as diameter
        with pytest.raises(ProfileError):
            surface_diameter_upper(band_profile(0.4, 2.0))

    def test_thin_capsule_approaches_meridian_length(self):
        assert surface_diameter_upper(capsule_profile(0.05)).value == 1.0


class TestProfiles:
    def test_two_poles_requires_vanishing_ends(self):
        with pytest.raises(ProfileError):
            band = band_profile(0.4, 2.0)
            sphere_like = sphere_profile(1.0)
            bad = type(sphere_like)(
                f=band.f, df=band.df, d2f=band.d2f, length=2.0, closure="two_poles"
            )

    def test_band_requires_positive_ends(self):
        sp = sphere_profile(1.0)
        with pytest.raises(ProfileError):
            type(sp)(f=sp.f, df=sp.df, d2f=sp.d2f, length=PI, closure="neumann_band")

    def test_positivity_on_open_interval(self):
        with pytest.raises(ProfileError):
            sphere_profile(1.0).__class__(
                f=lambda r: np.cos(np.asarray(r, dtype=float)),
                df=lambda r: -np.sin(np.asarray(r, dtype=float)),
                d2f=lambda r: -np.cos(np.asarray(r, dtype=float)),
                length=PI,
                closure="two_poles",
            )

    def test_constructor_validation(self):
        with pytest.raises(ProfileError):
            sphere_profile(0.0)
        with pytest.raises(ProfileError):
            spindle_profile(-0.1)
        with pytest.raises(ProfileError):
            capsule_profile(0.9)
        with pytest.raises(ProfileError):
            band_profile(0.0, 1.0)

    def test_random_convex_profile_respects_floor(self):
        rng = np.random.default_rng(99)
        p = random_convex_profile(rng)
        rs = np.linspace(0.0, PI, 1025)[1:-1]
        k = -np.asarray(p.d2f(rs)) / np.asarray(p.f(rs))
        assert float(np.min(k)) >= CONVEX_K_FLOOR

    def test_random_profile_deterministic_given_seed(self):
        a = random_convex_profile(np.random.default_rng(7))
        b = random_convex_profile(np.random.default_rng(7))
        assert a.name == b.name


class TestComparison:
    def test_sphere_equality_case(self):
        rep = comparison_check(sphere_profile(1.0))
        assert rep.ok
        assert rep.mu1 == pytest.approx(rep.bound, rel=5e-3)
        assert rep.kappa1 == pytest.approx(0.25, rel=1e-6)
        # the meridian length pi sits exactly on the cap pi / (2 sqrt(1/4))
        assert rep.diameter == rep.diameter_used == PI
        assert not any("clamped" in w for w in rep.warnings)

    def test_diameter_clamped_to_curvature_cap(self):
        # the sphere's f with d2f = -1.01 sin r: K_min = 1.01 puts the cap
        # pi / sqrt(1.01) below the meridian length pi
        sp = sphere_profile(1.0)
        prof = type(sp)(
            f=sp.f, df=sp.df,
            d2f=lambda r: -1.01 * np.sin(np.asarray(r, dtype=float)),
            length=PI, closure="two_poles", name="stiffened sphere",
        )
        rep = comparison_check(prof)
        cap = PI / (2.0 * math.sqrt(rep.kappa1))
        assert rep.diameter == PI
        assert rep.diameter_used == cap < PI
        assert cap == pytest.approx(PI / math.sqrt(1.01), rel=1e-9)
        assert any("clamped" in w for w in rep.warnings)

    def test_spindle_equality_case(self):
        rep = comparison_check(spindle_profile(0.3))
        assert rep.ok
        assert rep.k_min == pytest.approx(PI**2, rel=1e-9)
        assert rep.bound == pytest.approx(2.0 * PI**2, rel=1e-5)
        assert abs(rep.margin) <= rep.slack + 1e-4 * rep.bound

    def test_seeded_convex_profiles_hold(self):
        rng = np.random.default_rng(715)
        for _ in range(3):
            rep = comparison_check(random_convex_profile(rng))
            assert rep.ok
            assert rep.margin >= -rep.slack

    def test_report_serializes(self):
        import json

        rep = comparison_check(capsule_profile(0.2))
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["ok"] is True
        assert blob["kappa1"] == 0.0
