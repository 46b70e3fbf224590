"""Tests for the surface-of-revolution spectra, diameters, and reports."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from identities import band_profile, spindle_profile

from eigenbounds import surfaces
from eigenbounds.errors import ProfileError, SolverError
from eigenbounds.sturm_liouville import eigh_tridiagonal
from eigenbounds.suites import DEFAULT_SEED
from eigenbounds.surfaces import (
    CONVEX_K_FLOOR,
    SurfaceProfile,
    capsule_profile,
    comparison_check,
    random_convex_profile,
    sphere_profile,
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
        # mu1_error is the lowest mode's n/2n grid difference: it falls
        # from the 128/256 pair to surface_eigen's 512/1024
        profile = sphere_profile(1.0)

        def mu1_error(n):
            coarse = surfaces._mode_values(profile, n, surfaces.MODES)
            fine = surfaces._mode_values(profile, 2 * n, surfaces.MODES, start=coarse)[0]
            k = int(np.argmin(fine))
            return abs(fine[k] - coarse[0][k])

        assert surfaces.MODE_CELLS == 512
        assert surface_eigen(profile).mu1_error == mu1_error(512) < mu1_error(128)


def _symmetric_modes(profile, n, modes):
    """Diagonals (d, e) of mode k's symmetric form F^-1/2 (B^T G B + k^2 F^-1) F^-1/2."""
    h = profile.length / n
    faces = np.linspace(0.0, profile.length, n + 1)
    w_cell = profile.f(faces[:-1] + 0.5 * h)
    g = profile.f(faces)[1:-1] / (h * h)
    diag = np.r_[g, 0.0] + np.r_[0.0, g]
    e = -g / np.sqrt(w_cell[:-1] * w_cell[1:])
    return [((diag + k * k / w_cell) / w_cell, e) for k in range(modes + 1)]


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestShiftInvert:
    @pytest.mark.parametrize("n", [512, 1024])
    def test_flat_band_hits_its_closed_forms(self, n):
        # the discrete band modes are k^2/c^2 for k >= 1 and
        # (4/h^2) sin^2(pi h / 2L) for k = 0.  dstebz bisection reached only
        # ulp * |T| ~ 1/h^2: mode 1 came out 1.3e-9 off at n = 1,024
        c, L = 2.0, 1.0
        h = L / n
        values = surfaces._mode_values(band_profile(c, L), n, 3)[0]
        exact = [4.0 / h**2 * math.sin(PI * h / (2.0 * L)) ** 2]
        exact += [k * k / c**2 for k in (1, 2, 3)]
        assert values == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_sphere_matches_dense_eigensolve(self):
        # against LAPACK's dense symmetric eigensolver on the symmetric form;
        # the zero mode's value is the second eigenvalue
        profile = sphere_profile(1.0)
        values = surfaces._mode_values(profile, 64, 3)[0]
        for k, (value, (d, e)) in enumerate(zip(values, _symmetric_modes(profile, 64, 3))):
            assert value == pytest.approx(np.linalg.eigvalsh(_dense(d, e))[1 if k == 0 else 0], rel=1e-12)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_matches_dstebz_bisection(self, n):
        # the bisection this solver replaced, sturm_liouville.eigh_tridiagonal,
        # as the reference: it is ulp * |T| ~ 1/h^2 off, up to 4e-11 relative
        # on these surfaces
        for profile in (sphere_profile(1.0), random_convex_profile(np.random.default_rng(3))):
            values = surfaces._mode_values(profile, n, 3)[0]
            for k, (value, (d, e)) in enumerate(zip(values, _symmetric_modes(profile, n, 3))):
                assert value == pytest.approx(eigh_tridiagonal(d, e, 2)[1 if k == 0 else 0], rel=1e-10)

    @pytest.mark.parametrize("c", [1e305, 1e-310])
    def test_non_finite_pencil_is_refused(self, c):
        # f / h^2 overflows, or 1/f does
        with pytest.raises(SolverError, match="non-finite") as info:
            surface_eigen(band_profile(c, 1.0))
        assert "\n" not in str(info.value)

    def test_solve_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(surfaces, "MODE_MAX_SOLVES", 1)
        with pytest.raises(SolverError, match="did not converge in 1 solves") as info:
            surface_eigen(sphere_profile(1.0))
        assert "\n" not in str(info.value)

    def test_uncertified_shift_is_refused(self, monkeypatch):
        # dpttrf refusing every shift, 0 included
        monkeypatch.setattr(surfaces, "dpttrf", lambda d, e: (d, e, 1))
        with pytest.raises(SolverError, match="no certified shift") as info:
            surface_eigen(sphere_profile(1.0))
        assert "\n" not in str(info.value)

    def test_refused_shifts_back_off(self, monkeypatch):
        # mode 3 of a thin capsule sits close below mode 3's second value, so
        # some shifts overshoot; each refused one is bisected toward the last
        # taken one, and the values still match the dense eigensolve (whose
        # own error is about eps |T| / mu, near 1e-9 here)
        inner = surfaces.dpttrf
        infos = []

        def dpttrf(d, e):
            out = inner(d, e)
            infos.append(out[2])
            return out

        monkeypatch.setattr(surfaces, "dpttrf", dpttrf)
        profile = capsule_profile(0.02)
        values = surfaces._mode_values(profile, 64, 3)[0]
        assert sum(info != 0 for info in infos) == 2
        for k, (value, (d, e)) in enumerate(zip(values, _symmetric_modes(profile, 64, 3))):
            assert value == pytest.approx(np.linalg.eigvalsh(_dense(d, e))[1 if k == 0 else 0], rel=1e-9)

    def test_refused_first_shift_falls_to_zero(self, monkeypatch):
        # a seed equal to the start's own quotient puts the first shift on
        # that quotient, above the first eigenvalue 2 - 2 cos(pi / (n + 1))
        # of the Dirichlet Laplacian; the solve restarts from shift 0
        inner = surfaces.dpttrf
        shifts = []

        def dpttrf(d, e):
            out = inner(d, e)
            shifts.append((2.0 - d[0], out[2]))
            return out

        monkeypatch.setattr(surfaces, "dpttrf", dpttrf)
        n = 200
        d, e, mass = np.full(n, 2.0), np.full(n - 1, -1.0), np.ones(n)

        def quotient(x):
            return (x[0] ** 2 + x[-1] ** 2 + np.sum(np.diff(x) ** 2)) / (x @ x)

        x = np.ones(n)
        mu, _, _ = surfaces._first_pair(d, e, mass, quotient, x, previous=quotient(x))
        assert mu == pytest.approx(2.0 - 2.0 * math.cos(PI / (n + 1)), rel=1e-12)
        assert shifts[0][0] == pytest.approx(quotient(x)) and shifts[0][1] != 0
        assert shifts[1] == (0.0, 0)

    @pytest.mark.parametrize("shift, refused", [(1e-12, False), (1e-9, True)])
    def test_zero_mode_flux_must_map_back(self, monkeypatch, shift, refused):
        # the flux pencil's value has to be the primal quotient of
        # u = F^-1 B^T v to 1e-10 relative
        inner = surfaces._first_pair
        calls = []

        def first_pair(*args):
            mu, x, solves = inner(*args)
            calls.append(mu)
            return (mu * (1.0 + shift) if len(calls) == 1 else mu), x, solves

        monkeypatch.setattr(surfaces, "_first_pair", first_pair)
        if refused:
            with pytest.raises(SolverError, match="zero mode's flux value"):
                surfaces._mode_values(sphere_profile(1.0), 512, 3)
        else:
            surfaces._mode_values(sphere_profile(1.0), 512, 3)

    @pytest.mark.parametrize(
        "profile, most",
        [(sphere_profile(1.0), 18),
         (random_convex_profile(np.random.default_rng(DEFAULT_SEED)), 24)]
        + [(capsule_profile(aspect), most) for aspect, most in ((0.2, 28), (0.05, 29), (0.02, 31))],
        ids=["sphere", "baseline_convex", "capsule0.2", "capsule0.05", "capsule0.02"],
    )
    def test_solve_counts_stay_pinned(self, profile, most):
        # tripwire: the sphere's and the checks' surfaces take these many
        # shift-invert solves over both grids, two per mode on the
        # warm-started 2n grid; a weaker start or shift rule would fail here
        spec = surface_eigen(profile)
        assert spec.iterations <= most
        coarse = surfaces._mode_values(profile, 512, 3)
        assert surfaces._mode_values(profile, 1024, 3, start=coarse)[2] == 8


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

    def test_thin_capsule_approaches_meridian_length(self):
        assert surface_diameter_upper(capsule_profile(0.05)).value == 1.0


class TestProfiles:
    def test_two_poles_requires_vanishing_ends(self):
        band = band_profile(0.4, 2.0)
        with pytest.raises(ProfileError, match=r"needs f\(0\) = f\(L\) = 0"):
            SurfaceProfile(f=band.f, df=band.df, d2f=band.d2f, length=2.0)
        # sin^2 r vanishes at both ends, but with zero slope: not a pole
        with pytest.raises(ProfileError, match=r"needs f'\(0\) > 0"):
            SurfaceProfile(
                f=lambda r: np.sin(r) ** 2,
                df=lambda r: np.sin(2.0 * np.asarray(r)),
                d2f=lambda r: 2.0 * np.cos(2.0 * np.asarray(r)),
                length=PI,
            )

    def test_positivity_on_open_interval(self):
        with pytest.raises(ProfileError):
            sphere_profile(1.0).__class__(
                f=lambda r: np.cos(np.asarray(r, dtype=float)),
                df=lambda r: -np.sin(np.asarray(r, dtype=float)),
                d2f=lambda r: -np.cos(np.asarray(r, dtype=float)),
                length=PI,
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
            length=PI, name="stiffened sphere",
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

    def test_report_record(self):
        rep = comparison_check(capsule_profile(0.2))
        assert rep.ok is True
        assert rep.kappa1 == 0.0
