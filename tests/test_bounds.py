"""Tests for the bound evaluators and their cross-checks."""

import dataclasses
import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

from eigenbounds import sturm_liouville
from eigenbounds.bounds import (
    BoundResult,
    explicit_bound_table,
    kahler_dirichlet_bound,
    kahler_neumann_bound,
    lichnerowicz_comparison,
    monotonicity_scan,
    riemannian_dirichlet_bound,
    riemannian_neumann_bound,
)
from eigenbounds.coefficients import CurvatureParams, kahler_factors, weight_radius
from eigenbounds.errors import (
    DiameterExceedsMaximal,
    DomainError,
    InradiusExceedsValidity,
    InvalidDimension,
)
from eigenbounds.sturm_liouville import SLProblem
from eigenbounds.surfaces import SurfaceProfile

PI2 = math.pi**2


class TestKnownValues:
    def test_flat_kahler_is_pi2_over_d2(self):
        r = kahler_neumann_bound(CurvatureParams(m=4, kappa1=0.0, kappa2=0.0), D=2.0)
        assert r.value == pytest.approx(PI2 / 4, rel=1e-9)
        assert not r.is_limit
        assert r.method_agreement < 1e-8

    def test_sharp_kappa1_limit_is_eight_kappa1(self):
        r = kahler_neumann_bound(CurvatureParams(m=1, kappa1=1.0, kappa2=0.0), D=math.pi / 2)
        assert r.is_limit
        assert r.value == pytest.approx(8.0, rel=1e-7)
        # the direct scheme solves the vanishing endpoint on its own
        assert r.fd_value == pytest.approx(8.0, rel=1e-5)
        assert r.limit_error is not None and r.limit_error < 1e-5

    def test_sharp_kappa2_limit_is_2m_minus_1(self):
        r = kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.0, kappa2=1.0), D=math.pi)
        assert r.is_limit
        assert r.value == pytest.approx(3.0, rel=1e-7)

    def test_riemannian_flat(self):
        r = riemannian_neumann_bound(3, 0.0, 1.0)
        assert r.value == pytest.approx(PI2, rel=1e-9)

    def test_riemannian_sharp_is_n_kappa(self):
        r = riemannian_neumann_bound(3, 1.0, math.pi)
        assert r.is_limit
        assert r.value == pytest.approx(3.0, rel=1e-7)
        r = riemannian_neumann_bound(2, 0.25, 2 * math.pi)
        assert r.value == pytest.approx(0.5, rel=1e-7)

    def test_riemannian_dirichlet_oracle(self):
        # frozen oracle 4.569474660412801 for (cos t phi')' = -lam cos t phi,
        # phi(0) = 0, phi'(pi/4) = 0: two independent integrations agree to
        # 14 digits (adaptive RK at rtol 1e-13, 30-digit Taylor series run)
        r = riemannian_dirichlet_bound(2, 1.0, 0.0, math.pi / 4)
        assert r.value == pytest.approx(4.569474660412801, rel=1e-10)

    def test_flat_dirichlet_quarter_pi2(self):
        # flat boundary profile C = 1 - lam*t with lam = 0: plain string
        r = riemannian_dirichlet_bound(3, 0.0, 0.0, 0.5)
        assert r.value == pytest.approx(PI2 / (4 * 0.25), rel=1e-9)


class TestShootingWork:
    @pytest.mark.parametrize(
        "params, D, most",
        [
            (CurvatureParams(m=2, kappa1=0.25), 2.0, 20),
            (CurvatureParams(m=2, kappa1=1.0), math.pi / 2, 20),
        ],
        ids=["regular", "kappa1_sharp"],
    )
    def test_shooting_lambdas_per_bound(self, monkeypatch, params, D, most):
        # S(lam) evaluations for one bound; an array of lambdas counts each entry
        inner = sturm_liouville._shoot
        lams = []

        def counted(table, lam):
            lams.append(np.size(lam))
            return inner(table, lam)

        monkeypatch.setattr(sturm_liouville, "_shoot", counted)
        kahler_neumann_bound(params, D)
        assert sum(lams) <= most

    @pytest.mark.parametrize(
        "params, D, sweeps",
        [
            (CurvatureParams(m=2, kappa1=0.25), 2.0, 9),
            (CurvatureParams(m=4, kappa1=0.0), 2.0, 3),
            (CurvatureParams(m=2, kappa1=1.0), 0.999 * math.pi / 2, 9),
            (CurvatureParams(m=2, kappa1=1.0), math.pi / 2, 9),
        ],
        ids=["regular", "flat", "near_cap", "kappa1_sharp"],
    )
    def test_sweeps_counts_shooting_evaluations(self, monkeypatch, params, D, sweeps):
        # EigenResult.sweeps is the number of S(lam) sweeps actually run by the
        # bracket walk and Brent's method, which starts from the walk's sweeps
        # of the bracket ends, so no (table, lam) is swept twice
        problem = kahler_neumann_bound(params, D).problem
        inner = sturm_liouville._shoot
        calls = []

        def counted(table, lam):
            calls.append((id(table), lam))
            return inner(table, lam)

        monkeypatch.setattr(sturm_liouville, "_shoot", counted)
        r = sturm_liouville.solve_shooting(problem)
        assert r.sweeps == len(calls) == len(set(calls)) == sweeps

    def test_fd_starts_from_the_shooting_result(self, monkeypatch):
        # through the module names the benchmark's tracer wraps
        from eigenbounds import bounds

        seen = {}
        shoot, fd = bounds.solve_shooting, bounds.solve_fd

        def shooting(problem):
            seen["shoot"] = shoot(problem)
            return seen["shoot"]

        def finite_differences(problem, n, start):
            seen["start"] = start
            return fd(problem, n, start)

        monkeypatch.setattr(bounds, "solve_shooting", shooting)
        monkeypatch.setattr(bounds, "solve_fd", finite_differences)
        kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.25), 2.0)
        assert seen["start"] is seen["shoot"] and seen["shoot"].eigenfunction is not None

    def test_seeded_draws_never_size_a_second_table(self, monkeypatch):
        # tripwire: a solve builds its table again only where 60 steps per
        # radian of the bracket's phase exceed the mesh floors, which no
        # model bound reaches.  Bulk, near-cap and sharp draws over the four
        # families each sweep one table; a lower mesh floor that made them
        # re-run would fail here
        inner = sturm_liouville._shoot
        seen = []

        def tracked(table, lam):
            seen.append(table[0])
            return inner(table, lam)

        monkeypatch.setattr(sturm_liouville, "_shoot", tracked)
        rng = np.random.default_rng(23)
        u = rng.uniform
        solves = []
        for _ in range(6):
            params = CurvatureParams(
                m=int(rng.choice([1, 2, 5, 20, 50])), kappa1=u(0.1, 2.0), kappa2=u(0.0, 2.0)
            )
            cap = 2.0 * weight_radius(kahler_factors(params))
            for frac in (u(0.05, 0.95), u(0.95, 0.999), 1.0):
                solves.append(lambda p=params, D=frac * cap: kahler_neumann_bound(p, D))
            lam = u(-0.5, 1.0)
            rad = weight_radius(kahler_factors(params), lam)
            for frac in (u(0.05, 0.95), u(0.95, 0.999)):
                solves.append(lambda p=params, R=frac * rad, L=lam: kahler_dirichlet_bound(p, L, R))
            n, k = int(rng.choice([2, 3, 10, 500, 2000])), u(0.25, 2.0)
            for frac in (u(0.05, 0.95), u(0.95, 0.999), 1.0):
                solves.append(lambda n=n, k=k, D=frac * math.pi / math.sqrt(k): riemannian_neumann_bound(n, k, D))
            # a Dirichlet weight falls like exp(-lam (n - 1) t), and from n = 500
            # on its first eigenvalue, about (lam (n - 1))^2/4, is often past
            # the scan ceiling
            n = int(rng.choice([2, 3, 10, 20]))
            rad = weight_radius(((k, n - 1),), lam)
            for frac in (u(0.05, 0.95), u(0.95, 0.999)):
                solves.append(lambda n=n, k=k, R=frac * rad, L=lam: riemannian_dirichlet_bound(n, k, L, R))
        assert len(solves) == 60
        for solve in solves:
            seen.clear()
            solve()
            assert len({id(bands) for bands in seen}) == 1


class TestIdentities:
    def test_dirichlet_lambda_zero_matches_neumann_double(self):
        # C_{k,0} = c_k, so the boundary problem on R is the interior
        # problem on diameter 2R
        cases = [
            (CurvatureParams(m=2, kappa1=0.25, kappa2=1.0), 0.6),
            (CurvatureParams(m=3, kappa1=-0.5, kappa2=-1.0), 0.8),
        ]
        for params, R in cases:
            d = kahler_dirichlet_bound(params, 0.0, R)
            nb = kahler_neumann_bound(params, 2.0 * R)
            assert d.value == pytest.approx(nb.value, rel=1e-8)

    def test_riemannian_dirichlet_lambda_zero_matches_neumann_double(self):
        d = riemannian_dirichlet_bound(3, -1.0, 0.0, 0.7)
        nb = riemannian_neumann_bound(3, -1.0, 1.4)
        assert d.value == pytest.approx(nb.value, rel=1e-8)

    def test_m1_matches_real_surface_case(self):
        # at m = 1 the interior weight is c_{4 kappa1}, the n = 2 profile
        # with kappa = 4 kappa1
        for k1, D in [(0.3, 1.2), (-0.5, 2.0)]:
            kb = kahler_neumann_bound(CurvatureParams(m=1, kappa1=k1, kappa2=0.0), D)
            rb = riemannian_neumann_bound(2, 4.0 * k1, D)
            assert kb.value == pytest.approx(rb.value, rel=1e-10)

    def test_scaling_covariance(self):
        params = CurvatureParams(m=2, kappa1=0.2, kappa2=0.5)
        base = kahler_neumann_bound(params, 1.1)
        for c in (0.5, 2.0, 10.0):
            scaled = kahler_neumann_bound(
                CurvatureParams(m=2, kappa1=0.2 / c**2, kappa2=0.5 / c**2), 1.1 * c
            )
            assert scaled.value == pytest.approx(base.value / c**2, rel=1e-9)


class TestComparison:
    def test_margin_positive_below_cap(self):
        rep = lichnerowicz_comparison(CurvatureParams(m=2, kappa1=1.0, kappa2=0.5), D=1.0)
        assert rep.reference_bound == 8.0
        assert rep.margin > 0.1
        assert rep.bound.value == rep.reference_bound + rep.margin

    def test_margin_vanishes_at_cap(self):
        rep = lichnerowicz_comparison(
            CurvatureParams(m=1, kappa1=1.0, kappa2=0.0), D=math.pi / 2
        )
        assert abs(rep.margin) < 1e-6

    def test_requires_positive_kappa1(self):
        with pytest.raises(DomainError):
            lichnerowicz_comparison(CurvatureParams(m=2, kappa1=0.0, kappa2=1.0), D=1.0)
        with pytest.raises(DomainError):
            lichnerowicz_comparison(CurvatureParams(m=2, kappa1=1.0, kappa2=-1.0), D=1.0)


class TestTableAndScan:
    def test_explicit_table_rows(self):
        rows = explicit_bound_table()
        assert len(rows) == 12
        for row in rows:
            assert row["ratio"] == pytest.approx(1.0, abs=1e-6)
        by_case = {(r["case"], r["m"]): r for r in rows}
        assert by_case[("flat", 1)]["expected"] == pytest.approx(PI2)
        assert by_case[("kappa1_sharp", 2)]["expected"] == 8.0
        assert by_case[("kappa2_sharp", 2)]["expected"] == 3.0
        # the kappa2 row is flat at m = 1, D = pi: expected value 1
        assert by_case[("kappa2_sharp", 1)]["expected"] == 1.0
        assert not by_case[("kappa2_sharp", 1)]["is_limit"]
        assert by_case[("kappa1_sharp", 2)]["is_limit"]

    def test_monotonicity_scan_decreases(self):
        rows = monotonicity_scan(
            CurvatureParams(m=2, kappa1=0.25, kappa2=0.25), [0.5, 1.0, 1.5]
        )
        values = [r["value"] for r in rows]
        assert values[0] > values[1] > values[2]

    def test_monotonicity_scan_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            monotonicity_scan(CurvatureParams(m=2, kappa1=0.0, kappa2=0.0), [1.0, 0.5])


class TestCrossMethod:
    def test_seeded_tuples_agree(self):
        rng = np.random.default_rng(20240818)
        for _ in range(4):
            m = int(rng.integers(1, 5))
            k1 = float(rng.uniform(-1.0, 1.0))
            k2 = float(rng.uniform(-1.0, 1.0))
            cap = 3.0
            if k1 > 0:
                cap = min(cap, math.pi / (2 * math.sqrt(k1)))
            if k2 > 0 and m > 1:
                cap = min(cap, math.pi / math.sqrt(k2))
            D = 0.85 * cap
            r = kahler_neumann_bound(CurvatureParams(m=m, kappa1=k1, kappa2=k2), D)
            assert r.method_agreement < 1e-5

    def test_near_cap_draws_match_fine_fd(self):
        # 40 draws within 10^-1 to 10^-11 of a kahler-neumann cap or of the
        # kahler-dirichlet validity radius, in the benchmark's near-cap ranges:
        # each bound is within 1e-12 of FD at n = 16,000 (a mesh graded into
        # the gap to the weight's zero was up to 1.6e-7 off on such draws)
        rng = np.random.default_rng(20240901)
        for i in range(40):
            m, k1, k2 = int(rng.integers(1, 9)), rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0)
            params = CurvatureParams(m=m, kappa1=k1, kappa2=k2)
            gap = 10.0 ** -rng.uniform(1.0, 11.0)
            if i % 2:
                lam = rng.uniform(0.1, 1.0)
                R = weight_radius(kahler_factors(params), lam) * (1.0 - gap)
                r = kahler_dirichlet_bound(params, lam, R)
            else:
                r = kahler_neumann_bound(params, 2.0 * weight_radius(kahler_factors(params)) * (1.0 - gap))
            fine = sturm_liouville.solve_fd(r.problem, n=16000).value
            assert r.value == pytest.approx(fine, rel=1e-12, abs=0.0), (params, gap)

    @pytest.mark.parametrize(
        "params, lam, R",
        [
            (CurvatureParams(m=9, kappa1=0.23, kappa2=0.65), -0.95, 2.4),
            (CurvatureParams(m=4, kappa1=-0.6, kappa2=0.2), -0.6, 5.4),
        ],
        ids=["m9", "m4"],
    )
    def test_dirichlet_start_slope_sizes_the_mesh(self, params, lam, R):
        # with lam < 0 the boundary weight rises about e^7-fold from its slope
        # -lam P at 0 before it falls to its zero; 850 sqrt(P) steps alone were
        # 6.0e-12 and 4.1e-12 off, the graded mesh 3.3e-11 and 2.4e-9
        r = kahler_dirichlet_bound(params, lam, R)
        fine = sturm_liouville.solve_fd(r.problem, n=16000).value
        assert r.value == pytest.approx(fine, rel=1e-12, abs=0.0)

    def test_negative_curvature_methods_agree(self):
        r = kahler_neumann_bound(CurvatureParams(m=2, kappa1=-1.0, kappa2=-1.0), D=3.0)
        assert r.value > 0
        assert r.method_agreement < 1e-6


class TestValidityAndErrors:
    def test_kappa1_cap(self):
        with pytest.raises(DiameterExceedsMaximal):
            kahler_neumann_bound(CurvatureParams(m=1, kappa1=1.0, kappa2=0.0), D=1.6)

    def test_kappa2_cap_only_binds_for_m_at_least_2(self):
        with pytest.raises(DiameterExceedsMaximal):
            kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.0, kappa2=1.0), D=3.2)
        r = kahler_neumann_bound(CurvatureParams(m=1, kappa1=0.0, kappa2=1.0), D=3.2)
        assert r.value == pytest.approx(PI2 / 3.2**2, rel=1e-9)

    def test_riemannian_cap(self):
        with pytest.raises(DiameterExceedsMaximal):
            riemannian_neumann_bound(2, 1.0, 3.2)

    def test_inradius_strictly_inside(self):
        with pytest.raises(InradiusExceedsValidity):
            kahler_dirichlet_bound(
                CurvatureParams(m=1, kappa1=0.25, kappa2=0.0), 0.0, math.pi / 2
            )
        with pytest.raises(InradiusExceedsValidity):
            riemannian_dirichlet_bound(2, 1.0, 0.0, math.pi / 2)

    def test_bad_inputs(self):
        params = CurvatureParams(m=2, kappa1=0.0, kappa2=0.0)
        with pytest.raises(DomainError):
            kahler_neumann_bound(params, D=0.0)
        with pytest.raises(DomainError):
            kahler_neumann_bound(params, D=math.inf)
        with pytest.raises(DomainError):
            kahler_dirichlet_bound(params, math.nan, 0.5)
        with pytest.raises(InvalidDimension):
            riemannian_neumann_bound(1, 0.0, 1.0)
        with pytest.raises(InvalidDimension):
            riemannian_dirichlet_bound(1, 0.0, 0.0, 0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="kappa must be finite"):
                riemannian_neumann_bound(3, bad, 1.0)
            with pytest.raises(DomainError, match="kappa must be finite"):
                riemannian_dirichlet_bound(3, bad, 0.0, 0.5)
            with pytest.raises(DomainError, match="lambda must be finite"):
                riemannian_dirichlet_bound(3, 0.0, bad, 0.5)
        with pytest.raises(InvalidDimension):
            CurvatureParams(m=0, kappa1=0.0, kappa2=0.0)

    def test_validity_checks_recorded(self):
        r = kahler_neumann_bound(CurvatureParams(m=2, kappa1=1.0, kappa2=1.0), D=1.0)
        names = {c["name"] for c in r.validity}
        assert names == {"kappa1_diameter_cap", "kappa2_diameter_cap"}
        assert all(c["ok"] for c in r.validity)


class TestResultRecord:
    def test_to_dict_is_json_serializable(self):
        r = kahler_neumann_bound(CurvatureParams(m=1, kappa1=0.0, kappa2=0.0), D=1.0)
        blob = json.dumps(r.to_dict())
        back = json.loads(blob)
        assert back["theorem_tag"] == "kahler_neumann"
        assert back["is_limit"] is False
        # the keys are the fields in order, `problem` as its summary
        assert list(back) == [f.name for f in dataclasses.fields(BoundResult)]
        assert back["problem"] == {
            "length": 0.5, "bc": ["dirichlet", "neumann"], "target": "first",
            "weight": r.problem.name,
        }

    def test_comparison_record(self):
        rep = lichnerowicz_comparison(CurvatureParams(m=1, kappa1=1.0, kappa2=0.0), D=1.0)
        assert rep.reference_name == "8*kappa1"
        assert rep.margin == rep.bound.value - rep.reference_bound


class TestPublicApi:
    def test_top_level_exports(self):
        import eigenbounds

        for name in eigenbounds.__all__:
            assert getattr(eigenbounds, name) is not None
        assert eigenbounds.CurvatureParams is CurvatureParams
        assert eigenbounds.kahler_neumann_bound is kahler_neumann_bound

    # each module's __all__, as TestSettableValues pins the defaults: a new
    # public name is a visible change here
    EXPORTS = {
        "eigenbounds": [
            "BoundResult", "ComparisonReport", "CurvatureParams", "explicit_bound_table",
            "kahler_dirichlet_bound", "kahler_neumann_bound", "lichnerowicz_comparison",
            "monotonicity_scan", "riemannian_dirichlet_bound", "riemannian_neumann_bound",
            "run_suite",
        ],
        "bounds": [
            "BoundResult", "ComparisonReport", "kahler_neumann_bound", "kahler_dirichlet_bound",
            "riemannian_neumann_bound", "riemannian_dirichlet_bound", "lichnerowicz_comparison",
            "explicit_bound_table", "monotonicity_scan",
        ],
        "cli": ["main", "build_parser"],
        "coefficients": [
            "CurvatureParams", "t_kappa", "c_kappa", "s_kappa", "big_c", "first_zero",
            "kahler_factors", "riemannian_factors", "weight_radius", "drift_kahler",
            "weight_kahler", "weight_kahler_radius", "weight_dirichlet", "weight_dirichlet_radius",
            "weight_riemannian", "weight_riemannian_dirichlet",
        ],
        "errors": None,
        "heatflow": [
            "DecayFit", "FlowResult", "EnvelopeReport", "LINEAR", "heatflow_1d",
            "modulus_envelope_check", "modulus_of_continuity", "FIT_RESIDUAL_MAX", "MAX_FLOW_NODES",
        ],
        "sturm_liouville": [
            "SLProblem", "EigenResult", "solve_shooting", "solve_fd",
            "neumann_first_nonzero_direct", "eigen_limit", "check_length",
        ],
        "suites": ["SUITE_NAMES", "DEFAULT_SEED", "SuiteResult", "run_suite"],
        "surfaces": [
            "SurfaceProfile", "SurfaceSpectrum", "DiameterEstimate", "SurfaceComparison",
            "sphere_profile", "capsule_profile", "random_convex_profile", "surface_eigen",
            "surface_diameter_upper", "comparison_check",
        ],
    }

    def test_module_exports_are_pinned(self):
        import eigenbounds

        found = {"eigenbounds": eigenbounds.__all__}
        for m in pkgutil.iter_modules(eigenbounds.__path__):
            module = importlib.import_module(f"eigenbounds.{m.name}")
            found[m.name] = getattr(module, "__all__", None)
        assert found == self.EXPORTS


class TestSettableValues:
    # every defaulted parameter of the functions in each module's __all__,
    # with its default, and every field of the input dataclasses in order:
    # a new library knob, defaulted or not, is a visible change here
    INPUTS = (CurvatureParams, SLProblem, SurfaceProfile)
    FIELDS = {
        CurvatureParams: ["m", "kappa1", "kappa2"],
        SLProblem: ["length", "weight", "power", "name", "order"],
        SurfaceProfile: ["f", "df", "d2f", "length", "name"],
    }
    DEFAULTS = {
        "bounds.kahler_neumann_bound": {"n": 2000},
        "bounds.kahler_dirichlet_bound": {"n": 2000},
        "bounds.riemannian_neumann_bound": {"n": 2000},
        "bounds.riemannian_dirichlet_bound": {"n": 2000},
        "bounds.lichnerowicz_comparison": {"n": 2000},
        "bounds.explicit_bound_table": {"n": 2000},
        "bounds.monotonicity_scan": {"n": 2000},
        "cli.main": {"argv": None},
        "coefficients.weight_radius": {"lam": 0.0},
        "heatflow.heatflow_1d": {"n": 192, "fit_target": None},
        "heatflow.modulus_envelope_check": {"tol": 1e-6},
        "sturm_liouville.solve_fd": {"n": 2000, "start": None},
        "sturm_liouville.neumann_first_nonzero_direct": {"n": 2000},
        "sturm_liouville.eigen_limit": {"extra_terms": 3},
        "suites.run_suite": {"seed": 20240817, "grid": 2000},
        "surfaces.comparison_check": {"grid": 2000},
        "coefficients.CurvatureParams": {"kappa2": 0.0},
        "sturm_liouville.SLProblem": {"power": 0, "name": "", "order": 0},
        "surfaces.SurfaceProfile": {"name": ""},
    }

    def test_defaults_are_pinned(self):
        import eigenbounds

        modules = [eigenbounds] + [
            importlib.import_module(f"eigenbounds.{m.name}")
            for m in pkgutil.iter_modules(eigenbounds.__path__)
        ]
        functions = {
            obj
            for module in modules
            for obj in (getattr(module, a) for a in getattr(module, "__all__", ()))
            if inspect.isfunction(obj)
        }
        found = {}
        # a dataclass's signature is that of its __init__: its fields
        for obj in (*functions, *self.INPUTS):
            params = inspect.signature(obj).parameters.values()
            defaults = {p.name: p.default for p in params if p.default is not p.empty}
            if defaults:
                found[f"{obj.__module__.removeprefix('eigenbounds.')}.{obj.__name__}"] = defaults
        assert found == self.DEFAULTS

    def test_input_fields_are_pinned(self):
        found = {cls: [f.name for f in dataclasses.fields(cls)] for cls in self.INPUTS}
        assert found == self.FIELDS
