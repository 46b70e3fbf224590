"""Tests for the bound evaluators and their cross-checks."""

import json
import math

import numpy as np
import pytest

from eigenbounds.bounds import (
    explicit_bound_table,
    kahler_dirichlet_bound,
    kahler_neumann_bound,
    lichnerowicz_comparison,
    monotonicity_scan,
    riemannian_dirichlet_bound,
    riemannian_neumann_bound,
)
from eigenbounds.coefficients import CurvatureParams
from eigenbounds.errors import (
    DiameterExceedsMaximal,
    DomainError,
    InradiusExceedsValidity,
    InvalidDimension,
)

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
        rows = explicit_bound_table(ms=(1, 2))
        assert len(rows) == 6
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
        assert back["problem"]["bc"] == ["dirichlet", "neumann"]
        assert back["is_limit"] is False

    def test_comparison_to_dict(self):
        rep = lichnerowicz_comparison(CurvatureParams(m=1, kappa1=1.0, kappa2=0.0), D=1.0)
        back = json.loads(json.dumps(rep.to_dict()))
        assert back["reference_name"] == "8*kappa1"
        assert back["margin"] == pytest.approx(rep.margin)


class TestPublicApi:
    def test_top_level_exports(self):
        import eigenbounds

        for name in eigenbounds.__all__:
            assert getattr(eigenbounds, name) is not None
        assert eigenbounds.CurvatureParams is CurvatureParams
        assert eigenbounds.kahler_neumann_bound is kahler_neumann_bound
