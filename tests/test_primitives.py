import dataclasses
import math

import numpy as np
import pytest

from berklab import (BestResponseEngine, LQParams, build_lq, build_power,
                     check_assumptions)

from helpers import unique_equilibrium_model


class TestLQParams:
    def test_lambda_derivation(self):
        # lambda1 = lambda_e + delta*lambda_a, lambda2 = lambda_a
        p = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0, delta=0.0)
        assert p.lambda1 == 1.0
        assert p.lambda2 == 1.0
        p = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=0.5, delta=0.4)
        assert p.lambda1 == pytest.approx(1.2)

    @pytest.mark.parametrize("kwargs", [
        dict(c=0.0, kappa=1.0, lambda_e=1.0),
        dict(c=1.0, kappa=-1.0, lambda_e=1.0),
        dict(c=1.0, kappa=1.0, lambda_e=0.0),
        dict(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=-0.1),
        dict(c=1.0, kappa=1.0, lambda_e=1.0, delta=1.5),
        dict(c=math.inf, kappa=1.0, lambda_e=1.0),
        dict(c=1.0, kappa=math.inf, lambda_e=1.0),
        dict(c=1.0, kappa=1.0, lambda_e=math.inf),
        dict(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=math.inf),
        dict(c=1.0, kappa=math.nan, lambda_e=1.0),
    ])
    def test_rejects_bad_scales(self, kwargs):
        with pytest.raises(ValueError):
            LQParams(**kwargs)


class TestBuildLQ:
    def test_rejects_nonpositive_lower_support(self):
        p = LQParams(c=1.0, kappa=1.0, lambda_e=1.0)
        with pytest.raises(ValueError, match="beta_lo"):
            build_lq(p, 0.0, 2.0, -0.5, 0.0, 3.0)

    def test_rejects_truth_outside_support(self):
        p = LQParams(c=1.0, kappa=1.0, lambda_e=1.0)
        with pytest.raises(ValueError, match="beta_star"):
            build_lq(p, 0.0, 4.0, -0.5, 0.5, 3.0)

    @pytest.mark.parametrize("beta_lo,beta_hi", [(0.5, math.inf),
                                                 (0.5, math.nan),
                                                 (math.nan, 3.0)])
    def test_rejects_nonfinite_support(self, beta_lo, beta_hi):
        p = LQParams(c=1.0, kappa=1.0, lambda_e=1.0)
        with pytest.raises(ValueError, match="finite"):
            build_lq(p, 0.0, 2.0, -0.5, beta_lo, beta_hi)

    def test_delta_mu_sign_convention(self, lq_unit):
        # society underestimates ability: mu_hat < mu_star <=> delta_mu < 0
        assert lq_unit.delta_mu == pytest.approx(-0.5)
        assert lq_unit.with_delta_mu(0.0).delta_mu == 0.0

    def test_lq_assessment_closed_form(self):
        p = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0)
        m = build_lq(p, 0.0, 2.0, 0.0, 0.5, 3.0)
        # h(beta) = lambda1 beta^2 / (lambda2 beta^2 + kappa c) = 0.5 at beta=1
        assert BestResponseEngine(m).assessment(1.0) == pytest.approx(0.5)

    def test_effort_effect_vanishes(self, lq_unit):
        for b in (0.5, 1.7, 3.0):
            assert lq_unit.r(0.0, b) == 0.0
        for a in (0.0, 1.0, 4.0):
            assert lq_unit.r(a, 0.0) == 0.0


class TestCheckAssumptions:
    def test_lq_passes_everywhere(self, lq_unit):
        report = check_assumptions(lq_unit, grid=32)
        assert report.all_passed, report.first_failure()

    def test_lq_passes_at_other_resolutions(self, lq_unit):
        for grid in (16, 48):
            assert check_assumptions(lq_unit, grid=grid).all_passed, grid

    def test_power_cost_has_increasing_differences(self):
        # c(a) = a^4/4 satisfies c''' in [0, (c'')^2/c'], so the
        # effective-effort cross differences stay positive
        m = build_power(4.0, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)
        report = check_assumptions(m, grid=12)
        assert report.checks["effective_effort_increasing_differences"].passed
        assert report.all_passed, report.first_failure()

    def test_power_cost_effort_vanishes_at_the_boundary(self):
        # c'' = (a^2.5 / 2.5)'' is unbounded at 0, where a second-order
        # one-sided difference reads the agent's condition as +3.3e-7
        m = build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0)
        report = check_assumptions(m, grid=12)
        assert report.all_passed, report.first_failure()

    def test_constant_assessment_cost_fails_convexity(self, lq_unit):
        flat = dataclasses.replace(lq_unit, assess_cost=lambda h: 1.0,
                                   lq=None, factorization=None)
        report = check_assumptions(flat, grid=12)
        assert not report.checks["assessment_cost_convex"].passed
        assert report.checks["assessment_cost_convex"].location == (0,)
        assert not report.all_passed
        name, _ = report.first_failure()
        assert name  # some check failed and is reported, not raised


    def test_productivity_failure_is_reported_at_its_row(self, lq_unit):
        # r = a min(beta, 3 - beta) peaks inside [0.5, 3]: on a 5 x 5 grid
        # effort first falls from beta = 1.75 to 2.375 (column 2) at the
        # first row with h > 0, h = 0.25 (row 1)
        peaked = dataclasses.replace(
            lq_unit, r=lambda a, b: a * np.minimum(b, 3.0 - b),
            lq=None, factorization=None)
        report = check_assumptions(peaked, grid=5)
        for name in ("effort_increasing_in_productivity",
                     "effective_effort_increasing_in_productivity"):
            assert report.checks[name].location == (1, 2), name

    @pytest.mark.parametrize("primitives,location,detail", [
        # c'(0) = -0.1: effort is 0.1 at h = 0
        (lambda m: dataclasses.replace(m, cost=lambda a: 0.5 * (a - 0.1) ** 2),
         (0, 0), "a(0, beta) != 0"),
        # r_a(0, 0) = 0.1: effort is 0.1 h at beta = 0
        (lambda m: dataclasses.replace(m, r=lambda a, b: (b + 0.1) * a),
         (1, 0), "a(h, 0) != 0"),
    ])
    def test_nonvanishing_effort_names_its_point(self, primitives, location,
                                                 detail):
        model = primitives(dataclasses.replace(unique_equilibrium_model(-0.5),
                                               lq=None))
        res = check_assumptions(model, grid=8).checks[
            "effort_zero_boundary"]
        assert (res.passed, res.location, res.detail) == (False, location, detail)

    @pytest.mark.parametrize("r,location,detail", [
        (lambda a, b: b * a + 0.01, (0,), "r(0, beta) != 0"),
        (lambda a, b: (b + 0.1) * a, (1,), "r(a, 0) != 0"),
    ])
    def test_nonvanishing_effect_names_its_point(self, lq_unit, r, location,
                                                 detail):
        model = dataclasses.replace(lq_unit, r=r, lq=None, factorization=None)
        res = check_assumptions(model, grid=6).checks[
            "effort_effect_zero"]
        assert (res.passed, res.location, res.detail) == (False, location, detail)


class TestBuildPower:
    def test_known_effort_solution(self):
        # h r_a = c' with c = a^4/4 gives a = (h beta)^(1/3)
        m = build_power(4.0, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)
        eng = BestResponseEngine(m)
        assert eng.effort(0.5, 2.0) == pytest.approx(1.0, abs=1e-10)
        assert eng.effort(0.2, 1.3) == pytest.approx((0.2 * 1.3) ** (1 / 3),
                                                     abs=1e-10)

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            build_power(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.5, 3.0)
