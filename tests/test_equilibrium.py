import math

import numpy as np
import pytest

from berklab import (BestResponseEngine, InvariantViolation, LQParams,
                     build_lq, find_equilibria, kl_divergence, psi_tilde)

from helpers import (dense_scan_equilibria, general_engine,
                     lq_oracle_equilibria, random_lq_instance)


class TestKLDivergence:
    def test_zero_at_truth_without_misspecification(self, lq_unit):
        m = lq_unit.with_delta_mu(0.0)
        assert kl_divergence(m, 0.7, m.beta_star) == 0.0

    def test_pure_misbelief_term(self, lq_unit):
        # with beta = beta_star the gap is delta_mu alone: (h/2) delta_mu^2
        m = lq_unit.with_delta_mu(0.1)
        assert kl_divergence(m, 0.5, m.beta_star) == pytest.approx(0.0025)

    def test_effective_effort_gap(self, lq_unit):
        m = lq_unit.with_delta_mu(0.0)
        # (0.5/2) * (0.5*1 - 0.5*4)^2
        assert kl_divergence(m, 0.5, 1.0) == pytest.approx(0.5625)


class TestKLMinimizer:
    def test_truth_under_no_misspecification(self, lq_unit):
        m = lq_unit.with_delta_mu(0.0)
        for h in (0.2, 0.5, 0.9):
            fit = BestResponseEngine(m).best_fit(h, m.beta_star, m.delta_mu)
            assert fit == pytest.approx(m.beta_star)

    def test_closed_form_inversion(self, lq_unit):
        # solve h x^2 = h beta_star^2 - delta_mu c => sqrt(4 + 0.625)
        got = BestResponseEngine(lq_unit).best_fit(0.8, lq_unit.beta_star,
                                                  lq_unit.delta_mu)
        assert got == pytest.approx(math.sqrt(4.625), abs=1e-12)

    def test_corner_when_fit_is_out_of_reach(self, lq_unit):
        m = lq_unit.with_delta_mu(10.0)
        fit = BestResponseEngine(m).best_fit(0.5, m.beta_star, m.delta_mu)
        assert fit == m.beta_lo

    def test_matches_grid_argmin(self, lq_unit, rng):
        for _ in range(10):
            dm = float(rng.uniform(-0.8, 0.8))
            h = float(rng.uniform(0.2, 0.9))
            m = lq_unit.with_delta_mu(dm)
            grid = np.linspace(m.beta_lo, m.beta_hi, 200_001)
            vals = np.abs(dm + (h / 1.0) * (grid ** 2 - m.beta_star ** 2))
            expected = grid[np.argmin(vals)]
            fit = BestResponseEngine(m).best_fit(h, m.beta_star, dm)
            assert fit == pytest.approx(float(expected), abs=1e-4)

    def test_unconstrained_root_can_be_absent(self, lq_unit):
        # without the clamp a fit out of reach has no root: nan, not a corner
        eng = BestResponseEngine(lq_unit)
        assert math.isnan(eng.best_fit(0.5, lq_unit.beta_star, 10.0, clamp=False))
        root = eng.best_fit(0.8, lq_unit.beta_star, lq_unit.delta_mu, clamp=False)
        assert root == pytest.approx(math.sqrt(4.625))


class TestPsiTilde:
    def test_constant_at_truth_without_misspecification(self, lq_unit):
        m = lq_unit.with_delta_mu(0.0)
        betas = np.linspace(m.beta_lo, m.beta_hi, 7)
        assert psi_tilde(m, betas) == pytest.approx(m.beta_star)

    def test_closed_form_value(self, lq_unit):
        # h(2) = 0.8; sqrt(4 + 0.5/0.8)
        assert psi_tilde(lq_unit, 2.0) == pytest.approx(math.sqrt(4.625))

    def test_lower_clamp(self, lq_three):
        # at beta = 0.3 the unconstrained fit is negative in squared units
        assert psi_tilde(lq_three, 0.3) == lq_three.beta_lo

    def test_monotone_direction_by_sign(self, lq_unit, lq_three):
        betas = np.linspace(0.5, 3.0, 50)
        down = psi_tilde(lq_unit, betas)   # underestimation: decreasing
        assert np.all(np.diff(down) <= 1e-12)
        betas3 = np.linspace(0.3, 3.0, 50)
        up = psi_tilde(lq_three, betas3)   # overestimation: increasing
        assert np.all(np.diff(up) >= -1e-12)

    def test_general_engine_matches_closed_form(self, lq_unit):
        eng = general_engine(lq_unit)
        for b in (0.6, 1.2, 2.4):
            assert psi_tilde(lq_unit, b, engine=eng) == pytest.approx(
                psi_tilde(lq_unit, b), rel=1e-9)


class TestFindEquilibria:
    def test_no_misspecification_trivial_point(self, lq_unit):
        eqs = find_equilibria(lq_unit.with_delta_mu(0.0))
        assert len(eqs) == 1
        pt = eqs.points[0]
        assert pt.beta_hat == lq_unit.beta_star
        assert pt.stable and pt.is_sce

    def test_underestimation_unique_stable(self, lq_unit):
        eqs = find_equilibria(lq_unit)
        assert len(eqs) == 1
        pt = eqs.points[0]
        # oracle: x^2 - 4.5x - 0.5 = 0 in x = beta^2
        x = (4.5 + math.sqrt(4.5 ** 2 + 2.0)) / 2.0
        assert pt.beta_hat == pytest.approx(math.sqrt(x), abs=1e-9)
        assert pt.stable and pt.is_sce
        assert pt.beta_hat > lq_unit.beta_star
        assert pt.residual < 1e-8

    def test_overestimation_three_points(self, lq_three):
        eqs = find_equilibria(lq_three)
        assert len(eqs) == 3
        # oracle: x^2 - 3.5x + 0.5 = 0 plus the support corner
        x_hi = (3.5 + math.sqrt(3.5 ** 2 - 2.0)) / 2.0
        x_lo = (3.5 - math.sqrt(3.5 ** 2 - 2.0)) / 2.0
        top, mid, corner = eqs.points
        assert top.beta_hat == pytest.approx(math.sqrt(x_hi), abs=1e-9)
        assert mid.beta_hat == pytest.approx(math.sqrt(x_lo), abs=1e-9)
        assert corner.beta_hat == lq_three.beta_lo
        assert [p.stability for p in eqs.points] == \
            ["stable", "unstable", "stable"]
        assert [p.is_sce for p in eqs.points] == [True, True, False]
        assert corner.kl > 1e-4
        assert all(p.residual < 1e-8 for p in eqs.points)

    def test_wider_lower_bound_removes_cascade(self, lq_unit):
        # same misspecification but support [0.5, 3]: psi(0.5) > 0.5
        m = lq_unit.with_delta_mu(0.5)
        eqs = find_equilibria(m)
        assert len(eqs) == 1
        assert eqs.points[0].stable and eqs.points[0].is_sce

    def test_oracle_equivalence_on_random_instances(self, rng):
        for _ in range(25):
            dm = float(rng.uniform(-1.0, 1.0))
            if abs(dm) < 0.01:
                continue
            model = random_lq_instance(rng, dm)
            got = find_equilibria(model)
            expected = lq_oracle_equilibria(model)
            assert len(got) == len(expected)
            for pt, (b, stable) in zip(got.points, expected):
                assert pt.beta_hat == pytest.approx(b, abs=1e-6)
                assert pt.stable == stable

    def test_dense_scan_agreement(self, lq_three):
        scan = dense_scan_equilibria(lq_three, points=10_000)
        got = sorted(p.beta_hat for p in find_equilibria(lq_three).points)
        assert len(scan) == len(got)
        for a, b in zip(scan, got):
            assert a == pytest.approx(b, abs=1e-6)

    def test_near_tangency_is_flagged_not_decided(self, lq_three):
        # at delta_mu where the fixed-point quadratic's discriminant
        # vanishes, the interior pair collides; just before that the
        # crossing slopes approach one and the solver must warn
        dm_tangent = (12.0 - math.sqrt(144.0 - 64.0)) / 2.0
        eqs = find_equilibria(lq_three.with_delta_mu(dm_tangent - 1e-7))
        assert eqs.warnings
        assert any("tangent" in w or "grid step" in w for w in eqs.warnings)

    def test_distortion_is_order_delta_mu(self, lq_unit):
        # |beta_hat - beta_star| / |delta_mu| stays bounded as delta_mu -> 0
        ratios = []
        for dm in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
            eqs = find_equilibria(lq_unit.with_delta_mu(-dm))
            ratios.append(abs(eqs.points[0].beta_hat - 2.0) / dm)
        assert max(ratios) < 10.0
        assert max(ratios) / min(ratios) < 1.05


class TestMarketBelief:
    def test_same_misspecification_same_belief(self, lq_unit):
        eqs = find_equilibria(lq_unit)
        h_eq = eqs.points[0].h_hat
        assert BestResponseEngine(lq_unit).best_fit(
            h_eq, lq_unit.beta_star, lq_unit.delta_mu) == \
            pytest.approx(eqs.points[0].beta_hat, abs=1e-9)

    def test_correct_observer_recovers_truth(self, lq_unit):
        fit = BestResponseEngine(lq_unit).best_fit(0.7, lq_unit.beta_star, 0.0)
        assert fit == pytest.approx(lq_unit.beta_star)

    def test_closed_form(self, lq_unit):
        fit = BestResponseEngine(lq_unit).best_fit(0.8, lq_unit.beta_star, -0.5)
        assert fit == pytest.approx(math.sqrt(4.625))


def test_belief_map_rejects_non_interior_assessment_on_both_paths():
    # h = 5 beta^2 leaves (0, 1) above beta = 0.45: the closed form is held
    # to the interiority assumption that the numeric solve checks
    m = build_lq(LQParams(c=1.0, kappa=1.0, lambda_e=5.0, lambda_a=0.0),
                 0.0, 2.0, 0.5, 0.3, 3.0)
    betas = np.linspace(m.beta_lo, m.beta_hi, 5)
    for eng in (BestResponseEngine(m), general_engine(m)):
        with pytest.raises(InvariantViolation, match="not interior"):
            psi_tilde(m, betas, engine=eng)
        with pytest.raises(InvariantViolation, match="not interior"):
            eng.assessment(0.0)  # h = 0 at zero productivity
    with pytest.raises(InvariantViolation, match="not interior"):
        find_equilibria(m)
