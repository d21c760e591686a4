import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from berklab import (InvariantViolation, LQParams, build_lq,
                     comparative_statics, disparity_report, find_equilibria,
                     first_order_comparison, gap_decomposition,
                     weak_set_order_leq)
from berklab.analysis import _select_sce, perturb_model
from berklab.equilibrium import EquilibriumPoint, EquilibriumSet

from helpers import lq_oracle_equilibria, random_lq_instance


class TestWeakSetOrder:
    def test_examples(self):
        assert weak_set_order_leq({1, 2}, {1.5, 2.5})
        assert not weak_set_order_leq({1, 3}, {2})
        assert weak_set_order_leq({1, 3}, {1, 3})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            weak_set_order_leq([], [1.0])

    @settings(max_examples=50, deadline=None)
    @given(a=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           b=st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    def test_matches_double_quantifier_definition(self, a, b):
        direct = (all(any(x <= y for y in b) for x in a)
                  and all(any(x <= y for x in a) for y in b))
        assert weak_set_order_leq(a, b) == direct


class TestComparativeStatics:
    def test_more_overestimation_raises_distortions(self, lq_three):
        res = comparative_statics(lq_three, "delta_mu", rel_step=0.10)
        assert res.weak_set_order_increase
        # oracle: recompute the stable roots by quadratic at both values
        base = [abs(b - 2.0) for b, s in lq_oracle_equilibria(lq_three) if s]
        pert = [abs(b - 2.0) for b, s in
                lq_oracle_equilibria(lq_three.with_delta_mu(0.55)) if s]
        assert weak_set_order_leq(base, pert)

    def test_no_misspecification_is_degenerate(self, lq_unit):
        res = comparative_statics(lq_unit.with_delta_mu(0.0), "delta_mu")
        assert res.baseline_distortions == (0.0,)
        assert res.weak_set_order_increase and res.weak_set_order_decrease

    def test_cheaper_assessment_shrinks_distortion(self, lq_unit):
        # kappa down 10% raises h pointwise; the unique distortion falls
        res = comparative_statics(lq_unit, "kappa", rel_step=-0.10)
        assert res.assessment_shift == "up"
        assert res.weak_set_order_decrease
        assert res.perturbed_distortions[0] < res.baseline_distortions[0]

    def test_all_levers_move_assessment_the_stated_way(self, rng):
        model = random_lq_instance(rng, 0.3)
        for param, direction in (("lambda_e", "up"), ("delta", "up"),
                                 ("c", "down"), ("kappa", "down")):
            res = comparative_statics(model, param, rel_step=0.01)
            assert res.assessment_shift == direction

    def test_passthrough_without_agent_weight_leaves_assessment(self):
        # lambda1 = lambda_e + delta lambda_a does not move with delta when
        # lambda_a = 0, so neither the assessment map nor the equilibria do
        params = LQParams(c=1.0, kappa=10.0, lambda_e=1.0, lambda_a=0.0,
                          delta=0.5)
        model = build_lq(params, 0.0, 2.0, 0.2, 0.5, 3.0)
        res = comparative_statics(model, "delta", rel_step=0.01)
        assert res.assessment_shift == "none"
        assert res.perturbed_distortions == res.baseline_distortions
        assert res.weak_set_order_increase and res.weak_set_order_decrease

    def test_custom_model_only_supports_delta_mu(self, lq_unit):
        import dataclasses
        custom = dataclasses.replace(lq_unit, lq=None, factorization=None)
        with pytest.raises(ValueError):
            comparative_statics(custom, "kappa")


class TestDisparityReport:
    def test_pure_ability_reward_gap(self, lq_unit):
        # v_m = 0 (delta = 0): the reward gap is the misbelief gap alone
        rep = disparity_report(lq_unit, 0.3, -0.3)
        assert rep.reward_m - rep.reward_w == pytest.approx(0.6)
        assert rep.reward_gap_misbelief_part == pytest.approx(0.6)
        assert rep.reward_gap_market_part == 0.0
        assert rep.welfare_m > rep.welfare_w
        assert rep.all_orderings_hold

    def test_gaps_vanish_with_misspecification(self, lq_unit):
        rep = disparity_report(lq_unit, 1e-4, -1e-4)
        assert abs(rep.belief_w - rep.belief_m) < 1e-3
        assert abs(rep.reward_m - rep.reward_w) < 3e-4
        assert abs(rep.welfare_m - rep.welfare_w) < 1e-3

    def test_documented_pair_against_spreadsheet(self, lq_unit):
        # independent arithmetic from the fixed-point quadratics
        x_m = (3.5 + math.sqrt(3.5 ** 2 - 2.0)) / 2.0
        x_w = (4.5 + math.sqrt(4.5 ** 2 + 2.0)) / 2.0
        b_m, b_w = math.sqrt(x_m), math.sqrt(x_w)
        h_m, h_w = x_m / (x_m + 1.0), x_w / (x_w + 1.0)
        rep = disparity_report(lq_unit, 0.5, -0.5)
        assert rep.belief_m == pytest.approx(b_m, abs=1e-9)
        assert rep.belief_w == pytest.approx(b_w, abs=1e-9)
        assert rep.assessment_m == pytest.approx(h_m, abs=1e-9)
        assert rep.assessment_w == pytest.approx(h_w, abs=1e-9)
        assert rep.true_effort_m == pytest.approx(h_m * 2.0, abs=1e-9)
        assert rep.perceived_effort_w == pytest.approx(h_w * b_w, abs=1e-9)
        # the four-term chain, spelled out
        assert h_w * b_w > h_w * 2.0 > h_m * 2.0 > h_m * b_m
        assert rep.orderings["effort_chain"]
        assert rep.welfare_m - rep.welfare_w == pytest.approx(
            1.0 - (0.5 * (h_m * 2.0) ** 2 - 0.5 * (h_w * 2.0) ** 2), abs=1e-9)
        assert rep.all_orderings_hold
        # each group has one stable self-confirming equilibrium, which every
        # selector picks
        for selector in ("largest_belief", "smallest_belief"):
            assert disparity_report(lq_unit, 0.5, -0.5, selector=selector) == rep

    def test_market_effort_value_can_reverse_the_gap(self):
        # lambda_a = 0 so the passthrough only affects rewards, not play
        base = LQParams(c=1.0, kappa=10.0, lambda_e=1.0, lambda_a=0.0,
                        delta=0.0)
        gaps = []
        for passthrough in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = LQParams(c=1.0, kappa=10.0, lambda_e=1.0, lambda_a=0.0,
                              delta=passthrough)
            m = build_lq(params, 0.0, 2.0, 0.0, 0.5, 3.0)
            rep = disparity_report(m, 0.2, -0.2)
            gaps.append(rep.reward_m - rep.reward_w)
        assert gaps[0] > 0.0
        assert min(gaps) < 0.0 < max(gaps)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_selectors_pick_among_stable_self_confirming_points(self):
        def point(beta, stability="stable", is_sce=True):
            return EquilibriumPoint(beta_hat=beta, h_hat=0.5, stability=stability,
                                    is_sce=is_sce, kl=0.0, residual=0.0,
                                    slope=0.0)

        eqs = EquilibriumSet(points=(point(2.5), point(2.2), point(1.5),
                                     point(1.0, "unstable"), point(0.3, is_sce=False)),
                             delta_mu=0.1)
        picked = {sel: _select_sce(eqs, 2.0, sel).beta_hat
                  for sel in ("least_distorted", "largest_belief",
                              "smallest_belief")}
        assert picked == {"least_distorted": 2.2, "largest_belief": 2.5,
                          "smallest_belief": 1.5}
        with pytest.raises(ValueError, match="unknown selector"):
            _select_sce(eqs, 2.0, "median_belief")

    def test_requires_opposite_signs(self, lq_unit):
        with pytest.raises(ValueError):
            disparity_report(lq_unit, -0.1, 0.1)

    def test_group_distortions_shrink_with_misspecification(self, lq_unit):
        # restatement of the disparity comparative statics per group
        for delta in (0.3, -0.3):
            big = find_equilibria(lq_unit.with_delta_mu(delta))
            small = find_equilibria(lq_unit.with_delta_mu(0.5 * delta))
            d_big = [abs(p.beta_hat - 2.0) for p in big.stable_points]
            d_small = [abs(p.beta_hat - 2.0) for p in small.stable_points]
            assert weak_set_order_leq(d_small, d_big)


class TestFirstOrderComparison:
    def test_no_misspecification(self, lq_unit):
        res = first_order_comparison(lq_unit.with_delta_mu(0.0))
        assert res.beta_ours == pytest.approx(2.0)
        assert res.beta_fom == pytest.approx(2.0, abs=1e-9)
        assert res.gap_ours == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("dm", [-0.05, 0.05, -0.01, 0.01])
    def test_our_distortion_is_smaller(self, lq_unit, dm):
        res = first_order_comparison(lq_unit.with_delta_mu(dm))
        assert res.gap_ours < res.gap_fom

    @pytest.mark.parametrize("dm", [-0.05, 0.05])
    def test_fom_belief_matches_bisection_oracle(self, lq_unit, dm):
        m = lq_unit.with_delta_mu(dm)
        # oracle: x = beta_star - dm*c/(h_f(x) beta_star),
        # h_f(x) = lambda1 x beta_star / (lambda2 beta_star^2 + kappa c)
        def fixed_point(x):
            h_f = x * 2.0 / (4.0 + 1.0)
            return 2.0 - dm / (h_f * 2.0) - x
        root = brentq(fixed_point, 1.0, 3.0, xtol=1e-13)
        res = first_order_comparison(m)
        assert res.beta_fom == pytest.approx(root, abs=1e-8)

    @pytest.mark.parametrize("gap", [-1e-9, 1e-9])
    def test_first_order_saddle_node(self, lq_three, gap):
        # on lq_three the first-order fit gap is dm + 0.8 beta (beta - 2):
        # its roots 1 +- sqrt(1 - dm / 0.8) meet at beta = 1 for dm = 0.8
        m = lq_three.with_delta_mu(0.8 + gap)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if gap > 0.0:
                with pytest.raises(InvariantViolation, match="first-order"):
                    first_order_comparison(m)
            else:
                res = first_order_comparison(m)
                assert res.beta_fom == pytest.approx(
                    1.0 + math.sqrt(1.0 - m.delta_mu / 0.8), abs=1e-9)
        notes = [str(w.message) for w in caught
                 if "first-order fit gap" in str(w.message)]
        assert notes == ["first-order fit gap comes within its certified error "
                         "of zero at 1 without crossing"] * (gap > 0.0)

    def test_frozen_assessment_variant_also_orders(self, lq_unit):
        res = first_order_comparison(lq_unit.with_delta_mu(0.05),
                                     frozen_assessment=True)
        assert res.gap_ours < res.gap_fom

    def test_warns_on_large_misspecification(self, lq_unit):
        with pytest.warns(UserWarning, match="small-misspecification"):
            first_order_comparison(lq_unit.with_delta_mu(0.3))


class TestGapDecomposition:
    def test_vanishes_at_truth(self, lq_unit):
        parts = gap_decomposition(lq_unit, 0.5, lq_unit.beta_star)
        assert parts.term_choice == parts.term_productivity == parts.total == 0.0

    def test_lq_algebra(self, lq_unit):
        parts = gap_decomposition(lq_unit, 0.5, 1.0)
        assert parts.term_choice == pytest.approx(-0.5)
        assert parts.term_productivity == pytest.approx(-1.0)
        assert parts.total == pytest.approx(-1.5)

    def test_additivity_to_machine_precision(self, rng):
        m = random_lq_instance(rng, 0.2)
        for _ in range(50):
            h = float(rng.uniform(0.05, 0.95))
            b = float(rng.uniform(m.beta_lo, m.beta_hi))
            parts = gap_decomposition(m, h, b)
            assert abs(parts.term_choice + parts.term_productivity
                       - parts.total) < 1e-12

    def test_choice_term_sign_below_truth(self, lq_three, rng):
        for _ in range(20):
            h = float(rng.uniform(0.1, 0.9))
            b = float(rng.uniform(lq_three.beta_lo, lq_three.beta_star - 1e-6))
            assert gap_decomposition(lq_three, h, b).term_choice < 0.0


class TestPerturbModel:
    def test_delta_mu_scales_misspecification(self, lq_unit):
        assert perturb_model(lq_unit, "delta_mu", 0.02).delta_mu == \
            pytest.approx(-0.51)

    def test_structural_parameters_rebuild(self, lq_unit):
        pert = perturb_model(lq_unit, "c", 0.01)
        assert pert.lq.c == pytest.approx(1.01)
        assert pert.lq.kappa == lq_unit.lq.kappa
