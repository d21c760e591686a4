import math

import numpy as np
import pytest

from berklab import (BestResponseEngine, GroupPopulation, LQParams,
                     build_lq, color_blind_equilibria,
                     color_sighted_equilibrium, eigen_check, find_equilibria,
                     monte_carlo_multigroup, sensitivity,
                     sherman_morrison_inverse, simulate, simulate_multigroup,
                     transform)
from berklab.learning import TruncNormalPrior

from helpers import three_equilibria_model


@pytest.fixture
def pop_small(lq_unit):
    return GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                           deltas=(0.05, -0.05), beta_stars=(2.0, 2.0))


@pytest.fixture
def pop_skewed(lq_unit):
    return GroupPopulation(model=lq_unit, alphas=(0.6, 0.4),
                           deltas=(0.05, -0.04), beta_stars=(2.0, 1.8))


class TestGroupPopulation:
    def test_average_misspecification(self, lq_unit):
        pop = GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                              deltas=(0.2, -0.1), beta_stars=(2.0, 2.0))
        assert pop.delta_bar == pytest.approx(0.05)

    def test_rejects_bad_weights(self, lq_unit):
        with pytest.raises(ValueError):
            GroupPopulation(model=lq_unit, alphas=(0.5, 0.6),
                            deltas=(0.1, -0.1), beta_stars=(2.0, 2.0))

    def test_rejects_truth_outside_support(self, lq_unit):
        with pytest.raises(ValueError):
            GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                            deltas=(0.1, -0.1), beta_stars=(2.0, 3.5))


class TestColorBlind:
    def test_offsetting_misspecifications_vanish(self, pop_small):
        pop = GroupPopulation(model=pop_small.model, alphas=(0.5, 0.5),
                              deltas=(0.1, -0.1), beta_stars=(2.0, 2.0))
        eqs = color_blind_equilibria(pop)
        assert len(eqs) == 1
        assert eqs.points[0].beta_hat == pytest.approx(2.0)

    def test_matches_single_agent_set(self):
        # delta_bar = +0.5 on the cascade support reproduces the
        # three-equilibria single-agent configuration
        base = three_equilibria_model()
        pop = GroupPopulation(model=base, alphas=(0.5, 0.5),
                              deltas=(0.7, 0.3), beta_stars=(2.0, 2.0))
        assert pop.delta_bar == pytest.approx(0.5)
        blind = color_blind_equilibria(pop)
        single = find_equilibria(base.with_delta_mu(0.5))
        assert len(blind) == len(single) == 3
        for a, b in zip(blind.points, single.points):
            assert a.beta_hat == pytest.approx(b.beta_hat, abs=1e-8)
            assert a.stability == b.stability

    def test_heterogeneous_truths_rejected(self, pop_skewed):
        with pytest.raises(ValueError, match="common"):
            color_blind_equilibria(pop_skewed)


class TestColorSighted:
    def test_no_misspecification_fixes_truth_immediately(self, lq_unit):
        pop = GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                              deltas=(0.0, 0.0), beta_stars=(2.0, 2.0))
        eq = color_sighted_equilibrium(pop)
        assert eq.beta_hat == pytest.approx([2.0, 2.0])
        assert eq.iterations <= 2

    def test_symmetric_small_misspecification(self, pop_small):
        eq = color_sighted_equilibrium(pop_small)
        # by symmetry the weighted mean of squared beliefs stays at 4,
        # so h = 0.8 and the beliefs solve x = 4 -+ delta/h exactly
        assert eq.h_hat == pytest.approx(0.8, abs=1e-9)
        assert eq.beta_hat[0] == pytest.approx(math.sqrt(4.0 - 0.0625),
                                               abs=1e-9)
        assert eq.beta_hat[1] == pytest.approx(math.sqrt(4.0 + 0.0625),
                                               abs=1e-9)
        assert eq.beta_hat[0] < 2.0 < eq.beta_hat[1]
        assert eq.residual < 1e-10
        assert eq.iterations < 100
        assert all(eq.sce_flags)
        assert all(abs(b - 2.0) <= 10 * 0.05 for b in eq.beta_hat)

    def test_brute_force_grid_oracle(self, pop_skewed):
        eq = color_sighted_equilibrium(pop_skewed)
        # oracle: exhaustive 2-d search for the joint best fit, refined
        model = pop_skewed.model
        eng = BestResponseEngine(model)

        def joint_residual(b):
            h = eng.assessment_multigroup(b, pop_skewed.alphas)
            out = np.empty(2)
            for j in range(2):
                val = pop_skewed.beta_stars[j] ** 2 \
                    - pop_skewed.deltas[j] / h
                out[j] = math.sqrt(max(val, model.beta_lo ** 2)) - b[j]
            return out

        b = np.array(pop_skewed.beta_stars, dtype=float)
        grid = np.linspace(-0.2, 0.2, 41)
        best, best_err = None, np.inf
        for d0 in grid:
            for d1 in grid:
                cand = b + np.array([d0, d1])
                err = float(np.max(np.abs(joint_residual(cand))))
                if err < best_err:
                    best, best_err = cand, err
        for _ in range(200):
            best = best + joint_residual(best)
        assert eq.beta_hat == pytest.approx(best, abs=1e-8)

    def test_domain_confinement(self, pop_skewed):
        eq = color_sighted_equilibrium(pop_skewed, keep_history=True)
        assert eq.in_domain
        for it in eq.history[1:]:
            assert np.all(it >= eq.domain_lo - 1e-12)
            assert np.all(it <= eq.domain_hi + 1e-12)

    def test_universal_assessment_floor(self, pop_small, rng):
        # h(beta) > lambda1 a_w (b_w*)^2 / (lambda2 a_w (b_w*)^2 + kappa c)
        model = pop_small.model
        eng = BestResponseEngine(model)
        floor = 0.5 * 4.0 / (0.5 * 4.0 + 1.0)
        eq = color_sighted_equilibrium(pop_small)
        assert eq.h_hat > floor
        for _ in range(1000):
            b = np.array([rng.uniform(model.beta_lo, 2.0),
                          rng.uniform(2.0, model.beta_hi)])
            assert eng.assessment_multigroup(b, pop_small.alphas) > floor

    def test_cascade_blind_but_bounded_sighted(self):
        # low support floor: blind assessment admits a corner cascade while
        # sighted beliefs stay within O(delta) of the truths
        params = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0)
        model = build_lq(params, 0.0, 2.0, 0.0, 0.03, 3.0)
        pop = GroupPopulation(model=model, alphas=(0.5, 0.5),
                              deltas=(0.06, -0.05), beta_stars=(2.0, 2.0))
        blind = color_blind_equilibria(pop)
        corner = [p for p in blind.points if p.beta_hat == model.beta_lo]
        assert corner and corner[0].stable and not corner[0].is_sce
        eq = color_sighted_equilibrium(pop)
        for j in range(2):
            assert abs(eq.beta_hat[j] - 2.0) <= 10 * abs(pop.deltas[j])


class TestShermanMorrison:
    def test_zero_update_is_minus_identity(self):
        inv = sherman_morrison_inverse(np.zeros(3), np.ones(3))
        assert inv == pytest.approx(-np.eye(3))

    def test_orthogonal_update(self):
        u = np.array([0.1, 0.0])
        v = np.array([0.0, 0.2])
        inv = sherman_morrison_inverse(u, v)
        target = -np.eye(2) + np.outer(u, v)
        assert target @ inv == pytest.approx(np.eye(2), abs=1e-14)

    def test_random_instances_match_dense_solve(self, rng):
        for _ in range(20):
            j = int(rng.integers(2, 6))
            u = rng.normal(size=j) * 0.3
            v = rng.normal(size=j) * 0.3
            if abs(v @ u) > 0.5:
                continue
            inv = sherman_morrison_inverse(u, v)
            dense = np.linalg.inv(-np.eye(j) + np.outer(u, v))
            assert inv == pytest.approx(dense, abs=1e-12)
            assert (-np.eye(j) + np.outer(u, v)) @ inv == pytest.approx(
                np.eye(j), abs=1e-12)

    def test_singular_direction_raises(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            sherman_morrison_inverse(u, u)

    def test_rank_one_spectral_norm_identity(self, rng):
        for _ in range(10):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            top = float(np.linalg.svd(np.outer(u, v), compute_uv=False)[0])
            assert top == pytest.approx(
                np.linalg.norm(u) * np.linalg.norm(v), abs=1e-12)


class TestSensitivity:
    def test_own_group_negative_cross_tiny(self, pop_small):
        eq = color_sighted_equilibrium(pop_small)
        grad = sensitivity(pop_small, eq, "delta_0")
        assert grad[0] < 0.0
        assert abs(grad[1]) < 1e-3

    def test_matches_central_differences(self, pop_skewed, lq_unit):
        eq = color_sighted_equilibrium(pop_skewed)
        step = 1e-5
        for param in ("delta_0", "delta_1"):
            j = int(param[-1])
            grad = sensitivity(pop_skewed, eq, param)

            def at(dj):
                deltas = list(pop_skewed.deltas)
                deltas[j] = dj
                pop = GroupPopulation(model=lq_unit,
                                      alphas=pop_skewed.alphas,
                                      deltas=tuple(deltas),
                                      beta_stars=pop_skewed.beta_stars)
                return color_sighted_equilibrium(pop).beta_hat

            fd = (at(pop_skewed.deltas[j] + step)
                  - at(pop_skewed.deltas[j] - step)) / (2 * step)
            assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_assessment_lever_signs_follow_misspecification(self, pop_small):
        eq = color_sighted_equilibrium(pop_small)
        # raw kappa up lowers assessment, so beliefs move by -sign(delta_j)
        grad = sensitivity(pop_small, eq, "kappa")
        assert grad[0] < 0.0 < grad[1]
        grad = sensitivity(pop_small, eq, "lambda_e")
        assert grad[0] > 0.0 > grad[1]

    def test_zero_misspecification_kills_lever_response(self, lq_unit):
        pop = GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                              deltas=(0.0, 0.0), beta_stars=(2.0, 2.0))
        eq = color_sighted_equilibrium(pop)
        assert sensitivity(pop, eq, "kappa") == pytest.approx([0.0, 0.0],
                                                              abs=1e-12)


class TestEigenCheck:
    def test_zero_factors_give_minus_one(self, lq_unit):
        pop = GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                              deltas=(0.0, 0.0), beta_stars=(2.0, 2.0))
        eq = color_sighted_equilibrium(pop)
        rep = eigen_check(eq)
        assert rep.eigenvalues == pytest.approx([-1.0, -1.0])
        assert rep.bound == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_shift_matches_dense_eigensolve(self, rng):
        # random J = 3 rank-one instance, dense solve as the oracle
        g = rng.normal(size=3) * 0.1
        gh = rng.normal(size=3) * 0.1
        dense = np.linalg.eigvals(-np.eye(3) + np.outer(g, gh)).real
        shifted = sorted(dense)[-1] if (gh @ g) > 0 else sorted(dense)[0]
        assert shifted == pytest.approx(-1.0 + gh @ g, abs=1e-12)

    def test_small_misspecification_is_a_sink(self, pop_skewed):
        eq = color_sighted_equilibrium(pop_skewed)
        rep = eigen_check(eq)
        assert rep.all_negative
        assert rep.bound_holds
        assert np.max(np.abs(rep.eigenvalues + 1.0)) <= rep.bound + 1e-12


class TestLearningMultigroup:
    @pytest.mark.filterwarnings("ignore:misspecifications are large")
    def test_single_group_matches_single_agent_bitwise(self, lq_three):
        pop = GroupPopulation(model=lq_three, alphas=(1.0,),
                              deltas=(lq_three.delta_mu,),
                              beta_stars=(lq_three.beta_star,),
                              mu_stars=(lq_three.mu_star,))
        single = simulate(lq_three, horizon=400, seed=77, stride=1)
        multi = simulate_multigroup(pop, horizon=400, seed=77, stride=1)
        assert np.array_equal(single.m, multi.m[:, 0])
        assert np.array_equal(single.xi, multi.xi[:, 0])
        assert np.array_equal(single.h, multi.h)
        assert np.array_equal(single.x, multi.x[:, 0])

    def test_zero_noise_stationary_at_truth(self, pop_small, lq_unit):
        pop = GroupPopulation(model=lq_unit, alphas=(0.5, 0.5),
                              deltas=(0.0, 0.0), beta_stars=(2.0, 2.0))
        traj = simulate_multigroup(pop, horizon=40, seed=0, stride=1,
                                   zero_noise=True)
        assert np.all(np.abs(traj.m - 4.0) < 1e-12)

    def test_shared_assessment_path_in_bounds(self, pop_small):
        tm = transform(pop_small.model)
        traj = simulate_multigroup(pop_small, horizon=300, seed=4, stride=1)
        assert np.all(traj.h >= tm.h_lo - 1e-12)
        assert np.all(traj.h <= tm.h_hi + 1e-12)

    def test_concentrated_prior_reaches_equilibrium(self, pop_small):
        tm = transform(pop_small.model)
        eq = color_sighted_equilibrium(pop_small)
        priors = [TruncNormalPrior(mean=float(tm.g1(b)), sd=0.025)
                  for b in eq.beta_hat]
        rep = monte_carlo_multigroup(pop_small, runs=20, horizon=20_000,
                                     seed=13, prior=priors)
        assert rep.fraction_within >= 0.9

    def test_positive_probability_convergence_at_scale(self, pop_small):
        # the joint-belief attractor target: concentrated priors keep at
        # least 90% of long runs within 0.05 of the equilibrium vector
        tm = transform(pop_small.model)
        eq = color_sighted_equilibrium(pop_small)
        priors = [TruncNormalPrior(mean=float(tm.g1(b)), sd=0.025)
                  for b in eq.beta_hat]
        rep = monte_carlo_multigroup(pop_small, runs=100, horizon=100_000,
                                     seed=19, prior=priors, radius=0.05)
        assert rep.fraction_within >= 0.9


def test_sensitivity_to_zero_valued_lq_parameter():
    # the shipped two-group config has delta = 0, at the edge of [0, 1]
    from pathlib import Path

    from berklab.config import load_config

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                      / "two_groups.ini")
    pop = cfg.population()
    assert pop.model.lq.delta == 0.0
    eq = color_sighted_equilibrium(pop)
    grad = sensitivity(pop, eq, "delta")
    assert np.all(np.isfinite(grad))

    step = 1e-5
    lq = LQParams(c=cfg.lq.c, kappa=cfg.lq.kappa, lambda_e=cfg.lq.lambda_e,
                  lambda_a=cfg.lq.lambda_a, delta=step)
    model = build_lq(lq, cfg.mu_star, cfg.beta_star, cfg.mu_hat,
                     cfg.beta_lo, cfg.beta_hi)
    shifted = GroupPopulation(model=model, alphas=pop.alphas,
                              deltas=pop.deltas, beta_stars=pop.beta_stars)
    fd = (color_sighted_equilibrium(shifted).beta_hat - eq.beta_hat) / step
    np.testing.assert_allclose(grad, fd, rtol=1e-3)


@pytest.mark.parametrize("lever", ["c", "kappa", "lambda_e", "delta"])
def test_lever_sensitivity_matches_central_differences(lever):
    # delta = 0.5 leaves room for a central difference in every lever; kappa
    # = 5 keeps assessment interior on the support (lambda1 = 1.5)
    import dataclasses

    from berklab.analysis import _with_lq_value

    lq = LQParams(c=1.0, kappa=5.0, lambda_e=1.0, lambda_a=1.0, delta=0.5)
    pop = GroupPopulation(model=build_lq(lq, 0.0, 2.0, 0.0, 0.5, 3.0),
                          alphas=(0.6, 0.4), deltas=(0.05, -0.04),
                          beta_stars=(2.0, 1.8))
    grad = sensitivity(pop, color_sighted_equilibrium(pop), lever)
    raw, step = getattr(lq, lever), 1e-5

    def at(value):
        model = _with_lq_value(pop.model, lever, value)
        return color_sighted_equilibrium(
            dataclasses.replace(pop, model=model)).beta_hat

    fd = (at(raw + step) - at(raw - step)) / (2 * step)
    assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)
