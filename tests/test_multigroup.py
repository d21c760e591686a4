import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berklab import (BestResponseEngine, GroupPopulation, LQParams,
                     NumericalError, build_lq, color_blind_equilibria, color_sighted_equilibria,
                     color_sighted_equilibrium, eigen_check, find_equilibria,
                     monte_carlo_convergence, monte_carlo_multigroup,
                     sensitivity,
                     sherman_morrison_inverse, simulate, simulate_multigroup,
                     transform)
from berklab.learning import Trajectory, TruncNormalPrior

from berklab.multigroup import DENSE_LIMIT

from helpers import (lq_assessment, lq_joint_best_fit, lq_sighted_oracle,
                     random_lq_instance, three_equilibria_model,
                     undamped_sighted_iteration)


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

    @pytest.mark.parametrize("field,values", [
        ("alphas", (math.nan, 0.5)), ("alphas", (math.inf, 0.5)),
        ("deltas", (math.inf, -0.05)), ("deltas", (math.nan, -0.05)),
        ("mu_stars", (math.nan, 0.0)), ("mu_stars", (0.0, -math.inf))])
    def test_rejects_nonfinite_values(self, pop_small, field, values):
        with pytest.raises(ValueError, match="weights|finite"):
            dataclasses.replace(pop_small, **{field: values})

    def test_assessment_rejects_nan_weights_and_beliefs(self, lq_unit):
        eng = BestResponseEngine(lq_unit)
        with pytest.raises(ValueError, match="weights"):
            eng.assessment_multigroup([2.0, 2.0], [math.nan, 0.5])
        with pytest.raises(ValueError, match="productivities"):
            eng.assessment_multigroup([math.nan, 2.0], [0.5, 0.5])

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
        (eq,) = color_sighted_equilibria(pop)
        assert eq.beta_hat == pytest.approx([2.0, 2.0])
        assert eq.residual == 0.0
        assert np.array_equal(color_sighted_equilibrium(pop).beta_hat, eq.beta_hat)

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
        assert len(color_sighted_equilibria(pop_small)) == 1
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
        # every member, and every iterate of the plain joint map from the
        # truths, fits below the truth where delta > 0 and above it where
        # delta < 0
        eqs = color_sighted_equilibria(pop_skewed)
        assert all(eq.in_domain for eq in eqs)
        eq = color_sighted_equilibrium(pop_skewed)
        _, path = undamped_sighted_iteration(pop_skewed.model, pop_skewed.alphas,
                                             pop_skewed.beta_stars,
                                             pop_skewed.deltas)
        for it in path[1:]:
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

    def test_near_singular_direction_raises(self):
        # one singularity tolerance, the one sensitivity enforces: 1e-12
        # from singular is singular
        u = np.array([1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            sherman_morrison_inverse(u, np.array([1.0 - 1e-12, 0.0]))

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

    @pytest.mark.parametrize("parameter", ["delta_0", "kappa"])
    def test_near_singular_member_is_numerical(self, pop_small, parameter):
        # grad_h . g within 1e-11 of one: the rank-one inverse refuses it
        eq = dataclasses.replace(color_sighted_equilibrium(pop_small),
                                 g=np.array([0.5, 0.5]),
                                 grad_h=np.array([1.0, 1.0 - 2e-11]))
        with pytest.raises(NumericalError, match="near singular"):
            sensitivity(pop_small, eq, parameter)


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
    @pytest.mark.filterwarnings("ignore:3 color-sighted equilibria")
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
        assert len(rep.counts) == 1 and rep.frequencies[0] >= 0.9

    def test_positive_probability_convergence_at_scale(self, pop_small):
        # the joint-belief attractor target: concentrated priors keep at
        # least 90% of long runs within 0.05 of the equilibrium vector
        tm = transform(pop_small.model)
        eq = color_sighted_equilibrium(pop_small)
        priors = [TruncNormalPrior(mean=float(tm.g1(b)), sd=0.025)
                  for b in eq.beta_hat]
        rep = monte_carlo_multigroup(pop_small, runs=100, horizon=100_000,
                                     seed=19, prior=priors, radius=0.05)
        assert len(rep.counts) == 1 and rep.frequencies[0] >= 0.9


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


def test_eigen_check_past_the_dense_limit_matches_a_dense_solve(lq_unit):
    j = 40
    assert j > DENSE_LIMIT
    rng = np.random.default_rng(40)
    weights = rng.uniform(0.5, 1.5, j)
    pop = GroupPopulation(model=lq_unit, alphas=tuple(weights / weights.sum()),
                          deltas=tuple(rng.uniform(-0.05, 0.05, j)),
                          beta_stars=tuple(rng.uniform(1.8, 2.2, j)))
    eq = color_sighted_equilibrium(pop)
    rep = eigen_check(eq)
    dense = np.linalg.eigvals(-np.eye(j) + np.outer(eq.g, eq.grad_h)).real
    assert np.max(np.abs(rep.eigenvalues - np.sort(dense))) <= 1e-12
    assert rep.bound_holds and rep.all_negative


def _pinned_population():
    # group 0's best fit is pinned at beta_lo = 0.05 at the fixed point
    params = LQParams(c=1.9873238006993108, kappa=1.7338984047110508,
                      lambda_e=0.6813349397087096, lambda_a=0.49904277804019365)
    truth = 2.0822266113749026
    model = build_lq(params, mu_star=0.0, beta_star=truth, mu_hat=0.0,
                     beta_lo=0.05, beta_hi=4.0)
    alpha = 0.6267150618171679
    return GroupPopulation(model=model, alphas=(alpha, 1.0 - alpha),
                           deltas=(1.4078388508592166, -0.6620551499440521),
                           beta_stars=(truth, truth))


def test_pinned_group_has_no_belief_map_factor():
    # the clamped map is locally constant in a pinned group's belief: the
    # spectrum is that of a central difference of the joint map, and the
    # sensitivities are those of re-solving at shifted misspecifications
    pop = _pinned_population()
    model = pop.model
    eq = color_sighted_equilibrium(pop)
    assert eq.beta_hat[0] == model.beta_lo and eq.g[0] == 0.0
    step = 1e-6

    def joint(betas):
        return lq_joint_best_fit(model, betas, pop.alphas, pop.beta_stars, pop.deltas)

    jac = np.empty((2, 2))
    for k in range(2):
        up, down = eq.beta_hat.copy(), eq.beta_hat.copy()
        up[k] += step
        down[k] -= step
        jac[:, k] = (joint(up) - joint(down)) / (2.0 * step)
    oracle = np.sort(np.linalg.eigvals(jac - np.eye(2)).real)
    assert oracle[0] == pytest.approx(-1.306, abs=1e-3)
    assert np.max(np.abs(eq.eigenvalues - oracle)) <= 1e-6
    for j in range(2):
        shifted = []
        for sign in (1.0, -1.0):
            deltas = list(pop.deltas)
            deltas[j] += sign * step
            shifted.append(color_sighted_equilibrium(
                dataclasses.replace(pop, deltas=tuple(deltas))).beta_hat)
        want = (shifted[0] - shifted[1]) / (2.0 * step)
        got = sensitivity(pop, eq, f"delta_{j}")
        assert np.max(np.abs(got - want)) <= 1e-6
    assert sensitivity(pop, eq, "delta_1") == pytest.approx([0.0, -0.690], abs=1e-3)


def test_damped_fallback_reaches_the_joint_best_fit():
    # the only member's contraction radius passes one, so plain iteration
    # need not settle there (draw 1005 of a seeded search over two-group LQ
    # instances with misspecifications of opposite signs, beta_lo = 0.05)
    params = LQParams(c=1.3427303009142395, kappa=1.5604475392903483,
                      lambda_e=0.6204657435922167, lambda_a=0.952316703590187)
    truth = 1.4367870742062918
    model = build_lq(params, mu_star=0.0, beta_star=truth, mu_hat=0.0,
                     beta_lo=0.05, beta_hi=4.0)
    alpha = 0.5978337075434769
    pop = GroupPopulation(model=model, alphas=(alpha, 1.0 - alpha),
                          deltas=(0.5637588320163996, -1.4439070867161883),
                          beta_stars=(truth, truth))
    (eq,) = color_sighted_equilibria(pop)
    assert eq.h_hat == pytest.approx(0.372764386608, abs=1e-12)
    assert eigen_check(eq).bound >= 1.0 and eq.stable
    assert np.array_equal(color_sighted_equilibrium(pop).beta_hat, eq.beta_hat)
    fit = lq_joint_best_fit(model, eq.beta_hat, pop.alphas, pop.beta_stars,
                            pop.deltas)
    assert np.max(np.abs(fit - eq.beta_hat)) <= 1e-10


def _split(model, alphas):
    """``model`` as len(alphas) identical groups."""
    j = len(alphas)
    return GroupPopulation(model=model, alphas=tuple(alphas),
                           deltas=(model.delta_mu,) * j,
                           beta_stars=(model.beta_star,) * j,
                           mu_stars=(model.mu_star,) * j)


def test_identical_groups_give_every_single_group_equilibrium():
    # the three-equilibria instance split in two: iteration from the truths
    # reaches only the top equilibrium; the enumerator returns all three
    model = three_equilibria_model()
    pop = _split(model, (0.5, 0.5))
    eqs = color_sighted_equilibria(pop)
    single = find_equilibria(model)
    want = (1.8305138785, 0.3862886753, 0.3)
    assert len(eqs) == len(single) == 3
    for eq, pt, b in zip(eqs, single.points, want):
        assert eq.beta_hat == pytest.approx([b, b], abs=1e-9)
        assert eq.beta_hat == pytest.approx([pt.beta_hat] * 2, abs=1e-9)
        assert eq.stable == pt.stable
        assert eq.residual < 1e-10
    with pytest.warns(UserWarning, match="3 color-sighted equilibria"):
        eq = color_sighted_equilibrium(pop)
    assert eq.beta_hat == pytest.approx([1.8305138785] * 2, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), delta_mu=st.floats(-1.5, 1.5),
       weights=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3))
def test_identical_groups_match_one_group_property(seed, delta_mu, weights):
    model = random_lq_instance(np.random.default_rng(seed), delta_mu)
    single = find_equilibria(model)
    beliefs = np.array(single.beliefs)
    # a saddle-node pair closer than the enumerator can resolve is reported
    # as near-tangent by both, not compared here
    assume(not single.warnings and np.all(np.abs(np.diff(beliefs)) > 1e-3))
    alphas = np.array(weights) / sum(weights)
    eqs = color_sighted_equilibria(_split(model, alphas))
    assert len(eqs) == len(single)
    for eq, pt in zip(eqs, single.points):
        assert np.max(np.abs(eq.beta_hat - pt.beta_hat)) <= 1e-8
        assert eq.stable == pt.stable


def _random_population(rng):
    """Two or three LQ groups, low support floor, misspecifications of
    either sign: a family with pinned groups and several equilibria."""
    params = LQParams(c=float(rng.uniform(0.5, 2.0)),
                      kappa=float(rng.uniform(0.5, 2.0)),
                      lambda_e=float(rng.uniform(0.5, 1.5)),
                      lambda_a=float(rng.uniform(0.3, 1.0)))
    j = int(rng.integers(2, 4))
    truths = rng.uniform(1.0, 3.0, j)
    model = build_lq(params, 0.0, float(truths[0]), 0.0, 0.05, 4.0)
    weights = rng.uniform(0.2, 1.0, j)
    return GroupPopulation(model=model, alphas=tuple(weights / weights.sum()),
                           deltas=tuple(rng.uniform(-1.5, 1.5, j)),
                           beta_stars=tuple(truths))


def test_random_populations_against_oracle_and_iteration():
    # every member: in the quadratic oracle when all its fits are free, an
    # enumerator slope F'(h) of the sign of -1 + grad_h . g; the member
    # color_sighted_equilibrium selects is where plain iteration settles
    rng = np.random.default_rng(2024)
    valid = several = 0
    while valid < 60:
        pop = _random_population(rng)
        if lq_assessment(pop.model.lq, pop.model.beta_hi) >= 1.0:
            continue  # assessment leaves (0, 1) on the support
        valid += 1
        model = pop.model
        eqs = color_sighted_equilibria(pop)
        several += len(eqs) > 1
        oracle = lq_sighted_oracle(model, pop.alphas, pop.beta_stars, pop.deltas)
        free = [eq.beta_hat for eq in eqs if np.all(
            (eq.beta_hat > model.beta_lo) & (eq.beta_hat < model.beta_hi))]
        assert len(free) == len(oracle)
        for b in oracle:
            assert min(np.max(np.abs(f - b)) for f in free) <= 1e-8
        for eq in eqs:
            assert eq.residual < 1e-10
            shift = -1.0 + float(eq.grad_h @ eq.g)
            assert abs(shift) < 1e-6 or np.sign(eq.slope) == np.sign(shift)
        limit, _ = undamped_sighted_iteration(model, pop.alphas, pop.beta_stars,
                                              pop.deltas)
        if limit is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chosen = color_sighted_equilibrium(pop)
            assert np.max(np.abs(chosen.beta_hat - limit)) <= 1e-8
    assert several >= 3


def test_sighted_equilibria_come_from_the_certified_enumerator():
    # one fixed-point scanner: multigroup keeps no iteration of its own to
    # a fixed point, and its enumeration reaches certified_roots
    import ast
    import inspect

    import berklab.multigroup

    tree = ast.parse(inspect.getsource(berklab.multigroup))
    names = {getattr(n, "id", None) or getattr(n, "attr", None)
             or getattr(n, "arg", None) or getattr(n, "name", None)
             for n in ast.walk(tree)}
    assert not {"MAX_ITER", "FIXED_POINT_TOL", "keep_history"} & names

    def called(node):
        return {getattr(c.func, "attr", None) or getattr(c.func, "id", None)
                for c in ast.walk(node) if isinstance(c, ast.Call)}

    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))]
    assert not [n for n in loops if isinstance(n, ast.While)]
    assert not [n.lineno for n in loops
                if {"best_fit", "fit"} & called(n)
                and "assessment_multigroup" in called(n)]

    defs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    seen, todo = set(), ["color_sighted_equilibria"]
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo += called(defs[name])
    assert "certified_roots" in set().union(*(called(defs[n]) for n in seen))


class TestClassifiedAgainstEveryMember:
    """``monte_carlo_multigroup`` is the J-group twin of
    ``monte_carlo_convergence``: runs are counted at the nearest member of
    ``color_sighted_equilibria``, not at one selected member."""

    def test_one_group_counts_match_the_single_agent_driver(self, lq_three):
        single = monte_carlo_convergence(lq_three, runs=200, horizon=2000,
                                         seed=11)
        multi = monte_carlo_multigroup(_split(lq_three, (1.0,)), runs=200,
                                       horizon=2000, seed=11)
        # one Trajectory type, classified run by run as simulate classifies
        one, each = single.trajectory, multi.trajectory
        assert isinstance(each, Trajectory)
        assert (each.m.shape, each.terminal.xi.shape) == ((one.m.size, 1), (1,))
        assert each.batch_nearest.tobytes() == one.batch_nearest.tobytes()
        assert each.batch_distance.tobytes() == one.batch_distance.tobytes()
        assert (multi.counts, multi.unclassified) == ((174, 0, 0), 26)
        assert multi.counts == single.counts
        assert multi.unclassified == single.unclassified
        assert (multi.sink_fraction, multi.saddle_hits) == (
            single.sink_fraction, single.saddle_hits)
        assert [e.stable for e in multi.steady_states] == [
            s.is_sink for s in single.steady_states]

    @pytest.mark.parametrize("with_prior", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), delta_mu=st.floats(-1.5, 1.5),
           runs=st.integers(1, 12), horizon=st.integers(1, 400),
           place=st.floats(0.0, 1.0), sd=st.floats(0.01, 0.5))
    def test_one_group_counts_match_property(self, with_prior, seed, delta_mu,
                                             runs, horizon, place, sd):
        model = random_lq_instance(np.random.default_rng(seed), delta_mu)
        single_set = find_equilibria(model)
        assume(not single_set.warnings
               and np.all(np.abs(np.diff(single_set.beliefs)) > 1e-3))
        tm = transform(model)
        prior = (TruncNormalPrior(mean=tm.m_lo + place * (tm.m_hi - tm.m_lo),
                                  sd=sd) if with_prior else None)
        single = monte_carlo_convergence(tm, runs=runs, horizon=horizon,
                                         seed=seed, prior=prior)
        multi = monte_carlo_multigroup(_split(model, (1.0,)), runs=runs,
                                       horizon=horizon, seed=seed,
                                       prior=[prior])
        assert multi.counts == single.counts
        assert multi.unclassified == single.unclassified

    @pytest.mark.parametrize("sink", [0, 2])
    def test_identical_groups_keep_each_sink(self, lq_three, sink):
        # the split three-equilibria instance: a concentrated prior at the
        # corner sink keeps its runs there, which counting only against the
        # member iteration selects (the top sink) called unconverged
        pop = _split(lq_three, (0.5, 0.5))
        tm = transform(lq_three)
        members = color_sighted_equilibria(pop)
        assert [e.stable for e in members] == [True, False, True]
        prior = [TruncNormalPrior(mean=float(tm.g1(b)), sd=0.01)
                 for b in members[sink].beta_hat]
        rep = monte_carlo_multigroup(pop, runs=50, horizon=20_000, seed=3,
                                     prior=prior)
        assert rep.counts[sink] >= 0.95 * rep.runs
        assert rep.saddle_hits == 0
        assert rep.trajectory.nearest_index == sink


def test_multigroup_classifies_through_learning():
    # the nearest-target and count rules are written once, in learning.py
    import ast
    import inspect

    import berklab.multigroup

    tree = ast.parse(inspect.getsource(berklab.multigroup))
    called = {getattr(c.func, "attr", None) or getattr(c.func, "id", None)
              for c in ast.walk(tree) if isinstance(c, ast.Call)}
    assert not {"distances", "argmin", "nearest_target"} & called
    assert {"_trajectory", "_convergence_report"} <= called
