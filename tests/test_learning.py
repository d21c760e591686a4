import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from berklab import (BestResponseEngine, Factorization, LearningState,
                     NumericalError, TruncNormalPrior, build_lq,
                     build_power, evaluator_step, find_equilibria,
                     fisher_information, limiting_ode,
                     monte_carlo_convergence, phase_field,
                     posterior_exact_density, posterior_params, simulate,
                     transform)
from berklab.learning import noise_stream
from berklab.primitives import LQParams
from berklab.truncnorm import trunc_pdf

from helpers import (lq_ode_eigenvalue, power_ode_eigenvalue,
                     random_lq_instance, three_equilibria_model,
                     unique_equilibrium_model, zero_noise)


@pytest.fixture(scope="module")
def tm3():
    return transform(three_equilibria_model())


@pytest.fixture(scope="module")
def tm_neg():
    return transform(unique_equilibrium_model(-0.5))


class TestTransform:
    def test_scalar_only_factorization_gives_the_array_bits(self, tm3):
        # g2 returns a float for any input and math.sqrt refuses arrays:
        # transform must apply both entry by entry
        model = tm3.model
        c = model.lq.c
        fac = Factorization(g1=lambda b: b * b,
                            g2=lambda h: float(np.mean(h)) / c,
                            g1_inv=math.sqrt)
        scalar = transform(dataclasses.replace(model, factorization=fac))
        assert scalar.g1_inv is not math.sqrt and scalar.g2 is not fac.g2
        assert scalar.g1 is fac.g1

        def bits(*arrays):
            return [np.asarray(a).tobytes() for a in arrays]

        a = simulate(tm3, horizon=300, seed=5, runs=3, stride=1)
        b = simulate(scalar, horizon=300, seed=5, runs=3, stride=1)
        assert (bits(a.m, a.xi, a.h, a.x, a.batch_m)
                == bits(b.m, b.xi, b.h, b.x, b.batch_m))
        a = monte_carlo_convergence(tm3, runs=4, horizon=500, seed=2)
        b = monte_carlo_convergence(scalar, runs=4, horizon=500, seed=2)
        assert (a.counts, a.unclassified) == (b.counts, b.unclassified)
        assert bits(a.trajectory.batch_m) == bits(b.trajectory.batch_m)
        a, b = phase_field(tm3, grid=15), phase_field(scalar, grid=15)
        assert (bits(a.m, a.xi, a.f1, a.f2, a.nullcline)
                == bits(b.m, b.xi, b.f1, b.f2, b.nullcline))
        history = [(0.2 + 0.02 * k, 0.1 * k - 0.5) for k in range(20)]
        assert (posterior_params(tm3, history)
                == posterior_params(scalar, history))

    def test_lq_closed_factorization(self, tm3):
        assert tm3.g1(2.0) == pytest.approx(4.0)
        assert tm3.g2(0.5) == pytest.approx(0.5)
        assert tm3.recon_error < 1e-10
        assert (tm3.m_lo, tm3.m_hi) == pytest.approx((0.09, 9.0))

    def test_scaled_cost_changes_g2(self):
        m = build_lq(LQParams(c=2.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0),
                     0.0, 2.0, -0.1, 0.5, 3.0)
        tm = transform(m)
        assert tm.g2(1.0) == pytest.approx(0.5)

    def test_power_model_certifies(self):
        m = build_power(4.0, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)
        assert transform(m).recon_error < 1e-10

    def test_wrong_factorization_refused(self, lq_unit):
        # the second product is off by 0.05 h, an additive term in h alone,
        # for which learning has no slot
        for fac in (Factorization(g1=lambda b: b, g2=lambda h: h,
                                  g1_inv=lambda x: x),
                    Factorization(g1=lambda b: b * b + 0.05, g2=lambda h: h,
                                  g1_inv=lambda x: np.sqrt(x - 0.05))):
            bad = dataclasses.replace(lq_unit, factorization=fac)
            with pytest.raises(NumericalError, match="reconstruction"):
                transform(bad)

    def test_missing_factorization_refused(self, lq_unit):
        bare = dataclasses.replace(lq_unit, factorization=None)
        with pytest.raises(NumericalError, match="factorization"):
            transform(bare)


class TestFisherInformation:
    def test_lq_values(self, tm3):
        assert fisher_information(tm3, 0.5) == pytest.approx(0.125)

    def test_scaled_cost(self):
        m = build_lq(LQParams(c=2.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0),
                     0.0, 2.0, -0.1, 0.5, 3.0)
        assert fisher_information(transform(m), 1.0) == pytest.approx(0.25)

    def test_vanishes_with_assessment(self, tm3):
        assert fisher_information(tm3, 1e-9) < 1e-18


class TestExactPosterior:
    def test_empty_history_is_uniform(self, tm3):
        val = posterior_exact_density(tm3, [], 4.0)
        assert val == pytest.approx(1.0 / (9.0 - 0.09))

    def test_single_observation_symmetry(self, tm3):
        # one draw puts a Gaussian kernel at the implied mode; density is
        # symmetric around it when the mode is the support midpoint
        mid = 0.5 * (tm3.m_lo + tm3.m_hi)
        h = 0.5
        x = tm3.model.mu_hat + mid * tm3.g2(h)
        for off in (0.3, 1.1, 2.0):
            lo_val = posterior_exact_density(tm3, [(h, x)], mid - off)
            hi_val = posterior_exact_density(tm3, [(h, x)], mid + off)
            assert lo_val == pytest.approx(hi_val, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_truncated_normal_form(self, tm3, seed):
        rng = np.random.default_rng(seed)
        eng = BestResponseEngine(tm3.model)
        hs = rng.uniform(tm3.h_lo, tm3.h_hi, 50)
        xs = np.array([eng.effective_effort(h, 2.0)
                       + rng.normal(0.0, 1.0 / math.sqrt(h)) for h in hs])
        hist = list(zip(hs, xs))
        mode, var = posterior_params(tm3, hist)
        pts = np.linspace(tm3.m_lo, tm3.m_hi, 1000)
        quad = posterior_exact_density(tm3, hist, pts)
        closed = trunc_pdf(pts, mode, math.sqrt(var), tm3.m_lo, tm3.m_hi)
        assert float(np.max(np.abs(quad - closed))) < 1e-10


class TestEvaluatorStep:
    def test_degenerate_posterior_recovers_assessment_map(self, tm3):
        eng = BestResponseEngine(tm3.model)
        for beta in (0.8, 2.0, 2.6):
            state = LearningState(n=10 ** 9, m=float(tm3.g1(beta)), xi=0.3)
            assert evaluator_step(tm3, state) == pytest.approx(
                eng.assessment(beta), abs=1e-6)

    def test_first_period_is_intermediate(self, tm3):
        h = evaluator_step(tm3, LearningState(n=0, m=0.0, xi=0.0))
        assert tm3.h_lo < h < tm3.h_hi

    def test_near_degenerate_example(self, lq_unit):
        tm = transform(lq_unit)
        # truncated normal at m = 4 (beta = 2) with variance 0.01
        state = LearningState(n=100, m=4.0, xi=1.0)
        assert evaluator_step(tm, state) == pytest.approx(0.8, abs=0.01)

    def test_prior_used_when_no_data(self, tm3):
        prior = TruncNormalPrior(mean=0.25, sd=0.05)
        h = evaluator_step(tm3, LearningState(n=0, m=0.0, xi=0.0), prior)
        target = BestResponseEngine(tm3.model).assessment(math.sqrt(0.25))
        assert h == pytest.approx(target, abs=0.02)

    @pytest.mark.parametrize("mean,sd", [(0.25, 1e-170), (0.25, 1e-160),
                                         (0.25, math.inf), (0.25, 0.0),
                                         (math.nan, 0.05)])
    def test_prior_needs_finite_positive_precision(self, mean, sd):
        # 1e-170 squared underflows to zero, 1e-160 squared to a subnormal
        # whose reciprocal overflows, and an infinite sd has zero precision
        with pytest.raises(ValueError):
            TruncNormalPrior(mean=mean, sd=sd)


class TestNoiseStreams:
    def test_reproducible_and_order_independent(self):
        a = noise_stream(7, 3).standard_normal(16)
        b = noise_stream(7, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_across_runs_and_groups(self):
        base = noise_stream(7, 3).standard_normal(16)
        assert not np.array_equal(base, noise_stream(7, 4).standard_normal(16))
        assert not np.array_equal(base,
                                  noise_stream(7, 3, 1).standard_normal(16))
        assert not np.array_equal(base, noise_stream(8, 3).standard_normal(16))


class TestSimulate:
    def test_xi_recursion_identity(self, tm3):
        # xi_{n+1} = xi_n + (I_{n+1} - xi_n) / (n+1), checked on records
        traj = simulate(tm3, horizon=64, seed=11, stride=1)
        info = np.array([fisher_information(tm3, h) for h in traj.h])
        xi = 0.0
        for k, n in enumerate(traj.periods):
            xi = xi + (info[k] - xi) / n
            assert traj.xi[k] == pytest.approx(xi, abs=1e-12)

    def test_xi_update_arithmetic(self):
        # one step of the scaled-precision recursion
        assert 2.0 + (3.0 - 2.0) / 10.0 == pytest.approx(2.1)

    def test_zero_noise_without_misspecification_is_stationary(self, lq_unit):
        tm = transform(lq_unit.with_delta_mu(0.0))
        with zero_noise():
            traj = simulate(tm, horizon=50, seed=0, stride=1)
        assert np.all(np.abs(traj.m - tm.g1(2.0)) < 1e-12)

    def test_batch_and_incremental_forms_agree(self, tm3):
        traj = simulate(tm3, horizon=200, seed=5, stride=1)
        hist = []
        for k in range(len(traj.periods)):
            hist.append((float(traj.h[k]), float(traj.x[k])))
            mode, var = posterior_params(tm3, hist)
            assert traj.m[k] == pytest.approx(mode, abs=1e-10)
            assert traj.xi[k] == pytest.approx(
                1.0 / (var * traj.periods[k]), abs=1e-10)

    def test_state_bounds_invariants(self, tm3):
        i_lo = fisher_information(tm3, tm3.h_lo)
        i_hi = fisher_information(tm3, tm3.h_hi)
        for seed in range(5):
            traj = simulate(tm3, horizon=300, seed=seed, stride=1)
            assert np.all(traj.h >= tm3.h_lo - 1e-12)
            assert np.all(traj.h <= tm3.h_hi + 1e-12)
            assert np.all(traj.xi >= i_lo - 1e-12)
            assert np.all(traj.xi <= i_hi + 1e-12)

    def test_terminal_classification(self, tm3):
        traj = simulate(tm3, horizon=20_000, seed=42)
        assert traj.steady_states[traj.nearest_index].kind == "sink"
        assert traj.nearest_distance < 0.05

    def test_rejects_zero_horizon(self, tm3):
        with pytest.raises(ValueError):
            simulate(tm3, horizon=0, seed=0)


class TestLimitingOde:
    def test_field_vanishes_at_steady_states(self, tm3):
        ode = limiting_ode(tm3)
        for ss in ode.steady_states:
            assert np.linalg.norm(ode.field((ss.m, ss.xi))) < 1e-8

    def test_documented_steady_states(self, tm3):
        ode = limiting_ode(tm3)
        ms = [ss.m for ss in ode.steady_states]
        kinds = [ss.kind for ss in ode.steady_states]
        x_hi = (3.5 + math.sqrt(3.5 ** 2 - 2.0)) / 2.0
        x_lo = (3.5 - math.sqrt(3.5 ** 2 - 2.0)) / 2.0
        h_corner = 0.09 / 1.09
        corner_m = 4.0 - 0.5 / h_corner
        assert ms == pytest.approx([x_hi, x_lo, corner_m], abs=1e-6)
        assert kinds == ["sink", "saddle", "sink"]

    def test_eigenvalues_match_transformed_slope(self, tm3):
        # psi in transformed units is 3.5 - 0.5/m, slope 0.5/m^2
        ode = limiting_ode(tm3)
        for ss in ode.steady_states[:2]:
            expected = 0.5 / ss.m ** 2 - 1.0
            assert ss.eigenvalues[0] == pytest.approx(expected, rel=1e-4)
            assert ss.eigenvalues[1] == -1.0

    def test_independent_scan_of_transformed_fixed_points(self, tm3):
        # oracle: roots of psi_breve(m) - m on the transformed support,
        # by dense sign scan on the closed form, no package calls
        def psi_breve(m):
            h = m / (m + 1.0)
            return 4.0 - 0.5 / h
        ms = np.linspace(tm3.m_lo, tm3.m_hi, 20_001)
        vals = psi_breve(ms) - ms
        roots = []
        for i in range(len(ms) - 1):
            if vals[i] * vals[i + 1] < 0:
                lo, hi = ms[i], ms[i + 1]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if (psi_breve(lo) - lo) * (psi_breve(mid) - mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
        interior = sorted(ss.m for ss in limiting_ode(tm3).steady_states
                          if tm3.m_lo < ss.m < tm3.m_hi)
        assert len(roots) == len(interior)
        for a, b in zip(sorted(roots), interior):
            assert a == pytest.approx(b, abs=1e-6)

    def test_xi_dimension_always_converges(self, tm3):
        ode = limiting_ode(tm3)
        m_fixed = 2.5
        target = ode.nullcline(m_fixed)
        xi = 0.05
        for _ in range(4000):
            f2 = float(ode.field((m_fixed, xi))[1])
            xi += 0.01 * f2
        assert xi == pytest.approx(target, abs=1e-4)

    def test_kind_matches_equilibrium_stability(self, tm_neg, tm3):
        for tm in (tm_neg, tm3):
            eqs = find_equilibria(tm.model)
            ode = limiting_ode(tm)
            assert len(eqs) == len(ode.steady_states)
            for pt, ss in zip(eqs.points, ode.steady_states):
                assert (ss.kind == "sink") == pt.stable
                assert ss.beta == pytest.approx(pt.beta_hat, abs=1e-9)

    def test_ode_integration_reaches_sink(self, tm_neg):
        ode = limiting_ode(tm_neg)
        sink = ode.steady_states[0]
        theta = ode.integrate((tm_neg.g1(2.5), 0.3), total_time=200.0)
        assert theta[0] == pytest.approx(sink.m, abs=1e-4)
        assert theta[1] == pytest.approx(sink.xi, abs=1e-4)


class TestPhaseField:
    def test_nullcline_and_sink(self, tm3):
        field = phase_field(tm3, grid=40)
        ode = limiting_ode(tm3)
        sink = ode.steady_states[0]
        # f2 vanishes on the nullcline by construction of the field
        for j in (0, 10, 25):
            m = float(field.m[j])
            xi_null = float(field.nullcline[j])
            f = ode.field((m, xi_null))
            assert f[1] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(ode.field((sink.m, sink.xi))) < 1e-8

    def test_grid_is_the_ode_field_bit_for_bit(self, tm3):
        field = phase_field(tm3, grid=25)
        ode = limiting_ode(tm3)
        assert np.array_equal(field.nullcline, ode.nullcline(field.m))
        for i, xi in enumerate(field.xi):
            for j, m in enumerate(field.m):
                f = ode.field((m, xi))
                assert (field.f1[i, j], field.f2[i, j]) == (f[0], f[1])

    def test_saddle_line_separates_drift(self, tm3):
        ode = limiting_ode(tm3)
        saddle = ode.steady_states[1]
        xi = saddle.xi
        left = ode.field((saddle.m - 1e-3, xi))[0]
        right = ode.field((saddle.m + 1e-3, xi))[0]
        assert left < 0.0 < right


class TestMonteCarlo:
    def test_unique_equilibrium_captures_all_runs(self, tm_neg):
        rep = monte_carlo_convergence(tm_neg, runs=50, horizon=20_000, seed=3)
        assert rep.counts[0] == 50
        assert rep.unclassified == 0
        assert rep.saddle_hits == 0

    def test_saddle_never_attracts(self, tm3):
        for horizon in (1000, 10_000):
            rep = monte_carlo_convergence(tm3, runs=30, horizon=horizon,
                                          seed=17)
            assert rep.saddle_hits == 0

    def test_concentrated_prior_selects_its_sink(self, tm3):
        ode = limiting_ode(tm3)
        for idx in (0, 2):
            sink = ode.steady_states[idx]
            prior = TruncNormalPrior(mean=sink.m, sd=0.01)
            rep = monte_carlo_convergence(tm3, runs=20, horizon=5000,
                                          seed=23, prior=prior)
            assert rep.counts[idx] >= 19

    def test_frequencies_sum_with_unclassified(self, tm3):
        rep = monte_carlo_convergence(tm3, runs=25, horizon=2000, seed=5)
        assert sum(rep.counts) + rep.unclassified == 25


class TestShadowing:
    def test_path_stays_in_ode_tube(self, tm3):
        # simulate to n0, then compare the next block against the Euler
        # path of the mean field started at theta_{n0}, using the same
        # 1/(n+1) step sizes; the tube radius is frozen empirically
        n0, block = 10_000, 1000
        traj = simulate(tm3, horizon=n0 + block, seed=31, stride=1)
        start = np.flatnonzero(traj.periods == n0)[0]
        ode = limiting_ode(tm3)
        theta = np.array([traj.m[start], traj.xi[start]])
        worst = 0.0
        for k in range(1, block + 1):
            theta = theta + ode.field(theta) / (n0 + k)
            sim = np.array([traj.m[start + k], traj.xi[start + k]])
            worst = max(worst, float(np.linalg.norm(sim - theta)))
        assert worst < 0.05


def test_certainty_equivalent_shortcut_needs_square_g1():
    # an LQ model certified with g1 = 2 beta^2: the posterior mean of g1 is
    # not E[beta^2], so the assessment must come from the posterior itself
    params = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0)
    model = build_lq(params, 0.0, 2.0, -0.5, 0.5, 3.0)
    fac = Factorization(g1=lambda b: 2.0 * b * b, g2=lambda h: h / 2.0,
                        g1_inv=lambda x: np.sqrt(x / 2.0))
    scaled = transform(dataclasses.replace(model, factorization=fac))
    default = transform(model)
    assert default.ce_exact and not scaled.ce_exact
    want = evaluator_step(default, LearningState(n=10**6, m=4.0, xi=1.0))
    assert want == pytest.approx(0.8, abs=1e-8)
    got = evaluator_step(scaled, LearningState(n=10**6, m=fac.g1(2.0), xi=1.0))
    assert got == pytest.approx(want, abs=1e-8)


def test_each_learning_rule_has_one_owner():
    # the array contract is decided in transform, and support projection
    # of modes (clip or min(max(...)) against m_lo/m_hi) lives only in
    # TransformedModel; learning certifies R = g1 g2 with no additive term,
    # scalar roots are solved through rootfind.solve_decreasing, and the
    # LQ certainty equivalent is one method
    import ast
    import re
    from pathlib import Path

    import berklab

    src = Path(berklab.__file__).parent
    helpers = [f"{path.name}:{i}"
               for path in sorted(src.glob("*.py"))
               for i, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\b(_vec|_array_map|g3|solve_increasing_to"
                            r"|_closed_assessment)\b", line)]
    assert helpers == []

    def name(call):
        f = call.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")

    def projects(node):
        if not isinstance(node, ast.Call):
            return False
        if name(node) == "clip":
            args = node.args[1:]
        elif name(node) in ("min", "minimum") and any(
                isinstance(a, ast.Call) and name(a) in ("max", "maximum")
                for a in node.args):
            args = node.args
        else:
            return False
        return any(isinstance(n, ast.Attribute) and n.attr in ("m_lo", "m_hi")
                   for a in args for n in ast.walk(a))

    offenders = []
    for module in ("learning.py", "multigroup.py"):
        tree = ast.parse((src / module).read_text())
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and top.name == "TransformedModel":
                continue
            offenders += [f"{module}:{n.lineno}" for n in ast.walk(top)
                          if projects(n)]
    assert offenders == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), delta_mu=st.floats(-1.0, 1.0))
def test_lq_interior_eigenvalues_are_the_closed_form_slope(seed, delta_mu):
    model = random_lq_instance(np.random.default_rng(seed), delta_mu)
    for ss in limiting_ode(transform(model)).steady_states:
        if model.beta_lo < ss.beta < model.beta_hi:
            want = lq_ode_eigenvalue(model, ss.m)
            assert ss.eigenvalues[0] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert ss.eigenvalues[1] == -1.0


def test_general_eigenvalue_matches_the_implicit_function_oracle():
    # 3e-7 separates the enumerator's slope (7.1e-8 off the oracle) from a
    # 1e-6 central difference of the transformed map (8.1e-7 off)
    scales = (2.5, 1.0, 4.0, 1.0, 0.5)
    model = build_power(*scales, 0.0, 2.0, -0.1, 0.5, 3.0)
    (ss,) = limiting_ode(transform(model)).steady_states
    want = power_ode_eigenvalue(*scales, beta_star=2.0, delta_mu=-0.1,
                                beta_lo=0.5, beta_hi=3.0)
    assert want == pytest.approx(-1.0185593252, abs=1e-10)
    assert ss.kind == "sink"
    assert abs(ss.eigenvalues[0] - want) <= 3e-7


def test_steady_states_read_the_enumerator():
    # limiting_ode takes each eigenvalue and kind from its equilibrium point
    # (no difference step), and the ODE drift is written once
    import inspect
    import re
    from pathlib import Path

    import berklab.learning as learning

    body = inspect.getsource(learning.limiting_ode)
    assert not re.search(r"\bstep\b|\d+e-\d+|fd1", body)
    text = Path(learning.__file__).read_text()
    assert len(re.findall(r"\*\s*\(\s*psi\w*\s*-", text)) == 1
    for ss, pt in zip(limiting_ode(three_equilibria_model()).steady_states,
                      find_equilibria(three_equilibria_model()).points,
                      strict=True):
        assert ss.eigenvalues == (pt.slope - 1.0, -1.0)
        assert ss.is_sink == pt.stable
