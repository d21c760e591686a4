import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berklab import (BerklabError, BestResponseEngine, InvariantViolation,
                     LQParams, NumericalError, build_lq, build_power,
                     first_order_comparison)
from berklab.best_response import ARRAY_SOLVE_MIN
from berklab.rootfind import XTOL

from helpers import (_power_assessment, general_engine, lq_assessment,
                     per_group_assessment_gradient,
                     power_assessment_gradient, random_lq_instance,
                     unique_equilibrium_model)


@pytest.fixture
def engine(lq_unit):
    return BestResponseEngine(lq_unit)


class TestEffort:
    def test_lq_closed_form(self, engine):
        assert engine.effort(0.5, 2.0) == pytest.approx(1.0)

    def test_zero_assessment_means_zero_effort(self, engine):
        assert engine.effort(0.0, 5.0) == 0.0
        assert general_engine(random_lq_instance(
            np.random.default_rng(0), -0.2)).effort(0.0, 5.0) == 0.0

    def test_power_cost_by_hand(self):
        m = build_power(4.0, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)
        # bisection oracle on h*beta = a^3
        lo, hi = 0.0, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 0.5 * 2.0 - mid ** 3 > 0:
                lo = mid
            else:
                hi = mid
        assert BestResponseEngine(m).effort(0.5, 2.0) == pytest.approx(
            0.5 * (lo + hi), abs=1e-9)

    def test_power_effort_near_zero_assessment(self):
        # c'(a) = a^1.5 vanishes at zero effort, so the agent's condition
        # keeps its sign down to a = 0 and effort is (h beta)^(2/3) to
        # Brent's tolerance, which is absolute near zero
        eng = BestResponseEngine(
            build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0))
        for h in (1e-12, 1e-9):
            assert abs(eng.effort(h, 1.0) - h ** (2.0 / 3.0)) <= XTOL

    def test_monotone_in_both_arguments(self, engine):
        hs = np.linspace(0.05, 0.95, 12)
        bs = np.linspace(0.5, 3.0, 12)
        grid = np.array([[engine.effort(h, b) for b in bs] for h in hs])
        assert np.all(np.diff(grid, axis=0) > 0)
        assert np.all(np.diff(grid, axis=1) > 0)


class TestEffectiveEffort:
    def test_lq_closed_form(self, engine):
        assert engine.effective_effort(0.5, 2.0) == pytest.approx(2.0)

    def test_zero_productivity(self, engine):
        assert engine.effective_effort(0.7, 0.0) == 0.0

    def test_scaled_cost(self):
        m = build_lq(LQParams(c=2.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0),
                     0.0, 2.0, 0.0, 0.5, 3.0)
        assert BestResponseEngine(m).effective_effort(1.0, 1.0) == \
            pytest.approx(0.5)

    def test_increasing_differences(self, engine):
        hs = np.linspace(0.05, 0.95, 10)
        bs = np.linspace(0.5, 3.0, 10)
        grid = np.array([[engine.effective_effort(h, b) for b in bs]
                         for h in hs])
        cross = np.diff(np.diff(grid, axis=0), axis=1)
        assert np.all(cross > 0)


class TestAssessment:
    def test_lq_values(self, engine):
        assert engine.assessment(1.0) == pytest.approx(0.5)
        assert engine.assessment(2.0) == pytest.approx(0.8)

    def test_vanishes_at_zero_productivity(self, engine):
        assert engine.assessment(1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_and_bounded_on_support(self, lq_unit, engine):
        bs = np.linspace(lq_unit.beta_lo, lq_unit.beta_hi, 64)
        hs = np.array([engine.assessment(b) for b in bs])
        assert np.all(np.diff(hs) > 0)
        lo, hi = engine.assessment_bounds()
        assert 0.0 < lo and hi < 1.0
        assert np.all(hs >= lo - 1e-12) and np.all(hs <= hi + 1e-12)

    def test_non_interior_raises(self):
        # large effort weight pushes the optimum past h = 1
        m = build_lq(LQParams(c=1.0, kappa=1.0, lambda_e=5.0, lambda_a=0.0),
                     0.0, 2.0, 0.0, 0.5, 3.0)
        with pytest.raises(InvariantViolation):
            BestResponseEngine(m).assessment(3.0)
        # a NaN productivity has no interior assessment either, on a float or
        # in an array (of fewer or more points than one masked solve takes),
        # and both paths say so with the same error
        unit = unique_equilibrium_model()
        for eng in (BestResponseEngine(unit), general_engine(unit)):
            for beta in (math.nan, np.array([1.0, math.nan]),
                         np.append(np.linspace(1.0, 2.0, 63), math.nan)):
                with pytest.raises(InvariantViolation, match="nan"):
                    eng.assessment(beta)
            with pytest.raises(NumericalError, match="nan"):
                eng.first_order_assessment(math.nan)


class TestAssessmentMultigroup:
    def test_single_group_reduces(self, engine):
        one = engine.assessment_multigroup([2.0], [1.0])
        assert one == pytest.approx(engine.assessment(2.0), abs=1e-12)

    def test_symmetric_groups_match_single(self, engine):
        h = engine.assessment_multigroup([1.0, 1.0], [0.5, 0.5])
        assert h == pytest.approx(engine.assessment(1.0), abs=1e-12)

    def test_weighted_example(self, engine):
        h = engine.assessment_multigroup([1.0, 2.0], [0.5, 0.5])
        assert h == pytest.approx(2.5 / 3.5, abs=1e-12)

    def test_between_single_group_values(self, engine, rng):
        for _ in range(20):
            betas = rng.uniform(0.5, 3.0, size=3)
            w = rng.uniform(0.2, 1.0, size=3)
            w = w / w.sum()
            h = engine.assessment_multigroup(betas, w)
            singles = [engine.assessment(b) for b in betas]
            assert min(singles) <= h <= max(singles)

    def test_rejects_bad_weights(self, lq_unit, engine):
        for eng in (engine, general_engine(lq_unit)):
            for method in (eng.assessment_multigroup, eng.assessment_gradient):
                with pytest.raises(ValueError):
                    method([1.0, 2.0], [0.7, 0.7])
            # the gradient is of one population: J productivities, never (N, J)
            for betas in ([[1.0, 2.0], [1.5, 2.5]], [[1.0, 2.0]]):
                with pytest.raises(ValueError, match="one productivity per group"):
                    eng.assessment_gradient(betas, [0.3, 0.7])


class TestEffortSensitivities:
    def test_lq_values(self, engine):
        assert engine.effort_sensitivities(0.5, 2.0) == \
            pytest.approx((2.0, 0.5))

    def test_zero_productivity_point(self, engine):
        # r_a = beta = 0 kills da/dh while da/dbeta = h/c survives
        da_dh, da_db = engine.effort_sensitivities(0.5, 0.0)
        assert da_dh == pytest.approx(0.0)
        assert da_db == pytest.approx(0.5)

    def test_finite_difference_agreement(self, rng):
        m = random_lq_instance(rng, -0.3)
        eng = BestResponseEngine(m)
        for _ in range(20):
            h = float(rng.uniform(0.1, 0.9))
            b = float(rng.uniform(m.beta_lo, m.beta_hi))
            da_dh, da_db = eng.effort_sensitivities(h, b)
            e = 1e-5
            fd_h = (eng.effort(h + e, b) - eng.effort(h - e, b)) / (2 * e)
            fd_b = (eng.effort(h, b + e) - eng.effort(h, b - e)) / (2 * e)
            assert da_dh == pytest.approx(fd_h, abs=1e-6)
            assert da_db == pytest.approx(fd_b, abs=1e-6)

    @pytest.fixture
    def power(self):  # c = a^2.5 / 2.5: c'' = 1.5 a^0.5 vanishes with effort
        return BestResponseEngine(
            build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0))

    @pytest.mark.parametrize("name", ["effort_sensitivities", "r_partials", "_dv_dh"])
    @pytest.mark.parametrize("h", [0.0, np.array([0.0, 0.5]), np.zeros(45)])
    def test_power_cost_zero_effort_boundary_is_numerical(self, power, name, h):
        # da/dh = r_a / c'' is unbounded at h = 0: a NumericalError, not a
        # failed second-order condition
        with pytest.raises(NumericalError, match="zero-effort boundary"):
            getattr(power, name)(h, 1.0)

    def test_power_cost_slope_just_inside_the_boundary(self, power):
        # a = (h beta)^(2/3), so da/dh = (2/3) h^(-1/3)
        da_dh, _ = power.effort_sensitivities(1e-12, 1.0)
        assert da_dh == pytest.approx(2e4 / 3.0, rel=1e-6)

    def test_zero_slope_at_positive_effort_fails_second_order(self, power):
        # c'' - h r_aa = 0 away from zero effort is no boundary effect
        power.__dict__["_c_aa"] = lambda a: 0.0 * a
        with pytest.raises(InvariantViolation, match="second-order condition"):
            power.effort_sensitivities(0.5, 1.0)


class TestNumericAgainstClosedForm:
    def test_hundred_random_points(self, rng):
        for _ in range(10):
            m = random_lq_instance(rng, float(rng.uniform(-0.5, 0.5)))
            closed = BestResponseEngine(m)
            numeric = general_engine(m)
            for _ in range(10):
                h = float(rng.uniform(0.05, 0.95))
                b = float(rng.uniform(m.beta_lo, m.beta_hi))
                assert numeric.effort(h, b) == pytest.approx(
                    closed.effort(h, b), rel=1e-8)
                assert numeric.assessment(b) == pytest.approx(
                    closed.assessment(b), rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.5, 2.0), kappa_mult=st.floats(1.1, 3.0),
       lambda_e=st.floats(0.5, 1.5), lambda_a=st.floats(0.0, 1.0),
       beta=st.floats(0.6, 2.9))
def test_assessment_interior_property(c, kappa_mult, lambda_e, lambda_a, beta):
    # keep h(beta_hi) < 1: (lambda1 - lambda2) beta_hi^2 < kappa c
    kappa = kappa_mult * max(0.5, lambda_e * 3.0 ** 2 / c)
    m = build_lq(LQParams(c=c, kappa=kappa, lambda_e=lambda_e,
                          lambda_a=lambda_a),
                 0.0, 2.0, 0.0, 0.5, 3.0)
    h = BestResponseEngine(m).assessment(beta)
    assert 0.0 < h < 1.0
    assert h == pytest.approx(lq_assessment(m.lq, beta), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.5, 2.0), kappa_mult=st.floats(1.1, 3.0),
       lambda_e=st.floats(0.5, 1.5), lambda_a=st.floats(0.0, 1.0),
       h=st.floats(0.2, 0.9), beta=st.floats(0.6, 2.9),
       beta2=st.floats(0.6, 2.9), weight=st.floats(0.1, 0.9),
       delta_mu=st.floats(-1.5, 1.5))
@example(c=1.0, kappa_mult=2.0, lambda_e=1.0, lambda_a=0.5, h=0.5, beta=0.5001,
         beta2=2.2, weight=0.4, delta_mu=0.3)  # forward difference at beta_lo
def test_engine_operations_match_numeric_property(c, kappa_mult, lambda_e,
                                                  lambda_a, h, beta, beta2,
                                                  weight, delta_mu):
    # same admissible family as the interior property above: h(beta_hi) < 1
    kappa = kappa_mult * max(0.5, lambda_e * 3.0 ** 2 / c)
    m = build_lq(LQParams(c=c, kappa=kappa, lambda_e=lambda_e,
                          lambda_a=lambda_a),
                 0.0, 2.0, 0.0, 0.5, 3.0)
    closed = BestResponseEngine(m)
    numeric = general_engine(m)

    assert numeric.best_fit(h, 2.0, delta_mu) == pytest.approx(
        closed.best_fit(h, 2.0, delta_mu), rel=1e-8)
    root = closed.best_fit(h, 2.0, delta_mu, clamp=False)
    if root >= 0.1:  # away from the no-root boundary, where sqrt is ill-conditioned
        assert numeric.best_fit(h, 2.0, delta_mu, clamp=False) == pytest.approx(
            root, rel=1e-8)
    assert numeric.first_order_assessment(beta) == pytest.approx(
        closed.first_order_assessment(beta), rel=1e-8)
    assert numeric.assessment(beta) == pytest.approx(
        closed.certainty_equivalent(beta * beta), rel=1e-8)
    for got, want in zip(numeric.r_partials(h, beta), closed.r_partials(h, beta)):
        assert got == pytest.approx(want, rel=1e-6)
    # norm-wise: a small component carries the numeric solve's noise / step
    betas, weights = np.array([beta, beta2]), np.array([weight, 1.0 - weight])
    want = closed.assessment_gradient(betas, weights)
    got = numeric.assessment_gradient(betas, weights)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    want = per_group_assessment_gradient(numeric, betas, weights)
    assert got.tobytes() == want.tobytes()


def test_only_the_engine_knows_the_lq_closed_forms():
    import re
    from pathlib import Path

    import berklab

    pattern = re.compile(r"_closed|is_lq|\blq\.(c|kappa|lambda1|lambda2)\b")
    src = Path(berklab.__file__).parent
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "best_response.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []


# every optional parameter of a public function or method in the package:
# an option added or removed is an edit here
OPTIONS = {
    "analysis.comparative_statics": ("rel_step",),
    "analysis.disparity_report": ("selector",),
    "analysis.first_order_comparison": ("frozen_assessment",),
    "best_response.BestResponseEngine.best_fit": ("clamp",),
    "cli.main": ("argv",),
    "equilibrium.kl_divergence": ("engine",),
    "equilibrium.psi_tilde": ("engine",),
    "equilibrium.find_equilibria": ("grid_points", "engine"),
    "learning.evaluator_step": ("prior",),
    "learning.noise_stream": ("group",),
    "learning.simulate": ("run", "prior", "stride", "grid_points", "runs"),
    "learning.limiting_ode": ("grid_points",),
    "learning.phase_field": ("grid",),
    "learning.monte_carlo_convergence": ("radius", "prior", "grid_points",
                                         "stride"),
    "multigroup.simulate_multigroup": ("run", "prior", "stride", "equilibria",
                                       "runs"),
    "multigroup.monte_carlo_multigroup": ("radius", "prior"),
    "primitives.build_power": ("market_share",),
    "primitives.check_assumptions": ("n_h", "n_beta"),
    "rootfind.fd1": ("lo", "hi", "rel_step"),
    "rootfind.fd2": ("lo", "hi"),
    "rootfind.solve_decreasing": ("expand", "max_hi", "args"),
    "rootfind.brentq_masked": ("args",),
}


def test_options_are_the_pinned_inventory():
    import ast
    import inspect
    from pathlib import Path

    import berklab

    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not child.name.startswith("_")
                  or getattr(child, "name", "") == "__init__"):
                a = child.args
                positional = a.posonlyargs + a.args
                names = [x.arg for x in positional[len(positional) - len(a.defaults):]]
                names += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                if names:
                    found[f"{module}.{prefix}{child.name}"] = tuple(names)

    src = Path(berklab.__file__).parent
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 41
    # the engine takes a model and nothing else: no switch to the general
    # path and no assessment cap that only such a switch would reach
    assert list(inspect.signature(BestResponseEngine).parameters) == ["model"]
    assert "_h_cap" not in (src / "best_response.py").read_text()


@settings(max_examples=15, deadline=None)
@given(gamma=st.floats(2.5, 4.0), beta=st.floats(0.6, 2.9),
       beta2=st.floats(0.6, 2.9), weight=st.floats(0.1, 0.9))
@example(gamma=2.7260363963845937, beta=0.6424971626744002,
         beta2=2.746564605541006, weight=0.3888651181692232)  # 2.2e-6 at step 1e-4
@example(gamma=2.5, beta=0.5001, beta2=2.2, weight=0.4)  # forward difference
def test_numeric_assessment_gradient_matches_power_oracle(gamma, beta, beta2,
                                                         weight):
    # general primitives: the gradient differences the numeric assessment
    # solve, whose ~1e-11 error the step must not amplify past 1e-6
    m = build_power(gamma, 1.0, 6.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)
    betas, weights = np.array([beta, beta2]), np.array([weight, 1.0 - weight])
    want = power_assessment_gradient(gamma, 1.0, 6.0, 1.0, 0.5, betas, weights)
    eng = BestResponseEngine(m)
    got = eng.assessment_gradient(betas, weights)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    # one array difference over the productivities: one scalar difference
    # per group, bit for bit
    assert got.tobytes() == per_group_assessment_gradient(eng, betas, weights).tobytes()


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(2.5, 6.0), beta=st.floats(0.5, 3.0),
       seed=st.integers(0, 2 ** 32 - 1), share=st.floats(0.0, 1.0))
@example(gamma=3.0, beta=1.0, seed=83, share=1.0)  # range ends at 3.585 < 4.006
@example(gamma=3.0, beta=1.0, seed=298, share=1.0)  # lo + (hi - lo) rounds past hi
def test_assessment_solved_over_effort_property(gamma, beta, seed, share):
    # the evaluator's condition is solved over the first group's effort,
    # with h(a) = c'(a) / r_a(a, beta) explicit: the same root as the exact
    # solve over h, and one code path for one group and for a population
    eng = BestResponseEngine(
        build_power(gamma, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0))
    h = eng.assessment(beta)
    q = gamma / (gamma - 1.0)
    assert abs(h - _power_assessment(gamma, 1.0, 4.0, 1.0, 0.5, beta ** q)[0]) <= 1e-13
    assert eng.assessment_multigroup([beta], [1.0]).hex() == h.hex()
    # first-order misspecification: effort read under the truth, interior
    # only on first_order_range; past it both paths find no interior optimum
    m = random_lq_instance(np.random.default_rng(seed), 0.0)
    b = min(m.beta_lo + share * (m.beta_hi - m.beta_lo), m.beta_hi)
    closed, numeric = BestResponseEngine(m), general_engine(m)
    try:
        _, hi = closed.first_order_range()
    except NumericalError:
        hi = -math.inf
    if b <= hi:
        assert numeric.first_order_assessment(b) == pytest.approx(
            closed.first_order_assessment(b), rel=1e-8)
    else:
        for eng in (closed, numeric):
            with pytest.raises(NumericalError):
                eng.first_order_assessment(b)


def test_conditions_read_no_differences():
    # the first-order conditions read the resolved derivatives: a Smooth
    # primitive's own or the fallback's differences.  Only the fallback,
    # the productivity partials read once per point, and the gradient of
    # a whole assessment solve difference anything
    import ast
    from pathlib import Path

    import berklab.best_response

    tree = ast.parse(Path(berklab.best_response.__file__).read_text())
    (engine,) = (n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == "BestResponseEngine")
    differencing = {f.name for f in tree.body + engine.body
                    if isinstance(f, ast.FunctionDef)
                    and any(isinstance(n, ast.Name) and n.id in ("fd1", "fd2")
                            for n in ast.walk(f))}
    conditions = {"_effort_foc", "_effort_slope", "_marginal_value",
                  "_assessment_of_effort", "_evaluator_condition"}
    assert conditions <= {f.name for f in engine.body
                          if isinstance(f, ast.FunctionDef)}
    assert not differencing & conditions
    assert differencing == {"_difference", "_sensitivities_at", "r_partials",
                            "assessment_gradient"}


def test_first_order_assessment_without_bracket_is_numerical():
    # effort read under the truth: h = 5 * 3 * 2 / 1 leaves (0, 1), so the
    # first-order condition has no sign change there
    m = build_lq(LQParams(c=1.0, kappa=1.0, lambda_e=5.0, lambda_a=0.0),
                 0.0, 2.0, 0.0, 0.5, 3.0)
    with pytest.raises(NumericalError, match="no bracket"):
        general_engine(m).first_order_assessment(3.0)


def test_first_order_assessment_outside_the_unit_interval_raises(monkeypatch):
    # h = 10 beta leaves (0, 1) at beta = 3 (h = 30) and at beta = 0 (h = 0):
    # the closed form raises as the numeric solve does, and no first-order
    # comparison reads effort there
    m = build_lq(LQParams(c=1.0, kappa=1.0, lambda_e=5.0, lambda_a=0.0),
                 0.0, 2.0, 0.0, 0.5, 3.0)
    for eng in (BestResponseEngine(m), general_engine(m)):
        for beta in (3.0, 0.0):
            with pytest.raises(NumericalError):
                eng.first_order_assessment(beta)
        with pytest.raises(NumericalError):
            eng.first_order_range()
    read = []
    effort = BestResponseEngine.effort

    def spy(self, h, beta):
        read.append(np.max(h))
        return effort(self, h, beta)

    monkeypatch.setattr(BestResponseEngine, "effort", spy)
    with pytest.raises(BerklabError):
        first_order_comparison(m.with_delta_mu(0.05))
    assert all(h < 1.0 for h in read)
    # on lq_unit the first-order assessment 0.4 beta passes 1 at beta = 2.5:
    # the comparison searches below, on both paths
    unit = unique_equilibrium_model(-0.5).with_delta_mu(0.05)
    res = first_order_comparison(unit)
    assert read and max(read) < 1.0
    ranges = [eng.first_order_range()
              for eng in (BestResponseEngine(unit), general_engine(unit))]
    assert ranges[0] == pytest.approx((0.5, 2.5), abs=1e-8)
    assert ranges[1] == pytest.approx(ranges[0], abs=1e-8)
    assert res.gap_ours < res.gap_fom


def _scalar_calls(method, args, **kw):
    """np.array of ``method`` called on each broadcast point's floats; a
    pair-valued method gives a pair of arrays."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    grids = [np.broadcast_to(np.asarray(a, dtype=float), shape) for a in args]
    vals = [method(*(float(g[idx]) for g in grids), **kw)
            for idx in np.ndindex(shape)]
    if isinstance(vals[0], tuple):
        return tuple(np.array([v[k] for v in vals]).reshape(shape) for k in (0, 1))
    return np.array(vals).reshape(shape)


def _same_bits(got, want):
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == 2
                and all(_same_bits(g, w) for g, w in zip(got, want)))
    got = np.asarray(got)
    return (got.dtype == np.float64 and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("numeric", [False, True], ids=["closed", "numeric"])
@settings(max_examples=8, deadline=None)
@given(hs=st.lists(st.floats(0.05, 0.75), min_size=2, max_size=2),
       betas=st.lists(st.floats(0.6, 2.0), min_size=2, max_size=2),
       truths=st.lists(st.floats(0.6, 2.9), min_size=2, max_size=2),
       deltas=st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2))
def test_array_calls_are_the_scalar_calls_bit_for_bit(numeric, hs, betas,
                                                       truths, deltas):
    # one array contract on both paths: 0-d, (n,) and (n,1) x (1,m)
    # arguments, and per-group truths in best_fit and the fit gap
    eng = (general_engine if numeric else BestResponseEngine)(
        unique_equilibrium_model())
    h, b = np.array(hs), np.array(betas)
    shapes = [(h[0], b[0]), (np.array(h[0]), np.array(b[0])), (h, b),
              (h[:, None], b[None, :])]
    for method in (eng.effort, eng.effective_effort, eng.effort_sensitivities,
                   eng.r_partials):
        for args in shapes:
            assert _same_bits(method(*args), _scalar_calls(method, args))
    for method in (eng.assessment, eng.first_order_assessment):
        # 64 points: one outer masked solve in h
        for arg in (b[0], np.array(b[0]), b, b[:, None], np.linspace(*b, 64)):
            assert _same_bits(method(arg), _scalar_calls(method, (arg,)))
    t, d = np.array(truths), np.array(deltas)
    # fixed points the draws may miss: the fit clamped at beta_lo (with no
    # unclamped root) and at beta_hi, and on the closed path NaN inputs
    edges = (np.array([0.05, 0.05, math.nan, 0.5]), np.array([0.6, 2.9, 2.0, 2.0]),
             np.array([0.3, -0.3, 0.1, math.nan]))
    edges = tuple(e[:2] for e in edges) if numeric else edges
    for args in [(h[0], t[0], d[0]), (h[0], t, d), (h[:, None], t, d), edges]:
        for clamp in (True, False):
            assert _same_bits(eng.best_fit(*args, clamp=clamp),
                              _scalar_calls(eng.best_fit, args, clamp=clamp))
    for args in [(h[0], b[0], t[0], d[0]), (h[0], b, t, d),
                 (h[:, None], b, t, d)]:
        assert _same_bits(eng._fit_gap(*args), _scalar_calls(eng._fit_gap, args))
    # the shared assessment of N populations of two and three groups, an
    # (N, J) array, is the N calls on its rows (N = ARRAY_SOLVE_MIN: the
    # fewest points of one masked solve)
    grid = np.linspace(0.0, 1.0, ARRAY_SOLVE_MIN)
    cols = [b[0] + (b[1] - b[0]) * grid, t[1] + (t[0] - t[1]) * grid,
            b[1] + (t[0] - b[1]) * grid[::-1]]
    for w in ((hs[0], 1.0 - hs[0]), (0.5 * hs[0], 0.5 * hs[1], 1.0 - 0.5 * sum(hs))):
        pops = np.column_stack(cols[:len(w)])
        want = np.array([eng.assessment_multigroup(row, w) for row in pops.tolist()])
        assert _same_bits(eng.assessment_multigroup(pops, w), want)


def test_closed_best_fit_squares_a_float_truth_like_an_array():
    # Python's float ** 2 calls pow, which rounds 2.5360533898163857 ** 2
    # one ulp away from the square that an array's ** 2 computes
    eng = BestResponseEngine(unique_equilibrium_model())
    t, d = np.array([2.5360533898163857, 1.0]), np.array([0.25, 0.0])
    for clamp in (True, False):
        assert _same_bits(eng.best_fit(0.5, t, d, clamp=clamp),
                          _scalar_calls(eng.best_fit, (0.5, t, d), clamp=clamp))


def test_no_caller_loops_over_the_engine():
    # the engine decides its array contract once, so no loop outside it
    # evaluates a point map at its loop variable, point by point or group
    # by group (a fixed-point iteration may still call one per step)
    import ast
    from pathlib import Path

    import berklab

    src = Path(berklab.__file__).parent
    point_maps = {"effort", "effective_effort", "r_partials", "best_fit",
                  "assessment"}

    def called(node):
        f = node.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")

    def loop_names(node):
        if isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            targets = [g.target for g in node.generators]
        else:
            return set()
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}

    def per_point(call, names):
        args = call.args + [k.value for k in call.keywords]
        return called(call) in point_maps and any(
            isinstance(n, ast.Name) and n.id in names
            for a in args for n in ast.walk(a))

    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "best_response.py":
            continue
        tree = ast.parse(path.read_text())
        offenders += sorted({f"{path.name}:{call.lineno}"
                             for loop in ast.walk(tree)
                             if (names := loop_names(loop))
                             for call in ast.walk(loop)
                             if isinstance(call, ast.Call) and per_point(call, names)})
        offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                      if "_g_factors" in (getattr(n, "name", None),
                                          getattr(n, "id", None),
                                          getattr(n, "attr", None))]
    tree = ast.parse((src / "multigroup.py").read_text())
    iteration = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                     and n.name == "color_sighted_equilibrium")
    offenders += [f"multigroup.py:{n.lineno}" for n in ast.walk(iteration)
                  if isinstance(n, ast.Call) and called(n) == "with_beta_star"]
    assert offenders == []

    # inside the engine only the array contract itself and best_fit apply a
    # map entry by entry, and one method states the evaluator's condition,
    # which no other module rewrites from its parts
    def names(tree):
        return {getattr(n, "id", None) or getattr(n, "attr", None)
                or getattr(n, "name", None) for n in ast.walk(tree)}

    engine = ast.parse((src / "best_response.py").read_text())
    assert {f.name for f in ast.walk(engine) if isinstance(f, ast.FunctionDef)
            and "_elementwise" in names(f) - {f.name}} == {
                "_pointwise", "array_form", "best_fit"}
    assert not {"_interior_assessment", "_marginal_cost"} & set().union(
        *(names(ast.parse(path.read_text())) for path in src.glob("*.py")))
    assert not {"_dv_dh", "_marginal_cost"} & names(
        ast.parse((src / "learning.py").read_text()))
