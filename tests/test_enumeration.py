"""Certified enumeration of belief-map fixed points: instances next to the
saddle-node, agreement of the closed-form and numeric enumerators, the
Chebyshev root certificate, and its cost."""

import ast
import math
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import berklab
from berklab import (BestResponseEngine, GroupPopulation, LQParams, build_lq,
                     build_power, color_blind_equilibria,
                     color_sighted_equilibria, find_equilibria)
from berklab.chebyshev import certified_roots
from berklab.learning import limiting_ode, transform

from helpers import general_engine, lq_oracle_equilibria, three_equilibria_model

SADDLE_NODE = 6.0 - math.sqrt(20.0)  # delta_mu where the interior pair of lq_three collides


def labels(eqs):
    return [(p.beta_hat, p.stable) for p in eqs.points]


def assert_matches_oracle(eqs, model, abs_tol):
    want = lq_oracle_equilibria(model)
    assert len(eqs) == len(want)
    for (beta, stable), (b, s) in zip(labels(eqs), want):
        assert beta == pytest.approx(b, abs=abs_tol)
        assert stable == s


def test_defect_instance_returns_all_three_equilibria():
    # 1e-8 below the saddle-node the interior pair is 1.3e-4 apart
    model = three_equilibria_model().with_delta_mu(SADDLE_NODE - 1e-8)
    eqs = find_equilibria(model)
    assert_matches_oracle(eqs, model, 1e-9)
    assert [p.stability for p in eqs] == ["stable", "unstable", "stable"]
    assert eqs.beliefs[0] == pytest.approx(1.111853, abs=1e-6)
    assert eqs.beliefs[1] == pytest.approx(1.111719, abs=1e-6)
    assert eqs.beliefs[2] == model.beta_lo
    assert all(p.residual < 1e-12 for p in eqs)


def test_defect_instance_pooled_from_two_identical_groups():
    dm = SADDLE_NODE - 1e-8
    base = three_equilibria_model()
    pop = GroupPopulation(model=base, alphas=(0.5, 0.5), deltas=(dm, dm),
                          beta_stars=(2.0, 2.0))
    assert_matches_oracle(color_blind_equilibria(pop), base.with_delta_mu(dm), 1e-9)


def test_defect_instance_on_the_numeric_path():
    model = three_equilibria_model().with_delta_mu(SADDLE_NODE - 1e-8)
    eqs = find_equilibria(model, engine=general_engine(model))
    # the pair is ill-conditioned there: G's ~1e-11 solve noise over G' ~ 1e-4
    assert_matches_oracle(eqs, model, 1e-6)
    assert any("tangent" in w for w in eqs.warnings)


def test_numeric_path_reports_a_near_miss_above_the_saddle_node():
    model = three_equilibria_model().with_delta_mu(SADDLE_NODE + 1e-9)
    eqs = find_equilibria(model, engine=general_engine(model))
    assert eqs.beliefs == (model.beta_lo,)
    assert any("near-tangent point" in w for w in eqs.warnings)


@pytest.mark.parametrize("above,warns", [(1e-9, True), (1e-8, False)])
def test_sighted_enumeration_reports_a_near_miss_above_the_saddle_node(above,
                                                                       warns):
    # two identical groups: only the corner remains, and within 1e-9 of the
    # saddle-node the vanished pair's tangent point is reported
    dm = SADDLE_NODE + above
    pop = GroupPopulation(model=three_equilibria_model(), alphas=(0.5, 0.5),
                          deltas=(dm, dm), beta_stars=(2.0, 2.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eqs = color_sighted_equilibria(pop)
    notes = [str(w.message) for w in caught if "near-tangent" in str(w.message)]
    assert [n.startswith("near-tangent point at h = 0.552786435:")
            for n in notes] == [True] * warns
    assert len(eqs) == 1 and list(eqs[0].beta_hat) == [0.3, 0.3]


@settings(max_examples=60, deadline=None)
@given(log_gap=st.floats(-12.0, -3.0), below=st.booleans())
def test_saddle_node_sweep_count_matches_the_discriminant(log_gap, below):
    gap = 10.0 ** log_gap
    model = three_equilibria_model().with_delta_mu(
        SADDLE_NODE - gap if below else SADDLE_NODE + gap)
    want = lq_oracle_equilibria(model)
    assert len(want) == (3 if below else 1)
    eqs = find_equilibria(model)
    assert len(eqs) == len(want)
    assert [p.stable for p in eqs] == [s for _, s in want]


def saddle_node_distance(lq, beta_star, delta_mu):
    """|delta_mu - d| over the delta_mu values d where the fixed-point
    quadratic's discriminant vanishes: the roots of a d^2 + b d + c0 (a
    quadratic in delta_mu, b < 0, b^2 - 4 a c0 > 0) by the cancellation-free
    formula, in Python floats, so that a leading coefficient that underflows
    (lambda_a about 1e-157) gives an infinite root, not an overflow."""
    l1, l2, c, k = map(float, (lq.lambda1, lq.lambda2, lq.c, lq.kappa))
    a = (c * l2) ** 2
    b = -(2.0 * l1 * beta_star ** 2 * c * l2 + 4.0 * l1 * k * c * c)
    c0 = (l1 * beta_star ** 2) ** 2
    q = 0.5 * (math.sqrt(b * b - 4.0 * a * c0) - b)
    return min(abs(delta_mu - d) for d in (c0 / q, q / a if a else math.inf))


@settings(max_examples=10, deadline=None)
@given(c=st.floats(0.5, 2.0), kappa_mult=st.floats(1.1, 3.0),
       lambda_e=st.floats(0.5, 1.5), lambda_a=st.floats(0.0, 1.0),
       delta_mu=st.floats(-1.5, 1.5))
@example(c=1.8125, kappa_mult=2.0, lambda_e=0.875, lambda_a=0.3125,
         delta_mu=-1.171875)  # G(beta_hi) is 1.3e-3 of |delta_mu|
@example(c=1.0, kappa_mult=2.0, lambda_e=1.0, lambda_a=9.60675598266873e-158,
         delta_mu=0.0)  # lambda2^2 underflows in the saddle-node quadratic
@example(c=1.0, kappa_mult=2.0, lambda_e=1.0, lambda_a=1.0,
         delta_mu=0.0546875)  # R_beta = 0.015 at the low root magnifies G' 66-fold
def test_interior_fixed_points_match_numeric_property(c, kappa_mult, lambda_e,
                                                      lambda_a, delta_mu):
    # the admissible family of the engine property test: h(beta_hi) < 1
    kappa = kappa_mult * max(0.5, lambda_e * 3.0 ** 2 / c)
    m = build_lq(LQParams(c=c, kappa=kappa, lambda_e=lambda_e,
                          lambda_a=lambda_a),
                 0.0, 2.0, 0.0, 0.5, 3.0)
    assume(saddle_node_distance(m.lq, 2.0, delta_mu) >= 1e-3)
    closed = BestResponseEngine(m).interior_fixed_points(2.0, delta_mu, 4096)
    numeric = general_engine(m).interior_fixed_points(2.0, delta_mu, 4096)
    assert numeric.roots.size == closed.roots.size
    assert np.allclose(numeric.roots, closed.roots, rtol=0.0, atol=1e-8)
    assert np.array_equal(numeric.rising, closed.rising)
    assert np.allclose(numeric.slopes, closed.slopes, rtol=0.0, atol=1e-5)
    assert numeric.near_tangent.size == 0
    # G = delta_mu + R(h, beta) - R(h, 2) cancels terms of size |delta_mu|,
    # and the numeric h carries the ~1e-10 noise of dV_E/dh's second
    # difference, which a small G does not shrink
    for got, want in ((numeric.f_lo, closed.f_lo), (numeric.f_hi, closed.f_hi)):
        assert abs(got - want) <= max(1e-8 * max(abs(want), abs(delta_mu)), 1e-12)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_certified_roots_separates_a_close_pair(eps):
    a = 0.37

    def f(x):
        return (x - a) * (x - a - eps) * (x + 0.8)

    found = certified_roots(f, -0.5, 2.0, 4096)
    assert found.roots == pytest.approx([a, a + eps], abs=1e-13)
    assert found.rising.tolist() == [False, True]
    assert found.slopes == pytest.approx([-eps * (a + 0.8), eps * (a + eps + 0.8)],
                                         rel=1e-6)
    assert found.near_tangent.size == 0
    assert found.f_lo == f(-0.5) and found.f_hi == f(2.0)


def test_certified_roots_reports_a_bump_just_above_zero():
    found = certified_roots(lambda x: (x - 0.4) ** 2 + 1e-12, 0.0, 1.0, 4096)
    assert found.roots.size == 0
    assert found.near_tangent == pytest.approx([0.4], abs=1e-9)
    # a bump well above the certified error carries no warning
    clear = certified_roots(lambda x: (x - 0.4) ** 2 + 1e-3, 0.0, 1.0, 4096)
    assert clear.roots.size == clear.near_tangent.size == 0


def test_certified_roots_refuses_what_it_cannot_certify():
    with pytest.raises(berklab.NumericalError, match="not smooth enough"):
        certified_roots(lambda x: abs(x - 0.3) - 0.1, 0.0, 1.0, 64)
    with pytest.raises(ValueError, match="max_points"):
        certified_roots(lambda x: x, 0.0, 1.0, 16)


def test_general_enumeration_cost(monkeypatch):
    calls = []
    original = BestResponseEngine.assessment

    def counted(self, beta):
        calls.append(1)
        return original(self, beta)

    monkeypatch.setattr(BestResponseEngine, "assessment", counted)
    model = build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)
    eqs = find_equilibria(model)
    assert len(eqs) == 1 and eqs.points[0].stable
    assert 0 < len(calls) <= 128


def test_nullcline_type_follows_the_input():
    ode = limiting_ode(transform(three_equilibria_model()))
    one = ode.nullcline(np.array([2.0]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    scalar = ode.nullcline(2.0)
    assert isinstance(scalar, float)
    assert one[0] == scalar
    assert ode.nullcline(np.array([2.0, 3.0])).shape == (2,)


def test_assumption_check_needs_points_to_compare():
    model = three_equilibria_model()
    for grid in (0, 1):
        with pytest.raises(ValueError, match="grid >= 2"):
            berklab.check_assumptions(model, grid=grid)
    assert berklab.check_assumptions(model, grid=2).all_passed


def test_one_enumerator_for_every_fixed_point():
    # no uniform-grid scan survives in the enumeration modules, the
    # Chebyshev kernels have one home, and scipy.optimize no importer
    src = Path(berklab.__file__).parent
    for module in ("equilibrium.py", "analysis.py"):
        text = (src / module).read_text()
        for name in ("scan_fixed_points", "CORNER_TOL", "np.vectorize",
                     "_classify_interior", "_fom_belief_map"):
            assert name not in text, f"{module}: {name}"
    assert "linspace" not in (src / "equilibrium.py").read_text()

    def calls(fn, name):
        return any(isinstance(n, ast.Attribute) and n.attr == name
                   for n in ast.walk(fn))

    # analysis compares assessment maps pointwise on a grid in
    # comparative_statics; no other function there may build one
    tree = ast.parse((src / "analysis.py").read_text())
    gridded = sorted(f.name for f in tree.body
                     if isinstance(f, ast.FunctionDef) and calls(f, "linspace"))
    assert gridded == ["comparative_statics"]

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    kernels = ("_lobatto", "_cheb_basis")
    homes = {(name, node.name) for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in kernels}
    assert homes == {("chebyshev.py", k) for k in kernels}

    # rootfind owns every iteration to a root, so no other module caps one;
    # the learning table polishes its roots through the masked Brent solve
    caps = sorted((name, node.id) for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and node.id.endswith("MAX_ITER"))
    assert caps == [("rootfind.py", "MAX_ITER")]
    (table,) = (node for node in trees["learning.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "_FocTable")
    (roots,) = (node for node in table.body
                if isinstance(node, ast.FunctionDef) and node.name == "roots")
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "brentq_masked" for n in ast.walk(roots))

    # rootfind carries its own Brent loops, so no module loads scipy's
    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        return []

    importers = sorted(
        name for name, tree in trees.items() for node in ast.walk(tree)
        if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
               for n in imported(node)))
    assert importers == []


def _run_fresh(code: str) -> list[str]:
    """The words ``code`` prints, run in a fresh interpreter on this
    checkout's package."""
    import os
    import subprocess
    import sys

    src = str(Path(berklab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.split()


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # no module imports scipy.optimize, and the LQ closed forms make no
    # scalar solve
    code = ("import sys, berklab; "
            "berklab.find_equilibria(berklab.build_lq(berklab.LQParams(1, 1, 1, 1), "
            "0.0, 2.0, 0.5, 0.3, 3.0)); print('scipy.optimize' in sys.modules)")
    assert _run_fresh(code) == ["False"]


def test_lq_commands_leave_scipy_optimize_unloaded():
    # every command on both shipped (LQ) configs, refusals included: no
    # path loads scipy's solvers (that would cost a multigroup run about
    # 22 MB)
    configs = sorted(str(p) for p in (Path(__file__).resolve().parents[1]
                                      / "configs").glob("*.ini"))
    commands = [["solve"], ["phase"], ["learn"], ["multigroup"],
                ["compare", "--param", "kappa"], ["disparity"], ["check"]]
    runs = [[name, config, *flags] for config in configs
            for name, *flags in commands]
    code = f"""
import contextlib, io, sys, tempfile
from berklab.cli import main
with tempfile.TemporaryDirectory() as out:
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv + ["--out-dir", f"{{out}}/{{i}}"])
                 for i, argv in enumerate({runs!r})]
print(*codes, "scipy.optimize" in sys.modules)
"""
    # two_groups refuses disparity, three_equilibria multigroup (exit 2)
    assert [Path(p).name for p in configs] == ["three_equilibria.ini",
                                               "two_groups.ini"]
    assert _run_fresh(code) == "0 0 0 2 0 0 0 0 0 0 0 0 2 0 False".split()


def test_the_general_path_leaves_scipy_optimize_unloaded():
    # scalar effort, assessment and best-fit solves run rootfind's own Brent
    # loop, so the general path does not pay scipy.optimize's import (about
    # 0.14 s and 23 MB)
    code = """
import sys
import berklab
model = berklab.build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0)
berklab.transform(model)
berklab.BestResponseEngine(model).assessment(1.3)
berklab.find_equilibria(model, grid_points=128)
berklab.monte_carlo_convergence(model, runs=2, horizon=2, seed=0)
print("scipy.optimize" in sys.modules)
"""
    assert _run_fresh(code) == ["False"]


def test_lq_work_leaves_scipy_special_unloaded():
    # truncnorm imports scipy.special on the first tail evaluation, which
    # no LQ closed form and no command but learn and multigroup makes
    configs = sorted(str(p) for p in (Path(__file__).resolve().parents[1]
                                      / "configs").glob("*.ini"))
    commands = [["solve"], ["phase"], ["compare", "--param", "kappa"],
                ["disparity"], ["check"]]
    runs = [[name, config, *flags] for config in configs
            for name, *flags in commands]
    code = f"""
import contextlib, io, sys, tempfile
import berklab
berklab.find_equilibria(berklab.build_lq(berklab.LQParams(1, 1, 1, 1),
                                         0.0, 2.0, 0.5, 0.3, 3.0))
print("scipy.special" in sys.modules)
from berklab.cli import main
with tempfile.TemporaryDirectory() as out:
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv + ["--out-dir", f"{{out}}/{{i}}"])
                 for i, argv in enumerate({runs!r})]
print(*codes, "scipy.special" in sys.modules)
"""
    # two_groups refuses disparity (exit 2)
    assert _run_fresh(code) == "False 0 0 0 0 0 0 0 0 2 0 False".split()


def test_the_first_tail_evaluation_binds_scipys_own_functions():
    # no wrapper: after one fallback trunc_mean, truncnorm's erfc and erfcx
    # are scipy.special's ufuncs themselves
    code = """
import scipy.special
from berklab import truncnorm
unbound = truncnorm.erfc is None and truncnorm.erfcx is None
truncnorm.trunc_mean(0.5, 1.0, 0.09, 9.0)
print(unbound, truncnorm.erfc is scipy.special.erfc,
      truncnorm.erfcx is scipy.special.erfcx)
"""
    assert _run_fresh(code) == ["True", "True", "True"]


# -- the package imports only what a call runs ------------------------------

PUBLIC = {
    "analysis": ["ComparativeStaticsResult", "DisparityReport",
                 "FirstOrderComparison", "GapDecomposition", "comparative_statics",
                 "disparity_report", "first_order_comparison", "gap_decomposition",
                 "weak_set_order_leq"],
    "best_response": ["BestResponseEngine"],
    "equilibrium": ["EquilibriumPoint", "EquilibriumSet", "find_equilibria",
                    "kl_divergence", "psi_tilde"],
    "errors": ["BerklabError", "ConfigError", "InvariantViolation", "NumericalError"],
    "learning": ["ConvergenceReport", "LearningState", "OdeSystem", "SteadyState",
                 "Trajectory", "TransformedModel", "TruncNormalPrior",
                 "evaluator_step", "fisher_information", "limiting_ode",
                 "monte_carlo_convergence", "phase_field", "posterior_params",
                 "simulate", "transform"],
    "multigroup": ["EigenReport", "GroupPopulation", "MultigroupEquilibrium",
                   "color_blind_equilibria", "color_sighted_equilibria",
                   "color_sighted_equilibrium", "eigen_check", "monte_carlo_multigroup",
                   "sensitivity", "sherman_morrison_inverse", "simulate_multigroup"],
    "primitives": ["AssumptionReport", "Factorization", "LQParams", "ModelPrimitives",
                   "Smooth", "build_lq", "build_power", "check_assumptions"],
}


def test_every_public_name_is_its_defining_modules_own_object():
    # the package keeps no copy: a name rebound in its module (as the
    # benchmark's tracer does) is rebound for the package's readers too
    import importlib

    names = sorted(n for group in PUBLIC.values() for n in group)
    assert len(names) == 53 and berklab.__all__ == names
    for module, group in PUBLIC.items():
        owner = importlib.import_module(f"berklab.{module}")
        for name in group:
            assert getattr(berklab, name) is vars(owner)[name], name
            assert name not in vars(berklab), name
    assert set(names) <= set(dir(berklab))
    assert "__version__" in dir(berklab)
    with pytest.raises(AttributeError, match="no_such_name"):
        berklab.no_such_name


def _loaded(*names):
    """Code that prints, for each module name, whether it is loaded."""
    return f"print(*(m in sys.modules for m in {list(names)!r}))"


def test_importing_the_package_loads_none_of_its_modules():
    code = ("import sys, berklab; "
            "print(*sorted(m for m in sys.modules if m.startswith('berklab.')))")
    assert _run_fresh(code) == []


def test_the_lq_api_loads_neither_learning_nor_the_cli():
    # build_lq needs primitives alone; the LQ statics run the closed forms
    # and never the Chebyshev root finder that loads numpy.polynomial
    code = f"""
import sys, berklab
model = berklab.build_lq(berklab.LQParams(1, 1, 1, 1), 0.0, 2.0, 0.5, 0.3, 3.0)
print(*sorted(m for m in sys.modules if m.startswith("berklab.")))
berklab.find_equilibria(model)
berklab.comparative_statics(model, "kappa", 0.01)
berklab.disparity_report(model, 0.5, -0.5)
{_loaded("berklab.learning", "berklab.multigroup", "berklab.truncnorm",
         "berklab.cli", "berklab.config", "numpy.polynomial")}
"""
    assert _run_fresh(code) == ["berklab.primitives"] + ["False"] * 6


def _modules_after(*runs):
    """(exit code, berklab modules loaded so far) after each CLI run on
    three_equilibria.ini, the runs made in turn in one fresh interpreter."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "three_equilibria.ini")
    code = f"""
import contextlib, io, sys, tempfile
from berklab.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()):
    for i, (name, *flags) in enumerate({list(runs)!r}):
        code = main([name, {config!r}, *flags, "--out-dir", f"{{out}}/{{i}}"])
        print(code, *sorted(m[8:] for m in sys.modules if m.startswith("berklab.")),
              sep=",")
"""
    return [(int(code), set(mods)) for code, *mods in
            (word.split(",") for word in _run_fresh(code))]


def test_the_lq_commands_load_neither_learning_nor_multigroup():
    solve, *others = _modules_after(["solve"], ["check"],
                                    ["compare", "--param", "kappa"], ["disparity"])
    assert solve == (0, {"best_response", "chebyshev", "cli", "config",
                         "equilibrium", "errors", "primitives", "rootfind"})
    assert [code for code, _ in others] == [0, 0, 0]
    assert others[-1][1] == solve[1] | {"analysis"}


def test_learn_loads_neither_multigroup_nor_analysis():
    [(code, modules)] = _modules_after(["learn", "--horizon", "200"])
    assert code == 0 and "learning" in modules
    assert not modules & {"multigroup", "analysis"}
