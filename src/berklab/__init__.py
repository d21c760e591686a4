"""Numerical laboratory for a career-concerns assessment game in which
society learns about effort productivity under a dogmatic misbelief about
ability: equilibrium computation, stability, comparative statics,
discrimination disparities, and the stochastic learning dynamics that
select the stable equilibria.

Importing the package loads none of its modules: each public name below is
read from its defining module, loaded on first use, at every access (PEP
562), so a caller pays only for the modules its calls run.  No copy is
kept here, so a name rebound in its defining module is seen through the
package as well; a submodule named as an attribute is imported on access.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("ComparativeStaticsResult", "DisparityReport",
                 "FirstOrderComparison", "GapDecomposition",
                 "comparative_statics", "disparity_report",
                 "first_order_comparison", "gap_decomposition",
                 "weak_set_order_leq"),
    "best_response": ("BestResponseEngine",),
    "equilibrium": ("EquilibriumPoint", "EquilibriumSet", "find_equilibria",
                    "kl_divergence", "psi_tilde"),
    "errors": ("BerklabError", "ConfigError", "InvariantViolation",
               "NumericalError"),
    "learning": ("ConvergenceReport", "LearningState", "OdeSystem",
                 "SteadyState", "Trajectory", "TransformedModel",
                 "TruncNormalPrior", "evaluator_step", "fisher_information",
                 "limiting_ode", "monte_carlo_convergence", "phase_field",
                 "posterior_params", "simulate", "transform"),
    "multigroup": ("EigenReport", "GroupPopulation", "MultigroupEquilibrium",
                   "color_blind_equilibria", "color_sighted_equilibria",
                   "color_sighted_equilibrium", "eigen_check",
                   "monte_carlo_multigroup", "sensitivity",
                   "sherman_morrison_inverse", "simulate_multigroup"),
    "primitives": ("AssumptionReport", "Factorization", "LQParams",
                   "ModelPrimitives", "Smooth", "build_lq", "build_power",
                   "check_assumptions"),
}
_OWNER = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
          for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"chebyshev", "cli", "config", "rootfind",
                                     "truncnorm"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is not None:  # sys.modules first: import_module costs 0.5 us
        return getattr(sys.modules.get(module) or importlib.import_module(module), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
