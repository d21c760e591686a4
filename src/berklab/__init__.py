"""Numerical laboratory for a career-concerns assessment game in which
society learns about effort productivity under a dogmatic misbelief about
ability: equilibrium computation, stability, comparative statics,
discrimination disparities, and the stochastic learning dynamics that
select the stable equilibria."""

from .analysis import (ComparativeStaticsResult, DisparityReport,
                       FirstOrderComparison, GapDecomposition,
                       comparative_statics, disparity_report,
                       first_order_comparison, gap_decomposition,
                       weak_set_order_leq)
from .best_response import BestResponseEngine
from .equilibrium import (EquilibriumPoint, EquilibriumSet, find_equilibria,
                          kl_divergence, kl_minimizer, kl_root, market_belief,
                          psi_tilde)
from .errors import (BerklabError, ConfigError, InvariantViolation,
                     NumericalError)
from .learning import (ConvergenceReport, LearningState, OdeSystem,
                       SteadyState, Trajectory, TransformedModel,
                       TruncNormalPrior, evaluator_step, fisher_information,
                       limiting_ode, monte_carlo_convergence, phase_field,
                       posterior_exact_density, posterior_params, simulate,
                       transform)
from .multigroup import (EigenReport, GroupPopulation, MultigroupEquilibrium,
                         color_blind_equilibria, color_sighted_equilibria,
                         color_sighted_equilibrium, eigen_check, monte_carlo_multigroup,
                         sensitivity, sherman_morrison_inverse,
                         simulate_multigroup)
from .primitives import (AssumptionReport, Factorization, LQParams,
                         ModelPrimitives, build_lq, build_power,
                         check_assumptions)

__version__ = "0.1.0"
