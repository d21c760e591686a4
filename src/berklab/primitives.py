"""Primitives of the evaluator-agent assessment game.

An agent picks effort ``a`` at cost ``c(a)``; an evaluator picks an
assessment intensity ``h`` in [0, 1] at cost ``kappa(h)``, which shrinks the
outcome noise variance to ``1/h - 1``.  The outcome is

    X = ability + r(a, beta) + noise,

where ``beta`` is the effort productivity society learns about.  Society
holds a dogmatic belief ``mu_hat`` about mean ability; the gap
``delta_mu = mu_hat - mu_star`` is the ability misspecification.

The linear-quadratic (LQ) specialization ``r = beta*a``, ``c(a) = c a^2/2``,
``kappa(h) = kappa h^2/2`` admits closed-form best responses and is the
workhorse configuration; arbitrary smooth callables are also supported.
A primitive wrapped in ``Smooth`` carries its exact derivatives, which the
numeric first-order conditions read in place of finite differences.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Fn1 = Callable[[float], float]
Fn2 = Callable[[float, float], float]

BOUNDARY_TOL = 1e-9
CONVEX_POINTS = 64  # points of each convexity check in check_assumptions
LQ_PARAMETERS = ("lambda_e", "delta", "c", "kappa")  # raw LQ levers
PERTURBABLE = ("delta_mu",) + LQ_PARAMETERS  # what comparative statics moves


@dataclass(frozen=True)
class Smooth:
    """A primitive with its exact derivatives in its first argument.

    Calls forward to ``fn``.  ``d1`` and ``d2`` take ``fn``'s arguments and
    return its first and second derivative in the first one: effort a for
    ``r``, ``cost`` and ``v_e``, assessment h for ``assess_cost``.  ``d2``
    may be None; the engine then differences ``fn`` for it, as it does
    for every derivative of a plain callable.  Like the primitives, either
    may be scalar-only.  The derivatives travel with the callable, so
    replacing a primitive by a plain one (``dataclasses.replace``) drops
    them too: none can outlive the function they differentiate.
    """

    fn: Callable
    d1: Callable
    d2: Optional[Callable] = None

    def __call__(self, *args):
        return self.fn(*args)


@dataclass(frozen=True)
class LQParams:
    """Scales of the linear-quadratic specialization.

    ``lambda1 = lambda_e + delta*lambda_a`` weights effective effort in the
    evaluator's payoff, ``lambda2 = lambda_a`` weights the agent's effort
    cost, and ``delta`` is the share of effective effort passed through to
    the market reward.
    """

    c: float
    kappa: float
    lambda_e: float
    lambda_a: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("c", "kappa", "lambda_e", "lambda_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.c > 0.0:
            raise ValueError("effort cost scale c must be positive")
        if not self.kappa > 0.0:
            raise ValueError("assessment cost scale kappa must be positive")
        if not self.lambda_e > 0.0:
            raise ValueError("evaluator effort weight lambda_e must be positive")
        if self.lambda_a < 0.0:
            raise ValueError("agent weight lambda_a must be nonnegative")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("market passthrough delta must lie in [0, 1]")

    @property
    def lambda1(self) -> float:
        return self.lambda_e + self.delta * self.lambda_a

    @property
    def lambda2(self) -> float:
        return self.lambda_a


@dataclass(frozen=True)
class Factorization:
    """Multiplicative structure R(h, beta) = g1(beta) g2(h).

    ``g1`` and ``g2`` must be strictly increasing and strictly positive on
    the interiors of their domains; ``g1_inv`` inverts ``g1`` on the
    productivity support.  Learning simulations require this structure.

    Each callable may be scalar-only: ``transform`` probes it once on a
    grid (``best_response.array_form``) and applies it entry by entry when
    it does not map arrays.
    """

    g1: Fn1
    g2: Fn1
    g1_inv: Fn1


@dataclass(frozen=True)
class ModelPrimitives:
    """Model functions plus the truth and society's misbelief.

    All callables must accept nonnegative real arguments; the productivity
    argument of ``r`` and ``v_e`` must be defined on all of [0, inf), since
    best-fit searches may evaluate below ``beta_lo``.

    Each callable may be scalar-only: the engine probes it once
    (``best_response.array_form``) and applies it entry by entry when it
    does not map arrays; one that accepts arrays must act on them
    elementwise.  ``r``, ``cost``, ``v_e`` and ``assess_cost`` may be
    ``Smooth``: the engine's first-order conditions then read their exact
    derivatives (probed the same way), and five-point differences of the
    callable otherwise.
    """

    r: Fn2
    cost: Fn1
    assess_cost: Fn1
    v_e: Fn2
    v_m: Fn2
    mu_star: float
    beta_star: float
    mu_hat: float
    beta_lo: float
    beta_hi: float
    lq: Optional[LQParams] = None
    factorization: Optional[Factorization] = None

    def __post_init__(self):
        if not (math.isfinite(self.beta_lo) and math.isfinite(self.beta_hi)):
            raise ValueError("beta_lo and beta_hi must be finite")
        if not self.beta_lo > 0.0:
            raise ValueError("beta_lo must be positive: a zero lower bound leaves "
                             "productivity unidentified at zero assessment")
        if not self.beta_lo < self.beta_star < self.beta_hi:
            raise ValueError("beta_star must lie strictly inside (beta_lo, beta_hi)")
        if not (math.isfinite(self.mu_hat) and math.isfinite(self.mu_star)):
            raise ValueError("mu_star and mu_hat must be finite")

    @property
    def delta_mu(self) -> float:
        """Ability misspecification mu_hat - mu_star (negative: underestimate)."""
        return self.mu_hat - self.mu_star

    def with_delta_mu(self, delta_mu: float) -> "ModelPrimitives":
        return dataclasses.replace(self, mu_hat=self.mu_star + delta_mu)

    def with_beta_star(self, beta_star: float) -> "ModelPrimitives":
        return dataclasses.replace(self, beta_star=beta_star)


def build_lq(params: LQParams, mu_star: float, beta_star: float, mu_hat: float,
             beta_lo: float, beta_hi: float) -> ModelPrimitives:
    """Assemble LQ primitives; best responses then have closed forms."""
    c, kap = params.c, params.kappa
    l1, l2, delta = params.lambda1, params.lambda2, params.delta

    def r(a, beta):
        return beta * a

    def cost(a):
        return 0.5 * c * a * a

    def assess_cost(h):
        return 0.5 * kap * h * h

    def v_e(a, beta):
        return l1 * beta * a - 0.5 * l2 * c * a * a

    def v_m(a, beta):
        return delta * beta * a

    fac = Factorization(
        g1=lambda beta: beta * beta,
        g2=lambda h: h / c,
        g1_inv=lambda x: np.sqrt(x),
    )
    return ModelPrimitives(r=r, cost=cost, assess_cost=assess_cost, v_e=v_e,
                           v_m=v_m, mu_star=mu_star, beta_star=beta_star,
                           mu_hat=mu_hat, beta_lo=beta_lo, beta_hi=beta_hi,
                           lq=params, factorization=fac)


def build_power(gamma: float, c_scale: float, kappa_scale: float,
                lambda1: float, lambda2: float, mu_star: float,
                beta_star: float, mu_hat: float, beta_lo: float,
                beta_hi: float, market_share: float = 0.0) -> ModelPrimitives:
    """Power-cost variant: r = beta*a, c(a) = c_scale a^gamma / gamma.

    Exercises the general (root-finding) code paths against the known
    solution a = (h beta / c_scale)^(1/(gamma-1)); the effective-effort
    factorization R = g1(beta) g2(h) is exact, so learning simulations are
    supported.  ``r``, ``cost``, ``v_e`` and ``assess_cost`` are ``Smooth``
    with their exact derivatives, except c'' for gamma < 2, which is
    unbounded at zero effort and left to the engine's differences.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1 for a strictly convex cost")

    # each derivative keeps the broadcast shape of its arguments, which the
    # engine's array probe asks of it
    def r(a, beta):
        return beta * a

    def r_a(a, beta):
        return beta + 0.0 * a

    def r_aa(a, beta):
        return 0.0 * a * beta

    def cost(a):
        return c_scale * a ** gamma / gamma

    def cost_a(a):
        return c_scale * a ** (gamma - 1.0)

    def cost_aa(a):
        return c_scale * (gamma - 1.0) * a ** (gamma - 2.0)

    def assess_cost(h):
        return 0.5 * kappa_scale * h * h

    def assess_cost_h(h):
        return kappa_scale * h

    def v_e(a, beta):
        return lambda1 * beta * a - lambda2 * cost(a)

    def v_e_a(a, beta):
        return lambda1 * beta - lambda2 * cost_a(a)

    def v_m(a, beta):
        return market_share * beta * a

    p = 1.0 / (gamma - 1.0)
    q = gamma / (gamma - 1.0)
    fac = Factorization(
        g1=lambda beta: beta ** q,
        g2=lambda h: (h / c_scale) ** p,
        g1_inv=lambda x: x ** (1.0 / q),
    )
    return ModelPrimitives(r=Smooth(r, r_a, r_aa),
                           cost=Smooth(cost, cost_a, cost_aa if gamma >= 2.0 else None),
                           assess_cost=Smooth(assess_cost, assess_cost_h),
                           v_e=Smooth(v_e, v_e_a),
                           v_m=v_m, mu_star=mu_star, beta_star=beta_star,
                           mu_hat=mu_hat, beta_lo=beta_lo, beta_hi=beta_hi,
                           lq=None, factorization=fac)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    location: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    """Grid verification of the regularity conditions on best responses.

    A report with every flag true certifies, on the tested grid, that effort
    vanishes at zero assessment or productivity and is strictly increasing,
    that effective effort additionally has strictly increasing differences,
    that assessment is interior and strictly increasing, and that both cost
    functions are strictly convex.
    """

    checks: dict[str, CheckResult]
    grid_shape: tuple[int, int]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def first_failure(self) -> tuple[str, CheckResult] | None:
        for name, res in self.checks.items():
            if not res.passed:
                return name, res
        return None


def _first_failure(*cases: tuple[np.ndarray, str]) -> CheckResult:
    """Each case is a mask over grid points, true where the check fails,
    and its detail: failed at the first index (row-major) of the first case
    that fails anywhere, else passed."""
    for bad, detail in cases:
        where = np.argwhere(bad)
        if where.size:
            return CheckResult(False, tuple(int(i) for i in where[0]), detail)
    return CheckResult(True)


def check_assumptions(model: ModelPrimitives, grid: int = 64) -> AssumptionReport:
    """Numerically verify the regularity assumptions on a grid x grid mesh
    of assessments in [0, 1] and productivities on the support.

    Violations are reported, not raised; the report carries the grid index
    of the first offending point per check.  ValueError unless every
    comparison has points to compare: grid >= 2.
    """
    from .best_response import BestResponseEngine
    from .errors import BerklabError
    from .rootfind import REL_STEP

    if grid < 2:
        raise ValueError(f"the checks need grid >= 2 points per axis, got {grid}")
    engine = BestResponseEngine(model)
    hs = np.linspace(0.0, 1.0, grid)
    betas = np.linspace(model.beta_lo, model.beta_hi, grid)

    a_grid = engine.effort(hs[:, None], betas)
    r_grid = engine._r(a_grid, betas)
    assessment_failure = ""
    try:
        h_of_beta = engine.assessment(betas)
    except BerklabError as exc:
        h_of_beta = None
        assessment_failure = str(exc)

    # the agent's condition h r_a - c' at zero effort, by secants over one fd1
    # step: fd1's edge rule reads c'(0) = -3.3e-7 on c = a^2.5 / 2.5
    c_a = (engine._cost(REL_STEP) - engine._cost(0.0)) / REL_STEP
    r_a = (engine._r(REL_STEP, 0.0) - engine._r(0.0, 0.0)) / REL_STEP
    # a difference fails at the first point of its stencil; effort and
    # effective effort vanish at h = 0, so their rise in productivity is
    # checked on the rows h > 0 only
    positive_h = hs[:, None] > 0.0
    a_pts = np.linspace(0.0, max(float(a_grid.max()) * 1.05, 1e-3), CONVEX_POINTS)
    k_pts = np.linspace(0.0, 1.0, CONVEX_POINTS)
    checks = {
        "effort_zero_boundary": _first_failure(
            (np.full((1, grid), -c_a > BOUNDARY_TOL), "a(0, beta) != 0"),
            ((hs * r_a - c_a > BOUNDARY_TOL)[:, None], "a(h, 0) != 0")),
        "effort_increasing_in_assessment": _first_failure(
            (np.diff(a_grid, axis=0) <= 0.0, "")),
        "effort_increasing_in_productivity": _first_failure(
            ((np.diff(a_grid, axis=1) <= 0.0) & positive_h, "")),
        "effective_effort_increasing_in_assessment": _first_failure(
            (np.diff(r_grid, axis=0) <= 0.0, "")),
        "effective_effort_increasing_in_productivity": _first_failure(
            ((np.diff(r_grid, axis=1) <= 0.0) & positive_h, "")),
        "effective_effort_increasing_differences": _first_failure(
            (np.diff(np.diff(r_grid, axis=0), axis=1) <= 0.0, "")),
    }
    if h_of_beta is None:
        checks["assessment_increasing"] = CheckResult(False, None,
                                                      assessment_failure)
        checks["assessment_interior"] = CheckResult(False, None,
                                                    assessment_failure)
    else:
        checks["assessment_increasing"] = _first_failure(
            (np.diff(h_of_beta) <= 0.0, ""))
        checks["assessment_interior"] = _first_failure(
            (~((h_of_beta > 0.0) & (h_of_beta < 1.0)), ""))
    checks["effort_cost_convex"] = _first_failure(
        (np.diff(engine._cost(a_pts), 2) <= 0.0, ""))
    checks["assessment_cost_convex"] = _first_failure(
        (np.diff(engine._assess_cost(k_pts), 2) <= 0.0, ""))
    checks["effort_effect_zero"] = _first_failure(
        (np.abs(engine._r(np.zeros(grid), betas)) > BOUNDARY_TOL,
         "r(0, beta) != 0"),
        (np.abs(engine._r(a_pts, np.zeros_like(a_pts))) > BOUNDARY_TOL, "r(a, 0) != 0"))

    return AssumptionReport(checks=checks, grid_shape=(grid, grid))
