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
    """Multiplicative structure R(h, beta) = g1(beta) g2(h) + g3(h).

    ``g1`` and ``g2`` must be strictly increasing and strictly positive on
    the interiors of their domains; ``g1_inv`` inverts ``g1`` on the
    productivity support.  Learning simulations require this structure.

    Each callable may be scalar-only: ``transform`` probes it once on a
    grid (``best_response.array_form``) and applies it entry by entry when
    it does not map arrays.
    """

    g1: Fn1
    g2: Fn1
    g3: Fn1
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
    elementwise.
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
        g3=lambda h: 0.0 * h,
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
    supported.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1 for a strictly convex cost")

    def r(a, beta):
        return beta * a

    def cost(a):
        return c_scale * a ** gamma / gamma

    def assess_cost(h):
        return 0.5 * kappa_scale * h * h

    def v_e(a, beta):
        return lambda1 * beta * a - lambda2 * cost(a)

    def v_m(a, beta):
        return market_share * beta * a

    p = 1.0 / (gamma - 1.0)
    q = gamma / (gamma - 1.0)
    fac = Factorization(
        g1=lambda beta: beta ** q,
        g2=lambda h: (h / c_scale) ** p,
        g3=lambda h: 0.0 * h,
        g1_inv=lambda x: x ** (1.0 / q),
    )
    return ModelPrimitives(r=r, cost=cost, assess_cost=assess_cost, v_e=v_e,
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


def _strict_increase(values: np.ndarray, axis: int) -> tuple[bool, tuple | None]:
    d = np.diff(values, axis=axis)
    bad = np.argwhere(d <= 0.0)
    if bad.size:
        return False, tuple(int(i) for i in bad[0])
    return True, None


def check_assumptions(model: ModelPrimitives, n_h: int = 64, n_beta: int = 64,
                      n_a: int = 64) -> AssumptionReport:
    """Numerically verify the regularity assumptions on a rectangular grid.

    Violations are reported, not raised; the report carries the grid index
    of the first offending point per check.  ValueError unless every
    comparison has points to compare: n_h, n_beta >= 2 and n_a >= 3.
    """
    from .best_response import BestResponseEngine
    from .errors import BerklabError

    if n_h < 2 or n_beta < 2 or n_a < 3:
        raise ValueError("the checks need n_h >= 2, n_beta >= 2 and n_a >= 3 "
                         f"grid points, got {n_h}, {n_beta} and {n_a}")
    engine = BestResponseEngine(model)
    hs = np.linspace(0.0, 1.0, n_h)
    betas = np.linspace(model.beta_lo, model.beta_hi, n_beta)

    a_grid = engine.effort(hs[:, None], betas)
    r_grid = engine._r(a_grid, betas)
    assessment_failure = ""
    try:
        h_of_beta = engine.assessment(betas)
    except BerklabError as exc:
        h_of_beta = None
        assessment_failure = str(exc)

    checks: dict[str, CheckResult] = {}

    # effort vanishes at zero assessment / zero productivity
    bad_h0 = np.argwhere(np.abs(a_grid[0]) > BOUNDARY_TOL)
    zero_beta = engine.effort(hs, 0.0)
    bad_b0 = np.argwhere(np.abs(zero_beta) > BOUNDARY_TOL)
    if bad_h0.size:
        checks["effort_zero_boundary"] = CheckResult(False, (0, int(bad_h0[0][0])),
                                                     "a(0, beta) != 0")
    elif bad_b0.size:
        checks["effort_zero_boundary"] = CheckResult(False, (int(bad_b0[0][0]), 0),
                                                     "a(h, 0) != 0")
    else:
        checks["effort_zero_boundary"] = CheckResult(True)

    ok, loc = _strict_increase(a_grid, axis=0)
    checks["effort_increasing_in_assessment"] = CheckResult(ok, loc)
    ok, loc = _strict_increase(a_grid[1:], axis=1)
    checks["effort_increasing_in_productivity"] = CheckResult(ok, loc)

    ok, loc = _strict_increase(r_grid, axis=0)
    checks["effective_effort_increasing_in_assessment"] = CheckResult(ok, loc)
    ok, loc = _strict_increase(r_grid[1:], axis=1)
    checks["effective_effort_increasing_in_productivity"] = CheckResult(ok, loc)

    cross = np.diff(np.diff(r_grid, axis=0), axis=1)
    bad = np.argwhere(cross <= 0.0)
    checks["effective_effort_increasing_differences"] = CheckResult(
        not bad.size, tuple(int(i) for i in bad[0]) if bad.size else None)

    if h_of_beta is None:
        checks["assessment_increasing"] = CheckResult(False, None,
                                                      assessment_failure)
        checks["assessment_interior"] = CheckResult(False, None,
                                                    assessment_failure)
    else:
        ok, loc = _strict_increase(h_of_beta, axis=0)
        checks["assessment_increasing"] = CheckResult(ok, loc)
        interior = (h_of_beta > 0.0) & (h_of_beta < 1.0)
        bad = np.argwhere(~interior)
        checks["assessment_interior"] = CheckResult(
            not bad.size, (int(bad[0][0]),) if bad.size else None)

    a_max = max(float(a_grid.max()) * 1.05, 1e-3)
    a_pts = np.linspace(0.0, a_max, n_a)
    cost_vals = np.array([model.cost(float(a)) for a in a_pts])
    d2 = np.diff(cost_vals, 2)
    bad = np.argwhere(d2 <= 0.0)
    checks["effort_cost_convex"] = CheckResult(
        not bad.size, (int(bad[0][0]),) if bad.size else None)

    k_pts = np.linspace(0.0, 1.0, n_a)
    k_vals = np.array([model.assess_cost(float(h)) for h in k_pts])
    d2 = np.diff(k_vals, 2)
    bad = np.argwhere(d2 <= 0.0)
    checks["assessment_cost_convex"] = CheckResult(
        not bad.size, (int(bad[0][0]),) if bad.size else None)

    r_zero_a = np.array([model.r(0.0, float(b)) for b in betas])
    r_zero_b = np.array([model.r(float(a), 0.0) for a in a_pts])
    bad_a = np.argwhere(np.abs(r_zero_a) > BOUNDARY_TOL)
    bad_b = np.argwhere(np.abs(r_zero_b) > BOUNDARY_TOL)
    if bad_a.size:
        checks["effort_effect_zero"] = CheckResult(False, (int(bad_a[0][0]),),
                                                   "r(0, beta) != 0")
    elif bad_b.size:
        checks["effort_effect_zero"] = CheckResult(False, (int(bad_b[0][0]),),
                                                   "r(a, 0) != 0")
    else:
        checks["effort_effect_zero"] = CheckResult(True)

    return AssumptionReport(checks=checks, grid_shape=(n_h, n_beta))
