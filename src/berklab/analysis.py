"""Comparative statics, cross-group disparities, and the comparison with
first-order misspecification.

Stable-equilibrium distortion sets are compared as whole sets in the weak
set order: unstable equilibria are excluded because their comparative
statics have no learning foundation, and perturbations are never matched
point-by-point.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .best_response import BestResponseEngine
from .chebyshev import certified_roots
from .equilibrium import DEDUP_TOL, DEFAULT_GRID, EquilibriumSet, find_equilibria
from .errors import InvariantViolation
from .primitives import ModelPrimitives, build_lq

LQ_PARAMETERS = ("lambda_e", "delta", "c", "kappa")
PERTURBABLE = ("delta_mu",) + LQ_PARAMETERS
SHIFT_GRID = 33  # productivities at which comparative_statics compares assessments


def weak_set_order_leq(a, b) -> bool:
    """A <= B in the weak set order.

    For finite sets this reduces to min A <= min B and max A <= max B:
    every element of A sits below some element of B and every element of B
    sits above some element of A.
    """
    a = tuple(a)
    b = tuple(b)
    if not a or not b:
        raise ValueError("weak set order requires nonempty sets")
    return min(a) <= min(b) and max(a) <= max(b)


def _distortions(eqs: EquilibriumSet, beta_star: float) -> tuple[float, ...]:
    return tuple(abs(p.beta_hat - beta_star) for p in eqs.stable_points)


def perturb_model(model: ModelPrimitives, parameter: str,
                  rel_step: float) -> ModelPrimitives:
    """Rebuild the model with one raw parameter scaled by (1 + rel_step).

    ``delta_mu`` scales the misspecification itself and works for any
    primitives; the remaining parameters require an LQ model.
    """
    if parameter == "delta_mu":
        return model.with_delta_mu(model.delta_mu * (1.0 + rel_step))
    if parameter not in LQ_PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}; "
                         f"expected one of {PERTURBABLE}")
    if model.lq is None:
        raise ValueError("structural perturbations need an LQ model; "
                         "only delta_mu can be perturbed for custom primitives")
    return _with_lq_value(model, parameter,
                          getattr(model.lq, parameter) * (1.0 + rel_step))


def _with_lq_value(model: ModelPrimitives, parameter: str,
                   value: float) -> ModelPrimitives:
    """Rebuild an LQ model with one raw parameter set to ``value``."""
    params = dataclasses.replace(model.lq, **{parameter: value})
    return build_lq(params, model.mu_star, model.beta_star, model.mu_hat,
                    model.beta_lo, model.beta_hi)


@dataclass(frozen=True)
class ComparativeStaticsResult:
    parameter: str
    rel_step: float
    baseline_distortions: tuple[float, ...]
    perturbed_distortions: tuple[float, ...]
    assessment_shift: str  # "up" | "down" | "none" | "mixed"
    weak_set_order_increase: bool
    weak_set_order_decrease: bool


def comparative_statics(model: ModelPrimitives, parameter: str,
                        rel_step: float = 0.01) -> ComparativeStaticsResult:
    """Stable-equilibrium distortion sets before and after a small shock.

    The assessment map is compared pointwise on a productivity grid first;
    a mixed shift direction is reported (the ordering conclusions only
    apply when the shift is uniform).
    """
    perturbed = perturb_model(model, parameter, rel_step)
    if parameter == "delta_mu":
        shift = "none"
    else:
        betas = np.linspace(model.beta_lo, model.beta_hi, SHIFT_GRID)
        h0 = BestResponseEngine(model).assessment(betas)
        h1 = BestResponseEngine(perturbed).assessment(betas)
        if np.all(h1 > h0):
            shift = "up"
        elif np.all(h1 < h0):
            shift = "down"
        elif np.all(h1 == h0):
            shift = "none"
        else:
            shift = "mixed"

    base = _distortions(find_equilibria(model), model.beta_star)
    pert = _distortions(find_equilibria(perturbed), perturbed.beta_star)
    return ComparativeStaticsResult(
        parameter=parameter,
        rel_step=rel_step,
        baseline_distortions=base,
        perturbed_distortions=pert,
        assessment_shift=shift,
        weak_set_order_increase=weak_set_order_leq(base, pert),
        weak_set_order_decrease=weak_set_order_leq(pert, base),
    )


# -- two-group disparities ----------------------------------------------


@dataclass(frozen=True)
class DisparityReport:
    """Cross-group outcome gaps at a pair of self-confirming equilibria.

    Group m's ability is overestimated (delta_m > 0), group w's is
    underestimated (delta_w < 0); otherwise the groups are identical.
    Rewards and welfare are evaluated under the true outcome distribution.
    """

    delta_m: float
    delta_w: float
    belief_m: float
    belief_w: float
    assessment_m: float
    assessment_w: float
    true_effort_m: float
    true_effort_w: float
    perceived_effort_m: float
    perceived_effort_w: float
    reward_m: float
    reward_w: float
    welfare_m: float
    welfare_w: float
    reward_gap_misbelief_part: float  # mu_hat_m - mu_hat_w > 0
    reward_gap_market_part: float     # v_m bracket, <= 0 when v_m rewards effort
    orderings: dict[str, bool]

    @property
    def all_orderings_hold(self) -> bool:
        return all(self.orderings.values())


def _select_sce(eqs: EquilibriumSet, beta_star: float, selector: str):
    stable_sces = [p for p in eqs.stable_points if p.is_sce]
    if not stable_sces:
        raise InvariantViolation("no stable self-confirming equilibrium to select")
    if selector == "least_distorted":
        return min(stable_sces, key=lambda p: abs(p.beta_hat - beta_star))
    if selector == "largest_belief":
        return max(stable_sces, key=lambda p: p.beta_hat)
    if selector == "smallest_belief":
        return min(stable_sces, key=lambda p: p.beta_hat)
    raise ValueError(f"unknown selector {selector!r}")


def disparity_report(model: ModelPrimitives, delta_m: float, delta_w: float,
                     selector: str = "least_distorted") -> DisparityReport:
    """Evaluate the cross-group gaps for misspecifications delta_m > 0 > delta_w."""
    if not (delta_m > 0.0 > delta_w):
        raise ValueError("need delta_m > 0 > delta_w")
    model_m = model.with_delta_mu(delta_m)
    model_w = model.with_delta_mu(delta_w)
    eq_m = _select_sce(find_equilibria(model_m), model.beta_star, selector)
    eq_w = _select_sce(find_equilibria(model_w), model.beta_star, selector)

    eng = BestResponseEngine(model)
    bstar = model.beta_star
    h_m, h_w = eq_m.h_hat, eq_w.h_hat
    a_true_m = float(eng.effort(h_m, bstar))
    a_true_w = float(eng.effort(h_w, bstar))
    a_perc_m = float(eng.effort(h_m, eq_m.beta_hat))
    a_perc_w = float(eng.effort(h_w, eq_w.beta_hat))

    mu_hat_m = model.mu_star + delta_m
    mu_hat_w = model.mu_star + delta_w
    vm_m = float(model.v_m(a_perc_m, eq_m.beta_hat))
    vm_w = float(model.v_m(a_perc_w, eq_w.beta_hat))
    reward_m = mu_hat_m + vm_m
    reward_w = mu_hat_w + vm_w
    welfare_m = reward_m - float(model.cost(a_true_m))
    welfare_w = reward_w - float(model.cost(a_true_w))

    # the reward and welfare orderings are guaranteed only when the market
    # does not reward effort; with v_m > 0 they may legitimately flip
    orderings = {
        "w_belief_above_truth": eq_w.beta_hat > bstar,
        "m_belief_below_truth": eq_m.beta_hat < bstar,
        "w_assessed_more": h_w > h_m,
        "effort_chain": a_perc_w > a_true_w > a_true_m > a_perc_m,
        "m_out_earns_w": reward_m > reward_w,
        "m_welfare_higher": welfare_m > welfare_w,
    }
    return DisparityReport(
        delta_m=delta_m, delta_w=delta_w,
        belief_m=eq_m.beta_hat, belief_w=eq_w.beta_hat,
        assessment_m=h_m, assessment_w=h_w,
        true_effort_m=a_true_m, true_effort_w=a_true_w,
        perceived_effort_m=a_perc_m, perceived_effort_w=a_perc_w,
        reward_m=reward_m, reward_w=reward_w,
        welfare_m=welfare_m, welfare_w=welfare_w,
        reward_gap_misbelief_part=mu_hat_m - mu_hat_w,
        reward_gap_market_part=vm_m - vm_w,
        orderings=orderings,
    )


# -- first-order misspecification ----------------------------------------


@dataclass(frozen=True)
class FirstOrderComparison:
    beta_ours: float
    beta_fom: float
    gap_ours: float
    gap_fom: float
    frozen_assessment: bool


def first_order_comparison(model: ModelPrimitives,
                           frozen_assessment: bool = False) -> FirstOrderComparison:
    """Least-distorted SCE under our belief map vs first-order misspecification.

    First-order SCEs are the interior roots of that variant's fit gap, by
    ``certified_roots``.  Near the truth the own-belief channel doubles up
    with the productivity channel, so our least-distorted SCE is closer to
    beta_star; raises when
    that ordering fails (expected only for large misspecifications, for
    which a warning is emitted up front).
    """
    m = model
    if abs(m.delta_mu) > 0.1 * m.beta_star:
        warnings.warn("first-order comparison is a small-misspecification "
                      f"result; |delta_mu|={abs(m.delta_mu):.3g} is large "
                      f"relative to beta_star={m.beta_star:.3g}")
    eng = BestResponseEngine(m)
    ours = find_equilibria(m, engine=eng)
    sces = [p for p in ours.points if p.is_sce]
    if not sces:
        raise InvariantViolation("no self-confirming equilibrium in the base model")
    beta_ours = min(sces, key=lambda p: abs(p.beta_hat - m.beta_star)).beta_hat

    def gap_f(beta):
        # effort is read under the truth, productivity is not; the frozen
        # variant keeps the baseline assessment map
        h = (eng.assessment(beta) if frozen_assessment
             else eng.first_order_assessment(beta))
        a0 = eng.effort(h, m.beta_star)
        return m.delta_mu + eng._r(a0, beta) - eng._r(a0, m.beta_star)

    # the first-order belief map is defined where its assessment is interior
    lo, hi = ((m.beta_lo, m.beta_hi) if frozen_assessment
              else eng.first_order_range())
    found = certified_roots(gap_f, lo, hi, DEFAULT_GRID)
    for b in found.near_tangent:
        warnings.warn(f"first-order fit gap comes within its certified error "
                      f"of zero at {b:.9g} without crossing")
    interior = [b for b in found.roots
                if m.beta_lo + DEDUP_TOL < b < m.beta_hi - DEDUP_TOL]
    if not interior:
        raise InvariantViolation("no self-confirming equilibrium in the "
                                 "first-order-misspecification variant")
    beta_fom = min(interior, key=lambda b: abs(b - m.beta_star))

    gap_ours = abs(beta_ours - m.beta_star)
    gap_fom = abs(beta_fom - m.beta_star)
    if m.delta_mu != 0.0 and gap_ours > gap_fom + 1e-12:
        raise InvariantViolation(
            f"distortion ordering violated: ours {gap_ours:.6g} > "
            f"first-order {gap_fom:.6g}")
    return FirstOrderComparison(beta_ours=float(beta_ours),
                                beta_fom=float(beta_fom),
                                gap_ours=float(gap_ours),
                                gap_fom=float(gap_fom),
                                frozen_assessment=frozen_assessment)


@dataclass(frozen=True)
class GapDecomposition:
    term_choice: float        # effort misperception, holding productivity belief
    term_productivity: float  # productivity misperception at the true effort
    total: float              # R(h, beta) - R(h, beta_star)


def gap_decomposition(model: ModelPrimitives, h: float, beta: float,
                      engine: BestResponseEngine | None = None) -> GapDecomposition:
    """Split R(h, beta) - R(h, beta_star) into choice and productivity terms.

    The identity term_choice + term_productivity = total holds exactly by
    construction; the productivity term equals the whole gap under
    first-order misspecification.
    """
    eng = engine if engine is not None else BestResponseEngine(model)
    m = model
    a_b = float(eng.effort(h, beta))
    a_s = float(eng.effort(h, m.beta_star))
    term_choice = m.r(a_b, beta) - m.r(a_s, beta)
    term_prod = m.r(a_s, beta) - m.r(a_s, m.beta_star)
    total = float(eng.effective_effort(h, beta)
                  - eng.effective_effort(h, m.beta_star))
    return GapDecomposition(term_choice=term_choice,
                            term_productivity=term_prod,
                            total=total)
