"""Multi-group extension: group-blind versus group-sighted impartial assessment.

Blind assessment pools the groups into one average agent, so its equilibria
are the single-agent ones at the population-weighted misspecification.
Sighted impartial assessment keeps per-group beliefs but forces a common
assessment intensity; for small misspecifications the joint belief map is a
contraction whose Jacobian is rank-one, which yields closed-form
Sherman-Morrison sensitivities and an explicit eigenvalue bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import LQ_PARAMETERS, _with_lq_value
from .best_response import BestResponseEngine
from .equilibrium import SCE_KL_TOL, EquilibriumSet, find_equilibria
from .errors import NumericalError
from .learning import (DEFAULT_RADIUS, TruncNormalPrior, _as_transformed,
                       _record_stride, _run_engine)
from .primitives import ModelPrimitives

FIXED_POINT_TOL = 1e-10
MAX_ITER = 500
DENSE_LIMIT = 32  # largest J whose spectrum eigen_check solves densely


@dataclass(frozen=True)
class GroupPopulation:
    """J groups sharing primitives and support, with per-group truths.

    ``deltas`` are the per-group ability misspecifications; the template
    model's own mu_hat and beta_star are ignored.  Population weights must
    be positive and sum to one.
    """

    model: ModelPrimitives
    alphas: tuple[float, ...]
    deltas: tuple[float, ...]
    beta_stars: tuple[float, ...]
    mu_stars: tuple[float, ...] = ()

    def __post_init__(self):
        j = len(self.alphas)
        if not (len(self.deltas) == len(self.beta_stars) == j) or j < 1:
            raise ValueError("alphas, deltas, beta_stars must share a length >= 1")
        if any(a <= 0.0 for a in self.alphas) or abs(sum(self.alphas) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to one")
        lo, hi = self.model.beta_lo, self.model.beta_hi
        if any(not lo < b < hi for b in self.beta_stars):
            raise ValueError("each group truth must lie inside the support")
        if not self.mu_stars:
            object.__setattr__(self, "mu_stars", tuple(0.0 for _ in self.alphas))
        elif len(self.mu_stars) != j:
            raise ValueError("mu_stars length mismatch")

    @property
    def size(self) -> int:
        return len(self.alphas)

    @property
    def delta_bar(self) -> float:
        """Population-weighted average misspecification."""
        return float(sum(a * d for a, d in zip(self.alphas, self.deltas)))


def color_blind_equilibria(pop: GroupPopulation) -> EquilibriumSet:
    """Equilibria when group identity is unobservable.

    All agents are assessed as average members, so the set coincides with
    the single-agent equilibria at misspecification delta_bar.  Requires a
    common group truth (pooling with heterogeneous truths has no
    single-agent counterpart).
    """
    if len(set(pop.beta_stars)) != 1:
        raise ValueError("blind assessment requires a common beta_star "
                         "across groups")
    model = pop.model.with_beta_star(pop.beta_stars[0]).with_delta_mu(pop.delta_bar)
    return find_equilibria(model)


@dataclass(frozen=True)
class MultigroupEquilibrium:
    """Fixed point of the joint belief map under a shared assessment."""

    beta_hat: np.ndarray
    h_hat: float
    sce_flags: tuple[bool, ...]
    g: np.ndarray            # per-group belief-map factors (rank-one Jacobian)
    grad_h: np.ndarray       # assessment gradient at the fixed point
    eigenvalues: np.ndarray  # spectrum of the fixed-point Jacobian minus identity
    residual: float
    iterations: int
    contraction_modulus: float
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    history: tuple = ()

    @property
    def in_domain(self) -> bool:
        return bool(np.all(self.beta_hat >= self.domain_lo - 1e-12)
                    and np.all(self.beta_hat <= self.domain_hi + 1e-12))


def color_sighted_equilibrium(pop: GroupPopulation,
                              keep_history: bool = False) -> MultigroupEquilibrium:
    """Unique small-misspecification equilibrium by fixed-point iteration.

    Iterates the joint belief map from the truth vector; plain iteration is
    the contraction construction itself.  When the computed contraction
    modulus reaches one, iteration is damped by half and a warning is
    emitted (the small-misspecification guarantee no longer applies).
    """
    model = pop.model
    eng = BestResponseEngine(model)
    alphas = np.asarray(pop.alphas)
    truths = np.asarray(pop.beta_stars, dtype=float)
    deltas = np.asarray(pop.deltas, dtype=float)
    betas = truths.copy()
    if np.any(np.abs(deltas) > 0.1 * truths):
        warnings.warn("misspecifications are large relative to the group "
                      "truths; uniqueness/contraction is not guaranteed")

    lo = np.where(deltas > 0, model.beta_lo, truths)
    hi = np.where(deltas > 0, truths, model.beta_hi)

    def factors(h, psi):
        # g_j = (R_h(h, b*_j) - R_h(h, psi_j)) / R_b(h, psi_j)
        rh_psi, rb_psi = eng.r_partials(h, psi)
        return (eng.r_partials(h, truths)[0] - rh_psi) / rb_psi

    history = [betas.copy()] if keep_history else []
    modulus = 0.0
    damping = 1.0
    residual = np.inf
    for it in range(1, MAX_ITER + 1):
        h = float(eng.assessment_multigroup(betas, alphas))
        nxt = eng.best_fit(h, truths, deltas)
        step_mod = float(np.linalg.norm(factors(h, nxt))
                         * np.linalg.norm(eng.assessment_gradient(nxt, alphas)))
        modulus = max(modulus, step_mod)
        if step_mod >= 1.0 and damping == 1.0:
            warnings.warn(f"contraction modulus {step_mod:.3g} >= 1; "
                          "falling back to damped iteration")
            damping = 0.5
        new = betas + damping * (nxt - betas)
        residual = float(np.max(np.abs(new - betas)))
        betas = new
        if keep_history:
            history.append(betas.copy())
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise NumericalError(f"fixed-point iteration did not reach {FIXED_POINT_TOL:g} "
                             f"within {MAX_ITER} steps (residual {residual:.3g})")

    h = float(eng.assessment_multigroup(betas, alphas))
    g = factors(h, betas)
    gh = eng.assessment_gradient(betas, alphas)
    shift = float(gh @ g)
    eigs = np.full(pop.size, -1.0)
    eigs[0] = -1.0 + shift
    sce = tuple((eng._divergence(h, betas, truths, deltas) <= SCE_KL_TOL).tolist())
    return MultigroupEquilibrium(beta_hat=betas, h_hat=h, sce_flags=sce,
                                 g=g, grad_h=gh, eigenvalues=np.sort(eigs),
                                 residual=residual, iterations=it,
                                 contraction_modulus=modulus,
                                 domain_lo=lo, domain_hi=hi,
                                 history=tuple(history))


def sherman_morrison_inverse(u, v) -> np.ndarray:
    """Inverse of -I + u v^T.

    With A = -I the rank-one update formula reduces to
    -I - u v^T / (1 - v^T u); singular exactly when v^T u = 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = float(v @ u)
    if abs(1.0 - s) < 1e-14:
        raise np.linalg.LinAlgError("matrix -I + u v^T is singular (v^T u = 1)")
    j = u.size
    return -np.eye(j) - np.outer(u, v) / (1.0 - s)


def sensitivity(pop: GroupPopulation, eq: MultigroupEquilibrium,
                parameter: str) -> np.ndarray:
    """Derivative of the equilibrium belief vector in a model parameter.

    ``parameter`` is ``"delta_<j>"`` for group j's misspecification, or one
    of the LQ levers (lambda_e, delta, c, kappa), taken as the raw
    parameter.  Uses the rank-one inverse of the fixed-point Jacobian; no
    equilibrium recomputation is needed.
    """
    model = pop.model
    eng = BestResponseEngine(model)
    g, gh = eq.g, eq.grad_h
    s = float(gh @ g)
    if abs(1.0 - s) < 1e-10:
        raise NumericalError("fixed-point Jacobian is near singular")
    amplify = np.eye(pop.size) + np.outer(g, gh) / (1.0 - s)

    if parameter.startswith("delta_") and parameter[6:].isdigit():
        j = int(parameter[6:])
        if not 0 <= j < pop.size:
            raise ValueError(f"group index out of range in {parameter!r}")
        _, rb = eng.r_partials(eq.h_hat, float(eq.beta_hat[j]))
        dpsi = np.zeros(pop.size)
        dpsi[j] = -1.0 / rb
        return amplify @ dpsi

    if parameter in LQ_PARAMETERS:
        if model.lq is None:
            raise ValueError("structural sensitivities need an LQ model")
        # difference the belief map (the best fit at the shared assessment)
        # at beta_hat: a lever moves the fit through h and may move it
        # directly (c enters b^2 = b*^2 - delta c / h).  Absolute step in the
        # raw parameter, one-sided where LQParams ends its domain (delta in
        # [0, 1]); a zero value still gets a step
        raw = getattr(model.lq, parameter)
        step = 1e-6 * (abs(raw) or 1.0)
        lo, hi = raw - step, raw + step
        if parameter == "delta":
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        alphas = np.asarray(pop.alphas)

        def psi(value):
            e = BestResponseEngine(_with_lq_value(model, parameter, value))
            return e.best_fit(e.assessment_multigroup(eq.beta_hat, alphas),
                              np.asarray(pop.beta_stars), np.asarray(pop.deltas))

        return amplify @ ((psi(hi) - psi(lo)) / (hi - lo))

    raise ValueError(f"unknown parameter {parameter!r}")


@dataclass(frozen=True)
class EigenReport:
    eigenvalues: np.ndarray
    rank_one_shift: float     # the single eigenvalue moved off -1
    bound: float              # Bauer-Fike radius around -1
    bound_holds: bool
    all_negative: bool


def eigen_check(eq: MultigroupEquilibrium) -> EigenReport:
    """Spectrum of the fixed-point Jacobian with the Bauer-Fike certificate.

    The Jacobian is -I + g grad_h^T, so the spectrum is -1 (multiplicity
    J-1) plus -1 + grad_h . g; every eigenvalue must lie within
    |g|_2 |grad_h|_2 of -1.
    """
    j = eq.g.size
    if j <= DENSE_LIMIT:
        mat = -np.eye(j) + np.outer(eq.g, eq.grad_h)
        eigs = np.sort(np.linalg.eigvals(mat).real)
    else:
        eigs = np.full(j, -1.0)
        eigs[-1] = -1.0 + float(eq.grad_h @ eq.g)
        eigs = np.sort(eigs)
    bound = float(np.linalg.norm(eq.g) * np.linalg.norm(eq.grad_h))
    dev = float(np.max(np.abs(eigs + 1.0)))
    return EigenReport(eigenvalues=eigs,
                       rank_one_shift=-1.0 + float(eq.grad_h @ eq.g),
                       bound=bound,
                       bound_holds=dev <= bound + 1e-12,
                       all_negative=bool(np.all(eigs < 0.0)))


# -- learning under a shared assessment --------------------------------------


@dataclass(frozen=True)
class MultigroupTrajectory:
    """Per-group thinned learning paths with the shared assessment path."""

    periods: np.ndarray
    m: np.ndarray   # (T, J)
    xi: np.ndarray  # (T, J)
    h: np.ndarray   # (T,)
    x: np.ndarray   # (T, J)
    terminal_m: np.ndarray
    terminal_xi: np.ndarray
    equilibrium_m: np.ndarray
    distance_to_equilibrium: float


def simulate_multigroup(pop: GroupPopulation, horizon: int, seed: int,
                        run: int = 0,
                        prior: Optional[Sequence[Optional[TruncNormalPrior]]] = None,
                        stride: Optional[int] = None,
                        zero_noise: bool = False,
                        equilibrium: Optional[MultigroupEquilibrium] = None
                        ) -> MultigroupTrajectory:
    """Simulate the shared-assessment learning process for all groups.

    Each period the evaluator maximizes the population-weighted expected
    value under the groups' independent posteriors; outcomes are drawn
    independently per group.  With one group this reduces exactly (same
    noise streams, same arithmetic) to the single-agent simulator.  The
    terminal beliefs are compared with ``equilibrium``, the population's
    color-sighted equilibrium (solved here when not given).
    """
    tm = _as_transformed(pop.model)
    res = _run_engine(tm, pop.alphas, pop.beta_stars, pop.deltas, pop.mu_stars,
                      runs=1, horizon=horizon, seed=seed, prior=prior,
                      zero_noise=zero_noise,
                      record_stride=_record_stride(stride, horizon),
                      first_run=run)
    eq = color_sighted_equilibrium(pop) if equilibrium is None else equilibrium
    eq_m = tm.g1(eq.beta_hat)
    term_m = res.m[0]
    dist = float(tm.distances(res.m, [eq_m])[0, 0])
    return MultigroupTrajectory(periods=res.rec_n, m=res.rec_m, xi=res.rec_xi,
                                h=res.rec_h, x=res.rec_x,
                                terminal_m=term_m,
                                terminal_xi=res.s[0] / horizon,
                                equilibrium_m=eq_m,
                                distance_to_equilibrium=dist)


@dataclass(frozen=True)
class MultigroupConvergenceReport:
    equilibrium_m: np.ndarray
    distances: np.ndarray
    runs: int
    horizon: int
    radius: float
    seed: int

    @property
    def fraction_within(self) -> float:
        return float(np.mean(self.distances <= self.radius))


def monte_carlo_multigroup(pop: GroupPopulation, runs: int, horizon: int,
                           seed: int, radius: float = DEFAULT_RADIUS,
                           prior: Optional[Sequence[Optional[TruncNormalPrior]]] = None
                           ) -> MultigroupConvergenceReport:
    """Fraction of runs whose terminal belief vector lands near the equilibrium."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    tm = _as_transformed(pop.model)
    res = _run_engine(tm, pop.alphas, pop.beta_stars, pop.deltas, pop.mu_stars,
                      runs=runs, horizon=horizon, seed=seed, prior=prior)
    eq = color_sighted_equilibrium(pop)
    eq_m = tm.g1(eq.beta_hat)
    dists = tm.distances(res.m, [eq_m])[:, 0]
    return MultigroupConvergenceReport(equilibrium_m=eq_m, distances=dists,
                                       runs=runs, horizon=horizon,
                                       radius=radius, seed=seed)
