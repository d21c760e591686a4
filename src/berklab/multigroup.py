"""Multi-group extension: group-blind versus group-sighted impartial assessment.

Blind assessment pools the groups into one average agent, so its equilibria
are the single-agent ones at the population-weighted misspecification.
Sighted impartial assessment keeps per-group beliefs but forces a common
assessment intensity.  The groups interact only through that scalar, so the
sighted equilibria are the roots of one function of it, enumerated by
``certified_roots`` like the single-agent ones.  At every member the
Jacobian of the joint belief map is rank-one, which yields closed-form
Sherman-Morrison sensitivities and an explicit eigenvalue bound; whether
the map contracts there (a sink) is a property of the member, read from its
spectrum, not of the method that found it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import COMPARE_SLACK, _with_lq_value
from .best_response import BestResponseEngine, _population
from .chebyshev import certified_roots
from .equilibrium import (DEDUP_TOL, DEFAULT_GRID, DEFAULT_RADIUS, SCE_KL_TOL,
                          EquilibriumSet, find_equilibria)
from .errors import NumericalError
from .learning import (ConvergenceReport, Trajectory, TruncNormalPrior,
                       _as_transformed, _convergence_report, _record_stride,
                       _run_engine, _trajectory)
from .primitives import LQ_PARAMETERS, ModelPrimitives
from .rootfind import brentq_masked

DENSE_LIMIT = 32  # largest J whose spectrum eigen_check solves densely
SINGULAR_TOL = 1e-10  # |1 - v^T u| below which -I + u v^T counts as singular
LEVER_REL_STEP = 1e-6  # relative step in a raw LQ lever for ``sensitivity``


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
        _population(self.beta_stars, self.alphas)
        if not np.all(np.isfinite(np.concatenate((self.deltas, self.mu_stars)))):
            raise ValueError("deltas and mu_stars must be finite")
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

    @functools.cached_property
    def _shared(self) -> _SharedAssessment:
        """The shared-assessment problem, built on first use: the population
        is frozen, so ``color_sighted_equilibrium`` and
        ``color_sighted_equilibria`` share it and its one enumeration."""
        return _SharedAssessment(self)


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
    g: np.ndarray            # per-group belief-map factors (rank-one Jacobian);
                             # 0 for a group pinned at a support edge
    grad_h: np.ndarray       # assessment gradient at the fixed point
    eigenvalues: np.ndarray  # spectrum of the fixed-point Jacobian minus identity
    slope: float             # F'(h_hat) from the enumerator, -1 + grad_h . g
    residual: float          # one step of the joint belief map, sup norm
    iterations: int          # belief-map evaluations of the enumeration
    domain_lo: np.ndarray
    domain_hi: np.ndarray

    @property
    def in_domain(self) -> bool:
        return bool(np.all(self.beta_hat >= self.domain_lo - COMPARE_SLACK)
                    and np.all(self.beta_hat <= self.domain_hi + COMPARE_SLACK))

    @property
    def stable(self) -> bool:
        """A sink of the joint belief dynamics: every eigenvalue negative."""
        return bool(np.all(self.eigenvalues < 0.0))

    is_sink = stable  # as ``SteadyState`` names it, for ``ConvergenceReport``


def _free_groups(eng: BestResponseEngine, h: float, truths, deltas) -> np.ndarray:
    """Which groups' best fits at assessment h lie inside the support; the
    others are pinned at an edge (or have no unclamped fit at all)."""
    free = eng.best_fit(h, truths, deltas, clamp=False)
    return (free > eng.model.beta_lo) & (free < eng.model.beta_hi)


class _SharedAssessment:
    """The joint belief map beta -> best_fit(H(beta)), H the shared
    assessment, has its fixed points at beta = best_fit(h) for the roots h
    of F(h) = H(best_fit(h)) - h on the range of H; ``evaluations`` counts
    the points at which F is evaluated."""

    def __init__(self, pop: GroupPopulation):
        self.eng = BestResponseEngine(pop.model)
        self.alphas = np.asarray(pop.alphas)
        self.truths = np.asarray(pop.beta_stars, dtype=float)
        self.deltas = np.asarray(pop.deltas, dtype=float)
        self.evaluations = 0
        self._found = None

    def fit(self, h):  # (J,) best fits at a float h, (N, J) at N of them
        return self.eng.best_fit(np.asarray(h)[..., None], self.truths, self.deltas)

    def excess(self, h):
        self.evaluations += np.size(h)
        return self.eng.assessment_multigroup(self.fit(h), self.alphas) - h

    def roots(self) -> tuple[tuple[tuple[float, float], ...], int]:
        """The roots of F (``_enumerate``) and the evaluations of F that found
        them, enumerated on the first call only."""
        if self._found is None:
            roots = self._enumerate()
            self._found = roots, self.evaluations
        return self._found

    def _enumerate(self) -> tuple[tuple[float, float], ...]:
        """(h, F'(h)) at every root of F, ascending, each counted once:
        ``certified_roots`` on each piece between the kinks of F, where a
        group's unclamped fit meets a support edge (the one sign change of
        the fit gap at that edge, monotone in h), and a support corner where
        every group is pinned at it (F = H(edge) - h there)."""
        eng, m = self.eng, self.eng.model
        lo, hi = eng.assessment_bounds()
        if lo == hi:  # H is one float, so F(h) = lo - h, with its one root at lo
            return ((lo, -1.0),)
        edge, truth, delta = (a.ravel() for a in np.broadcast_arrays(
            [m.beta_lo, m.beta_hi], self.truths[:, None], self.deltas[:, None]))
        g_lo, g_hi = (eng._fit_gap(h, edge, truth, delta) for h in (lo, hi))
        cross = np.sign(g_lo) * np.sign(g_hi) < 0.0  # g_lo * g_hi may overflow
        kinks = brentq_masked(eng._fit_gap, np.full(cross.sum(), lo),
                              np.full(cross.sum(), hi), g_lo[cross], g_hi[cross],
                              args=(edge[cross], truth[cross], delta[cross]))
        pts = np.unique(np.concatenate(([lo, hi], kinks)))
        found = [(h, -1.0) for h, b in ((lo, m.beta_lo), (hi, m.beta_hi))
                 if np.all(self.fit(h) == b)]
        for a, b in zip(pts[:-1], pts[1:]):
            piece = certified_roots(self.excess, a, b, DEFAULT_GRID)
            found += zip(piece.roots.tolist(), piece.slopes.tolist())
            for t in piece.near_tangent:
                warnings.warn(f"near-tangent point at h = {t:.9g}: H(best fit) - h "
                              "comes within its certified error of zero without "
                              "crossing; an equilibrium pair may be missing")
        out: list[tuple[float, float]] = []
        for h, slope in sorted(found):
            if not out or h - out[-1][0] >= DEDUP_TOL:
                out.append((h, slope))
        if not out:  # F(lo) >= 0 >= F(hi): F vanishes only at an end, uncertified
            raise NumericalError(
                f"no certified root of H(best fit) - h on [{lo:.9g}, {hi:.9g}]; "
                f"it reads {float(self.excess(lo)):.3g} and "
                f"{float(self.excess(hi)):.3g} at the ends")
        return tuple(out)

    def member(self, h: float, slope: float, iterations: int) -> MultigroupEquilibrium:
        """The equilibrium at the root h of F: beta = best_fit(h), confirmed
        by one step of the joint belief map, whose size is the residual;
        ``iterations`` evaluations of F found it."""
        eng, alphas, truths, deltas = self.eng, self.alphas, self.truths, self.deltas
        prev = self.fit(h)
        betas = self.fit(eng.assessment_multigroup(prev, alphas))
        h = float(eng.assessment_multigroup(betas, alphas))
        # g_j = (R_h(h, b*_j) - R_h(h, beta_j)) / R_b(h, beta_j) for a free
        # group; a pinned group's clamped best fit is locally constant in h
        rh, rb = eng.r_partials(h, betas)
        free = _free_groups(eng, h, truths, deltas)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = np.where(free, (eng.r_partials(h, truths)[0] - rh) / rb, 0.0)
        if not np.all(np.isfinite(g)):  # a pinned group's quotient is dropped
            raise NumericalError(
                f"belief-map slope is not finite at h = {h:.3g}: R_beta = {rb} "
                "leaves the float range for a group with an interior fit")
        gh = eng.assessment_gradient(betas, alphas)
        eigs = np.full(alphas.size, -1.0)
        eigs[0] = -1.0 + float(gh @ g)
        sce = tuple((eng._divergence(h, betas, truths, deltas) <= SCE_KL_TOL).tolist())
        return MultigroupEquilibrium(
            beta_hat=betas, h_hat=h, sce_flags=sce, g=g, grad_h=gh,
            eigenvalues=np.sort(eigs), slope=slope,
            residual=float(np.max(np.abs(betas - prev))),
            iterations=iterations,
            domain_lo=np.where(deltas > 0, eng.model.beta_lo, truths),
            domain_hi=np.where(deltas > 0, truths, eng.model.beta_hi))


def color_sighted_equilibria(pop: GroupPopulation) -> tuple[MultigroupEquilibrium, ...]:
    """Every equilibrium under sighted impartial assessment, by descending
    shared assessment h: the roots of H(best_fit(h)) - h, enumerated by
    ``certified_roots``.  A member is a sink when ``stable``."""
    problem = pop._shared
    roots, evaluations = problem.roots()
    return tuple(problem.member(h, s, evaluations) for h, s in reversed(roots))


def color_sighted_equilibrium(pop: GroupPopulation) -> MultigroupEquilibrium:
    """The equilibrium that undamped iteration of the joint belief map from
    the truth vector reaches: the only member of ``color_sighted_equilibria``,
    or else the nearest one from h0 = H(beta*) in the direction of
    H(best_fit(h0)) - h0, where the iterates head; a warning names the others.
    """
    problem = pop._shared
    roots, evaluations = problem.roots()
    chosen = roots[0]
    if len(roots) > 1:
        h0 = problem.eng.assessment_multigroup(problem.truths, problem.alphas)
        f0 = problem.excess(h0)
        evaluations += 1
        ahead = [r for r in roots if (r[0] - h0) * f0 >= 0.0] or roots
        chosen = min(ahead, key=lambda r: abs(r[0] - h0))
        others = "; ".join(f"h = {r[0]:.9g}, beliefs {problem.fit(r[0])}"
                           for r in roots if r is not chosen)
        warnings.warn(f"{len(roots)} color-sighted equilibria; returning the one "
                      f"iteration from the truths reaches, at h = {chosen[0]:.9g}; "
                      f"the others: {others}")
    return problem.member(*chosen, evaluations)


def sherman_morrison_inverse(u, v) -> np.ndarray:
    """Inverse of -I + u v^T.

    With A = -I the rank-one update formula reduces to
    -I - u v^T / (1 - v^T u); LinAlgError within ``SINGULAR_TOL`` of v^T u = 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = float(v @ u)
    if abs(1.0 - s) < SINGULAR_TOL:
        raise np.linalg.LinAlgError("matrix -I + u v^T is singular (v^T u = 1)")
    j = u.size
    return -np.eye(j) - np.outer(u, v) / (1.0 - s)


def sensitivity(pop: GroupPopulation, eq: MultigroupEquilibrium,
                parameter: str) -> np.ndarray:
    """Derivative of the equilibrium belief vector in a model parameter.

    ``parameter`` is ``"delta_<j>"`` for group j's misspecification, or one
    of the LQ levers (lambda_e, delta, c, kappa), taken as the raw
    parameter.  Uses the rank-one inverse of the fixed-point Jacobian; no
    equilibrium recomputation is needed.  A group whose best fit is pinned
    at a support edge does not move with its own misspecification.
    """
    model = pop.model
    eng = BestResponseEngine(model)
    try:
        amplify = -sherman_morrison_inverse(eq.g, eq.grad_h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fixed-point Jacobian is near singular: {exc}") from exc

    if parameter.startswith("delta_") and parameter[6:].isdigit():
        j = int(parameter[6:])
        if not 0 <= j < pop.size:
            raise ValueError(f"group index out of range in {parameter!r}")
        dpsi = np.zeros(pop.size)
        if _free_groups(eng, eq.h_hat, pop.beta_stars[j], pop.deltas[j]):
            _, rb = eng.r_partials(eq.h_hat, float(eq.beta_hat[j]))
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
        step = LEVER_REL_STEP * (abs(raw) or 1.0)
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
    J-1) plus -1 + grad_h . g, which ``eq.eigenvalues`` holds; up to
    ``DENSE_LIMIT`` groups it is solved densely as a check.  Every eigenvalue
    must lie within |g|_2 |grad_h|_2 of -1.
    """
    j = eq.g.size
    eigs = eq.eigenvalues
    if j <= DENSE_LIMIT:
        mat = -np.eye(j) + np.outer(eq.g, eq.grad_h)
        eigs = np.sort(np.linalg.eigvals(mat).real)
    # hypot scales its terms: a sum of squares can overflow where the norm does not
    bound = math.hypot(*eq.g.tolist()) * math.hypot(*eq.grad_h.tolist())
    dev = float(np.max(np.abs(eigs + 1.0)))
    return EigenReport(eigenvalues=eigs,
                       rank_one_shift=-1.0 + float(eq.grad_h @ eq.g),
                       bound=bound,
                       bound_holds=dev <= bound + COMPARE_SLACK,
                       all_negative=bool(np.all(eigs < 0.0)))


# -- learning under a shared assessment --------------------------------------
# ``learning.Trajectory`` with a group axis, built and classified as for one group


def simulate_multigroup(pop: GroupPopulation, horizon: int, seed: int,
                        run: int = 0,
                        prior: Optional[Sequence[Optional[TruncNormalPrior]]] = None,
                        stride: Optional[int] = None,
                        equilibria: Optional[Sequence[MultigroupEquilibrium]] = None,
                        runs: int = 1) -> Trajectory:
    """Simulate the shared-assessment learning process for all groups.

    Each period the evaluator maximizes the population-weighted expected
    value under the groups' independent posteriors; outcomes are drawn
    independently per group.  With one group this reduces exactly (same
    noise streams, same arithmetic) to the single-agent simulator, runs
    ``run + 1 .. run + runs - 1`` included; as there, every path is the
    same however it is batched.  Its ``Trajectory`` has (T, J)
    paths, and every run is classified against every member of
    ``equilibria``, the color-sighted equilibria (enumerated when not given).
    """
    tm = _as_transformed(pop.model)
    res = _run_engine(tm, pop.alphas, pop.beta_stars, pop.deltas, pop.mu_stars,
                      runs=runs, horizon=horizon, seed=seed, prior=prior,
                      record_stride=_record_stride(stride, horizon),
                      first_run=run)
    members = color_sighted_equilibria(pop) if equilibria is None else equilibria
    return _trajectory(tm, res, horizon, seed, run, members,
                       tm.g1(np.array([eq.beta_hat for eq in members])),
                       one_group=False)


def monte_carlo_multigroup(pop: GroupPopulation, runs: int, horizon: int,
                           seed: int, radius: float = DEFAULT_RADIUS,
                           prior: Optional[Sequence[Optional[TruncNormalPrior]]] = None
                           ) -> ConvergenceReport:
    """The J-group twin of ``monte_carlo_convergence``: one lockstep
    ``simulate_multigroup`` pass, each terminal belief vector counted at the
    nearest color-sighted equilibrium within ``radius``, or unclassified."""
    return _convergence_report(
        simulate_multigroup(pop, horizon, seed, prior=prior, runs=runs), radius)
