"""Infinite-horizon misspecified Bayesian learning dynamics.

Under the multiplicative structure R(h, beta) = g1(beta) g2(h),
posteriors over the transformed productivity g1(beta) stay exactly
truncated normal for uniform (or truncated-normal) priors, parameterized
by mode m and time-scaled precision xi.  The pair follows a stochastic
difference system whose limiting ODE has steady states in one-to-one
correspondence with the steady-state equilibria: sinks are the stable
ones, saddles the unstable ones, and simulated paths select the sinks.

All learning-state quantities (m, xi, priors, classification radii) live
in transformed units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .best_response import BestResponseEngine, array_form, population_mean
from .chebyshev import _cheb_basis, certified_series
from .equilibrium import DEFAULT_GRID, DEFAULT_RADIUS, find_equilibria
from .errors import NumericalError
from .primitives import ModelPrimitives
from .rootfind import brentq_masked
from .truncnorm import interior, trunc_mean, trunc_pdf

CHUNK = 1024
SEED_MASK = (1 << 64) - 1
QUAD_NODES = 64
QUAD_NODES_MAX = 512
QUAD_RTOL = 1e-8
WINDOW_SIGMAS = 8.0
TABLE_POINTS = 65  # finest nested Chebyshev-Lobatto grid, per axis
RECON_TOL = 1e-10  # factorization reconstruction error transform accepts
RECON_GRID = 64  # points per axis on which transform certifies it
EULER_MAX_STEP = 0.05  # time-step cap of OdeSystem.integrate
_MIN_PRECISION = 1e-300  # floor on a posterior precision before 1 / sqrt
_WINDOW_PAD = 1e-12  # share of the support a far-mode quadrature window adds
_RETEST_PERIODS = 32  # periods a failed interior test of the CE rule holds


@dataclass(frozen=True)
class TransformedModel:
    """Certified factorization R = g1 g2 of effective effort plus derived
    constants; ``g1``, ``g2`` and ``g1_inv`` accept scalars and arrays alike.
    The one owner of support projection, the ODE drift and belief distances."""

    model: ModelPrimitives
    g1: Callable
    g2: Callable
    g1_inv: Callable
    m_lo: float
    m_hi: float
    h_lo: float
    h_hi: float
    ce_exact: bool  # the posterior mean of g1 pins the assessment
    recon_error: float
    engine: BestResponseEngine

    def _project(self, m):
        return np.clip(m, self.m_lo, self.m_hi)

    def drift_terms(self, m):
        """Fisher information I(h) and unconstrained best-fit transformed
        productivity psi at the assessment h of the support-projected mode m;
        elementwise over arrays.  ``_ode_drift`` turns them into the drift.
        """
        h = self.engine.assessment(self.g1_inv(self._project(m)))
        g2h = self.g2(h)
        return g2h * g2h * h, self.g1(self.model.beta_star) - self.model.delta_mu / g2h

    def nearest_target(self, modes, targets) -> tuple[np.ndarray, np.ndarray]:
        """Index of the nearest row of ``targets`` (k, groups) to each row of
        ``modes`` (runs, groups), and the distance to it: the max-norm over
        groups between support-projected modes."""
        diff = (self._project(np.asarray(modes, dtype=float))[:, None, :]
                - self._project(np.asarray(targets, dtype=float))[None, :, :])
        dists = np.abs(diff).max(axis=2)
        idx = np.argmin(dists, axis=1)
        return idx, dists[np.arange(idx.size), idx]


def transform(model: ModelPrimitives) -> TransformedModel:
    """Certify the factorization R = g1 g2 on a grid and package it.

    Refuses to proceed when the reconstruction error exceeds ``RECON_TOL``:
    without the structure, posteriors lose their truncated-normal form and
    the simulation would silently be wrong.  An effective effort with an
    additive term in h alone is refused the same way, and so is a Fisher
    information I(h) = g2(h)^2 h that is not positive at h_lo or not finite
    at h_hi, where a learning path's beliefs would not be finite.
    """
    fac = model.factorization
    if fac is None:
        raise NumericalError(
            "no effective-effort factorization supplied; learning requires "
            "R(h, beta) = g1(beta) g2(h)")
    eng = BestResponseEngine(model)
    h_lo, h_hi = eng.assessment_bounds()
    hs = np.linspace(h_lo, h_hi, RECON_GRID)
    betas = np.linspace(model.beta_lo, model.beta_hi, RECON_GRID)
    # each callable probed once, so that every consumer may pass arrays
    g1, g2 = array_form(fac.g1, betas), array_form(fac.g2, hs)
    g1_betas = g1(betas)
    g1_inv = array_form(fac.g1_inv, g1_betas)
    g2_hs = g2(hs)
    rec = g1_betas * g2_hs[:, None]
    err = float(np.max(np.abs(rec - eng.effective_effort(hs[:, None], betas))))
    if err > RECON_TOL:
        raise NumericalError(
            f"factorization reconstruction error {err:.3e} exceeds {RECON_TOL:.1e}; "
            "the multiplicative structure does not hold for these primitives")
    g2_lo, g2_hi = float(g2_hs[0]), float(g2_hs[-1])  # floats: no overflow warning
    info_lo, info_hi = g2_lo * g2_lo * h_lo, g2_hi * g2_hi * h_hi
    if not (info_lo > 0.0 and math.isfinite(info_hi)):
        raise NumericalError(
            f"Fisher information I(h) = g2(h)^2 h is {info_lo:.3g} at h_lo = "
            f"{h_lo:.3g} and {info_hi:.3g} at h_hi = {h_hi:.3g}; learning needs "
            "it positive and finite")
    # LQ assessment depends on a belief only through E[beta^2], which is the
    # posterior mean of g1 exactly when g1 is beta^2
    square = bool(np.max(np.abs(g1_betas - betas * betas)) <= RECON_TOL)
    return TransformedModel(
        model=model, g1=g1, g2=g2, g1_inv=g1_inv,
        m_lo=float(fac.g1(model.beta_lo)), m_hi=float(fac.g1(model.beta_hi)),
        h_lo=h_lo, h_hi=h_hi,
        ce_exact=model.lq is not None and square,
        recon_error=err, engine=eng)


def _as_transformed(model) -> TransformedModel:
    return model if isinstance(model, TransformedModel) else transform(model)


def _ode_drift(info, psi, m, xi):
    """Drift (I (psi - m) / xi, I - xi) of the limiting ODE at (m, xi), from
    ``drift_terms(m)``; broadcasts."""
    return info * (psi - m) / xi, info - xi


def fisher_information(tm: TransformedModel, h: float):
    """Per-period informativeness of the outcome: I(h) = g2(h)^2 h."""
    g2h = tm.g2(h)
    return g2h * g2h * h


# -- exact posterior -------------------------------------------------------


def posterior_params(tm: TransformedModel, history) -> tuple[float, float]:
    """Mode and variance of the transformed posterior after ``history``.

    Batch form under a uniform prior: the mode is the Fisher-weighted
    average of per-period signals, the precision is the summed Fisher
    information.
    """
    hs = np.asarray([h for h, _ in history], dtype=float)
    xs = np.asarray([x for _, x in history], dtype=float)
    g2h = tm.g2(hs)
    info = g2h * g2h * hs
    total = float(info.sum())
    if total <= 0.0:
        raise ValueError("history carries no information")
    num = float(((xs - tm.model.mu_hat) * hs * g2h).sum())
    return num / total, 1.0 / total


# -- prior and state -------------------------------------------------------


@dataclass(frozen=True)
class TruncNormalPrior:
    """Truncated-normal prior over transformed productivity."""

    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ValueError("prior sd must be positive")
        if not math.isfinite(self.mean):
            raise ValueError("prior mean must be finite")
        # sd * sd underflows to zero or overflows for extreme sd
        if not (self.sd * self.sd > 0.0 and 0.0 < self.precision < math.inf):
            raise ValueError(f"prior sd {self.sd!r} gives no finite, "
                             "positive precision 1 / sd^2")

    @property
    def precision(self) -> float:
        return 1.0 / (self.sd * self.sd)


@dataclass(frozen=True)
class LearningState:
    """Posterior state after period n: mode m and scaled precision xi = 1/(n v)."""

    n: int
    m: float
    xi: float
    seed: int = 0
    run: int = 0


def evaluator_step(tm: TransformedModel, state: LearningState,
                   prior: Optional[TruncNormalPrior] = None) -> float:
    """Next-period assessment given the current posterior state.

    Maximizes the posterior expectation of the evaluator's value net of
    assessment cost.  ``prior`` (uniform by default) is used only when
    ``state.n == 0``, i.e. before any data: a state after n >= 1 periods,
    such as ``simulate(..., prior=p).terminal``, already includes its prior
    in ``xi``.  Off the LQ certainty-equivalent shortcut, each call
    tabulates the evaluator's marginal value first (see ``_foc_table``).
    """
    if state.n == 0:
        if prior is None:
            m, s = 0.0, 0.0
        else:
            m, s = prior.mean, prior.precision
    else:
        m, s = state.m, state.n * state.xi
    return float(_assessment_rule(tm, np.array([1.0]), runs=1)([m], [s]))


def _posterior_means(tm: TransformedModel, m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Truncated-posterior means; zero-precision entries fall back to uniform."""
    sigma = 1.0 / np.sqrt(np.maximum(s, _MIN_PRECISION))
    nu = trunc_mean(m, sigma, tm.m_lo, tm.m_hi)
    return np.where(s > 0.0, nu, 0.5 * (tm.m_lo + tm.m_hi))


def _interior_test(tm: TransformedModel, least: Callable, most: Callable):
    """The certainty-equivalent rule's interior test with its bookkeeping,
    shared by the rule's array and one-run forms; ``least`` and ``most``
    reduce a state to its least and greatest entry.

    Returns ``test(m, s)``, true when ``truncnorm.interior`` holds for the
    modes' range and the largest sd a lower bound on ``s`` allows (every
    posterior mean is then its mode, the bits ``trunc_mean`` would return).
    The bound is refreshed with ``least(s)`` only when the test fails (``s``
    never decreases, so a stale bound stays a bound).  A failed test costs
    up to a tenth of a fallback period (0.08-0.11 for 200 runs, 0.03 for
    one, from a corner start on one core), so it holds for ``_RETEST_PERIODS``
    periods, which fall back untested: states whose modes stay outside the
    interior (a corner-sink start) pay one test per ``_RETEST_PERIODS``.
    """
    lo, hi = tm.m_lo, tm.m_hi
    # a lower bound on every entry of s, the largest sd it allows, and the
    # periods left before the next test
    s_floor, sigma_max, untested = -math.inf, math.inf, 0

    def test(m, s) -> bool:
        nonlocal s_floor, sigma_max, untested
        if untested:
            untested -= 1
            return False
        m_min, m_max = least(m), most(m)
        if interior(m_min, m_max, sigma_max, lo, hi):
            return True
        s_floor = float(least(s))
        sigma_max = 1.0 / math.sqrt(s_floor) if s_floor >= _MIN_PRECISION else math.inf
        if interior(m_min, m_max, sigma_max, lo, hi):
            return True
        untested = _RETEST_PERIODS - 1
        return False
    return test


def _assessment_rule(tm: TransformedModel, alphas: np.ndarray, runs: int):
    """Optimal common assessment for population posteriors, clipped to
    [h_lo, h_hi], for the states of one simulation: successive calls must
    not decrease any entry of ``s``.  Which branch applies is decided here,
    once per simulation; the general branch tabulates the evaluator's
    marginal value once here, and the certainty-equivalent branch calls
    ``_posterior_means`` only on periods that fail its interior test
    (``_interior_test``).

    For ``runs`` > 1 the rule maps ``m`` and ``s`` of shape (runs, groups)
    to the (runs,) assessments, in an array the next call overwrites.  For
    one run it maps sequences of one float per group to a float with the
    same bits: both fold the population mean by ``population_mean``, the
    floats become arrays only for ``_posterior_means`` and the table, and
    the clip is ``min`` and ``max``.
    """
    one = runs == 1
    weights = alphas.tolist()
    if tm.ce_exact:
        ce = tm.engine.certainty_equivalent
        if one:
            # a NaN mode reaches every group at once (through a NaN h), so
            # min and max, which may skip a NaN, still see it
            test = _interior_test(tm, min, max)

            def optimum(m, s):
                if not test(m, s):
                    m = _posterior_means(tm, np.array(m), np.array(s)).tolist()
                return ce(population_mean(m, weights))
        else:
            least, most = np.minimum.reduce, np.maximum.reduce
            test = _interior_test(tm, lambda a: least(a, None), lambda a: most(a, None))

            def optimum(m, s):
                if not test(m, s):
                    m = _posterior_means(tm, m, s)
                return ce(population_mean(m.T, weights))
    else:
        table = _foc_table(tm)
        if one:
            def optimum(m, s):
                return _quadrature_assessment(tm, table, alphas, np.array([m]),
                                              np.array([s])).item()
        else:
            def optimum(m, s):
                return _quadrature_assessment(tm, table, alphas, m, s)
    if one:
        h_lo, h_hi = tm.h_lo, tm.h_hi

        def rule(m, s):
            return min(max(optimum(m, s), h_lo), h_hi)
        return rule
    h_lo, h_hi = np.array(tm.h_lo), np.array(tm.h_hi)  # 0-d: no conversion per call
    floor, h = np.empty(runs), np.empty(runs)
    minimum, maximum = np.minimum, np.maximum

    def rule(m, s):  # np.clip(optimum(m, s), h_lo, h_hi), into the buffers
        return minimum(maximum(optimum(m, s), h_lo, out=floor), h_hi, out=h)
    return rule


@functools.cache
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _group_quadrature(tm: TransformedModel, m: float, s: float, nodes: int):
    """Normalized quadrature nodes/weights against one group's posterior."""
    lo, hi = tm.m_lo, tm.m_hi
    x, w = _gauss_legendre(nodes)
    if s <= 0.0:
        lo_w, hi_w = lo, hi
        pdf = np.full(nodes, 1.0)
    else:
        sigma = 1.0 / math.sqrt(s)
        lo_w = max(lo, m - WINDOW_SIGMAS * sigma)
        hi_w = min(hi, m + WINDOW_SIGMAS * sigma)
        if hi_w <= lo_w:
            # mode far outside: the truncated mass decays from the nearest
            # endpoint with scale sigma^2 / distance
            if m < lo:
                scale = sigma * sigma / (lo - m)
                lo_w, hi_w = lo, min(hi, lo + 40.0 * scale + _WINDOW_PAD * (hi - lo))
            else:
                scale = sigma * sigma / (m - hi)
                lo_w, hi_w = max(lo, hi - 40.0 * scale - _WINDOW_PAD * (hi - lo)), hi
        pdf = None
    pts = 0.5 * (hi_w - lo_w) * x + 0.5 * (hi_w + lo_w)
    wts = 0.5 * (hi_w - lo_w) * w
    if pdf is None:
        pdf = trunc_pdf(pts, m, 1.0 / math.sqrt(s), lo, hi)
    raw = wts * pdf
    total = raw.sum()
    if total <= 0.0:
        raise NumericalError("posterior quadrature weights vanished")
    return pts, raw / total


# -- tabulated first-order condition ------------------------------------------


@dataclass(frozen=True)
class _FocTable:
    """The evaluator's first-order integrand on [h_lo, h_hi] x [beta_lo,
    beta_hi] as a Chebyshev series, dV_E/dh(h, beta) - kappa'(h) =
    sum_kl coef[k, l] T_k(x) T_l(y) with x = (h_mid - h) / h_half and
    y = (b_mid - beta) / b_half: the angle arccos(x) runs from 0 at h_lo
    to pi at h_hi, and likewise in beta.  A posterior's condition is a
    series in h alone (``expected_series``); ``roots`` reads its values at
    the edges from the coefficients and polishes the interior roots of all
    rows in one ``rootfind.brentq_masked`` pass (tolerances ``XTOL`` and
    ``RTOL`` in h)."""

    coef: np.ndarray
    h_lo: float
    h_hi: float
    b_mid: float
    b_half: float

    def expected_series(self, betas, weights) -> np.ndarray:
        """Coefficients in h of sum_i w_i (dV_E/dh(h, beta_i) - kappa'(h))."""
        y = np.clip((self.b_mid - betas) / self.b_half, -1.0, 1.0)
        return self.coef @ (weights @ _cheb_basis(np.arccos(y), self.coef.shape[1]))

    def _series_at(self, h, series) -> np.ndarray:
        """Each row of ``series`` at that row's own h in [h_lo, h_hi]."""
        mid, half = 0.5 * (self.h_lo + self.h_hi), 0.5 * (self.h_hi - self.h_lo)
        theta = np.arccos(np.clip((mid - h) / half, -1.0, 1.0))
        return (_cheb_basis(theta, series.shape[1]) * series).sum(axis=1)

    def roots(self, series) -> np.ndarray:
        """The h in [h_lo, h_hi] where each row of ``series`` (a first-order
        condition, decreasing in h) vanishes; without a sign change there, the
        edge the clip of an outside root would give."""
        # T_k(1) = 1 at h_lo, T_k(-1) = (-1)^k at h_hi; sums along rows keep
        # each run's result independent of the others in the batch
        f_lo = series.sum(axis=1)
        f_hi = series[:, ::2].sum(axis=1) - series[:, 1::2].sum(axis=1)
        h = np.where(f_lo <= 0.0, self.h_lo, self.h_hi)
        open_ = np.flatnonzero((f_lo > 0.0) & (f_hi < 0.0))
        if open_.size:
            h[open_] = brentq_masked(self._series_at, np.full(open_.size, self.h_lo),
                                     np.full(open_.size, self.h_hi), f_lo[open_],
                                     f_hi[open_], (series[open_],))
        return h


def _foc_table(tm: TransformedModel) -> _FocTable:
    """Tabulate the first-order integrand by ``certified_series``: nested
    Chebyshev-Lobatto grids of up to ``TABLE_POINTS`` per axis, certified
    against direct solves at off-grid points; NumericalError when the
    finest grid still misses.  Past this, the learning step solves nothing
    of the model: ``_FocTable.roots`` polishes on the series alone."""
    eng, mdl = tm.engine, tm.model
    h_mid, h_half = 0.5 * (tm.h_lo + tm.h_hi), 0.5 * (tm.h_hi - tm.h_lo)
    b_mid = 0.5 * (mdl.beta_lo + mdl.beta_hi)
    b_half = 0.5 * (mdl.beta_hi - mdl.beta_lo)

    def integrand(theta_h, theta_b):
        return eng._evaluator_condition(h_mid - h_half * np.cos(theta_h), (1.0,),
                                        (b_mid - b_half * np.cos(theta_b),))

    coef, _, _ = certified_series(integrand, 2, TABLE_POINTS)
    return _FocTable(coef=coef, h_lo=tm.h_lo, h_hi=tm.h_hi,
                     b_mid=b_mid, b_half=b_half)


def _table_assessments(tm: TransformedModel, table: _FocTable, alphas,
                       m: np.ndarray, s: np.ndarray, nodes: int) -> np.ndarray:
    """Assessment under each run's posteriors (rows of ``m``, ``s``) with
    ``nodes`` quadrature nodes per group, from the tabulated condition."""
    series = np.empty((m.shape[0], table.coef.shape[0]))
    for k in range(m.shape[0]):
        betas, weights = [], []
        for alpha, mj, sj in zip(alphas, m[k], s[k]):
            pts, wts = _group_quadrature(tm, float(mj), float(sj), nodes)
            betas.append(tm.g1_inv(pts))
            weights.append(alpha * wts)
        series[k] = table.expected_series(np.concatenate(betas),
                                          np.concatenate(weights))
    return table.roots(series)


def _quadrature_assessment(tm: TransformedModel, table: _FocTable, alphas,
                           m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Assessment under the posteriors themselves, per run: the tabulated
    first-order condition over quadrature nodes, refined until it settles."""
    h = np.empty(m.shape[0])
    todo = np.arange(m.shape[0])
    prev = None
    nodes = QUAD_NODES
    while True:
        cur = _table_assessments(tm, table, alphas, m[todo], s[todo], nodes)
        if prev is not None:
            done = np.abs(cur - prev) <= QUAD_RTOL
            h[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
            if not todo.size:
                return h
        if nodes >= QUAD_NODES_MAX:
            raise NumericalError(
                f"assessment quadrature did not settle below {QUAD_RTOL:g} "
                f"with {nodes} nodes")
        prev, nodes = cur, 2 * nodes


# -- simulation engine ------------------------------------------------------


def noise_stream(seed: int, run: int, group: int = 0):
    """Counter-based generator for the (seed, run, group) stream.

    Streams are independent across (run, group) and reproducible regardless
    of execution order; the period index is the position in the stream.
    ``seed`` is any integer, taken modulo 2**64 (so a negative seed has its
    own stream); ``run`` and ``group`` lie in [0, 2**32).
    """
    if not (0 <= run < 1 << 32 and 0 <= group < 1 << 32):
        raise ValueError(f"run and group must lie in [0, 2**32), got {run}, {group}")
    # a uint64 array: a Python list of keys >= 2**63 would pass through float64
    key = np.array([seed & SEED_MASK, (run << 32) | group], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class _RunResult:
    m: np.ndarray        # (runs, groups) terminal modes
    s: np.ndarray        # (runs, groups) terminal total precisions
    rec_n: np.ndarray
    rec_m: np.ndarray    # (T, groups) for the recorded run
    rec_xi: np.ndarray
    rec_h: np.ndarray
    rec_x: np.ndarray


def _run_engine(tm: TransformedModel, alphas: Sequence[float],
                beta_stars: Sequence[float], deltas: Sequence[float],
                mu_stars: Sequence[float], runs: int, horizon: int, seed: int,
                prior: Optional[Sequence[Optional[TruncNormalPrior]]] = None,
                record_stride: int = 0, first_run: int = 0) -> _RunResult:
    """Advance runs ``first_run .. first_run + runs - 1`` in lockstep for
    ``horizon`` periods, recording the path of ``first_run`` every
    ``record_stride`` periods (0: none); ``prior`` has one entry (None:
    uniform) per group.  Each period takes its noise as drawn from ``noise_stream``.

    There are two period loops, chosen by ``runs``, the input size: several
    runs step as (runs, groups) arrays (``_lockstep``), where each numpy
    call serves the whole batch; one run steps on Python floats
    (``_one_run``), where a numpy call on a (1, groups) array would cost
    far more than its few flops.  Both keep the order and association of
    the plain expressions in ``_lockstep``'s comments, and both form the
    population mean by ``population_mean``'s fold, so each stored value of
    a run has the same bits alone and in any batch.
    s never decreases (it gains I(h) = g2(h)^2 h >= 0), which the
    certainty-equivalent rule relies on: it calls ``trunc_mean`` only on
    periods whose modes and precisions fail its interior test (see
    ``_interior_test``).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    groups = len(alphas)
    if prior is not None and len(prior) != groups:
        raise ValueError(f"prior has {len(prior)} entries for {groups} groups")
    # loop invariants, one row per group
    bstar_t = np.array([[float(tm.g1(b)) for b in beta_stars]])
    mu_star_row = np.array([mu_stars], dtype=float)
    mu_hat_row = mu_star_row + np.array([deltas], dtype=float)
    assess = _assessment_rule(tm, np.asarray(alphas, dtype=float), runs)

    m = np.zeros((runs, groups))
    s = np.zeros((runs, groups))
    if prior is not None:
        for j, pj in enumerate(prior):
            if pj is not None:
                m[:, j] = pj.mean
                s[:, j] = pj.precision
    gens = [[noise_stream(seed, first_run + k, j) for j in range(groups)]
            for k in range(runs)]
    if runs == 1:
        return _one_run(tm, assess, bstar_t[0].tolist(), mu_star_row[0].tolist(),
                        mu_hat_row[0].tolist(), m[0].tolist(), s[0].tolist(),
                        gens[0], horizon, record_stride)
    # the rows repeated over runs, so that they meet the (runs, groups) state
    # shape for shape (broadcasting costs more)
    return _lockstep(tm, assess, *(np.repeat(row, runs, axis=0)
                                   for row in (bstar_t, mu_star_row, mu_hat_row)),
                     m, s, gens, horizon, record_stride)


def _lockstep(tm, assess, bstar_t, mu_star_row, mu_hat_row, m, s, gens, horizon,
              record_stride) -> _RunResult:
    """``_run_engine``'s loop for several runs.  It allocates almost
    nothing: the state (m, s), the noise block and the per-period
    (runs, groups) and (runs,) quantities live in buffers allocated once per
    call and written with ``out=``, its ufuncs are bound to locals once, and
    each period reads its noise as drawn, a view of its block."""
    runs, groups = m.shape
    # per-period buffers, each written only by operations that do not also
    # read it (in-place ufuncs cost more on tiny arrays); the columns are
    # (runs, 1) views and s alternates with s_next
    x, w1, w2, w3, s_next = (np.empty((runs, groups)) for _ in range(5))
    g2h2, info, root_h, weight = (np.empty(runs) for _ in range(4))
    info_col, root_h_col, weight_col = info[:, None], root_h[:, None], weight[:, None]

    rec_n, rec_m, rec_xi, rec_h, rec_x = [], [], [], [], []
    # the period loop's callables, bound once: a global or attribute lookup
    # per call is a sizeable share of an operation on (runs, groups) arrays
    add, subtract, multiply, divide, sqrt = np.add, np.subtract, np.multiply, np.divide, np.sqrt
    g2 = tm.g2
    # refilled chunk by chunk: a fresh block per chunk would be allocated
    # while the last one is still alive
    buf = np.empty((min(CHUNK, horizon), runs, groups))
    n = 0
    for start in range(0, horizon, CHUNK):
        block = min(CHUNK, horizon - start)
        eps = buf[:block]
        for k in range(runs):
            for j in range(groups):
                eps[:, k, j] = gens[k][j].standard_normal(block)
        for e in eps:
            n += 1
            h = assess(m, s)
            g2h = g2(h)
            # info = g2h * g2h * h
            multiply(multiply(g2h, g2h, out=g2h2), h, out=info)
            # x = mu_star_row + bstar_t * g2h[:, None] + e / np.sqrt(h)[:, None]
            add(mu_star_row, multiply(bstar_t, g2h[:, None], out=w2), out=w1)
            sqrt(h, out=root_h)
            add(w1, divide(e, root_h_col, out=w2), out=x)
            # contrib = (x - mu_hat_row) * (h * g2h)[:, None]
            subtract(x, mu_hat_row, out=w2)
            multiply(h, g2h, out=weight)
            multiply(w2, weight_col, out=w1)
            # s_next = s + info[:, None]; m = (s * m + contrib) / s_next
            add(multiply(s, m, out=w2), w1, out=w3)
            add(s, info_col, out=s_next)
            divide(w3, s_next, out=m)
            s, s_next = s_next, s
            if record_stride and (n % record_stride == 0 or n == 1 or n == horizon):
                rec_n.append(n)
                rec_m.append(m[0].copy())
                rec_xi.append(s[0] / n)
                rec_h.append(float(h[0]))
                rec_x.append(x[0].copy())
    return _RunResult(m=m, s=s,
                      rec_n=np.array(rec_n, dtype=int),
                      rec_m=np.array(rec_m), rec_xi=np.array(rec_xi),
                      rec_h=np.array(rec_h), rec_x=np.array(rec_x))


def _one_run(tm, assess, bstar, mu_star, mu_hat, m, s, gens, horizon,
             record_stride) -> _RunResult:
    """``_run_engine``'s loop for one run: the state and the loop
    invariants hold one Python float per group, each block of noise (one
    list per group) as drawn, and each period evaluates ``_lockstep``'s
    plain expressions group by group (an indexed loop costs less than
    comprehensions).  g2 takes h
    in a one-entry array: a model's g2 may take powers, which numpy's SIMD
    loops and the C library round differently.  A period whose h is not
    positive (or is NaN) computes on numpy scalars, which give inf or NaN
    where ``math.sqrt`` and float division raise; so does one whose
    information vanishes, where s_next may be zero."""
    rec_n, rec_m, rec_xi, rec_h, rec_x = [], [], [], [], []
    g2, sqrt = tm.g2, math.sqrt
    h_buf = np.empty(1)
    groups = range(len(m))
    n = 0
    for start in range(0, horizon, CHUNK):
        block = min(CHUNK, horizon - start)
        columns = [gen.standard_normal(block).tolist() for gen in gens]
        for e in zip(*columns):
            n += 1
            h = assess(m, s)
            h_buf[0] = h
            g2h = g2(h_buf).item()
            if h > 0.0:
                root_h = sqrt(h)
            else:
                h = np.float64(h)
                root_h = np.sqrt(h)
            info = g2h * g2h * h
            if not info > 0.0:
                info = np.float64(info)
            weight = h * g2h
            x, m_next, s_next = [], [], []
            for j in groups:
                xj = mu_star[j] + bstar[j] * g2h + e[j] / root_h
                sj = s[j]
                sn = sj + info
                x.append(xj)
                s_next.append(sn)
                m_next.append((sj * m[j] + (xj - mu_hat[j]) * weight) / sn)
            m, s = m_next, s_next
            if record_stride and (n % record_stride == 0 or n == 1 or n == horizon):
                rec_n.append(n)
                rec_m.append(m)
                rec_xi.append([sj / n for sj in s])
                rec_h.append(float(h))
                rec_x.append(x)
    return _RunResult(m=np.array([m]), s=np.array([s]),
                      rec_n=np.array(rec_n, dtype=int),
                      rec_m=np.array(rec_m), rec_xi=np.array(rec_xi),
                      rec_h=np.array(rec_h), rec_x=np.array(rec_x))


def _single_group_args(tm: TransformedModel):
    mdl = tm.model
    return (1.0,), (mdl.beta_star,), (mdl.delta_mu,), (mdl.mu_star,)


def _record_stride(stride: Optional[int], horizon: int) -> int:
    """The simulators' ``stride``: default about 1000 recorded periods."""
    if stride is None:
        return max(1, horizon // 1000)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return stride


@dataclass(frozen=True)
class Trajectory:
    """Thinned samples of one learning path plus the terminal classification
    of its batch: one group (``simulate``) has (T,) paths and a float
    ``terminal``, J groups (``simulate_multigroup``) (T, J) paths and (J,)
    ``terminal.m`` and ``terminal.xi``.  ``batch_m`` holds the terminal modes
    of every run simulated in lockstep with this one (runs ``run``, ``run +
    1``, ...), this path's first; ``batch_nearest`` and ``batch_distance``
    each run's nearest entry of ``steady_states`` and its distance to it.
    """

    periods: np.ndarray
    m: np.ndarray
    xi: np.ndarray
    h: np.ndarray
    x: np.ndarray
    terminal: LearningState
    steady_states: tuple
    batch_m: np.ndarray
    batch_nearest: np.ndarray
    batch_distance: np.ndarray

    @property
    def nearest_index(self) -> int:
        return int(self.batch_nearest[0])

    @property
    def nearest_distance(self) -> float:
        return float(self.batch_distance[0])


def _trajectory(tm: TransformedModel, res: _RunResult, horizon: int, seed: int,
                run: int, steady_states, targets, one_group: bool) -> Trajectory:
    """Package an engine result, classifying every run of the batch once:
    ``nearest_target`` of its terminal modes among ``targets``, one row of
    transformed modes per steady state.  ``one_group`` drops the group axis."""
    nearest, dist = tm.nearest_target(res.m, targets)
    m, xi, x, batch_m = res.rec_m, res.rec_xi, res.rec_x, res.m
    m_term, xi_term = res.m[0], res.s[0] / horizon
    if one_group:
        m, xi, x, batch_m = m[:, 0], xi[:, 0], x[:, 0], batch_m[:, 0]
        m_term, xi_term = float(m_term[0]), float(xi_term[0])
    return Trajectory(periods=res.rec_n, m=m, xi=xi, h=res.rec_h, x=x,
                      terminal=LearningState(n=horizon, m=m_term, xi=xi_term,
                                             seed=seed, run=run),
                      steady_states=tuple(steady_states), batch_m=batch_m,
                      batch_nearest=nearest, batch_distance=dist)


def simulate(model, horizon: int, seed: int, run: int = 0,
             prior: Optional[TruncNormalPrior] = None,
             stride: Optional[int] = None,
             grid_points: int = DEFAULT_GRID, runs: int = 1) -> Trajectory:
    """Simulate one learning path and classify its terminal belief.

    Per period: the evaluator best-responds to the posterior, an outcome is
    drawn under the truth, and the exact truncated-normal recursion updates
    (m, xi).  Distances are measured between support-projected modes, i.e.
    in belief space.  Runs ``run + 1 .. run + runs - 1`` advance in lockstep
    with it (their terminal modes land in ``batch_m``); each run's noise
    stream depends on (seed, run) alone, so every path is the same however
    it is batched.  ``stride`` thins the recorded path: every stride-th
    period plus the first and the last.
    """
    tm = _as_transformed(model)
    res = _run_engine(tm, *_single_group_args(tm), runs=runs, horizon=horizon,
                      seed=seed, prior=[prior],
                      record_stride=_record_stride(stride, horizon), first_run=run)
    states = limiting_ode(tm, grid_points=grid_points).steady_states
    return _trajectory(tm, res, horizon, seed, run, states,
                       [[ss.m] for ss in states], one_group=True)


# -- limiting ODE -----------------------------------------------------------


@dataclass(frozen=True)
class SteadyState:
    m: float
    xi: float
    kind: str  # "sink" | "saddle"
    eigenvalues: tuple[float, float]
    beta: float  # g1_inv of the projected mode

    @property
    def is_sink(self) -> bool:
        return self.kind == "sink"


@dataclass(frozen=True)
class OdeSystem:
    """Limiting mean dynamics of the posterior state theta = (m, xi)."""

    tm: TransformedModel
    steady_states: tuple[SteadyState, ...]

    def field(self, theta) -> np.ndarray:
        m, xi = float(theta[0]), float(theta[1])
        return np.array(_ode_drift(*self.tm.drift_terms(m), m, xi))

    def nullcline(self, m):
        """xi value with zero xi-drift at each m: a float for a scalar m, an
        array of m's shape otherwise."""
        out, _ = self.tm.drift_terms(np.atleast_1d(np.asarray(m, dtype=float)))
        return out if np.ndim(m) else float(out[0])

    def integrate(self, theta0, total_time: float) -> np.ndarray:
        """Explicit Euler with step bounded by 0.1 / |F|."""
        theta = np.asarray(theta0, dtype=float).copy()
        t = 0.0
        while t < total_time:
            f = self.field(theta)
            norm = float(np.linalg.norm(f))
            dt = min(EULER_MAX_STEP, 0.1 / max(norm, 1e-12), total_time - t)
            theta = theta + dt * f
            t += dt
        return theta


def limiting_ode(model, grid_points: int = DEFAULT_GRID) -> OdeSystem:
    """Build the limiting ODE and its classified steady states.

    Steady states are the equilibrium points mapped through g1; a mode
    pinned at a support edge maps to the unconstrained best fit at that edge
    (a sink below the support at the lower one).  Each state reads its
    eigenvalues (slope - 1, -1) and its kind from the point: the belief map
    and its transformed version share their slope at a fixed point, and
    stable points are the sinks.
    """
    tm = _as_transformed(model)
    mdl = tm.model
    eqs = find_equilibria(mdl, engine=tm.engine, grid_points=grid_points)
    states = []
    for p in eqs.points:
        if p.beta_hat in (mdl.beta_lo, mdl.beta_hi):
            edge = tm.m_lo if p.beta_hat == mdl.beta_lo else tm.m_hi
            m_hat = float(tm.drift_terms(edge)[1])
        else:
            m_hat = float(tm.g1(p.beta_hat))
        states.append(SteadyState(
            m=m_hat, xi=float(fisher_information(tm, p.h_hat)),
            kind="sink" if p.stable else "saddle",
            eigenvalues=(p.slope - 1.0, -1.0), beta=p.beta_hat))
    return OdeSystem(tm=tm, steady_states=tuple(states))


@dataclass(frozen=True)
class PhaseField:
    m: np.ndarray
    xi: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    nullcline: np.ndarray
    steady_states: tuple[SteadyState, ...]


def phase_field(model, grid: int = 200) -> PhaseField:
    """Evaluate the ODE field for plotting on a ``grid`` x ``grid`` (m, xi)
    grid spanning the support, the steady states and the Fisher information
    range, with margins."""
    tm = _as_transformed(model)
    ode = limiting_ode(tm)
    lo = min([tm.m_lo] + [ss.m for ss in ode.steady_states])
    span = tm.m_hi - lo
    m_values = np.linspace(lo - 0.05 * span, tm.m_hi + 0.05 * span, grid)
    i_lo = float(fisher_information(tm, tm.h_lo))
    i_hi = float(fisher_information(tm, tm.h_hi))
    pad = 0.2 * (i_hi - i_lo)
    xi_values = np.linspace(max(i_lo - pad, 1e-9 + 0.0), i_hi + pad, grid)
    info, psi = tm.drift_terms(m_values)
    f1, f2 = _ode_drift(info, psi, m_values, xi_values[:, None])
    return PhaseField(m=m_values, xi=xi_values, f1=f1, f2=f2, nullcline=info,
                      steady_states=ode.steady_states)


# -- Monte Carlo ------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Terminal classification frequencies over independent runs, plus the
    thinned path of run 0; one count per steady state (one group) or per
    color-sighted equilibrium (J groups)."""

    steady_states: tuple[SteadyState, ...]
    counts: tuple[int, ...]
    unclassified: int
    runs: int
    horizon: int
    radius: float
    seed: int
    trajectory: Trajectory

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.runs for c in self.counts)

    @property
    def sink_fraction(self) -> float:
        return sum(c for c, ss in zip(self.counts, self.steady_states)
                   if ss.is_sink) / self.runs

    @property
    def saddle_hits(self) -> int:
        return sum(c for c, ss in zip(self.counts, self.steady_states)
                   if not ss.is_sink)


def monte_carlo_convergence(model, runs: int, horizon: int, seed: int,
                            radius: float = DEFAULT_RADIUS,
                            prior: Optional[TruncNormalPrior] = None,
                            grid_points: int = DEFAULT_GRID,
                            stride: Optional[int] = None) -> ConvergenceReport:
    """Run independent learning paths and classify their terminal beliefs.

    Each terminal mode is projected onto the support and assigned to the
    nearest steady state within ``radius`` (transformed units); runs
    farther than that from every steady state count as unclassified.  All
    runs go through one lockstep ``simulate`` pass, which also records run
    0's path (``stride`` as in ``simulate``).
    """
    return _convergence_report(
        simulate(model, horizon=horizon, seed=seed, run=0, prior=prior,
                 stride=stride, grid_points=grid_points,
                 runs=runs), radius)


def _convergence_report(traj: Trajectory, radius: float) -> ConvergenceReport:
    """Count each run of ``traj``'s batch at its nearest steady state within
    ``radius`` (the others are unclassified), as the simulator classified it."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    within = traj.batch_distance <= radius
    counts = [int(np.sum((traj.batch_nearest == i) & within))
              for i in range(len(traj.steady_states))]
    return ConvergenceReport(steady_states=traj.steady_states, counts=tuple(counts),
                             unclassified=int(np.sum(~within)),
                             runs=len(traj.batch_m), horizon=traj.terminal.n,
                             radius=radius, seed=traj.terminal.seed, trajectory=traj)
