"""Independent oracles and instance generators for the test suite.

Everything here re-derives expected values from scratch (closed forms,
quadratics, dense scans) without calling into the package's solvers, so
tests compare two genuinely separate routes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import types
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, erfcx

import berklab.learning
from berklab import BestResponseEngine, LQParams, ModelPrimitives, build_lq
from berklab.best_response import SOLVE_REL_STEP
from berklab.learning import (CHUNK, TransformedModel, TruncNormalPrior,
                              _foc_table, _group_quadrature,
                              _quadrature_assessment, _RunResult)
from berklab.rootfind import fd1
from berklab.truncnorm import INTERIOR_SIGMAS


def trunc_mean_two_branch(m, sigma, lo: float, hi: float) -> np.ndarray:
    """Truncated-normal mean by the erfc/erfcx two-branch formula on every
    element, with no interior shortcut: the reference the package's fast
    path must reproduce bit for bit."""
    m = np.asarray(m, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), m.shape)
    flip = m > 0.5 * (lo + hi)
    mm = np.where(flip, lo + hi - m, m)
    u = (lo - mm) / (sigma * math.sqrt(2.0))
    w = (hi - mm) / (sigma * math.sqrt(2.0))
    c = math.sqrt(2.0 / math.pi)
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(u * u - w * w)
        den_s = erfcx(np.maximum(u, 0.0)) - erfcx(w) * decay
        ratio_far = c * (1.0 - decay) / np.where(den_s > 0.0, den_s, 1.0)
        num_d = np.exp(-u * u) - np.exp(-w * w)
        den_d = 0.5 * (erfc(u) - erfc(w))
        ratio_near = 0.5 * c * num_d / np.where(den_d > 0.0, den_d, 1.0)
    out = mm + sigma * np.where(u >= 0.0, ratio_far, ratio_near)
    return np.clip(np.where(flip, lo + hi - out, out), lo, hi)


def nudged(x: float, ulps: int) -> float:
    """x moved ``ulps`` floats up (down when negative)."""
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


def interior_edge(lo: float, sigma: float) -> float:
    """The least float m with m - lo > INTERIOR_SIGMAS * sigma, where
    ``trunc_mean``'s interior path starts."""
    m = lo + INTERIOR_SIGMAS * sigma
    while not m - lo > INTERIOR_SIGMAS * sigma:
        m = nudged(m, 1)
    while nudged(m, -1) - lo > INTERIOR_SIGMAS * sigma:
        m = nudged(m, -1)
    return m


def log_mass_two_branch(m, sigma, lo: float, hi: float) -> np.ndarray:
    """log P(lo <= X <= hi) by evaluating both the erfcx and the erfc form
    on every element and picking per element: the reference the package's
    one-branch evaluation must reproduce bit for bit."""
    m = np.asarray(m, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), m.shape)
    mm = np.where(m > 0.5 * (lo + hi), lo + hi - m, m)
    u = (lo - mm) / (sigma * math.sqrt(2.0))
    w = (hi - mm) / (sigma * math.sqrt(2.0))
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(u * u - w * w)
        far = np.log(0.5) - u * u + np.log(
            np.maximum(erfcx(np.maximum(u, 0.0)) - erfcx(w) * decay, 1e-300))
        near = np.log(np.maximum(0.5 * (erfc(u) - erfc(w)), 1e-300))
    return np.where(u >= 0.0, far, near)


def general_engine(model: ModelPrimitives) -> BestResponseEngine:
    """The engine on ``model`` without its LQ parameters: the general
    (root-finding) path that a user's own primitives take, which tests
    check the LQ closed forms against."""
    return BestResponseEngine(dataclasses.replace(model, lq=None))


def direct_quadrature_assessment(tm, alphas, m_vec, s_vec, nodes: int) -> float:
    """Assessment under group posteriors (modes ``m_vec``, precisions
    ``s_vec``) by a direct effort solve at every quadrature node: the
    engine's numeric first-order solve over the learning step's nodes,
    clipped to the assessment range as the learning step clips it."""
    weights, betas = [], []
    for alpha, mj, sj in zip(alphas, m_vec, s_vec):
        pts, wts = _group_quadrature(tm, float(mj), float(sj), nodes)
        weights += [float(alpha * w) for w in wts]
        betas += [float(tm.g1_inv(float(p))) for p in pts]
    h = tm.engine._assessment_numeric(weights, betas)
    return min(max(h, tm.h_lo), tm.h_hi)


def per_group_assessment_gradient(engine, betas, weights) -> np.ndarray:
    """Gradient of the shared numeric assessment by one scalar difference
    per group, each a fresh ``assessment_multigroup`` solve with that
    group's productivity moved: the reference the engine's single array
    difference must reproduce bit for bit."""
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.size)
    for j in range(betas.size):
        def h_of(bj, j=j):
            b = betas.copy()
            b[j] = bj
            return engine.assessment_multigroup(b, weights)
        out[j] = fd1(h_of, float(betas[j]), lo=engine.model.beta_lo,
                     rel_step=SOLVE_REL_STEP)
    return out


def lq_assessment(lq: LQParams, beta: float) -> float:
    b2 = beta * beta
    return lq.lambda1 * b2 / (lq.lambda2 * b2 + lq.kappa * lq.c)


def _power_assessment(gamma: float, c_scale: float, kappa_scale: float,
                      lambda1: float, lambda2: float, s: float) -> tuple[float, float]:
    """Optimal assessment h for ``build_power`` primitives and its derivative
    dh/dS, at S = sum_j w_j beta_j^q.

    With a = (h beta / c)^p, p = 1/(gamma-1), the first-order condition
    reduces to (lambda1 - lambda2 h) h^(p-2) = kappa c^p / (p S), where
    q = gamma/(gamma-1); dh/dS follows by the implicit function theorem.
    """
    p = 1.0 / (gamma - 1.0)
    k = kappa_scale * c_scale ** p / (p * s)
    hi = min(1.0, lambda1 / lambda2) if lambda2 > 0.0 else 1.0
    h = brentq(lambda x: (lambda1 - lambda2 * x) * x ** (p - 2.0) - k,
               1e-12, hi - 1e-12, xtol=1e-16, rtol=8.9e-16)
    dg_dh = (-lambda2 * h ** (p - 2.0)
             + (lambda1 - lambda2 * h) * (p - 2.0) * h ** (p - 3.0))
    return h, -k / (s * dg_dh)


def power_assessment_gradient(gamma: float, c_scale: float, kappa_scale: float,
                              lambda1: float, lambda2: float, betas: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
    """Exact gradient of the shared assessment for ``build_power`` primitives:
    dh/dbeta_j = dh/dS * w_j q beta_j^(q-1), with dh/dS from
    ``_power_assessment``."""
    q = gamma / (gamma - 1.0)
    s = float(np.dot(weights, betas ** q))
    _, dh_ds = _power_assessment(gamma, c_scale, kappa_scale, lambda1, lambda2, s)
    return dh_ds * weights * q * betas ** (q - 1.0)


def power_ode_eigenvalue(gamma: float, c_scale: float, kappa_scale: float,
                         lambda1: float, lambda2: float, beta_star: float,
                         delta_mu: float, beta_lo: float, beta_hi: float) -> float:
    """Interior eigenvalue slope - 1 of the limiting ODE for ``build_power``
    primitives whose belief map crosses the diagonal once, by the implicit
    function theorem.

    In m = beta^q the best fit solves m = beta_star^q - delta_mu c^p h^(-p),
    with h the assessment at S = m, so the map's slope is
    delta_mu c^p p h^(-p-1) dh/dS; its fixed point is found by Brent's method
    on [beta_lo^q, beta_hi^q].
    """
    p, q = 1.0 / (gamma - 1.0), gamma / (gamma - 1.0)

    def assess(m):
        return _power_assessment(gamma, c_scale, kappa_scale, lambda1, lambda2, m)

    def gap(m):
        return beta_star ** q - delta_mu * c_scale ** p * assess(m)[0] ** -p - m

    m_hat = brentq(gap, beta_lo ** q, beta_hi ** q, xtol=1e-15, rtol=8.9e-16)
    h, dh_ds = assess(m_hat)
    return delta_mu * c_scale ** p * p * h ** (-p - 1.0) * dh_ds - 1.0


def lq_ode_eigenvalue(model: ModelPrimitives, m_hat: float) -> float:
    """Interior eigenvalue slope - 1 of the limiting ODE for LQ primitives at
    the transformed mode m_hat = beta^2.

    In m the best fit is beta_star^2 - delta_mu c / h(m), with
    h(m) = lambda1 m / (lambda2 m + kappa c) and lambda1 = lambda_e +
    delta lambda_a, so the map's slope is delta_mu kappa c^2 / (lambda1 m^2).
    """
    lq = model.lq
    lambda1 = lq.lambda_e + lq.delta * lq.lambda_a
    return model.delta_mu * lq.kappa * lq.c ** 2 / (lambda1 * m_hat * m_hat) - 1.0


def lq_joint_best_fit(model: ModelPrimitives, betas: Sequence[float],
                      alphas: Sequence[float], truths: Sequence[float],
                      deltas: Sequence[float]) -> np.ndarray:
    """Joint belief map of color-sighted groups for LQ primitives: each
    group's best fit on the support at the shared assessment of the
    population, which depends on the beliefs only through
    S = sum_j alpha_j beta_j^2."""
    lq = model.lq
    lambda1 = lq.lambda_e + lq.delta * lq.lambda_a
    s = sum(a * b * b for a, b in zip(alphas, betas))
    h = lambda1 * s / (lq.lambda_a * s + lq.kappa * lq.c)
    return np.array([min(math.sqrt(max(t * t - d * lq.c / h, model.beta_lo ** 2)),
                         model.beta_hi) for t, d in zip(truths, deltas)])


def undamped_sighted_iteration(model: ModelPrimitives, alphas: Sequence[float],
                               truths: Sequence[float], deltas: Sequence[float],
                               tol: float = 1e-13, max_iter: int = 20_000):
    """The joint belief map of ``lq_joint_best_fit`` iterated plainly from
    the truth vector until a step is below ``tol``: (the limit, or None when
    it does not settle in ``max_iter`` steps, and the list of iterates)."""
    betas = np.array(truths, dtype=float)
    path = [betas]
    for _ in range(max_iter):
        nxt = lq_joint_best_fit(model, betas, alphas, truths, deltas)
        path.append(nxt)
        if np.max(np.abs(nxt - betas)) < tol:
            return nxt, path
        betas = nxt
    return None, path


def lq_sighted_oracle(model: ModelPrimitives, alphas: Sequence[float],
                      truths: Sequence[float],
                      deltas: Sequence[float]) -> list[np.ndarray]:
    """The color-sighted equilibria of LQ primitives at which every group's
    best fit is free, from a quadratic.

    With S = sum_j alpha_j b_j^2, each free fit is b_j^2 = t_j^2 - d_j c / h
    and h = lambda1 S / (lambda2 S + kappa c), so S solves the single-group
    fixed-point quadratic with beta_star^2 replaced by sum_j alpha_j t_j^2
    and delta_mu by sum_j alpha_j d_j.  A root counts only where every b_j
    is real and strictly inside the support.
    """
    lq = model.lq
    lambda1 = lq.lambda_e + lq.delta * lq.lambda_a
    t2 = sum(a * t * t for a, t in zip(alphas, truths))
    dm = sum(a * d for a, d in zip(alphas, deltas))
    out = []
    for s in np.roots([lambda1, -(lambda1 * t2 - dm * lq.c * lq.lambda_a),
                       dm * lq.kappa * lq.c ** 2]):
        if abs(s.imag) > 1e-12 or s.real <= 0.0:
            continue
        h = lambda1 * s.real / (lq.lambda_a * s.real + lq.kappa * lq.c)
        sq = np.array([t * t - d * lq.c / h for t, d in zip(truths, deltas)])
        if np.all(sq >= 0.0):
            b = np.sqrt(sq)
            if np.all((b > model.beta_lo) & (b < model.beta_hi)):
                out.append(b)
    return out


def lq_psi(model: ModelPrimitives, beta: float) -> float:
    """Closed-form belief map for LQ models, written independently."""
    lq = model.lq
    h = lq_assessment(lq, beta)
    val = model.beta_star ** 2 - model.delta_mu * lq.c / h
    val = max(val, model.beta_lo ** 2)
    return min(math.sqrt(val), model.beta_hi)


def lq_oracle_equilibria(model: ModelPrimitives) -> list[tuple[float, bool]]:
    """All equilibria of an LQ model from the fixed-point quadratic.

    In x = beta^2 the interior fixed points solve
    lambda1 x^2 - (lambda1 beta_star^2 - delta_mu c lambda2) x
    + delta_mu kappa c^2 = 0; support endpoints are equilibria when the
    clamped map pins there.  Stability comes from the crossing direction of
    the closed-form map, evaluated directly.
    """
    lq = model.lq
    dm = model.delta_mu
    lo, hi = model.beta_lo, model.beta_hi
    if dm == 0.0:
        return [(model.beta_star, True)]
    coeffs = [lq.lambda1,
              -(lq.lambda1 * model.beta_star ** 2 - dm * lq.c * lq.lambda2),
              dm * lq.kappa * lq.c ** 2]
    candidates = []
    for x in np.roots(coeffs):
        if abs(x.imag) < 1e-12 and x.real > 0.0:
            b = math.sqrt(x.real)
            if lo + 1e-12 < b < hi - 1e-12:
                candidates.append(b)
    if lq_psi(model, lo) <= lo:
        candidates.append(lo)
    if lq_psi(model, hi) >= hi:
        candidates.append(hi)

    out = []
    eps = 1e-7 * (hi - lo)
    for b in sorted(set(candidates)):
        left = lq_psi(model, max(b - eps, lo)) - max(b - eps, lo)
        right = lq_psi(model, min(b + eps, hi)) - min(b + eps, hi)
        if b <= lo + 1e-12:
            stable = right < 0.0
        elif b >= hi - 1e-12:
            stable = left > 0.0
        else:
            stable = left > 0.0 > right
        out.append((b, stable))
    return sorted(out, key=lambda t: -t[0])


def dense_scan_equilibria(model: ModelPrimitives, points: int = 10_000,
                          refine: int = 80) -> list[float]:
    """Grid sign scan plus bisection on the closed-form map (scan oracle)."""
    betas = np.linspace(model.beta_lo, model.beta_hi, points)
    d = np.array([lq_psi(model, float(b)) - float(b) for b in betas])
    roots = []
    if abs(d[0]) < 1e-13:
        roots.append(float(betas[0]))
    if abs(d[-1]) < 1e-13:
        roots.append(float(betas[-1]))
    for i in range(points - 1):
        if abs(d[i]) < 1e-13 or abs(d[i + 1]) < 1e-13:
            continue
        if d[i] * d[i + 1] < 0.0:
            lo, hi = float(betas[i]), float(betas[i + 1])
            for _ in range(refine):
                mid = 0.5 * (lo + hi)
                if (lq_psi(model, lo) - lo) * (lq_psi(model, mid) - mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


def random_lq_instance(rng: np.random.Generator, delta_mu: float,
                       interior_margin: float = 1.2) -> ModelPrimitives:
    """Random admissible LQ instance; keeps assessment interior on the support."""
    c = float(rng.uniform(0.5, 2.0))
    lambda_e = float(rng.uniform(0.5, 2.0))
    lambda_a = float(rng.uniform(0.2, 1.0))
    delta = float(rng.uniform(0.1, 0.9))
    beta_star = float(rng.uniform(1.0, 3.0))
    beta_lo = beta_star * float(rng.uniform(0.15, 0.6))
    beta_hi = beta_star * float(rng.uniform(1.4, 2.5))
    lambda1 = lambda_e + delta * lambda_a
    # interiority: h(beta_hi) < 1 needs (lambda1 - lambda2) beta_hi^2 < kappa c
    kappa_min = max((lambda1 - lambda_a) * beta_hi ** 2 / c, 0.1)
    kappa = float(interior_margin * kappa_min * rng.uniform(1.0, 2.0))
    params = LQParams(c=c, kappa=kappa, lambda_e=lambda_e,
                      lambda_a=lambda_a, delta=delta)
    return build_lq(params, mu_star=0.0, beta_star=beta_star,
                    mu_hat=delta_mu, beta_lo=beta_lo, beta_hi=beta_hi)


def three_equilibria_model() -> ModelPrimitives:
    """The documented overestimation instance with a belief cascade corner."""
    params = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0, delta=0.0)
    return build_lq(params, mu_star=0.0, beta_star=2.0, mu_hat=0.5,
                    beta_lo=0.3, beta_hi=3.0)


# per-group (alphas, beta_stars, deltas, mu_stars) for two groups on the
# three-equilibria model: uneven weights, so the population mean is not an
# exact halving
TWO_GROUPS = ((0.3, 0.7), (2.0, 1.8), (0.5, -0.2), (0.0, 0.1))


def unique_equilibrium_model(delta_mu: float = -0.5) -> ModelPrimitives:
    params = LQParams(c=1.0, kappa=1.0, lambda_e=1.0, lambda_a=1.0, delta=0.0)
    return build_lq(params, mu_star=0.0, beta_star=2.0, mu_hat=delta_mu,
                    beta_lo=0.5, beta_hi=3.0)


def _posterior_means_reference(tm, m, s):
    """Truncated-posterior means with the precision floor and the uniform
    fallback applied every period, through the two-branch formula."""
    mid = 0.5 * (tm.m_lo + tm.m_hi)
    sigma = 1.0 / np.sqrt(np.maximum(s, 1e-300))
    nu = trunc_mean_two_branch(m, sigma, tm.m_lo, tm.m_hi)
    return np.where(s > 0.0, nu, mid)


def _assessment_rule_reference(tm, alphas):
    if tm.ce_exact:
        ce = tm.engine.certainty_equivalent

        def rule(m, s):
            # the population mean as a left fold over the groups' columns,
            # alpha_0 nu_0 + alpha_1 nu_1 + ...: no BLAS product, whose
            # order of summation may depend on the number of runs
            nu = _posterior_means_reference(tm, m, s)
            mean = alphas[0] * nu[:, 0]
            for j in range(1, alphas.size):
                mean = mean + alphas[j] * nu[:, j]
            return ce(mean)
    else:
        table = _foc_table(tm)

        def rule(m, s):
            return _quadrature_assessment(tm, table, alphas, m, s)
    return rule


@contextlib.contextmanager
def zero_noise():
    """Every learning run draws zero noise while the block lasts: the one
    owner of the noise, ``berklab.learning.noise_stream``, is replaced by a
    stream of zeros (a context manager, not a fixture, so that it serves
    under ``@given`` too)."""
    drawn = berklab.learning.noise_stream
    zeros = types.SimpleNamespace(standard_normal=np.zeros)
    berklab.learning.noise_stream = lambda seed, run, group=0: zeros
    try:
        yield
    finally:
        berklab.learning.noise_stream = drawn


def run_engine_reference(tm: TransformedModel, alphas: Sequence[float],
                         beta_stars: Sequence[float], deltas: Sequence[float],
                         mu_stars: Sequence[float], runs: int, horizon: int, seed: int,
                         prior: Optional[Sequence[Optional[TruncNormalPrior]]] = None,
                         record_stride: int = 0, first_run: int = 0) -> _RunResult:
    """The lockstep learning step written as plain array expressions, one
    fresh temporary per operation and every guard applied each period: the
    reference ``learning._run_engine``'s buffered step must reproduce bit
    for bit.  The certainty-equivalent rule's posterior means go through
    ``trunc_mean_two_branch``.  The noise comes from
    ``berklab.learning.noise_stream``, so ``zero_noise`` serves both sides."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    groups = len(alphas)
    if prior is not None and len(prior) != groups:
        raise ValueError(f"prior has {len(prior)} entries for {groups} groups")
    # loop invariants, as (1, groups) rows against (runs, groups) state
    bstar_t = np.array([[float(tm.g1(b)) for b in beta_stars]])
    mu_star_row = np.array([mu_stars], dtype=float)
    mu_hat_row = mu_star_row + np.array([deltas], dtype=float)
    assess = _assessment_rule_reference(tm, np.asarray(alphas, dtype=float))
    h_lo, h_hi = tm.h_lo, tm.h_hi

    m = np.zeros((runs, groups))
    s = np.zeros((runs, groups))
    if prior is not None:
        for j, pj in enumerate(prior):
            if pj is not None:
                m[:, j] = pj.mean
                s[:, j] = pj.precision

    gens = [[berklab.learning.noise_stream(seed, first_run + k, j)
             for j in range(groups)] for k in range(runs)]

    rec_n, rec_m, rec_xi, rec_h, rec_x = [], [], [], [], []
    n = 0
    remaining = horizon
    while remaining > 0:
        block = min(CHUNK, remaining)
        eps = np.empty((block, runs, groups))
        for k in range(runs):
            for j in range(groups):
                eps[:, k, j] = gens[k][j].standard_normal(block)
        for t in range(block):
            n += 1
            e = eps[t]
            h = np.minimum(np.maximum(assess(m, s), h_lo), h_hi)
            g2h = tm.g2(h)
            g3c = (0.0 * h)[:, None]  # the builders' additive term, g3(h)
            info = g2h * g2h * h
            r_star = bstar_t * g2h[:, None] + g3c
            x = mu_star_row + r_star + e / np.sqrt(h)[:, None]
            contrib = (x - mu_hat_row - g3c) * (h * g2h)[:, None]
            s_new = s + info[:, None]
            m = (s * m + contrib) / s_new
            s = s_new
            if record_stride and (n % record_stride == 0 or n == 1 or n == horizon):
                rec_n.append(n)
                rec_m.append(m[0].copy())
                rec_xi.append(s[0] / n)
                rec_h.append(float(h[0]))
                rec_x.append(x[0].copy())
        remaining -= block

    return _RunResult(m=m, s=s,
                      rec_n=np.array(rec_n, dtype=int),
                      rec_m=np.array(rec_m), rec_xi=np.array(rec_xi),
                      rec_h=np.array(rec_h), rec_x=np.array(rec_x))
