"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values are
frozen from independent oracles (closed forms, the fixed-point quadratic,
dense scans); tolerances are pinned here and never loosened.
"""

import math
import time

import numpy as np
import pytest

from berklab import (BestResponseEngine, GroupPopulation, LQParams,
                     TruncNormalPrior, build_lq, color_blind_equilibria,
                     color_sighted_equilibria, color_sighted_equilibrium,
                     comparative_statics, disparity_report, eigen_check,
                     find_equilibria, first_order_comparison,
                     gap_decomposition, limiting_ode,
                     monte_carlo_convergence, posterior_params, sensitivity,
                     transform)
from berklab.truncnorm import trunc_pdf

from helpers import (general_engine, lq_oracle_equilibria,
                     posterior_exact_density, random_lq_instance,
                     three_equilibria_model, unique_equilibrium_model)

SEED = 20260809


def report(num: str, ok: bool, desc: str, elapsed: float | None = None) -> bool:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} {status}: {desc}{timing}")
    return ok


def test_criterion_01_closed_form_equivalence():
    """Numeric best responses reproduce the LQ closed forms."""
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    ok = True
    for _ in range(100):
        c = float(rng.uniform(0.5, 2.0))
        kappa = float(rng.uniform(0.5, 2.0))
        lambda_e = float(rng.uniform(0.5, 2.0))
        lambda_a = float(rng.uniform(0.2, 1.0))
        delta = float(rng.uniform(0.0, 1.0))
        lq = LQParams(c=c, kappa=kappa, lambda_e=lambda_e,
                      lambda_a=lambda_a, delta=delta)
        beta_hi = math.sqrt(0.9 * kappa * c / max(lq.lambda1 - lq.lambda2,
                                                  1e-3))
        beta_hi = min(max(beta_hi, 0.4), 4.0)
        beta = float(rng.uniform(0.2 * beta_hi, beta_hi))
        h = float(rng.uniform(0.05, 0.95))
        model = build_lq(lq, 0.0, 0.5 * beta_hi, 0.0, 0.1 * beta_hi, beta_hi)
        numeric = general_engine(model)
        ok &= abs(numeric.effort(h, beta) - h * beta / c) <= 1e-8 * (h * beta / c)
        r_exp = h * beta * beta / c
        ok &= abs(numeric.effective_effort(h, beta) - r_exp) <= 1e-8 * r_exp
        h_exp = lq.lambda1 * beta ** 2 / (lq.lambda2 * beta ** 2 + kappa * c)
        ok &= abs(numeric.assessment(beta) - h_exp) <= 1e-8 * h_exp
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert report("1", ok, "numeric solvers match a = h b/c, R = h b^2/c, "
                  "h = l1 b^2/(l2 b^2 + kappa c) at 100 points, rel 1e-8",
                  elapsed)


def test_criterion_02_underestimation_unique_stable():
    """Fifty random instances with negative misspecification."""
    rng = np.random.default_rng(SEED + 2)
    t0 = time.monotonic()
    ok = True
    for _ in range(50):
        dm = float(rng.uniform(-1.0, -0.01))
        model = random_lq_instance(rng, dm)
        eqs = find_equilibria(model)
        pt = eqs.points[0]
        interior = pt.beta_hat < model.beta_hi - 1e-9
        ok &= len(eqs) == 1
        ok &= pt.stable
        ok &= pt.beta_hat > model.beta_star
        ok &= pt.is_sce if interior else pt.kl > 0.0
        oracle = lq_oracle_equilibria(model)
        ok &= len(oracle) == 1
        ok &= abs(pt.beta_hat - oracle[0][0]) < 1e-6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    assert report("2", ok, "negative misspecification: unique stable "
                  "equilibrium above the truth, SCE when interior "
                  "(50 instances)", elapsed)


def test_criterion_03_overestimation_structure():
    """Documented three-equilibria instance plus 50 random positive cases."""
    t0 = time.monotonic()
    model = three_equilibria_model()
    eqs = find_equilibria(model)
    # independent oracle: x^2 - 3.5 x + 0.5 = 0 in x = beta^2, plus corner
    x_hi = (3.5 + math.sqrt(3.5 ** 2 - 2.0)) / 2.0
    x_lo = (3.5 - math.sqrt(3.5 ** 2 - 2.0)) / 2.0
    expected = [(math.sqrt(x_hi), "stable", True),
                (math.sqrt(x_lo), "unstable", True),
                (0.3, "stable", False)]
    ok = len(eqs) == 3
    for pt, (b, stab, sce) in zip(eqs.points, expected):
        ok &= abs(pt.beta_hat - b) < 1e-5
        ok &= pt.stability == stab
        ok &= pt.is_sce == sce

    rng = np.random.default_rng(SEED + 3)
    for _ in range(50):
        dm = float(rng.uniform(0.01, 1.0))
        m = random_lq_instance(rng, dm)
        got = find_equilibria(m)
        ok &= len(got) % 2 == 1
        labels = [p.stability for p in got.points]
        ok &= labels[0] == "stable"
        ok &= all(a != b for a, b in zip(labels, labels[1:]))
        ok &= all(p.beta_hat < m.beta_star for p in got.points)
        oracle = lq_oracle_equilibria(m)
        ok &= len(oracle) == len(got)
        ok &= all(abs(p.beta_hat - b) < 1e-6
                  for p, (b, _) in zip(got.points, oracle))
    elapsed = time.monotonic() - t0
    assert report("3", ok, "positive misspecification: documented triple to "
                  "1e-5 vs quadratic oracle; odd counts with alternating "
                  "stability (50 instances)", elapsed)


def test_criterion_04_robust_comparative_statics():
    """Distortion sets move monotonically for every lever, 100% of cases."""
    rng = np.random.default_rng(SEED + 4)
    t0 = time.monotonic()
    # raising the raw parameter by +1%: does the theorem predict larger
    # distortions?  (zeta is lambda_e, delta, -c, -kappa)
    predicts_rise = {"delta_mu": True, "lambda_e": False, "delta": False,
                     "c": True, "kappa": True}
    total, passed = 0, 0
    for _ in range(50):
        dm = float(rng.uniform(-1.0, 1.0))
        if abs(dm) < 0.05:
            dm = math.copysign(0.05, dm if dm != 0.0 else 1.0)
        model = random_lq_instance(rng, dm)
        for param, rise_up in predicts_rise.items():
            for sgn in (+1.0, -1.0):
                res = comparative_statics(model, param, rel_step=0.01 * sgn)
                rises = rise_up if sgn > 0 else not rise_up
                good = (res.weak_set_order_increase if rises
                        else res.weak_set_order_decrease)
                if param != "delta_mu":
                    good &= res.assessment_shift in ("up", "down")
                total += 1
                passed += bool(good)
    elapsed = time.monotonic() - t0
    ok = passed == total and elapsed < 30.0
    assert report("4", ok, f"weak-set-order movement in the predicted "
                  f"direction for all levers: {passed}/{total}", elapsed)


def test_criterion_05_posterior_exactness():
    """Quadrature-normalized posterior equals the truncated-normal form."""
    rng = np.random.default_rng(SEED + 5)
    t0 = time.monotonic()
    model = three_equilibria_model()
    tm = transform(model)
    eng = BestResponseEngine(model)
    worst = 0.0
    for _ in range(20):
        hs = rng.uniform(tm.h_lo, tm.h_hi, 50)
        xs = np.array([eng.effective_effort(h, 2.0)
                       + rng.normal(0.0, 1.0 / math.sqrt(h)) for h in hs])
        hist = list(zip(hs, xs))
        mode, var = posterior_params(tm, hist)
        pts = np.linspace(tm.m_lo, tm.m_hi, 1000)
        quad = posterior_exact_density(tm, hist, pts)
        closed = trunc_pdf(pts, mode, math.sqrt(var), tm.m_lo, tm.m_hi)
        worst = max(worst, float(np.max(np.abs(quad - closed))))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    assert report("5", ok, f"uniform-prior posterior exactness, sup error "
                  f"{worst:.2e} over 20 histories", elapsed)


def test_criterion_06_sink_selection_at_desk_scale():
    """K=200, N=1e5 on the three-equilibria instance: sinks only."""
    t0 = time.monotonic()
    model = three_equilibria_model()
    rep = monte_carlo_convergence(model, runs=200, horizon=100_000, seed=601)
    kinds = [s.kind for s in rep.steady_states]
    sink_runs = sum(c for c, k in zip(rep.counts, kinds) if k == "sink")
    elapsed = time.monotonic() - t0
    ok = (sink_runs / rep.runs >= 0.99
          and rep.saddle_hits == 0
          and elapsed < 300.0)
    assert report("6", ok, f"{sink_runs}/{rep.runs} runs within 0.05 of a "
                  f"sink, {rep.saddle_hits} at the saddle", elapsed)


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: from a uniform prior the corner sink's basin is "
    "dynamically unreachable at desk scale (early posteriors are diffuse, "
    "assessment stays near 0.82, and escape below the saddle needs ~5 sigma "
    "of persistent adverse draws; 0 of 4000 probe runs cascaded), so both "
    "sink frequencies cannot be strictly positive with K=200; see the "
    "decisions ledger"))
def test_criterion_06b_uniform_prior_reaches_both_sinks():
    model = three_equilibria_model()
    rep = monte_carlo_convergence(model, runs=200, horizon=100_000, seed=601)
    kinds = [s.kind for s in rep.steady_states]
    sink_counts = [c for c, k in zip(rep.counts, kinds) if k == "sink"]
    ok = all(c > 0 for c in sink_counts)
    report("6b", ok, f"per-sink frequencies under the uniform prior: "
           f"{sink_counts}")
    assert ok


def test_criterion_07_concentrated_priors_select_their_sink():
    """Truncated-normal prior (sd 0.01) at each sink keeps 95% there."""
    t0 = time.monotonic()
    model = three_equilibria_model()
    ode = limiting_ode(model)
    ok = True
    fractions = []
    for idx, ss in enumerate(ode.steady_states):
        if ss.kind != "sink":
            continue
        prior = TruncNormalPrior(mean=ss.m, sd=0.01)
        rep = monte_carlo_convergence(model, runs=100, horizon=100_000,
                                      seed=701 + idx, prior=prior)
        frac = rep.counts[idx] / rep.runs
        fractions.append(round(frac, 3))
        ok &= frac >= 0.95
    elapsed = time.monotonic() - t0
    assert report("7", ok, f"per-sink convergence under concentrated priors: "
                  f"{fractions}", elapsed)


def test_criterion_08_ode_equilibrium_correspondence():
    """Steady states mirror the equilibria through g1 with matching kinds."""
    rng = np.random.default_rng(SEED + 8)
    t0 = time.monotonic()
    ok = True
    models = [three_equilibria_model(), unique_equilibrium_model(-0.5)]
    for _ in range(50):
        models.append(random_lq_instance(rng, float(rng.uniform(-1.0, -0.01))))
    for _ in range(50):
        models.append(random_lq_instance(rng, float(rng.uniform(0.01, 1.0))))
    for model in models:
        tm = transform(model)
        eqs = find_equilibria(model)
        ode = limiting_ode(tm)
        ok &= len(eqs) == len(ode.steady_states)
        for pt, ss in zip(eqs.points, ode.steady_states):
            interior = (model.beta_lo + 1e-9 < pt.beta_hat
                        < model.beta_hi - 1e-9)
            if interior:
                ok &= abs(ss.m - tm.g1(pt.beta_hat)) < 1e-6
            ok &= np.linalg.norm(ode.field((ss.m, ss.xi))) < 1e-8
            ok &= (ss.kind == "sink") == pt.stable
    elapsed = time.monotonic() - t0
    assert report("8", ok, "ODE steady states = g1(equilibria) with "
                  "eigenvalue signs matching stability on 102 instances",
                  elapsed)


def test_criterion_09_shared_assessment_small_misspecification():
    """Two-group contraction: convergence, bounds, sensitivities, spectrum."""
    t0 = time.monotonic()
    base = unique_equilibrium_model(-0.5)
    pop = GroupPopulation(model=base, alphas=(0.6, 0.4),
                          deltas=(0.05, -0.04), beta_stars=(2.0, 1.8))
    eq = color_sighted_equilibrium(pop)
    ok = len(color_sighted_equilibria(pop)) == 1 and eq.stable
    ok &= eq.residual < 1e-10
    for j in range(2):
        ok &= abs(eq.beta_hat[j] - pop.beta_stars[j]) <= 10 * abs(pop.deltas[j])
        ok &= (eq.beta_hat[j] < pop.beta_stars[j]) == (pop.deltas[j] > 0)

    step = 1e-5
    for param in ("delta_0", "delta_1"):
        j = int(param[-1])
        grad = sensitivity(pop, eq, param)

        def solved(dj):
            deltas = list(pop.deltas)
            deltas[j] = dj
            p2 = GroupPopulation(model=base, alphas=pop.alphas,
                                 deltas=tuple(deltas),
                                 beta_stars=pop.beta_stars)
            return color_sighted_equilibrium(p2).beta_hat

        fd = (solved(pop.deltas[j] + step)
              - solved(pop.deltas[j] - step)) / (2 * step)
        ok &= float(np.linalg.norm(grad - fd)) <= 1e-4 * float(np.linalg.norm(fd))

    spec = eigen_check(eq)
    ok &= spec.bound_holds and spec.all_negative
    ok &= bool(np.max(np.abs(spec.eigenvalues + 1.0)) <= spec.bound + 1e-12)
    elapsed = time.monotonic() - t0
    assert report("9", ok, "two-group equilibrium: the one member, a sink, "
                  f"from {eq.iterations} belief-map evaluations, O(delta) "
                  "beliefs, rank-one sensitivities vs finite differences, "
                  "eigenvalue bound",
                  elapsed)


def test_criterion_10_blind_assessment_pools_misspecification():
    """Blind-assessment equilibria equal the single-agent set at delta_bar."""
    t0 = time.monotonic()
    base = three_equilibria_model()
    ok = True
    for deltas, alphas in (((0.7, 0.3), (0.5, 0.5)),
                           ((0.9, 0.1), (0.5, 0.5)),
                           ((0.8, -0.1), (2.0 / 3.0, 1.0 / 3.0)),
                           ((0.2, -0.1), (0.5, 0.5))):
        pop = GroupPopulation(model=base, alphas=alphas, deltas=deltas,
                              beta_stars=(2.0, 2.0))
        blind = color_blind_equilibria(pop)
        single = find_equilibria(base.with_delta_mu(pop.delta_bar))
        ok &= len(blind) == len(single)
        for a, b in zip(blind.points, single.points):
            ok &= abs(a.beta_hat - b.beta_hat) <= 1e-8
            ok &= a.stability == b.stability
    elapsed = time.monotonic() - t0
    assert report("10", ok, "blind assessment = single-agent model at the "
                  "weighted misspecification, elementwise 1e-8", elapsed)


def test_criterion_11_disparities_and_reward_reversal():
    """Documented two-group orderings plus a passthrough-driven sign flip."""
    t0 = time.monotonic()
    model = unique_equilibrium_model(-0.5)
    rep = disparity_report(model, 0.5, -0.5)
    ok = rep.all_orderings_hold
    ok &= rep.orderings["effort_chain"]
    ok &= rep.orderings["m_out_earns_w"]
    ok &= rep.reward_gap_misbelief_part > 0.0
    ok &= rep.reward_gap_market_part <= 0.0

    gaps = []
    for passthrough in (0.0, 0.25, 0.5, 0.75, 1.0):
        params = LQParams(c=1.0, kappa=10.0, lambda_e=1.0, lambda_a=0.0,
                          delta=passthrough)
        m = build_lq(params, 0.0, 2.0, 0.0, 0.5, 3.0)
        r = disparity_report(m, 0.2, -0.2)
        gaps.append(r.reward_m - r.reward_w)
    ok &= min(gaps) < 0.0 < max(gaps)
    elapsed = time.monotonic() - t0
    assert report("11", ok, "six orderings hold at the documented pair; "
                  "reward gap flips sign along the passthrough sweep",
                  elapsed)


def test_criterion_12_first_order_misspecification_dominates():
    """Our least-distorted SCE beats the first-order variant; exact split."""
    t0 = time.monotonic()
    base = unique_equilibrium_model(-0.5)
    ok = True
    for dm in (-0.05, -0.01, 0.01, 0.05):
        res = first_order_comparison(base.with_delta_mu(dm))
        ok &= res.gap_ours < res.gap_fom
    rng = np.random.default_rng(SEED + 12)
    for _ in range(400):
        h = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(base.beta_lo, base.beta_hi))
        parts = gap_decomposition(base.with_delta_mu(0.05), h, b)
        ok &= abs(parts.term_choice + parts.term_productivity
                  - parts.total) <= 1e-12
    elapsed = time.monotonic() - t0
    assert report("12", ok, "least-distorted SCE gap smaller than under "
                  "first-order misspecification; choice+productivity split "
                  "exact to 1e-12", elapsed)
