"""Best responses: agent effort, effective effort, and evaluator assessment.

This is the one module that knows the closed forms of the linear-quadratic
(LQ) specialization.  Every operation that has one keeps it next to its
numeric path in a single ``BestResponseEngine`` method; callers never
branch on the model type.  General primitives (and LQ models built with
``force_numeric``) are solved from their first-order conditions by
bracketed Brent iteration.  The evaluator's condition uses the
implicit-function expression for the effort slope rather than differencing
the solved effort map, so root tolerances do not stack.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .chebyshev import Roots, certified_roots
from .errors import InvariantViolation, NumericalError
from .primitives import ModelPrimitives
from .rootfind import (RTOL, XTOL, fd1, fd2, solve_decreasing,
                       solve_increasing_to)

H_EDGE = 1e-12  # open-interval margin for assessment brackets
# relative step for differencing an assessment solve: its ~1e-11 error over
# a 1e-4 step leaves ~2e-6 relative gradient error, over 1e-3 about 2e-7
SOLVE_REL_STEP = 1e-3


def _broadcast(*args):
    """Scalars as they are, else the arrays broadcast to one shape."""
    if all(np.ndim(a) == 0 for a in args):
        return args
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))


def _elementwise(fn, *args, pair: bool = False):
    """Apply a scalar map to scalars (its float out) or entry by entry to the
    broadcast arrays (an array of their shape out; with ``pair``, the two
    arrays of a pair-valued map)."""
    args = _broadcast(*args)
    if np.ndim(args[0]) == 0:
        return fn(*map(float, args))
    vals = np.array([fn(*map(float, p)) for p in zip(*(a.flat for a in args))])
    vals = vals.reshape(args[0].shape + ((2,) if pair else ()))
    return (vals[..., 0], vals[..., 1]) if pair else vals


class BestResponseEngine:
    """Optimal behavior maps for a fixed model.

    The only owner of the LQ closed forms and of the array contract: every
    point map (``effort``, ``effective_effort``, ``effort_sensitivities``,
    ``r_partials``, ``best_fit``, ``assessment``, ``first_order_assessment``,
    ``certainty_equivalent``) takes scalars, giving floats, or broadcastable
    arrays, giving arrays (a pair of them for pairs) of the scalar calls'
    bits, on both paths: closed forms once over the arrays, numeric solves
    entry by entry.  ``interior_fixed_points`` solves the LQ fixed-point
    quadratic in place of the certified enumeration.

    Pure and reentrant: no mutable state beyond cached constants, so one
    engine can be shared across threads.  ``force_numeric`` routes LQ
    models through the general solvers (used to validate them against the
    closed forms).
    """

    def __init__(self, model: ModelPrimitives, force_numeric: bool = False):
        self.model = model
        self._closed = model.lq is not None and not force_numeric
        if model.lq is not None and model.lq.lambda2 > 0.0:
            # beyond lambda1/lambda2 the evaluator's marginal value of
            # assessment is negative, so the search can stop there
            self._h_cap = min(1.0, model.lq.lambda1 / model.lq.lambda2)
        else:
            self._h_cap = 1.0

    # -- agent ----------------------------------------------------------

    def effort(self, h, beta):
        """Maximizer of h*r(a, beta) - c(a); zero when h or beta is zero."""
        if self._closed:
            return h * beta / self.model.lq.c
        return _elementwise(self._effort_numeric, h, beta)

    def _effort_numeric(self, h: float, beta: float) -> float:
        if h <= 0.0 or beta <= 0.0:
            return 0.0
        m = self.model

        def foc(a):
            return h * fd1(lambda x: m.r(x, beta), a, lo=0.0) - fd1(m.cost, a, lo=0.0)

        try:
            return solve_decreasing(foc, 0.0, 1.0, expand=True)
        except NumericalError as exc:
            raise NumericalError(
                f"effort bracket failed at h={h}, beta={beta}: {exc}") from exc

    def effective_effort(self, h, beta):
        """R(h, beta) = r(a(h, beta), beta)."""
        if self._closed:
            return h * beta * beta / self.model.lq.c
        return _elementwise(
            lambda hh, b: self.model.r(self._effort_numeric(hh, b), b), h, beta)

    def effort_sensitivities(self, h, beta):
        """(da/dh, da/dbeta) from the implicit function theorem at a(h, beta)."""
        if self._closed:
            c = self.model.lq.c
            h, beta = _broadcast(h, beta)
            return beta / c, h / c
        return _elementwise(self._sensitivities_at, h, beta, pair=True)

    def _sensitivities_at(self, h: float, beta: float,
                          a: float | None = None) -> tuple[float, float]:
        """Numeric ``effort_sensitivities`` at an effort ``a`` already solved
        for (h, beta); None solves it here."""
        m = self.model
        if a is None:
            a = self._effort_numeric(h, beta)
        r_a = fd1(lambda x: m.r(x, beta), a, lo=0.0)
        r_aa = fd2(lambda x: m.r(x, beta), a, lo=0.0)
        r_ab = fd1(lambda b: fd1(lambda x: m.r(x, b), a, lo=0.0), beta, lo=0.0)
        c2 = fd2(m.cost, a, lo=0.0)
        denom = c2 - h * r_aa
        if denom <= 0.0:
            raise InvariantViolation(
                "second-order condition failed: c'' - h r_aa <= 0")
        return r_a / denom, h * r_ab / denom

    def r_partials(self, h, beta):
        """(dR/dh, dR/dbeta) of effective effort at (h, beta)."""
        if self._closed:
            c = self.model.lq.c
            h, beta = _broadcast(h, beta)
            return beta * beta / c, 2.0 * h * beta / c

        def partials(h: float, beta: float) -> tuple[float, float]:
            r_h = fd1(lambda hh: self.effective_effort(hh, beta), h, lo=0.0, hi=1.0)
            r_b = fd1(lambda bb: self.effective_effort(h, bb), beta, lo=0.0)
            return r_h, r_b

        return _elementwise(partials, h, beta, pair=True)

    def best_fit(self, h, beta_star, delta_mu, clamp: bool = True):
        """Productivity x solving R(h, x) = R(h, beta_star) - delta_mu.

        ``beta_star`` is the caller's truth, not the engine model's: one
        engine serves every group of a population, and arrays of truths and
        misspecifications broadcast with h.  With ``clamp`` the divergence
        minimizer on the support (the root projected onto it); without, the
        root on [0, inf), nan if none.
        """
        m = self.model
        if self._closed:
            # beta_star * beta_star, not ** 2: a float's ** 2 calls pow, which
            # can round differently from an array's ** 2 (a square)
            val = beta_star * beta_star - delta_mu * m.lq.c / h
            if clamp:
                out = np.minimum(np.sqrt(np.maximum(val, m.beta_lo ** 2)), m.beta_hi)
            else:
                out = np.where(val >= 0.0, np.sqrt(np.maximum(val, 0.0)), np.nan)
            return float(out) if out.ndim == 0 else out

        def fit(hh: float, beta_star: float, delta_mu: float) -> float:
            target = self.effective_effort(hh, beta_star) - delta_mu
            if clamp:
                if self.effective_effort(hh, m.beta_lo) >= target:
                    return m.beta_lo
                if self.effective_effort(hh, m.beta_hi) <= target:
                    return m.beta_hi
                return brentq(lambda x: self.effective_effort(hh, x) - target,
                              m.beta_lo, m.beta_hi, xtol=XTOL, rtol=RTOL)
            if target <= 0.0:
                return 0.0 if target == 0.0 else math.nan
            root = solve_increasing_to(lambda x: self.effective_effort(hh, x),
                                       target, 0.0, max(m.beta_hi, beta_star),
                                       expand=True, max_hi=1e9 * m.beta_hi)
            return math.nan if root is None else root

        return _elementwise(fit, h, beta_star, delta_mu)

    def _fit_gap(self, h, beta, beta_star, delta_mu):
        """delta_mu + R(h, beta) - R(h, beta_star): positive exactly when the
        best fit at assessment h lies below beta."""
        return (delta_mu + self.effective_effort(h, beta)
                - self.effective_effort(h, beta_star))

    def _divergence(self, h, beta, beta_star, delta_mu):
        """``kl_divergence`` for truth beta_star: (h/2) * fit gap^2."""
        gap = self._fit_gap(h, beta, beta_star, delta_mu)
        return 0.5 * h * gap * gap

    def interior_fixed_points(self, beta_star: float, delta_mu: float,
                              max_points: int) -> Roots:
        """Sign changes of the fit gap G(beta) = ``_fit_gap(h(beta), beta)``,
        where the belief map crosses the diagonal (stable where G rises),
        with the map's slope at each.  LQ models solve the fixed-point
        quadratic in x = beta^2; others run ``certified_roots`` on G with at
        most ``max_points`` points, the slope being 1 - G'/R_beta."""
        m = self.model

        def gap(beta):
            return self._fit_gap(self.assessment(beta), beta, beta_star, delta_mu)

        if not self._closed:
            found = certified_roots(gap, m.beta_lo, m.beta_hi, max_points)
            _, r_b = self.r_partials(self.assessment(found.roots), found.roots)
            return found._replace(slopes=1.0 - found.slopes / r_b)
        lq = m.lq
        # lambda1 x^2 - b x + c0 = 0, by the cancellation-free formula
        b = lq.lambda1 * beta_star ** 2 - delta_mu * lq.c * lq.lambda2
        c0 = delta_mu * lq.kappa * lq.c ** 2
        disc = b * b - 4.0 * lq.lambda1 * c0
        xs = np.empty(0)
        if disc >= 0.0:
            q = 0.5 * (b + math.copysign(math.sqrt(disc), b))
            xs = np.unique([q / lq.lambda1, c0 / q])
            xs = xs[(xs > m.beta_lo ** 2) & (xs < m.beta_hi ** 2)]
        slopes = c0 / (lq.lambda1 * xs * xs)
        f_lo, f_hi = gap(np.array([m.beta_lo, m.beta_hi]))
        return Roots(np.sqrt(xs), slopes < 1.0, slopes, np.empty(0),
                     float(f_lo), float(f_hi))

    # -- evaluator ------------------------------------------------------

    def _dv_dh(self, h: float, beta: float, belief: float | None = None) -> float:
        """Marginal evaluator value of assessment, dV_E/dh, at productivity
        beta when effort responds to ``belief`` (default: beta itself)."""
        m = self.model
        b_a = beta if belief is None else belief
        a = self._effort_numeric(h, b_a)
        da_dh, _ = self._sensitivities_at(h, b_a, a)
        v_a = fd1(lambda x: m.v_e(x, beta), a, lo=0.0)
        return v_a * da_dh

    def _closed_assessment(self, s):
        """LQ optimal assessment for a belief with E[beta^2] = s."""
        lq = self.model.lq
        return lq.lambda1 * s / (lq.lambda2 * s + lq.kappa * lq.c)

    def assessment(self, beta):
        """Evaluator's optimal h given a degenerate belief at beta."""
        if self._closed:
            h = self._closed_assessment(beta * beta)
            self._require_interior(h, beta)
            return h
        return _elementwise(lambda b: self._interior_assessment([(1.0, b)]), beta)

    def assessment_multigroup(self, betas, weights):
        """Optimal shared h for a weighted population of productivities."""
        betas = np.asarray(betas, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if betas.shape != weights.shape:
            raise ValueError("betas and weights must have matching shapes")
        if np.any(weights <= 0.0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to one")
        if np.any(betas <= 0.0):
            raise ValueError("all productivities must be positive")
        if self._closed:
            h = self._closed_assessment(float(np.dot(weights, betas ** 2)))
            self._require_interior(h, betas)
            return h
        return self._interior_assessment(list(zip(weights.tolist(), betas.tolist())))

    def certainty_equivalent(self, s):
        """Optimal h at the certainty-equivalent productivity sqrt(s), for a
        belief with mean s of beta^2.  Exact for LQ primitives only, whose
        evaluator condition is linear in beta^2.

        Learning calls it with the closed form only; the numeric branch
        (``force_numeric``) is the reference the tests compare it against.
        """
        if self._closed:
            return self._closed_assessment(s)
        return self.assessment(np.sqrt(s))

    def first_order_assessment(self, beta):
        """Assessment under first-order misspecification: the evaluator
        believes productivity is beta but knows effort is chosen under the
        truth, argmax_h v_e(a(h, beta_star), beta) - kappa(h)."""
        m = self.model
        if self._closed:
            lq = m.lq
            num = lq.lambda1 * beta * m.beta_star
            return num / (lq.lambda2 * m.beta_star ** 2 + lq.kappa * lq.c)
        return _elementwise(
            lambda b: self._assessment_numeric([(1.0, b)], belief=m.beta_star), beta)

    def assessment_gradient(self, betas, weights) -> np.ndarray:
        """Gradient of the shared assessment in the productivities."""
        betas = np.asarray(betas, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if self._closed:
            lq = self.model.lq
            s = float(np.dot(weights, betas ** 2))
            denom = (lq.lambda2 * s + lq.kappa * lq.c) ** 2
            return lq.lambda1 * lq.kappa * lq.c * 2.0 * weights * betas / denom
        out = np.empty(betas.size)
        for j in range(betas.size):
            def h_of(bj, j=j):
                b = betas.copy()
                b[j] = bj
                return self.assessment_multigroup(b, weights)
            out[j] = fd1(h_of, float(betas[j]), lo=self.model.beta_lo,
                         rel_step=SOLVE_REL_STEP)
        return out

    def _interior_assessment(self, weighted: list[tuple[float, float]]) -> float:
        """Numeric optimal assessment; no bracket means no interior optimum."""
        try:
            return self._assessment_numeric(weighted)
        except NumericalError as exc:
            raise InvariantViolation(
                f"assessment is not interior on (0, {self._h_cap}): {exc}") from exc

    def _assessment_numeric(self, weighted: list[tuple[float, float]],
                            belief: float | None = None) -> float:
        """Root in h of sum_i w_i dV_E/dh(h, beta_i) - kappa'(h); raises
        NumericalError when it cannot be bracketed.  A fixed ``belief`` for
        effort (first-order misspecification) lifts the lambda1/lambda2 cap."""
        m = self.model
        if all(b <= 0.0 for _, b in weighted):
            return 0.0

        def foc(h):
            marginal = sum(w * self._dv_dh(h, b, belief) for w, b in weighted if b > 0.0)
            return marginal - fd1(m.assess_cost, h, lo=0.0, hi=1.0)

        cap = self._h_cap if belief is None else 1.0
        h = solve_decreasing(foc, H_EDGE, cap - H_EDGE)
        self._require_interior(h, [b for _, b in weighted])
        return h

    def _require_interior(self, h, beta) -> None:
        h_arr = np.asarray(h)
        bad = (h_arr <= 0.0) | (h_arr >= 1.0)
        if np.any(bad):
            if h_arr.ndim:  # report the first offending entry of an array
                i = int(np.argmax(bad))
                h, beta = float(h_arr.flat[i]), float(np.asarray(beta).flat[i])
            raise InvariantViolation(
                f"assessment {h!r} at beta={beta!r} is not interior to (0, 1); "
                "primitives violate the interiority assumption")

    # -- support-level constants -----------------------------------------

    def assessment_bounds(self) -> tuple[float, float]:
        """(h(beta_lo), h(beta_hi)): the range assessment takes on the support."""
        return (float(self.assessment(self.model.beta_lo)),
                float(self.assessment(self.model.beta_hi)))
