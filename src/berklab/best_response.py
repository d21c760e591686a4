"""Best responses: agent effort, effective effort, and evaluator assessment.

This is the one module that knows the closed forms of the linear-quadratic
(LQ) specialization.  Every operation that has one keeps it next to its
numeric path in a single ``BestResponseEngine`` method; callers never
branch on the model type.  General primitives (every model whose ``lq`` is
None) are solved from their first-order conditions by
bracketed Brent iteration through ``rootfind.solve_decreasing``: scipy's
``brentq`` for a scalar point, one masked Brent pass for an array of
points.  The evaluator's condition and ``r_partials`` use the
implicit-function expression for the effort slope rather than differencing
the solved effort map, so root tolerances do not stack.  The conditions
read the exact derivatives a ``Smooth`` primitive carries, and five-point
differences of a plain one.  The evaluator's condition is solved over
effort, not over h: the agent's condition gives the assessment that draws
effort a in closed form, h(a) = c'(a)/r_a(a, beta), so a numeric
assessment solves effort only at the two ends of its bracket (and for
groups after the first).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .chebyshev import Roots, certified_roots
from .errors import InvariantViolation, NumericalError
from .primitives import ModelPrimitives, Smooth
from .rootfind import brentq_masked, fd1, fd2, solve_decreasing

H_EDGE = 1e-12  # open-interval margin for assessment brackets
# first_order_range keeps the first-order assessment this far below 1, clear
# of the ~1e-12 noise of its condition at the solve's bracket end
FIRST_ORDER_MARGIN = 1e-9
WEIGHT_SUM_TOL = 1e-12  # population weights must sum to one within this
# relative step for differencing an assessment solve: its ~1e-11 error over
# a 1e-4 step leaves ~2e-6 relative gradient error, over 1e-3 about 2e-7
SOLVE_REL_STEP = 1e-3
# fewest points for one masked solve: below, a loop of scalar solves is
# faster (CPU time on one core, build_power(2.5) with exact derivatives, 20
# to 80 points: a masked effort pass costs about as much as 39-41 scalar
# solves of 16 us, a masked assessment pass 17-23 of 120 us; with
# differenced conditions 37-43 and 19-26, each solve 3-4 times dearer)
ARRAY_SOLVE_MIN = 40


def _broadcast(*args):
    """Scalars as they are, else the arrays broadcast to one shape."""
    if all(type(a) is float or np.ndim(a) == 0 for a in args):
        return args
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))


def _population(betas, weights):
    """(betas, weights) as arrays: positive productivities, J or (N, J), and
    J positive weights summing to one; ValueError otherwise."""
    betas = np.asarray(betas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or betas.shape[-1:] != weights.shape:
        raise ValueError("betas must have the weights' length along their last axis")
    if not (np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL):
        raise ValueError("weights must be positive and sum to one")
    if not np.all(betas > 0.0):
        raise ValueError("all productivities must be positive")
    return betas, weights


def population_mean(columns, weights):
    """sum_j w_j c_j of one column per group (floats, or arrays of one shape)
    as the left fold w_0 c_0 + w_1 c_1 + ...: unlike a BLAS product's, its
    order of summation does not depend on the batch."""
    return functools.reduce(operator.add, map(operator.mul, weights, columns))


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


def _pointwise(fn, *args, pair: bool = False):
    """Apply a map that takes floats or 1-d arrays: to scalars (its float
    out), entry by entry to fewer than ``ARRAY_SOLVE_MIN`` points, or once
    to the flattened broadcast arrays (reshaped to their shape; with
    ``pair``, the two arrays of a pair-valued map)."""
    args = _broadcast(*args)
    if np.ndim(args[0]) == 0:
        return fn(*map(float, args))
    if args[0].size < ARRAY_SOLVE_MIN:
        return _elementwise(fn, *args, pair=pair)
    shape = args[0].shape
    out = fn(*(a.ravel() for a in args))
    return tuple(o.reshape(shape) for o in out) if pair else out.reshape(shape)


def array_form(f, *points):
    """``f`` itself when it maps the arrays ``points`` to a float64 array of
    their broadcast shape, else ``f`` applied entry by entry.

    The one probe of a callable: made once, so that every consumer may pass
    arrays to what it returns.
    """
    try:
        out = f(*points)
        if (isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == np.broadcast_shapes(*map(np.shape, points))):
            return f
    except (TypeError, ValueError):
        pass
    return functools.partial(_elementwise, f)


def _probed(name: str, with_beta: bool, order: int = 0, hi: float | None = None):
    """Engine attribute: the model's callable ``name`` (``order`` 0) or its
    derivative of that order in the first argument, resolved on first use.

    A callable, or the function or derivative a ``Smooth`` one carries, is
    probed by ``array_form`` at points in [0, 1] (and productivities on the
    support).  A derivative it does not carry is the five-point difference
    of the probed callable, one-sided at 0 (and at ``hi``).
    """

    def probe(self):
        fn = getattr(self.model, name)
        if isinstance(fn, Smooth):
            fn = (fn.fn, fn.d1, fn.d2)[order]
        elif order:
            fn = None
        if fn is None:
            return _difference(getattr(self, "_" + name), order, hi)
        pts = (np.linspace(0.0, 1.0, 5),)
        if with_beta:
            pts += (np.linspace(self.model.beta_lo, self.model.beta_hi, 5),)
        return array_form(fn, *pts)

    return functools.cached_property(probe)


def _difference(f, order: int, hi: float | None):
    """The derivative of ``order`` of f(x, *params) in x, by ``fd1`` or
    ``fd2``: one-sided at 0 (and at ``hi``)."""

    def derivative(x, *params):
        return (fd1 if order == 1 else fd2)(lambda t: f(t, *params), x,
                                            lo=0.0, hi=hi)

    return derivative


class BestResponseEngine:
    """Optimal behavior maps for a fixed model.

    The only owner of the LQ closed forms and of the array contract: every
    point map (``effort``, ``effective_effort``, ``effort_sensitivities``,
    ``r_partials``, ``best_fit``, ``assessment``, ``first_order_assessment``)
    takes scalars, giving floats, or broadcastable arrays, giving arrays (a
    pair of them for pairs), on both paths: closed forms once over the
    arrays, and in float arithmetic on a float (``math.sqrt``, ``min``,
    ``max`` and comparisons, with numpy's bits but none of its 0-d call
    overhead).  ``certainty_equivalent`` is the LQ closed form alone.  On the
    numeric path every point map but ``best_fit`` (point by point) solves
    all points in one masked Brent pass of ``rootfind.solve_decreasing``
    (point by point below ``ARRAY_SOLVE_MIN`` points); the assessment maps
    solve the evaluator's condition over the first group's effort a, at
    h(a) = c'(a)/r_a(a, beta), with no effort solve inside the iteration
    for one group.  Arrays give the scalar calls' bits wherever the
    primitives map arrays with their scalar bits (both paths of the LQ
    forms, and every primitive applied entry by entry).  ``build_power``
    maps on arrays, ``_dv_dh`` and the assessments included, agree to a few
    ulps (about 2e-15 relative): numpy's vectorized ``a ** gamma`` rounds
    some entries differently from Python's scalar power, and its exact
    derivatives carry that through the solves unamplified.
    ``interior_fixed_points`` solves the LQ fixed-point quadratic in place
    of the certified enumeration.

    Each primitive callable (``r``, ``cost``, ``v_e``, ``assess_cost``) is
    probed once by ``array_form``, on the first numeric use; one that does
    not map arrays is applied entry by entry.  Each derivative that the
    first-order conditions read inside a root iteration (c', c'', r_a,
    r_aa, v_e,a and kappa') is resolved once too: a ``Smooth`` primitive's
    own, probed the same way, else a five-point difference of the probed
    primitive.  The productivity partials r_ab and r_beta, read once per
    point outside any iteration, are differences.

    ``equilibria`` is ``find_equilibria``'s memo for this engine's own
    model: one ``EquilibriumSet`` per ``grid_points``, filled on first
    enumeration and never shared with another engine, so a fresh engine
    (every ``transform``) enumerates again.  Beyond it the engine holds
    only cached constants; a set is frozen and the same for every caller,
    so one engine can be shared across threads (two threads enumerating
    at once both compute it, and both get the first stored).
    """

    _r, _v_e = _probed("r", True), _probed("v_e", True)
    _cost, _assess_cost = _probed("cost", False), _probed("assess_cost", False)
    _r_a, _r_aa = _probed("r", True, 1), _probed("r", True, 2)
    _c_a, _c_aa = _probed("cost", False, 1), _probed("cost", False, 2)
    _v_e_a = _probed("v_e", True, 1)
    _kappa_h = _probed("assess_cost", False, 1, hi=1.0)

    def __init__(self, model: ModelPrimitives):
        self.model = model
        self.equilibria = {}  # find_equilibria's memo: grid_points -> its set
        lq = model.lq
        self._closed = lq is not None
        if self._closed:
            # the LQ scales, read once (lambda1 and lambda2 are properties)
            self._l1, self._l2, self._kc = lq.lambda1, lq.lambda2, lq.kappa * lq.c

    # -- agent ----------------------------------------------------------

    def effort(self, h, beta):
        """Maximizer of h*r(a, beta) - c(a); zero when h or beta is zero."""
        if self._closed:
            return h * beta / self.model.lq.c
        return _pointwise(self._effort_numeric, h, beta)

    def _effort_foc(self, a, h, beta):
        """The agent's condition h r_a(a, beta) - c'(a), decreasing in a."""
        return h * self._r_a(a, beta) - self._c_a(a)

    def _effort_numeric(self, h, beta):
        """Effort at floats, by scipy's brentq, or at 1-d arrays, in one
        masked solve over the points with h > 0 and beta > 0."""
        scalar = not isinstance(h, np.ndarray)
        if scalar:
            if h <= 0.0 or beta <= 0.0:
                return 0.0
        else:
            out = np.zeros(h.shape)
            live = ~((h <= 0.0) | (beta <= 0.0))
            h, beta = h[live], beta[live]
            if not h.size:
                return out
        try:
            a = solve_decreasing(self._effort_foc, 0.0, 1.0, expand=True,
                                 args=(h, beta))
        except NumericalError as exc:
            where = f"h={h}, beta={beta}" if scalar else f"{h.size} points"
            raise NumericalError(f"effort bracket failed at {where}: {exc}") from exc
        if scalar:
            return a
        out[live] = a
        return out

    def effective_effort(self, h, beta):
        """R(h, beta) = r(a(h, beta), beta)."""
        if self._closed:
            return h * beta * beta / self.model.lq.c
        return _pointwise(lambda hh, b: self._r(self._effort_numeric(hh, b), b),
                          h, beta)

    def effort_sensitivities(self, h, beta):
        """(da/dh, da/dbeta) from the implicit function theorem at a(h, beta)."""
        if self._closed:
            c = self.model.lq.c
            h, beta = _broadcast(h, beta)
            return beta / c, h / c
        return _pointwise(lambda hh, b: self._sensitivities_at(hh, b)[2:],
                          h, beta, pair=True)

    def _sensitivities_at(self, h, beta):
        """(a, r_a, da/dh, da/dbeta) at floats or 1-d arrays, from one effort
        solve a = a(h, beta)."""
        a = self._effort_numeric(h, beta)
        r_a, denom = self._effort_slope(h, beta, a)
        r_ab = fd1(lambda b: self._r_a(a, b), beta, lo=0.0)
        return a, r_a, r_a / denom, h * r_ab / denom

    def _effort_slope(self, h, beta, a):
        """(r_a, c'' - h r_aa) at the effort a solved for (h, beta), so that
        da/dh = r_a / (c'' - h r_aa); InvariantViolation unless the second
        factor is positive (the second-order condition), NumericalError
        where it is zero only at zero effort (a cost with c''(0) = 0, whose
        da/dh is unbounded there)."""
        r_a = self._r_a(a, beta)
        denom = self._c_aa(a) - h * self._r_aa(a, beta)
        if np.min(denom) <= 0.0 if isinstance(denom, np.ndarray) else denom <= 0.0:
            if np.all((denom > 0.0) | ((denom == 0.0) & (a == 0.0))):
                raise NumericalError("zero-effort boundary: c'' - h r_aa = 0 at "
                                     "a = 0, so da/dh is unbounded there")
            raise InvariantViolation(
                "second-order condition failed: c'' - h r_aa <= 0")
        return r_a, denom

    def r_partials(self, h, beta):
        """(dR/dh, dR/dbeta) of effective effort at (h, beta)."""
        if self._closed:
            c = self.model.lq.c
            h, beta = _broadcast(h, beta)
            return beta * beta / c, 2.0 * h * beta / c

        def partials(h, beta):  # the chain rule through R = r(a(h, beta), beta)
            a, r_a, a_h, a_b = self._sensitivities_at(h, beta)
            return r_a * a_h, r_a * a_b + fd1(lambda b: self._r(a, b), beta, lo=0.0)

        return _pointwise(partials, h, beta, pair=True)

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
            if isinstance(val, float):  # min and max keep a NaN val, as numpy's
                if clamp:
                    return min(math.sqrt(max(val, m.beta_lo ** 2)), m.beta_hi)
                return math.sqrt(val) if val >= 0.0 else math.nan
            if clamp:
                out = np.minimum(np.sqrt(np.maximum(val, m.beta_lo ** 2)), m.beta_hi)
            else:
                out = np.where(val >= 0.0, np.sqrt(np.maximum(val, 0.0)), np.nan)
            return float(out) if out.ndim == 0 else out

        def fit(hh: float, beta_star: float, delta_mu: float) -> float:
            target = self.effective_effort(hh, beta_star) - delta_mu

            def excess(x):  # target - R(hh, x), decreasing in x
                return target - self.effective_effort(hh, x)

            if clamp:
                # the clamp test's end values start scipy's Brent iteration
                f_lo = excess(m.beta_lo)
                if f_lo <= 0.0:
                    return m.beta_lo
                f_hi = excess(m.beta_hi)
                if f_hi >= 0.0:
                    return m.beta_hi
                return brentq_masked(excess, m.beta_lo, m.beta_hi, f_lo, f_hi)
            if target <= 0.0:
                return 0.0 if target == 0.0 else math.nan
            try:
                return solve_decreasing(excess, 0.0, max(m.beta_hi, beta_star),
                                        expand=True, max_hi=1e9 * m.beta_hi)
            except NumericalError as exc:
                if exc.__cause__ is not None:  # an effort solve failed
                    raise
                return math.nan  # R stays below target: no root

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
        if not self._closed:
            def gap(beta):  # R(h, beta) read at the assessment solve's own effort
                a = _pointwise(lambda b: self._assessment_effort((1.0,), (b,)), beta)
                h = _pointwise(self._assessment_of_effort, a, beta)
                return delta_mu + self._r(a, beta) - self.effective_effort(h, beta_star)

            found = certified_roots(gap, m.beta_lo, m.beta_hi, max_points)
            _, r_b = self.r_partials(self.assessment(found.roots), found.roots)
            return found._replace(slopes=1.0 - found.slopes / r_b)
        lq = m.lq
        # lambda1 x^2 - b x + c0 = 0, by the cancellation-free formula
        b = self._l1 * beta_star ** 2 - delta_mu * lq.c * self._l2
        c0 = delta_mu * lq.kappa * lq.c ** 2
        disc = b * b - 4.0 * self._l1 * c0
        xs = []  # the distinct roots inside the support, ascending
        if disc >= 0.0:
            q = 0.5 * (b + math.copysign(math.sqrt(disc), b))
            xs = [x for x in sorted({q / self._l1, c0 / q})
                  if m.beta_lo ** 2 < x < m.beta_hi ** 2]
        slopes = np.array([c0 / (self._l1 * x * x) for x in xs])
        f_lo, f_hi = (float(self._fit_gap(self.assessment(e), e, beta_star, delta_mu))
                      for e in (m.beta_lo, m.beta_hi))
        return Roots(np.array([math.sqrt(x) for x in xs]), slopes < 1.0, slopes,
                     np.empty(0), f_lo, f_hi)

    # -- evaluator ------------------------------------------------------

    def _marginal_value(self, a, h, beta, b_a):
        """dV_E/dh = v_e,a(a, beta) r_a / (c'' - h r_aa) at assessment h and
        the effort a it draws under belief b_a."""
        r_a, denom = self._effort_slope(h, b_a, a)
        return self._v_e_a(a, beta) * (r_a / denom)

    def _dv_dh(self, h, beta, belief=None):
        """Marginal evaluator value of assessment, dV_E/dh, at productivity
        beta when effort responds to ``belief`` (default: beta itself);
        scalars or broadcastable arrays, as the point maps."""

        def at(h, beta, b_a):
            return self._marginal_value(self._effort_numeric(h, b_a), h, beta, b_a)

        return _pointwise(at, h, beta, beta if belief is None else belief)

    def _evaluator_condition(self, h, weights, betas, belief=None):
        """The evaluator's condition sum_j w_j dV_E/dh(h, beta_j) - kappa'(h),
        decreasing in h: one productivity per group (a float or an array
        broadcast with h), effort read under ``belief`` (default: its own).
        Tabulated in h by ``_foc_table``; ``_assessment_numeric`` solves it
        over effort."""
        marginal = sum(w * self._dv_dh(h, b, belief) for w, b in zip(weights, betas))
        return marginal - self._kappa_h(h)

    def _assessment_of_effort(self, a, beta):
        """The assessment at which a is the effort best response under beta:
        h = c'(a) / r_a(a, beta), the agent's condition solved for h with
        the derivatives ``_effort_foc`` reads."""
        return self._c_a(a) / self._r_a(a, beta)

    def assessment(self, beta):
        """Evaluator's optimal h given a degenerate belief at beta."""
        if self._closed:
            h = self.certainty_equivalent(beta * beta)
            self._require_interior(h, beta)
            return h
        return _pointwise(lambda b: self._assessment_numeric((1.0,), (b,)), beta)

    def assessment_multigroup(self, betas, weights):
        """Optimal shared h for a weighted population of productivities:
        a float for J of them, an array of N for an (N, J) array."""
        betas, weights = _population(betas, weights)
        if self._closed:
            s = population_mean((betas ** 2).T, weights.tolist())
            h = self.certainty_equivalent(float(s) if s.ndim == 0 else s)
            self._require_interior(h, betas)
            return h
        groups = betas.tolist() if betas.ndim == 1 else betas.T
        return self._assessment_numeric(weights.tolist(), groups)

    def certainty_equivalent(self, s):
        """LQ optimal assessment for a belief with mean s of beta^2, in
        closed form: the LQ evaluator condition is linear in beta^2.
        Scalars or arrays; LQ models only."""
        return self._l1 * s / (self._l2 * s + self._kc)

    def first_order_assessment(self, beta):
        """Assessment under first-order misspecification: the evaluator
        believes productivity is beta but knows effort is chosen under the
        truth, argmax_h v_e(a(h, beta_star), beta) - kappa(h)."""
        m = self.model
        if self._closed:
            num = self._l1 * beta * m.beta_star
            h = num / (self._l2 * m.beta_star ** 2 + self._kc)
            # as the numeric path: no interior optimum is no bracket
            self._require_interior(h, beta, NumericalError)
            return h
        return _pointwise(
            lambda b: self._assessment_numeric((1.0,), (b,), belief=m.beta_star), beta)

    def first_order_range(self) -> tuple[float, float]:
        """(beta_lo, hi): the productivities of the support at which the
        first-order assessment, rising in beta, stays below 1 -
        ``FIRST_ORDER_MARGIN``; NumericalError where there are none."""
        m = self.model
        top = 1.0 - FIRST_ORDER_MARGIN
        if self._closed:
            den = self._l2 * m.beta_star ** 2 + self._kc
            hi = top * den / (self._l1 * m.beta_star)
        else:  # the evaluator's condition at h = top rises in beta
            def excess(b):
                return -self._evaluator_condition(top, (1.0,), (b,), m.beta_star)

            hi = (m.beta_hi if excess(m.beta_hi) >= 0.0
                  else solve_decreasing(excess, m.beta_lo, m.beta_hi))
        if hi <= m.beta_lo:
            raise NumericalError("the first-order assessment is interior "
                                 "nowhere on the support")
        return m.beta_lo, min(hi, m.beta_hi)

    def assessment_gradient(self, betas, weights) -> np.ndarray:
        """Gradient of the shared assessment in one population's J productivities."""
        betas, weights = _population(betas, weights)
        if betas.ndim != 1:
            raise ValueError("assessment_gradient takes one productivity per group, "
                             f"not an array of shape {betas.shape}")
        if self._closed:
            lq = self.model.lq
            s = float(population_mean(betas ** 2, weights.tolist()))
            denom = (self._l2 * s + self._kc) ** 2
            return self._l1 * lq.kappa * lq.c * 2.0 * weights * betas / denom
        own = np.eye(betas.size, dtype=bool)

        def h_of(x):  # entry j: the assessment with beta_j moved to x[j]
            return self._assessment_numeric(weights.tolist(),
                                            np.where(own, x, betas[:, None]))

        return fd1(h_of, betas, lo=self.model.beta_lo, rel_step=SOLVE_REL_STEP)

    def _assessment_numeric(self, weights, betas, belief=None):
        """Root of ``_evaluator_condition``: a float for float
        productivities, one root per entry for 1-d arrays; h(a) at the
        effort a that ``_assessment_effort`` solves for."""
        a = self._assessment_effort(weights, betas, belief)
        return _pointwise(self._assessment_of_effort, a,
                          betas[0] if belief is None else belief)

    def _assessment_effort(self, weights, betas, belief=None):
        """The first group's effort at the root of ``_evaluator_condition``.

        Solved over that effort a rather than over h: effort rises strictly
        in h, so h(a) = ``_assessment_of_effort`` is explicit and the
        condition at h(a) decreases in a.  The bracket is the effort
        at the ends of (0, 1); only groups after the first solve effort
        at h(a).  No bracket (or no effort response, as at zero
        productivity, or a NaN productivity, which no solve can bracket)
        means no interior optimum: an InvariantViolation, or a NumericalError
        under a fixed effort ``belief`` (first-order misspecification).
        """

        def condition(a, *bs):  # floats or 1-d arrays, decreasing in a
            b_a = bs[0] if belief is None else belief
            h = self._assessment_of_effort(a, b_a)
            return (weights[0] * self._marginal_value(a, h, bs[0], b_a)
                    + self._evaluator_condition(h, weights[1:], bs[1:], belief))

        b_a = betas[0] if belief is None else belief
        try:
            if any(np.isnan(b).any() for b in betas):
                raise NumericalError("no bracket: a productivity is nan")
            a_lo, a_hi = (_pointwise(self._effort_numeric, h, b_a)
                          for h in (H_EDGE, 1.0 - H_EDGE))
            if np.any(a_hi <= a_lo):
                raise NumericalError("no bracket: effort does not respond "
                                     "to assessment")
            a = solve_decreasing(lambda a, *bs: _pointwise(condition, a, *bs),
                                 a_lo, a_hi, args=tuple(betas))
        except NumericalError as exc:
            if belief is not None:
                raise
            raise InvariantViolation(
                f"assessment is not interior on (0, 1.0): {exc}") from exc
        return a

    def _require_interior(self, h, beta, error=InvariantViolation) -> None:
        """``error`` unless 0 < h < 1 at every entry, which a NaN fails."""
        if isinstance(h, float):
            if 0.0 < h < 1.0:
                return
        else:
            h_arr = np.asarray(h)
            bad = ~((h_arr > 0.0) & (h_arr < 1.0))
            if not bad.any():
                return
            if h_arr.ndim:  # report the first offending entry (a population's row)
                i = np.unravel_index(int(np.argmax(bad)), h_arr.shape)
                h, beta = float(h_arr[i]), np.asarray(beta)[i].tolist()
        raise error(
            f"assessment {h!r} at beta={beta!r} is not interior to (0, 1); "
            "primitives violate the interiority assumption")

    # -- support-level constants -----------------------------------------

    def assessment_bounds(self) -> tuple[float, float]:
        """(h(beta_lo), h(beta_hi)): the range assessment takes on the support."""
        return (float(self.assessment(self.model.beta_lo)),
                float(self.assessment(self.model.beta_hi)))
