"""Array-native effort solves: the masked Brent pass and its consumers.

A scalar root goes through ``rootfind._brent``, scipy's ``brentq.c`` loop on
floats; an array of roots goes through ``rootfind.brentq_masked``, the same
iteration applied elementwise.  Both must return scipy's ``brentq`` bits,
the masked pass wherever the function maps arrays with its scalar bits, so
every array path of the engine carries the scalar path's bits.  The
certificates of ``transform`` and ``_foc_table`` solve their grids in one
array pass each.  ``best_fit`` and ``certified_roots`` solve only through
``rootfind`` and keep the bits of calling scipy's solver directly.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import berklab.chebyshev
import berklab.rootfind
from berklab import (BestResponseEngine, Smooth, build_power, find_equilibria,
                     transform)
from berklab.best_response import ARRAY_SOLVE_MIN, array_form
from berklab.learning import _foc_table
from berklab.rootfind import (MAX_ITER, REL_STEP, REL_STEP2, RTOL, SMALL_BATCH,
                              XTOL, brentq_masked, fd1, fd2, solve_decreasing)

from helpers import general_engine, random_lq_instance, three_equilibria_model


def _decreasing(kind, x, c0, c1, c3):
    """Strictly decreasing arithmetic functions: a cubic, and a signed
    square."""
    if kind == 0:
        return c0 - c1 * x - c3 * x * x * x
    return c0 - c1 * x - c3 * x * abs(x)


problems = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.0, 2.0),
              st.floats(1e-9, 4.0), st.floats(1e-9, 4.0)),
    min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(kind=st.integers(0, 1), cases=problems)
def test_masked_brent_returns_scipys_bits(kind, cases):
    root, c1, c3, below, above = map(np.array, zip(*cases))
    c0 = c1 * root + c3 * root * root * root
    lo, hi = root - below, root + above
    f_lo, f_hi = (_decreasing(kind, x, c0, c1, c3) for x in (lo, hi))
    keep = (f_lo > 0.0) & (f_hi < 0.0)  # rounding can close a tiny bracket
    args = (c0[keep], c1[keep], c3[keep])
    got = brentq_masked(lambda x, *a: _decreasing(kind, x, *a), lo[keep],
                        hi[keep], f_lo[keep], f_hi[keep], args)
    want = np.array([brentq(lambda x, *a: _decreasing(kind, x, *a), a, b,
                            args=tuple(p), xtol=XTOL, rtol=RTOL, maxiter=200)
                     for a, b, *p in zip(lo[keep], hi[keep], *args)])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(kind=st.integers(0, 1), case=problems.map(lambda cases: cases[0]))
def test_float_brackets_are_scipys_brentq_with_seeded_ends(kind, case):
    # a float bracket goes to scipy's brentq, whose first two calls read the
    # known end values: scipy's root, the one-entry masked pass's bits, and
    # exactly two evaluations of f fewer
    root, c1, c3, below, above = case
    args = (c1 * root + c3 * root * root * root, c1, c3)
    seen = []

    def f(x, *a):
        seen.append(x)
        return _decreasing(kind, x, *a)

    lo, hi = root - below, root + above
    f_lo, f_hi = f(lo, *args), f(hi, *args)
    assume(f_lo > 0.0 and f_hi < 0.0)  # rounding can close a tiny bracket
    del seen[:]
    got = brentq_masked(f, lo, hi, f_lo, f_hi, args)
    ours = len(seen)
    want, res = brentq(f, lo, hi, args=args, xtol=XTOL, rtol=RTOL,
                       maxiter=MAX_ITER, full_output=True)
    one = brentq_masked(f, *(np.array([v]) for v in (lo, hi, f_lo, f_hi)), args)
    assert type(got) is float
    assert np.array([got]).tobytes() == np.array([want]).tobytes() == one.tobytes()
    assert ours == res.function_calls - 2


def _step(x):
    """1 below 0.3 and -1 from there on: bisection at best, which takes
    about a thousand halvings from a bracket of width 2e300."""
    return np.where(x < 0.3, 1.0, -1.0) if np.ndim(x) else (1.0 if x < 0.3 else -1.0)


@pytest.mark.parametrize("ends,error", [
    ((0.0, 1.0, math.nan, -1.0), ValueError),
    ((0.0, 1.0, 1.0, math.nan), ValueError),
    ((0.0, 1.0, 1.0, 2.0), ValueError),
    ((-1e300, 1e300, 1.0, -1.0), berklab.NumericalError),
])
@pytest.mark.parametrize("float_ends", [True, False])
def test_brent_errors_are_the_same_for_float_and_array_brackets(ends, error,
                                                                 float_ends):
    if not float_ends:
        ends = tuple(np.array([v]) for v in ends)
    with pytest.raises(error) as caught:
        brentq_masked(_step, *ends)
    assert not isinstance(caught.value, RuntimeError)


@settings(max_examples=80, deadline=None)
@given(kind=st.integers(0, 1), expand=st.booleans(), root=st.floats(1e-3, 30.0),
       slope=st.floats(0.1, 5.0), wrap=st.sampled_from([float, np.float64, np.asarray]))
def test_scalar_solve_is_scipys_brentq_from_its_own_bracket(kind, expand, root,
                                                            slope, wrap):
    # the float Brent loop starts from the end values the bracket search
    # computed (with expand, the last doubling's f(hi)): scipy's root, a
    # float whatever scalar f returns, and f called at the bracket ends and
    # then only at scipy's iterates
    if not expand:
        root /= 32.0
    args = (slope * root + 0.25 * root * root * root, slope, 0.25)
    seen = []

    def f(x, *a):
        seen.append(x)
        return wrap(_decreasing(kind, x, *a))

    def plain(x, *a):
        return _decreasing(kind, x, *a)

    hi, ends = 1.0, 2  # f(lo), then f(hi) once per doubling and once more
    while expand and plain(hi, *args) > 0.0:
        hi, ends = 2.0 * hi, ends + 1
    assume(plain(0.0, *args) > 0.0 and plain(hi, *args) < 0.0)
    got = solve_decreasing(f, 0.0, 1.0, expand=expand, args=args)
    want, res = brentq(plain, 0.0, hi, args=args, xtol=XTOL, rtol=RTOL,
                       maxiter=MAX_ITER, full_output=True)
    assert type(got) is float
    assert np.array([got]).tobytes() == np.array([want]).tobytes()
    assert len(seen) == ends + res.function_calls - 2


@pytest.mark.parametrize("ends", [(-1e300, 1e300),
                                  (np.array([-1e300]), np.array([1e300]))])
def test_a_solve_that_does_not_converge_raises_numerical_error(ends):
    # bisection on _step needs about a thousand halvings, past MAX_ITER: a
    # float bracket fails as an array one does, not with scipy's RuntimeError
    with pytest.raises(berklab.NumericalError) as caught:
        solve_decreasing(_step, *ends)
    assert not isinstance(caught.value, RuntimeError)


@settings(max_examples=60, deadline=None)
@given(kind=st.integers(0, 1),
       cases=st.lists(problems.map(lambda cases: cases[0]),
                      min_size=SMALL_BATCH + 1, max_size=SMALL_BATCH + 12))
def test_the_masked_loop_and_one_entry_at_a_time_give_scipys_bits(kind, cases):
    # past SMALL_BATCH open entries the masked loop runs; each entry alone
    # goes through _brent on one-entry arrays: both carry scipy's bits
    root, c1, c3, below, above = map(np.array, zip(*cases))
    c0 = c1 * root + c3 * root * root * root
    lo, hi = root - below, root + above
    f_lo, f_hi = (_decreasing(kind, x, c0, c1, c3) for x in (lo, hi))
    keep = (f_lo > 0.0) & (f_hi < 0.0)  # rounding can close a tiny bracket
    assume(keep.sum() > SMALL_BATCH)
    lo, hi, f_lo, f_hi = (v[keep] for v in (lo, hi, f_lo, f_hi))
    args = (c0[keep], c1[keep], c3[keep])

    def f(x, *a):
        return _decreasing(kind, x, *a)

    batch = brentq_masked(f, lo, hi, f_lo, f_hi, args)
    alone = np.concatenate([brentq_masked(f, lo[k:k + 1], hi[k:k + 1], f_lo[k:k + 1],
                                          f_hi[k:k + 1], tuple(a[k:k + 1] for a in args))
                            for k in range(lo.size)])
    want = np.array([brentq(f, a, b, args=tuple(p), xtol=XTOL, rtol=RTOL, maxiter=MAX_ITER)
                     for a, b, *p in zip(lo, hi, *args)])
    assert batch.tobytes() == want.tobytes() == alone.tobytes()


def _nan_inside(x):
    """1 - 2x, but nan on (0.45, 0.55), where the first step from [0, 1] lands."""
    return np.where((x > 0.45) & (x < 0.55), np.nan, 1.0 - 2.0 * x)


@pytest.mark.parametrize("f,ends,error", [
    (_step, (0.0, 1.0, math.nan, -1.0), ValueError),
    (_step, (0.0, 1.0, 1.0, 2.0), ValueError),
    (_nan_inside, (0.0, 1.0, 1.0, -1.0), ValueError),
    (_step, (-1e300, 1e300, 1.0, -1.0), berklab.NumericalError),
])
@pytest.mark.parametrize("size", [SMALL_BATCH, SMALL_BATCH + 1])
def test_both_sides_of_the_small_batch_fail_alike(f, ends, error, size):
    # one entry at a time up to SMALL_BATCH, the masked loop past it: a nan at
    # an end or during the iteration, ends of one sign and MAX_ITER steps
    # without convergence raise the same error on either path
    with pytest.raises(error) as caught:
        brentq_masked(f, *(np.full(size, v) for v in ends))
    assert not isinstance(caught.value, RuntimeError)
    if f is _nan_inside:
        assert "function value is nan" in str(caught.value)


@settings(max_examples=60, deadline=None)
@given(kind=st.integers(0, 1), expand=st.booleans(),
       roots=st.lists(st.floats(-0.5, 30.0), min_size=1, max_size=10),
       slope=st.floats(0.1, 5.0))
def test_array_solve_decreasing_is_the_scalar_solve(kind, expand, roots, slope):
    # the edge rules (a root at or just below lo, one past hi) and the
    # doubling expansion act per entry as on a scalar
    root = np.array(roots)
    c1, c3 = np.full(root.shape, slope), np.full(root.shape, 0.25)
    c0 = c1 * root + c3 * root * root * root

    def f(x, *a):
        return _decreasing(kind, x, *a)

    def scalar(*p):
        try:
            return solve_decreasing(f, 0.0, 1.0, expand=expand, args=p)
        except berklab.NumericalError:
            return None

    want = [scalar(*p) for p in zip(c0, c1, c3)]
    if None in want:
        with pytest.raises(berklab.NumericalError):
            solve_decreasing(f, 0.0, 1.0, expand=expand, args=(c0, c1, c3))
        return
    got = solve_decreasing(f, 0.0, 1.0, expand=expand, args=(c0, c1, c3))
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       p=st.floats(0.5, 3.0))
def test_difference_rules_per_entry_are_the_scalar_rules(x, p):
    # entries within two steps of an edge take the one-sided rule, the
    # others the central one; f never sees a point beyond the edge that
    # chose the rule
    x = np.array(x)

    def f(t):
        assert np.all(np.asarray(t) >= 0.0) and np.all(np.asarray(t) <= 1.0)
        return np.sin(p * t) * t * t

    for rule in (fd1, fd2):
        got = rule(f, x, lo=0.0, hi=1.0)
        want = np.array([rule(f, float(v), lo=0.0, hi=1.0) for v in x])
        assert got.tobytes() == want.tobytes()


def _near_edges(step):
    """Points up to three steps inside [0, 1] from either edge."""
    k = st.floats(0.0, 3.0)
    return st.one_of(k.map(lambda k: k * step), k.map(lambda k: 1.0 - k * step))


@settings(max_examples=80, deadline=None)
@given(x=st.one_of(st.floats(0.0, 1.0), _near_edges(REL_STEP), _near_edges(REL_STEP2)),
       p=st.floats(0.5, 3.0))
def test_a_float_is_one_entry_of_the_array_rule(x, p):
    # one rule for floats and arrays: a float x gives the bits of the array
    # [x], f sees Python floats and a Python float comes back; within two
    # steps of an edge fd1 is one-sided and fd2 shifts inward
    seen = []

    def f(t):
        seen.append(type(t))
        return (p - t) * t * t + t

    for rule in (fd1, fd2):
        seen.clear()
        got = rule(f, x, lo=0.0, hi=1.0)
        assert set(seen) == {float} and type(got) is float
        want = rule(f, np.array([x]), lo=0.0, hi=1.0)
        assert np.array([got]).tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", [fd1, fd2])
@pytest.mark.parametrize("edges", [{}, {"lo": 0.0, "hi": 1.0}])
def test_a_nan_float_steps_as_a_nan_entry(rule, edges):
    # the step REL_STEP max(1, |x|) is NaN at a NaN x, as np.maximum gives
    # it (Python's max would take 1.0), so a constant f differences to NaN
    got = rule(lambda t: 1.0, math.nan, **edges)
    want = rule(lambda t: np.ones_like(t), np.array([math.nan]), **edges)
    assert type(got) is float and math.isnan(got) and np.isnan(want).all()


@pytest.mark.parametrize("x,evaluations", [
    (0.5, 4), (0.0, 3), (1.0, 3), (np.array([0.0, 1e-5]), 3),
    (np.array([1.0, 1.0 - 1e-5]), 3), (np.array([0.0, 0.5]), 5),
    (np.array([0.0, 1.0]), 5), (np.array([0.3, 0.5]), 4)])
def test_fd1_evaluates_only_the_points_its_rules_read(x, evaluations):
    # central: four points; every entry one-sided the same way: its three;
    # mixed rules: five arrays, an entry's own point standing in beyond its
    # edge.  The bits per entry are the scalar rule's (tested above)
    calls = []

    def f(t):
        calls.append(t)
        return (1.5 - t) * t * t + t

    fd1(f, x, lo=0.0, hi=1.0)
    assert len(calls) == evaluations


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_effort_condition_of_random_lq_instances(seed):
    # the general path solves the effort condition numerically, in one
    # masked pass from ARRAY_SOLVE_MIN points on; the arrays include zero
    # assessment and the support edges
    rng = np.random.default_rng(seed)
    model = random_lq_instance(rng, -0.2)
    eng = general_engine(model)
    n = ARRAY_SOLVE_MIN + 5
    h = np.concatenate((rng.uniform(0.0, 0.95, n), [0.0, 0.5, 0.95]))
    b = np.concatenate((rng.uniform(model.beta_lo, model.beta_hi, n),
                        [model.beta_lo, model.beta_hi, model.beta_lo]))
    for method in (eng.effort, eng.effective_effort, eng._dv_dh,
                   eng.effort_sensitivities, eng.r_partials):
        want = [method(float(hh), float(bb)) for hh, bb in zip(h, b)]
        want = (tuple(np.array(w) for w in zip(*want)) if isinstance(want[0], tuple)
                else (np.array(want),))
        got = method(h, b)
        for g, w in zip(got if isinstance(got, tuple) else (got,), want, strict=True):
            assert g.tobytes() == w.tobytes()


def _power(gamma=2.5):
    # build_power(gamma, c_scale, kappa_scale, lambda1, lambda2, mu_star,
    #             beta_star, mu_hat, beta_lo, beta_hi)
    return build_power(gamma, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)


def _entry_by_entry(model):
    """The model with every primitive, and every derivative a ``Smooth``
    one carries, refusing arrays, so that the engine applies each entry by
    entry with Python's scalar arithmetic."""

    def scalar_only(fn):
        if fn is None:
            return None
        if isinstance(fn, Smooth):
            return Smooth(*map(scalar_only, (fn.fn, fn.d1, fn.d2)))
        return lambda *args: fn(*map(float, args))

    return dataclasses.replace(
        model, **{name: scalar_only(getattr(model, name))
                  for name in ("r", "cost", "v_e", "assess_cost")})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [2.5, 4.0, 6.0])
def test_power_arrays_match_scalars_and_the_closed_form(gamma):
    model = _power(gamma)
    plain = BestResponseEngine(model)
    wrapped = BestResponseEngine(_entry_by_entry(model))
    assert array_form(wrapped.model.cost, np.ones(3)) is not wrapped.model.cost
    rng = np.random.default_rng(7)
    h = rng.uniform(0.02, 0.98, 64)
    b = rng.uniform(model.beta_lo, model.beta_hi, 64)
    # numpy's vectorized power rounds some entries an ulp away from Python's
    # scalar power; the exact derivatives carry that through the solves as
    # a few ulps
    for method in ("effort", "effective_effort", "_dv_dh"):
        want = np.array([getattr(plain, method)(float(hh), float(bb))
                         for hh, bb in zip(h, b)])
        assert getattr(wrapped, method)(h, b).tobytes() == want.tobytes()
        assert np.allclose(getattr(plain, method)(h, b), want, rtol=1e-14, atol=0.0)
    # a = (h beta / c)^(1/(gamma-1)) with c = 1, and dV_E/dh = v_a da/dh
    a = (h * b) ** (1.0 / (gamma - 1.0))
    assert np.max(np.abs(plain.effort(h, b) - a)) <= 1e-14
    assert np.max(np.abs(plain.effective_effort(h, b) - b * a)) <= 3e-14
    dv = (b - 0.5 * a ** (gamma - 1.0)) * a / ((gamma - 1.0) * h)
    assert np.allclose(plain._dv_dh(h, b), dv, rtol=1e-13, atol=0.0)
    # the assessment's outer solve over 50 productivities
    b = np.linspace(model.beta_lo, model.beta_hi, 50)
    for method in ("assessment", "first_order_assessment"):
        want = np.array([getattr(plain, method)(float(bb)) for bb in b])
        assert getattr(wrapped, method)(b).tobytes() == want.tobytes()
        assert np.allclose(getattr(plain, method)(b), want, rtol=1e-14, atol=0.0)


def _count_scalar_effort_solves(monkeypatch):
    """Calls of the float Brent loop on the agent's effort condition: the
    scalar entry point of an effort solve."""
    calls = []
    brent = berklab.rootfind._brent

    def counted(f, *args):
        if getattr(f, "__func__", None) is BestResponseEngine._effort_foc:
            calls.append(1)
        return brent(f, *args)

    monkeypatch.setattr(berklab.rootfind, "_brent", counted)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certificates_make_no_scalar_effort_solve(monkeypatch):
    # the 64 x 64 factorization check and the table's nested grids are one
    # array pass each; transform's only scalar solves are the two
    # assessments that bound its h grid
    model = _power()
    calls = _count_scalar_effort_solves(monkeypatch)
    BestResponseEngine(model).assessment_bounds()
    bounds = len(calls)
    assert bounds > 0
    del calls[:]
    tm = transform(model)
    assert len(calls) == bounds
    assert tm.recon_error < 1e-10
    del calls[:]
    _foc_table(tm)
    assert calls == []


def test_assessment_solves_effort_only_for_its_bracket(monkeypatch):
    # the evaluator's condition is solved over effort, where h is explicit:
    # an assessment solves effort only at the two ends of its bracket, and
    # the certified enumeration (one assessment per sample) follows: its fit
    # gap reads R(h, beta) at the solve's own root effort
    model = build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0)
    calls = _count_scalar_effort_solves(monkeypatch)
    BestResponseEngine(model).assessment(1.3)
    assert len(calls) == 2
    del calls[:]
    find_equilibria(model, grid_points=128)
    assert len(calls) <= 160


def test_numeric_r_partials_are_the_chain_rule(monkeypatch):
    # R = g1(beta) g2(h) with g1 = beta^q, g2 = h^p on build_power (c = 1),
    # so R_h = g1 g2' and R_beta = g1' g2; one effort solve per point
    gamma = 2.5
    p, q = 1.0 / (gamma - 1.0), gamma / (gamma - 1.0)
    eng = BestResponseEngine(
        build_power(gamma, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0))
    calls = _count_scalar_effort_solves(monkeypatch)
    eng.r_partials(0.4, 1.7)
    assert len(calls) == 1
    h, b = np.array([0.4, 0.15, 0.9, 0.6]), np.array([1.7, 0.6, 2.8, 2.2])
    r_h, r_b = eng.r_partials(h, b)
    np.testing.assert_allclose(r_h, b ** q * p * h ** (p - 1.0), rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(r_b, q * b ** (q - 1.0) * h ** p, rtol=1e-8, atol=0.0)


def _numeric_engine(kind, delta_mu=None):
    """A numeric engine on the three-equilibria LQ model (its general path,
    ``general_engine``) or on ``_power()``, with misspecification
    ``delta_mu`` if given."""
    model = three_equilibria_model() if kind == "lq" else _power()
    if delta_mu is not None:
        model = model.with_delta_mu(delta_mu)
    return general_engine(model)


def _scipy_best_fit(eng, h, beta_star, delta_mu, clamp):
    """Best fit by scipy's brentq on R(h, x) - target, with the clamp at the
    support edges or the doubling search for an upper bracket end."""
    m = eng.model

    def excess(x):
        return eng.effective_effort(h, x) - target

    target = eng.effective_effort(h, beta_star) - delta_mu
    if clamp:
        if excess(m.beta_lo) >= 0.0:
            return m.beta_lo
        if excess(m.beta_hi) <= 0.0:
            return m.beta_hi
        return brentq(excess, m.beta_lo, m.beta_hi, xtol=XTOL, rtol=RTOL)
    if target <= 0.0:
        return 0.0 if target == 0.0 else math.nan
    hi = max(m.beta_hi, beta_star)
    while excess(hi) < 0.0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=XTOL, rtol=RTOL)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("lq", "power")), clamp=st.booleans(),
       h=st.floats(0.05, 0.95), beta_star=st.floats(0.6, 2.9),
       delta_mu=st.floats(-1.5, 1.5))
def test_numeric_best_fit_is_scipys_root(kind, clamp, h, beta_star, delta_mu):
    eng = _numeric_engine(kind)
    got = eng.best_fit(h, beta_star, delta_mu, clamp=clamp)
    want = _scipy_best_fit(eng, h, beta_star, delta_mu, clamp)
    assert type(got) is float
    assert (math.isnan(got) and math.isnan(want)) or got == want


def test_clamped_best_fit_evaluates_each_support_edge_once(monkeypatch):
    # the clamp test's end values start Brent's iteration, so neither edge
    # is evaluated again by the bracket check or the solver's start
    eng = _numeric_engine("power")
    m, seen = eng.model, []
    original = BestResponseEngine.effective_effort

    def recorded(self, h, beta):
        seen.append(float(np.asarray(beta).flat[0]))
        return original(self, h, beta)

    monkeypatch.setattr(BestResponseEngine, "effective_effort", recorded)
    assert m.beta_lo < eng.best_fit(0.5, 2.0, -0.1) < m.beta_hi
    assert seen.count(m.beta_lo) == seen.count(m.beta_hi) == 1
    assert len(seen) <= 17


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(("lq", "power")), delta_mu=st.floats(-0.6, 1.2))
def test_certified_roots_polish_is_scipys_per_crossing(kind, delta_mu):
    # one masked pass polishes every crossing of the numeric fit gap from
    # the end values the enumeration holds; scipy polishes each bracket
    # alone, evaluating its ends again
    eng = _numeric_engine(kind, delta_mu)
    calls = []

    def recorded(f, xa, xb, fa, fb, *args):
        calls.append((f, xa, xb))
        return brentq_masked(f, xa, xb, fa, fb, *args)

    with mock.patch.object(berklab.chebyshev, "brentq_masked", recorded):
        found = eng.interior_fixed_points(eng.model.beta_star, delta_mu, 4096)
    ((f, xa, xb),) = calls
    assert xa.size == found.roots.size
    want = np.array([brentq(f, a, b, xtol=XTOL, rtol=RTOL) for a, b in zip(xa, xb)])
    if kind == "lq":
        assert found.roots.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(found.roots - want), initial=0.0) <= 1e-12
