"""Array-native effort solves: the masked Brent pass and its consumers.

A scalar root goes through scipy's ``brentq``; an array of roots goes
through ``rootfind.brentq_masked``, the same iteration applied elementwise.
The two must agree bit for bit wherever the function maps arrays with its
scalar bits, so every array path of the engine carries the scalar path's
bits.  The certificates of ``transform`` and ``_foc_table`` solve their
grids in one array pass each.  ``best_fit`` and ``certified_roots`` reach
scipy's solver only through ``rootfind`` and keep the bits of calling it
directly.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import berklab.chebyshev
import berklab.rootfind
from berklab import BestResponseEngine, build_power, find_equilibria, transform
from berklab.best_response import ARRAY_SOLVE_MIN, array_form
from berklab.learning import _foc_table
from berklab.rootfind import (RTOL, XTOL, brentq_masked, fd1, fd2,
                              solve_decreasing)

from helpers import random_lq_instance, three_equilibria_model


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_effort_condition_of_random_lq_instances(seed):
    # force_numeric solves the effort condition numerically, in one masked
    # pass from ARRAY_SOLVE_MIN points on; the arrays include zero
    # assessment and the support edges
    rng = np.random.default_rng(seed)
    model = random_lq_instance(rng, -0.2)
    eng = BestResponseEngine(model, force_numeric=True)
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
    """The model with every primitive refusing arrays, so that the engine
    applies each entry by entry with Python's scalar arithmetic."""

    def scalar_only(fn):
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
    # scalar power; the solves keep that near 1e-12, and dV_E/dh's second
    # difference (step 1e-3) amplifies it by about 1/step^2
    for method, rtol in (("effort", 1e-11), ("effective_effort", 1e-11),
                         ("_dv_dh", 2e-9)):
        want = np.array([getattr(plain, method)(float(hh), float(bb))
                         for hh, bb in zip(h, b)])
        assert getattr(wrapped, method)(h, b).tobytes() == want.tobytes()
        assert np.allclose(getattr(plain, method)(h, b), want, rtol=rtol, atol=0.0)
    # a = (h beta / c)^(1/(gamma-1)) with c = 1, and dV_E/dh = v_a da/dh
    a = (h * b) ** (1.0 / (gamma - 1.0))
    assert np.max(np.abs(plain.effort(h, b) - a)) <= 1e-11
    assert np.max(np.abs(plain.effective_effort(h, b) - b * a)) <= 3e-11
    dv = (b - 0.5 * a ** (gamma - 1.0)) * a / ((gamma - 1.0) * h)
    assert np.allclose(plain._dv_dh(h, b), dv, rtol=2e-9, atol=0.0)
    # the assessment's outer solve in h over 50 productivities: _dv_dh's
    # ~1e-9 array rounding moves its roots by about 1e-10
    b = np.linspace(model.beta_lo, model.beta_hi, 50)
    for method in ("assessment", "first_order_assessment"):
        want = np.array([getattr(plain, method)(float(bb)) for bb in b])
        assert getattr(wrapped, method)(b).tobytes() == want.tobytes()
        assert np.allclose(getattr(plain, method)(b), want, rtol=1e-9, atol=0.0)


def _count_scalar_effort_solves(monkeypatch):
    """Calls of scipy's brentq on the agent's effort condition: the scalar
    entry point of an effort solve."""
    calls = []

    def counted(f, *args, **kwargs):
        if getattr(f, "__func__", None) is BestResponseEngine._effort_foc:
            calls.append(1)
        return brentq(f, *args, **kwargs)

    monkeypatch.setattr(berklab.rootfind, "brentq", counted)
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
    """A numeric engine on the three-equilibria LQ model (``force_numeric``)
    or on ``_power()``, with misspecification ``delta_mu`` if given."""
    model = three_equilibria_model() if kind == "lq" else _power()
    if delta_mu is not None:
        model = model.with_delta_mu(delta_mu)
    return BestResponseEngine(model, force_numeric=True)


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
