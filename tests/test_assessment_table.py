"""The tabulated first-order condition behind the general-path learning step.

Off the certainty-equivalent (LQ) shortcut, each simulation tabulates the
evaluator's marginal value dV_E/dh once on a certified Chebyshev grid and
solves every posterior-expected assessment from the table.  The reference
is the engine's direct numeric solve over the same quadrature nodes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import berklab.learning
from berklab import (BestResponseEngine, LearningState, NumericalError,
                     build_power, evaluator_step, transform)
from berklab.learning import (_foc_table, _run_engine, _single_group_args,
                              _table_assessments)

from helpers import direct_quadrature_assessment, three_equilibria_model


def power_model(gamma: float = 2.5):
    # build_power(gamma, c_scale, kappa_scale, lambda1, lambda2, mu_star,
    #             beta_star, mu_hat, beta_lo, beta_hi)
    return build_power(gamma, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.1, 0.5, 3.0)


@pytest.fixture(scope="module")
def tm_power():
    return transform(power_model())


@st.composite
def posteriors(draw, tm):
    """(m, s) for one group: a mode anywhere from below to above the
    support, and a precision that is zero (no data) or spans eight decades."""
    span = tm.m_hi - tm.m_lo
    m = draw(st.floats(tm.m_lo - 0.2 * span, tm.m_hi + 0.2 * span))
    s = draw(st.one_of(st.just(0.0), st.floats(-1.0, 7.0).map(lambda e: 10.0 ** e)))
    return m, s


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(2.5, 6.0), alpha=st.floats(0.05, 0.95), data=st.data())
def test_table_matches_direct_solves_over_the_same_nodes(gamma, alpha, data):
    tm = transform(power_model(gamma), grid=16)
    alphas = np.array([alpha, 1.0 - alpha])
    (m1, s1), (m2, s2) = data.draw(posteriors(tm)), data.draw(posteriors(tm))
    m, s = np.array([[m1, m2]]), np.array([[s1, s2]])
    got = _table_assessments(tm, _foc_table(tm), alphas, m, s, 64)[0]
    want = direct_quadrature_assessment(tm, alphas, m[0], s[0], 64)
    assert abs(got - want) <= 1e-8


def test_uniform_posterior_matches_direct_solves(tm_power):
    # s = 0 in both groups: the uniform prior over the whole support
    alphas = np.array([0.3, 0.7])
    m, s = np.array([[1.0, 5.0]]), np.zeros((1, 2))
    got = _table_assessments(tm_power, _foc_table(tm_power), alphas, m, s, 64)[0]
    want = direct_quadrature_assessment(tm_power, alphas, m[0], s[0], 64)
    assert abs(got - want) <= 1e-8


def test_series_roots_and_edges(tm_power):
    # f = c0 + c1 cos(theta) = c0 + c1 (mid - h) / half is linear in h, with
    # its root at mid + half c0 / c1; without a sign change on the range the
    # edge the clip of an outside root gives
    table = _foc_table(tm_power)
    lo, hi = table.h_lo, table.h_hi
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = table.coef.shape[0]
    series = np.zeros((5, n))
    series[:, :2] = [[0.3, 1.0], [-0.7, 2.0], [0.0, 1.0], [2.0, 1.0], [-2.0, 1.0]]
    got = table.roots(series)
    want = [mid + half * 0.3, mid - half * 0.35, mid, hi, lo]
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)
    assert got[3] == hi and got[4] == lo


def count_dv_dh(monkeypatch):
    calls = []
    original = BestResponseEngine._dv_dh

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BestResponseEngine, "_dv_dh", counted)
    return calls


def test_one_table_per_simulation(monkeypatch, tm_power):
    calls = count_dv_dh(monkeypatch)
    args = _single_group_args(tm_power)
    _foc_table(tm_power)
    per_table = len(calls)
    counts = []
    for n in (2, 3):
        del calls[:]
        _run_engine(tm_power, *args, runs=n, horizon=n, seed=11)
        counts.append(len(calls))
    assert per_table > 0
    assert counts == [per_table, per_table]


def test_runs_do_not_depend_on_the_batch(tm_power):
    args = _single_group_args(tm_power)
    batch = _run_engine(tm_power, *args, runs=3, horizon=3, seed=8)
    ahead = _run_engine(tm_power, *args, runs=2, horizon=3, seed=8,
                        record_stride=1, first_run=2)
    alone = _run_engine(tm_power, *args, runs=1, horizon=3, seed=8,
                        record_stride=1, first_run=2)
    assert ahead.rec_h.tobytes() == alone.rec_h.tobytes()
    assert batch.m[2].tobytes() == alone.m[0].tobytes()


def test_certainty_equivalent_models_never_build_the_table(monkeypatch):
    def refuse(tm):
        raise AssertionError("table built on the certainty-equivalent path")

    monkeypatch.setattr(berklab.learning, "_foc_table", refuse)
    tm = transform(three_equilibria_model())
    assert tm.ce_exact
    _run_engine(tm, *_single_group_args(tm), runs=2, horizon=50, seed=3)
    evaluator_step(tm, LearningState(n=0, m=0.0, xi=0.0))


def test_kink_in_productivity_is_refused():
    # the evaluator's weight on effort bends at beta = 1.7: dV_E/dh has a
    # kink in beta, which no polynomial table resolves to the tolerance;
    # effective effort (and so the factorization) is untouched
    base = power_model()

    def v_e(a, beta):
        return (beta + 0.3 * abs(beta - 1.7)) * a - 0.5 * base.cost(a)

    tm = transform(dataclasses.replace(base, v_e=v_e), grid=16)
    with pytest.raises(NumericalError, match="not smooth"):
        evaluator_step(tm, LearningState(n=0, m=0.0, xi=0.0))
