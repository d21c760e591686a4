"""The buffered learning step against its plain-expression reference.

``learning._run_engine`` writes every per-period quantity into buffers
allocated once per call and skips guards the state has outgrown; each
stored value must keep the bits of ``helpers.run_engine_reference``, which
evaluates the same step with one fresh temporary per operation.  The
certainty-equivalent rule calls ``learning.trunc_mean`` only on the periods
whose ``truncnorm.interior`` test fails (so the tracer's ``trunc_mean``
counts are fallback periods), and ``evaluator_step`` on a simulated terminal
state must give the engine's next assessment.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import berklab.learning
from berklab import build_power, evaluator_step, simulate, transform
from berklab.learning import (CHUNK, _RETEST_PERIODS, TruncNormalPrior, _assessment_rule,
                              _run_engine, _single_group_args)
from berklab.truncnorm import interior, trunc_mean

from helpers import (TWO_GROUPS, interior_edge, nudged, run_engine_reference,
                     three_equilibria_model, zero_noise)

FIELDS = ("m", "s", "rec_n", "rec_m", "rec_xi", "rec_h", "rec_x")
CORNER = -2.0555555555555562  # the corner sink of the three-equilibria model


@pytest.fixture(scope="module")
def tm3():
    return transform(three_equilibria_model())


def assert_same_run(got, want):
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


def group_args(tm, groups):
    return _single_group_args(tm) if groups == 1 else TWO_GROUPS


@settings(max_examples=30, deadline=None)
@given(runs=st.sampled_from((1, 3, 17)), groups=st.sampled_from((1, 2)),
       prior_on=st.sampled_from(("none", "one", "all")),
       mean=st.sampled_from((CORNER, 0.5, 3.35, 6.0, 9.5)),
       sd=st.sampled_from((0.01, 0.3)),
       noise=st.sampled_from(("plain", "zero")),
       stride=st.sampled_from((1, 7)), horizon=st.integers(1, 120),
       seed=st.integers(0, 2**32), first_run=st.integers(0, 16))
def test_step_is_bit_identical_to_the_reference(tm3, runs, groups, prior_on,
                                                mean, sd, noise, stride,
                                                horizon, seed, first_run):
    prior = None
    if prior_on != "none":
        p = TruncNormalPrior(mean, sd)
        prior = [p] + [p if prior_on == "all" else None] * (groups - 1)
    kwargs = dict(runs=runs, horizon=horizon, seed=seed, prior=prior,
                  record_stride=stride, first_run=first_run)
    args = group_args(tm3, groups)
    with zero_noise() if noise == "zero" else contextlib.nullcontext():
        assert_same_run(_run_engine(tm3, *args, **kwargs),
                        run_engine_reference(tm3, *args, **kwargs))


@settings(max_examples=40, deadline=None)
@given(groups=st.sampled_from((2, 3)), runs=st.integers(2, 6),
       raw=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       inside=st.booleans(), data=st.data())
def test_batch_rule_rows_are_the_one_run_rule(tm3, groups, runs, raw, inside, data):
    # the population mean is one fold for every batch size: row k of the
    # batch rule is the one-run rule on row k, bit for bit, with every
    # state inside the interior test's reach or each entry anywhere, from
    # below to above the support, with a precision from zero up
    alphas = np.array(raw[:groups]) / sum(raw[:groups])
    lo, hi = tm3.m_lo, tm3.m_hi
    if inside:
        mode = st.floats(lo + 0.1 * (hi - lo), 0.5 * (lo + hi))
        precision = st.floats(4.0, 7.0).map(lambda e: 10.0 ** e)
    else:
        mode = st.floats(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo))
        precision = st.one_of(st.just(0.0),
                              st.floats(-1.0, 7.0).map(lambda e: 10.0 ** e))
    m, s = (np.array(data.draw(st.lists(st.lists(entry, min_size=groups,
                                                 max_size=groups),
                                        min_size=runs, max_size=runs)))
            for entry in (mode, precision))
    if inside:
        assert interior(m.min(), m.max(), 1.0 / math.sqrt(s.min()), lo, hi)
    batch = _assessment_rule(tm3, alphas, runs)(m, s)
    for k in range(runs):
        alone = _assessment_rule(tm3, alphas, 1)(m[k].tolist(), s[k].tolist())
        assert alone.hex() == float(batch[k]).hex()


def test_corner_sink_start_over_many_periods(tm3):
    # every mode stays far below the support, so each period evaluates the
    # far tail of the truncated mean on every run
    kwargs = dict(runs=17, horizon=3000, seed=701,
                  prior=[TruncNormalPrior(CORNER, 0.01)], record_stride=1)
    args = _single_group_args(tm3)
    assert_same_run(_run_engine(tm3, *args, **kwargs),
                    run_engine_reference(tm3, *args, **kwargs))


@pytest.mark.parametrize("ulps", (-1, 0, 1, 2))
def test_priors_at_the_edges_of_the_interior_path(tm3, ulps):
    # group 0 starts at the least mode of the interior path (at the sd the
    # engine forms from the prior), group 1 at the
    # midpoint, each moved by ulps: the first periods' interior tests hold
    # or fail on the last bit
    sd, lo, hi = 0.01, tm3.m_lo, tm3.m_hi
    sigma = 1.0 / math.sqrt(TruncNormalPrior(0.0, sd).precision)
    means = (nudged(interior_edge(lo, sigma), ulps), nudged(0.5 * (lo + hi), -ulps))
    assert interior(*means, sigma, lo, hi) is (ulps >= 0)
    kwargs = dict(runs=3, horizon=40, seed=17, record_stride=1,
                  prior=[TruncNormalPrior(m, sd) for m in means])
    for noise in (contextlib.nullcontext, zero_noise):
        with noise():
            assert_same_run(_run_engine(tm3, *TWO_GROUPS, **kwargs),
                            run_engine_reference(tm3, *TWO_GROUPS, **kwargs))


@pytest.mark.parametrize("runs", (1, 2))
def test_buffers_carry_over_into_the_next_noise_block(tm3, runs):
    # the noise is drawn in blocks of CHUNK periods, while the state lives in
    # buffers that persist from one block to the next
    kwargs = dict(runs=runs, horizon=CHUNK + 5, seed=23, record_stride=CHUNK)
    args = _single_group_args(tm3)
    got = _run_engine(tm3, *args, **kwargs)
    assert got.rec_n.tolist() == [1, CHUNK, CHUNK + 5]
    assert_same_run(got, run_engine_reference(tm3, *args, **kwargs))


@pytest.mark.parametrize("runs", (1, 2))
def test_general_primitives_step_matches_the_reference(runs):
    tm = transform(build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0))
    kwargs = dict(runs=runs, horizon=3, seed=8, record_stride=1)
    args = _single_group_args(tm)
    assert_same_run(_run_engine(tm, *args, **kwargs),
                    run_engine_reference(tm, *args, **kwargs))


def period_log(monkeypatch):
    """Per period of the certainty-equivalent rule: the verdicts of its
    ``interior`` tests and the sizes of its ``trunc_mean`` calls."""
    periods, tests, means = [], [], []

    def tested(*args):
        tests.append(interior(*args))
        return tests[-1]

    def counted(*args):
        means.append(np.size(args[0]))
        return trunc_mean(*args)

    def logged_rule(*args):
        rule = _assessment_rule(*args)

        def period(m, s):
            h = rule(m, s)
            periods.append((tests.copy(), means.copy()))
            tests.clear()
            means.clear()
            return h
        return period

    monkeypatch.setattr(berklab.learning, "interior", tested)
    monkeypatch.setattr(berklab.learning, "trunc_mean", counted)
    monkeypatch.setattr(berklab.learning, "_assessment_rule", logged_rule)
    return periods


def fallback_periods(periods, size):
    """The 1-based periods that call ``trunc_mean``, after checking that each
    is one whose latest interior test failed, with one call of ``size``
    modes, and that a failed test holds for ``_RETEST_PERIODS`` periods."""
    out, verdict, untested = [], None, 0
    for n, (tests, means) in enumerate(periods, start=1):
        if untested:
            assert tests == []
            untested -= 1
        else:
            # a failed test is retried once, with a refreshed bound on s
            assert tests in ([True], [False, True], [False, False])
            verdict = tests[-1]
            untested = 0 if verdict else _RETEST_PERIODS - 1
        assert means == ([] if verdict else [size])
        if means:
            out.append(n)
    return out


@pytest.mark.parametrize("groups", (1, 2))
@pytest.mark.parametrize("runs", ((5, 4, 3), (1, 1, 1)))
def test_trunc_mean_is_called_only_where_the_interior_test_fails(tm3, monkeypatch,
                                                                groups, runs):
    # a uniform start falls back while its posteriors are wide, then settles
    # for good; a corner-sink start keeps its modes below the support and
    # falls back every period
    periods = period_log(monkeypatch)
    _run_engine(tm3, *group_args(tm3, groups), runs=runs[0], horizon=300, seed=2)
    first = fallback_periods(periods, runs[0] * groups)
    assert 0 < len(first) < 100 and first == list(range(1, len(first) + 1))
    periods.clear()
    simulate(tm3, horizon=250, seed=3, runs=runs[1])
    first = fallback_periods(periods, runs[1])
    assert 0 < len(first) < 100 and first == list(range(1, len(first) + 1))
    periods.clear()
    prior = [TruncNormalPrior(CORNER, 0.01)] * groups
    _run_engine(tm3, *group_args(tm3, groups), runs=runs[2], horizon=200, seed=4,
                prior=prior)
    assert fallback_periods(periods, runs[2] * groups) == list(range(1, 201))


def test_evaluator_step_on_a_terminal_state_gives_the_next_assessment(tm3):
    # simulate(..., prior=p).terminal already holds the prior in xi, so the
    # prior passed again must not be counted a second time
    p = TruncNormalPrior(0.5, 0.1)
    horizon = 50
    state = simulate(tm3, horizon=horizon, seed=3, prior=p).terminal
    nxt = _run_engine(tm3, *_single_group_args(tm3), runs=1,
                      horizon=horizon + 1, seed=3, prior=[p], record_stride=1)
    want = nxt.rec_h[horizon]
    assert evaluator_step(tm3, state, p) == want
    assert evaluator_step(tm3, state) == want
