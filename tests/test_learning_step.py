"""The buffered learning step against its plain-expression reference.

``learning._run_engine`` writes every per-period quantity into buffers
allocated once per call and skips guards the state has outgrown; each
stored value must keep the bits of ``helpers.run_engine_reference``, which
evaluates the same step with one fresh temporary per operation.  The
tracer's ``trunc_mean`` counts keep their meaning only while the step calls
``learning.trunc_mean`` once per period, and ``evaluator_step`` on a
simulated terminal state must give the engine's next assessment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import berklab.learning
from berklab import build_power, evaluator_step, simulate, transform
from berklab.learning import CHUNK, TruncNormalPrior, _run_engine, _single_group_args
from berklab.truncnorm import trunc_mean

from helpers import run_engine_reference, three_equilibria_model

FIELDS = ("m", "s", "rec_n", "rec_m", "rec_xi", "rec_h", "rec_x")
CORNER = -2.0555555555555562  # the corner sink of the three-equilibria model
# per-group truths for two groups: uneven weights, so the population mean
# is not an exact halving
TWO_GROUPS = ((0.3, 0.7), (2.0, 1.8), (0.5, -0.2), (0.0, 0.1))


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
       noise=st.sampled_from(("plain", "clip", "zero")),
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
                  zero_noise=noise == "zero", clip_noise=noise == "clip",
                  record_stride=stride, first_run=first_run)
    args = group_args(tm3, groups)
    assert_same_run(_run_engine(tm3, *args, **kwargs),
                    run_engine_reference(tm3, *args, **kwargs))


def test_corner_sink_start_over_many_periods(tm3):
    # every mode stays far below the support, so each period evaluates the
    # far tail of the truncated mean on every run
    kwargs = dict(runs=17, horizon=3000, seed=701,
                  prior=[TruncNormalPrior(CORNER, 0.01)], record_stride=1)
    args = _single_group_args(tm3)
    assert_same_run(_run_engine(tm3, *args, **kwargs),
                    run_engine_reference(tm3, *args, **kwargs))


def test_buffers_carry_over_into_the_next_noise_block(tm3):
    # the noise is drawn in blocks of CHUNK periods, while the state and the
    # clipped noise live in buffers that persist from one block to the next
    kwargs = dict(runs=2, horizon=CHUNK + 5, seed=23, clip_noise=True,
                  record_stride=CHUNK)
    args = _single_group_args(tm3)
    got = _run_engine(tm3, *args, **kwargs)
    assert got.rec_n.tolist() == [1, CHUNK, CHUNK + 5]
    assert_same_run(got, run_engine_reference(tm3, *args, **kwargs))


def test_general_primitives_step_matches_the_reference():
    tm = transform(build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0))
    kwargs = dict(runs=2, horizon=3, seed=8, record_stride=1)
    args = _single_group_args(tm)
    assert_same_run(_run_engine(tm, *args, **kwargs),
                    run_engine_reference(tm, *args, **kwargs))


@pytest.mark.parametrize("groups", (1, 2))
def test_trunc_mean_is_called_once_per_period(tm3, monkeypatch, groups):
    sizes = []

    def counted(m, sigma, lo, hi):
        sizes.append(np.size(m))
        return trunc_mean(m, sigma, lo, hi)

    monkeypatch.setattr(berklab.learning, "trunc_mean", counted)
    _run_engine(tm3, *group_args(tm3, groups), runs=5, horizon=300, seed=2)
    assert sizes == [5 * groups] * 300
    sizes.clear()
    simulate(tm3, horizon=250, seed=3, runs=4)
    assert sizes == [4] * 250


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
