"""The interior fast path of ``trunc_mean`` against the two-branch formula.

Modes more than INTERIOR_SIGMAS standard deviations inside the support skip
the tail formula, and the rest evaluate only the tail branch (erfcx or
erfc) that applies to them; the result must be the formula's, bit for bit,
on arrays that mix such modes with modes near, beyond or far outside either
edge.  ``log_mass`` evaluates one branch per element the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklab.truncnorm import INTERIOR_SIGMAS, log_mass, trunc_mean

from helpers import log_mass_two_branch, trunc_mean_two_branch

SUPPORTS = [(0.09, 9.0), (0.25, 9.0), (-1.0, 2.0), (-3.0, -0.5), (1e-3, 1e3)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def mixed_modes(draw):
    """(m, sigma, lo, hi): per element, sigma spans eight decades and the
    mode sits a drawn number of sigmas from either edge (inside or beyond
    it), up to a million sigmas outside either edge, anywhere in the
    support, or near zero."""
    lo, hi = draw(st.sampled_from(SUPPORTS))
    size = draw(st.integers(1, 40))
    m, sigma = np.empty(size), np.empty(size)
    for i in range(size):
        sig = 10.0 ** draw(st.floats(-7.0, 1.0))
        kind = draw(st.sampled_from(("lo", "hi", "below", "above", "inside",
                                     "zero")))
        if kind == "lo":
            m[i] = lo + sig * draw(st.floats(-40.0, 40.0))
        elif kind == "hi":
            m[i] = hi - sig * draw(st.floats(-40.0, 40.0))
        elif kind == "below":
            m[i] = lo - sig * 10.0 ** draw(st.floats(0.0, 6.0))
        elif kind == "above":
            m[i] = hi + sig * 10.0 ** draw(st.floats(0.0, 6.0))
        elif kind == "inside":
            m[i] = draw(st.floats(lo, hi))
        else:
            m[i] = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-300.0, 0.0))
        sigma[i] = sig
    return m, sigma, lo, hi


@settings(max_examples=300, deadline=None)
@given(case=mixed_modes())
def test_fast_path_is_bit_identical_to_the_two_branch_formula(case):
    m, sigma, lo, hi = case
    assert same_bits(trunc_mean(m, sigma, lo, hi),
                     trunc_mean_two_branch(m, sigma, lo, hi))


@settings(max_examples=300, deadline=None)
@given(case=mixed_modes())
def test_log_mass_is_bit_identical_to_the_two_branch_formula(case):
    m, sigma, lo, hi = case
    assert same_bits(log_mass(m, sigma, lo, hi),
                     log_mass_two_branch(m, sigma, lo, hi))


@pytest.mark.parametrize("lo,hi", SUPPORTS)
def test_all_modes_on_one_side_take_one_branch(lo, hi):
    # every mode far outside (the erfcx branch after reflection), then every
    # mode near an edge but inside (the erfc branch): no mixed arrays
    sigma = (hi - lo) / 60.0
    outside = np.concatenate([lo - sigma * np.logspace(0.0, 6.0, 7),
                              hi + sigma * np.logspace(0.0, 6.0, 7)])
    near = np.concatenate([lo + sigma * np.linspace(0.5, 11.0, 7),
                           hi - sigma * np.linspace(0.5, 11.0, 7)])
    for m in (outside, near):
        assert same_bits(trunc_mean(m, sigma, lo, hi),
                         trunc_mean_two_branch(m, sigma, lo, hi))
        assert same_bits(log_mass(m, sigma, lo, hi),
                         log_mass_two_branch(m, sigma, lo, hi))
    for m in (outside[0], near[0]):
        assert same_bits(log_mass(m, sigma, lo, hi),
                         log_mass_two_branch(m, sigma, lo, hi))


@settings(max_examples=100, deadline=None)
@given(case=mixed_modes(), log_sigma=st.floats(-7.0, 1.0))
def test_scalar_sigma_and_scalar_mode(case, log_sigma):
    m, _, lo, hi = case
    sigma = 10.0 ** log_sigma
    assert same_bits(trunc_mean(m, sigma, lo, hi),
                     trunc_mean_two_branch(m, sigma, lo, hi))
    got = trunc_mean(float(m[0]), sigma, lo, hi)
    assert isinstance(got, float)
    assert same_bits(got, trunc_mean_two_branch(m[0], sigma, lo, hi))


@pytest.mark.parametrize("lo,hi", SUPPORTS)
def test_threshold_neighbourhood_on_both_sides_of_the_midpoint(lo, hi):
    # modes straddling INTERIOR_SIGMAS from each edge, with sigma large
    # enough that the skipped correction is not flushed to zero
    sigma = (hi - lo) / 60.0
    offsets = INTERIOR_SIGMAS + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9, 0.5])
    m = np.concatenate([lo + offsets * sigma, hi - offsets * sigma])
    assert same_bits(trunc_mean(m, sigma, lo, hi),
                     trunc_mean_two_branch(m, sigma, lo, hi))


def test_mode_near_zero_on_a_support_across_zero():
    # the tail correction (about 1e-38 here) is not absorbed by the ulps of
    # a mode of 1e-40, so those elements must take the formula
    lo, hi, sigma = -1.0, 2.0, 1.0 / 13.0
    m = np.array([1e-40, -1e-40, 1e-30, 0.0, 0.5])
    got = trunc_mean(m, sigma, lo, hi)
    assert same_bits(got, trunc_mean_two_branch(m, sigma, lo, hi))
    assert got[0] != m[0]


def test_trunc_mean_returns_a_fresh_array_on_the_interior_path():
    m = np.array([3.0, 3.5, 4.0])
    out = trunc_mean(m, np.full(3, 1e-3), 0.09, 9.0)
    assert out is not m and not np.shares_memory(out, m)
    assert same_bits(out, m)
