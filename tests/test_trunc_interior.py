"""``trunc_mean`` deep inside the support, against the two-branch formula.

Modes more than INTERIOR_SIGMAS standard deviations inside the support are
their own means, and the tail formula evaluates only the branch (erfcx or
erfc) that applies to each element; the result must be the two-branch
formula's, bit for bit, on arrays that mix such modes with modes near,
beyond or far outside either edge.  ``log_mass`` evaluates one branch per
element the same way.  The scalar test ``interior``, the sign of
``_interior_reach``, the one statement of the interior rule, may hold only
where every mode of its range, at every sd up to its bound, is its own mean
under both, and the reach says how far the range may widen and still hold.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklab.truncnorm import (_ULP_GUARD, INTERIOR_SIGMAS, _interior_reach, interior, log_mass,
                               trunc_mean)

from helpers import interior_edge, log_mass_two_branch, nudged, trunc_mean_two_branch

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


@st.composite
def interior_ranges(draw):
    """(m_min, m_max, sigma_max, lo, hi): range ends a few ulps from where
    the interior path starts or stops (INTERIOR_SIGMAS sd inside the lower
    edge, the midpoint, a zero-crossing support's guard band about 0) or
    anywhere in the support."""
    lo, hi = draw(st.sampled_from(SUPPORTS))
    sigma_max = (hi - lo) / 60.0 * 10.0 ** draw(st.floats(-6.0, 0.5))
    others = st.sampled_from((_ULP_GUARD * sigma_max, -_ULP_GUARD * sigma_max, 0.0,
                              draw(st.floats(lo, hi))))
    # mostly at the path's own ends, and nudged inward
    a, b = (nudged(end if draw(st.integers(0, 3)) else draw(others), draw(ulps))
            for end, ulps in ((lo + INTERIOR_SIGMAS * sigma_max, st.integers(-2, 4)),
                              (0.5 * (lo + hi), st.integers(-4, 2))))
    return min(a, b), max(a, b), sigma_max, lo, hi


@settings(max_examples=400, deadline=None)
@given(case=interior_ranges(),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-6, 1.0)),
                       min_size=1, max_size=8))
def test_interior_range_means_are_their_modes(case, points):
    # modes across the range, its ends and their inner neighbours, at sds
    # up to and at the bound
    m_min, m_max, sigma_max, lo, hi = case
    if not interior(m_min, m_max, sigma_max, lo, hi):
        return
    where, share = np.array(points).T
    m = np.concatenate([[m_min, m_max, nudged(m_min, 1), nudged(m_max, -1)],
                        m_min + where * (m_max - m_min)])
    m = np.clip(m, m_min, m_max)
    sigma = np.concatenate([[sigma_max] * 4, sigma_max * share])
    assert same_bits(trunc_mean(m, sigma, lo, hi), m)
    assert same_bits(trunc_mean_two_branch(m, sigma, lo, hi), m)


@settings(max_examples=400, deadline=None)
@given(case=interior_ranges(), share=st.floats(0.0, 1.0, exclude_max=True))
def test_interior_reach_widens_the_range_exactly(case, share):
    # interior is the reach's sign, and widening the range by less than the
    # reach, less the rounding of its rooms (a few ulps of the largest
    # magnitude in play), keeps each of the rule's conditions in exact
    # arithmetic
    m_min, m_max, sigma_max, lo, hi = case
    reach = _interior_reach(m_min, m_max, sigma_max, lo, hi)
    assert (reach >= 0.0) is interior(m_min, m_max, sigma_max, lo, hi)
    if reach < 0.0:
        assert reach == -math.inf
        return
    rounding = Fraction(4 * max(abs(lo), abs(hi), abs(m_min), abs(m_max))) / 2**52
    w = max(Fraction(reach) * Fraction(share) - rounding, Fraction(0))
    low, high = Fraction(m_min) - w, Fraction(m_max) + w
    assert high <= Fraction(0.5 * (lo + hi))
    assert low - Fraction(lo) > Fraction(INTERIOR_SIGMAS * sigma_max)
    assert lo >= 0.0 or max(low, -high) > Fraction(_ULP_GUARD * sigma_max)


@pytest.mark.parametrize("lo,hi", SUPPORTS)
def test_interior_is_exact_at_one_point(lo, hi):
    # on a one-point range the test is trunc_mean's own: it holds just past
    # INTERIOR_SIGMAS sd inside the lower edge and up to the midpoint itself
    sigma = (hi - lo) / 60.0
    edge, mid = interior_edge(lo, sigma), 0.5 * (lo + hi)
    inside = lo >= 0.0 or abs(edge) > _ULP_GUARD * sigma
    assert interior(edge, edge, sigma, lo, hi) is inside
    assert not interior(nudged(edge, -1), nudged(edge, -1), sigma, lo, hi)
    assert interior(mid, mid, sigma, lo, hi) is (lo >= 0.0 or mid != 0.0)
    assert not interior(nudged(mid, 1), nudged(mid, 1), sigma, lo, hi)
    assert not interior(math.nan, mid, sigma, lo, hi)


def test_interior_guard_band_about_zero():
    # a support across zero: a range holding a mode within the guard band
    # (or zero) fails, and so does one that spans zero
    lo, hi, sigma = -1.0, 2.0, 1.0 / 13.0
    assert not interior(-1e-40, 1e-40, sigma, lo, hi)
    assert not interior(1e-40, 0.4, sigma, lo, hi)
    assert not interior(-0.05, 0.05, sigma, lo, hi)
    assert interior(1e-3, 0.4, sigma, lo, hi)
    assert interior(-0.05, -1e-3, sigma, lo, hi)
    m = np.array([1e-3, 0.4, -0.05, -1e-3])
    assert same_bits(trunc_mean(m, sigma, lo, hi), m)
