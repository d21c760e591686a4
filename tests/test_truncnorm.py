import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm as scipy_truncnorm

from berklab.truncnorm import log_mass, trunc_mean, trunc_pdf

LO, HI = 0.09, 9.0


def scipy_mean(m, sigma):
    a, b = (LO - m) / sigma, (HI - m) / sigma
    return scipy_truncnorm.mean(a, b, loc=m, scale=sigma)


class TestTruncMean:
    @pytest.mark.parametrize("m,sigma", [
        (4.0, 0.5), (0.5, 1.3), (8.9, 0.2), (0.09, 2.0), (4.545, 30.0),
    ])
    def test_matches_scipy_in_moderate_regimes(self, m, sigma):
        assert trunc_mean(m, sigma, LO, HI) == pytest.approx(
            scipy_mean(m, sigma), rel=1e-10)

    @pytest.mark.parametrize("m", [-2.0, -50.0, -4000.0, 60.0, 4000.0])
    def test_far_tail_is_finite_and_inside(self, m):
        nu = trunc_mean(m, 0.01, LO, HI)
        assert np.isfinite(nu)
        assert LO <= nu <= HI

    @pytest.mark.parametrize("lo,hi", [(LO, HI), (-1.0, 2.0)])
    def test_mode_beyond_squares_in_floats_is_the_nearer_edge(self, lo, hi):
        # (mode / sigma)^2 overflows: the mean is the edge, the mass finite
        # or -inf, never nan
        m = np.array([-1e300, -1e160, 1e160, 1e300])
        nu = trunc_mean(m, np.ones(4), lo, hi)
        assert nu.tolist() == [lo, lo, hi, hi]
        assert [trunc_mean(x, 1.0, lo, hi) for x in m] == nu.tolist()
        assert not np.any(np.isnan(log_mass(m, np.ones(4), lo, hi)))

    def test_symmetric_case_is_midpoint(self):
        mid = 0.5 * (LO + HI)
        assert trunc_mean(mid, 1.7, LO, HI) == pytest.approx(mid, rel=1e-12)

    def test_monotone_in_mode(self):
        ms = np.linspace(-30.0, 40.0, 301)
        nus = trunc_mean(ms, 0.8, LO, HI)
        assert np.all(np.diff(nus) > -1e-13)

    def test_mean_deviation_decays_like_sqrt_n(self):
        # |nu - projected mode| < C / sqrt(n) uniformly, and C stays put
        # as n grows; the mode here sits outside the support
        for m in (-1.0, 0.0, 10.0):
            proj = min(max(m, LO), HI)
            worst = 0.0
            for n in (10.0 ** k for k in range(2, 8)):
                sigma = 1.0 / np.sqrt(n * 0.4)
                dev = abs(trunc_mean(m, sigma, LO, HI) - proj)
                worst = max(worst, dev * np.sqrt(n))
                assert dev * np.sqrt(n) <= worst + 1e-12
            assert worst < 10.0

    def test_interior_mode_deviation_decays_like_n(self):
        for m in (1.0, 4.0, 7.5):
            for n in (10.0 ** k for k in range(3, 8)):
                sigma = 1.0 / np.sqrt(n * 0.4)
                dev = abs(trunc_mean(m, sigma, LO, HI) - m)
                assert dev <= 50.0 / n


@settings(max_examples=60, deadline=None)
@given(m=st.floats(-100.0, 100.0),
       log_sigma=st.one_of(st.just(-math.inf), st.floats(-6.0, 2.0)))
@example(m=LO, log_sigma=-math.inf)
@example(m=HI, log_sigma=-math.inf)
def test_mean_stays_in_support(m, log_sigma):
    sigma = 10.0 ** log_sigma
    nu = trunc_mean(m, sigma, LO, HI)
    assert LO <= nu <= HI and np.isfinite(nu)
    if sigma == 0.0:
        # a point mass: the mean is the mode clipped, with no warning, on
        # either side of the support, at its edges and inside it
        assert nu == min(max(m, LO), HI)
        modes = np.array([m, 0.5, 1.0, -3.0, 12.0, LO, HI])
        assert np.array_equal(trunc_mean(modes, 0.0, LO, HI), np.clip(modes, LO, HI))


class TestPdfAndMass:
    def test_pdf_normalizes(self):
        from scipy.integrate import quad
        for m, sigma in ((4.0, 0.7), (-2.0, 0.4), (11.0, 1.5)):
            total, _ = quad(lambda x: trunc_pdf(x, m, sigma, LO, HI), LO, HI,
                            limit=200)
            assert total == pytest.approx(1.0, rel=1e-8)

    def test_zero_outside_support(self):
        assert trunc_pdf(LO - 1.0, 4.0, 1.0, LO, HI) == 0.0
        assert trunc_pdf(HI + 1.0, 4.0, 1.0, LO, HI) == 0.0

    def test_log_mass_matches_scipy_moderate(self):
        from scipy.stats import norm
        for m, sigma in ((4.0, 1.0), (1.0, 2.5), (8.0, 0.3)):
            expected = np.log(norm.cdf((HI - m) / sigma)
                              - norm.cdf((LO - m) / sigma))
            assert log_mass(m, sigma, LO, HI) == pytest.approx(expected,
                                                               rel=1e-9)

    def test_log_mass_far_tail_finite(self):
        lm = log_mass(-300.0, 0.1, LO, HI)
        assert np.isfinite(lm) and lm < -1e5
