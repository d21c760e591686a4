"""Numerically stable truncated-normal quantities.

The learning recursion parameterizes posteriors by the mode and variance of
an untruncated normal whose mode can drift far outside the support, so the
mean and mass formulas are written in terms of the scaled complementary
error function to avoid cancellation in the far-tail regime.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, erfcx

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_FLOOR = 1e-300  # least mass log_mass takes the log of


# Past INTERIOR_SIGMAS standard deviations inside the support the mean sits
# sigma * ratio above the (reflected) mode, with 0 <= ratio < 5e-32 (that is
# sqrt(2/pi) exp(-12^2 / 2) over a denominator of at least 0.99).  Half an
# ulp of the mode is at least 2^-54 |mode|, so whenever |mode| exceeds
# _ULP_GUARD * sigma the two-branch formula rounds back to the mode itself
# and the fast path returns the same bits without evaluating it.
INTERIOR_SIGMAS = 12.0
_ULP_GUARD = 1e-14


def interior(m_min: float, m_max: float, sigma_max: float, lo: float, hi: float) -> bool:
    """True only when every mode in [m_min, m_max] with sd at most sigma_max
    takes ``trunc_mean``'s unreflected interior path, where the mean is the
    mode itself.  Rounding is monotone, so the bounds' own tests imply each
    element's; NaN bounds give False."""
    if not (m_max <= 0.5 * (lo + hi) and m_min - lo > INTERIOR_SIGMAS * sigma_max):
        return False
    # the least |mode| on [m_min, m_max] (0 when it spans zero)
    return lo >= 0.0 or max(m_min, -m_max) > _ULP_GUARD * sigma_max


def trunc_mean(m, sigma, lo: float, hi: float):
    """Mean of a normal(m, sigma^2) truncated to [lo, hi]; vectorized in m.

    Array results are fresh arrays.  When no mode lies above the midpoint the
    reflection is skipped, and when moreover every element takes the interior
    fast path the final clip is skipped too: for sigma >= 0 each mode then
    satisfies lo < m <= (lo + hi) / 2, where the clip is the identity.  (A
    reflected mode may round past hi by part of an ulp of lo + hi, so the
    clip stays whenever a mode was reflected.)
    """
    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != m.shape:
        sigma = np.broadcast_to(sigma, m.shape)
    mid = 0.5 * (lo + hi)
    # reflect so the mode sits at or below the midpoint
    flip = m > mid
    reflected = np.count_nonzero(flip) > 0
    mm = np.where(flip, lo + hi - m, m) if reflected else m
    inside = mm - lo > INTERIOR_SIGMAS * sigma
    if lo < 0.0:  # for lo >= 0 the mode already exceeds 12 sigma
        inside &= np.abs(mm) > _ULP_GUARD * sigma
    n_inside = np.count_nonzero(inside)
    if n_inside == inside.size:
        if not reflected:
            return m.copy() if m.ndim else float(m)
        out = mm
    elif n_inside == 0:
        out = mm + sigma * _tail_ratio(mm, sigma, lo, hi)
    else:
        edge = ~inside
        out = mm.copy()
        out[edge] += sigma[edge] * _tail_ratio(mm[edge], sigma[edge], lo, hi)
    if reflected:
        out = np.where(flip, lo + hi - out, out)
    # np.clip's bits for ordered bounds, with less call overhead
    out = np.minimum(np.maximum(out, lo), hi)
    return out if out.ndim else float(out)


def _by_branch(u, w, far, near):
    """``far(u, w)`` where u >= 0 and ``near(u, w)`` elsewhere, each
    evaluated only on the elements it applies to; the one ``errstate``
    block of a tail evaluation, since both forms under- and overflow by
    design.  Past ~1e154 sigmas the far forms' u^2 - w^2 is inf - inf, which
    they read as 0: the mean is then the mode, which the clip puts on the
    nearer edge, and the log mass is -inf."""
    is_far = u >= 0.0
    n_far = np.count_nonzero(is_far)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if n_far == is_far.size:
            return far(u, w)
        if n_far == 0:
            return near(u, w)
        is_near = ~is_far
        out = np.empty(u.shape)
        out[is_far] = far(u[is_far], w[is_far])
        out[is_near] = near(u[is_near], w[is_near])
    return out


def _ratio_far(u, w):
    # hazard-style form, safe when both tail arguments are large positive
    decay = np.exp(np.fmin(u * u - w * w, 0.0))  # <= 1: |u| <= w after reflection
    den = erfcx(u) - erfcx(w) * decay
    return _SQRT_2_OVER_PI * (1.0 - decay) / np.where(den > 0.0, den, 1.0)


def _ratio_near(u, w):
    num = np.exp(-u * u) - np.exp(-w * w)
    den = 0.5 * (erfc(u) - erfc(w))
    return 0.5 * _SQRT_2_OVER_PI * num / np.where(den > 0.0, den, 1.0)


def _tail_ratio(mm, sigma, lo: float, hi: float):
    """(mean - mode) / sigma for reflected modes mm <= (lo + hi) / 2."""
    scale = sigma * _SQRT2
    return _by_branch((lo - mm) / scale, (hi - mm) / scale, _ratio_far, _ratio_near)


def _log_mass_far(u, w):
    decay = np.exp(np.fmin(u * u - w * w, 0.0))
    return np.log(0.5) - u * u + np.log(
        np.maximum(erfcx(u) - erfcx(w) * decay, _LOG_FLOOR))


def _log_mass_near(u, w):
    return np.log(np.maximum(0.5 * (erfc(u) - erfc(w)), _LOG_FLOOR))


def log_mass(m, sigma, lo: float, hi: float):
    """log P(lo <= X <= hi) for X ~ normal(m, sigma^2); vectorized in m."""
    m = np.asarray(m, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), m.shape)
    mid = 0.5 * (lo + hi)
    mm = np.where(m > mid, lo + hi - m, m)
    u = (lo - mm) / (sigma * _SQRT2)
    w = (hi - mm) / (sigma * _SQRT2)
    out = _by_branch(u, w, _log_mass_far, _log_mass_near)
    return out if out.ndim else float(out)


def trunc_pdf(x, m, sigma, lo: float, hi: float):
    """Density of the truncated normal at x (0 outside [lo, hi])."""
    x = np.asarray(x, dtype=float)
    lm = log_mass(m, sigma, lo, hi)
    z = (x - m) / sigma
    logpdf = -0.5 * z * z - math.log(sigma) - 0.5 * math.log(2.0 * math.pi) - lm
    out = np.where((x >= lo) & (x <= hi), np.exp(logpdf), 0.0)
    return out if out.ndim else float(out)
