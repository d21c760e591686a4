"""Numerically stable truncated-normal quantities.

The learning recursion parameterizes posteriors by the mode and variance of
an untruncated normal whose mode can drift far outside the support, so the
mean and mass formulas are written in terms of the scaled complementary
error function to avoid cancellation in the far-tail regime.  ``interior``
says where the mean is the mode itself, so that learning may skip it.

scipy.special, the home of erfc and erfcx, is imported by the first tail
evaluation (``_by_branch``, which every ``trunc_mean``, ``log_mass`` and
``trunc_pdf`` call passes through), so importing berklab does not load it:
the LQ closed forms never evaluate a tail, and learning loads it on its
first period that fails the interior test.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_FLOOR = 1e-300  # least mass log_mass takes the log of
erfc = erfcx = None  # scipy.special's, bound by the first tail evaluation


# Past INTERIOR_SIGMAS standard deviations inside the support the mean sits
# sigma * ratio above the (reflected) mode, with 0 <= ratio < 5e-32 (that is
# sqrt(2/pi) exp(-12^2 / 2) over a denominator of at least 0.99).  Half an
# ulp of the mode is at least 2^-54 |mode|, so whenever |mode| also exceeds
# _ULP_GUARD * sigma the tail formula of ``trunc_mean`` rounds back to the
# mode itself: ``interior`` states where, and only ``_interior_reach``, its
# verdict and how far a range may widen and keep it, reads the two values.
INTERIOR_SIGMAS = 12.0
_ULP_GUARD = 1e-14


def interior(m_min: float, m_max: float, sigma_max: float, lo: float, hi: float) -> bool:
    """The interior rule: true only when every mode in [m_min, m_max] with
    sd at most sigma_max is its own ``trunc_mean`` (see above), so a caller
    may skip the formula.  Rounding is monotone, so the bounds' own tests
    imply each element's; NaN bounds give False."""
    return _interior_reach(m_min, m_max, sigma_max, lo, hi) >= 0.0


def _interior_reach(m_min: float, m_max: float, sigma_max: float, lo: float,
                    hi: float) -> float:
    """The interior rule with its reach: -inf where ``interior`` is false,
    else the least of the rule's three rooms, so that [m_min - w, m_max + w]
    passes the rule for every w >= 0 below it, up to the rooms' own rounding
    (a few ulps of the largest magnitude in play, which a caller leaves as
    slack).  The rooms are m_max's below the midpoint, m_min - lo's above
    INTERIOR_SIGMAS sds and, on supports reaching below zero, the least
    |mode| on [m_min, m_max]'s (0 when it spans zero) above _ULP_GUARD sds;
    each is one rounded difference, whose sign is the exact one, so the
    verdict is the comparisons' own."""
    to_mid = 0.5 * (lo + hi) - m_max
    above_lo = m_min - lo - INTERIOR_SIGMAS * sigma_max
    above_guard = math.inf if lo >= 0.0 else max(m_min, -m_max) - _ULP_GUARD * sigma_max
    if to_mid >= 0.0 and above_lo > 0.0 and above_guard > 0.0:
        return min(to_mid, above_lo, above_guard)
    return -math.inf


def trunc_mean(m, sigma, lo: float, hi: float):
    """Mean of a normal(m, sigma^2) truncated to [lo, hi]; vectorized in m,
    array results fresh.  A mode above the midpoint is reflected below it
    and its mean back, which may round past hi by part of an ulp of lo + hi,
    hence the clip.  A zero sigma is a point mass: its mean is the mode
    clipped to [lo, hi] (exactly when lo >= 0, as the reflection then is)."""
    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != m.shape:
        sigma = np.broadcast_to(sigma, m.shape)
    flip = m > 0.5 * (lo + hi)
    mm = np.where(flip, lo + hi - m, m)
    out = mm + sigma * _tail_ratio(mm, sigma, lo, hi)
    out = np.where(flip, lo + hi - out, out)
    # np.clip's bits for ordered bounds, with less call overhead
    out = np.minimum(np.maximum(out, lo), hi)
    return out if out.ndim else float(out)


def _by_branch(mm, scale, lo: float, hi: float, far, near):
    """``near(u, w)`` where u < 0 and ``far(u, w)`` elsewhere, for u, w =
    (lo - mm) / scale, (hi - mm) / scale, each form evaluated only on the
    elements it applies to; the one ``errstate`` block of a tail evaluation,
    since both forms under- and overflow by design.  Past ~1e154 sigmas the
    far forms' u^2 - w^2 is inf - inf, which they read as 0: the mean is then
    the mode, which the clip puts on the nearer edge, and the log mass is
    -inf.  A zero scale gives infinite arguments, or a NaN u (0 / 0) for a
    mode on lo, which goes far: either ratio then reads 0, the mean the mode."""
    global erfc, erfcx
    if erfc is None:
        from scipy.special import erfc, erfcx
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        u, w = (lo - mm) / scale, (hi - mm) / scale
        is_near = u < 0.0
        n_near = np.count_nonzero(is_near)
        if n_near == 0:
            return far(u, w)
        if n_near == is_near.size:
            return near(u, w)
        is_far = ~is_near
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
    return _by_branch(mm, sigma * _SQRT2, lo, hi, _ratio_far, _ratio_near)


def _log_mass_far(u, w):
    decay = np.exp(np.fmin(u * u - w * w, 0.0))
    return np.log(0.5) - u * u + np.log(
        np.maximum(erfcx(u) - erfcx(w) * decay, _LOG_FLOOR))


def _log_mass_near(u, w):
    return np.log(np.maximum(0.5 * (erfc(u) - erfc(w)), _LOG_FLOOR))


def log_mass(m, sigma, lo: float, hi: float):
    """log P(lo <= X <= hi) for X ~ normal(m, sigma^2); vectorized in m.
    A zero sigma is a point mass: 0 on [lo, hi], -inf outside.  The tail
    forms miss both edges (a mode on lo gives a NaN u, and one on hi may
    reflect to just below lo), so those elements take the rule itself."""
    m = np.asarray(m, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), m.shape)
    mid = 0.5 * (lo + hi)
    mm = np.where(m > mid, lo + hi - m, m)
    out = _by_branch(mm, sigma * _SQRT2, lo, hi, _log_mass_far, _log_mass_near)
    point = sigma == 0.0
    if point.any():
        out = np.where(point, np.where((m >= lo) & (m <= hi), 0.0, -np.inf), out)
    return out if out.ndim else float(out)


def trunc_pdf(x, m, sigma, lo: float, hi: float):
    """Density of the truncated normal at x (0 outside [lo, hi])."""
    x = np.asarray(x, dtype=float)
    lm = log_mass(m, sigma, lo, hi)
    z = (x - m) / sigma
    logpdf = -0.5 * z * z - math.log(sigma) - 0.5 * math.log(2.0 * math.pi) - lm
    out = np.where((x >= lo) & (x <= hi), np.exp(logpdf), 0.0)
    return out if out.ndim else float(out)
