"""Chebyshev series on nested Lobatto grids, and certified root enumeration.

A function is sampled on nested Chebyshev-Lobatto grids until its series
matches direct evaluations at off-grid check angles.  ``certified_roots``
then splits the interval at the series' critical points and polishes each
sign change of the true function with Brent's method (Boyd, SIAM J. Numer.
Anal. 40, 2002; Battles and Trefethen, SISC 25, 2004).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.optimize import brentq

from .errors import NumericalError
from .rootfind import RTOL, XTOL

FIRST_LEVEL = 17  # points per axis of the coarsest grid; after n come 2n - 1
CERT_RTOL = 1e-8  # series error allowed at check angles, relative to max |f| sampled
# pi (2j + 1) / 17 is no dyadic fraction of pi, so on none of the nested grids
CHECK_THETA = np.pi * np.arange(1, 17, 2) / 17.0
_SERIES_MAX_ITER = 100


def _lobatto(n: int):
    """Angles theta_j = pi j / (n - 1) of the Chebyshev-Lobatto points
    cos(theta_j), and the matrix taking values there to Chebyshev
    coefficients (a discrete cosine transform)."""
    theta = np.pi * np.arange(n) / (n - 1)
    to_coef = np.cos(np.outer(np.arange(n), theta)) * (2.0 / (n - 1))
    to_coef[:, [0, -1]] *= 0.5
    to_coef[[0, -1], :] *= 0.5
    return theta, to_coef


def _cheb_basis(theta, n: int):
    """T_k(cos theta) = cos(k theta) for k < n, one row per angle."""
    return np.cos(np.multiply.outer(theta, np.arange(n)))


def _bracketed_roots(c, f_lo, f_hi, tol: float) -> np.ndarray:
    """Root in (-1, 1) of f(u) = sum_k c_k T_k(-u) for each row of ``c``,
    with f(-1) = ``f_lo`` > 0 > ``f_hi`` = f(1): Newton steps inside the
    shrinking bracket, bisection when a step leaves it, until a step or the
    bracket is below ``tol``."""
    k = np.arange(c.shape[1])
    out = np.empty(c.shape[0])
    ids = np.arange(c.shape[0])
    a, b = np.full(ids.size, -1.0), np.ones(ids.size)
    u = -1.0 + 2.0 * f_lo / (f_lo - f_hi)
    for _ in range(_SERIES_MAX_ITER):
        theta = np.arccos(-u)
        kt = np.multiply.outer(theta, k)
        f = (np.cos(kt) * c).sum(axis=1)
        pos = f > 0.0
        a, b = np.where(pos, u, a), np.where(pos, b, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            df = -(np.sin(kt) * (k * c)).sum(axis=1) / np.sin(theta)
            step = np.where(f == 0.0, 0.0, f / df)
        newton = u - step
        converged = np.abs(step) <= tol
        nxt = np.where(converged | ((newton > a) & (newton < b)), newton,
                       0.5 * (a + b))
        done = converged | (b - a <= tol)
        out[ids[done]] = nxt[done]
        if done.all():
            return out
        keep = ~done
        ids, c, a, b, u = ids[keep], c[keep], a[keep], b[keep], nxt[keep]
    raise NumericalError(
        f"tabulated assessment root did not settle in {_SERIES_MAX_ITER} steps")


def _along_axes(mat, arr):
    """``mat`` applied along every axis of a 1-D or 2-D ``arr``."""
    out = mat @ arr
    return out @ mat.T if arr.ndim == 2 else out


def _sample(f, theta, ndim: int, known=None):
    """f at every ndim-tuple of ``theta``, in one call on the arrays of the
    new points; ``known`` holds the values on every other angle of each axis
    (the previous nested level)."""
    grid = np.meshgrid(*(theta,) * ndim, indexing="ij")
    out = np.empty(grid[0].shape)
    new = np.ones(out.shape, bool)
    if known is not None:
        out[(slice(None, None, 2),) * ndim] = known
        new[(slice(None, None, 2),) * ndim] = False
    out[new] = f(*(g[new] for g in grid))
    return out


def certified_series(f, ndim: int, max_points: int):
    """Chebyshev coefficients of f(theta_1, ..., theta_ndim) (ndim 1 or 2,
    one Lobatto angle per axis; f maps 1-d arrays of angles to an array of
    values), its samples and its certified error: from
    the first nested level of 17, 33, 65, ... <= ``max_points`` points per
    axis whose series is within ``CERT_RTOL`` of f at the check angles;
    NumericalError when none is."""
    if max_points < FIRST_LEVEL:
        raise ValueError(f"max_points must be >= {FIRST_LEVEL}, got {max_points}")
    check = _sample(f, CHECK_THETA, ndim)
    vals, n = None, FIRST_LEVEL
    while n <= max_points:
        theta, to_coef = _lobatto(n)
        vals = _sample(f, theta, ndim, vals)
        coef = _along_axes(to_coef, vals)
        proxy = _along_axes(_cheb_basis(CHECK_THETA, n), coef)
        err = float(np.max(np.abs(proxy - check)))
        tol = CERT_RTOL * float(np.max(np.abs(vals)))
        if err <= tol:
            return coef, vals, tol
        n = 2 * n - 1
    raise NumericalError(
        f"Chebyshev series misses direct evaluations by {err:.3e} with "
        f"{vals.shape[0]} points per axis (tolerance {CERT_RTOL:g} relative); "
        "the function is not smooth enough to certify")


class Roots(NamedTuple):
    """Sign changes of f on [lo, hi], ascending, whether f rises through each
    and its slope there; points where |f| is within the certified error of
    zero without a sign change; f at both edges."""

    roots: np.ndarray
    rising: np.ndarray
    slopes: np.ndarray
    near_tangent: np.ndarray
    f_lo: float
    f_hi: float


def certified_roots(f, lo: float, hi: float, max_points: int) -> Roots:
    """Every sign change of the function f on [lo, hi]; f maps floats to
    floats and 1-d arrays to arrays.

    The true f is evaluated at both edges and at the critical points of its
    certified series, and each piece between them whose ends differ in sign
    (zero counts as positive) is polished with Brent's method.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def at(theta):  # the edges exactly: their values decide the corners
        return np.where(theta == 0.0, lo,
                        np.where(theta == np.pi, hi, mid - half * np.cos(theta)))

    coef, vals, tol = certified_series(lambda t: f(at(t)), 1, max_points)
    # a tail within the certified error locates no critical point; the series
    # runs in y = (mid - x) / half, and nearly real critical points are kept
    # (a needless split costs one evaluation of f)
    big = np.flatnonzero(np.abs(coef) > tol)
    dcoef = C.chebder(coef[:big[-1] + 1]) if big.size else np.zeros(1)
    ys = C.chebroots(dcoef) if dcoef.size > 1 else np.empty(0)
    ys = ys.real[(abs(ys.imag) <= 1e-6) & (abs(ys.real) < 1.0)]
    splits = np.sort(mid - half * ys)
    pts = np.concatenate(([lo], splits, [hi]))
    fs = np.concatenate(([vals[0]], f(splits) if splits.size else [], [vals[-1]]))
    pos = fs >= 0.0
    cross = np.flatnonzero(pos[:-1] != pos[1:])
    roots = np.array([brentq(f, pts[i], pts[i + 1], xtol=XTOL, rtol=RTOL)
                      for i in cross])
    flat = (abs(fs[1:-1]) <= tol) & (pos[:-2] == pos[1:-1]) & (pos[1:-1] == pos[2:])
    return Roots(roots=roots, rising=pos[cross + 1],
                 slopes=-C.chebval((mid - roots) / half, dcoef) / half,
                 near_tangent=splits[flat], f_lo=float(vals[0]), f_hi=float(vals[-1]))
