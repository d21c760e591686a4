"""Chebyshev series on nested Lobatto grids, and certified root enumeration.

A function is sampled on nested Chebyshev-Lobatto grids until its series
matches direct evaluations at off-grid check angles.  ``certified_roots``
then splits the interval at the series' critical points and polishes every
sign change of the true function in one masked Brent pass (Boyd, SIAM J.
Numer. Anal. 40, 2002; Battles and Trefethen, SISC 25, 2004).

This module iterates to no root itself: every polish, here and in the
learning table built on ``certified_series`` and ``_cheb_basis``, goes
through ``rootfind.brentq_masked``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .rootfind import brentq_masked

FIRST_LEVEL = 17  # points per axis of the coarsest grid; after n come 2n - 1
CERT_RTOL = 1e-8  # series error allowed at check angles, relative to max |f| sampled
# pi (2j + 1) / 17 is no dyadic fraction of pi, so on none of the nested grids
CHECK_THETA = np.pi * np.arange(1, 17, 2) / 17.0
NEAR_REAL = 1e-6  # |imaginary part| of a derivative root kept as a split
SLOPE_STEP = 2.0 ** -10  # spacing of ``root_slopes``' stencil, relative to hi - lo


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
    certified series, and the pieces between them whose ends differ in sign
    (zero counts as positive) are polished together by ``brentq_masked``,
    starting from those end values.
    """
    from numpy.polynomial import chebyshev as C  # no LQ closed form comes here

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
    ys = ys.real[(abs(ys.imag) <= NEAR_REAL) & (abs(ys.real) < 1.0)]
    splits = np.sort(mid - half * ys)
    pts = np.concatenate(([lo], splits, [hi]))
    fs = np.concatenate(([vals[0]], f(splits) if splits.size else [], [vals[-1]]))
    pos = fs >= 0.0
    cross = np.flatnonzero(pos[:-1] != pos[1:])
    roots = brentq_masked(f, pts[cross], pts[cross + 1], fs[cross], fs[cross + 1])
    flat = (abs(fs[1:-1]) <= tol) & (pos[:-2] == pos[1:-1]) & (pos[1:-1] == pos[2:])
    return Roots(roots=roots, rising=pos[cross + 1],
                 slopes=-C.chebval((mid - roots) / half, dcoef) / half,
                 near_tangent=splits[flat], f_lo=float(vals[0]), f_hi=float(vals[-1]))


def root_slopes(f, roots, lo: float, hi: float) -> np.ndarray:
    """f' at each of ``roots``: the derivative of the quartic through f at
    five points ``SLOPE_STEP * (hi - lo)`` apart, centred on the root and
    shifted to stay in [lo, hi], in one call of f.  A difference of the true
    f: the certified series' own derivative carries its error times about
    the degree squared, which a slope divided by a small factor shows."""
    roots = np.asarray(roots, float)
    if roots.size == 0:
        return np.empty(0)
    step = SLOPE_STEP * (hi - lo)
    nodes = (np.clip(roots, lo + 2.0 * step, hi - 2.0 * step)[:, None]
             + step * np.arange(-2.0, 3.0))
    t = (nodes - roots[:, None]) / step  # in steps from the root
    # weights w with sum_k w_k t_k^j = [j == 1] for j = 0..4
    w = np.linalg.solve(t[:, None, :] ** np.arange(5.0)[:, None],
                        np.eye(5)[[1] * roots.size, :, None])[..., 0]
    return (w * f(nodes.ravel()).reshape(nodes.shape)).sum(axis=1) / step
