"""Root-finding and finite-difference helpers, for scalars and arrays.

Brackets are expanded by doubling; roots are polished with Brent's method,
which keeps the guaranteed-convergence property of plain bisection.

A scalar problem goes through scipy's ``brentq``.  An array of independent
problems goes through ``brentq_masked``, scipy's ``brentq.c`` iteration
applied elementwise: each entry takes the steps and stops at the tolerance
scipy's would, so where the function maps arrays with its scalar bits the
roots carry scipy's bits.  Entries leave the working set as they converge,
so the function is evaluated only on entries still iterating.

Per-entry parameters of a solve travel as ``args``: the function is called
as ``f(x, *args)``, on arrays with the subsets of the array-valued ``args``
that match the entries of ``x``.  The difference helpers take a function
of x alone, which on arrays maps every entry of x's shape (its parameters
bound in a closure over arrays of that shape), and difference all entries
at once, each by the rule its own position selects.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError

REL_STEP = 1e-4  # relative step for first derivatives (five-point rule)
REL_STEP2 = 1e-3  # relative step for second derivatives (five-point rule)
XTOL, RTOL = 1e-14, 8.9e-16  # Brent's method: absolute and relative root tolerance
MAX_ITER = 200  # Brent iterations per root
EDGE_TOL = 1e-13  # |f| at a bracket end that counts as a root there


def _take(args, sel):
    """The entries ``sel`` of each array in ``args``; scalars as they are."""
    return tuple(a[sel] if np.ndim(a) else a for a in args)


def _forward(f0, f1, f2, e):
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * e)


def _backward(f0, f1, f2, e):
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * e)


def _central(fp2, fp1, fm1, fm2, e):
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * e)


def fd1(f: Callable, x, lo: float | None = None, hi: float | None = None,
        rel_step: float = REL_STEP):
    """Five-point first difference; one-sided (second order) at domain edges.

    The O(e^4) truncation keeps root-solves on differenced first-order
    conditions accurate to ~1e-12, which the factorization certification
    downstream relies on.  On an array each entry takes the rule its own
    position selects, and f is evaluated on whole arrays: at an entry with
    a one-sided rule, the points beyond its edge are replaced by the entry
    itself, so f never sees a point past the edge that chose the rule.
    """
    if not isinstance(x, np.ndarray):
        e = rel_step * max(1.0, abs(x))
        if lo is not None and x - 2.0 * e < lo:
            return _forward(f(x), f(x + e), f(x + 2.0 * e), e)
        if hi is not None and x + 2.0 * e > hi:
            return _backward(f(x), f(x - e), f(x - 2.0 * e), e)
        return _central(f(x + 2.0 * e), f(x + e), f(x - e), f(x - 2.0 * e), e)
    e = rel_step * np.maximum(1.0, np.abs(x))
    left = (x - 2.0 * e < lo) if lo is not None else np.zeros(x.shape, bool)
    right = ~left & (x + 2.0 * e > hi) if hi is not None else np.zeros(x.shape, bool)
    if not (left.any() or right.any()):
        return _central(f(x + 2.0 * e), f(x + e), f(x - e), f(x - 2.0 * e), e)
    fp2, fp1 = f(np.where(right, x, x + 2.0 * e)), f(np.where(right, x, x + e))
    fm1, fm2 = f(np.where(left, x, x - e)), f(np.where(left, x, x - 2.0 * e))
    f0 = f(x)
    return np.where(left, _forward(f0, fp1, fp2, e),
                    np.where(right, _backward(f0, fm1, fm2, e),
                             _central(fp2, fp1, fm1, fm2, e)))


def fd2(f: Callable, x, lo: float | None = None, hi: float | None = None,
        rel_step: float = REL_STEP2):
    """Five-point second difference, shifted inward at domain edges."""
    if not isinstance(x, np.ndarray):
        e = rel_step * max(1.0, abs(x))
        if lo is not None and x - 2.0 * e < lo:
            x = lo + 2.0 * e
        if hi is not None and x + 2.0 * e > hi:
            x = hi - 2.0 * e
    else:
        e = rel_step * np.maximum(1.0, np.abs(x))
        if lo is not None:
            x = np.where(x - 2.0 * e < lo, lo + 2.0 * e, x)
        if hi is not None:
            x = np.where(x + 2.0 * e > hi, hi - 2.0 * e, x)
    return (-f(x + 2.0 * e) + 16.0 * f(x + e) - 30.0 * f(x)
            + 16.0 * f(x - e) - f(x - 2.0 * e)) / (12.0 * e * e)


def solve_decreasing(f: Callable, lo, hi, expand: bool = False,
                     max_hi: float = 1e12, args: tuple = ()):
    """Root of f with f(lo) >= 0 >= f(hi); optionally grows hi by doubling.

    Scalars give a float from scipy's ``brentq``; when ``lo``, ``hi`` or any
    of ``args`` is an array, every broadcast entry is solved by the same
    rules at once (``brentq_masked``).  Raises NumericalError when no sign
    change can be bracketed, which for first-order conditions signals a
    violated concavity/limit assumption.
    """
    if not (isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray)
            or any(isinstance(a, np.ndarray) for a in args)):
        f_lo = f(lo, *args)
        if f_lo < 0.0:
            if abs(f_lo) < EDGE_TOL:
                return lo
            raise NumericalError(f"no bracket: objective already decreasing at {lo!r}")
        if expand:
            while f(hi, *args) > 0.0:
                hi *= 2.0
                if hi > max_hi:
                    raise NumericalError("bracket expansion exceeded limit; "
                                         "first-order condition has no root")
        else:
            f_hi = f(hi, *args)
            if f_hi > 0.0:
                if abs(f_hi) < EDGE_TOL:
                    return hi
                raise NumericalError(f"no bracket: no sign change on [{lo}, {hi}]")
        return brentq(f, lo, hi, args=args, xtol=XTOL, rtol=RTOL, maxiter=MAX_ITER)

    lo, hi, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                          for v in (lo, hi, *args)))
    out = np.empty(lo.shape)
    f_lo = f(lo, *args)
    edge = f_lo < 0.0
    bad = edge & ~(np.abs(f_lo) < EDGE_TOL)
    if bad.any():
        raise NumericalError("no bracket: objective already decreasing at "
                             f"{float(lo[bad][0])!r}")
    out[edge] = lo[edge]
    todo = ~edge
    lo, hi, f_lo, args = lo[todo], hi[todo], f_lo[todo], _take(args, todo)
    f_hi = f(hi, *args)
    if expand:
        grow = f_hi > 0.0
        while grow.any():
            hi[grow] *= 2.0
            if np.any(hi > max_hi):
                raise NumericalError("bracket expansion exceeded limit; "
                                     "first-order condition has no root")
            f_hi[grow] = f(hi[grow], *_take(args, grow))
            grow = f_hi > 0.0
        open_ = np.ones(hi.shape, bool)
    else:
        edge = f_hi > 0.0
        bad = edge & ~(np.abs(f_hi) < EDGE_TOL)
        if bad.any():
            raise NumericalError("no bracket: no sign change on "
                                 f"[{lo[bad][0]}, {hi[bad][0]}]")
        open_ = ~edge
    roots = np.where(open_, np.nan, hi)
    roots[open_] = brentq_masked(f, lo[open_], hi[open_], f_lo[open_],
                                 f_hi[open_], _take(args, open_))
    out[todo] = roots
    return out


def brentq_masked(f: Callable, xa, xb, fa, fb, args: tuple = ()) -> np.ndarray:
    """Roots of f on the 1-d brackets [xa, xb], given fa = f(xa) and fb =
    f(xb) of opposite signs: scipy's ``brentq.c`` iteration elementwise.

    Each entry interpolates, extrapolates or bisects and stops exactly as
    scipy's solver would on it alone; f is called on the entries still
    iterating.  ValueError for an entry whose f is nan, or whose bracket
    has no sign change (as scipy); NumericalError when an entry does not
    converge within ``MAX_ITER`` iterations (tolerances ``XTOL``, ``RTOL``).
    """
    if np.any(np.isnan(fa) | np.isnan(fb)):
        raise ValueError("function value at a bracket end is nan; "
                         "solver cannot continue")
    out = np.empty(xa.shape)
    at_a = fa == 0.0
    at_b = ~at_a & (fb == 0.0)
    out[at_a], out[at_b] = xa[at_a], xb[at_b]
    ids = np.flatnonzero(~(at_a | at_b))
    xpre, xcur, fpre, fcur = xa[ids], xb[ids], fa[ids], fb[ids]
    if np.any(np.signbit(fpre) == np.signbit(fcur)):
        raise ValueError("f(a) and f(b) must have different signs")
    args = _take(args, ids)
    xblk, fblk = np.zeros(ids.size), np.zeros(ids.size)
    spre, scur = np.zeros(ids.size), np.zeros(ids.size)
    if not ids.size:
        return out
    for _ in range(MAX_ITER):
        # the bracket is [xcur, xblk]; keep |f(xcur)| <= |f(xblk)|
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        width = xcur - xpre
        spre, scur = np.where(flip, width, spre), np.where(flip, width, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (XTOL + RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            out[ids[done]] = xcur[done]
            keep = ~done
            ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep] for v in (ids, xpre, xcur, xblk, fpre, fcur, fblk,
                                  spre, scur, delta, sbis))
            args = _take(args, keep)
            if not ids.size:
                return out
        # each entry's step from its own branch: inverse quadratic
        # extrapolation, secant interpolation when xpre is the far end
        with np.errstate(divide="ignore", invalid="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        cap = np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < cap))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, *args)
        if np.any(np.isnan(fcur)):
            raise ValueError("function value is nan; solver cannot continue")
    raise NumericalError(f"Brent iteration did not converge in {MAX_ITER} steps "
                         f"at {ids.size} entries")


def solve_increasing_to(f: Callable[[float], float], target: float, lo: float,
                        hi: float, expand: bool = False,
                        max_hi: float = 1e12) -> float | None:
    """Solve f(x) = target for increasing f; None when target is unreachable."""
    if f(lo) >= target:
        return lo if f(lo) == target else None
    if expand:
        while f(hi) < target:
            hi *= 2.0
            if hi > max_hi:
                return None
    elif f(hi) < target:
        return None
    return brentq(lambda x: f(x) - target, lo, hi,
                  xtol=XTOL, rtol=RTOL, maxiter=MAX_ITER)
