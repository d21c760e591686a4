"""Root-finding and finite-difference helpers, for scalars and arrays.

Brackets are expanded by doubling; roots are polished with Brent's method,
which keeps the guaranteed-convergence property of plain bisection.

Both solvers transcribe scipy's ``brentq.c`` (Brent 1973, ch. 4), step for
step, and start from end values already computed, so neither evaluates a
bracket end twice.  ``_brent`` runs it on Python floats, for a scalar
problem: the root it returns carries scipy's ``brentq`` bits, and no module
of berklab imports scipy.optimize.  ``brentq_masked`` runs it elementwise on
an array of independent problems: each entry takes the steps and stops at
the tolerance scipy's would, so where the function maps arrays with its
scalar bits the roots carry scipy's bits too.  Entries leave the working
set as they converge, so the function is evaluated only on entries still
iterating.

Per-entry parameters of a solve travel as ``args``: the function is called
as ``f(x, *args)``, on arrays with the subsets of the array-valued ``args``
that match the entries of ``x``.  The difference helpers take a function
of x alone, which on arrays maps every entry of x's shape (its parameters
bound in a closure over arrays of that shape), and difference all entries
at once, each by the rule its own position selects.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError

REL_STEP = 1e-4  # relative step for first derivatives (five-point rule)
REL_STEP2 = 1e-3  # relative step for second derivatives (five-point rule)
XTOL, RTOL = 1e-14, 8.9e-16  # Brent's method: absolute and relative root tolerance
MAX_ITER = 200  # Brent iterations per root
EDGE_TOL = 1e-13  # |f| at a bracket end that counts as a root there
# most open entries that brentq_masked solves one at a time in _brent: the
# crossover of its dearest caller (CPU time on one core, each caller's own
# brackets from build_power(2.5) and LQ multigroup runs, tiled to n entries:
# at n = 1, 2, 3 the loop costs 0.74, 0.99 and 1.12 of a masked pass in the
# polish of certified_roots, whose f solves each entry; the crossover lies at
# 5-6 entries for _FocTable.roots, 10-11 for the effort condition of
# solve_decreasing and 12-13 for the kinks of multigroup)
SMALL_BATCH = 2


def _take(args, sel):
    """The entries ``sel`` of each array in ``args``; scalars as they are."""
    return tuple(a[sel] if np.ndim(a) else a for a in args)


def _forward(f0, f1, f2, e):
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * e)


def _backward(f0, f1, f2, e):
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * e)


def _central(fp2, fp1, fm1, fm2, e):
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * e)


def _plain(v):
    """A numpy result as it is, or a Python float in place of a 0-d one."""
    return v if v.ndim else v.item()


def fd1(f: Callable, x, lo: float | None = None, hi: float | None = None,
        rel_step: float = REL_STEP):
    """Five-point first difference; one-sided (second order) at domain edges.

    The O(e^4) truncation keeps root-solves on differenced first-order
    conditions accurate to ~1e-12, which the factorization certification
    downstream relies on.  Each entry of an array takes the rule its own
    position selects, and f is evaluated on whole arrays (a float x is one
    entry, and f sees floats).  At an entry with a one-sided rule, the
    points beyond its edge are replaced by the entry itself, so f never
    sees a point past the edge that chose the rule; when every entry takes
    the same one-sided rule, f is evaluated only at its three points.
    """
    e = rel_step * _plain(np.maximum(1.0, abs(x)))
    left = np.less(x - 2.0 * e, -np.inf if lo is None else lo)
    right = ~left & (x + 2.0 * e > (np.inf if hi is None else hi))
    if not (left | right).any():
        return _central(f(x + 2.0 * e), f(x + e), f(x - e), f(x - 2.0 * e), e)
    # one rule for every entry (a float at an edge): only its three points
    if left.all():
        return _plain(np.asarray(_forward(f(x), f(x + e), f(x + 2.0 * e), e)))
    if right.all():
        return _plain(np.asarray(_backward(f(x), f(x - e), f(x - 2.0 * e), e)))
    fp2, fp1 = (f(_plain(np.where(right, x, x + k * e))) for k in (2.0, 1.0))
    fm1, fm2 = (f(_plain(np.where(left, x, x - k * e))) for k in (1.0, 2.0))
    f0 = f(x)
    return _plain(np.where(left, _forward(f0, fp1, fp2, e),
                           np.where(right, _backward(f0, fm1, fm2, e),
                                    _central(fp2, fp1, fm1, fm2, e))))


def fd2(f: Callable, x, lo: float | None = None, hi: float | None = None):
    """Five-point second difference, shifted inward at domain edges."""
    e = REL_STEP2 * _plain(np.maximum(1.0, abs(x)))
    if lo is not None:
        x = _plain(np.where(x - 2.0 * e < lo, lo + 2.0 * e, x))
    if hi is not None:
        x = _plain(np.where(x + 2.0 * e > hi, hi - 2.0 * e, x))
    return (-f(x + 2.0 * e) + 16.0 * f(x + e) - 30.0 * f(x)
            + 16.0 * f(x - e) - f(x - 2.0 * e)) / (12.0 * e * e)


def solve_decreasing(f: Callable, lo, hi, expand: bool = False,
                     max_hi: float = 1e12, args: tuple = ()):
    """Root of f with f(lo) >= 0 >= f(hi); optionally grows hi by doubling.

    Scalars give a float from ``_brent``; when ``lo``, ``hi`` or any of
    ``args`` is an array, every broadcast entry is solved by the same rules
    at once (``brentq_masked``).  Either solver starts from the end values
    computed here.  Raises NumericalError when no sign change can be
    bracketed, which for first-order conditions signals a violated
    concavity/limit assumption, or when the iteration does not converge.
    """
    if not (isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray)
            or any(isinstance(a, np.ndarray) for a in args)):
        f_lo = f(lo, *args)
        if f_lo < 0.0:
            if abs(f_lo) < EDGE_TOL:
                return lo
            raise NumericalError(f"no bracket: objective already decreasing at {lo!r}")
        f_hi = f(hi, *args)
        if expand:
            while f_hi > 0.0:
                hi *= 2.0
                if hi > max_hi:
                    raise NumericalError("bracket expansion exceeded limit; "
                                         "first-order condition has no root")
                f_hi = f(hi, *args)
        elif f_hi > 0.0:
            if abs(f_hi) < EDGE_TOL:
                return hi
            raise NumericalError(f"no bracket: no sign change on [{lo}, {hi}]")
        return _brent(f, lo, hi, f_lo, f_hi, args)

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


def _brent(f: Callable, xa, xb, fa, fb, args: tuple = ()) -> float:
    """Root of f on the float bracket [xa, xb], given fa = f(xa) and fb =
    f(xb): scipy's ``brentq.c`` loop on Python floats, at ``XTOL``, ``RTOL``
    and ``MAX_ITER``.

    Every value of f is taken as ``float()`` takes it, as the C loop's
    ``PyFloat_AsDouble`` does, so the root has scipy's bits and f is called
    only at the iterates (scipy's ``function_calls`` less the two ends).
    ValueError for a NaN value or ends of one sign, NumericalError when the
    iteration does not converge.
    """
    xpre, xcur, fpre, fcur = float(xa), float(xb), float(fa), float(fb)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("function value at a bracket end is nan; "
                         "solver cannot continue")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        # the bracket is [xcur, xblk]; keep |f(xcur)| <= |f(xblk)|.  No value
        # is NaN, so a sign bit differs exactly where one side is below zero
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant interpolation
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic extrapolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # inf or NaN in C, either of which bisects
                stry = math.inf
            cap, room = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (cap if cap < room else room):  # C's MIN
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur, *args))
        if math.isnan(fcur):
            raise ValueError("function value is nan; solver cannot continue")
    raise NumericalError(f"Brent iteration did not converge in {MAX_ITER} steps "
                         f"on [{xa!r}, {xb!r}]")


def brentq_masked(f: Callable, xa, xb, fa, fb, args: tuple = ()):
    """Roots of f on the 1-d brackets [xa, xb], given fa = f(xa) and fb =
    f(xb) of opposite signs: scipy's ``brentq.c`` iteration elementwise.

    Each entry interpolates, extrapolates or bisects and stops exactly as
    scipy's solver would on it alone; f is called on the entries still
    iterating.  ValueError for an entry whose f is nan, or whose bracket
    has no sign change (as scipy); NumericalError when an entry does not
    converge within ``MAX_ITER`` iterations (tolerances ``XTOL``, ``RTOL``).
    Float brackets give a float from ``_brent``, the same loop on floats,
    and so do up to ``SMALL_BATCH`` open entries, one after another, where
    the masked loop's cost per iteration outweighs one call of f on them
    all: f still sees arrays, of one entry and that entry's rows of ``args``.
    """
    if not isinstance(xa, np.ndarray):
        return _brent(f, xa, xb, fa, fb, args)
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
    if ids.size <= SMALL_BATCH:
        def one(x, *row):
            return f(np.array([x]), *row)[0]

        for k, i in enumerate(ids):
            out[i] = _brent(one, xpre[k], xcur[k], fpre[k], fcur[k],
                            _take(args, slice(k, k + 1)))
        return out
    xblk, fblk = np.zeros(ids.size), np.zeros(ids.size)
    spre, scur = np.zeros(ids.size), np.zeros(ids.size)
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

