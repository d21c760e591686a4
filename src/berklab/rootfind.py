"""Scalar root-finding and finite-difference helpers.

Brackets are expanded by doubling; roots are polished with Brent's method,
which keeps the guaranteed-convergence property of plain bisection.
"""

from __future__ import annotations

from typing import Callable

from scipy.optimize import brentq

from .errors import NumericalError

REL_STEP = 1e-4  # relative step for first derivatives (five-point rule)
REL_STEP2 = 1e-3  # relative step for second derivatives (five-point rule)
XTOL, RTOL = 1e-14, 8.9e-16  # Brent's method: absolute and relative root tolerance


def fd1(f: Callable[[float], float], x: float, lo: float | None = None,
        hi: float | None = None, rel_step: float = REL_STEP) -> float:
    """Five-point first difference; one-sided (second order) at domain edges.

    The O(e^4) truncation keeps root-solves on differenced first-order
    conditions accurate to ~1e-12, which the factorization certification
    downstream relies on.
    """
    e = rel_step * max(1.0, abs(x))
    if lo is not None and x - 2.0 * e < lo:
        return (-3.0 * f(x) + 4.0 * f(x + e) - f(x + 2.0 * e)) / (2.0 * e)
    if hi is not None and x + 2.0 * e > hi:
        return (3.0 * f(x) - 4.0 * f(x - e) + f(x - 2.0 * e)) / (2.0 * e)
    return (-f(x + 2.0 * e) + 8.0 * f(x + e)
            - 8.0 * f(x - e) + f(x - 2.0 * e)) / (12.0 * e)


def fd2(f: Callable[[float], float], x: float, lo: float | None = None,
        hi: float | None = None, rel_step: float = REL_STEP2) -> float:
    """Five-point second difference, shifted inward at domain edges."""
    e = rel_step * max(1.0, abs(x))
    if lo is not None and x - 2.0 * e < lo:
        x = lo + 2.0 * e
    if hi is not None and x + 2.0 * e > hi:
        x = hi - 2.0 * e
    return (-f(x + 2.0 * e) + 16.0 * f(x + e) - 30.0 * f(x)
            + 16.0 * f(x - e) - f(x - 2.0 * e)) / (12.0 * e * e)


def solve_decreasing(f: Callable[[float], float], lo: float, hi: float,
                     expand: bool = False, max_hi: float = 1e12) -> float:
    """Root of f with f(lo) >= 0 >= f(hi); optionally grows hi by doubling.

    Raises NumericalError when no sign change can be bracketed, which for
    first-order conditions signals a violated concavity/limit assumption.
    """
    f_lo = f(lo)
    if f_lo < 0.0:
        if abs(f_lo) < 1e-13:
            return lo
        raise NumericalError(f"no bracket: objective already decreasing at {lo!r}")
    if expand:
        while f(hi) > 0.0:
            hi *= 2.0
            if hi > max_hi:
                raise NumericalError("bracket expansion exceeded limit; "
                                     "first-order condition has no root")
    else:
        f_hi = f(hi)
        if f_hi > 0.0:
            if abs(f_hi) < 1e-13:
                return hi
            raise NumericalError(f"no bracket: no sign change on [{lo}, {hi}]")
    return brentq(f, lo, hi, xtol=XTOL, rtol=RTOL, maxiter=200)


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
                  xtol=XTOL, rtol=RTOL, maxiter=200)
