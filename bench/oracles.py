"""Independent reference answers for the benchmark's correctness checks.

Everything here is re-derived from the model definitions with the standard
library only; nothing calls into berklab, so a check compares two separate
routes to the same answer.
"""

from __future__ import annotations

import math

# The enumerator of the seed commit scans a 4096-point grid; two equilibria
# closer than two of its steps can share a cell and be missed (its own
# "closer than twice the grid step" note).  Failures on such instances are
# the known defect and are still counted as failed operations.
SCAN_POINTS = 4096


# -- linear-quadratic model ---------------------------------------------------


class LQ:
    """LQ primitives as plain numbers: r = beta a, c(a) = c a^2/2,
    kappa(h) = kappa h^2/2, v_e = l1 beta a - l2 c a^2/2."""

    def __init__(self, c, kappa, lambda_e, lambda_a, delta, beta_star,
                 delta_mu, beta_lo, beta_hi):
        self.c = c
        self.kappa = kappa
        self.lambda_e = lambda_e
        self.lambda_a = lambda_a
        self.delta = delta
        self.beta_star = beta_star
        self.delta_mu = delta_mu
        self.beta_lo = beta_lo
        self.beta_hi = beta_hi

    @property
    def l1(self):
        return self.lambda_e + self.delta * self.lambda_a

    @property
    def l2(self):
        return self.lambda_a

    def replaced(self, **changes) -> "LQ":
        fields = dict(vars(self))
        fields.update(changes)
        return LQ(**fields)

    def assessment(self, beta: float) -> float:
        """Evaluator FOC l1 beta^2 / c - l2 beta^2 h / c = kappa h, solved for h."""
        b2 = beta * beta
        return self.l1 * b2 / (self.l2 * b2 + self.kappa * self.c)

    def best_fit_sq(self, x: float) -> float:
        """Unclamped squared best-fit productivity at squared belief x.

        Matching perceived and true effective effort h beta^2 / c under
        the misbelief: fit^2 = beta_star^2 - delta_mu c / h(x).
        """
        return self.beta_star ** 2 - self.delta_mu * self.c / self.assessment(math.sqrt(x))

    def quadratic(self) -> tuple[float, float, float]:
        """Coefficients of A x^2 - B x + C = 0, the interior fixed points in x = beta^2.

        From x = fit^2(x) with c / h = (l2 x + kappa c) / (l1 x):
        l1 x^2 - (l1 beta_star^2 - delta_mu c l2) x + delta_mu kappa c^2 = 0.
        """
        return (self.l1,
                self.l1 * self.beta_star ** 2 - self.delta_mu * self.c * self.l2,
                self.delta_mu * self.kappa * self.c ** 2)

    def saddle_node(self) -> float:
        """Smallest delta_mu > 0 at which the quadratic's discriminant vanishes.

        (l1 bs^2 - d c l2)^2 - 4 l1 d kappa c^2 = 0 is itself quadratic in d.
        """
        bs2 = self.beta_star ** 2
        a = (self.c * self.l2) ** 2
        b = 2.0 * self.l1 * bs2 * self.c * self.l2 + 4.0 * self.l1 * self.kappa * self.c ** 2
        c0 = (self.l1 * bs2) ** 2
        return 2.0 * c0 / (b + math.sqrt(b * b - 4.0 * a * c0))


def lq_equilibria(p: LQ) -> list[tuple[float, str]]:
    """All equilibria as (belief, "stable"|"unstable"), by descending belief.

    Interior ones come from the fixed-point quadratic; their label is the
    slope of the belief map there, d fit^2 / dx = delta_mu kappa c^2 / (l1 x^2)
    (stable below one).  A support edge is an equilibrium when the clamped
    map pins there, and is then stable.
    """
    lo, hi = p.beta_lo, p.beta_hi
    if p.delta_mu == 0.0:
        return [(p.beta_star, "stable")]
    a, b, c0 = p.quadratic()
    disc = b * b - 4.0 * a * c0
    out = []
    if disc >= 0.0:
        q = 0.5 * (b + math.copysign(math.sqrt(disc), b))
        for x in {q / a, c0 / q}:
            if lo * lo < x < hi * hi:
                slope = p.delta_mu * p.kappa * p.c ** 2 / (p.l1 * x * x)
                out.append((math.sqrt(x), "stable" if slope < 1.0 else "unstable"))
    if p.best_fit_sq(lo * lo) <= lo * lo:
        out.append((lo, "stable"))
    if p.best_fit_sq(hi * hi) >= hi * hi:
        out.append((hi, "stable"))
    return sorted(out, key=lambda t: -t[0])


def near_coincident(p: LQ, points) -> bool:
    """Whether two equilibria lie within two steps of the seed commit's scan grid."""
    beliefs = sorted(b for b, _ in points)
    step = (p.beta_hi - p.beta_lo) / (SCAN_POINTS - 1)
    return any(b2 - b1 < 2.0 * step for b1, b2 in zip(beliefs, beliefs[1:]))


def stable_distortions(p: LQ, points) -> list[float]:
    return sorted(abs(b - p.beta_star) for b, s in points if s == "stable")


def least_distorted_sce(p: LQ, points) -> float | None:
    """Stable self-confirming belief closest to the truth (interior points only)."""
    interior = [b for b, s in points
                if s == "stable" and p.beta_lo < b < p.beta_hi]
    if not interior:
        return None
    return min(interior, key=lambda b: abs(b - p.beta_star))


# -- power-cost model -----------------------------------------------------------


class Power:
    """r = beta a, c(a) = c a^gamma / gamma, kappa(h) = kappa h^2/2,
    v_e = l1 beta a - l2 c(a)."""

    def __init__(self, gamma, c, kappa, l1, l2, beta_star, delta_mu,
                 beta_lo, beta_hi):
        self.gamma = gamma
        self.c = c
        self.kappa = kappa
        self.l1 = l1
        self.l2 = l2
        self.beta_star = beta_star
        self.delta_mu = delta_mu
        self.beta_lo = beta_lo
        self.beta_hi = beta_hi
        self.p = 1.0 / (gamma - 1.0)
        self.q = gamma / (gamma - 1.0)

    def effort(self, h: float, beta: float) -> float:
        """Closed form of the agent FOC h beta = c a^(gamma - 1)."""
        return (h * beta / self.c) ** self.p

    def assessment(self, beta: float) -> float:
        """Root of the evaluator FOC, found by plain bisection.

        dV_E/dh = (l1 beta - l2 c a^(gamma-1)) da/dh with c a^(gamma-1) = h beta
        and da/dh = p a / h, so the FOC is beta (l1 - l2 h) p a / h = kappa h,
        whose left side falls and right side rises in h.
        """
        def foc(h):
            return (beta * (self.l1 - self.l2 * h) * self.p
                    * self.effort(h, beta) / h - self.kappa * h)

        lo, hi = 1e-12, 1.0 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if foc(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15:
                break
        return 0.5 * (lo + hi)

    def belief_map(self, beta: float) -> float:
        """Best fit on the support: R = x^q (h/c)^p matched to the truth minus delta_mu."""
        h = self.assessment(beta)
        target = self.beta_star ** self.q - self.delta_mu * (self.c / h) ** self.p
        fit = target ** (1.0 / self.q) if target > 0.0 else 0.0
        return min(max(fit, self.beta_lo), self.beta_hi)

    def equilibria(self, points: int = 400) -> list[float]:
        """Interior fixed points of the belief map by scan and bisection."""
        lo, hi = self.beta_lo, self.beta_hi
        grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
        d = [self.belief_map(b) - b for b in grid]
        roots = []
        for b1, b2, d1, d2 in zip(grid, grid[1:], d, d[1:]):
            if d1 > 0.0 > d2 or d1 < 0.0 < d2:
                a, z, fa = b1, b2, d1
                for _ in range(100):
                    mid = 0.5 * (a + z)
                    fm = self.belief_map(mid) - mid
                    if (fm > 0.0) == (fa > 0.0):
                        a, fa = mid, fm
                    else:
                        z = mid
                    if z - a <= 1e-14:
                        break
                roots.append(0.5 * (a + z))
        return sorted(roots, reverse=True)
