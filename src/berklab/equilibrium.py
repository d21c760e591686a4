"""Steady-state equilibria of the assessment game.

The belief map composes the evaluator's optimal assessment with the
divergence-minimizing productivity fit; its fixed points are the
equilibrium beliefs.  A fixed point is stable when the map crosses the
diagonal from above, and self-confirming when the minimized divergence is
zero (always true for interior fixed points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .best_response import BestResponseEngine
from .errors import NumericalError
from .primitives import ModelPrimitives
from .rootfind import RTOL, XTOL

SCE_KL_TOL = 1e-12
DEDUP_TOL = 1e-9
CORNER_TOL = 1e-12
TANGENCY_SLOPE_TOL = 1e-3
DEFAULT_GRID = 4096


@dataclass(frozen=True)
class EquilibriumPoint:
    beta_hat: float
    h_hat: float
    stability: str  # "stable" | "unstable"
    is_sce: bool
    kl: float
    residual: float

    @property
    def stable(self) -> bool:
        return self.stability == "stable"


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria of one scenario, ordered by descending belief."""

    points: tuple[EquilibriumPoint, ...]
    delta_mu: float
    warnings: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    @property
    def stable_points(self) -> tuple[EquilibriumPoint, ...]:
        return tuple(p for p in self.points if p.stable)

    @property
    def beliefs(self) -> tuple[float, ...]:
        return tuple(p.beta_hat for p in self.points)


def _engine(model: ModelPrimitives, engine: BestResponseEngine | None):
    return engine if engine is not None else BestResponseEngine(model)


def kl_divergence(model: ModelPrimitives, h: float, beta: float,
                  delta_mu: float | None = None,
                  engine: BestResponseEngine | None = None) -> float:
    """Divergence between perceived and true outcome laws at assessment h.

    Both are Gaussian with variance 1/h, so this is
    (h/2) * (delta_mu + R(h, beta) - R(h, beta_star))^2.
    """
    eng = _engine(model, engine)
    dm = model.delta_mu if delta_mu is None else delta_mu
    gap = dm + eng.effective_effort(h, beta) - eng.effective_effort(h, model.beta_star)
    return 0.5 * h * gap * gap


def kl_root(model: ModelPrimitives, h: float, delta_mu: float | None = None,
            engine: BestResponseEngine | None = None) -> float | None:
    """Unconstrained best-fit productivity at assessment h; None if no root.

    Solves R(h, x) = R(h, beta_star) - delta_mu on [0, inf).  Searching
    below the support relies on the primitives being defined there.
    """
    dm = model.delta_mu if delta_mu is None else delta_mu
    root = _engine(model, engine).best_fit(h, model.beta_star, dm, clamp=False)
    return None if np.isnan(root) else float(root)


def kl_minimizer(model: ModelPrimitives, h: float, delta_mu: float | None = None,
                 engine: BestResponseEngine | None = None) -> float:
    """Divergence-minimizing productivity on the support, given assessment h."""
    dm = model.delta_mu if delta_mu is None else delta_mu
    return float(_engine(model, engine).best_fit(h, model.beta_star, dm))


def psi_tilde(model: ModelPrimitives, beta,
              engine: BestResponseEngine | None = None):
    """Belief map: best-fit productivity under the optimal assessment at beta.

    Accepts scalars or arrays; the engine evaluates arrays in one
    vectorized pass where it has a closed form.
    """
    eng = _engine(model, engine)
    return eng.best_fit(eng.assessment(beta), model.beta_star, model.delta_mu)


def market_belief(model: ModelPrimitives, h_eq: float, delta_m: float,
                  engine: BestResponseEngine | None = None) -> float:
    """Belief of an observer with misspecification delta_m at the fixed
    equilibrium assessment h_eq (heterogeneous-prior scenario)."""
    return kl_minimizer(model, h_eq, delta_mu=delta_m, engine=engine)


def _classify_interior(d_lo: float, d_hi: float) -> str:
    # crossing from above: map exceeds the diagonal left of the root
    return "stable" if d_lo > 0.0 > d_hi else "unstable"


def _make_point(model, eng, beta_hat: float, stability: str) -> EquilibriumPoint:
    h_hat = float(eng.assessment(beta_hat))
    kl = float(kl_divergence(model, h_hat, beta_hat, engine=eng))
    # the belief map at beta_hat, reusing its assessment h_hat
    fit = eng.best_fit(h_hat, model.beta_star, model.delta_mu)
    residual = abs(float(fit) - beta_hat)
    return EquilibriumPoint(beta_hat=beta_hat, h_hat=h_hat, stability=stability,
                            is_sce=kl <= SCE_KL_TOL, kl=kl, residual=residual)


def find_equilibria(model: ModelPrimitives, grid_points: int = DEFAULT_GRID,
                    engine: BestResponseEngine | None = None) -> EquilibriumSet:
    """Enumerate all fixed points of the belief map with stability labels.

    The fixed points come from ``scan_fixed_points`` on the belief map;
    each is annotated with its assessment and divergence, and the scan's
    resolution limits are reported as warnings.
    """
    eng = _engine(model, engine)
    m = model
    if m.delta_mu == 0.0:
        # the true productivity fits exactly for every assessment
        pt = _make_point(m, eng, m.beta_star, "stable")
        return EquilibriumSet(points=(pt,), delta_mu=0.0)

    def psi(beta):
        return psi_tilde(m, beta, eng)

    def dfun(b):
        return float(psi(float(b))) - float(b)

    roots = scan_fixed_points(psi, m.beta_lo, m.beta_hi, grid_points)
    if not roots:
        raise NumericalError("no fixed point found; the belief map should "
                             "always admit one on a compact support")
    grid = np.linspace(m.beta_lo, m.beta_hi, grid_points)
    step = grid[1] - grid[0]

    notes: list[str] = []
    ascending = [b for b, _ in reversed(roots)]
    for b1, b2 in zip(ascending, ascending[1:]):
        if b2 - b1 < 2.0 * step:
            notes.append(f"roots at {b1:.9g} and {b2:.9g} are closer than twice "
                         "the grid step; refine the grid")
    eps = step / 8.0
    for beta_hat, _ in roots:
        if m.beta_lo + DEDUP_TOL < beta_hat < m.beta_hi - DEDUP_TOL:
            slope = (dfun(beta_hat + eps) - dfun(beta_hat - eps)) / (2.0 * eps) + 1.0
            if abs(slope - 1.0) < TANGENCY_SLOPE_TOL:
                notes.append(f"near-tangent crossing at {beta_hat:.9g} "
                             f"(slope {slope:.6g}); stability label unreliable")
    points = tuple(_make_point(m, eng, b, stab) for b, stab in roots)
    return EquilibriumSet(points=points, delta_mu=m.delta_mu, warnings=tuple(notes))


def scan_fixed_points(fn, lo: float, hi: float, grid_points: int = DEFAULT_GRID):
    """Fixed points of a map of [lo, hi] into itself, with stability labels.

    ``fn`` is called once on the whole grid (an array) and on scalars while
    polishing.  Scans a uniform grid for sign changes of fn(b) - b,
    polishes each bracket with Brent's method, and labels stability by the
    crossing direction; endpoints are fixed points when the map pins there,
    stable when it pushes into the corner.  Returns (root, stability) pairs
    ordered by descending root.
    """
    grid = np.linspace(lo, hi, grid_points)
    d = np.asarray(fn(grid), dtype=float) - grid

    def dfun(b):
        return float(fn(float(b))) - float(b)

    near, far = np.abs(d) <= CORNER_TOL, np.abs(d) > CORNER_TOL
    roots: list[tuple[float, str]] = []
    if near[0]:
        roots.append((float(grid[0]), "stable" if d[1] < 0.0 else "unstable"))
    if near[-1]:
        roots.append((float(grid[-1]), "stable" if d[-2] > 0.0 else "unstable"))
    # interior grid nodes can land exactly on the diagonal
    for i in np.flatnonzero(near[1:-1] & far[:-2] & far[2:]) + 1:
        roots.append((float(grid[i]), _classify_interior(d[i - 1], d[i + 1])))
    # sign changes between nodes that are not roots themselves
    for i in np.flatnonzero(~near[:-1] & ~near[1:] & (d[:-1] * d[1:] < 0.0)):
        root = brentq(dfun, float(grid[i]), float(grid[i + 1]),
                      xtol=XTOL, rtol=RTOL)
        roots.append((float(root), _classify_interior(d[i], d[i + 1])))
    out: list[tuple[float, str]] = []
    for beta_hat, stab in sorted(roots, key=lambda t: t[0]):
        if out and abs(beta_hat - out[-1][0]) < DEDUP_TOL:
            continue
        out.append((beta_hat, stab))
    return sorted(out, key=lambda t: -t[0])
