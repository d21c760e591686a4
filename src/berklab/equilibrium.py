"""Steady-state equilibria of the assessment game.

The belief map composes the evaluator's optimal assessment with the
divergence-minimizing productivity fit; its fixed points are the
equilibrium beliefs.  A fixed point is stable when the map crosses the
diagonal from above, and self-confirming when the minimized divergence is
zero (always true for interior fixed points).

Interior fixed points are the sign changes of one smooth residual, the fit
gap G(beta) = delta_mu + R(h(beta), beta) - R(h(beta), beta_star), whose
square (times h/2) is the divergence: LQ models solve the fixed-point
quadratic, others certify a Chebyshev series of G against direct
evaluations and polish each sign change of the true G.  Near-tangent
points are reported, never dropped silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .best_response import BestResponseEngine
from .errors import NumericalError
from .primitives import ModelPrimitives

SCE_KL_TOL = 1e-12
DEDUP_TOL = 1e-9
TANGENCY_SLOPE_TOL = 1e-3
DEFAULT_GRID = 4096  # cap on Chebyshev proxy points for general primitives
DEFAULT_RADIUS = 0.05  # learning: distance that counts a run as at a steady state


@dataclass(frozen=True)
class EquilibriumPoint:
    beta_hat: float
    h_hat: float
    stability: str  # "stable" | "unstable"
    is_sce: bool
    kl: float
    residual: float
    slope: float  # belief-map derivative; 0.0 where the clamped map is flat

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
                  engine: BestResponseEngine | None = None) -> float:
    """Divergence between perceived and true outcome laws at assessment h.

    Both are Gaussian with variance 1/h, so this is
    (h/2) * (delta_mu + R(h, beta) - R(h, beta_star))^2.
    """
    return _engine(model, engine)._divergence(h, beta, model.beta_star,
                                              model.delta_mu)


def psi_tilde(model: ModelPrimitives, beta,
              engine: BestResponseEngine | None = None):
    """Belief map: best-fit productivity under the optimal assessment at beta.

    Accepts scalars or arrays; the engine evaluates arrays in one
    vectorized pass where it has a closed form.
    """
    eng = _engine(model, engine)
    return eng.best_fit(eng.assessment(beta), model.beta_star, model.delta_mu)


def _make_point(model, eng, beta_hat: float, stability: str,
                slope: float) -> EquilibriumPoint:
    h_hat = float(eng.assessment(beta_hat))
    kl = float(kl_divergence(model, h_hat, beta_hat, engine=eng))
    residual = abs(float(psi_tilde(model, beta_hat, eng)) - beta_hat)
    return EquilibriumPoint(beta_hat=beta_hat, h_hat=h_hat, stability=stability,
                            is_sce=kl <= SCE_KL_TOL, kl=kl, residual=residual,
                            slope=slope)


def find_equilibria(model: ModelPrimitives, grid_points: int = DEFAULT_GRID,
                    engine: BestResponseEngine | None = None) -> EquilibriumSet:
    """Enumerate all fixed points of the belief map with stability labels.

    Interior ones come from ``BestResponseEngine.interior_fixed_points``
    (``grid_points`` >= 17 caps the Chebyshev points on the numeric path); an
    edge is a stable fixed point where the map pins there, G >= 0 at
    beta_lo and G <= 0 at beta_hi.  Each point keeps the map's slope from
    the enumerator (0.0 at a pinned edge and at delta_mu = 0, where the
    clamped map is locally constant).  Slopes within ``TANGENCY_SLOPE_TOL``
    of one and uncertified near-tangent points are reported as warnings.

    A given ``engine`` on this very ``model`` keeps the set in its
    ``equilibria`` memo, keyed by ``grid_points``: a later call with that
    engine and grid (``limiting_ode``, ``simulate`` and
    ``monte_carlo_convergence`` on the same ``TransformedModel``) returns
    the same set without enumerating again.  An engine on another model
    neither reads nor fills it.
    """
    eng = _engine(model, engine)
    memo = eng.equilibria if eng.model is model else {}
    if grid_points not in memo:
        memo.setdefault(grid_points, _enumerate(model, eng, grid_points))
    return memo[grid_points]


def _enumerate(m: ModelPrimitives, eng: BestResponseEngine,
               grid_points: int) -> EquilibriumSet:
    """``find_equilibria``'s enumeration, with no memo."""
    if m.delta_mu == 0.0:
        # the true productivity fits exactly for every assessment
        pt = _make_point(m, eng, m.beta_star, "stable", 0.0)
        return EquilibriumSet(points=(pt,), delta_mu=0.0)

    fp = eng.interior_fixed_points(m.beta_star, m.delta_mu, grid_points)
    found = [(float(b), "stable" if up else "unstable", float(s))
             for b, up, s in zip(fp.roots, fp.rising, fp.slopes)]
    if fp.f_lo >= 0.0:
        found.append((m.beta_lo, "stable", 0.0))
    if fp.f_hi <= 0.0:
        found.append((m.beta_hi, "stable", 0.0))
    if not found:
        raise NumericalError("no fixed point found; the belief map should "
                             "always admit one on a compact support")
    roots: list[tuple[float, str, float]] = []
    for pt in sorted(found, key=lambda t: t[0]):
        if not roots or pt[0] - roots[-1][0] >= DEDUP_TOL:
            roots.append(pt)

    notes = [f"near-tangent crossing at {b:.9g} (slope {s:.6g}); stability "
             "label unreliable"
             for b, s in zip(fp.roots, fp.slopes) if abs(s - 1.0) < TANGENCY_SLOPE_TOL]
    notes += [f"near-tangent point at {b:.9g}: the fit gap comes within its "
              "certified error of zero without crossing; an equilibrium "
              "pair may be missing" for b in fp.near_tangent]
    points = tuple(_make_point(m, eng, *pt) for pt in reversed(roots))
    return EquilibriumSet(points=points, delta_mu=m.delta_mu, warnings=tuple(notes))
