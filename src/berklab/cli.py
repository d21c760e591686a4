"""Command-line interface: solve, phase, learn, multigroup, compare,
disparity, check.

Every command reads one config file, writes CSV/JSON artifacts plus a run
manifest into the output directory, and is byte-deterministic given
(config, flags, seed).  Numeric output carries 9 significant digits.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 invariant
violation.  A command imports the learning, multigroup and analysis modules
only when it runs them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .equilibrium import DEFAULT_RADIUS, find_equilibria, psi_tilde
from .errors import ConfigError, InvariantViolation, NumericalError
from .primitives import PERTURBABLE, check_assumptions

SCHEMA_VERSION = 1
OUT_DIR_ENV = "BERKLAB_OUT_DIR"


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _jsonable(obj):
    """Round floats to 9 significant digits and strip numpy types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(float(obj)))
    return obj


class _Writer:
    """Collects output files and emits the manifest last."""

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.outputs: list[dict] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def _record(self, name: str, data: bytes):
        (self.out_dir / name).write_bytes(data)
        self.outputs.append({"path": name,
                             "sha256": hashlib.sha256(data).hexdigest()})

    def json(self, name: str, payload: dict):
        if self.fmt == "csv":
            return
        body = dict(payload)
        body["schema_version"] = SCHEMA_VERSION
        data = json.dumps(_jsonable(body), sort_keys=True, indent=2)
        self._record(name, (data + "\n").encode())

    def csv(self, name: str, header: list[str], rows):
        if self.fmt == "json":
            return
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating))
                                  else str(v) for v in row))
        self._record(name, ("\n".join(lines) + "\n").encode())

    def manifest(self, command: str, cfg: RunConfig, params: dict):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": command,
            "config_path": os.path.basename(cfg.path),
            "config_sha256": cfg.sha256,
            "parameters": _jsonable(params),
            "outputs": self.outputs,
        }
        data = json.dumps(payload, sort_keys=True, indent=2)
        (self.out_dir / "manifest.json").write_bytes((data + "\n").encode())


def _eq_payload(eqs) -> dict:
    return {
        "delta_mu": eqs.delta_mu,
        "equilibria": [
            {"beta_hat": p.beta_hat, "h_hat": p.h_hat, "stability": p.stability,
             "is_sce": p.is_sce, "kl": p.kl, "residual": p.residual}
            for p in eqs.points
        ],
        "warnings": list(eqs.warnings),
    }


def cmd_solve(args, cfg: RunConfig, writer: _Writer) -> int:
    _require_positive(args, "grid")
    model = cfg.model()
    eqs = find_equilibria(model)
    writer.json("equilibria.json", _eq_payload(eqs))
    betas = np.linspace(model.beta_lo, model.beta_hi, args.grid)
    psis = psi_tilde(model, betas)
    writer.csv("psi_curve.csv", ["beta", "psi"], zip(betas, psis))
    return 0


def cmd_phase(args, cfg: RunConfig, writer: _Writer) -> int:
    from .learning import phase_field

    _require_positive(args, "grid")
    field = phase_field(cfg.model(), grid=args.grid)
    rows = []
    for i, xi in enumerate(field.xi):
        for j, m in enumerate(field.m):
            rows.append((m, xi, field.f1[i, j], field.f2[i, j]))
    writer.csv("phase_field.csv", ["m", "xi", "f1", "f2"], rows)
    writer.csv("nullcline.csv", ["m", "xi_nullcline"],
               zip(field.m, field.nullcline))
    writer.json("steady_states.json", {
        "steady_states": [
            {"m": s.m, "xi": s.xi, "kind": s.kind, "beta": s.beta,
             "eigenvalues": list(s.eigenvalues)}
            for s in field.steady_states
        ],
    })
    return 0


def _prior_from_args(args):
    """The prior of ``--prior-center``/``--prior-sd``, or None for neither."""
    from .learning import TruncNormalPrior

    if args.prior_sd is None and args.prior_center is None:
        return None
    if args.prior_sd is None or args.prior_center is None:
        raise ConfigError("--prior-center and --prior-sd must be given "
                          "together")
    try:
        return TruncNormalPrior(mean=args.prior_center, sd=args.prior_sd)
    except ValueError as exc:
        raise ConfigError(f"--prior-center/--prior-sd: {exc}") from exc


def _require_positive(args, *names):
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1")


def cmd_learn(args, cfg: RunConfig, writer: _Writer) -> int:
    from .learning import monte_carlo_convergence, transform

    _require_positive(args, "horizon", "runs", "stride")
    if not args.radius >= 0.0:
        raise ConfigError("radius must be >= 0")
    prior = _prior_from_args(args)
    tm = transform(cfg.model())
    report = monte_carlo_convergence(tm, runs=args.runs,
                                     horizon=args.horizon, seed=args.seed,
                                     radius=args.radius, prior=prior,
                                     stride=args.stride)
    writer.json("convergence.json", {
        "runs": report.runs, "horizon": report.horizon,
        "radius": report.radius, "seed": report.seed,
        "counts": list(report.counts),
        "frequencies": list(report.frequencies),
        "unclassified": report.unclassified,
        "saddle_hits": report.saddle_hits,
        "steady_states": [
            {"m": s.m, "xi": s.xi, "kind": s.kind, "beta": s.beta}
            for s in report.steady_states
        ],
    })
    traj = report.trajectory
    writer.csv("trajectory_000.csv", ["n", "m", "xi", "h", "x"],
               zip(*(a.tolist() for a in (traj.periods, traj.m, traj.xi, traj.h, traj.x))))
    return 0


def cmd_multigroup(args, cfg: RunConfig, writer: _Writer) -> int:
    from .multigroup import (color_blind_equilibria, color_sighted_equilibria,
                             color_sighted_equilibrium, eigen_check,
                             simulate_multigroup)

    if args.horizon < 0:
        raise ConfigError("horizon must be >= 0")
    _require_positive(args, "stride")
    pop = cfg.population()
    eq = color_sighted_equilibrium(pop)
    members = color_sighted_equilibria(pop)
    eigen = eigen_check(eq)
    payload = {
        "delta_bar": pop.delta_bar,
        "color_sighted": {
            "beta_hat": list(eq.beta_hat), "h_hat": eq.h_hat,
            "sce_flags": list(eq.sce_flags),
            "eigenvalues": list(eq.eigenvalues),
            "residual": eq.residual, "iterations": eq.iterations,
        },
        "members": [{"beta_hat": list(e.beta_hat), "h_hat": e.h_hat,
                     "slope": e.slope, "stable": e.stable} for e in members],
        "eigen_check": {
            "eigenvalues": list(eigen.eigenvalues),
            "bound": eigen.bound, "bound_holds": eigen.bound_holds,
            "all_negative": eigen.all_negative,
        },
    }
    if len(set(pop.beta_stars)) == 1:
        payload["color_blind"] = _eq_payload(color_blind_equilibria(pop))
    writer.json("multigroup.json", payload)
    if args.horizon:
        traj = simulate_multigroup(pop, horizon=args.horizon, seed=args.seed,
                                   stride=args.stride, equilibria=members)
        header = (["n", "h"] + [f"m_{j}" for j in range(pop.size)]
                  + [f"xi_{j}" for j in range(pop.size)]
                  + [f"x_{j}" for j in range(pop.size)])
        rows = [(n, h, *m, *xi, *x) for n, h, m, xi, x in zip(
            *(a.tolist() for a in (traj.periods, traj.h, traj.m, traj.xi, traj.x)))]
        writer.csv("trajectory_groups.csv", header, rows)
    return 0


def cmd_compare(args, cfg: RunConfig, writer: _Writer) -> int:
    from .analysis import comparative_statics, perturb_model

    _require_positive(args, "sweep_points")
    if not (args.step > 0.0 and args.sweep_span >= 0.0):  # "increase" is +step
        raise ConfigError("need --step > 0 and --sweep-span >= 0, got "
                          f"{args.step:g} and {args.sweep_span:g}")
    model = cfg.model()
    for flag, rel in (("step", args.step), ("sweep_span", args.sweep_span)):
        for signed in (rel, -rel):
            try:
                perturb_model(model, args.param, signed)
            except ValueError as exc:
                raise ConfigError(f"{flag} {rel:g} moves {args.param} outside "
                                  f"its domain: {exc}") from exc
    up = comparative_statics(model, args.param, rel_step=args.step)
    down = comparative_statics(model, args.param, rel_step=-args.step)

    def as_dict(res):
        return {
            "rel_step": res.rel_step,
            "perturbed_distortions": list(res.perturbed_distortions),
            "assessment_shift": res.assessment_shift,
            "weak_set_order_increase": res.weak_set_order_increase,
            "weak_set_order_decrease": res.weak_set_order_decrease,
        }

    writer.json("compare.json", {
        "parameter": args.param,
        "baseline_distortions": list(up.baseline_distortions),
        "increase": as_dict(up),
        "decrease": as_dict(down),
    })
    rows = []
    for rel in np.linspace(-args.sweep_span, args.sweep_span, args.sweep_points):
        pert = perturb_model(model, args.param, float(rel))
        value = (pert.delta_mu if args.param == "delta_mu"
                 else getattr(pert.lq, args.param))
        dist = [abs(p.beta_hat - pert.beta_star)
                for p in find_equilibria(pert).stable_points]
        rows.append((float(value), float(rel), min(dist), max(dist), len(dist)))
    writer.csv("compare.csv",
               ["value", "rel_change", "distortion_min", "distortion_max",
                "n_stable"],
               rows)
    return 0


def cmd_disparity(args, cfg: RunConfig, writer: _Writer) -> int:
    from .analysis import disparity_report

    model = cfg.model()
    delta_m = args.delta_m
    delta_w = args.delta_w
    if delta_m is None or delta_w is None:
        if cfg.delta_mu == 0.0:
            raise ConfigError("give --delta-m/--delta-w or a nonzero "
                              "mu_hat - mu_star in the config")
        delta_m = abs(cfg.delta_mu) if delta_m is None else delta_m
        delta_w = -abs(cfg.delta_mu) if delta_w is None else delta_w
    if not np.inf > delta_m > 0.0 > delta_w > -np.inf:
        raise ConfigError(f"need --delta-m > 0 > --delta-w, both finite, got "
                          f"delta_m = {delta_m:g} and delta_w = {delta_w:g}")
    report = disparity_report(model, delta_m, delta_w, selector=args.selector)
    payload = dataclasses.asdict(report)
    writer.json("disparity.json", payload)
    return 0


def cmd_check(args, cfg: RunConfig, writer: _Writer) -> int:
    model = cfg.model()
    try:
        report = check_assumptions(model, grid=args.grid)
    except ValueError as exc:
        raise ConfigError(f"--grid {args.grid}: {exc}") from exc
    writer.json("assumptions.json", {
        "all_passed": report.all_passed,
        "grid": list(report.grid_shape),
        "checks": {
            name: {"passed": res.passed,
                   "location": list(res.location) if res.location else None,
                   "detail": res.detail}
            for name, res in report.checks.items()
        },
    })
    return 0 if report.all_passed else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berklab",
        description="Equilibria, comparative statics, and learning dynamics "
                    "of the misspecified assessment game.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the run configuration")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (env {OUT_DIR_ENV}; "
                            "default ./out)")
        p.add_argument("--format", choices=("both", "csv", "json"),
                       default="both", help="restrict emitted file formats")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="enumerate equilibria with stability")
    common(p)
    p.add_argument("--grid", type=int, default=512,
                   help="points on the belief-map curve export")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("phase", help="export the learning ODE vector field")
    common(p)
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(handler=cmd_phase)

    p = sub.add_parser("learn", help="simulate learning paths, classify sinks")
    common(p)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--prior-center", type=float, default=None)
    p.add_argument("--prior-sd", type=float, default=None)
    p.set_defaults(handler=cmd_learn)

    p = sub.add_parser("multigroup", help="shared-assessment extension")
    common(p)
    p.add_argument("--horizon", type=int, default=0,
                   help="also simulate this many learning periods")
    p.add_argument("--stride", type=int, default=None)
    p.set_defaults(handler=cmd_multigroup)

    p = sub.add_parser("compare", help="comparative statics of distortions")
    common(p)
    p.add_argument("--param", required=True,
                   choices=PERTURBABLE)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--sweep-span", type=float, default=0.05)
    p.add_argument("--sweep-points", type=int, default=11)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("disparity", help="two-group outcome gaps")
    common(p)
    p.add_argument("--delta-m", type=float, default=None)
    p.add_argument("--delta-w", type=float, default=None)
    p.add_argument("--selector", default="least_distorted",
                   choices=("least_distorted", "largest_belief",
                            "smallest_belief"))
    p.set_defaults(handler=cmd_disparity)

    p = sub.add_parser("check", help="verify regularity assumptions on a grid")
    common(p)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(handler=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or "out")
        writer = _Writer(out_dir, args.format)
        code = args.handler(args, cfg, writer)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("handler", "config", "out_dir", "format")}
        writer.manifest(args.command, cfg, params)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
