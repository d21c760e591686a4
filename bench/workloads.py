"""The benchmark's workloads: seeded inputs, one request each, and its check.

A workload is driven closed-loop by one client: a request is a call (or a
few calls) into berklab's public API or ``berklab.cli.main``, timed around
the program calls only, then checked against an independent answer.  Inputs
come from the benchmark seed alone; berklab sees only the generated inputs.
This module imports nothing outside the standard library at load time, so
that importing berklab (numpy and scipy included) is part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import sys
import time
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_sources():
    """Import berklab from this checkout's ``src`` and nowhere else."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _rng(*parts) -> random.Random:
    # str seeds are hashed with SHA-512, so streams do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


class Outcome:
    """What one request did: timed seconds, operations and their verdicts.

    Every operation gets at most one verdict: it fails when it raises, when
    a CLI command exits non-zero, or when its output disagrees with the
    check.  ``known`` counts failures on inputs inside the documented
    enumeration defect (see ``oracles.near_coincident``).
    """

    def __init__(self, solves: int = 0, run_periods: int = 0):
        self.seconds = 0.0
        self.ops = 0
        self.failed = 0
        self.known = 0
        self.solves = solves
        self.run_periods = run_periods
        self.output_bytes = 0
        self.notes: list[str] = []

    def call(self, fn, *args, known: bool = False, **kwargs):
        """Run one timed operation; if it raises, fail it and return None."""
        self.ops += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the request boundary: record and go on
            self.fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}", known)
            return None
        finally:
            self.seconds += time.perf_counter() - t0

    def fail(self, message: str, known: bool = False):
        self.failed += 1
        self.known += known
        if len(self.notes) < 5:
            self.notes.append(message)


def _check_manifest(out: Path, outcome: Outcome) -> bool:
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        data = (out / entry["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            outcome.fail(f"manifest hash mismatch for {entry['path']}")
            return False
    outcome.output_bytes = sum(f.stat().st_size for f in out.iterdir())
    return True


class _CliWorkload:
    """One ``berklab.cli.main`` call per request; the learning seed varies."""

    name = ""
    config = ""
    round_size = 1

    def __init__(self, seed: int, tmp: Path | None):
        self.seed = seed
        self.tmp = tmp

    def learn_seed(self, i: int) -> int:
        return _rng(self.name, self.seed, i).randrange(2 ** 31)

    def setup(self):
        use_checkout_sources()
        import berklab.cli
        import berklab.config
        self.berklab = berklab
        self.cfg = berklab.config.load_config(ROOT / self.config)
        self._build()

    def _run_cli(self, argv, outcome: Outcome) -> Path | None:
        out = self.tmp / self.name
        shutil.rmtree(out, ignore_errors=True)
        argv = [*argv, "--out-dir", str(out)]
        rc = outcome.call(self.berklab.cli.main, argv)
        if rc != 0:
            if rc is not None:
                outcome.fail(f"exit code {rc} for {' '.join(argv)}")
            return None
        return out if _check_manifest(out, outcome) else None


class LearnPaper(_CliWorkload):
    why = ("paper-scale sink selection, berklab learn K=200 x N=2e4 on the "
           "three-equilibria config: the large-K learning step")
    name = "learn_paper"
    config = "configs/three_equilibria.ini"
    runs = 200
    # at N = 1e4 about one run in 1000 ends outside the 0.05 classification
    # radius by sampling noise alone, so three of 200 (a failed check) would
    # occur in about one request in 800; at 2e4 it is below 1e-9
    horizon = 20_000

    def inputs(self) -> dict:
        return {"config": self.config, "K": self.runs, "N": self.horizon, "J": 1,
                "learn_seeds": [self.learn_seed(i) for i in range(4)]}

    def _build(self):
        self.model = self.cfg.model()

    def request(self, i: int) -> Outcome:
        outcome = Outcome(solves=1, run_periods=self.runs * self.horizon)
        out = self._run_cli(["learn", str(ROOT / self.config), "--runs", str(self.runs),
                             "--horizon", str(self.horizon),
                             "--seed", str(self.learn_seed(i))], outcome)
        if out is None:
            return outcome
        conv = json.loads((out / "convergence.json").read_text())
        sinks = sum(n for n, ss in zip(conv["counts"], conv["steady_states"])
                    if ss["kind"] == "sink")
        # criterion 6 as the acceptance test states it: >= 99% of runs within
        # the radius of a sink, none at the saddle
        if not (conv["runs"] == self.runs and conv["saddle_hits"] == 0
                and sinks >= 0.99 * self.runs):
            outcome.fail(f"sink selection failed: counts {conv['counts']}, "
                         f"unclassified {conv['unclassified']}")
        return outcome


class GroupsK1(_CliWorkload):
    why = ("berklab multigroup N=1e4 on two groups: K=1, J=2, per-period call "
           "overhead plus the color-sighted fixed point")
    name = "groups_k1"
    config = "configs/two_groups.ini"
    horizon = 10_000

    def inputs(self) -> dict:
        return {"config": self.config, "K": 1, "N": self.horizon, "J": 2,
                "learn_seeds": [self.learn_seed(i) for i in range(4)]}

    def _build(self):
        self.population = self.cfg.population()

    def request(self, i: int) -> Outcome:
        outcome = Outcome(solves=1, run_periods=self.horizon * self.population.size)
        out = self._run_cli(["multigroup", str(ROOT / self.config),
                             "--horizon", str(self.horizon),
                             "--seed", str(self.learn_seed(i))], outcome)
        if out is None:
            return outcome
        res = json.loads((out / "multigroup.json").read_text())
        sighted, eig = res["color_sighted"], res["eigen_check"]
        lines = (out / "trajectory_groups.csv").read_text().splitlines()
        values = [float(v) for line in lines[1:] for v in line.split(",")]
        if not (sighted["residual"] < 1e-10 and eig["bound_holds"]
                and eig["all_negative"] and all(e < 0.0 for e in eig["eigenvalues"])
                and len(lines) > 1 and all(math.isfinite(v) for v in values)):
            outcome.fail(f"multigroup check failed: residual {sighted['residual']!r}, "
                         f"{eig!r}, {len(lines) - 1} finite-checked rows")
        return outcome


# -- LQ statics sweep ----------------------------------------------------------

LQ_LEVERS = ("lambda_e", "delta", "c", "kappa")
# per block of 16 instances: underestimation, generic overestimation, and
# overestimation within 1e-10 .. 1e-3 of the saddle-node, two on each side
BLOCK = ("neg",) * 6 + ("pos",) * 6 + ("below",) * 2 + ("above",) * 2
NEAR_LOG10 = (-10.0, -3.0)
# every run checks each instance of the pool once, so that attempted and
# failed operations depend on the seed alone, not on how far a run gets
POOL = 512


def lq_instance(rng: random.Random, kind: str, near_log10: float | None) -> dict:
    """One random LQ scenario with interior assessments on its support.

    A ``below`` or ``above`` instance sits 10**near_log10 from the saddle-node.
    """
    while True:
        p = oracles.LQ(c=rng.uniform(0.5, 2.0), kappa=rng.uniform(0.5, 2.0),
                       lambda_e=rng.uniform(0.5, 2.0), lambda_a=rng.uniform(0.2, 1.5),
                       delta=rng.uniform(0.05, 0.9), beta_star=rng.uniform(1.0, 3.0),
                       delta_mu=0.0, beta_lo=0.0, beta_hi=0.0)
        d_sn = p.saddle_node()
        x_tangent = 0.5 * p.replaced(delta_mu=d_sn).quadratic()[1] / p.l1
        hi = p.beta_star * rng.uniform(1.2, 1.8)
        if p.l1 > 0.9 * p.l2:
            # assessment l1 b^2 / (l2 b^2 + kappa c) stays below 0.9 on the
            # support, so a 1% lever perturbation keeps it interior
            hi = min(hi, math.sqrt(0.9 * p.kappa * p.c / (p.l1 - 0.9 * p.l2)))
        if hi < 1.05 * p.beta_star or x_tangent <= 0.0:
            continue
        lo = math.sqrt(x_tangent) * rng.uniform(0.2, 0.7)
        if kind == "neg":
            dm = -d_sn * rng.uniform(0.01, 1.0)
        elif kind == "pos":
            dm = d_sn * (rng.uniform(0.05, 0.95) if rng.random() < 0.5
                         else rng.uniform(1.05, 2.0))
        else:
            dist = 10.0 ** near_log10
            dm = d_sn - dist if kind == "below" else d_sn + dist
        return {"c": p.c, "kappa": p.kappa, "lambda_e": p.lambda_e,
                "lambda_a": p.lambda_a, "delta": p.delta, "beta_star": p.beta_star,
                "delta_mu": dm, "beta_lo": lo, "beta_hi": hi,
                "saddle_distance": abs(dm - d_sn),
                "lever": rng.choice(("delta_mu",) + LQ_LEVERS),
                "rel_step": rng.choice((-0.01, 0.01))}


def lq_instances(seed: int, count: int) -> list[dict]:
    rng = _rng("statics_sweep", seed)
    blocks = -(-count // len(BLOCK))
    # near-saddle distances are stratified over NEAR_LOG10 on each side, so
    # that every seed's pool spans the same spread of distances
    lo, hi = NEAR_LOG10
    near = {}
    for side in ("below", "above"):
        n = blocks * BLOCK.count(side)
        logs = [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]
        rng.shuffle(logs)
        near[side] = iter(logs)
    out = []
    while len(out) < count:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        out.extend(lq_instance(rng, kind, next(near[kind]) if kind in near else None)
                   for kind in kinds)
    return out[:count]


def _oracle_of(inst: dict) -> oracles.LQ:
    return oracles.LQ(**{k: inst[k] for k in (
        "c", "kappa", "lambda_e", "lambda_a", "delta", "beta_star", "delta_mu",
        "beta_lo", "beta_hi")})


def _same_set(got, want, tol=1e-7) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


class StaticsSweep:
    why = ("seeded LQ instances through find_equilibria, comparative_statics "
           "and disparity_report, a share near the saddle-node: no learning")
    name = "statics_sweep"
    round_size = 48
    min_requests = POOL  # one whole pass over the pool in every timed run

    def __init__(self, seed: int, tmp: Path | None):
        self.seed = seed
        self.instances = lq_instances(seed, POOL)
        self.answers: dict[int, str] = {}

    def inputs(self) -> dict:
        def share(test):
            return sum(map(test, self.instances)) / POOL

        return {"instances": POOL,
                "negative_share": share(lambda i: i["delta_mu"] < 0.0),
                "near_saddle_1e-3_share": share(lambda i: i["saddle_distance"] < 1e-3),
                "near_saddle_1e-6_share": share(lambda i: i["saddle_distance"] < 1e-6),
                "first": self.instances[0]}

    def setup(self):
        use_checkout_sources()
        import berklab
        self.berklab = berklab
        self.models = [self._model(inst) for inst in self.instances]

    def _model(self, inst: dict):
        b = self.berklab
        lq = b.LQParams(c=inst["c"], kappa=inst["kappa"], lambda_e=inst["lambda_e"],
                        lambda_a=inst["lambda_a"], delta=inst["delta"])
        return b.build_lq(lq, 0.0, inst["beta_star"], inst["delta_mu"],
                          inst["beta_lo"], inst["beta_hi"])

    def request(self, i: int) -> Outcome:
        """Check instance i of the pool on its first visit; a later visit
        re-times the same calls and must give the first visit's answers."""
        k = i % POOL
        outcome, answers = self._check(k)
        first = self.answers.setdefault(k, answers)
        if first is answers:
            return outcome
        repeat = Outcome(solves=outcome.solves)
        repeat.seconds = outcome.seconds
        if answers != first:
            repeat.ops = 1
            repeat.fail(f"instance {k}: answers differ from its first visit")
        return repeat

    def _check(self, k: int) -> tuple[Outcome, str]:
        b = self.berklab
        inst = self.instances[k]
        model = self.models[k]
        p = _oracle_of(inst)
        outcome = Outcome(solves=5)
        tag = f"instance {k}"

        # 1. enumeration against the fixed-point quadratic
        want = oracles.lq_equilibria(p)
        known = oracles.near_coincident(p, want)
        eqs = outcome.call(b.find_equilibria, model, known=known)
        if eqs is not None:
            got = [(pt.beta_hat, pt.stability) for pt in eqs.points]
            if not (_same_set([g[0] for g in got], [w[0] for w in want])
                    and [g[1] for g in got] == [w[1] for w in want]
                    and all(pt.is_sce for pt in eqs.points
                            if p.beta_lo < pt.beta_hat < p.beta_hi)):
                outcome.fail(f"{tag}: equilibria {got} != oracle {want}", known)

        # 2. comparative statics of the stable distortion sets
        lever, rel = inst["lever"], inst["rel_step"]
        if lever == "delta_mu":
            q = p.replaced(delta_mu=p.delta_mu * (1.0 + rel))
            shift = "none"
        else:
            q = p.replaced(**{lever: getattr(p, lever) * (1.0 + rel)})
            raises_h = lever in ("lambda_e", "delta")
            shift = "up" if raises_h == (rel > 0.0) else "down"
        want_q = oracles.lq_equilibria(q)
        base = oracles.stable_distortions(p, want)
        pert = oracles.stable_distortions(q, want_q)
        known_cs = known or oracles.near_coincident(q, want_q)
        res = outcome.call(b.comparative_statics, model, lever, rel_step=rel,
                           known=known_cs)
        if res is not None:
            ok = (_same_set(sorted(res.baseline_distortions), base)
                  and _same_set(sorted(res.perturbed_distortions), pert)
                  and res.assessment_shift == shift)
            lo_gap, hi_gap = pert[0] - base[0], pert[-1] - base[-1]
            # order flags are compared unless a gap is a rounding-level near-tie
            if ok and all(g == 0.0 or abs(g) > 1e-9 for g in (lo_gap, hi_gap)):
                ok = (res.weak_set_order_increase == (lo_gap >= 0.0 and hi_gap >= 0.0)
                      and res.weak_set_order_decrease == (lo_gap <= 0.0 and hi_gap <= 0.0))
            if not ok:
                outcome.fail(f"{tag}: statics on {lever} {res!r} vs {base} -> {pert}",
                             known_cs)

        # 3. two-group disparity at the least-distorted stable SCEs
        d = abs(p.delta_mu)
        pm, pw = p.replaced(delta_mu=d), p.replaced(delta_mu=-d)
        want_m, want_w = oracles.lq_equilibria(pm), oracles.lq_equilibria(pw)
        bm = oracles.least_distorted_sce(pm, want_m)
        bw = oracles.least_distorted_sce(pw, want_w)
        known_d = oracles.near_coincident(pm, want_m) or oracles.near_coincident(pw, want_w)
        if bm is None or bw is None:
            # no stable self-confirming equilibrium, so the report must refuse
            def refuses():
                try:
                    b.disparity_report(model, d, -d)
                except b.InvariantViolation:
                    return True
                return False

            rep = outcome.call(refuses, known=known_d)
            if rep is False:
                outcome.fail(f"{tag}: disparity report given, expected a refusal", known_d)
        else:
            rep = outcome.call(b.disparity_report, model, d, -d, known=known_d)
            hm, hw = p.assessment(bm), p.assessment(bw)
            if rep is not None and not (
                    abs(rep.belief_m - bm) <= 1e-7 and abs(rep.belief_w - bw) <= 1e-7
                    and abs(rep.assessment_m - hm) <= 1e-7
                    and abs(rep.assessment_w - hw) <= 1e-7
                    and abs(rep.true_effort_m - hm * p.beta_star / p.c) <= 1e-7):
                outcome.fail(f"{tag}: disparity beliefs {rep.belief_m!r}, "
                             f"{rep.belief_w!r} vs {bm!r}, {bw!r}", known_d)
        return outcome, repr((eqs, res, rep))


# -- general primitives -----------------------------------------------------------


class GeneralPower:
    why = ("one build_power(gamma=2.5) model through transform, assessment, "
           "find_equilibria and a small Monte Carlo: the numeric root-finding path")
    name = "general_power"
    round_size = 1
    gamma = 2.5
    grid_points = 128
    runs = 2
    horizon = 2
    # build_power(gamma, c_scale, kappa_scale, lambda1, lambda2, mu_star,
    #             beta_star, mu_hat, beta_lo, beta_hi)
    c_scale, kappa_scale, lambda1, lambda2 = 1.0, 4.0, 1.0, 0.5
    beta_star, beta_lo, beta_hi = 2.0, 0.5, 3.0

    def __init__(self, seed: int, tmp: Path | None):
        rng = _rng(self.name, seed)
        self.delta_mu = -rng.uniform(0.05, 0.2)
        self.betas = sorted(rng.uniform(0.6, 2.9) for _ in range(16))
        self.effort_points = [(rng.uniform(0.05, 0.95), rng.uniform(0.6, 2.9))
                              for _ in range(8)]
        self.mc_seed = rng.randrange(2 ** 31)
        self.oracle = oracles.Power(self.gamma, self.c_scale, self.kappa_scale,
                                    self.lambda1, self.lambda2, self.beta_star,
                                    self.delta_mu, self.beta_lo, self.beta_hi)
        self.reference = {}

    def inputs(self) -> dict:
        return {"gamma": self.gamma, "grid_points": self.grid_points, "K": self.runs,
                "N": self.horizon, "J": 1, "delta_mu": self.delta_mu,
                "betas": self.betas, "effort_points": self.effort_points,
                "mc_seed": self.mc_seed}

    def setup(self):
        use_checkout_sources()
        import berklab
        self.berklab = berklab
        self.model = berklab.build_power(
            self.gamma, self.c_scale, self.kappa_scale, self.lambda1, self.lambda2,
            0.0, self.beta_star, self.delta_mu, self.beta_lo, self.beta_hi)

    def request(self, i: int) -> Outcome:
        b, o = self.berklab, self.oracle
        outcome = Outcome(solves=1, run_periods=self.runs * self.horizon)
        tm = outcome.call(b.transform, self.model)
        if tm is None:
            return outcome
        eng = tm.engine
        got = {
            "transform": [tm.recon_error],
            "assessment": [outcome.call(eng.assessment, beta) for beta in self.betas],
            "effort": [outcome.call(eng.effort, h, beta) for h, beta in self.effort_points],
            "find_equilibria": [outcome.call(b.find_equilibria, self.model,
                                             grid_points=self.grid_points, engine=eng)],
            "monte_carlo_convergence": [outcome.call(
                b.monte_carlo_convergence, tm, runs=self.runs, horizon=self.horizon,
                seed=self.mc_seed, grid_points=self.grid_points)],
        }
        want = o.equilibria()

        def agrees(kind, x, arg):
            if kind == "transform":
                return x < 1e-10
            if kind == "assessment":
                return abs(x - o.assessment(arg)) <= 1e-8
            if kind == "effort":
                return abs(x - o.effort(*arg)) <= 1e-9 * max(1.0, x)
            if kind == "find_equilibria":
                return (_same_set(list(x.beliefs), want, tol=1e-6)
                        and all(pt.stable for pt in x.points))
            return (sum(x.counts) + x.unclassified == self.runs
                    and len(x.steady_states) == len(want)
                    and all(ss.is_sink and abs(ss.beta - w) <= 1e-6
                            for ss, w in zip(x.steady_states, want)))

        args = {"transform": [None], "assessment": self.betas,
                "effort": self.effort_points, "find_equilibria": [None],
                "monte_carlo_convergence": [None]}
        for kind, values in got.items():
            for j, (x, arg) in enumerate(zip(values, args[kind])):
                if x is None:
                    continue  # raised: already failed
                digest = _digest(x)
                if not agrees(kind, x, arg):
                    outcome.fail(f"{kind}[{j}] = {x!r} disagrees with the oracle")
                elif digest != self.reference.setdefault((kind, j), digest):
                    outcome.fail(f"{kind}[{j}] differs from the first request")
        return outcome


def _digest(x) -> str:
    """Exact text of a general-path result, to compare repeats."""
    if hasattr(x, "points"):
        return repr([(p.beta_hat, p.h_hat, p.stability) for p in x.points])
    if hasattr(x, "counts"):
        return repr((x.counts, x.unclassified,
                     [(s.m, s.xi, s.kind) for s in x.steady_states]))
    return repr(x)


WORKLOADS = {w.name: w for w in (LearnPaper, GroupsK1, StaticsSweep, GeneralPower)}


def setup_seconds(name: str, seed: int) -> float:
    """Time berklab's import plus the workload's model build in this process."""
    workload = WORKLOADS[name](seed, None)
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0
