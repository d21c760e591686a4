"""Tests of the benchmark itself (not of berklab).

    python3 -m pytest bench/selftest.py

The file name keeps it out of the package's own test collection; the
traced-run test takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert cls(7, None).inputs() == cls(7, None).inputs()
    assert cls(7, None).inputs() != cls(8, None).inputs()


def test_statics_pool_depends_only_on_the_seed():
    a = workloads.lq_instances(7, 64)
    assert a == workloads.lq_instances(7, 64)
    assert a != workloads.lq_instances(8, 64)
    # the stated share: 4 of every 16 instances sit near the saddle-node
    near = [i for i in a if i["saddle_distance"] <= 1e-3]
    assert len(near) == 16


def test_statics_counts_each_instance_once():
    w = workloads.StaticsSweep(7, None)
    w.setup()
    first, again = w.request(3), w.request(3 + workloads.POOL)
    assert first.ops == 3 and again.ops == again.failed == 0
    assert again.seconds > 0.0 and again.solves == first.solves


def test_lq_oracle_finds_the_near_tangent_pair():
    # c = kappa = lambda_e = lambda_a = 1, delta = 0, beta* = 2 on [0.3, 3]
    p = oracles.LQ(1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 6.0 - math.sqrt(20.0) - 1e-8, 0.3, 3.0)
    assert p.saddle_node() == pytest.approx(6.0 - math.sqrt(20.0), abs=1e-14)
    pts = oracles.lq_equilibria(p)
    assert [s for _, s in pts] == ["stable", "unstable", "stable"]
    assert pts[0][0] == pytest.approx(1.111853, abs=1e-6)
    assert pts[1][0] == pytest.approx(1.111719, abs=1e-6)
    assert pts[2][0] == 0.3
    assert oracles.near_coincident(p, pts)
    for beta, _ in pts[:2]:
        assert p.best_fit_sq(beta * beta) == pytest.approx(beta * beta, abs=1e-12)


def test_lq_oracle_underestimation_is_unique_and_stable():
    p = oracles.LQ(1.3, 0.7, 1.1, 0.4, 0.3, 1.8, -0.4, 0.5, 2.5)
    (beta, label), = oracles.lq_equilibria(p)
    assert label == "stable" and beta > p.beta_star
    assert p.best_fit_sq(beta * beta) == pytest.approx(beta * beta, abs=1e-12)


def test_power_oracle_solves_both_first_order_conditions():
    o = oracles.Power(2.5, 1.0, 4.0, 1.0, 0.5, 2.0, -0.1, 0.5, 3.0)
    a = o.effort(0.3, 1.7)
    assert 0.3 * 1.7 == pytest.approx(o.c * a ** (o.gamma - 1.0), rel=1e-14)
    h, beta, e = o.assessment(1.7), 1.7, 1e-6
    value = lambda hh: o.l1 * beta * o.effort(hh, beta) - o.l2 * o.c * o.effort(hh, beta) ** o.gamma / o.gamma
    marginal = (value(h + e) - value(h - e)) / (2.0 * e)
    assert marginal == pytest.approx(o.kappa * h, rel=1e-8)
    (eq,) = o.equilibria()
    assert o.belief_map(eq) == pytest.approx(eq, abs=1e-12)


def test_tracer_rebinds_every_namespace_and_restores():
    workloads.use_checkout_sources()
    import berklab
    import berklab.cli
    import berklab.learning
    original = berklab.equilibrium.find_equilibria
    with tracer.Tracer():
        for mod in (berklab, berklab.cli, berklab.learning, berklab.analysis,
                    berklab.multigroup, berklab.equilibrium):
            assert mod.find_equilibria is not original
            assert mod.find_equilibria.__wrapped__ is original
        assert berklab.learning.trunc_mean.__wrapped__ is berklab.truncnorm.trunc_mean.__wrapped__
    for mod in (berklab, berklab.cli, berklab.learning, berklab.equilibrium):
        assert mod.find_equilibria is original


def test_traced_runs_reach_every_layer_and_repeat_their_counts():
    reached = set()
    for name in sorted(workloads.WORKLOADS):
        runs = []
        for _ in range(2):
            done = run_bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
            assert done.returncode == 0, done.stderr
            detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            assert result["correct"], detail["detail"]["failure_notes"]
            runs.append((detail["detail"]["layer_stats"], result["metrics"]))
        (stats_a, metrics_a), (stats_b, metrics_b) = runs
        assert ({n: s["calls"] for n, s in stats_a.items()}
                == {n: s["calls"] for n, s in stats_b.items()})
        for metric, value in metrics_a.items():
            if value["unit"] in ("count", "bytes"):
                assert value == metrics_b[metric], metric
        reached |= {n for n, s in stats_a.items() if s["calls"] > 0}
    assert reached == set(tracer.TARGETS)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "statics_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
