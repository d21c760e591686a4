"""One lockstep learning pass per ``learn``: run 0's recorded path, per-run
noise streams, work done once per command, and input validation."""

import csv
from pathlib import Path

import numpy as np
import pytest

import berklab.cli
import berklab.learning
import berklab.multigroup
from berklab import monte_carlo_convergence, simulate, transform
from berklab.cli import main
from berklab.config import load_config
from berklab.learning import _run_engine, _single_group_args

from helpers import three_equilibria_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THREE_EQ = str(CONFIGS / "three_equilibria.ini")
GROUPS = str(CONFIGS / "two_groups.ini")


@pytest.fixture(scope="module")
def tm3():
    return transform(three_equilibria_model())


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_path(a, b) -> bool:
    return all(same_bits(getattr(a, f), getattr(b, f))
               for f in ("periods", "m", "xi", "h", "x"))


def count_calls(monkeypatch, name, *modules):
    """Wrap ``name`` in every given module namespace with one shared counter."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in modules:
        assert getattr(mod, name) is original
        monkeypatch.setattr(mod, name, counted)
    return calls


class TestRecordedRun:
    def test_run_zero_path_does_not_depend_on_the_batch(self, tm3):
        alone = simulate(tm3, horizon=3000, seed=4, stride=7)
        rep = monte_carlo_convergence(tm3, runs=12, horizon=3000, seed=4,
                                      stride=7)
        assert same_path(rep.trajectory, alone)
        assert rep.trajectory.terminal == alone.terminal
        assert same_bits(rep.trajectory.batch_m[:1], alone.batch_m)

    def test_default_stride_matches_simulate(self, tm3):
        rep = monte_carlo_convergence(tm3, runs=3, horizon=2500, seed=1)
        alone = simulate(tm3, horizon=2500, seed=1)
        assert same_path(rep.trajectory, alone)
        assert list(rep.trajectory.periods[:3]) == [1, 2, 4]

    def test_simulate_run_r_is_run_r_of_a_batch(self, tm3, monkeypatch):
        r, runs, horizon, seed, stride = 5, 8, 2000, 13, 3
        streams = count_calls(monkeypatch, "noise_stream", berklab.learning)
        alone = simulate(tm3, horizon=horizon, seed=seed, run=r, stride=stride)
        assert len(streams) == 1  # run r alone, not runs 0..r
        batch = _run_engine(tm3, *_single_group_args(tm3), runs=runs,
                            horizon=horizon, seed=seed, prior=[None],
                            record_stride=stride, record_run=r)
        assert same_bits(alone.periods, batch.rec_n)
        assert same_bits(alone.m, batch.rec_m[:, 0])
        assert same_bits(alone.xi, batch.rec_xi[:, 0])
        assert same_bits(alone.h, batch.rec_h)
        assert same_bits(alone.x, batch.rec_x[:, 0])
        assert alone.terminal.m == batch.m[r, 0]
        assert alone.terminal.xi == batch.s[r, 0] / horizon
        assert same_bits(simulate(tm3, horizon=horizon, seed=seed,
                                  runs=runs).batch_m, batch.m[:, 0])

    def test_batch_counts_and_classification(self, tm3):
        rep = monte_carlo_convergence(tm3, runs=6, horizon=1500, seed=2)
        assert rep.trajectory.batch_m.shape == (6,)
        assert sum(rep.counts) + rep.unclassified == 6


class TestLearnCommand:
    def test_trajectory_csv_is_the_simulated_run_zero(self, tmp_path, tm3):
        out = tmp_path / "out"
        assert main(["learn", THREE_EQ, "--out-dir", str(out), "--runs", "5",
                     "--horizon", "3000", "--seed", "4", "--stride", "7"]) == 0
        with open(out / "trajectory_000.csv") as fh:
            rows = list(csv.reader(fh))
        traj = simulate(tm3, horizon=3000, seed=4, run=0, stride=7)
        want = [[str(int(n))] + [f"{float(v):.9g}" for v in (m, xi, h, x)]
                for n, m, xi, h, x in zip(traj.periods, traj.m, traj.xi,
                                           traj.h, traj.x)]
        assert rows[0] == ["n", "m", "xi", "h", "x"]
        assert rows[1:] == want

    def test_learn_enumerates_once(self, tmp_path, monkeypatch):
        odes = count_calls(monkeypatch, "limiting_ode", berklab.learning)
        eqs = count_calls(monkeypatch, "find_equilibria", berklab.learning,
                          berklab.cli)
        sims = count_calls(monkeypatch, "simulate", berklab.learning)
        assert main(["learn", THREE_EQ, "--out-dir", str(tmp_path / "o"),
                     "--runs", "4", "--horizon", "500"]) == 0
        assert (len(odes), len(eqs), len(sims)) == (1, 1, 1)

    def test_multigroup_solves_the_sighted_equilibrium_once(self, tmp_path,
                                                            monkeypatch):
        solves = count_calls(monkeypatch, "color_sighted_equilibrium",
                             berklab.multigroup, berklab.cli)
        sets = count_calls(monkeypatch, "color_sighted_equilibria",
                           berklab.multigroup, berklab.cli)
        assert main(["multigroup", GROUPS, "--out-dir", str(tmp_path / "o"),
                     "--horizon", "300"]) == 0
        assert (len(solves), len(sets)) == (1, 1)

    def test_multigroup_path_uses_the_given_equilibrium(self):
        pop = load_config(GROUPS).population()
        members = berklab.multigroup.color_sighted_equilibria(pop)
        given = berklab.multigroup.simulate_multigroup(
            pop, horizon=400, seed=3, run=2, equilibria=members)
        solved = berklab.multigroup.simulate_multigroup(pop, horizon=400,
                                                        seed=3, run=2)
        assert same_bits(given.m, solved.m)
        assert all(g is e for g, e in zip(given.steady_states, members,
                                          strict=True))
        assert [e.h_hat for e in solved.steady_states] == [e.h_hat for e in members]
        assert given.nearest_index == solved.nearest_index
        assert given.nearest_distance == solved.nearest_distance


class TestValidation:
    @pytest.mark.parametrize("flags,word", [
        (["--runs", "0"], "runs"), (["--runs", "-1"], "runs"),
        (["--stride", "0"], "stride"), (["--stride", "-3"], "stride"),
        (["--prior-center", "1", "--prior-sd", "0"], "prior-sd"),
        (["--radius", "-1"], "radius"), (["--radius", "nan"], "radius"),
        (["--prior-center", "nan", "--prior-sd", "0.1"], "prior-center"),
        (["--prior-center", "inf", "--prior-sd", "0.1"], "prior-center"),
    ])
    def test_learn_rejects_out_of_range_flags(self, tmp_path, capsys, flags,
                                              word):
        code = main(["learn", THREE_EQ, "--out-dir", str(tmp_path / "o"),
                     "--horizon", "50", *flags])
        assert code == 2
        assert word in capsys.readouterr().err

    @pytest.mark.parametrize("flags,word", [
        (["--horizon", "-5"], "horizon"),
        (["--horizon", "20", "--stride", "0"], "stride"),
    ])
    def test_multigroup_rejects_bad_horizon_and_stride(self, tmp_path, capsys,
                                                       flags, word):
        code = main(["multigroup", GROUPS, "--out-dir", str(tmp_path / "o"),
                     *flags])
        assert code == 2
        assert word in capsys.readouterr().err

    @pytest.mark.parametrize("argv,word", [
        (["solve", THREE_EQ, "--grid", "-5"], "grid"),
        (["phase", THREE_EQ, "--grid", "-3"], "grid"),
        (["check", THREE_EQ, "--grid", "0"], "grid"),
        (["check", THREE_EQ, "--grid", "-2"], "grid"),
        (["compare", THREE_EQ, "--param", "kappa", "--sweep-points", "-1"],
         "sweep_points"),
        (["compare", THREE_EQ, "--param", "kappa", "--step", "-2"], "step"),
        (["compare", THREE_EQ, "--param", "c", "--sweep-span", "1.5"],
         "sweep_span"),
    ])
    def test_commands_reject_out_of_range_counts_and_levers(self, tmp_path,
                                                            capsys, argv, word):
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 2
        assert word in capsys.readouterr().err

    def test_library_rejects_nonpositive_runs_and_stride(self, tm3):
        for runs in (0, -1):
            with pytest.raises(ValueError, match="runs"):
                monte_carlo_convergence(tm3, runs=runs, horizon=10, seed=0)
        with pytest.raises(ValueError, match="stride"):
            simulate(tm3, horizon=10, seed=0, stride=0)

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_library_rejects_negative_or_nan_radius(self, tm3, radius):
        with pytest.raises(ValueError, match="radius"):
            monte_carlo_convergence(tm3, runs=2, horizon=10, seed=0,
                                    radius=radius)
        pop = load_config(GROUPS).population()
        with pytest.raises(ValueError, match="radius"):
            berklab.multigroup.monte_carlo_multigroup(pop, runs=2, horizon=10,
                                                      seed=0, radius=radius)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), float("-inf")])
    def test_prior_mean_must_be_finite(self, mean):
        with pytest.raises(ValueError, match="finite"):
            berklab.learning.TruncNormalPrior(mean=mean, sd=0.1)

    @pytest.mark.parametrize("groups", [1, 3])
    def test_prior_list_needs_one_entry_per_group(self, groups):
        pop = load_config(GROUPS).population()
        prior = [berklab.learning.TruncNormalPrior(mean=4.0, sd=0.5)] * groups
        with pytest.raises(ValueError, match="prior"):
            berklab.multigroup.simulate_multigroup(pop, horizon=10, seed=0,
                                                   prior=prior)
