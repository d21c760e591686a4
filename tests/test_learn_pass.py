"""One lockstep learning pass per ``learn``: run 0's recorded path, per-run
noise streams, work done once per command, and input validation."""

import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

import berklab.cli
import berklab.learning
import berklab.multigroup
from berklab import (BestResponseEngine, build_power, find_equilibria,
                     monte_carlo_convergence, simulate, transform)
from berklab.cli import main
from berklab.config import load_config
from berklab.learning import _run_engine, _single_group_args, noise_stream

from helpers import general_engine, three_equilibria_model

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
                            horizon=horizon, seed=seed, prior=[None])
        tail = _run_engine(tm3, *_single_group_args(tm3), runs=runs - r,
                           horizon=horizon, seed=seed, prior=[None],
                           record_stride=stride, first_run=r)
        assert same_bits(alone.periods, tail.rec_n)
        assert same_bits(alone.m, tail.rec_m[:, 0])
        assert same_bits(alone.xi, tail.rec_xi[:, 0])
        assert same_bits(alone.h, tail.rec_h)
        assert same_bits(alone.x, tail.rec_x[:, 0])
        assert same_bits(tail.m, batch.m[r:])
        assert alone.terminal.m == batch.m[r, 0]
        assert alone.terminal.xi == batch.s[r, 0] / horizon
        assert same_bits(simulate(tm3, horizon=horizon, seed=seed,
                                  runs=runs).batch_m, batch.m[:, 0])

    def test_batch_counts_and_classification(self, tm3):
        rep = monte_carlo_convergence(tm3, runs=6, horizon=1500, seed=2)
        assert rep.trajectory.batch_m.shape == (6,)
        assert sum(rep.counts) + rep.unclassified == 6


class TestNoiseStreams:
    def test_negative_seeds_have_their_own_streams(self, tm3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {noise_stream(seed, 3, 1).standard_normal(4).tobytes()
                     for seed in (-5, -6, -1000, 2**63)}
            paths = {simulate(tm3, horizon=30, seed=seed).m.tobytes()
                     for seed in (-5, -6)}
        assert (len(draws), len(paths)) == (4, 2)
        # a seed is taken modulo 2**64
        assert (noise_stream(-5, 3, 1).standard_normal(4).tobytes()
                == noise_stream(2**64 - 5, 3, 1).standard_normal(4).tobytes())

    @pytest.mark.parametrize("seed,run,group", [
        (0, 0, 0), (7, 3, 1), (2**32 + 9, 2**31 - 1, 2**32 - 1),
        (2**63 - 1, 12, 0)])
    def test_streams_keep_their_bits(self, seed, run, group):
        # the Philox key of every (seed, run, group) whose words stay below
        # 2**63, as it was built from a list of Python ints
        key = [seed, (run << 32) | group]
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(5)
        got = noise_stream(seed, run, group).standard_normal(5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("run,group", [(2**32, 0), (-1, 0), (0, 2**32)])
    def test_run_and_group_must_fit_32_bits(self, run, group):
        with pytest.raises(ValueError, match=r"2\*\*32"):
            noise_stream(1, run, group)


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
        # cmd_multigroup reads both names from berklab.multigroup at call time
        solves = count_calls(monkeypatch, "color_sighted_equilibrium",
                             berklab.multigroup)
        sets = count_calls(monkeypatch, "color_sighted_equilibria",
                           berklab.multigroup)
        # the selected member and the set come from one enumeration
        scans = count_calls(monkeypatch, "_enumerate",
                            berklab.multigroup._SharedAssessment)
        assert main(["multigroup", GROUPS, "--out-dir", str(tmp_path / "o"),
                     "--horizon", "300"]) == 0
        assert (len(solves), len(sets), len(scans)) == (1, 1, 1)

    @pytest.mark.parametrize("groups", [0, 1, 2])
    def test_drivers_transform_and_classify_once(self, monkeypatch, groups):
        # each Monte Carlo driver classifies its batch in the simulator, so
        # neither needs a transformed model of its own
        transforms = count_calls(monkeypatch, "transform", berklab.learning)
        nearest = count_calls(monkeypatch, "nearest_target",
                              berklab.learning.TransformedModel)
        model = three_equilibria_model()
        if groups:
            pop = berklab.multigroup.GroupPopulation(
                model=model, alphas=(1.0 / groups,) * groups,
                deltas=(model.delta_mu,) * groups,
                beta_stars=(model.beta_star,) * groups)
            berklab.multigroup.monte_carlo_multigroup(pop, runs=4, horizon=50,
                                                      seed=1)
        else:
            monte_carlo_convergence(model, runs=4, horizon=50, seed=1)
        assert (len(transforms), len(nearest)) == (1, 1)

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


class TestSteadyStateMemo:
    """``find_equilibria`` keeps each set in the engine it was given, keyed
    by ``grid_points``, for that engine's own model only."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        return count_calls(monkeypatch, "interior_fixed_points",
                           BestResponseEngine)

    @staticmethod
    def power():
        return build_power(2.5, 1.0, 4.0, 1.0, 0.5, 0.0, 2.0, -0.12, 0.5, 3.0)

    def test_enumeration_then_monte_carlo_enumerates_once(self, enumerations):
        tm = transform(self.power())
        eqs = find_equilibria(tm.model, engine=tm.engine, grid_points=128)
        rep = monte_carlo_convergence(tm, runs=2, horizon=2, seed=3,
                                      grid_points=128)
        assert len(enumerations) == 1
        assert find_equilibria(tm.model, engine=tm.engine, grid_points=128) is eqs
        assert [s.beta for s in rep.steady_states] == list(eqs.beliefs)
        assert tm.engine.equilibria == {128: eqs}

    def test_another_grid_or_transform_enumerates_again(self, enumerations):
        model = self.power()
        tm = transform(model)
        first = find_equilibria(model, engine=tm.engine, grid_points=128)
        find_equilibria(model, engine=tm.engine, grid_points=64)
        assert len(enumerations) == 2
        again = find_equilibria(model, engine=transform(model).engine,
                                grid_points=128)
        assert len(enumerations) == 3
        assert again is not first and again == first

    def test_an_engine_on_another_model_bypasses_the_memo(self, enumerations):
        # the general engine of an LQ model: its model has no LQ parameters
        model = three_equilibria_model()
        eng = general_engine(model)
        sentinel = object()
        eng.equilibria[128] = sentinel
        got = find_equilibria(model, engine=eng, grid_points=128)
        assert len(enumerations) == 1
        assert eng.equilibria == {128: sentinel}
        assert got == find_equilibria(model, engine=general_engine(model),
                                      grid_points=128)


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
