import json
import math
from pathlib import Path

import pytest

from berklab import ConfigError
from berklab.cli import main
from berklab.config import load_config

THREE_EQ = """\
[lq]
c = 1.0
kappa = 1.0
lambda_e = 1.0
lambda_a = 1.0
delta = 0.0

[truth]
mu_star = 0.0
beta_star = 2.0
mu_hat = 0.5

[support]
beta_lo = 0.3
beta_hi = 3.0
"""

GROUPS = THREE_EQ.replace("mu_hat = 0.5", "mu_hat = 0.0") + """
[groups]
alpha = 0.5 0.5
delta = 0.05 -0.05
beta_star = 2.0 2.0
"""

C_HUGE = [("c = 1.0", "c = 1e300")]
BETA_HI_HUGE = [("beta_hi = 3.0", "beta_hi = 1e300")]


def write(tmp_path: Path, text: str, name: str = "run.ini") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_valid_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, THREE_EQ))
        assert cfg.lq.c == 1.0
        assert cfg.delta_mu == pytest.approx(0.5)
        model = cfg.model()
        assert model.beta_lo == 0.3

    def test_unknown_key_reports_line(self, tmp_path):
        bad = THREE_EQ.replace("kappa = 1.0", "kappa = 1.0\nbogus = 3")
        with pytest.raises(ConfigError, match=r"line 4.*bogus"):
            load_config(write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, THREE_EQ + "\n[extra]\nx = 1\n"))

    def test_missing_section_rejected(self, tmp_path):
        text = THREE_EQ.replace("[support]\nbeta_lo = 0.3\nbeta_hi = 3.0\n", "")
        with pytest.raises(ConfigError, match=r"\[support\]"):
            load_config(write(tmp_path, text))

    def test_nonpositive_lower_bound_named(self, tmp_path):
        bad = THREE_EQ.replace("beta_lo = 0.3", "beta_lo = 0.0")
        with pytest.raises(ConfigError, match="beta_lo must be positive"):
            load_config(write(tmp_path, bad))

    def test_bad_number_reports_line(self, tmp_path):
        bad = THREE_EQ.replace("c = 1.0", "c = one")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write(tmp_path, bad))

    def test_group_length_mismatch(self, tmp_path):
        bad = GROUPS.replace("alpha = 0.5 0.5", "alpha = 0.5 0.3 0.2")
        with pytest.raises(ConfigError, match="matching lengths"):
            load_config(write(tmp_path, bad))

    def test_population_requires_groups(self, tmp_path):
        cfg = load_config(write(tmp_path, THREE_EQ))
        with pytest.raises(ConfigError, match=r"\[groups\]"):
            cfg.population()


class TestCliSolve:
    def test_three_equilibria_report(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "equilibria.json").read_text())
        assert payload["schema_version"] == 1
        eqs = payload["equilibria"]
        assert len(eqs) == 3
        assert [e["stability"] for e in eqs] == ["stable", "unstable", "stable"]
        assert [e["is_sce"] for e in eqs] == [True, True, False]
        assert (out / "psi_curve.csv").exists()
        assert (out / "manifest.json").exists()

    def test_no_misspecification_single_point(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ.replace("mu_hat = 0.5", "mu_hat = 0.0"))
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out-dir", str(out)]) == 0
        eqs = json.loads((out / "equilibria.json").read_text())["equilibria"]
        assert len(eqs) == 1
        assert eqs[0]["beta_hat"] == pytest.approx(2.0)
        assert eqs[0]["stability"] == "stable" and eqs[0]["is_sce"]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, THREE_EQ.replace("beta_lo = 0.3",
                                               "beta_lo = -0.1"))
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert "beta_lo must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value,line", [
        ("solve", "beta_hi", "inf", 15), ("learn", "beta_hi", "inf", 15),
        ("solve", "lambda_a", "inf", 5), ("solve", "c", "inf", 2),
        ("solve", "lambda_e", "inf", 4), ("solve", "kappa", "nan", 3),
        ("solve", "mu_hat", "-inf", 11)])
    def test_nonfinite_value_exits_2_at_its_line(self, tmp_path, capsys,
                                                  command, key, value, line):
        old = next(row for row in THREE_EQ.splitlines()
                   if row.startswith(f"{key} ="))
        cfg = write(tmp_path, THREE_EQ.replace(old, f"{key} = {value}"))
        out = tmp_path / "o"
        assert main([command, cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: line {line}: [" in err
        assert f"{key} = '{value}' is not finite" in err
        assert not out.exists()

    def test_non_interior_assessment_exits_4(self, tmp_path, capsys):
        cfg = write(tmp_path, THREE_EQ.replace("lambda_e = 1.0",
                                               "lambda_e = 5.0")
                    .replace("lambda_a = 1.0", "lambda_a = 0.0"))
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "o")]) == 4
        assert "not interior" in capsys.readouterr().err

    # a finite lever whose square overflows: the closed forms square levers
    # with a float's **, which raises OverflowError there
    @pytest.mark.parametrize("edits,command,line", [
        (C_HUGE, ["solve"], 2),
        (C_HUGE, ["phase", "--grid", "8"], 2),
        (C_HUGE, ["disparity"], 2),
        (C_HUGE, ["compare", "--param", "delta_mu"], 2),
        (C_HUGE, ["learn", "--horizon", "50"], 2),
        (BETA_HI_HUGE, ["solve"], 15),
        (BETA_HI_HUGE, ["disparity"], 15),
        (BETA_HI_HUGE, ["compare", "--param", "delta_mu"], 15),
        (BETA_HI_HUGE + [("beta_star = 2.0", "beta_star = 1e200")], ["solve"], 10),
        ([("beta_star = 2.0 2.0", "beta_star = 2.0 -1e155")],
         ["multigroup", "--horizon", "20"], 20),
    ])
    def test_a_lever_whose_square_overflows_exits_2_at_its_line(
            self, tmp_path, capsys, edits, command, line):
        text = GROUPS if command[0] == "multigroup" else THREE_EQ
        for old, new in edits:
            text = text.replace(old, new)
        out = tmp_path / "o"
        assert main([command[0], write(tmp_path, text), *command[1:],
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: line {line}: [" in err
        assert "its square overflows a float" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_manifest_inventory_hashes(self, tmp_path):
        import hashlib
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        main(["solve", cfg, "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes())
            assert digest.hexdigest() == entry["sha256"]


class TestCliLearn:
    def test_deterministic_bytes(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["learn", cfg, "--out-dir", str(out), "--runs", "1",
                         "--horizon", "1000", "--seed", "5"])
            assert code == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_zero_horizon_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, THREE_EQ)
        assert main(["learn", cfg, "--out-dir", str(tmp_path / "o"),
                     "--horizon", "0"]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("sd", ["1e-170", "inf", "0"])
    def test_prior_without_finite_precision_exits_2(self, tmp_path, capsys, sd):
        # 1e-170 squared underflows to zero: no finite precision 1 / sd^2
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "o"
        assert main(["learn", cfg, "--out-dir", str(out), "--prior-center",
                     "1.0", "--prior-sd", sd]) == 2
        assert "config error: --prior-center/--prior-sd" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("center", ["1e160", "1e300"])
    def test_prior_far_outside_the_support_learns(self, tmp_path, center):
        # (center / sd)^2 overflows in the truncated-normal mean
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "o"
        assert main(["learn", cfg, "--out-dir", str(out), "--runs", "2",
                     "--horizon", "50", "--prior-center", center,
                     "--prior-sd", "1"]) == 0
        rows = (out / "trajectory_000.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(v))
                            for row in rows for v in row.split(","))

    @pytest.mark.parametrize("command", [["learn", "--horizon", "50", "--runs", "2"],
                                         ["phase", "--grid", "8"]])
    @pytest.mark.parametrize("edit", [
        ("c = 1.0", "c = 1e100"), ("c = 1.0", "c = 1.3e154"),
        ("kappa = 1.0", "kappa = 1e150"), ("lambda_e = 1.0", "lambda_e = 1e-150"),
        ("lambda_a = 1.0", "lambda_a = 1e150"),
    ])
    def test_no_fisher_information_exits_3(self, tmp_path, capsys, edit, command):
        # each lever squares to a float, but I(h) = g2(h)^2 h underflows to 0
        # over the whole assessment range: the run would learn nothing and
        # write non-finite beliefs (or -Infinity, not JSON)
        out = tmp_path / "o"
        assert main([command[0], write(tmp_path, THREE_EQ.replace(*edit)),
                     *command[1:], "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: Fisher information" in err
        assert "Traceback" not in err
        assert not (out / "convergence.json").exists()
        assert not (out / "phase_field.csv").exists()

    def test_convergence_report_contents(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        main(["learn", cfg, "--out-dir", str(out), "--runs", "8",
              "--horizon", "2000", "--seed", "2"])
        rep = json.loads((out / "convergence.json").read_text())
        assert rep["runs"] == 8
        assert sum(rep["counts"]) + rep["unclassified"] == 8
        assert len(rep["steady_states"]) == 3
        traj = (out / "trajectory_000.csv").read_text().splitlines()
        assert traj[0] == "n,m,xi,h,x"


class TestCliOthers:
    def test_phase_nullcline_consistency(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["phase", cfg, "--out-dir", str(out), "--grid", "24"]) == 0
        lines = (out / "nullcline.csv").read_text().splitlines()[1:]
        from berklab import limiting_ode
        from berklab.config import load_config as lc
        ode = limiting_ode(lc(cfg).model())
        for line in lines[:5]:
            m, xi = (float(v) for v in line.split(","))
            assert ode.field((m, xi))[1] == pytest.approx(0.0, abs=1e-8)
        states = json.loads((out / "steady_states.json").read_text())
        assert [s["kind"] for s in states["steady_states"]] == \
            ["sink", "saddle", "sink"]

    def test_compare_kappa_direction(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["compare", cfg, "--out-dir", str(out), "--param",
                     "kappa", "--sweep-points", "5"]) == 0
        rep = json.loads((out / "compare.json").read_text())
        # kappa up = assessment down = distortions up in the weak set order
        assert rep["increase"]["assessment_shift"] == "down"
        assert rep["increase"]["weak_set_order_increase"] is True
        assert rep["decrease"]["weak_set_order_decrease"] is True
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[0] == \
            "value,rel_change,distortion_min,distortion_max,n_stable"
        assert len(rows) == 6

    @pytest.mark.parametrize("flag,value", [("--step", "-0.01"), ("--step", "0"),
                                            ("--step", "nan"),
                                            ("--sweep-span", "-0.05")])
    def test_compare_rejects_a_step_that_swaps_its_shocks_exits_2(
            self, tmp_path, capsys, flag, value):
        # "increase" holds the +step shock and "decrease" the -step one
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["compare", cfg, "--out-dir", str(out), "--param",
                     "delta_mu", flag, value]) == 2
        assert "config error: need --step > 0 and --sweep-span >= 0" in \
            capsys.readouterr().err
        assert not (out / "compare.json").exists()

    def test_disparity_defaults_from_config(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["disparity", cfg, "--out-dir", str(out)]) == 0
        rep = json.loads((out / "disparity.json").read_text())
        assert rep["orderings"]["m_out_earns_w"] is True
        assert rep["orderings"]["effort_chain"] is True
        assert rep["reward_gap_misbelief_part"] == pytest.approx(1.0)
        # each group has one stable self-confirming equilibrium, which every
        # selector picks
        for selector in ("largest_belief", "smallest_belief"):
            other = tmp_path / selector
            assert main(["disparity", cfg, "--out-dir", str(other),
                         "--selector", selector]) == 0
            assert ((other / "disparity.json").read_bytes()
                    == (out / "disparity.json").read_bytes())
            manifest = json.loads((other / "manifest.json").read_text())
            assert manifest["parameters"]["selector"] == selector

    @pytest.mark.parametrize("flags", [("-1", "-0.5"), ("0.2", "0.3"),
                                       ("nan", "-0.3"), ("inf", "-0.3")])
    def test_disparity_needs_opposite_signs_exits_2(self, tmp_path, capsys,
                                                    flags):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["disparity", cfg, "--out-dir", str(out),
                     "--delta-m", flags[0], "--delta-w", flags[1]]) == 2
        assert "config error: need --delta-m > 0 > --delta-w" in \
            capsys.readouterr().err
        assert not (out / "disparity.json").exists()

    @pytest.mark.parametrize("old,new", [
        ("alpha = 0.5 0.5", "alpha = nan 0.5"),
        ("delta = 0.05 -0.05", "delta = inf -0.05"),
        ("beta_star = 2.0 2.0", "beta_star = 2.0 2.0\nmu_star = nan 0.0")])
    def test_multigroup_rejects_nonfinite_groups_exits_2(self, tmp_path, capsys,
                                                         old, new):
        cfg = write(tmp_path, GROUPS.replace(old, new))
        out = tmp_path / "out"
        assert main(["multigroup", cfg, "--out-dir", str(out),
                     "--horizon", "20"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_multigroup_command(self, tmp_path):
        cfg = write(tmp_path, GROUPS)
        out = tmp_path / "out"
        assert main(["multigroup", cfg, "--out-dir", str(out),
                     "--horizon", "200"]) == 0
        rep = json.loads((out / "multigroup.json").read_text())
        assert rep["delta_bar"] == pytest.approx(0.0)
        assert rep["eigen_check"]["bound_holds"] is True
        assert len(rep["color_sighted"]["beta_hat"]) == 2
        assert [m["beta_hat"] for m in rep["members"]] == [
            rep["color_sighted"]["beta_hat"]]
        assert rep["members"][0]["stable"] is True
        assert (out / "trajectory_groups.csv").exists()

    def test_check_passes_on_lq(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["check", cfg, "--out-dir", str(out), "--grid", "16"]) == 0
        rep = json.loads((out / "assumptions.json").read_text())
        assert rep["all_passed"] is True

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_check_grid_without_pairs_exits_2(self, tmp_path, capsys, grid):
        # a 1 x 1 grid has no two points to compare, so it certifies nothing
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        assert main(["check", cfg, "--out-dir", str(out), "--grid", grid]) == 2
        assert "grid >= 2" in capsys.readouterr().err
        assert not (out / "assumptions.json").exists()

    def test_format_restriction(self, tmp_path):
        cfg = write(tmp_path, THREE_EQ)
        out = tmp_path / "out"
        main(["solve", cfg, "--out-dir", str(out), "--format", "json"])
        assert not (out / "psi_curve.csv").exists()
        assert (out / "equilibria.json").exists()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, THREE_EQ)
        target = tmp_path / "env_out"
        monkeypatch.setenv("BERKLAB_OUT_DIR", str(target))
        assert main(["solve", cfg]) == 0
        assert (target / "equilibria.json").exists()
