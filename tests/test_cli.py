"""Command-line surface: subcommands, config files, exit codes, output."""

import math
import os

import pytest
from support import run_python

from adfq.cli import main
from adfq.harness import (
    AgentSpec,
    DomainSpec,
    ExperimentConfig,
    records_to_csv_text,
    run_learning,
)


@pytest.fixture
def run_cli(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestSolve:
    def test_loop_prints_full_table(self, run_cli):
        code, out, _ = run_cli("solve", "--domain", "loop", "--slip", "0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "state,action,qstar,greedy"
        assert len(lines) == 1 + 9 * 2
        starred = [line for line in lines[1:] if line.endswith("*")]
        assert len(starred) == 9

    def test_arms_domain(self, run_cli):
        code, out, _ = run_cli("solve", "--domain", "arms", "--n-arms", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 5 * 3


class TestUpdateDemo:
    def test_default_prints_branches_and_references(self, run_cli):
        code, out, _ = run_cli("update-demo")
        assert code == 0
        assert "analytic update" in out
        assert "nan" not in out
        assert "quadrature ref" in out
        assert out.count("\n") > 5

    def test_two_action_includes_closed_form(self, run_cli):
        for noise in ((), ("--sigma-w", "0.3")):
            code, out, _ = run_cli("update-demo", "--next", "1:1,2:0.5", *noise)
            assert code == 0
            assert "exact two-action" in out

    def test_bad_belief_spec_is_config_error(self, run_cli):
        code, _, err = run_cli("update-demo", "--prior", "nonsense")
        assert code == 2
        assert "error" in err

    def test_next_needs_an_entry(self, run_cli):
        code, out, err = run_cli("update-demo", "--next", ",")
        assert code == 2
        assert "--next needs at least one mean:variance entry" in err
        assert out == ""

    def test_variances_below_the_default_floor_accepted(self, run_cli):
        # the demo writes nothing back, so no floor limits what it may read
        code, out, _ = run_cli("update-demo", "--prior", "0:1e-11", "--next", "1:1e-12,2:0.5")
        assert code == 0
        assert "analytic update" in out

    def test_narrow_beliefs_show_their_weights_and_variances(self, run_cli):
        # branch 0 carries weight 0.999999 at log_c -3.7e10, where exp(log_c)
        # is 0.0, and variances of 1e-11 and below read 0 in fixed notation
        code, out, _ = run_cli("update-demo", "--prior", "0:1e-11", "--next", "1:1e-12,2:0.5")
        assert code == 0
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["b"])
        names = lines[header].split()
        rows = [dict(zip(names, line.split())) for line in lines[header + 1 : header + 3]]
        log_c = [float(row["log_c"]) for row in rows]
        assert all(math.isfinite(x) for x in log_c) and log_c[0] != log_c[1]
        variances = [float(row[k]) for row in rows for k in ("target_v", "var_bar", "var*")]
        variances.append(float(lines[0].split()[-1]))
        assert all(v > 0.0 for v in variances), variances

    @pytest.mark.parametrize("flag, entry", [("--next", "1:0"), ("--prior", "0:-0.5")])
    def test_non_positive_variance_names_the_entry(self, run_cli, flag, entry):
        code, out, err = run_cli("update-demo", flag, entry)
        assert code == 2
        assert f"belief variance must be positive, got {entry!r}" in err
        assert "variance_floor" not in err
        assert out == ""

    def test_variance_floor_is_no_config_key(self, run_cli, tmp_path):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("variance-floor = 1e-10\n")
        code, _, err = run_cli("update-demo", "--config", str(cfg))
        assert code == 2
        assert "unknown config key 'variance-floor'" in err

    def test_vanished_density_is_a_runtime_failure(self, run_cli):
        # finite inputs whose analytic update runs, but the quadrature's
        # density underflows on every cell of its grid
        code, out, err = run_cli("update-demo", "--prior", "0:1", "--next", "1e300:1,0:1")
        assert code == 1
        assert "runtime failure: posterior density vanished on the whole grid" in err
        assert "analytic update" in out

    def test_overflowing_grid_span_is_refused(self, run_cli):
        # auto bounds near -1e308 and 1e308, each finite; their span is not
        code, out, err = run_cli("update-demo", "--prior", "0:1", "--next", "1e308:1,-1e308:1")
        assert code == 2
        assert "grid needs lo < hi and a finite span" in err
        assert "analytic update" in out

    def test_skipped_branches_are_explained(self, run_cli):
        # branch 2's target lies 36 below the prior at variance 1e-4: it is
        # skipped at weight exactly 0.0, so its peak reads nan
        code, out, _ = run_cli(
            "update-demo", "--prior", "0:0.0001", "--next", "0:0.0001,3:0.0001,-40:0.0001"
        )
        assert code == 0
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["b"])
        rows = [line.split() for line in lines[header + 1 : header + 4]]
        assert [row[0] for row in rows if "nan" in row] == ["2"]
        assert rows[2][6:] == ["nan", "nan", "nan", "0.000000"]
        assert lines[header + 4] == (
            "nan rows: branches skipped at weight exactly 0, peaks not solved"
        )

    def test_small_grid_exits_2_before_printing(self, run_cli):
        code, out, err = run_cli("update-demo", "--quad-points", "500")
        assert code == 2
        assert "at least 1001 points, got 500 (quad_points=500)" in err
        assert out == ""


class TestOracleCheck:
    def test_deterministic_given_seed(self, run_cli):
        args = ("oracle-check", "--trials", "40", "--seed", "7")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_closed_stdout_exits_quietly(self):
        # the reader has gone before the first write, as `| head` goes
        # after its lines; closing the read end first makes every run fail
        # the write, where a live `| head` races the writer
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_python(
                "-m", "adfq.cli", "oracle-check", "--seed", "3", "--trials", "20",
                "--max-actions", "2", stdout=write_end,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 0
        assert result.stderr == ""

    def test_seed_required(self):
        result = run_python("-m", "adfq.cli", "oracle-check", "--trials", "5")
        assert result.returncode == 2
        assert "--seed" in result.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--trials", "0"), ("--trials", "-5"), ("--max-actions", "1")]
    )
    def test_rejects_out_of_range_sizes(self, run_cli, flag, value):
        code, out, err = run_cli("oracle-check", "--seed", "0", flag, value)
        assert code == 2
        assert flag in err
        assert out == ""

    def test_prints_variance_error_beside_mean_error(self, run_cli):
        code, out, _ = run_cli("oracle-check", "--trials", "40", "--seed", "7", "--max-actions", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("analytic vs quadrature, max relative mean error :")
        worst = float(lines[4].split(": ")[1])
        assert lines[4].startswith("analytic vs quadrature, max relative variance error :")
        quartiles = [float(q) for q in lines[5].split(": ")[1].split()]
        assert lines[5].startswith("analytic vs quadrature, variance error quartiles")
        assert 0.0 <= quartiles[0] <= quartiles[1] <= quartiles[2] <= worst
        assert lines[6] == "analytic vs quadrature, median variance error by |A|:"
        assert [line.split(":")[0] for line in lines[7:]] == ["  |A| =  2", "  |A| =  3"]

    def test_closed_form_runs_under_noise(self, run_cli):
        code, out, _ = run_cli(
            "oracle-check", "--seed", "3", "--trials", "20", "--sigma-w", "0.3",
            "--max-actions", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("closed form vs quadrature, max relative error   :")
        assert float(lines[2].split(": ")[1]) < 1e-12
        assert lines[3].startswith("analytic vs closed form, max relative error     :")
        assert float(lines[3].split(": ")[1]) > 0.0

    def test_closed_form_lines_without_two_actions(self, run_cli):
        # seed 0 draws nine actions for its one configuration
        code, out, _ = run_cli("oracle-check", "--seed", "0", "--trials", "1", "--max-actions", "10")
        assert code == 0
        assert out.splitlines()[2:4] == [
            "closed form vs quadrature, max relative error   : n/a",
            "analytic vs closed form, max relative error     : n/a",
        ]

    def test_small_grid_names_the_setting(self, run_cli):
        code, out, err = run_cli("oracle-check", "--seed", "0", "--quad-points", "5")
        assert code == 2
        assert "at least 1001 points, got 5 (quad_points=5)" in err
        assert out == ""


class TestArgumentHandling:
    def test_unknown_flag_exits_2_with_usage(self):
        result = run_python("-m", "adfq.cli", "solve", "--bogus")
        assert result.returncode == 2
        assert "usage" in result.stderr

    def test_unknown_subcommand_exits_2(self):
        result = run_python("-m", "adfq.cli", "frobnicate")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "command", ["update-demo", "convergence", "learn", "oracle-check", "solve"]
    )
    def test_domain_flags_state_one_default(self, capsys, command):
        # these help texts state the default, or that the flag has none;
        # argparse must not add "(default: None)"
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        flags = [("--config CONFIG", "flat key=value config file")]
        if command in ("convergence", "learn", "solve"):
            flags += [
                ("--n-arms N_ARMS", "arms for the arms domain (default: 2)"),
                ("--maze-file MAZE_FILE", "maze layout file (default: bundled maze)"),
                ("--gamma GAMMA", "discount override (default: domain standard)"),
            ]
        if command in ("convergence", "learn"):
            flags += [
                ("--eval-every EVAL_EVERY", "evaluation cadence (default horizon/100)"),
                ("--seed SEED", "experiment seed (required for reproducibility)"),
                ("--out OUT", "output directory (default: $ADFQ_OUTPUT_DIR or '.')"),
            ]
        if command == "oracle-check":
            flags += [("--seed SEED", "sweep seed (required)")]
        for flag, help_text in flags:
            assert f"{flag} {help_text} --" in text

    def test_help_lists_hyperparameter_defaults(self):
        result = run_python("-m", "adfq.cli", "learn", "--help")
        assert result.returncode == 0
        assert "--sigma-w" in result.stdout
        assert "100.0" in result.stdout  # initial variance default
        assert "1e-10" in result.stdout  # variance floor default


class TestExperiments:
    def test_learn_writes_expected_record_count(self, run_cli, tmp_path):
        code, out, _ = run_cli(
            "learn", "--domain", "arms", "--agent", "adfq", "--policy", "uniform",
            "--horizon", "200", "--trials", "2", "--seed", "3",
            "--sigma-w", "0.1", "--out", str(tmp_path),
        )
        assert code == 0
        csv_files = list(tmp_path.glob("learn_*.csv"))
        assert len(csv_files) == 1
        lines = csv_files[0].read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 101  # header + trials * (initial + 100 evals)

    def test_convergence_one_file_per_agent(self, run_cli, tmp_path):
        code, out, _ = run_cli(
            "convergence", "--domain", "arms", "--agents", "adfq,qlearning",
            "--horizon", "100", "--trials", "1", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "convergence_arms2_adfq_uniform_random.csv",
            "convergence_arms2_qlearning_uniform_random.csv",
        ]

    def test_rerun_is_byte_identical_across_jobs(self, run_cli, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir, jobs in ((out_a, "1"), (out_b, "2")):
            code, _, _ = run_cli(
                "learn", "--domain", "loop", "--agent", "adfq", "--policy", "ts",
                "--horizon", "300", "--trials", "3", "--seed", "5",
                "--jobs", jobs, "--out", str(out_dir),
            )
            assert code == 0
        (file_a,) = out_a.glob("*.csv")
        (file_b,) = out_b.glob("*.csv")
        assert file_a.read_bytes() == file_b.read_bytes()

    @pytest.mark.parametrize("agent", ["adfq", "adfq-numeric", "qlearning"])
    def test_cli_defaults_match_library_defaults(self, run_cli, tmp_path, agent):
        # each kind reads its own defaults: the belief settings, the grid, the schedule
        horizon = 50 if agent == "adfq-numeric" else 200
        code, _, _ = run_cli(
            "learn", "--domain", "arms", "--agent", agent, "--seed", "3",
            "--horizon", str(horizon), "--trials", "1", "--out", str(tmp_path),
        )
        assert code == 0
        (path,) = tmp_path.glob("*.csv")
        config = ExperimentConfig(
            domain=DomainSpec("arms"), horizon=horizon, seed=3, agents=(agent,),
            agent_spec=AgentSpec(), n_trials=1,
        )
        assert path.read_text() == records_to_csv_text(run_learning(config))

    @pytest.mark.parametrize(
        "flag, value", [("--n0", "-1"), ("--alpha0", "-3"), ("--alpha0", "nan")]
    )
    def test_broken_qlearning_schedule_exits_2(self, tmp_path, flag, value):
        # n0 = -1 makes the first step size 0/0; alpha0 < 0 diverges
        result = run_python(
            "-m", "adfq.cli", "learn", "--domain", "arms", "--agent", "qlearning",
            flag, value, "--seed", "0", "--horizon", "200", "--trials", "1",
            "--out", str(tmp_path),
        )
        assert result.returncode == 2
        assert flag.lstrip("-") in result.stderr
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("learn", "--domain", "loop", "--sigma-w", "nan"), "sigma_w must be finite"),
            (("learn", "--domain", "arms", "--sigma-w", "inf"), "sigma_w must be finite"),
            (("learn", "--domain", "arms", "--slip", "0.3"), "no slip"),
            (("convergence", "--agents", ","), "at least one agent"),
            (("convergence", "--agents", "adfq,sarsa"), "unknown agent kind 'sarsa'"),
            (("learn", "--domain", "arms", "--agent", "qlearning", "--sigma-w", "nan"),
             "sigma_w must be finite"),
            (("learn", "--domain", "arms", "--agent", "qlearning", "--init-mean-low", "nan"),
             "init_mean_range must be finite"),
            (("learn", "--domain", "arms", "--agent", "qlearning",
              "--init-mean-low", "2", "--init-mean-high", "1"), "low <= high"),
            # os.devnull reads as an empty file, and nothing exists under it
            (("learn", "--domain", "maze", "--maze-file", os.devnull), "maze layout is empty"),
            (("learn", "--domain", "loop", "--maze-file", os.devnull),
             "only the maze domain takes a layout"),
            (("learn", "--domain", "loop", "--maze-file", os.path.join(os.devnull, "maze.txt")),
             "cannot read maze file"),
            (("learn", "--domain", "arms", "--slip", "-0.5"), "no slip"),
            (("learn", "--domain", "arms", "--slip", "nan"), "no slip"),
            (("learn", "--domain", "loop", "--n-arms", "5"), "only the arms domain takes n_arms"),
            (("learn", "--domain", "loop", "--n-arms", "2"), "only the arms domain takes n_arms"),
            (("learn", "--domain", "arms", "--agent", "adfq", "--alpha0", "5"),
             "alpha0 must lie in (0, 1]"),
            (("learn", "--domain", "arms", "--agent", "adfq", "--n0", "-3"),
             "n0 must be finite and exceed -1"),
            (("learn", "--domain", "arms", "--agent", "qlearning", "--variance-floor", "-1"),
             "variance_floor must be positive"),
            (("learn", "--domain", "arms", "--agent", "qlearning", "--init-variance", "0"),
             "at least the variance floor (init_variance=0.0"),
            (("learn", "--domain", "arms", "--agent", "qlearning", "--variance-floor", "200"),
             "at least the variance floor (init_variance=100.0, variance_floor=200.0"),
            (("learn", "--domain", "loop", "--init-mean-low=-1e308", "--init-mean-high=1e308"),
             "init_mean_range must be finite with low <= high and a finite high - low"),
            (("learn", "--domain", "arms", "--agent", "adfq-numeric", "--grid-points", "5"),
             "at least 1001 points, got 5 (grid_points=5)"),
            (("learn", "--domain", "loop", "--policy", "boltzmann", "--temperature", "inf"),
             "temperature must be finite and positive, got inf"),
            (("learn", "--domain", "loop", "--horizon", "-1"), "horizon must be nonnegative"),
            (("learn", "--domain", "loop", "--trials", "0"), "need at least one trial"),
            (("learn", "--domain", "loop", "--seed", "-1"), "seed must be a nonnegative integer"),
            (("learn", "--domain", "loop", "--eval-every", "0"), "eval_every must be positive"),
            (("learn", "--domain", "loop", "--jobs", "0"), "jobs must be positive"),
        ],
        ids=[
            "loop-sigma-w-nan", "arms-sigma-w-inf", "arms-slip", "no-agents", "unknown-agent",
            "qlearning-sigma-w-nan", "qlearning-init-mean-nan", "qlearning-init-mean-reversed",
            "maze-empty-layout", "loop-maze-file", "loop-missing-maze-file",
            "arms-slip-negative", "arms-slip-nan", "loop-n-arms", "loop-n-arms-2",
            "adfq-alpha0", "adfq-n0",
            "qlearning-variance-floor", "qlearning-init-variance",
            "qlearning-variance-floor-above-init", "loop-init-mean-overflow",
            "numeric-grid-points", "boltzmann-temperature-inf", "horizon-negative",
            "trials-0", "seed-negative", "eval-every-0", "jobs-0",
        ],
    )
    def test_invalid_run_settings_exit_2(self, run_cli, tmp_path, argv, message):
        # the row's own flags come last, so they override these settings
        command, *flags = argv
        code, _, err = run_cli(
            command, "--seed", "0", "--horizon", "20", "--trials", "1", "--out", str(tmp_path),
            *flags,
        )
        assert code == 2
        assert message in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("learn", "--domain", "loop", "--agent", "qlearning", "--policy", "ts"),
             "thompson sampling needs belief variances"),
            (("convergence", "--domain", "arms", "--agents", "adfq,adfq"),
             "agent kinds must not repeat"),
        ],
        ids=["qlearning-thompson", "repeated-agent"],
    )
    def test_rejected_at_horizon_0_before_the_run(
        self, run_cli, tmp_path, monkeypatch, argv, message
    ):
        # horizon 0 selects no action and runs each agent once, so no
        # failure inside a trial would reject these
        built = []
        monkeypatch.setattr(DomainSpec, "build", lambda spec: built.append(spec))
        code, out, err = run_cli(
            *argv, "--seed", "0", "--horizon", "0", "--trials", "1", "--out", str(tmp_path)
        )
        assert code == 2
        assert message in err
        assert out == ""
        assert not list(tmp_path.glob("*.csv"))
        assert built == []

    def test_small_grid_exits_2_before_the_run(self, run_cli, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(DomainSpec, "build", lambda spec: built.append(spec))
        code, out, err = run_cli(
            "learn", "--domain", "maze", "--agent", "adfq-numeric", "--grid-points", "500",
            "--seed", "0", "--horizon", "20", "--trials", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "at least 1001 points, got 500 (grid_points=500)" in err
        assert out == ""
        assert not list(tmp_path.glob("*.csv"))
        assert built == []

    @pytest.mark.parametrize("agent", ["adfq", "qlearning"])
    def test_boltzmann_greedy_limit_runs(self, run_cli, tmp_path, agent):
        # value / temperature overflowed and the probabilities came out NaN
        code, _, err = run_cli(
            "learn", "--domain", "loop", "--agent", agent, "--policy", "boltzmann",
            "--temperature", "1e-310", "--horizon", "200", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert (code, err) == (0, "")
        assert len(list(tmp_path.glob("*.csv"))) == 1

    def test_output_dir_env_var(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setenv("ADFQ_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            "learn", "--domain", "arms", "--agent", "qlearning", "--policy", "egreedy",
            "--horizon", "100", "--trials", "1", "--seed", "4",
        )
        assert code == 0
        assert list(tmp_path.glob("learn_*.csv"))


class TestConfigFile:
    def test_config_file_supplies_values_and_flags_override(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "domain = arms\nhorizon = 100\ntrials = 1\nseed = 9\n"
            "out = {}\n# comment line\nsigma-w = 0.1\n".format(tmp_path)
        )
        code, out, _ = run_cli("convergence", "--config", str(cfg), "--agents", "adfq")
        assert code == 0
        assert (tmp_path / "convergence_arms2_adfq_uniform_random.csv").exists()

        out_b = tmp_path / "b"
        code, _, _ = run_cli(
            "convergence", "--config", str(cfg), "--agents", "adfq", "--out", str(out_b)
        )
        assert code == 0
        assert (out_b / "convergence_arms2_adfq_uniform_random.csv").exists()

    def test_unknown_config_key_rejected(self, run_cli, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_knob = 1\n")
        code, _, err = run_cli("solve", "--config", str(cfg))
        assert code == 2
        assert "bogus_knob" in err

    def test_missing_config_file_rejected(self, run_cli):
        code, _, err = run_cli("solve", "--config", "/nonexistent/x.cfg")
        assert code == 2

    def test_config_equals_and_space_forms_agree(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain = arms\nhorizon = 100\ntrials = 1\nseed = 9\nn0 = 3\n")
        texts = []
        for name, config_args in (("eq", [f"--config={cfg}"]), ("sp", ["--config", str(cfg)])):
            out = tmp_path / name
            code, _, _ = run_cli("learn", *config_args, "--agent", "qlearning", "--out", str(out))
            assert code == 0
            (path,) = out.glob("*.csv")
            assert path.name == "learn_arms2_qlearning_epsilon_greedy.csv"
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon = 2x\n")
        result = run_python("-m", "adfq.cli", "learn", "--config", str(cfg), "--seed", "1")
        assert result.returncode == 2
        assert "--epsilon" in result.stderr

    def test_abbreviated_config_key_rejected(self, tmp_path):
        # argparse would read ``--sig=0.3`` as ``--sigma-w 0.3``
        cfg = tmp_path / "abbrev.cfg"
        cfg.write_text("sig = 0.3\n")
        result = run_python(
            "-m", "adfq.cli", "learn", "--config", str(cfg), "--seed", "1",
            "--horizon", "10", "--out", str(tmp_path),
        )
        assert result.returncode == 2
        assert "unknown config key 'sig'" in result.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_abbreviated_flag_rejected(self, tmp_path):
        # argparse's default prefix matching would read --sig as --sigma-w
        result = run_python(
            "-m", "adfq.cli", "learn", "--sig", "0.3", "--seed", "1",
            "--horizon", "10", "--out", str(tmp_path),
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --sig" in result.stderr
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, line",
        [("learn", "agents = adfq"), ("convergence", "quad-points = 4001")],
    )
    def test_other_subcommands_key_rejected(self, run_cli, tmp_path, command, line):
        # --agents belongs to convergence and --quad-points to update-demo
        cfg = tmp_path / "other.cfg"
        cfg.write_text(line + "\n")
        key = line.split(" = ")[0]
        code, _, err = run_cli(
            command, "--config", str(cfg), "--seed", "1", "--horizon", "10",
            "--trials", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert f"error: {cfg}: unknown config key {key!r}" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_nested_config_file_rejected(self, run_cli, tmp_path):
        # a config line was once parsed as --config and silently ignored
        cfg = tmp_path / "nested.cfg"
        cfg.write_text("domain = arms\nconfig = /nonexistent/file\n")
        code, out, err = run_cli("solve", "--config", str(cfg))
        assert code == 2
        assert f"error: {cfg}:2: config files do not nest" in err
        assert out == ""

    def test_line_without_equals_names_its_line(self, run_cli, tmp_path):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("domain = loop\nhorizon\n")
        code, out, err = run_cli("learn", "--config", str(cfg), "--seed", "1")
        assert code == 2
        assert f"error: {cfg}:2: expected 'key = value'" in err
        assert out == ""

    def test_underscore_config_key_rejected(self, run_cli, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma_w = 0.1\n")
        code, _, err = run_cli("learn", "--config", str(cfg), "--seed", "1")
        assert code == 2
        assert "sigma_w" in err
