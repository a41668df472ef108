"""Command-line surface: subcommands, config files, exit codes, output."""

import pytest
from support import run_python

from adfq.cli import main
from adfq.harness import DomainSpec, ExperimentConfig, records_to_csv_text, run_learning


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
        assert "quadrature ref" in out
        assert out.count("\n") > 5

    def test_two_action_includes_closed_form(self, run_cli):
        code, out, _ = run_cli("update-demo", "--next", "1:1,2:0.5")
        assert code == 0
        assert "exact two-action" in out

    def test_bad_belief_spec_is_config_error(self, run_cli):
        code, _, err = run_cli("update-demo", "--prior", "nonsense")
        assert code == 2
        assert "error" in err

    def test_small_grid_exits_2_before_printing(self, run_cli):
        code, out, err = run_cli("update-demo", "--quad-points", "500")
        assert code == 2
        assert "at least 1001 points" in err
        assert out == ""


class TestOracleCheck:
    def test_deterministic_given_seed(self, run_cli):
        args = ("oracle-check", "--trials", "40", "--seed", "7")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2

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


class TestArgumentHandling:
    def test_unknown_flag_exits_2_with_usage(self):
        result = run_python("-m", "adfq.cli", "solve", "--bogus")
        assert result.returncode == 2
        assert "usage" in result.stderr

    def test_unknown_subcommand_exits_2(self):
        result = run_python("-m", "adfq.cli", "frobnicate")
        assert result.returncode == 2

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

    def test_cli_defaults_match_library_defaults(self, run_cli, tmp_path):
        code, _, _ = run_cli(
            "learn", "--domain", "arms", "--agent", "qlearning", "--seed", "3",
            "--horizon", "200", "--trials", "1", "--out", str(tmp_path),
        )
        assert code == 0
        (path,) = tmp_path.glob("*.csv")
        config = ExperimentConfig(
            domain=DomainSpec("arms"), horizon=200, seed=3, agents=("qlearning",), n_trials=1
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
            (("learn", "--domain", "arms", "--agent", "qlearning", "--sigma-w", "nan"),
             "sigma_w must be finite"),
            (("learn", "--domain", "arms", "--agent", "qlearning", "--init-mean-low", "nan"),
             "init_mean_range must be finite"),
            (("learn", "--domain", "arms", "--agent", "qlearning",
              "--init-mean-low", "2", "--init-mean-high", "1"), "low <= high"),
        ],
        ids=[
            "loop-sigma-w-nan", "arms-sigma-w-inf", "arms-slip", "no-agents",
            "qlearning-sigma-w-nan", "qlearning-init-mean-nan", "qlearning-init-mean-reversed",
        ],
    )
    def test_invalid_run_settings_exit_2(self, run_cli, tmp_path, argv, message):
        code, _, err = run_cli(
            *argv, "--seed", "0", "--horizon", "20", "--trials", "1", "--out", str(tmp_path)
        )
        assert code == 2
        assert message in err
        assert not list(tmp_path.glob("*.csv"))

    def test_small_grid_exits_2_before_the_run(self, run_cli, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(DomainSpec, "build", lambda spec: built.append(spec))
        code, out, err = run_cli(
            "learn", "--domain", "maze", "--agent", "adfq-numeric", "--grid-points", "500",
            "--seed", "0", "--horizon", "20", "--trials", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "at least 1001 points" in err
        assert out == ""
        assert not list(tmp_path.glob("*.csv"))
        assert built == []

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

    def test_underscore_config_key_rejected(self, run_cli, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma_w = 0.1\n")
        code, _, err = run_cli("learn", "--config", str(cfg), "--seed", "1")
        assert code == 2
        assert "sigma_w" in err
