"""Experiment harness: RMSE, cadence, determinism, frozen evaluation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import run_python, signed_magnitude

from adfq.agents import PolicySpec
from adfq.envs import MazeParseError, build_arms_mdp, build_maze, optimal_q
from adfq.harness import (
    AgentSpec,
    DomainSpec,
    ExperimentConfig,
    greedy_rollout,
    make_agent,
    mean_by_step,
    optimal_path_length,
    records_to_csv_text,
    rmse,
    run_convergence,
    run_learning,
)

SQRT_12_5 = 3.535533905932737622  # hand arithmetic: sqrt((9 + 16) / 2)


class TestRmse:
    def test_identical_tables(self):
        t = np.array([1.0, -2.0])
        assert rmse(t, t.copy()) == 0.0

    def test_constant_offset(self):
        a = np.array([1.0, 2.0, 3.0])
        assert rmse(a, a - 0.75) == pytest.approx(0.75, rel=1e-15)

    def test_hand_computed_instance(self):
        assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(SQRT_12_5, rel=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            rmse(np.zeros(1), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros(0), np.zeros(0))

    @given(
        st.lists(
            st.tuples(signed_magnitude(), signed_magnitude()), min_size=1, max_size=200
        )
    )
    def test_matches_dict_formula_bitwise(self, pairs):
        # rmse's formula when it took {(s, a): value} dicts: the CSVs hold
        # its values, so the array form must give the same bits
        est = {(k, 0): e for k, (e, _) in enumerate(pairs)}
        ref = {(k, 0): r for k, (_, r) in enumerate(pairs)}
        expected = float(np.sqrt(np.mean([(est[k] - ref[k]) ** 2 for k in est])))
        got = rmse(np.array([e for e, _ in pairs]), np.array([r for _, r in pairs]))
        assert got.hex() == expected.hex()


class TestDomainSpec:
    @pytest.mark.parametrize(
        "name, gamma, expected",
        [("loop", 0.0, 0.0), ("maze", 0.0, 0.0), ("arms", 0.0, 0.0),
         ("loop", None, 0.95), ("maze", None, 0.95), ("arms", None, 0.9)],
    )
    def test_gamma_reaches_the_mdp(self, name, gamma, expected):
        layout = "SG" if name == "maze" else None
        assert DomainSpec(name, layout=layout, gamma=gamma).build().gamma == expected


    def test_unknown_domain_refused_when_built(self):
        # refused at construction, not in ``build``, which a trial may run in a worker process
        with pytest.raises(ValueError, match="unknown domain 'bogus'"):
            DomainSpec("bogus")

    def test_arms_rejects_slip(self):
        # the arms MDP has no slip; a slip label on its CSVs would be false
        for slip in (0.3, -0.5, float("nan")):
            with pytest.raises(ValueError, match="slip"):
                DomainSpec("arms", slip=slip)

    @pytest.mark.parametrize("name", ["loop", "maze"])
    def test_only_arms_takes_n_arms(self, name):
        # an arm count the run would ignore is refused, not dropped, the
        # arms domain's default of 2 included
        for n_arms in (2, 5):
            with pytest.raises(ValueError, match="only the arms domain takes n_arms"):
                DomainSpec(name, n_arms=n_arms)

    def test_arms_defaults_to_two_arms(self):
        spec = DomainSpec("arms")
        assert spec == DomainSpec("arms", n_arms=2)
        assert spec.label == "arms2"
        assert spec.build().n_actions == 2

    @pytest.mark.parametrize("name", ["loop", "arms"])
    def test_only_maze_takes_a_layout(self, name):
        # a layout the run would ignore is refused, not dropped
        with pytest.raises(ValueError, match="only the maze domain takes a layout"):
            DomainSpec(name, layout="SG")

    def test_empty_layout_is_parsed_not_replaced(self):
        with pytest.raises(MazeParseError, match="maze layout is empty"):
            DomainSpec("maze", layout="").build()


class TestExperimentConfig:
    def test_rejects_empty_agent_list(self):
        with pytest.raises(ValueError, match="agent"):
            ExperimentConfig(domain=DomainSpec("arms"), horizon=10, seed=0, agents=())

    def test_rejects_repeated_agent_kind(self):
        # a second run of one kind would overwrite the first one's CSV
        with pytest.raises(ValueError, match="agent kinds must not repeat, got adfq, adfq"):
            ExperimentConfig(
                domain=DomainSpec("arms"), horizon=10, seed=0, agents=("adfq", "adfq")
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma_w", float("nan"), "sigma_w"),
            ("sigma_w", float("inf"), "sigma_w"),
            ("sigma_w", -0.1, "sigma_w"),
            ("init_mean_range", (float("nan"), 1.0), "init_mean_range"),
            ("init_mean_range", (0.0, float("inf")), "init_mean_range"),
            ("init_mean_range", (2.0, 1.0), "low <= high"),
            ("grid_points", 5, "at least 1001 points"),
            ("init_variance", 0.0, "at least the variance floor.*init_variance=0.0"),
            ("init_variance", float("nan"), "must be finite.*init_variance=nan"),
            ("variance_floor", -1.0, "variance_floor must be positive"),
            ("alpha0", 5.0, "alpha0"),
            ("alpha0", 0.0, "alpha0"),
            ("n0", -3.0, "n0"),
            ("n0", float("inf"), "n0"),
            # both ends finite, but numpy's uniform cannot draw over the range
            ("init_mean_range", (-1e308, 1e308), "init_mean_range"),
        ],
    )
    def test_rejects_bad_belief_settings(self, field, value, message):
        # the Q-learning agent builds no BeliefTable, so the spec checks these
        with pytest.raises(ValueError, match=message):
            AgentSpec(**{field: value})


class TestOptimalPathLength:
    def test_arms_two_steps(self):
        mdp = build_arms_mdp(2)
        assert optimal_path_length(mdp, optimal_q(mdp)) == 2

    def test_loop_falls_back_to_state_count(self):
        spec = DomainSpec("loop")
        mdp = spec.build()
        assert optimal_path_length(mdp, optimal_q(mdp)) == mdp.n_states

    def test_two_cell_maze(self):
        mdp = build_maze("SG")
        assert optimal_path_length(mdp, optimal_q(mdp)) == 1


SPEC = AgentSpec(PolicySpec("uniform_random"), sigma_w=0.1)


def _config(**kwargs):
    base = dict(
        domain=DomainSpec("arms", n_arms=2),
        horizon=200,
        seed=5,
        agents=("adfq",),
        agent_spec=SPEC,
        n_trials=2,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestMakeAgent:
    def test_agents_follow_the_config(self):
        spec = replace(
            SPEC, init_mean_range=(-2.0, 3.0), init_variance=7.5, variance_floor=1e-8,
            sigma_w=0.2, grid_points=2001, alpha0=0.25, n0=3.0,
        )
        mdp = build_arms_mdp(2)
        shape = (mdp.n_states, mdp.n_actions)
        analytic = make_agent(spec, "adfq", mdp, np.random.default_rng(4))
        numeric = make_agent(spec, "adfq-numeric", mdp, np.random.default_rng(4))
        for agent in (analytic, numeric):
            table = agent.table
            assert table.means.shape == shape and agent.policy == spec.policy
            assert np.all((table.means >= -2.0) & (table.means < 3.0))
            assert np.all(table.variances == 7.5)
            assert (table.gamma, table.sigma_w, table.variance_floor) == (mdp.gamma, 0.2, 1e-8)
        # identical streams give identical tables whichever belief agent it is
        np.testing.assert_array_equal(analytic.table.means, numeric.table.means)
        assert numeric.grid.n == 2001

        init_rng = np.random.default_rng(4)
        state = init_rng.bit_generator.state
        qlearner = make_agent(spec, "qlearning", mdp, init_rng)
        assert init_rng.bit_generator.state == state
        assert (qlearner.alpha0, qlearner.n0, qlearner.gamma) == (0.25, 3.0, mdp.gamma)
        np.testing.assert_array_equal(qlearner.estimates(), np.zeros(shape))
        with pytest.raises(ValueError, match="unknown agent kind 'sarsa'"):
            make_agent(spec, "sarsa", mdp, init_rng)


class TestRunConvergence:
    def test_zero_horizon_single_record(self):
        records = run_convergence(_config(horizon=0))["adfq"]
        assert [r.step for r in records] == [0, 0]
        assert all(r.rmse > 0 for r in records)

    def test_cadence_counts(self):
        records = run_convergence(_config(horizon=200, eval_every=50))["adfq"]
        per_trial = [r.step for r in records if r.trial == 0]
        assert per_trial == [0, 50, 100, 150, 200]

    def test_identical_seeds_identical_records(self):
        a = run_convergence(_config())["adfq"]
        b = run_convergence(_config())["adfq"]
        assert a == b

    def test_agents_share_trajectory_and_init(self):
        records = run_convergence(_config(agents=("adfq", "adfq-numeric")))
        # identical initial tables imply identical step-0 RMSE
        first_a = [r for r in records["adfq"] if r.step == 0]
        first_n = [r for r in records["adfq-numeric"] if r.step == 0]
        assert [r.rmse for r in first_a] == [r.rmse for r in first_n]

    def test_long_run_reduces_rmse(self):
        cfg = _config(
            domain=DomainSpec("arms", n_arms=2),
            horizon=2000,
            n_trials=3,
            seed=9,
        )
        rows = mean_by_step(run_convergence(cfg)["adfq"])
        q = optimal_q(cfg.domain.build())
        q_range = q.max() - q.min()
        assert rows[-1][1] < rows[0][1]
        assert rows[-1][1] < 0.1 * q_range

    @pytest.mark.parametrize("policy", ["epsilon_greedy", "thompson"])
    def test_policy_it_does_not_run_rejected(self, policy):
        # the trajectories are uniform whatever the policy, yet the CSV
        # would be named after it
        with pytest.raises(ValueError, match=f"got policy '{policy}'"):
            run_convergence(_config(agent_spec=replace(SPEC, policy=PolicySpec(policy))))

    def test_parallel_jobs_bitwise_identical(self):
        serial = run_convergence(_config(jobs=1, agents=("adfq", "qlearning")))
        parallel = run_convergence(_config(jobs=2, agents=("adfq", "qlearning")))
        for kind in serial:
            assert records_to_csv_text(serial[kind]) == records_to_csv_text(parallel[kind])

    def test_serial_run_imports_no_process_pool(self):
        # the pool's machinery is imported by the first --jobs > 1 run only
        result = run_python(
            "-c", 'import sys, adfq.cli; print("multiprocessing" in sys.modules)'
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestRunLearning:
    def test_thompson_with_qlearning_rejected_before_any_trial(self, monkeypatch):
        # at horizon 0 no action is ever selected, so only this check stops it
        built = []
        monkeypatch.setattr(DomainSpec, "build", lambda spec: built.append(spec))
        spec = replace(SPEC, policy=PolicySpec("thompson"))
        cfg = _config(agents=("qlearning",), agent_spec=spec, horizon=0)
        with pytest.raises(ValueError, match="thompson sampling needs belief variances"):
            run_learning(cfg)
        assert built == []

    def test_more_than_one_agent_rejected_before_any_trial(self, monkeypatch):
        built = []
        monkeypatch.setattr(DomainSpec, "build", lambda spec: built.append(spec))
        cfg = _config(agents=("adfq", "qlearning"))
        with pytest.raises(ValueError, match="learning runs one agent, got adfq, qlearning"):
            run_learning(cfg)
        assert built == []

    def test_trivial_maze_reaches_goal(self):
        cfg = _config(
            domain=DomainSpec("maze", layout="SG"),
            horizon=50,
            n_trials=1,
        )
        records = run_learning(cfg)
        # zero-flag maze scores 0 on success; the rollout is capped at
        # one step and must terminate at the goal
        assert all(r.greedy_return == 0.0 for r in records)

    def test_learning_improves_greedy_return(self):
        cfg = _config(
            domain=DomainSpec("loop"),
            horizon=4000,
            agent_spec=AgentSpec(
                PolicySpec("epsilon_greedy", epsilon=0.1),
                sigma_w=0.0,
                init_mean_range=(0.0, 20.0),
            ),
            n_trials=3,
            seed=2,
        )
        rows = mean_by_step(run_learning(cfg))
        assert rows[-1][2] > rows[0][2]

    def test_evaluation_does_not_mutate_agent(self):
        # the eval stream is split from the learning stream, so greedy
        # rollouts must not shift the learned trajectory: running the
        # same config with a different cadence yields identical tables,
        # which we observe through the final-step records
        cfg_sparse = _config(horizon=100, eval_every=100, n_trials=1)
        cfg_dense = _config(horizon=100, eval_every=10, n_trials=1)
        sparse = run_learning(cfg_sparse)
        dense = run_learning(cfg_dense)
        assert sparse[-1].step == dense[-1].step == 100
        assert sparse[-1].rmse == dense[-1].rmse

    def test_rollout_is_frozen(self):
        mdp = build_arms_mdp(2)
        estimates = np.zeros((mdp.n_states, mdp.n_actions))
        before = estimates.copy()
        greedy_rollout(mdp, estimates, cap=3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(estimates, before)


class TestCsvSerialization:
    def test_header_and_ordering(self):
        records = run_convergence(_config(horizon=100, eval_every=50))["adfq"]
        text = records_to_csv_text(records)
        lines = text.strip().split("\n")
        assert lines[0] == "trial,step,rmse,greedy_return,wall_ms"
        cols = [line.split(",") for line in lines[1:]]
        keys = [(int(c[0]), int(c[1])) for c in cols]
        assert keys == sorted(keys)
        assert all(c[4] == "0" for c in cols)  # timing column pinned

    def test_round_trip_floats_exact(self):
        records = run_convergence(_config(horizon=100))["adfq"]
        text = records_to_csv_text(records)
        for line, rec in zip(text.strip().split("\n")[1:], sorted(records, key=lambda r: (r.trial, r.step))):
            assert float(line.split(",")[2]) == rec.rmse
