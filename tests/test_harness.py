"""Experiment harness: RMSE, cadence, determinism, frozen evaluation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import signed_magnitude

from adfq.agents import PolicySpec
from adfq.envs import build_arms_mdp, build_maze, optimal_q
from adfq.harness import (
    DomainSpec,
    ExperimentConfig,
    greedy_rollout,
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


    def test_arms_rejects_slip(self):
        # the arms MDP has no slip; a slip label on its CSVs would be false
        with pytest.raises(ValueError, match="slip"):
            DomainSpec("arms", slip=0.3)


class TestExperimentConfig:
    def test_rejects_empty_agent_list(self):
        with pytest.raises(ValueError, match="agent"):
            ExperimentConfig(domain=DomainSpec("arms"), horizon=10, seed=0, agents=())

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
        ],
    )
    def test_rejects_bad_belief_settings(self, field, value, message):
        # the Q-learning agent builds no BeliefTable, so the config checks these
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(
                domain=DomainSpec("arms"), horizon=10, seed=0, agents=("qlearning",),
                **{field: value},
            )


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


def _config(**kwargs):
    base = dict(
        domain=DomainSpec("arms", n_arms=2),
        horizon=200,
        seed=5,
        agents=("adfq",),
        policy=PolicySpec("uniform_random"),
        n_trials=2,
        sigma_w=0.1,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


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

    def test_parallel_jobs_bitwise_identical(self):
        serial = run_convergence(_config(jobs=1, agents=("adfq", "qlearning")))
        parallel = run_convergence(_config(jobs=2, agents=("adfq", "qlearning")))
        for kind in serial:
            assert records_to_csv_text(serial[kind]) == records_to_csv_text(parallel[kind])


class TestRunLearning:
    def test_trivial_maze_reaches_goal(self):
        cfg = _config(
            domain=DomainSpec("maze", layout="SG"),
            horizon=50,
            policy=PolicySpec("uniform_random"),
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
            policy=PolicySpec("epsilon_greedy", epsilon=0.1),
            n_trials=3,
            sigma_w=0.0,
            init_mean_range=(0.0, 20.0),
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
