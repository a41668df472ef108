"""Policies, the Q-learning baseline, and the agent step loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import log_uniform_variance, signed_magnitude

from adfq.agents import (
    AdfqAgent,
    EpisodeRunner,
    PolicySpec,
    QLearningAgent,
    QTable,
    agent_step,
    qlearning_update,
    select_action,
)
from adfq.beliefs import BeliefTable, Transition
from adfq.engine import adfq_update
from adfq.envs import build_arms_mdp, build_loop, build_maze
from adfq.harness import AgentSpec, make_agent


def _belief_table(means, variances, gamma=0.9, floor=1e-10):
    return BeliefTable(
        np.asarray(means, dtype=float),
        np.asarray(variances, dtype=float),
        gamma=gamma,
        variance_floor=floor,
    )


class TestSelectAction:
    def test_pure_argmax(self):
        table = _belief_table([[1.0, 3.0, 2.0]], [[1.0, 1.0, 1.0]])
        policy = PolicySpec("epsilon_greedy", epsilon=0.0)
        rng = np.random.default_rng(0)
        assert select_action(policy, 0, table, rng) == 1

    def test_argmax_breaks_ties_low(self):
        table = _belief_table([[2.0, 2.0, 1.0]], [[1.0, 1.0, 1.0]])
        policy = PolicySpec("epsilon_greedy", epsilon=0.0)
        assert select_action(policy, 0, table, np.random.default_rng(0)) == 0

    def test_full_exploration_is_uniform(self):
        table = _belief_table([[0.0, 10.0, 0.0]], [[1.0, 1.0, 1.0]])
        policy = PolicySpec("epsilon_greedy", epsilon=1.0)
        rng = np.random.default_rng(123)
        n = 100_000
        counts = np.bincount(
            [select_action(policy, 0, table, rng) for _ in range(n)], minlength=3
        )
        p = 1.0 / 3.0
        sigma = np.sqrt(p * (1 - p) * n)
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    def test_thompson_near_deterministic_when_confident(self):
        table = _belief_table([[10.0, 0.0]], [[1e-12, 1e-12]], floor=1e-12)
        policy = PolicySpec("thompson")
        rng = np.random.default_rng(5)
        picks = [select_action(policy, 0, table, rng) for _ in range(10_000)]
        assert all(p == 0 for p in picks)

    def test_thompson_explores_when_uncertain(self):
        table = _belief_table([[1.0, 0.0]], [[100.0, 100.0]])
        policy = PolicySpec("thompson")
        rng = np.random.default_rng(6)
        picks = np.array([select_action(policy, 0, table, rng) for _ in range(20_000)])
        frac = picks.mean()
        assert 0.4 < frac < 0.55  # slight tilt toward the higher mean

    @given(
        st.integers(1, 50).flatmap(
            lambda n: st.tuples(
                st.lists(signed_magnitude(), min_size=n, max_size=n),
                st.lists(log_uniform_variance(), min_size=n, max_size=n),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_thompson_draws_what_normal_draws(self, beliefs, seed):
        # the draw goes through standard_normal; numpy's normal() computes
        # loc + scale * z from the same z, so the pick and the generator's
        # later state must match bit for bit
        means, variances = beliefs
        table = _belief_table([means], [variances])
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        picked = select_action(PolicySpec("thompson"), 0, table, rng)
        assert picked == int(np.argmax(twin.normal(means, np.sqrt(variances))))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_thompson_rejects_qtable(self):
        qt = QTable(1, 2)
        with pytest.raises(ValueError):
            select_action(PolicySpec("thompson"), 0, qt, np.random.default_rng(0))

    def test_boltzmann_frequencies(self):
        qt = QTable(1, 2)
        qt.values[0] = [1.0, 0.0]
        policy = PolicySpec("boltzmann", temperature=1.0)
        rng = np.random.default_rng(11)
        n = 50_000
        picks = np.array([select_action(policy, 0, qt, rng) for _ in range(n)])
        expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs((picks == 0).mean() - expected) < 3 * sigma

    @pytest.mark.parametrize("state", [-1, 3])
    def test_out_of_range_state_rejected(self, state):
        # numpy would wrap -1 onto the last state's row
        for table in (QTable(3, 2), _belief_table(np.zeros((3, 2)), np.ones((3, 2)))):
            with pytest.raises(ValueError, match=f"state {state} out of range"):
                select_action(PolicySpec("uniform_random"), state, table, np.random.default_rng(0))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PolicySpec("softmax")
        with pytest.raises(ValueError):
            PolicySpec("epsilon_greedy", epsilon=1.5)
        with pytest.raises(ValueError):
            PolicySpec("boltzmann", temperature=0.0)


class TestQlearningUpdate:
    def test_first_visit_overwrites_with_unit_rate(self):
        qt = QTable(2, 2)
        qt.values[1] = [4.0, 7.0]
        tau = Transition(0, 0, 1.0, 1)
        new_q = qlearning_update(qt, tau, alpha0=1.0, n0=0.0, gamma=0.5)
        assert new_q == pytest.approx(1.0 + 0.5 * 7.0)
        assert qt.visit_counts[0, 0] == 1

    @pytest.mark.parametrize("index", ["-1", "n"])
    @pytest.mark.parametrize("field", ["s", "a", "s_next"])
    def test_out_of_range_index_rejected(self, field, index):
        # numpy would wrap -1 onto another entry and raise its own IndexError at n
        qt = QTable(3, 2)
        n = 2 if field == "a" else 3
        fields = {"s": 0, "a": 0, "r": 1.0, "s_next": 1, field: -1 if index == "-1" else n}
        tau = Transition(**fields)
        with pytest.raises(ValueError, match="transition index out of range"):
            qlearning_update(qt, tau, alpha0=0.5, n0=0.0, gamma=0.9)
        assert not qt.visit_counts.any() and not qt.values.any()

    def test_terminal_bootstraps_from_reward_only(self):
        qt = QTable(2, 2)
        qt.values[1] = [100.0, 100.0]
        new_q = qlearning_update(
            qt, Transition(0, 0, 2.0, 1, terminal=True), alpha0=1.0, n0=0.0, gamma=0.9
        )
        assert new_q == 2.0

    def test_two_state_chain_converges_to_geometric_sum(self):
        # r=1 everywhere, gamma=0.5: Q* = 2 at every pair
        qt = QTable(2, 1)
        s = 0
        for _ in range(20_000):
            s_next = 1 - s
            qlearning_update(qt, Transition(s, 0, 1.0, s_next), 0.5, 20.0, 0.5)
            s = s_next
        np.testing.assert_allclose(qt.values, 2.0, atol=1e-6)

    def test_schedule_shape(self):
        alpha0, n0 = 0.5, 3.0
        alphas = [alpha0 * (n0 + 1.0) / (n0 + t) for t in range(1, 2000)]
        assert alphas[0] == alpha0
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        # harmonic tail: partial sums keep growing, squares converge
        assert sum(alphas) > 10 * sum(a * a for a in alphas)


class TestQlearningAgent:
    @pytest.mark.parametrize(
        "alpha0, n0",
        [(0.0, 0.0), (-3.0, 0.0), (1.5, 0.0), (np.nan, 0.0), (0.5, -1.0), (0.5, -2.0),
         (0.5, np.nan), (0.5, np.inf)],
    )
    def test_rejects_schedule_outside_unit_interval(self, alpha0, n0):
        with pytest.raises(ValueError, match="alpha0|n0"):
            QLearningAgent(2, 2, 0.9, PolicySpec("uniform_random"), alpha0=alpha0, n0=n0)

    def test_accepts_schedule_bounds(self):
        agent = QLearningAgent(2, 2, 0.9, PolicySpec("uniform_random"), alpha0=1.0, n0=-0.5)
        agent.update(Transition(0, 0, 1.0, 1))
        assert agent.estimates()[0, 0] == 1.0


class TestAgentStep:
    def test_uniform_policy_frequencies_on_loop(self):
        mdp = build_loop()
        policy = PolicySpec("uniform_random")
        agent = make_agent(AgentSpec(policy), "adfq", mdp, np.random.default_rng(1))
        runner = EpisodeRunner(mdp)
        rng = np.random.default_rng(2)
        n = 10_000
        actions = np.array([agent_step(agent, runner, rng).a for _ in range(n)])
        sigma = np.sqrt(0.25 / n)
        assert abs(actions.mean() - 0.5) < 3 * sigma

    def test_one_step_reproduces_update_contract(self):
        mdp = build_loop()
        policy = PolicySpec("epsilon_greedy", epsilon=0.3)
        agent = make_agent(AgentSpec(policy), "adfq", mdp, np.random.default_rng(3))
        reference = agent.table.copy()
        runner = EpisodeRunner(mdp)
        tau = agent_step(agent, runner, np.random.default_rng(4))
        expected = adfq_update(reference, tau)
        assert agent.table.means[tau.s, tau.a] == expected.new_mean
        assert agent.table.variances[tau.s, tau.a] == max(
            expected.new_variance, reference.variance_floor
        )

    def test_terminal_resets_runner(self):
        mdp = build_arms_mdp(2)
        runner = EpisodeRunner(mdp)
        rng = np.random.default_rng(0)
        runner.step(0, rng)  # start -> hub
        tau = runner.step(1, rng)  # hub -> terminal
        assert tau.terminal
        assert runner.state == mdp.start_state

    def test_analytic_and_numeric_agents_track_each_other(self):
        # moderate initial variances keep both routes in their accurate
        # regime over a short run
        mdp = build_arms_mdp(2)
        policy = PolicySpec("uniform_random")
        spec = AgentSpec(policy, sigma_w=0.1, init_variance=2.0)
        analytic = make_agent(spec, "adfq", mdp, np.random.default_rng(42))
        numeric = make_agent(spec, "adfq-numeric", mdp, np.random.default_rng(42))
        np.testing.assert_array_equal(analytic.table.means, numeric.table.means)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        runner_a, runner_b = EpisodeRunner(mdp), EpisodeRunner(mdp)
        for _ in range(100):
            agent_step(analytic, runner_a, rng_a)
            agent_step(numeric, runner_b, rng_b)
        gap = np.abs(analytic.table.means - numeric.table.means)
        scale = 1.0 + np.abs(numeric.table.means)
        assert np.all(gap / scale < 0.02)

    def test_identical_seeds_give_identical_tables(self):
        mdp = build_loop(slip=0.1)
        for kind in ("adfq", "adfq-numeric", "qlearning"):
            steps = 100 if kind == "adfq-numeric" else 500
            tables = []
            for _ in range(2):
                agent = make_agent(
                    AgentSpec(PolicySpec("epsilon_greedy"), sigma_w=0.01),
                    kind, mdp, np.random.default_rng(9),
                )
                runner = EpisodeRunner(mdp)
                rng = np.random.default_rng(10)
                for _ in range(steps):
                    agent_step(agent, runner, rng)
                tables.append(agent.estimates())
            np.testing.assert_array_equal(tables[0], tables[1])


class TestLongRunStability:
    @pytest.mark.parametrize(
        "domain",
        ["loop", "loop_slip", "maze", "arms2", "arms10"],
    )
    def test_means_stay_finite_from_floor_variances(self, domain):
        mdp = {
            "loop": lambda: build_loop(),
            "loop_slip": lambda: build_loop(slip=0.1),
            "maze": lambda: build_maze("S.F.G"),
            "arms2": lambda: build_arms_mdp(2),
            "arms10": lambda: build_arms_mdp(10),
        }[domain]()
        rng = np.random.default_rng(77)
        means = rng.uniform(0.0, 1.0, size=(mdp.n_states, mdp.n_actions))
        variances = np.full_like(means, 1e-10)
        table = BeliefTable(means, variances, gamma=mdp.gamma, sigma_w=0.01)
        agent = AdfqAgent(table, PolicySpec("epsilon_greedy"))
        runner = EpisodeRunner(mdp)
        for _ in range(100_000):
            agent_step(agent, runner, rng)
        assert np.all(np.isfinite(agent.table.means))
        assert np.all(np.isfinite(agent.table.variances))
        assert np.all(agent.table.variances >= agent.table.variance_floor)
