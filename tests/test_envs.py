"""Benchmark MDPs: builders, kernel invariants, solver, and sampling."""

import numpy as np
import pytest

from adfq.envs import (
    DEFAULT_MAZE,
    MazeParseError,
    TabularMdp,
    build_arms_mdp,
    build_loop,
    build_maze,
    greedy_policy,
    optimal_q,
    parse_maze,
    step,
)


def _assert_valid_kernel(mdp):
    sums = mdp.transitions.sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert np.all(mdp.transitions >= 0.0)


class TestLoop:
    def test_deterministic_rows_are_one_hot(self):
        mdp = build_loop(slip=0.0)
        assert mdp.n_states == 9 and mdp.n_actions == 2
        assert np.all(np.isin(mdp.transitions, (0.0, 1.0)))
        _assert_valid_kernel(mdp)

    def test_slip_mixes_intended_probability(self):
        mdp = build_loop(slip=0.1)
        _assert_valid_kernel(mdp)
        from adfq.envs import LOOP_NEXT_STATE

        for s in range(9):
            for a in range(2):
                intended = LOOP_NEXT_STATE[s][a]
                slipped = LOOP_NEXT_STATE[s][1 - a]
                if intended != slipped:
                    assert mdp.transitions[s, a, intended] == pytest.approx(0.9)
                else:
                    assert mdp.transitions[s, a, intended] == pytest.approx(1.0)

    def test_exactly_two_paying_pairs_when_deterministic(self):
        mdp = build_loop(slip=0.0)
        er = mdp.expected_rewards()
        nonzero = list(zip(*np.nonzero(er)))
        assert nonzero == [(4, 0), (8, 1)]
        assert er[4, 0] == 1.0 and er[8, 1] == 2.0

    def test_slip_mixes_rewards(self):
        mdp = build_loop(slip=0.1)
        er = mdp.expected_rewards()
        assert er[4, 0] == pytest.approx(0.9)
        assert er[4, 1] == pytest.approx(0.1)
        assert er[8, 1] == pytest.approx(1.8)
        assert er[8, 0] == pytest.approx(0.2)

    def test_optimal_policy_prefers_bigger_cycle(self):
        mdp = build_loop(slip=0.0)
        q = optimal_q(mdp)
        assert greedy_policy(q)[0] == 1

    def test_rejects_bad_slip(self):
        with pytest.raises(ValueError):
            build_loop(slip=0.7)


class TestMazeParsing:
    def test_minimal_mazes(self):
        rows, start, goal, flags = parse_maze("SG")
        assert rows == ["SG"] and start == (0, 0) and goal == (0, 1) and flags == []

    def test_ragged_rows_rejected_with_position(self):
        with pytest.raises(MazeParseError, match="line 2"):
            parse_maze("SG\n#")

    def test_unknown_character_rejected_with_position(self):
        with pytest.raises(MazeParseError, match="line 1, column 2"):
            parse_maze("SXG")

    def test_duplicate_and_missing_markers(self):
        with pytest.raises(MazeParseError, match="duplicate start"):
            parse_maze("SSG")
        with pytest.raises(MazeParseError, match="no goal"):
            parse_maze("S.")
        with pytest.raises(MazeParseError, match="no start"):
            parse_maze(".G")
        with pytest.raises(MazeParseError, match="line 1, column 3: duplicate goal"):
            parse_maze("SGG")


class TestMaze:
    def test_rejects_bad_slip(self):
        with pytest.raises(ValueError, match=r"slip must lie in \[0, 0.5\], got 0.7"):
            build_maze(DEFAULT_MAZE, slip=0.7)

    def test_two_cell_maze(self):
        mdp = build_maze("SG")
        assert mdp.n_states == 2  # two cells, no flags
        q = optimal_q(mdp)
        # stepping east reaches the goal with no flags: zero reward
        assert q[mdp.start_state].max() == 0.0
        _assert_valid_kernel(mdp)

    def test_flag_corridor(self):
        mdp = build_maze("SFG")
        q = optimal_q(mdp)
        # east, east: pick the flag, then score 1 at the goal
        assert q[mdp.start_state].max() == pytest.approx(mdp.gamma * 1.0)
        east = 1
        s1 = int(np.argmax(mdp.transitions[mdp.start_state, east]))
        assert q[s1, east] == pytest.approx(1.0)

    def test_state_count_is_cells_times_masks(self):
        mdp = build_maze(DEFAULT_MAZE)
        walkable = sum(row.count(c) for row in DEFAULT_MAZE.splitlines() for c in ".SGF")
        assert mdp.n_states == walkable * 2**3

    def test_wall_bump_stays_in_place(self):
        mdp = build_maze("SG")
        north = 0
        assert mdp.transitions[mdp.start_state, north, mdp.start_state] == 1.0

    def test_default_maze_optimal_path_collects_all_flags(self):
        mdp = build_maze(DEFAULT_MAZE)
        q = optimal_q(mdp)
        assert np.all(np.isfinite(q))
        policy = greedy_policy(q)
        s = mdp.start_state
        for _ in range(4 * mdp.n_states):
            s = int(np.argmax(mdp.transitions[s, policy[s]]))
            if mdp.is_terminal(s):
                break
        assert mdp.is_terminal(s)
        assert mdp.state_labels[s].endswith("111")  # all three flag bits set

    def test_slip_goes_right_perpendicular(self):
        layout = "###\n#S#\n#.#\n#G#\n###"  # corridor running south
        mdp = build_maze(layout, slip=0.1)
        south, east = 2, 1
        # intended south succeeds w.p. 0.9; slip (west for south) bumps
        # the wall and stays put w.p. 0.1
        assert mdp.transitions[mdp.start_state, south, mdp.start_state] == pytest.approx(0.1)
        # east's slip is south: the agent can leave the cell that way
        assert mdp.transitions[mdp.start_state, east, mdp.start_state] == pytest.approx(0.9)

    def test_terminal_rows_absorbing(self):
        mdp = build_maze(DEFAULT_MAZE)
        for t in mdp.terminals:
            for a in range(mdp.n_actions):
                assert mdp.transitions[t, a, t] == 1.0


class TestArms:
    def test_deterministic_two_arm_values(self):
        mdp = build_arms_mdp(2, reward_spec=[1.0, 2.0])
        q = optimal_q(mdp)
        assert q[1, 0] == pytest.approx(1.0)
        assert q[1, 1] == pytest.approx(2.0)
        np.testing.assert_allclose(q[0], 0.9 * 2.0)

    def test_default_arm_expectations(self):
        mdp = build_arms_mdp(2)
        er = mdp.expected_rewards()
        assert er[1, 1] == pytest.approx(0.8 * 5.0 + 0.2 * (-5.0))
        assert er[1, 0] == pytest.approx(0.2 * 5.0 + 0.8 * (-5.0))

    def test_ten_arm_matches_two_step_enumeration(self):
        mdp = build_arms_mdp(10)
        q = optimal_q(mdp)
        er = mdp.expected_rewards()
        # exhaustive expectimax over the two-step horizon
        np.testing.assert_allclose(q[1], er[1], atol=1e-12)
        np.testing.assert_allclose(q[0], mdp.gamma * er[1].max(), atol=1e-10)

    def test_terminals_absorbing_zero_q(self):
        mdp = build_arms_mdp(3)
        q = optimal_q(mdp)
        for t in mdp.terminals:
            np.testing.assert_allclose(q[t], 0.0, atol=1e-12)

    def test_rejects_single_arm(self):
        with pytest.raises(ValueError):
            build_arms_mdp(1)

    def test_reward_spec_needs_one_entry_per_arm(self):
        with pytest.raises(ValueError, match="reward_spec must have one entry per arm"):
            build_arms_mdp(3, reward_spec=[1.0, 2.0])


class TestBuilderFuzz:
    def test_random_builder_parameters_yield_valid_kernels(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            _assert_valid_kernel(build_loop(slip=float(rng.uniform(0, 0.5))))
            _assert_valid_kernel(
                build_arms_mdp(int(rng.integers(2, 12)), gamma=float(rng.uniform(0.5, 0.99)))
            )
            _assert_valid_kernel(
                build_maze(DEFAULT_MAZE, slip=float(rng.uniform(0, 0.5)))
            )


class TestOptimalQ:
    def test_single_absorbing_state(self):
        mdp = build_arms_mdp(2, reward_spec=[0.0, 0.0])
        q = optimal_q(mdp)
        np.testing.assert_allclose(q[2:], 0.0, atol=1e-12)

    def test_two_state_chain_geometric_series(self):
        # every action pays 1 and toggles the state: Q* = 1/(1-gamma) = 2
        p = np.zeros((2, 2, 2))
        p[0, :, 1] = 1.0
        p[1, :, 0] = 1.0
        mdp = TabularMdp(
            transitions=p,
            rewards=((((1.0, 1.0),),) * 2,) * 2,
            terminals=frozenset(),
            gamma=0.5,
            start_state=0,
        )
        np.testing.assert_allclose(optimal_q(mdp), 2.0, atol=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_rejects_non_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            optimal_q(build_loop(), tol=tol)

    def test_bellman_residual_below_tolerance(self):
        for mdp in (build_loop(0.1), build_arms_mdp(4), build_maze("S.FG")):
            q = optimal_q(mdp, tol=1e-10)
            er = mdp.expected_rewards()
            v = q.max(axis=1)
            for t in mdp.terminals:
                v[t] = 0.0
            backup = er + mdp.gamma * mdp.transitions @ v
            assert np.abs(backup - q).max() < 1e-9


ZERO = ((0.0, 1.0),)


def _kernel(row0, row1=(0.0, 1.0)):
    return np.array([[row0], [row1]], dtype=float)


def _two_state_kwargs(**override):
    """A valid 2-state, 1-action chain into an absorbing state 1, with overrides."""
    kwargs = dict(
        transitions=_kernel((0.5, 0.5)),
        rewards=((((1.0, 0.5), (0.0, 0.5)),), (ZERO,)),
        terminals=frozenset({1}),
        gamma=0.9,
        start_state=0,
    )
    kwargs.update(override)
    return kwargs


class TestTabularMdpRefusals:
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"transitions": _kernel((0.5, float("nan")))},
             r"row at \(0, 0\) has a non-finite entry"),
            ({"transitions": _kernel((1.0, 0.0), (float("inf"), 1.0)), "terminals": frozenset()},
             r"row at \(1, 0\) has a non-finite entry"),
            ({"rewards": ((((float("nan"), 1.0),),), (ZERO,))}, r"reward spec at \(0, 0\)"),
            ({"rewards": ((((float("inf"), 1.0),),), (ZERO,))}, r"reward spec at \(0, 0\)"),
            ({"rewards": ((((1.0, float("nan")),),), (ZERO,))}, r"reward spec at \(0, 0\)"),
            ({"rewards": ((((1.0, 1.5), (0.0, -0.5)),), (ZERO,))}, r"reward spec at \(0, 0\)"),
            ({"rewards": ((((1.0, float("inf")), (0.0, -float("inf"))),), (ZERO,))},
             r"reward spec at \(0, 0\)"),
            # the refusals the constructor already made
            ({"transitions": np.full((2, 1, 3), 1.0 / 3.0)}, r"must be \(S, A, S\)"),
            ({"gamma": 1.0}, "gamma must lie in"),
            ({"gamma": float("nan")}, "gamma must lie in"),
            ({"transitions": _kernel((0.5, 0.4))}, r"row at \(0, 0\) does not sum to 1"),
            ({"transitions": _kernel((1.5, -0.5))}, r"row at \(0, 0\) has a negative entry"),
            ({"rewards": ((((0.0, 1.0),),),)}, "must cover every state-action pair"),
            ({"rewards": ((((1.0, 0.5),),), (ZERO,))}, r"reward probabilities at \(0, 0\)"),
            ({"terminals": frozenset({0})}, "terminal state 0 must be absorbing"),
            # -1 would wrap onto state 1, which is absorbing with zero reward
            ({"terminals": frozenset({-1})}, "terminal state -1 out of range"),
            ({"terminals": frozenset({5})}, "terminal state 5 out of range"),
            ({"rewards": ((ZERO,), (((1.0, 1.0),),))}, "terminal state 1 must have zero reward"),
            ({"start_state": 2}, "start state 2 out of range"),
            ({"start_state": -1}, "start state -1 out of range"),
        ],
        ids=[
            "nan-kernel", "inf-kernel", "nan-reward", "inf-reward", "nan-reward-prob",
            "negative-reward-prob", "inf-reward-prob", "shape", "gamma-1", "gamma-nan",
            "row-sum", "negative-entry", "reward-coverage", "reward-sum",
            "non-absorbing-terminal", "terminal-negative", "terminal-high", "terminal-reward",
            "start-high", "start-negative",
        ],
    )
    def test_refused(self, override, message):
        with pytest.raises(ValueError, match=message):
            TabularMdp(**_two_state_kwargs(**override))

    def test_valid_base_accepted(self):
        mdp = TabularMdp(**_two_state_kwargs())
        assert mdp.successors == ((((0, 0.5), (1, 0.5)),), (((1, 1.0),),))

    @pytest.mark.parametrize(
        "bad, message",
        [(((float("nan"), 1.0),), r"reward spec at \(0, 3\)"),
         (((1.0, 0.5),), r"reward probabilities at \(0, 3\) sum to 0.5")],
        ids=["non-finite", "sum"],
    )
    def test_shared_bad_spec_refused_at_its_first_pair(self, bad, message):
        # one spec object over many pairs is copied and checked once
        arms = build_arms_mdp(4)
        rewards = [list(row) for row in arms.rewards]
        rewards[1][1:] = [bad] * 3
        rewards[0][3] = bad
        with pytest.raises(ValueError, match=message):
            TabularMdp(**{**_loop_kwargs(arms), "rewards": rewards})

    def test_fresh_spec_objects_checked_one_by_one(self):
        # each spec of a generator row is freed as the next is made, so its
        # id can pass to the next one; that must not pass its copy on too
        arms = build_arms_mdp(4)

        def row(values):
            for value in values:
                yield ((value, 1.0),)

        def rewards(values):
            return [arms.rewards[0], row(values), *arms.rewards[2:]]

        mdp = TabularMdp(**{**_loop_kwargs(arms), "rewards": rewards([1.0, 2.0, 3.0, 4.0])})
        assert mdp.rewards[1] == tuple(((v, 1.0),) for v in (1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError, match=r"reward spec at \(1, 2\)"):
            TabularMdp(**{**_loop_kwargs(arms), "rewards": rewards([1.0, 2.0, float("inf"), 4.0])})

    def test_start_state_must_be_an_index(self):
        # else a float start state would fail only inside ``step``
        with pytest.raises(TypeError):
            TabularMdp(**_two_state_kwargs(start_state=1.5))
        assert type(TabularMdp(**_two_state_kwargs(start_state=np.int64(0))).start_state) is int

    @pytest.mark.parametrize(
        "labels, message",
        [({"state_labels": ("s0",)}, "state_labels needs 9 labels, got 1"),
         ({"action_labels": ("a", "b", "c")}, "action_labels needs 2 labels, got 3")],
        ids=["states", "actions"],
    )
    def test_labels_must_match_the_sizes(self, labels, message):
        loop = build_loop()
        with pytest.raises(ValueError, match=message):
            TabularMdp(**_loop_kwargs(loop), **labels)

    def test_labels_are_copies(self):
        # else a later append to the caller's list would get past the size check
        labels = [f"s{i}" for i in range(9)]
        mdp = TabularMdp(**_loop_kwargs(build_loop()), state_labels=labels)
        labels.append("s9")
        assert mdp.state_labels == tuple(f"s{i}" for i in range(9))


@pytest.mark.parametrize(
    "build", [lambda: build_arms_mdp(50), lambda: build_maze(DEFAULT_MAZE), lambda: build_loop(0.1)],
    ids=["arms50", "maze", "loop-slip"],
)
def test_equal_reward_specs_share_one_tuple(build):
    # thousands of distinct equal tuples set off a full garbage collection
    # inside a timed run; one object per distinct value keeps it out
    specs = [spec for row in build().rewards for spec in row]
    assert len({id(spec) for spec in specs}) == len(set(specs))


def _loop_kwargs(mdp):
    return dict(
        transitions=mdp.transitions, rewards=mdp.rewards, terminals=mdp.terminals,
        gamma=mdp.gamma, start_state=mdp.start_state,
    )


class TestKernelCopy:
    def test_kernel_is_a_read_only_copy(self):
        # an edit in place would leave ``step`` (``successors``) and
        # ``optimal_q`` (``transitions``) on different kernels
        mdp = build_loop(slip=0.1)
        caller = mdp.transitions.copy()
        own = TabularMdp(**{**_loop_kwargs(mdp), "transitions": caller})
        caller[0, 0] = 0.0
        assert caller.flags.writeable
        np.testing.assert_array_equal(own.transitions, mdp.transitions)
        with pytest.raises(ValueError, match="read-only"):
            own.transitions[0, 0, 1] = 0.5
        assert own.successors == mdp.successors

    def test_rewards_and_terminals_are_copies(self):
        # an edit to the caller's lists or set after construction once
        # reached ``step`` past every reward check
        rewards = [[[(1.0, 0.5), (0.0, 0.5)]], [[(0.0, 1.0)]]]
        terminals = {1}
        mdp = TabularMdp(**_two_state_kwargs(rewards=rewards, terminals=terminals))
        rewards[0][0][0] = (float("nan"), 1.0)
        terminals.clear()
        assert mdp.rewards == ((((1.0, 0.5), (0.0, 0.5)),), (ZERO,))
        assert mdp.terminals == frozenset({1})
        assert step(mdp, 0, 0, _FixedDraws(0.75, 0.25)) == (1.0, 1, True)

    def test_nested_list_kernel_solves(self):
        mdp = build_loop(slip=0.1)
        listed = TabularMdp(**{**_loop_kwargs(mdp), "transitions": mdp.transitions.tolist()})
        np.testing.assert_array_equal(optimal_q(listed), optimal_q(mdp))


class _FixedDraws:
    """Stands in for a generator whose ``random()`` returns the given values."""

    def __init__(self, *values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestStep:
    def test_draw_in_a_rows_rounding_gap_gets_its_last_state(self):
        # the row sums to 1 - 4e-13, inside the tolerance; a uniform draw
        # above that sum once stepped to index n_states
        p = _kernel((0.5, 0.5 - 4e-13))
        mdp = TabularMdp(**_two_state_kwargs(transitions=p, terminals=frozenset()))
        rng = _FixedDraws(1.0 - 1e-13, 0.25)
        assert step(mdp, 0, 0, rng) == (1.0, 1, False)

    def test_next_state_matches_the_cumulative_row(self):
        # the successor draw picks the state searchsorted picks on the
        # dense cumulative row for every draw below the row's total, so
        # runs keep their bits; the draws above it are the gap case above
        rng = np.random.default_rng(2024)
        p = rng.random((12, 3, 12)) * (rng.random((12, 3, 12)) < 0.3)
        p[:, :, 0] += 1e-3
        p /= p.sum(axis=2, keepdims=True)
        mdp = TabularMdp(
            transitions=p, rewards=((ZERO,) * 3,) * 12, terminals=frozenset(),
            gamma=0.9, start_state=0,
        )
        cum = np.cumsum(mdp.transitions, axis=2)
        for s in range(12):
            for a in range(3):
                row = mdp.transitions[s, a]
                assert [t for t, _ in mdp.successors[s][a]] == np.flatnonzero(row).tolist()
                edges = np.concatenate([cum[s, a], np.nextafter(cum[s, a], 0.0), rng.random(50)])
                for u in edges[edges < cum[s, a, -1]]:
                    expected = int(cum[s, a].searchsorted(u, side="right"))
                    assert step(mdp, s, a, _FixedDraws(u, 0.5))[1] == expected

    def test_deterministic_transition(self):
        mdp = build_loop(slip=0.0)
        rng = np.random.default_rng(0)
        r, s_next, terminal = step(mdp, 0, 1, rng)
        assert (r, s_next, terminal) == (0.0, 5, False)

    def test_step_from_terminal_rejected(self):
        mdp = build_arms_mdp(2)
        with pytest.raises(ValueError):
            step(mdp, 2, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("s, a", [(-1, 0), (9, 0), (0, -1), (0, 2)])
    def test_out_of_range_index_rejected(self, s, a):
        # numpy would wrap -1 onto state 8 or action 1
        with pytest.raises(ValueError, match=rf"\({s}, {a}\) out of range"):
            step(build_loop(), s, a, np.random.default_rng(0))

    def test_slip_frequency(self):
        mdp = build_loop(slip=0.1)
        rng = np.random.default_rng(77)
        n = 100_000
        slipped = sum(step(mdp, 0, 0, rng)[1] == 5 for _ in range(n))
        sigma = np.sqrt(0.1 * 0.9 / n)
        assert abs(slipped / n - 0.1) < 3 * sigma

    def test_reward_sampling_matches_spec_mean(self):
        mdp = build_arms_mdp(2)
        rng = np.random.default_rng(5)
        n = 100_000
        rewards = np.array([step(mdp, 1, 1, rng)[0] for _ in range(n)])
        assert set(np.unique(rewards)) == {-5.0, 5.0}
        sigma = rewards.std() / np.sqrt(n)
        assert abs(rewards.mean() - 3.0) < 3 * sigma

    def test_determinism_given_seed(self):
        mdp = build_loop(slip=0.3)
        a = [step(mdp, 0, 0, np.random.default_rng(momo))[1] for momo in range(50)]
        b = [step(mdp, 0, 0, np.random.default_rng(momo))[1] for momo in range(50)]
        assert a == b
