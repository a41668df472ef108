"""Tabular MDPs: generic container, benchmark builders, and a Q* solver.

Rewards are finite discrete distributions attached to state-action
pairs and sampled independently of the successor state; transition
kernels are dense ``P(s' | s, a)`` rows. Terminal states are absorbing
with zero reward, so their optimal Q-values equal their (zero) expected
immediate reward.

Bundled domains:

* ``build_loop``: two five-step cycles joined at state 0. Advancing
  around one cycle requires committing to its action; the off-cycle
  action resets to state 0. Completing the first cycle (state 4, first
  action) pays +1, completing the second (state 8, second action) pays
  +2. With action slip the executed action flips with the given
  probability, which mixes both the rows of P and the reward
  distributions at the two paying pairs. The exact transition table is
  spelled out in ``LOOP_NEXT_STATE`` below.
* ``build_maze``: flag-collection gridworld parsed from text. The agent
  walks N/E/S/W, stays put against walls, picks up flags by entering
  their cells, and receives the number of collected flags upon entering
  the goal, which ends the episode. Slip moves to the right
  perpendicular of the intended direction.
* ``build_arms_mdp``: a start state funnels into a hub whose actions
  lead to distinct terminal states with per-arm reward distributions;
  by default every arm pays +5 or -5: the designated optimal arm pays
  +5 with probability 0.8 (mean +3), every other arm -5 with
  probability 0.8 (mean -3).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

RewardSpec = tuple[tuple[float, float], ...]  # ((value, prob), ...)

PROB_TOL = 1e-12

# Loop layout: state 0 is shared; action 0 advances 0->1->2->3->4->0,
# action 1 advances 0->5->6->7->8->0; the off-cycle action resets to 0.
LOOP_NEXT_STATE = (
    (1, 5),  # state 0
    (2, 0),
    (3, 0),
    (4, 0),
    (0, 0),  # state 4: action 0 completes the +1 cycle
    (0, 6),
    (0, 7),
    (0, 8),
    (0, 0),  # state 8: action 1 completes the +2 cycle
)
LOOP_REWARDS = {(4, 0): 1.0, (8, 1): 2.0}

DEFAULT_MAZE = """\
########
#S.F...#
#.####.#
#..F...#
#.######
#..F..G#
########
"""

# grid directions in N, E, S, W order; slip deflects to the right
# perpendicular, i.e. one position clockwise
MAZE_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))
MAZE_ACTION_NAMES = ("N", "E", "S", "W")


class MazeParseError(ValueError):
    """Malformed maze text; carries 1-based line/column when known."""


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """Finite MDP with dense kernel and discrete reward distributions."""

    transitions: np.ndarray  # (S, A, S), kept as a read-only float copy
    rewards: tuple[tuple[RewardSpec, ...], ...]  # [s][a] -> ((value, prob), ...)
    terminals: frozenset[int]
    gamma: float
    start_state: int
    state_labels: tuple[str, ...] | None = None
    action_labels: tuple[str, ...] | None = None
    # [s][a] -> ((s_next, prob), ...) over the row's nonzero entries in state order:
    # ``step`` draws from it as from ``rewards``, and its running sums are the row's cumsum
    successors: tuple = field(init=False, repr=False, compare=False)
    # plain ints, as ``step`` range-checks its indices on every call
    n_states: int = field(init=False, repr=False, compare=False)
    n_actions: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a read-only copy: ``successors`` and ``optimal_q`` read the same kernel
        p = np.array(self.transitions, dtype=float)
        p.flags.writeable = False
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError(f"transition kernel must be (S, A, S), got {p.shape}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        for bad, what in (
            (~np.isfinite(p).all(axis=2), "has a non-finite entry"),
            ((p < 0.0).any(axis=2), "has a negative entry"),
            (np.abs(p.sum(axis=2) - 1.0) > PROB_TOL, "does not sum to 1"),
        ):
            if bad.any():
                s, a = np.argwhere(bad)[0]
                raise ValueError(f"P(.|s,a) row at ({s}, {a}) {what}")
        n_states, n_actions = p.shape[:2]
        # copies, like the kernel's: a caller's later edit cannot reach what was
        # checked. Equal specs share one tuple, as in the bundled builders' rows:
        # thousands of new ones set off a full garbage collection in the run.
        # A spec equal to one seen before takes its copy without making another;
        # a new value gets its copy and its checks at its first pair in row-major
        # order
        shared: dict[RewardSpec, RewardSpec] = {}
        rewards = []
        for s, row in enumerate(self.rewards):
            copies = []
            for a, spec in enumerate(row):
                try:
                    copy = shared[spec]
                except (KeyError, TypeError):  # a new value, or an unhashable spec
                    copy = tuple([(float(v), float(pr)) for v, pr in spec])
                    if copy not in shared:
                        if not all(math.isfinite(v) and 0.0 <= pr < math.inf for v, pr in copy):
                            raise ValueError(
                                f"reward spec at ({s}, {a}) needs finite values and finite "
                                f"nonnegative probabilities, got {copy}"
                            )
                        probs = math.fsum(pr for _, pr in copy)
                        if abs(probs - 1.0) > PROB_TOL:
                            raise ValueError(f"reward probabilities at ({s}, {a}) sum to {probs}")
                        shared[copy] = copy
                    copy = shared[copy]
                copies.append(copy)
            rewards.append(tuple(copies))
        rewards = tuple(rewards)
        terminals = frozenset(map(operator.index, self.terminals))
        if len(rewards) != n_states or any(len(r) != n_actions for r in rewards):
            raise ValueError("reward spec must cover every state-action pair")
        start_state = operator.index(self.start_state)
        for name, n in (("state_labels", n_states), ("action_labels", n_actions)):
            labels = getattr(self, name)
            if labels is not None:
                labels = tuple(labels)
                if len(labels) != n:
                    raise ValueError(f"{name} needs {n} labels, got {len(labels)}")
                object.__setattr__(self, name, labels)
        for t in terminals:
            if not 0 <= t < n_states:
                raise ValueError(f"terminal state {t} out of range")
            for a in range(n_actions):
                if p[t, a, t] != 1.0:
                    raise ValueError(f"terminal state {t} must be absorbing")
                if rewards[t][a] != ((0.0, 1.0),):
                    raise ValueError(f"terminal state {t} must have zero reward")
        if not 0 <= start_state < n_states:
            raise ValueError(f"start state {start_state} out of range")
        successors = [[[] for _ in range(n_actions)] for _ in range(n_states)]
        nonzero = np.nonzero(p)
        for s, a, s_next, prob in zip(*(i.tolist() for i in nonzero), p[nonzero].tolist()):
            successors[s][a].append((s_next, prob))
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "start_state", start_state)
        object.__setattr__(self, "successors", tuple(tuple(map(tuple, row)) for row in successors))
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "n_actions", n_actions)

    def expected_rewards(self) -> np.ndarray:
        out = np.zeros((self.n_states, self.n_actions))
        for s in range(self.n_states):
            for a in range(self.n_actions):
                out[s, a] = math.fsum(v * p for v, p in self.rewards[s][a])
        return out

    def is_terminal(self, s: int) -> bool:
        return s in self.terminals


def _absorbing_rows(states: Sequence[int], p: np.ndarray) -> None:
    for t in states:
        p[t, :, :] = 0.0
        p[t, :, t] = 1.0


def _constant_reward(value: float) -> RewardSpec:
    return ((float(value), 1.0),)


def _mix_rewards(spec_a: RewardSpec, spec_b: RewardSpec, p_a: float) -> RewardSpec:
    """Mixture of two reward distributions, merging equal support points."""
    acc: dict[float, float] = {}
    for value, prob in spec_a:
        acc[value] = acc.get(value, 0.0) + p_a * prob
    for value, prob in spec_b:
        acc[value] = acc.get(value, 0.0) + (1.0 - p_a) * prob
    return tuple(sorted((v, p) for v, p in acc.items() if p > 0.0))


def build_loop(slip: float = 0.0, gamma: float = 0.95) -> TabularMdp:
    """Two-cycle domain with 9 states and 2 actions; see module docstring.

    ``slip`` is the probability of executing the other action; both the
    transition rows and the two paying reward entries mix accordingly.
    """
    if not 0.0 <= slip <= 0.5:
        raise ValueError(f"slip must lie in [0, 0.5], got {slip}")
    n_states, n_actions = 9, 2
    p = np.zeros((n_states, n_actions, n_states))
    rewards: list[list[RewardSpec]] = [[_constant_reward(0.0)] * n_actions for _ in range(n_states)]
    for s in range(n_states):
        for a in range(n_actions):
            intended = LOOP_NEXT_STATE[s][a]
            slipped = LOOP_NEXT_STATE[s][1 - a]
            p[s, a, intended] += 1.0 - slip
            p[s, a, slipped] += slip
            r_intended = _constant_reward(LOOP_REWARDS.get((s, a), 0.0))
            r_slipped = _constant_reward(LOOP_REWARDS.get((s, 1 - a), 0.0))
            rewards[s][a] = _mix_rewards(r_intended, r_slipped, 1.0 - slip)
    return TabularMdp(
        transitions=p,
        rewards=tuple(tuple(r) for r in rewards),
        terminals=frozenset(),
        gamma=gamma,
        start_state=0,
        action_labels=("a", "b"),
    )


def parse_maze(layout: str) -> tuple[list[str], tuple[int, int], tuple[int, int], list[tuple[int, int]]]:
    """Validate maze text; returns (rows, start, goal, flag cells).

    Raises:
        MazeParseError: on ragged rows, unknown characters, or a wrong
            number of start/goal markers, with 1-based line/column.
    """
    rows = [line for line in layout.splitlines() if line != ""]
    if not rows:
        raise MazeParseError("maze layout is empty")
    width = len(rows[0])
    start = goal = None
    flags: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MazeParseError(f"line {i + 1}: ragged row (expected width {width}, got {len(row)})")
        for j, ch in enumerate(row):
            if ch not in "#.SGF":
                raise MazeParseError(f"line {i + 1}, column {j + 1}: unknown character {ch!r}")
            if ch == "S":
                if start is not None:
                    raise MazeParseError(f"line {i + 1}, column {j + 1}: duplicate start")
                start = (i, j)
            elif ch == "G":
                if goal is not None:
                    raise MazeParseError(f"line {i + 1}, column {j + 1}: duplicate goal")
                goal = (i, j)
            elif ch == "F":
                flags.append((i, j))
    if start is None:
        raise MazeParseError("maze has no start cell 'S'")
    if goal is None:
        raise MazeParseError("maze has no goal cell 'G'")
    return rows, start, goal, flags


def build_maze(layout: str, slip: float = 0.0, gamma: float = 0.95) -> TabularMdp:
    """Flag-collection gridworld from text; states are (cell, flag set).

    State ids enumerate walkable cells in reading order, each crossed
    with every subset of flags. Entering a flag cell adds its bit;
    entering the goal ends the episode with reward equal to the number
    of collected flags. Moves into walls or off the grid stay in place.
    """
    if not 0.0 <= slip <= 0.5:
        raise ValueError(f"slip must lie in [0, 0.5], got {slip}")
    rows, start, goal, flags = parse_maze(layout)
    cells = [
        (i, j)
        for i, row in enumerate(rows)
        for j, ch in enumerate(row)
        if ch != "#"
    ]
    cell_index = {cell: k for k, cell in enumerate(cells)}
    flag_bit = {cell: 1 << k for k, cell in enumerate(flags)}
    n_masks = 1 << len(flags)
    n_cells = len(cells)
    n_states = n_cells * n_masks
    n_actions = 4

    def state_id(cell: tuple[int, int], mask: int) -> int:
        return cell_index[cell] * n_masks + mask

    def move(cell: tuple[int, int], direction: int) -> tuple[int, int]:
        i, j = cell
        di, dj = MAZE_MOVES[direction]
        ni, nj = i + di, j + dj
        if 0 <= ni < len(rows) and 0 <= nj < len(rows[0]) and rows[ni][nj] != "#":
            return (ni, nj)
        return cell

    p = np.zeros((n_states, n_actions, n_states))
    rewards: list[list[RewardSpec]] = [
        [_constant_reward(0.0)] * n_actions for _ in range(n_states)
    ]
    terminals = {state_id(goal, mask) for mask in range(n_masks)}
    for cell in cells:
        for mask in range(n_masks):
            s = state_id(cell, mask)
            if s in terminals:
                continue
            for a in range(n_actions):
                outcomes = ((a, 1.0 - slip), ((a + 1) % 4, slip)) if slip > 0.0 else ((a, 1.0),)
                p_goal = 0.0
                for direction, prob in outcomes:
                    nxt = move(cell, direction)
                    nmask = mask | flag_bit.get(nxt, 0)
                    p[s, a, state_id(nxt, nmask)] += prob
                    if nxt == goal:
                        p_goal += prob
                n_flags = bin(mask).count("1")
                if p_goal > 0.0 and n_flags > 0:
                    rewards[s][a] = _mix_rewards(
                        _constant_reward(float(n_flags)), _constant_reward(0.0), p_goal
                    )
    _absorbing_rows(sorted(terminals), p)

    labels = tuple(
        f"r{cell[0]}c{cell[1]}+{mask:0{max(len(flags), 1)}b}"
        for cell in cells
        for mask in range(n_masks)
    )
    return TabularMdp(
        transitions=p,
        rewards=tuple(tuple(r) for r in rewards),
        terminals=frozenset(terminals),
        gamma=gamma,
        start_state=state_id(start, 0),
        state_labels=labels,
        action_labels=MAZE_ACTION_NAMES,
    )


def build_arms_mdp(
    n_arms: int,
    reward_spec: Sequence[float | Sequence[tuple[float, float]]] | None = None,
    gamma: float = 0.9,
) -> TabularMdp:
    """Start state, hub, and one terminal per arm with per-arm rewards.

    Every action moves the start state into the hub with zero reward.
    ``reward_spec`` gives one entry per arm, either a constant or a
    discrete ``(value, prob)`` distribution. By default every arm pays
    +5 or -5 and deviates from its usual outcome with probability 0.2:
    arm 1 pays +5 with probability 0.8 (mean +3), every other arm -5
    with probability 0.8 (mean -3).
    """
    if n_arms < 2:
        raise ValueError(f"need at least 2 arms, got {n_arms}")
    if reward_spec is None:
        reward_spec = [
            ((5.0, 0.8), (-5.0, 0.2))
            if i == 1
            else ((5.0, 0.2), (-5.0, 0.8))
            for i in range(n_arms)
        ]
    if len(reward_spec) != n_arms:
        raise ValueError("reward_spec must have one entry per arm")
    arm_rewards: list[RewardSpec] = []
    for item in reward_spec:
        if isinstance(item, (int, float)):
            arm_rewards.append(_constant_reward(float(item)))
        else:
            arm_rewards.append(tuple((float(v), float(p)) for v, p in item))

    n_states = 2 + n_arms  # 0 start, 1 hub, 2.. terminals
    p = np.zeros((n_states, n_arms, n_states))
    rewards: list[list[RewardSpec]] = [
        [_constant_reward(0.0)] * n_arms for _ in range(n_states)
    ]
    p[0, :, 1] = 1.0
    for i in range(n_arms):
        p[1, i, 2 + i] = 1.0
        rewards[1][i] = arm_rewards[i]
    terminals = list(range(2, n_states))
    _absorbing_rows(terminals, p)
    labels = ("start", "hub") + tuple(f"end{i}" for i in range(n_arms))
    return TabularMdp(
        transitions=p,
        rewards=tuple(tuple(r) for r in rewards),
        terminals=frozenset(terminals),
        gamma=gamma,
        start_state=0,
        state_labels=labels,
    )


def optimal_q(mdp: TabularMdp, tol: float = 1e-10) -> np.ndarray:
    """Q-value iteration to sup-norm residual below ``tol``.

    Terminal states keep their expected immediate reward (zero for all
    bundled domains) and contribute no continuation value.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    er = mdp.expected_rewards()
    terminal_mask = np.zeros(mdp.n_states, dtype=bool)
    for t in mdp.terminals:
        terminal_mask[t] = True
    q = er.copy()
    while True:
        v = q.max(axis=1)
        v[terminal_mask] = 0.0
        q_next = er + mdp.gamma * mdp.transitions @ v
        residual = np.abs(q_next - q).max()
        q = q_next
        if residual < tol:
            return q


def greedy_policy(q: np.ndarray) -> np.ndarray:
    """Greedy action per state; lowest index wins ties."""
    return np.argmax(q, axis=1)


def _draw(spec, u: float):
    """First outcome of ``((outcome, prob), ...)`` whose running sum exceeds ``u``, else the last."""
    acc = 0.0
    for outcome, prob in spec:
        acc += prob
        if u < acc:
            return outcome
    return spec[-1][0]


def step(
    mdp: TabularMdp, s: int, a: int, rng: np.random.Generator
) -> tuple[float, int, bool]:
    """Sample one transition: next state first, then the reward.

    Raises:
        ValueError: for an out-of-range index, or when stepping from a
            terminal state.
    """
    # numpy would wrap a negative index onto another state or action
    if not (0 <= s < mdp.n_states and 0 <= a < mdp.n_actions):
        raise ValueError(f"state-action index ({s}, {a}) out of range")
    if s in mdp.terminals:
        raise ValueError(f"cannot step from terminal state {s}")
    s_next = _draw(mdp.successors[s][a], rng.random())
    r = _draw(mdp.rewards[s][a], rng.random())
    return r, s_next, s_next in mdp.terminals


__all__ = [
    "RewardSpec",
    "TabularMdp",
    "MazeParseError",
    "LOOP_NEXT_STATE",
    "DEFAULT_MAZE",
    "MAZE_ACTION_NAMES",
    "build_loop",
    "parse_maze",
    "build_maze",
    "build_arms_mdp",
    "optimal_q",
    "greedy_policy",
    "step",
]
