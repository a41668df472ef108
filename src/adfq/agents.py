"""Learning agents and action-selection policies.

Three agents share one interface (``update`` on a transition,
``estimates`` for point values): the analytic moment-matched belief
learner, its quadrature twin that integrates the true posterior
numerically, and tabular Q-learning with a visit-count learning-rate
schedule. Policies act on either belief tables (epsilon-greedy and
Boltzmann read the means; Thompson sampling draws one value from each
action's belief) or plain Q-tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import (
    DEFAULT_ALPHA0,
    DEFAULT_INIT_MEAN_RANGE,
    DEFAULT_INIT_VARIANCE,
    DEFAULT_N0,
    DEFAULT_VARIANCE_FLOOR,
    BeliefTable,
    Transition,
)
from .engine import adfq_update, apply_update
from .envs import TabularMdp, step
from .posterior import GridSpec, quadrature_log_moments

POLICY_KINDS = ("epsilon_greedy", "boltzmann", "thompson", "uniform_random")


@dataclass(frozen=True)
class PolicySpec:
    """Action-selection rule plus its parameters."""

    kind: str
    epsilon: float = 0.1
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


class QTable:
    """Point Q-value estimates plus per-pair visit counts."""

    def __init__(self, n_states: int, n_actions: int) -> None:
        self.values = np.zeros((n_states, n_actions))
        self.visit_counts = np.zeros((n_states, n_actions), dtype=np.int64)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]


def _greedy(values: np.ndarray) -> int:
    """Argmax with the lowest index winning ties."""
    return int(np.argmax(values))


def select_action(
    policy: PolicySpec,
    state: int,
    table: BeliefTable | QTable,
    rng: np.random.Generator,
) -> int:
    """Pick an action for ``state`` from belief means or Q-values.

    Greedy selection over beliefs uses the means only; Thompson
    sampling draws one sample per action from the beliefs and requires
    a belief table.
    """
    values = table.means[state] if isinstance(table, BeliefTable) else table.values[state]
    n_actions = values.shape[0]
    if policy.kind == "uniform_random":
        return int(rng.integers(n_actions))
    if policy.kind == "epsilon_greedy":
        if rng.random() < policy.epsilon:
            return int(rng.integers(n_actions))
        return _greedy(values)
    if policy.kind == "boltzmann":
        logits = values / policy.temperature
        logits = logits - logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        return int(rng.choice(n_actions, p=probs))
    # thompson
    if not isinstance(table, BeliefTable):
        raise ValueError("thompson sampling needs belief variances, not a Q-table")
    draws = rng.normal(table.means[state], np.sqrt(table.variances[state]))
    return _greedy(draws)


def qlearning_update(
    qtable: QTable, tau: Transition, alpha0: float, n0: float, gamma: float
) -> float:
    """One tabular Q-learning update with the visit-count schedule.

    The learning rate is ``alpha0 * (n0 + 1) / (n0 + t)`` where ``t``
    counts visits to (s, a) including this one; terminal transitions
    bootstrap from the bare reward. Returns the new Q(s, a).
    """
    qtable.visit_counts[tau.s, tau.a] += 1
    t = qtable.visit_counts[tau.s, tau.a]
    alpha = alpha0 * (n0 + 1.0) / (n0 + t)
    if tau.terminal:
        target = tau.r
    else:
        target = tau.r + gamma * float(qtable.values[tau.s_next].max())
    new_q = (1.0 - alpha) * float(qtable.values[tau.s, tau.a]) + alpha * target
    qtable.values[tau.s, tau.a] = new_q
    return new_q


class AdfqAgent:
    """Belief learner using the analytic moment-matched update."""

    kind = "adfq"

    def __init__(self, table: BeliefTable, policy: PolicySpec) -> None:
        self.table = table
        self.policy = policy

    def update(self, tau: Transition) -> None:
        apply_update(self.table, tau, adfq_update(self.table, tau))

    def estimates(self) -> np.ndarray:
        return self.table.means.copy()


class AdfqNumericAgent:
    """Belief learner that integrates the true posterior numerically.

    Exists to expose how the numeric route behaves, including its known
    degradation once variances shrink far below the fixed grid
    resolution: a posterior narrower than the grid spacing puts all its
    mass on one cell and collapses to variance 0 (or a rounding residue
    of order 1e-30), which ``set_belief`` then clamps to the variance
    floor.
    """

    kind = "adfq-numeric"

    def __init__(
        self, table: BeliefTable, policy: PolicySpec, grid_points: int = GridSpec.n
    ) -> None:
        self.table = table
        self.policy = policy
        self.grid = GridSpec(n=grid_points)

    def update(self, tau: Transition) -> None:
        _, mean, variance = quadrature_log_moments(self.table, tau, self.grid)
        self.table.set_belief(tau.s, tau.a, mean, variance)

    def estimates(self) -> np.ndarray:
        return self.table.means.copy()


class QLearningAgent:
    """Tabular Q-learning baseline; Q-values start at zero.

    Raises:
        ValueError: unless ``0 < alpha0 <= 1`` and ``n0 > -1``, which
            keep every step size of the schedule in ``(0, 1]``.
    """

    kind = "qlearning"

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        gamma: float,
        policy: PolicySpec,
        alpha0: float = DEFAULT_ALPHA0,
        n0: float = DEFAULT_N0,
    ) -> None:
        if not 0.0 < alpha0 <= 1.0:
            raise ValueError(f"alpha0 must lie in (0, 1], got {alpha0}")
        if not n0 > -1.0:
            raise ValueError(f"n0 must exceed -1, got {n0}")
        self.table = QTable(n_states, n_actions)
        self.policy = policy
        self.gamma = gamma
        self.alpha0 = alpha0
        self.n0 = n0

    def update(self, tau: Transition) -> None:
        qlearning_update(self.table, tau, self.alpha0, self.n0, self.gamma)

    def estimates(self) -> np.ndarray:
        return self.table.values.copy()


Agent = AdfqAgent | AdfqNumericAgent | QLearningAgent


class EpisodeRunner:
    """Current-state wrapper over an immutable MDP; resets on terminal."""

    def __init__(self, mdp: TabularMdp) -> None:
        self.mdp = mdp
        self.state = mdp.start_state

    def step(self, a: int, rng: np.random.Generator) -> Transition:
        s = self.state
        r, s_next, terminal = step(self.mdp, s, a, rng)
        self.state = self.mdp.start_state if terminal else s_next
        return Transition(s=s, a=a, r=r, s_next=s_next, terminal=terminal)


def agent_step(agent: Agent, runner: EpisodeRunner, rng: np.random.Generator) -> Transition:
    """Select an action, step the environment, apply the agent's update."""
    a = select_action(agent.policy, runner.state, agent.table, rng)
    tau = runner.step(a, rng)
    agent.update(tau)
    return tau


def make_agent(
    kind: str,
    mdp: TabularMdp,
    policy: PolicySpec,
    init_rng: np.random.Generator,
    sigma_w: float = 0.0,
    init_variance: float = DEFAULT_INIT_VARIANCE,
    init_mean_range: tuple[float, float] = DEFAULT_INIT_MEAN_RANGE,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
    alpha0: float = DEFAULT_ALPHA0,
    n0: float = DEFAULT_N0,
    grid_points: int = GridSpec.n,
) -> Agent:
    """Construct an agent of the given kind for ``mdp``.

    Belief agents draw their initial means from ``init_rng`` (identical
    streams give identical initial tables, regardless of agent kind);
    the Q-learning baseline consumes nothing from it.
    """
    if kind in ("adfq", "adfq-numeric"):
        table = BeliefTable.random_init(
            mdp.n_states,
            mdp.n_actions,
            mdp.gamma,
            init_rng,
            mean_range=init_mean_range,
            init_variance=init_variance,
            sigma_w=sigma_w,
            variance_floor=variance_floor,
        )
        if kind == "adfq":
            return AdfqAgent(table, policy)
        return AdfqNumericAgent(table, policy, grid_points=grid_points)
    if kind == "qlearning":
        return QLearningAgent(
            mdp.n_states, mdp.n_actions, mdp.gamma, policy, alpha0=alpha0, n0=n0
        )
    raise ValueError(f"unknown agent kind {kind!r}")


AGENT_KINDS = ("adfq", "adfq-numeric", "qlearning")

__all__ = [
    "POLICY_KINDS",
    "AGENT_KINDS",
    "PolicySpec",
    "QTable",
    "select_action",
    "qlearning_update",
    "AdfqAgent",
    "AdfqNumericAgent",
    "QLearningAgent",
    "EpisodeRunner",
    "agent_step",
    "make_agent",
]
