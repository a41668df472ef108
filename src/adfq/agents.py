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

import math
from dataclasses import dataclass

import numpy as np

from .beliefs import BeliefTable, Transition
from .engine import adfq_update, apply_update, mixture_weights
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
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")


class QTable:
    """Point Q-value estimates plus per-pair visit counts."""

    def __init__(self, n_states: int, n_actions: int) -> None:
        self.values = np.zeros((n_states, n_actions))
        self.visit_counts = np.zeros((n_states, n_actions), dtype=np.int64)


def select_action(
    policy: PolicySpec,
    state: int,
    table: BeliefTable | QTable,
    rng: np.random.Generator,
) -> int:
    """Pick an action for ``state`` from belief means or Q-values.

    Greedy selection over beliefs uses the means only. Boltzmann
    selection draws with probabilities ``exp(value / temperature)``,
    normalized by :func:`adfq.engine.mixture_weights` from the gaps
    ``(value - max) / temperature``, which cannot overflow: the greedy
    limit shares ties. Thompson sampling needs a belief table and draws
    ``mean + std * z`` per action on Python floats, with ``z`` from
    ``rng.standard_normal``: numpy's ``normal`` forms ``loc + scale *
    z`` from the same ``z``, so this is bit for bit ``rng.normal(mean,
    std)`` and leaves ``rng`` in the same state, without the
    Python-level check of ``scale`` that ``normal`` runs.
    """
    rows = table.means if isinstance(table, BeliefTable) else table.values
    if not 0 <= state < len(rows):
        raise ValueError(f"state {state} out of range")
    values = rows[state]
    n_actions = values.shape[0]
    if policy.kind == "uniform_random":
        return int(rng.integers(n_actions))
    if policy.kind == "epsilon_greedy":
        if rng.random() < policy.epsilon:
            return int(rng.integers(n_actions))
        return int(values.argmax())  # the lowest index wins ties
    if policy.kind == "boltzmann":
        row = values.tolist()
        top = max(row)
        probs = mixture_weights([(v - top) / policy.temperature for v in row])
        return int(rng.choice(n_actions, p=probs))
    # thompson
    if not isinstance(table, BeliefTable):
        raise ValueError("thompson sampling needs belief variances, not a Q-table")
    # math.sqrt, * and + round correctly, as NumPy's elementwise ops do;
    # normal()'s scale check could not fire: the variance floor keeps stds positive
    z = rng.standard_normal(n_actions).tolist()
    variances = table.variances[state].tolist()
    draws = [m + math.sqrt(v) * zi for m, v, zi in zip(values.tolist(), variances, z)]
    # the first maximum wins, as in epsilon-greedy: every draw is finite
    return draws.index(max(draws))


def check_schedule(alpha0: float, n0: float) -> None:
    """Reject a schedule ``alpha0 * (n0 + 1) / (n0 + t)`` with a step size outside ``(0, 1]``."""
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError(f"alpha0 must lie in (0, 1], got {alpha0}")
    if not -1.0 < n0 < math.inf:
        raise ValueError(f"n0 must be finite and exceed -1, got {n0}")


def qlearning_update(
    qtable: QTable, tau: Transition, alpha0: float, n0: float, gamma: float
) -> float:
    """One tabular Q-learning update with the visit-count schedule.

    The learning rate is ``alpha0 * (n0 + 1) / (n0 + t)`` where ``t``
    counts visits to (s, a) including this one; terminal transitions
    bootstrap from the bare reward. Returns the new Q(s, a).
    """
    n_states, n_actions = qtable.values.shape
    if not (0 <= tau.s < n_states and 0 <= tau.s_next < n_states and 0 <= tau.a < n_actions):
        raise ValueError(f"transition index out of range: {tau}")
    # on Python numbers: the counts are exact integers and the values finite,
    # so the bits are those of NumPy's scalar arithmetic and max
    t = qtable.visit_counts.item(tau.s, tau.a) + 1
    qtable.visit_counts[tau.s, tau.a] = t
    alpha = alpha0 * (n0 + 1.0) / (n0 + t)
    if tau.terminal:
        target = tau.r
    else:
        target = tau.r + gamma * max(qtable.values[tau.s_next].tolist())
    new_q = (1.0 - alpha) * qtable.values.item(tau.s, tau.a) + alpha * target
    qtable.values[tau.s, tau.a] = new_q
    return new_q


class AdfqAgent:
    """Belief learner using the analytic moment-matched update."""

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

    def __init__(self, table: BeliefTable, policy: PolicySpec, grid: GridSpec) -> None:
        self.table = table
        self.policy = policy
        self.grid = grid

    def update(self, tau: Transition) -> None:
        _, mean, variance = quadrature_log_moments(self.table, tau, self.grid)
        self.table.set_belief(tau.s, tau.a, mean, variance)

    def estimates(self) -> np.ndarray:
        return self.table.means.copy()


class QLearningAgent:
    """Tabular Q-learning baseline; Q-values start at zero.

    Raises:
        ValueError: unless ``0 < alpha0 <= 1`` and ``n0`` is finite and
            above -1, which keep every step size of the schedule in ``(0, 1]``.
    """

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        gamma: float,
        policy: PolicySpec,
        alpha0: float,
        n0: float,
    ) -> None:
        check_schedule(alpha0, n0)
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
        return Transition(s, a, r, s_next, terminal)


def agent_step(agent: Agent, runner: EpisodeRunner, rng: np.random.Generator) -> Transition:
    """Select an action, step the environment, apply the agent's update."""
    a = select_action(agent.policy, runner.state, agent.table, rng)
    tau = runner.step(a, rng)
    agent.update(tau)
    return tau


AGENT_KINDS = ("adfq", "adfq-numeric", "qlearning")

__all__ = [
    "POLICY_KINDS",
    "AGENT_KINDS",
    "PolicySpec",
    "QTable",
    "select_action",
    "check_schedule",
    "qlearning_update",
    "AdfqAgent",
    "AdfqNumericAgent",
    "QLearningAgent",
    "EpisodeRunner",
    "agent_step",
]
