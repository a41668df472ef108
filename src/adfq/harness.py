"""Experiment protocols: fixed-trajectory convergence and online learning.

Convergence runs draw one uniform-policy trajectory per trial and replay
the identical transition stream through every configured agent,
recording the root mean square error of its estimates against the
optimal Q-values at a fixed cadence. Learning runs let a single agent
act under its policy and periodically score a frozen greedy rollout
(argmax of the current estimates, no exploration, no learning) capped
at 1.5 times the optimal path length.

Reproducibility contract: every random draw descends from the
experiment seed through ``numpy.random.SeedSequence`` keyed as

* ``(seed, trial, 0)``: agent initialization (shared across agent
  kinds, so belief learners start from identical tables),
* ``(seed, trial, 1)``: trajectory generation / online learning,
* ``(seed, trial, 2, eval_index)``: one stream per greedy evaluation,
  so evaluations never disturb the learning stream.

Trials are independent units of work; running them serially or in a
process pool yields identical records, and the CSV serialization is
byte-stable. The ``wall_ms`` column is reserved for timing but pinned
to 0 so that reruns of the same seed remain byte-identical.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import (
    AGENT_KINDS,
    AdfqAgent,
    AdfqNumericAgent,
    Agent,
    EpisodeRunner,
    PolicySpec,
    QLearningAgent,
    agent_step,
    check_schedule,
)
from .beliefs import DEFAULT_SIGMA_W, DEFAULT_VARIANCE_FLOOR, BeliefTable, Transition
from .envs import (
    DEFAULT_MAZE,
    TabularMdp,
    build_arms_mdp,
    build_loop,
    build_maze,
    greedy_policy,
    optimal_q,
    step,
)
from .posterior import GridSpec

OUTPUT_DIR_ENV = "ADFQ_OUTPUT_DIR"
CSV_HEADER = ("trial", "step", "rmse", "greedy_return", "wall_ms")
DOMAIN_NAMES = ("loop", "maze", "arms")


@dataclass(frozen=True)
class DomainSpec:
    """Recipe for a bundled domain; kept tiny so configs pickle cheaply."""

    name: str
    slip: float = 0.0
    n_arms: int | None = None  # the arms domain sets 2 when not given
    layout: str | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        # refused here, not in ``build``, which a trial may run in a worker process
        if self.name not in DOMAIN_NAMES:
            raise ValueError(f"unknown domain {self.name!r}, expected one of {DOMAIN_NAMES}")
        if self.name == "arms" and self.slip != 0.0:
            raise ValueError(f"the arms domain has no slip, got slip={self.slip}")
        if self.name == "arms" and self.n_arms is None:
            object.__setattr__(self, "n_arms", 2)
        if self.name != "arms" and self.n_arms is not None:
            raise ValueError(f"only the arms domain takes n_arms, got domain {self.name!r}")
        if self.layout is not None and self.name != "maze":
            raise ValueError(f"only the maze domain takes a layout, got domain {self.name!r}")

    def build(self) -> TabularMdp:
        # each builder keeps its own default discount
        kw = {} if self.gamma is None else {"gamma": self.gamma}
        if self.name == "loop":
            return build_loop(slip=self.slip, **kw)
        if self.name == "maze":
            layout = DEFAULT_MAZE if self.layout is None else self.layout
            return build_maze(layout, slip=self.slip, **kw)
        return build_arms_mdp(self.n_arms, **kw)

    @property
    def label(self) -> str:
        base = f"arms{self.n_arms}" if self.name == "arms" else self.name
        if self.slip > 0.0:
            base += f"-slip{self.slip:g}"
        return base


@dataclass(frozen=True)
class AgentSpec:
    """The policy and settings of the agents a run builds, checked here once."""

    policy: PolicySpec = PolicySpec("epsilon_greedy")
    sigma_w: float = DEFAULT_SIGMA_W
    init_variance: float = 100.0
    init_mean_range: tuple[float, float] = (0.0, 1.0)
    variance_floor: float = DEFAULT_VARIANCE_FLOOR
    # the Q-learning baseline's step size alpha0 * (n0 + 1) / (n0 + t)
    alpha0: float = 0.5
    n0: float = 0.0
    grid_points: int = GridSpec.n

    def __post_init__(self) -> None:
        # checked here whichever agent runs: the Q-learning agent builds no
        # BeliefTable, and the belief agents have no step-size schedule
        try:
            BeliefTable(np.zeros((1, 1)), np.full((1, 1), self.init_variance), 0.0,
                        self.sigma_w, self.variance_floor)
        except ValueError as exc:
            raise ValueError(
                f"{exc} (init_variance={self.init_variance}, "
                f"variance_floor={self.variance_floor}, sigma_w={self.sigma_w})"
            ) from None
        check_schedule(self.alpha0, self.n0)
        low, high = self.init_mean_range
        # a finite high - low implies finite ends; numpy's uniform needs it
        if not (low <= high and high - low < math.inf):
            raise ValueError(
                f"init_mean_range must be finite with low <= high and a finite "
                f"high - low, got {low}, {high}"
            )
        try:  # rejects a grid the numeric agent could not use
            GridSpec(n=self.grid_points)
        except ValueError as exc:
            raise ValueError(f"{exc} (grid_points={self.grid_points})") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; trials derive all randomness from ``seed``."""

    domain: DomainSpec
    horizon: int
    seed: int
    agents: tuple[str, ...] = ("adfq",)
    agent_spec: AgentSpec = AgentSpec()
    eval_every: int | None = None
    n_trials: int = 10
    jobs: int = 1
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if not self.agents:
            raise ValueError("need at least one agent")
        for kind in self.agents:
            if kind not in AGENT_KINDS:
                raise ValueError(f"unknown agent kind {kind!r}")
        if len(set(self.agents)) < len(self.agents):
            # each agent writes one CSV named by its kind
            raise ValueError(f"agent kinds must not repeat, got {', '.join(self.agents)}")

    @property
    def cadence(self) -> int:
        if self.eval_every is not None:
            return self.eval_every
        return max(1, self.horizon // 100)


@dataclass(frozen=True)
class EvalRecord:
    trial: int
    step: int
    rmse: float
    greedy_return: float


def rmse(estimates: np.ndarray, qstar: np.ndarray) -> float:
    """Root mean square difference between two same-shape arrays.

    Raises:
        ValueError: when the shapes differ or the arrays are empty.
    """
    if np.shape(estimates) != np.shape(qstar):
        raise ValueError(f"rmse shapes differ: {np.shape(estimates)} vs {np.shape(qstar)}")
    if np.size(estimates) == 0:
        raise ValueError("cannot take the RMSE of empty arrays")
    # squared by Python's float ** 2, which is libm pow: NumPy's square
    # differs from it in the last bit on 1680 of 2M uniform doubles, so
    # squaring any other way would change the bytes of the CSVs. The
    # pairwise np.add.reduce and the division are np.mean's own steps,
    # without its Python-level wrapper, and math.sqrt is correctly rounded
    diffs = (np.asarray(estimates, dtype=float) - qstar).ravel().tolist()
    squares = [d**2 for d in diffs]
    return math.sqrt(np.add.reduce(squares) / len(squares))


def optimal_path_length(mdp: TabularMdp, qstar: np.ndarray) -> int:
    """Steps the optimal policy needs from start to termination.

    Walks the greedy policy along the most likely successor of each
    step. When that walk never terminates (value ties pointing at
    walls, or cyclic domains) the shortest mode-graph distance to any
    terminal is used instead; domains without reachable terminals (the
    loop) fall back to the state count, which spans the cycle with a
    comfortable margin.
    """
    policy = greedy_policy(qstar)
    s = mdp.start_state
    for length in range(1, 4 * mdp.n_states + 1):
        s = int(np.argmax(mdp.transitions[s, policy[s]]))
        if mdp.is_terminal(s):
            return length
    # breadth-first over most likely successors, any action allowed
    frontier = [mdp.start_state]
    seen = {mdp.start_state}
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for a in range(mdp.n_actions):
                succ = int(np.argmax(mdp.transitions[state, a]))
                if mdp.is_terminal(succ):
                    return depth
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return mdp.n_states


def greedy_rollout(
    mdp: TabularMdp, estimates: np.ndarray, cap: int, rng: np.random.Generator
) -> float:
    """Total reward of an argmax rollout from the start state."""
    total = 0.0
    s = mdp.start_state
    for _ in range(cap):
        a = int(estimates[s].argmax())
        r, s, terminal = step(mdp, s, a, rng)
        total += r
        if terminal:
            break
    return total


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def make_agent(
    spec: AgentSpec, kind: str, mdp: TabularMdp, init_rng: np.random.Generator
) -> Agent:
    """The ``kind`` agent for ``mdp`` with the settings and policy of ``spec``.

    Belief agents draw their initial means from ``init_rng``, so identical
    streams give identical initial tables whichever belief agent it is;
    the Q-learning baseline draws nothing from it.
    """
    if kind == "qlearning":
        return QLearningAgent(
            mdp.n_states, mdp.n_actions, mdp.gamma, spec.policy, spec.alpha0, spec.n0
        )
    if kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {kind!r}")
    shape = (mdp.n_states, mdp.n_actions)
    table = BeliefTable(
        init_rng.uniform(*spec.init_mean_range, size=shape),
        np.full(shape, float(spec.init_variance)),
        mdp.gamma,
        spec.sigma_w,
        spec.variance_floor,
    )
    if kind == "adfq":
        return AdfqAgent(table, spec.policy)
    return AdfqNumericAgent(table, spec.policy, GridSpec(n=spec.grid_points))


def _uniform_trajectory(
    mdp: TabularMdp, horizon: int, rng: np.random.Generator
) -> list[Transition]:
    runner = EpisodeRunner(mdp)
    out = []
    for _ in range(horizon):
        a = int(rng.integers(mdp.n_actions))
        out.append(runner.step(a, rng))
    return out


def _evaluator(config: ExperimentConfig, trial: int, mdp: TabularMdp):
    """``record(agent, recs, step_no)``: score ``agent`` and append the record.

    Q*, the scored pairs and the rollout cap are computed once per
    trial. Evaluation ``i`` of a record list draws its greedy rollout
    from stream ``(seed, trial, 2, i)``.
    """
    qstar = optimal_q(mdp)
    scored = np.ones(qstar.shape, dtype=bool)
    scored[sorted(mdp.terminals)] = False
    qstar_scored = qstar[scored]  # the non-terminal pairs, state by state
    cap = max(1, int(1.5 * optimal_path_length(mdp, qstar)))

    def record(agent, recs: list[EvalRecord], step_no: int) -> None:
        est = agent.estimates()
        err = rmse(est[scored], qstar_scored)
        ret = greedy_rollout(mdp, est, cap, _rng(config.seed, trial, 2, len(recs)))
        recs.append(EvalRecord(trial=trial, step=step_no, rmse=err, greedy_return=ret))

    return record


def _convergence_trial(args: tuple[ExperimentConfig, int]) -> dict[str, list[EvalRecord]]:
    config, trial = args
    mdp = config.domain.build()
    record = _evaluator(config, trial, mdp)
    trajectory = _uniform_trajectory(mdp, config.horizon, _rng(config.seed, trial, 1))

    cadence = config.cadence
    records: dict[str, list[EvalRecord]] = {}
    for kind in config.agents:
        agent = make_agent(config.agent_spec, kind, mdp, _rng(config.seed, trial, 0))
        recs: list[EvalRecord] = []
        record(agent, recs, 0)
        for i, tau in enumerate(trajectory, start=1):
            agent.update(tau)
            if i % cadence == 0:
                record(agent, recs, i)
        records[kind] = recs
    return records


def _learning_trial(args: tuple[ExperimentConfig, int]) -> list[EvalRecord]:
    config, trial = args
    mdp = config.domain.build()
    record = _evaluator(config, trial, mdp)
    agent = make_agent(config.agent_spec, config.agents[0], mdp, _rng(config.seed, trial, 0))
    learn_rng = _rng(config.seed, trial, 1)
    runner = EpisodeRunner(mdp)
    cadence = config.cadence
    recs: list[EvalRecord] = []
    record(agent, recs, 0)
    for i in range(1, config.horizon + 1):
        agent_step(agent, runner, learn_rng)
        if i % cadence == 0:
            record(agent, recs, i)
    return recs


def _map_trials(config: ExperimentConfig, worker):
    args = [(config, trial) for trial in range(config.n_trials)]
    if config.jobs == 1:
        return [worker(a) for a in args]
    # reached only here: a serial run never imports the process pool's
    # machinery (concurrent.futures.process and multiprocessing)
    with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(worker, args))


def run_convergence(config: ExperimentConfig) -> dict[str, list[EvalRecord]]:
    """Fixed-trajectory runs; one record list per configured agent.

    The trajectories are uniform random, so ``config.agent_spec.policy``
    must say so: :func:`output_path` names the CSVs after it.
    """
    if config.agent_spec.policy.kind != "uniform_random":
        raise ValueError(
            "convergence runs replay uniform random trajectories, "
            f"got policy {config.agent_spec.policy.kind!r}"
        )
    per_trial = _map_trials(config, _convergence_trial)
    out: dict[str, list[EvalRecord]] = {kind: [] for kind in config.agents}
    for trial_records in per_trial:
        for kind, recs in trial_records.items():
            out[kind].extend(recs)
    return out


def run_learning(config: ExperimentConfig) -> list[EvalRecord]:
    """Online learning of the one configured agent with the configured policy."""
    if len(config.agents) != 1:
        raise ValueError(f"learning runs one agent, got {', '.join(config.agents)}")
    if config.agent_spec.policy.kind == "thompson" and config.agents[0] == "qlearning":
        raise ValueError("thompson sampling needs belief variances; the qlearning agent has none")
    per_trial = _map_trials(config, _learning_trial)
    out: list[EvalRecord] = []
    for recs in per_trial:
        out.extend(recs)
    return out


def mean_by_step(records: list[EvalRecord]) -> list[tuple[int, float, float]]:
    """Trial-averaged ``(step, rmse, greedy_return)`` rows, step-sorted."""
    by_step: dict[int, list[EvalRecord]] = {}
    for rec in records:
        by_step.setdefault(rec.step, []).append(rec)
    return [
        (
            step_no,
            float(np.mean([r.rmse for r in recs])),
            float(np.mean([r.greedy_return for r in recs])),
        )
        for step_no, recs in sorted(by_step.items())
    ]


def records_to_csv_text(records: list[EvalRecord]) -> str:
    """Deterministic CSV body (UTF-8 text, LF newlines)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in sorted(records, key=lambda r: (r.trial, r.step)):
        writer.writerow(
            # wall_ms stays 0 so that reruns of a seed are byte-identical
            [rec.trial, rec.step, repr(float(rec.rmse)), repr(float(rec.greedy_return)), 0]
        )
    return buf.getvalue()


def write_records_csv(path: str | Path, records: list[EvalRecord]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(records_to_csv_text(records), encoding="utf-8", newline="")
    return path


def default_output_dir(config: ExperimentConfig) -> Path:
    if config.output_dir is not None:
        return Path(config.output_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def output_path(config: ExperimentConfig, mode: str, agent_kind: str) -> Path:
    name = f"{mode}_{config.domain.label}_{agent_kind}_{config.agent_spec.policy.kind}.csv"
    return default_output_dir(config) / name


__all__ = [
    "OUTPUT_DIR_ENV",
    "CSV_HEADER",
    "DOMAIN_NAMES",
    "DomainSpec",
    "AgentSpec",
    "ExperimentConfig",
    "EvalRecord",
    "make_agent",
    "rmse",
    "optimal_path_length",
    "greedy_rollout",
    "run_convergence",
    "run_learning",
    "mean_by_step",
    "records_to_csv_text",
    "write_records_csv",
    "default_output_dir",
    "output_path",
]
