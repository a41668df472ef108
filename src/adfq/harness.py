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

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import AGENT_KINDS, EpisodeRunner, PolicySpec, agent_step, make_agent
from .beliefs import (
    DEFAULT_ALPHA0,
    DEFAULT_INIT_MEAN_RANGE,
    DEFAULT_INIT_VARIANCE,
    DEFAULT_N0,
    DEFAULT_VARIANCE_FLOOR,
    Transition,
)
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


@dataclass(frozen=True)
class DomainSpec:
    """Recipe for a bundled domain; kept tiny so configs pickle cheaply."""

    name: str
    slip: float = 0.0
    n_arms: int = 2
    layout: str | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.name == "arms" and self.slip > 0.0:
            raise ValueError(f"the arms domain has no slip, got slip={self.slip}")

    def build(self) -> TabularMdp:
        # each builder keeps its own default discount
        kw = {} if self.gamma is None else {"gamma": self.gamma}
        if self.name == "loop":
            return build_loop(slip=self.slip, **kw)
        if self.name == "maze":
            return build_maze(self.layout or DEFAULT_MAZE, slip=self.slip, **kw)
        if self.name == "arms":
            return build_arms_mdp(self.n_arms, **kw)
        raise ValueError(f"unknown domain {self.name!r}")

    @property
    def label(self) -> str:
        base = f"arms{self.n_arms}" if self.name == "arms" else self.name
        if self.slip > 0.0:
            base += f"-slip{self.slip:g}"
        return base


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; trials derive all randomness from ``seed``."""

    domain: DomainSpec
    horizon: int
    seed: int
    agents: tuple[str, ...] = ("adfq",)
    policy: PolicySpec = PolicySpec("epsilon_greedy")
    eval_every: int | None = None
    n_trials: int = 10
    jobs: int = 1
    sigma_w: float = 0.0
    init_variance: float = DEFAULT_INIT_VARIANCE
    init_mean_range: tuple[float, float] = DEFAULT_INIT_MEAN_RANGE
    variance_floor: float = DEFAULT_VARIANCE_FLOOR
    alpha0: float = DEFAULT_ALPHA0
    n0: float = DEFAULT_N0
    grid_points: int = GridSpec.n
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
        # checked here as well as in BeliefTable: the Q-learning agent builds none
        if not 0.0 <= self.sigma_w < math.inf:
            raise ValueError(f"sigma_w must be finite and nonnegative, got {self.sigma_w}")
        low, high = self.init_mean_range
        if not -math.inf < low <= high < math.inf:
            raise ValueError(f"init_mean_range must be finite with low <= high, got {low}, {high}")
        GridSpec(n=self.grid_points)  # rejects a grid the numeric agent could not use
        if not self.agents:
            raise ValueError("need at least one agent")
        for kind in self.agents:
            if kind not in AGENT_KINDS:
                raise ValueError(f"unknown agent kind {kind!r}")

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
    wall_ms: int = 0


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
    # squaring any other way would change the bytes of the CSVs
    diffs = (np.asarray(estimates, dtype=float) - qstar).ravel().tolist()
    return float(np.sqrt(np.mean([d**2 for d in diffs])))


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
        a = int(np.argmax(estimates[s]))
        r, s, terminal = step(mdp, s, a, rng)
        total += r
        if terminal:
            break
    return total


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _eval_cap(mdp: TabularMdp, qstar: np.ndarray) -> int:
    return max(1, int(1.5 * optimal_path_length(mdp, qstar)))


def _make_trial_agent(config: ExperimentConfig, kind: str, trial: int, mdp: TabularMdp):
    return make_agent(
        kind,
        mdp,
        config.policy,
        _rng(config.seed, trial, 0),
        sigma_w=config.sigma_w,
        init_variance=config.init_variance,
        init_mean_range=config.init_mean_range,
        variance_floor=config.variance_floor,
        alpha0=config.alpha0,
        n0=config.n0,
        grid_points=config.grid_points,
    )


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
    rows, cols = np.nonzero(scored)  # the non-terminal pairs, state by state
    qstar_scored = qstar[rows, cols]
    cap = _eval_cap(mdp, qstar)

    def record(agent, recs: list[EvalRecord], step_no: int) -> None:
        est = agent.estimates()
        err = rmse(est[rows, cols], qstar_scored)
        ret = greedy_rollout(mdp, est, cap, _rng(config.seed, trial, 2, len(recs)))
        recs.append(EvalRecord(trial=trial, step=step_no, rmse=err, greedy_return=ret))

    return record


def _convergence_trial(args: tuple[ExperimentConfig, int]) -> dict[str, list[EvalRecord]]:
    config, trial = args
    mdp = config.domain.build()
    record = _evaluator(config, trial, mdp)
    trajectory = _uniform_trajectory(mdp, config.horizon, _rng(config.seed, trial, 1))

    records: dict[str, list[EvalRecord]] = {}
    for kind in config.agents:
        agent = _make_trial_agent(config, kind, trial, mdp)
        recs: list[EvalRecord] = []
        record(agent, recs, 0)
        for i, tau in enumerate(trajectory, start=1):
            agent.update(tau)
            if i % config.cadence == 0:
                record(agent, recs, i)
        records[kind] = recs
    return records


def _learning_trial(args: tuple[ExperimentConfig, int]) -> list[EvalRecord]:
    config, trial = args
    mdp = config.domain.build()
    record = _evaluator(config, trial, mdp)
    agent = _make_trial_agent(config, config.agents[0], trial, mdp)
    learn_rng = _rng(config.seed, trial, 1)
    runner = EpisodeRunner(mdp)
    recs: list[EvalRecord] = []
    record(agent, recs, 0)
    for i in range(1, config.horizon + 1):
        agent_step(agent, runner, learn_rng)
        if i % config.cadence == 0:
            record(agent, recs, i)
    return recs


def _map_trials(config: ExperimentConfig, worker):
    args = [(config, trial) for trial in range(config.n_trials)]
    if config.jobs == 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(worker, args))


def run_convergence(config: ExperimentConfig) -> dict[str, list[EvalRecord]]:
    """Fixed-trajectory runs; one record list per configured agent."""
    per_trial = _map_trials(config, _convergence_trial)
    out: dict[str, list[EvalRecord]] = {kind: [] for kind in config.agents}
    for trial_records in per_trial:
        for kind, recs in trial_records.items():
            out[kind].extend(recs)
    return out


def run_learning(config: ExperimentConfig) -> list[EvalRecord]:
    """Online learning with the configured policy for the first agent."""
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
            [rec.trial, rec.step, repr(float(rec.rmse)), repr(float(rec.greedy_return)), rec.wall_ms]
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
    name = f"{mode}_{config.domain.label}_{agent_kind}_{config.policy.kind}.csv"
    return default_output_dir(config) / name


__all__ = [
    "OUTPUT_DIR_ENV",
    "CSV_HEADER",
    "DomainSpec",
    "ExperimentConfig",
    "EvalRecord",
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
