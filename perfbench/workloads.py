"""The benchmark's workloads: each is one ``adfq`` CLI invocation.

Every hyperparameter is passed explicitly, so a later change to a CLI
default cannot silently change what a workload measures, and no config
file is read. ``--jobs 1`` keeps each workload in a single process.
README.md in this directory records why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    command: str
    flags: tuple[str, ...]
    agents: tuple[str, ...]
    horizon: int
    eval_every: int
    trials: int

    def argv(self, seed: int, out_dir: str, horizon: int | None = None,
             trials: int | None = None) -> list[str]:
        """CLI arguments; ``horizon``/``trials`` override the sizing."""
        return [
            self.command,
            *self.flags,
            "--horizon", str(self.horizon if horizon is None else horizon),
            "--eval-every", str(self.eval_every),
            "--trials", str(self.trials if trials is None else trials),
            "--seed", str(seed),
            "--jobs", "1",
            "--out", out_dir,
        ]

    @property
    def updates(self) -> int:
        """Agent updates one invocation applies."""
        return self.horizon * self.trials * len(self.agents)


_BELIEF_FLAGS = (
    "--init-variance", "100",
    "--variance-floor", "1e-10",
    "--alpha0", "0.5",
    "--n0", "0",
    "--grid-points", "2001",
)

WORKLOADS = {
    "loop-ts": Workload(
        command="learn",
        flags=(
            "--domain", "loop", "--slip", "0.1", "--gamma", "0.95",
            "--agent", "adfq", "--policy", "ts", "--epsilon", "0.1",
            "--temperature", "1.0", "--sigma-w", "0.1",
            "--init-mean-low", "0", "--init-mean-high", "20",
            *_BELIEF_FLAGS,
        ),
        agents=("adfq",),
        horizon=10000,
        eval_every=100,
        trials=1,
    ),
    "arms50-conv": Workload(
        command="convergence",
        flags=(
            "--domain", "arms", "--n-arms", "50", "--slip", "0", "--gamma", "0.9",
            "--agents", "adfq,qlearning", "--sigma-w", "0.1",
            "--init-mean-low", "0", "--init-mean-high", "1",
            *_BELIEF_FLAGS,
        ),
        agents=("adfq", "qlearning"),
        horizon=3000,
        eval_every=30,
        trials=1,
    ),
    "maze-numeric": Workload(
        command="learn",
        flags=(
            "--domain", "maze", "--slip", "0", "--gamma", "0.95",
            "--agent", "adfq-numeric", "--policy", "egreedy", "--epsilon", "0.1",
            "--temperature", "1.0", "--sigma-w", "0.1",
            "--init-mean-low", "0", "--init-mean-high", "1",
            *_BELIEF_FLAGS,
        ),
        agents=("adfq-numeric",),
        horizon=2000,
        eval_every=20,
        trials=1,
    ),
}
