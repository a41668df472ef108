#!/usr/bin/env python3
"""Convergence to the optimal Q-values on the stochastic-arm MDPs.

Replays identical uniform-policy trajectories through the Bayesian
learner and tabular Q-learning, tracking the RMSE of their estimates
against Q* from value iteration. The Bayesian update wins on two
counts: its first visits overwrite the arbitrary initialization at
full strength, and the soft combination over next actions avoids the
max-operator bias that noisy arms inflict on Q-learning. Writes one
CSV per agent and, with matplotlib, a comparison figure.
"""

import numpy as np

from adfq import AgentSpec, DomainSpec, ExperimentConfig, PolicySpec, run_convergence
from adfq.harness import mean_by_step, output_path, write_records_csv

SEED = 1


def run(n_arms: int):
    config = ExperimentConfig(
        domain=DomainSpec("arms", n_arms=n_arms),
        horizon=3000,
        seed=SEED,
        agents=("adfq", "qlearning"),
        agent_spec=AgentSpec(PolicySpec("uniform_random"), sigma_w=0.1, alpha0=0.5, n0=0.0),
        n_trials=5,
        output_dir="demo_output",
    )
    records = run_convergence(config)
    curves = {}
    for kind, recs in records.items():
        path = write_records_csv(output_path(config, "convergence", kind), recs)
        rows = mean_by_step(recs)
        curves[kind] = (
            np.array([r[0] for r in rows]),
            np.array([r[1] for r in rows]),
        )
        print(f"arms{n_arms} {kind:10s}: RMSE {rows[0][1]:7.4f} -> {rows[-1][1]:7.4f}  ({path})")
    return curves


def main() -> None:
    all_curves = {n: run(n) for n in (2, 10)}
    for n_arms, curves in all_curves.items():
        final_adfq = curves["adfq"][1][-1]
        final_ql = curves["qlearning"][1][-1]
        verdict = "beats" if final_adfq < final_ql else "matches"
        print(f"arms{n_arms}: the Bayesian learner {verdict} Q-learning "
              f"({final_adfq:.4f} vs {final_ql:.4f})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not installed; skipping the figure)")
        return

    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=False)
    for ax, (n_arms, curves) in zip(axes, all_curves.items()):
        for kind, (steps, rmse) in curves.items():
            ax.plot(steps, rmse, label=kind)
        ax.set_title(f"{n_arms}-arm MDP")
        ax.set_xlabel("learning steps")
        ax.set_ylabel("RMSE to Q*")
        ax.legend()
    fig.tight_layout()
    fig.savefig("convergence_rmse.png", dpi=120)
    print("saved figure to convergence_rmse.png")


if __name__ == "__main__":
    main()
