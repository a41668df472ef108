#!/usr/bin/env python3
"""Online learning on the two-cycle loop domain.

The loop pays +1 for completing its first five-step cycle and +2 for
the second; the catch is that the better cycle must be traversed with
a consistent action, and pressing the wrong one resets to the hub.
Beliefs start optimistic (means U[0, 20) against an optimal value of
about 8.8), so both Thompson sampling and epsilon-greedy keep probing
under-explored actions until their values are pinned down.

Deterministic runs show both policies locking onto the better cycle;
the stochastic variant (10% action slip) contrasts the Bayesian
learner with tabular Q-learning on greedy returns.
"""

import numpy as np

from adfq import AgentSpec, DomainSpec, ExperimentConfig, PolicySpec, run_learning
from adfq.envs import build_loop, greedy_policy, optimal_q
from adfq.harness import mean_by_step, output_path, write_records_csv

SEED = 2


def learning_curve(policy: PolicySpec, *, slip: float, agent: str, sigma_w: float):
    config = ExperimentConfig(
        domain=DomainSpec("loop", slip=slip),
        horizon=10_000,
        seed=SEED,
        agents=(agent,),
        agent_spec=AgentSpec(
            policy, sigma_w=sigma_w, init_mean_range=(0.0, 20.0), alpha0=0.5, n0=0.0
        ),
        n_trials=10,
        output_dir="demo_output",
    )
    records = run_learning(config)
    path = write_records_csv(output_path(config, "learn", agent), records)
    rows = mean_by_step(records)
    return np.array([r[0] for r in rows]), np.array([r[2] for r in rows]), path


def main() -> None:
    mdp = build_loop()
    best = greedy_policy(optimal_q(mdp))[0]
    print(f"optimal first move: action {'ab'[best]} (the +2 cycle)")
    print("greedy evaluation cap: 13 steps, so a perfect policy returns 4.0\n")

    print("=== deterministic loop ===")
    curves = {}
    for name, policy in (
        ("thompson", PolicySpec("thompson")),
        ("eps-greedy", PolicySpec("epsilon_greedy", epsilon=0.1)),
    ):
        steps, returns, path = learning_curve(policy, slip=0.0, agent="adfq", sigma_w=0.0)
        curves[name] = (steps, returns)
        print(f"adfq + {name:10s}: mean greedy return {returns[0]:.2f} -> {returns[-1]:.2f}  ({path})")

    print("\n=== stochastic loop (slip 0.1) ===")
    for agent, sigma_w in (("adfq", 0.1), ("qlearning", 0.0)):
        policy = PolicySpec("epsilon_greedy", epsilon=0.1)
        steps, returns, path = learning_curve(policy, slip=0.1, agent=agent, sigma_w=sigma_w)
        curves[f"slip {agent}"] = (steps, returns)
        print(f"{agent:10s} + eps-greedy: mean greedy return {returns[0]:.2f} -> {returns[-1]:.2f}  ({path})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not installed; skipping the figure)")
        return

    fig, (ax_det, ax_sto) = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for name in ("thompson", "eps-greedy"):
        ax_det.plot(*curves[name], label=name)
    ax_det.set_title("deterministic loop (adfq)")
    for name in ("slip adfq", "slip qlearning"):
        ax_sto.plot(*curves[name], label=name.split()[1])
    ax_sto.set_title("stochastic loop, slip 0.1")
    for ax in (ax_det, ax_sto):
        ax.set_xlabel("learning steps")
        ax.set_ylabel("mean greedy return")
        ax.legend()
    fig.tight_layout()
    fig.savefig("loop_learning.png", dpi=120)
    print("saved figure to loop_learning.png")


if __name__ == "__main__":
    main()
