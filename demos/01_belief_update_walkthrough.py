#!/usr/bin/env python3
"""Anatomy of a single Bayesian Q-value update.

A worked three-action example: the prior belief on Q(s, a) meets the
TD targets induced by the next state's action beliefs, the true
posterior is a Gaussian-times-CDF-product mixture, and the analytic
update matches its moments with one Gaussian per branch. Run it to see
the per-branch quantities, the moment-matched result, and how close it
lands to numerical integration of the true posterior. With matplotlib
installed, a figure with the density overlay is saved alongside.
"""

import math

import numpy as np

from adfq import (
    BeliefTable,
    GridSpec,
    Transition,
    adfq_update,
    exact_two_action_moments,
    quadrature_log_moments,
)
from adfq.posterior import posterior_unnorm_pdf_grid

# One state-action prior and a next state with three actions. The
# third action's belief sits well above the others, so it should
# dominate the update; the first two differ only in confidence.
PRIOR_MEAN, PRIOR_VAR = 0.0, 1.0
NEXT_BELIEFS = [(-2.0, 2.0), (-2.0, 0.5), (4.5, 0.5)]
REWARD, GAMMA = 0.0, 0.9


def build_table() -> tuple[BeliefTable, Transition]:
    n = len(NEXT_BELIEFS)
    means = np.array([[PRIOR_MEAN] * n, [m for m, _ in NEXT_BELIEFS]])
    variances = np.array([[PRIOR_VAR] * n, [v for _, v in NEXT_BELIEFS]])
    table = BeliefTable(means, variances, gamma=GAMMA)
    return table, Transition(s=0, a=0, r=REWARD, s_next=1)


def max_density(x: float) -> float:
    """Density of max(V) at x: each action's pdf times the other actions' CDFs."""
    pdfs, cdfs = [], []
    for mean, var in NEXT_BELIEFS:
        z = (x - mean) / math.sqrt(var)
        pdfs.append(math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * var))
        cdfs.append(0.5 * math.erfc(-z / math.sqrt(2.0)))
    return sum(pdf * math.prod(cdfs[:i] + cdfs[i + 1 :]) for i, pdf in enumerate(pdfs))


def main() -> None:
    print("=== the value of the next state is a max of Gaussians ===")
    for x in (-3.0, 0.0, 3.0, 4.5, 6.0):
        print(f"  density of max(V) at {x:+.1f}: {max_density(x):.5f}")

    table, tau = build_table()
    result = adfq_update(table, tau)

    print("\n=== per-branch moment matching ===")
    print(f"{'b':>3} {'target':>9} {'mu_bar':>9} {'var_bar':>9} "
          f"{'mu*':>9} {'var*':>9} {'weight':>9}")
    for br in result.branches:
        print(f"{br.b:>3} {br.m:>9.4f} {br.mu_bar:>9.4f} {br.var_bar:>9.4f} "
              f"{br.mu_star:>9.4f} {br.var_star:>9.4f} {br.weight:>9.6f}")
    print("\nthe high third action receives almost the whole weight, and")
    print("the lagging branches were dragged toward it by their penalties")

    print("\n=== moment-matched update vs numerical integration ===")
    _, quad_mean, quad_variance = quadrature_log_moments(table, tau, GridSpec(n=8001))
    print(f"  analytic  : mean {result.new_mean:+.6f}  variance {result.new_variance:.6f}")
    print(f"  quadrature: mean {quad_mean:+.6f}  variance {quad_variance:.6f}")

    print("\n=== two-action case has a closed form ===")
    two = BeliefTable(table.means[:, :2], table.variances[:, :2], gamma=GAMMA)
    res2 = adfq_update(two, tau)
    exact = exact_two_action_moments(two, tau)
    _, quad2_mean, _ = quadrature_log_moments(two, tau, GridSpec(n=8001))
    print(f"  analytic    : mean {res2.new_mean:+.9f}")
    print(f"  closed form : mean {exact[0]:+.9f}")
    print(f"  quadrature  : mean {quad2_mean:+.9f}")
    print("the closed form and quadrature agree to solver precision;")
    print("the analytic estimate is loose here because the two targets")
    print("overlap within their own scale, and it tightens as variances")
    print("shrink (see the small-variance tests):")
    for factor in (1.0, 0.1, 0.01):
        shrunk = BeliefTable(two.means.copy(), two.variances * factor, gamma=GAMMA)
        gap = abs(adfq_update(shrunk, tau).new_mean - exact_two_action_moments(shrunk, tau)[0])
        print(f"  variances x {factor:<5g}: |analytic - exact| = {gap:.2e}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\n(matplotlib not installed; skipping the density figure)")
        return

    q = np.linspace(-6.0, 8.0, 1201)
    f = posterior_unnorm_pdf_grid(q, table, tau)
    f /= np.trapezoid(f, q)
    approx = np.zeros_like(q)
    for br in result.branches:
        approx += (
            br.weight
            * np.exp(-0.5 * (q - br.mu_star) ** 2 / br.var_star)
            / np.sqrt(2 * np.pi * br.var_star)
        )
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(q, f, label="true posterior (normalized)")
    ax.plot(q, approx, "--", label="matched Gaussian mixture")
    ax.axvline(result.new_mean, color="k", lw=0.8, label="updated mean")
    ax.set_xlabel("q")
    ax.set_ylabel("density")
    ax.legend()
    fig.tight_layout()
    fig.savefig("belief_update_walkthrough.png", dpi=120)
    print("\nsaved figure to belief_update_walkthrough.png")


if __name__ == "__main__":
    main()
