"""Shared helpers: randomized belief-update instances and subprocess runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from adfq.beliefs import BeliefTable, Transition


def random_instance(
    rng: np.random.Generator,
    n_actions: int,
    sigma_range: tuple[float, float] = (0.5, 3.0),
    mean_range: tuple[float, float] = (-5.0, 5.0),
    r_range: tuple[float, float] = (-1.0, 1.0),
    gammas: tuple[float, ...] = (0.9, 0.95),
    sigma_w: float = 0.0,
    variance_floor: float = 1e-300,
) -> tuple[BeliefTable, Transition]:
    """One-prior, one-next-state belief table plus its transition.

    State 0 holds the prior at action 0; state 1 holds the next-state
    beliefs. The tiny default floor keeps scaled-down copies legal.
    """
    means = rng.uniform(*mean_range, size=(2, n_actions))
    sigmas = rng.uniform(*sigma_range, size=(2, n_actions))
    gamma = float(rng.choice(gammas))
    r = float(rng.uniform(*r_range))
    table = BeliefTable(
        means, sigmas**2, gamma=gamma, sigma_w=sigma_w, variance_floor=variance_floor
    )
    return table, Transition(s=0, a=0, r=r, s_next=1)


def scaled(table: BeliefTable, factor: float) -> BeliefTable:
    """Copy of ``table`` with every variance multiplied by ``factor``."""
    return BeliefTable(
        table.means.copy(),
        table.variances * factor,
        gamma=table.gamma,
        sigma_w=table.sigma_w,
        variance_floor=min(table.variance_floor, 1e-300),
    )


def rel_err(a: float, b: float) -> float:
    """Relative error with a unit absolute fallback near zero."""
    return abs(a - b) / (abs(b) + 1.0)


def limit_regime_instance(
    rng: np.random.Generator,
    n_actions: int,
    sigma_range: tuple[float, float] = (0.5, 3.0),
    mean_range: tuple[float, float] = (-4.0, 4.0),
    min_gap: float = 0.5,
) -> tuple[BeliefTable, Transition]:
    """Instance in the regime where one update equals the reference rate.

    Next-action means are separated by at least ``min_gap`` and the
    prior mean is placed strictly between the runner-up and the top TD
    target. Repeated updates drive beliefs into exactly this band; a
    prior far below every target is still being pulled upward by all
    branches jointly and provably does not follow the single-target
    rate yet.
    """
    while True:
        next_means = np.sort(rng.uniform(*mean_range, size=n_actions))
        if np.min(np.diff(next_means)) >= min_gap:
            break
    gamma = 0.95
    r = float(rng.uniform(-1.0, 1.0))
    targets = r + gamma * next_means
    lo = targets[-2] + 0.05 * (targets[-1] - targets[-2])
    hi = targets[-1] - 0.05 * (targets[-1] - targets[-2])
    prior_mean = float(rng.uniform(lo, hi))
    means = np.vstack([np.full(n_actions, prior_mean), next_means])
    sigmas = rng.uniform(*sigma_range, size=(2, n_actions))
    table = BeliefTable(
        means, sigmas**2, gamma=gamma, sigma_w=0.0, variance_floor=1e-300
    )
    return table, Transition(s=0, a=0, r=r, s_next=1)


def signed_magnitude() -> st.SearchStrategy[float]:
    """Hypothesis floats of either sign with magnitudes from 1e-6 to 1e6."""
    return st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(-6.0, 6.0),
    )


def log_uniform_variance() -> st.SearchStrategy[float]:
    """Hypothesis variances from 1e-10 to 1e2, uniform in the exponent."""
    return st.floats(-10.0, 2.0).map(lambda exponent: 10.0**exponent)


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env
    )
