"""Shared helpers: one-branch and randomized belief-update instances, every
branch's peak, subprocess runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from adfq import engine
from adfq.beliefs import (
    BeliefTable,
    GaussianBelief,
    Transition,
    conjugate_pair,
    td_components,
    terminal_components,
)


class Branch(NamedTuple):
    m: float
    v: float
    mu_bar: float
    var_bar: float
    log_c: float


def one_branch(
    prior: GaussianBelief,
    target: GaussianBelief | None,
    r: float,
    gamma: float,
    sigma_w: float,
) -> Branch:
    """The branch the update builds for ``prior`` and one next-action ``target``.

    Runs :func:`td_components` and :func:`conjugate_pair` on a
    one-action table whose state 0 holds the prior and state 1 the
    target; with ``target`` None the transition is terminal and
    :func:`terminal_components` builds it.
    """
    nxt = prior if target is None else target
    table = BeliefTable(
        np.array([[prior.mean], [nxt.mean]]),
        np.array([[prior.variance], [nxt.variance]]),
        gamma=gamma,
        sigma_w=sigma_w,
        variance_floor=min(prior.variance, nxt.variance),
    )
    tau = Transition(s=0, a=0, r=r, s_next=1, terminal=target is None)
    build = terminal_components if tau.terminal else td_components
    prior, ms, _, vs, log_cs = build(table, tau)
    return Branch(ms[0], vs[0], *conjugate_pair(prior, ms[0], vs[0]), log_cs[0])


def all_branches(result: engine.UpdateResult) -> tuple[engine.ActionBranch, ...]:
    """``result.branches`` with each skipped branch's peak solved too, at weight 0.0.

    The update leaves a skipped branch's peak unsolved (NaN in
    ``.branches``); this solves it from the record's fields with the
    kernel's own ``_solve_branch`` and ranking, so every peak has the bits
    the kernel gives it when it solves that branch.
    """
    rows = list(result.branches)
    ms = result.ms
    ranking = (ms, result.penalties, sorted(range(len(ms)), key=ms.__getitem__, reverse=True))
    for b in result.solve_order[len(result.peaks):]:
        br = rows[b]
        peak = engine._solve_branch(b, (br.mu_bar, br.var_bar, br.log_c), ranking)
        rows[b] = br._replace(**dict(zip(("mu_star", "var_star", "log_k_star"), peak)))
    return tuple(rows)


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


def run_python(
    *args: str, cwd: Path | None = None, stdout: int = subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this checkout's ``src`` first on ``PYTHONPATH``.

    Stderr is captured, and stdout too unless ``stdout`` names a file descriptor.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
        cwd=cwd, env=env,
    )
