"""Analytic moment-matched belief update.

The true posterior over Q(s, a) after one transition is a sum over next
actions of a Gaussian times a product of Gaussian CDF factors. Swapping
each CDF factor for its squared-exponential bound turns every summand
into a piecewise-quadratic log density. Each summand is then replaced
by a Gaussian matched at its peak:

* the peak location is the precision-weighted average of the branch's
  own component and every other TD target that lies above the peak
  (the "active set"). Because the fixed point is piecewise linear in
  which targets are active, scanning the targets in descending order of
  mean and stopping at the first bracket-consistent prefix finds the
  unique solution directly;
* the peak variance matches the local curvature: precisions of the
  branch component and the active targets add up;
* the log peak height evaluates the summand at the peak, entirely in
  log space since the exponents routinely pass the exp underflow point
  once variances shrink.

The matched Gaussians form a mixture whose weights are the normalized
peak masses; the belief update is the mixture mean and variance.

:func:`adfq_update` is a scalar kernel. It reads the next state's
beliefs once, sorts the TD targets once, and walks that single order
for every branch, skipping the branch's own target, so an update costs
O(A log A) plus the active sets rather than a sort per branch. It
works on plain floats and allocates no per-branch objects: the
:class:`ActionBranch` diagnostics in :attr:`UpdateResult.branches` are
built from the kernel's per-branch floats on first access. The bracket
scan, the curvature sum and the log height are each written once, as
private float helpers; :func:`solve_peak_mean`, :func:`peak_variance`
and :func:`log_peak_height` are their per-branch public forms.

``qlearning_limit_target`` gives the small-variance limit of the
update's mean, the tabular Q-learning update with an inverse-variance
learning rate, which the test suite uses as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .beliefs import (
    BeliefTable,
    BranchComponents,
    Transition,
    _check_variance,
    _conjugate,
    _terminal_variance,
    # re-exported: perfbench/tracer.py wraps them as attributes of this module
    td_components,  # noqa: F401
    terminal_components,  # noqa: F401
)


@dataclass(frozen=True)
class ActionBranch:
    """Diagnostics for one next-action branch of an update."""

    b: int
    components: BranchComponents
    mu_star: float
    var_star: float
    log_k_star: float
    weight: float


@dataclass(frozen=True)
class UpdateResult:
    """Moment-matched posterior for one transition; does not touch the table.

    ``columns`` holds the kernel's per-branch values as parallel
    sequences: branch ids, TD target means ``m`` and effective variances
    ``v``, ``(mu_bar, var_bar, log_c)`` combinations, peak means, peak
    variances, log peak heights and weights. :attr:`branches` assembles
    them into :class:`ActionBranch` records on first access only.
    """

    new_mean: float
    new_variance: float
    columns: tuple[Sequence, ...] = field(repr=False)

    @cached_property
    def branches(self) -> tuple[ActionBranch, ...]:
        return tuple(
            ActionBranch(b, BranchComponents(m, v, *combo), mu_star, var_star, log_k, w)
            for b, m, v, combo, mu_star, var_star, log_k, w in zip(*self.columns)
        )


def _peak_mean(
    mu_bar: float,
    var_bar: float,
    targets: Sequence[tuple[float, float]],
    skip: int = -1,
) -> float:
    """Bracket scan over ``targets`` sorted by mean, descending.

    Position ``skip`` of ``targets`` is left out (the branch's own
    target). The candidate after admitting the ``k`` highest targets is
    consistent when it lies below the last admitted mean and at or above
    the next one; the first consistent candidate is the peak.
    """
    n = len(targets)
    num = mu_bar / var_bar
    den = 1.0 / var_bar
    upper = math.inf
    best = mu_bar
    best_violation = math.inf
    k = 0
    while True:
        if k == skip:
            k += 1
        candidate = num / den
        if k < n:
            m, v = targets[k]
            lower = m
        else:
            lower = -math.inf
        if upper > candidate >= lower:
            return candidate
        # roundoff can leave every bracket check marginally violated;
        # remember the least-inconsistent candidate as a fallback
        violation = max(candidate - upper, lower - candidate)
        if violation < best_violation:
            best_violation = violation
            best = candidate
        if k >= n:
            return best
        num += m / v
        den += 1.0 / v
        upper = m
        k += 1


def _peak_variance(var_bar: float, active: Sequence[tuple[float, float]]) -> float:
    precision = 1.0 / var_bar
    for _, v in active:
        precision += 1.0 / v
    return 1.0 / precision


def _log_peak_height(
    mu_bar: float,
    var_bar: float,
    log_c: float,
    active: Sequence[tuple[float, float]],
    mu_star: float,
    var_star: float,
) -> float:
    d = mu_star - mu_bar
    log_k = log_c + 0.5 * math.log(var_star / var_bar) - d * d / (2.0 * var_bar)
    for m, v in active:
        gap = m - mu_star
        log_k -= gap * gap / (2.0 * v)
    return log_k


def _above(targets: Sequence[tuple[float, float]], mu_star: float) -> list[tuple[float, float]]:
    return [t for t in targets if t[0] > mu_star]


def solve_peak_mean(
    branch: BranchComponents, other_targets: Sequence[tuple[float, float]]
) -> float:
    """Peak location of one branch's approximate log posterior summand.

    ``other_targets`` holds ``(m, v)`` pairs for the remaining next
    actions, where ``v`` is the variance appearing under the squared
    ReLU penalty for that target. The peak is the precision-weighted
    mean of ``(mu_bar, var_bar)`` and exactly those targets whose means
    exceed the peak itself. Targets sitting exactly at the peak are
    excluded (step function taken as 0 at 0).
    """
    targets = sorted(other_targets, key=lambda t: t[0], reverse=True)
    return _peak_mean(branch.mu_bar, branch.var_bar, targets)


def peak_variance(
    branch: BranchComponents,
    other_targets: Sequence[tuple[float, float]],
    mu_star: float,
) -> float:
    """Curvature-matched variance at the peak.

    Precisions of the branch component and of every strictly active
    target add; boundary targets (mean equal to the peak) contribute
    nothing, which yields the larger, conservative variance.
    """
    return _peak_variance(branch.var_bar, _above(other_targets, mu_star))


def log_peak_height(
    branch: BranchComponents,
    other_targets: Sequence[tuple[float, float]],
    mu_star: float,
    var_star: float,
) -> float:
    """Log mass of the matched Gaussian for one branch."""
    return _log_peak_height(
        branch.mu_bar,
        branch.var_bar,
        branch.log_c,
        _above(other_targets, mu_star),
        mu_star,
        var_star,
    )


def mixture_weights(log_k: Sequence[float]) -> list[float]:
    """Normalize log peak masses into mixture weights (shift invariant).

    Normalization happens entirely in max-shifted space; adding the
    shift back first would cost ~|shift| * eps of absolute error once
    the raw masses sit tens of thousands of log units below zero.
    """
    if not log_k:
        raise ValueError("no branch masses to normalize")
    m = max(log_k)
    if m == -math.inf:
        # all masses identically zero cannot happen with finite inputs;
        # guard against an all-(-inf) call anyway
        return [1.0 / len(log_k)] * len(log_k)
    shifted = [math.exp(v - m) for v in log_k]
    total = math.fsum(shifted)
    return [v / total for v in shifted]


def adfq_update(table: BeliefTable, tau: Transition) -> UpdateResult:
    """Moment-matched belief update for ``Q(tau.s, tau.a)``.

    Pure: the result must be written back explicitly via
    :func:`apply_update`. Terminal transitions collapse to the single
    conjugate branch with the bare reward as target.
    """
    table.check_transition(tau)
    prior_mean = float(table.means[tau.s, tau.a])
    prior_var = float(table.variances[tau.s, tau.a])
    _check_variance(prior_var)
    r = tau.r

    if tau.terminal:
        v = _terminal_variance(table.sigma_w)
        combo = _conjugate(prior_mean, prior_var, r, v)
        mu_bar, var_bar, log_c = combo
        return UpdateResult(
            new_mean=mu_bar,
            new_variance=max(var_bar, table.variance_floor),
            columns=((-1,), (r,), (v,), (combo,), (mu_bar,), (var_bar,), (log_c,), (1.0,)),
        )

    n_actions = table.n_actions
    gamma = table.gamma
    if n_actions > 1 and gamma == 0.0:
        raise ValueError("multi-action update requires gamma > 0")

    gamma2 = gamma * gamma
    sigma2 = table.sigma_w * table.sigma_w
    target_means = table.means[tau.s_next].tolist()
    target_vars = table.variances[tau.s_next].tolist()
    ms = [r + gamma * mean for mean in target_means]
    # penalty-side variance comes from the CDF factors, which carry the
    # discounted target variance without the observation noise
    penalties = [(m, gamma2 * var) for m, var in zip(ms, target_vars)]
    vs = []
    combos = []
    for (m, pen_v), var in zip(penalties, target_vars):
        _check_variance(var)
        v = pen_v + sigma2
        if not v > 0.0:
            raise ValueError("effective target variance is zero (gamma=0 and sigma_w=0)")
        vs.append(v)
        combos.append(_conjugate(prior_mean, prior_var, m, v))

    # one stable descending sort serves every branch; ties keep index order
    order = sorted(range(n_actions), key=ms.__getitem__, reverse=True)
    ranked = [penalties[i] for i in order]
    rank = [0] * n_actions
    for k, i in enumerate(order):
        rank[i] = k

    mu_stars: list[float] = []
    var_stars: list[float] = []
    log_ks: list[float] = []
    for b, (mu_bar, var_bar, log_c) in enumerate(combos):
        mu_star = _peak_mean(mu_bar, var_bar, ranked, rank[b])
        # the targets above the peak form a prefix of the ranking; the
        # sums below run over them in index order
        active = []
        for i in order:
            if not ms[i] > mu_star:
                break
            if i != b:
                active.append(i)
        active.sort()
        active_targets = [penalties[i] for i in active]
        var_star = _peak_variance(var_bar, active_targets)
        log_ks.append(
            _log_peak_height(mu_bar, var_bar, log_c, active_targets, mu_star, var_star)
        )
        mu_stars.append(mu_star)
        var_stars.append(var_star)

    weights = mixture_weights(log_ks)
    new_mean = math.fsum(w * m for w, m in zip(weights, mu_stars))
    second = math.fsum(w * (v + m * m) for w, v, m in zip(weights, var_stars, mu_stars))
    new_variance = second - new_mean * new_mean
    return UpdateResult(
        new_mean=new_mean,
        new_variance=max(new_variance, table.variance_floor),
        columns=(range(n_actions), ms, vs, combos, mu_stars, var_stars, log_ks, weights),
    )


def apply_update(table: BeliefTable, tau: Transition, result: UpdateResult) -> None:
    """Write an update result back into the table (floor applied here)."""
    table.set_belief(tau.s, tau.a, result.new_mean, result.new_variance)


def qlearning_limit_target(table: BeliefTable, tau: Transition) -> tuple[float, float]:
    """Small-variance reference update ``((1-a)*mu + a*target, a)``.

    The learning rate is the prior variance over the prior-plus-target
    variance at the highest-mean next action (lowest index on ties);
    terminal transitions use the bare reward with zero target variance.
    """
    table.check_transition(tau)
    prior = table.belief(tau.s, tau.a)
    sw2 = table.sigma_w * table.sigma_w
    if tau.terminal:
        target = tau.r
        target_var = 0.0
    else:
        b_plus = int(np.argmax(table.means[tau.s_next]))
        target = tau.r + table.gamma * float(table.means[tau.s_next, b_plus])
        target_var = table.gamma * table.gamma * float(table.variances[tau.s_next, b_plus])
    alpha = prior.variance / (prior.variance + target_var + sw2)
    mean = (1.0 - alpha) * prior.mean + alpha * target
    return mean, alpha


__all__ = [
    "ActionBranch",
    "UpdateResult",
    "solve_peak_mean",
    "peak_variance",
    "log_peak_height",
    "mixture_weights",
    "adfq_update",
    "apply_update",
    "qlearning_limit_target",
]
