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

:func:`adfq_update` is a scalar kernel on plain floats. It reads the
next state's beliefs once, sorts the TD targets once, and walks that
order for every branch, skipping the branch's own target. A branch's
log peak height is at most its ``log_c``, so the kernel solves the
branches in descending ``log_c`` and stops at the first more than
``NEGLIGIBLE_LOG_DENSITY`` (750) below the largest height found: that
branch and every later one has weight exactly 0.0, which with many
actions and narrow beliefs is most of them. So an update costs two
O(A log A) sorts plus one solve per branch that can carry weight.
:attr:`UpdateResult.branches` solves the skipped branches on first
access. :func:`solve_peak_mean`, the bracket scan for a single branch,
stays because the benchmark's tracer wraps it.

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
    NEGLIGIBLE_LOG_DENSITY,
    BeliefTable,
    BranchComponents,
    Transition,
    _branch_terms,
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

    :attr:`branches` lists every branch in order as an
    :class:`ActionBranch`. Its first access solves the branches the
    kernel skipped, with weight 0.0, from values captured by the
    update, never from the table.
    """

    new_mean: float
    new_variance: float
    # ids, ms, vs, combos, branches in solve order, the solved ones'
    # (mu_star, var_star, log_k) and weights, and the solver's ranking
    _kernel: tuple = field(repr=False)

    @cached_property
    def branches(self) -> tuple[ActionBranch, ...]:
        ids, ms, vs, combos, solved, peaks, weights, ranking = self._kernel
        found = {b: (*peak, w) for b, peak, w in zip(solved, peaks, weights)}
        return tuple(
            ActionBranch(i, BranchComponents(m, v, *combo),
                         *(found.get(b) or (*_solve_branch(b, combo, ranking), 0.0)))
            for b, (i, m, v, combo) in enumerate(zip(ids, ms, vs, combos))
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


def _solve_branch(b: int, combo: tuple, ranking: tuple) -> tuple[float, float, float]:
    """Peak mean, peak variance and log peak height of branch ``b``.

    ``ranking`` is ``(ms, penalties, order, ranked, rank)`` from
    :func:`adfq_update`: the targets, ranked by mean, descending.
    """
    ms, penalties, order, ranked, rank = ranking
    mu_bar, var_bar, log_c = combo
    mu_star = _peak_mean(mu_bar, var_bar, ranked, rank[b])
    # the targets above the peak form a prefix of the ranking; the sums
    # below run over them in index order
    active = []
    for i in order:
        if not ms[i] > mu_star:
            break
        if i != b:
            active.append(i)
    active.sort()
    precision = 1.0 / var_bar
    for i in active:
        precision += 1.0 / penalties[i][1]
    var_star = 1.0 / precision
    d = mu_star - mu_bar
    log_k = log_c + 0.5 * math.log(var_star / var_bar) - d * d / (2.0 * var_bar)
    for i in active:
        m, v = penalties[i]
        gap = m - mu_star
        log_k -= gap * gap / (2.0 * v)
    return mu_star, var_star, log_k


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
    ms, penalties, vs, combos = _branch_terms(table, tau)
    if tau.terminal:
        mu_bar, var_bar, _ = combos[0]
        return UpdateResult(
            mu_bar,
            max(var_bar, table.variance_floor),
            ((-1,), tuple(ms), tuple(vs), tuple(combos), (0,), tuple(combos), (1.0,), ()),
        )

    n_actions = table.n_actions

    # one stable descending sort serves every branch; ties keep index order
    order = sorted(range(n_actions), key=ms.__getitem__, reverse=True)
    ranked = [penalties[i] for i in order]
    rank = [0] * n_actions
    for k, i in enumerate(order):
        rank[i] = k
    ranking = (ms, penalties, order, ranked, rank)

    # Solve the branches in descending log_c; stop at the first whose log_c
    # is below cutoff = fl(M - 750), M the largest log_k so far: from there
    # on every weight is exactly 0.0. log_k is log_c + log(var_star /
    # var_bar) / 2 minus penalties >= 0, and var_star <= var_bar up to
    # rounding, so log_k exceeds log_c by under 1e-15. Where ulp(cutoff) < 1,
    # fl moves M - 750 by under 0.5, so log_k - M < -749, past exp's
    # underflow at -745.13, and the final max is only larger. Where
    # ulp(cutoff) >= 1 that excess rounds away and log_k <= log_c <=
    # cutoff - ulp(cutoff), so log_k - M <= -750 - ulp(cutoff) / 2; at
    # |M| ~ 1e21, M - 750 rounds to M and this still holds. Zero weights
    # put 0.0 terms into both fsums, and fsum is exactly rounded whatever
    # the order of its terms, so mixing the solved branches alone gives
    # the same bits.
    log_cs = [combo[2] for combo in combos]
    by_log_c = sorted(range(n_actions), key=log_cs.__getitem__, reverse=True)
    peaks = []
    cutoff = -math.inf
    for b in by_log_c:
        if log_cs[b] < cutoff:
            break
        peak = _solve_branch(b, combos[b], ranking)
        peaks.append(peak)
        if peak[2] - NEGLIGIBLE_LOG_DENSITY > cutoff:
            cutoff = peak[2] - NEGLIGIBLE_LOG_DENSITY

    mu_stars, var_stars, log_ks = zip(*peaks)
    weights = mixture_weights(log_ks)
    new_mean = math.fsum(w * m for w, m in zip(weights, mu_stars))
    # centered about the mixture mean: E[q^2] - mean^2 would cancel once
    # |mean| is large next to the spread
    new_variance = math.fsum(
        [w * (v + (m - new_mean) * (m - new_mean)) for w, v, m in zip(weights, var_stars, mu_stars)]
    )
    return UpdateResult(
        new_mean,
        max(new_variance, table.variance_floor),
        (range(n_actions), ms, vs, combos, by_log_c, peaks, weights, ranking),
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
    "mixture_weights",
    "adfq_update",
    "apply_update",
    "qlearning_limit_target",
]
