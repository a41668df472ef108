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
  unique solution directly. Translation invariance (the mean moves by
  ``c`` with the prior mean and the reward) holds only where no target
  lies within rounding of a branch's peak; the shift can flip such a
  target in or out of the active set;
* the peak variance matches the local curvature: precisions of the
  branch component and the active targets add up;
* the log peak height evaluates the summand at the peak, entirely in
  log space since the exponents routinely pass the exp underflow point
  once variances shrink.

The matched Gaussians form a mixture whose weights are the normalized
peak masses; the belief update is the mixture mean and variance.
:func:`mixture_moments` is that step, for :func:`adfq_update` and the
two-action closed form; its normalizer :func:`mixture_weights` also
serves Boltzmann selection.

:func:`adfq_update` is a scalar kernel on plain floats. For every
branch it builds, once, with :func:`adfq.beliefs.td_components`, what
ranking and skipping read: the TD target, its penalty pair, its
effective variance and its ``log_c``. It sorts the TD targets once, and
walks that order for every branch in :func:`solve_peak_mean`, skipping
the branch's own target. A branch's log peak height is at most its
``log_c``, so the kernel solves the branches in descending ``log_c``
and stops at the first more than ``NEGLIGIBLE_LOG_DENSITY`` (750) below
the largest height found: that branch and every later one has weight
exactly 0.0, which with many actions and narrow beliefs is most of
them. Only a branch it solves gets its conjugate pair ``(mu_bar,
var_bar)``, from :func:`adfq.beliefs.conjugate_pair`. So an update
costs two O(A log A) sorts plus one pair and one solve per branch that
can carry weight. It returns an :class:`UpdateResult`: the new mean,
the raw posterior variance, which only the table's writer floors, and
what the kernel computed on the way, by name.

The variance is the weaker half of the match. Against the quadrature
posterior, on the test suite's criterion 2 draws (2 to 10 actions,
standard deviations 0.1 to 0.8), the relative variance error has a
median of 1.4-1.6%, a 90th percentile of 15-16% and a worst case of
80%; shrinking every variance tenfold takes the median to 0.04-0.05%
but leaves the worst at 70-80%. The error grows with the action count:
its median is below 0.01% at two actions and 0.6-4.5% at four to ten
(two seeds of 1000 draws each). The worst updates are those whose two
heaviest branches match the same Gaussian (equal ``mu_star`` and
``var_star``): the analytic variance is then 3 to 5 times below the
quadrature's. ``adfq oracle-check`` prints these errors.

``qlearning_limit_target`` gives the small-variance limit of the
update's mean, the tabular Q-learning update with an inverse-variance
learning rate, which the test suite uses as an independent reference.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .beliefs import (
    NEGLIGIBLE_LOG_DENSITY,
    BeliefTable,
    Transition,
    conjugate_pair,
    td_components,
    terminal_components,
)


class ActionBranch(NamedTuple):
    """Diagnostics for one next-action branch of an update.

    The target and prior combination, as :func:`adfq.beliefs.td_components`
    and :func:`adfq.beliefs.conjugate_pair` build them, then the matched
    Gaussian and its mixture weight.
    """

    b: int
    m: float
    v: float
    mu_bar: float
    var_bar: float
    log_c: float
    mu_star: float
    var_star: float
    log_k_star: float
    weight: float


class _UpdateFields(NamedTuple):
    new_mean: float
    new_variance: float
    prior: tuple[float, float]
    ms: Sequence[float]
    penalties: Sequence[tuple[float, float]]
    vs: Sequence[float]
    log_cs: Sequence[float]
    solve_order: Sequence[int]
    peaks: Sequence[tuple[float, float, float]]
    weights: Sequence[float]


class UpdateResult(_UpdateFields):
    """Moment-matched posterior for one transition; does not touch the table.

    A named tuple: immutable, and compared as the tuple of its fields.

    * ``new_mean``, ``new_variance``: the mixture mean and raw variance;
      ``set_belief`` floors it on write, so a clamp shows here as
      ``new_variance < table.variance_floor``;
    * ``prior``: the updated belief's ``(mean, variance)`` before the
      update;
    * ``ms``, ``penalties``, ``vs``, ``log_cs``: per branch, as
      :func:`adfq.beliefs.td_components` builds them: the TD target mean,
      its penalty pair, its effective variance and the log branch weight;
      ``penalties`` is empty for the single branch of a terminal
      transition;
    * ``solve_order``: the branches in the order the kernel solves them,
      by ``log_c`` descending; the first ``len(peaks)`` were solved and
      every later one has weight exactly 0.0;
    * ``peaks``: their matched ``(mu_star, var_star, log_k_star)``, in
      solve order;
    * ``weights``: their mixture weights, in solve order.

    :attr:`branches` lists every branch in order as an
    :class:`ActionBranch`, ``b`` being -1 for a terminal branch. Its first
    access builds every branch's conjugate pair and solves the branches
    the kernel skipped, with weight 0.0, from these fields, never from
    the table.
    """

    # no __slots__: cached_property keeps .branches in the instance __dict__

    @cached_property
    def branches(self) -> tuple[ActionBranch, ...]:
        ms, penalties = self.ms, self.penalties
        found = dict(zip(self.solve_order, zip(self.peaks, self.weights)))
        ranking = (ms, penalties, sorted(range(len(ms)), key=ms.__getitem__, reverse=True))
        out = []
        for b, (m, v, log_c) in enumerate(zip(ms, self.vs, self.log_cs)):
            combo = (*conjugate_pair(self.prior, m, v), log_c)
            peak, w = found.get(b) or (_solve_branch(b, combo, ranking), 0.0)
            out.append(ActionBranch(b if penalties else -1, m, v, *combo, *peak, w))
        return tuple(out)


def solve_peak_mean(
    branch: tuple[float, float, float],
    targets: Sequence[tuple[float, float]],
    order: Iterable[int],
    skip: int = -1,
) -> float:
    """Peak location of one branch's approximate log posterior summand.

    ``branch`` is ``(mu_bar, var_bar, log_c)``; ``targets`` are the
    ``(m, v)`` penalty pairs, scanned in ``order`` (by mean, descending)
    without index ``skip``, the branch's own. The peak is the
    precision-weighted mean of ``(mu_bar, var_bar)`` and the targets
    strictly above it. The candidate after admitting the ``k`` highest
    targets is consistent when it lies below the last admitted mean and
    at or above the next one; the first consistent candidate is the peak.
    """
    mu_bar, var_bar, _ = branch
    num = mu_bar / var_bar
    den = 1.0 / var_bar
    upper = math.inf
    best = mu_bar
    best_violation = math.inf
    for i in order:
        if i == skip:
            continue
        m, v = targets[i]
        candidate = num / den
        if upper > candidate >= m:
            return candidate
        # roundoff can leave every bracket check marginally violated;
        # remember the least-inconsistent candidate as a fallback
        violation = max(candidate - upper, m - candidate)
        if violation < best_violation:
            best_violation = violation
            best = candidate
        num += m / v
        den += 1.0 / v
        upper = m
    # every target admitted: the last bracket is open below
    candidate = num / den
    if upper > candidate or candidate - upper < best_violation:
        return candidate
    return best


def _solve_branch(b: int, combo: tuple, ranking: tuple) -> tuple[float, float, float]:
    """Peak mean, peak variance and log peak height of branch ``b``.

    ``ranking`` is ``(ms, penalties, order)``, as :func:`adfq_update` and
    :attr:`UpdateResult.branches` build it: the target means, the
    targets, and their indices ranked by mean, descending.
    """
    ms, penalties, order = ranking
    mu_bar, var_bar, log_c = combo
    mu_star = solve_peak_mean(combo, penalties, order, b)
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


def mixture_weights(log_k: Sequence[float]) -> list[float]:
    """Normalize log peak masses into mixture weights (shift invariant).

    Normalization happens entirely in max-shifted space; adding the
    shift back first would cost ~|shift| * eps of absolute error once
    the raw masses sit tens of thousands of log units below zero.
    Callers: :func:`mixture_moments` and Boltzmann selection.
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


def mixture_moments(
    components: Sequence[tuple[float, float, float]],
) -> tuple[list[float], float, float]:
    """``(weights, mean, variance)`` of Gaussian ``(mean, variance, log weight)`` components.

    Callers: :func:`adfq_update` and :func:`adfq.posterior.exact_two_action_moments`.
    """
    weights = mixture_weights([log_w for _, _, log_w in components])
    mean = math.fsum([w * m for w, (m, _, _) in zip(weights, components)])
    # centered about the mixture mean: E[q^2] - mean^2 would cancel once
    # |mean| is large next to the spread
    variance = math.fsum(
        [w * (v + (m - mean) * (m - mean)) for w, (m, v, _) in zip(weights, components)]
    )
    return weights, mean, variance


def adfq_update(table: BeliefTable, tau: Transition) -> UpdateResult:
    """Moment-matched belief update for ``Q(tau.s, tau.a)``.

    Pure: the result must be written back explicitly via
    :func:`apply_update`. Terminal transitions collapse to the single
    conjugate branch with the bare reward as target.
    """
    if tau.terminal:
        prior, ms, vs, log_cs = terminal_components(table, tau)
        mu_bar, var_bar = conjugate_pair(prior, ms[0], vs[0])
        return UpdateResult(
            mu_bar, var_bar, prior, ms, (), vs, log_cs, (0,),
            ((mu_bar, var_bar, log_cs[0]),), (1.0,),
        )

    prior, ms, penalties, vs, log_cs = td_components(table, tau)
    n_actions = table.n_actions

    # one stable descending sort serves every branch; ties keep index order
    order = sorted(range(n_actions), key=ms.__getitem__, reverse=True)
    ranking = (ms, penalties, order)

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
    by_log_c = sorted(range(n_actions), key=log_cs.__getitem__, reverse=True)
    peaks = []
    cutoff = -math.inf
    for b in by_log_c:
        log_c = log_cs[b]
        if log_c < cutoff:
            break
        mu_bar, var_bar = conjugate_pair(prior, ms[b], vs[b])
        peak = _solve_branch(b, (mu_bar, var_bar, log_c), ranking)
        peaks.append(peak)
        if peak[2] - NEGLIGIBLE_LOG_DENSITY > cutoff:
            cutoff = peak[2] - NEGLIGIBLE_LOG_DENSITY

    weights, new_mean, new_variance = mixture_moments(peaks)
    return UpdateResult(
        new_mean, new_variance, prior, ms, penalties, vs, log_cs, by_log_c, peaks, weights,
    )


def apply_update(table: BeliefTable, tau: Transition, result: UpdateResult) -> None:
    """Write an update result back into the table through ``set_belief``.

    ``set_belief`` floors the record's raw ``new_variance`` at the
    table's variance floor and rejects a non-finite result.
    """
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
    "mixture_moments",
    "adfq_update",
    "apply_update",
    "qlearning_limit_target",
]
