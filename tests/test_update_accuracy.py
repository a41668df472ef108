"""Accuracy of ``adfq_update`` against an extended-precision reference.

``mp_reference`` recomputes the analytic update in mpmath. The kernel
is checked stage by stage over the robustness ranges (1 to 50 next
actions, signed means of magnitude 1e-6 to 1e6, variances 1e-10 to
1e2), each stage to a tolerance in units of the double epsilon scaled
by how sensitive that stage is to rounding its inputs:

* the conjugate combine and the peak mean: absolute error relative to
  the largest input location ``scale``, the prior mean or a TD target's
  ``|r| + gamma * |mean|`` before ``r + gamma * mean`` cancels, since
  every location is rounded to a double first;
* the peak variance: relative error, since it is a sum of positive
  precisions;
* the log peak height: error relative to its condition number, the sum
  of its terms' magnitudes plus each quadratic term's slope times
  ``scale``;
* the mixture moments, from the kernel's own branch values: the mean
  relative to the largest peak, the variance relative to itself plus
  the square of the returned mean's own error. Rounding the mean to a
  double moves the spread about it by that square, which no double
  kernel can avoid.

Peak variances and heights jump when a target enters the active set,
so a branch with another target within rounding of its peak skips
those two checks. Each tolerance is twice the kernel's worst case
measured over about 10,000 random and hypothesis-searched updates in
these ranges, rounded up to a power of two (worst cases, in eps: 2.0
combine, 4.3 peak mean, 5.6 peak variance, 1.3 log height, 1.2 mean,
1.4 variance).
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_reference import DIGITS, reference_moments, reference_update
from support import log_uniform_variance, signed_magnitude

from adfq.beliefs import BeliefTable, Transition
from adfq.engine import adfq_update

EPS = 2.0**-52
TINY_FLOOR = 1e-300  # no variance in these ranges reaches it
COMBINE_TOL = 4.0 * EPS
PEAK_MEAN_TOL = 16.0 * EPS
PEAK_VAR_TOL = 16.0 * EPS
LOG_HEIGHT_TOL = 4.0 * EPS
MEAN_TOL = 4.0 * EPS
VARIANCE_TOL = 4.0 * EPS
# a target this close to a peak may sit on either side of it in doubles
BOUNDARY = 1024.0 * EPS

accuracy = settings(max_examples=100)


@st.composite
def instances(draw, max_actions=50):
    """A table and transition; beliefs cluster about a drawn level.

    Every mean is the level plus a signed offset, so the mixture mean can
    be large next to the spread of its branches, where cancellation shows.
    """
    n = draw(st.integers(1, max_actions))
    level = draw(st.just(0.0) | signed_magnitude())
    offsets = draw(st.lists(signed_magnitude(), min_size=2 * n, max_size=2 * n))
    variances = draw(st.lists(log_uniform_variance(), min_size=2 * n, max_size=2 * n))
    gamma = draw(st.floats(0.5, 0.99))
    table = BeliefTable(
        (level + np.array(offsets)).reshape(2, n),
        np.array(variances).reshape(2, n),
        gamma,
        draw(st.sampled_from([0.0, 0.1])),
        TINY_FLOOR,
    )
    # a reward that carries the discounted level back to the prior's
    r = (1.0 - gamma) * level + draw(signed_magnitude())
    return table, Transition(s=0, a=0, r=r, s_next=1)


def _near_boundary(ref, b, scale) -> bool:
    mu_star = ref.branches[b].mu_star
    return any(
        abs(other.m - mu_star) <= BOUNDARY * scale
        for i, other in enumerate(ref.branches)
        if i != b
    )


def _log_height_condition(br, prior_mean, prior_var, active_targets, scale):
    """Sum of the log height's term magnitudes plus slopes times ``scale``."""
    s2 = prior_var + br.v
    delta = br.m - prior_mean
    d = br.mu_star - br.mu_bar
    terms = (
        1
        + delta * delta / (2 * s2)
        + abs(mpmath.log(s2)) / 2
        + abs(mpmath.log(br.var_star / br.var_bar)) / 2
        + d * d / (2 * br.var_bar)
    )
    slopes = abs(delta) / s2 + abs(d) / br.var_bar
    for m, u in active_targets:
        gap = m - br.mu_star
        terms += gap * gap / (2 * u)
        slopes += abs(gap) / u
    return terms + slopes * scale


@accuracy
@given(instances())
def test_branches_match_reference(case):
    table, tau = case
    res = adfq_update(table, tau)
    ref = reference_update(table, tau)
    prior_mean = float(table.means[tau.s, tau.a])
    prior_var = float(table.variances[tau.s, tau.a])
    with mpmath.workdps(DIGITS):
        scale = max(abs(prior_mean), abs(tau.r) + table.gamma * max(abs(table.means[tau.s_next])))
        for b, (br, rb) in enumerate(zip(res.branches, ref.branches)):
            assert abs(br.mu_bar - rb.mu_bar) <= COMBINE_TOL * scale
            assert abs(br.var_bar - rb.var_bar) <= COMBINE_TOL * rb.var_bar
            assert abs(br.mu_star - rb.mu_star) <= PEAK_MEAN_TOL * scale
            if _near_boundary(ref, b, scale):
                continue
            assert abs(br.var_star - rb.var_star) <= PEAK_VAR_TOL * rb.var_star
            active = [(ref.branches[i].m, ref.branches[i].u) for i in rb.active]
            condition = _log_height_condition(rb, prior_mean, prior_var, active, scale)
            assert abs(br.log_k_star - rb.log_k) <= LOG_HEIGHT_TOL * condition


@accuracy
@given(instances())
def test_moments_match_reference(case):
    res = adfq_update(*case)
    mu_stars = [br.mu_star for br in res.branches]
    var_stars = [br.var_star for br in res.branches]
    log_ks = [br.log_k_star for br in res.branches]
    mean, variance = reference_moments(mu_stars, var_stars, log_ks)
    with mpmath.workdps(DIGITS):
        mean_err = res.new_mean - mean
        assert abs(mean_err) <= MEAN_TOL * max(abs(m) for m in mu_stars)
        assert abs(res.new_variance - variance) <= VARIANCE_TOL * variance + mean_err**2


@accuracy
@given(instances(max_actions=1))
def test_single_action_returns_its_branch(case):
    res = adfq_update(*case)
    (branch,) = res.branches
    assert res.new_mean == branch.mu_star
    assert res.new_variance == branch.var_star


def test_large_mean_keeps_its_variance():
    # a pinned update at mean 18185.9 whose variance, 3.69e-9, is below
    # E[q^2] * eps: E[q^2] - mean^2 returned the 1e-10 floor here
    means = np.array([
        [18185.903501142715, 1.33921045072586, 2.0561416372495578e-06, -730672.5951421825],
        [399.0693653197756, -1.8733812953841768e-06, 27864.307217122252, -0.06099436204158483],
    ])
    variances = np.array([
        [3.6914869291506797e-09, 0.023786391164458465, 0.0014036789277595235,
         1.4741328129523522e-09],
        [4.218472570115816e-10, 0.012997883217904618, 1.4762421497815557e-06,
         0.006477917016937009],
    ])
    table = BeliefTable(means, variances, gamma=0.6539666566872334, sigma_w=0.1)
    tau = Transition(0, 0, 1.2276260419895633, 1)
    res = adfq_update(table, tau)
    variance = float(reference_update(table, tau).variance)
    assert variance > 3e-9
    assert math.isclose(res.new_variance, variance, rel_tol=1e-12)
