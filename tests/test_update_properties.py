"""Property tests for ``adfq_update`` over the robustness-probe ranges.

Means (signed) span magnitudes 1e-6 to 1e6 and variances 1e-10 to 1e2,
with 1 to 12 next actions, discounts in [0.5, 0.99] and observation
noise on or off. The properties are invariances of the exact update
that the moment-matched one keeps: translation, scale and permutation
of the next actions, plus the basic sanity of the mixture. At two next
actions the closed form ``exact_two_action_moments`` keeps the same
three, the swap of its actions bit for bit. Two more, at
2 to 50 next actions, check that the branches the update skips as
weightless change no bit of the mixture, and that the diagnostics it
fills in later describe the update even after the table has changed.

Means are compared to 1e-12 of the largest input magnitude, the
roundoff scale of the update's sums. The variance is summed about the
mean, but the peaks it sums over each carry a rounding error of order
``eps * |mean|``, which moves their squared offsets by up to about
``eps * E[q^2]``; so it is compared to 1e-12 of ``E[q^2]``, plus, for
the closed form, the bound its docstring states.
``test_update_accuracy.py`` checks the variance itself against an
extended-precision reference.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from support import log_uniform_variance, signed_magnitude

from adfq.beliefs import NEGLIGIBLE_LOG_DENSITY, BeliefTable, Transition, td_components
from adfq.engine import adfq_update, apply_update, mixture_weights
from adfq.posterior import exact_two_action_moments

TINY_FLOOR = 1e-300  # keeps scaled copies legal without clamping
REL = 1e-12
# exact_two_action_moments' variance bound per (1 + L) of log weight
CLOSED_FORM_TOL = 128.0 * 2.0**-52


@st.composite
def instances(draw, min_actions=1, max_actions=12):
    """Prior at (0, 0), next-state beliefs in row 1, plus r, gamma, sigma_w."""
    n = draw(st.integers(min_actions, max_actions))
    means = np.array(draw(st.lists(signed_magnitude(), min_size=2 * n, max_size=2 * n)))
    variances = np.array(draw(st.lists(log_uniform_variance(), min_size=2 * n, max_size=2 * n)))
    return {
        "means": means.reshape(2, n),
        "variances": variances.reshape(2, n),
        "r": draw(signed_magnitude()),
        "gamma": draw(st.floats(0.5, 0.99)),
        "sigma_w": draw(st.sampled_from([0.0, 0.1])),
        "variance_floor": TINY_FLOOR,
    }


def _table(inst, **override) -> BeliefTable:
    p = {**inst, **override}
    return BeliefTable(p["means"], p["variances"], p["gamma"], p["sigma_w"], p["variance_floor"])


def _update(inst, **override):
    r = override.get("r", inst["r"])
    return adfq_update(_table(inst, **override), Transition(s=0, a=0, r=r, s_next=1))


def _closed_form(inst, **override):
    r = override.get("r", inst["r"])
    return exact_two_action_moments(_table(inst, **override), Transition(s=0, a=0, r=r, s_next=1))


def _scale(inst) -> float:
    return max(float(np.abs(inst["means"]).max()), abs(inst["r"]))


@given(instances(), signed_magnitude())
def test_translation_shifts_mean(inst, c):
    means = inst["means"].copy()
    means[0, 0] += c
    base = _update(inst)
    moved = _update(inst, means=means, r=inst["r"] + c)
    tol = REL * max(_scale(inst), abs(c))
    assert abs(moved.new_mean - (base.new_mean + c)) <= tol


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known active-set boundary defect")
def test_translation_at_an_active_set_boundary():
    # test_translation_shifts_mean on an input its draws miss: target 1
    # sits 2.77e-11 above branch 3's peak, below ulp(1e6), so the shift
    # drops it from that branch's active set (var_star 2.5e-11 -> 0.111)
    inst = {
        "means": np.array([[-1.0] * 5, [-1.0, -0.1, -1.0, -1.77827941, 1.0]]),
        "variances": np.array([[1.0] * 5, [1.0, 1e-10, 1.0, 1.0, 1.0]]),
        "r": -1.0,
        "gamma": 0.5,
        "sigma_w": 0.0,
        "variance_floor": TINY_FLOOR,
    }
    c = -1e6
    means = inst["means"].copy()
    means[0, 0] += c
    base = _update(inst)
    moved = _update(inst, means=means, r=inst["r"] + c)
    assert abs(moved.new_mean - (base.new_mean + c)) <= REL * max(_scale(inst), abs(c))


@given(instances(), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_scale_maps_mean_and_variance(inst, k):
    base = _update(inst)
    big = _update(
        inst,
        means=inst["means"] * k,
        variances=inst["variances"] * (k * k),
        r=inst["r"] * k,
        sigma_w=inst["sigma_w"] * k,
    )
    assert abs(big.new_mean - k * base.new_mean) <= REL * k * _scale(inst)
    second = base.new_variance + base.new_mean**2
    assert abs(big.new_variance - k * k * base.new_variance) <= REL * k * k * second


def _largest_log_weight(inst, **override) -> float:
    r = override.get("r", inst["r"])
    log_cs = td_components(_table(inst, **override), Transition(s=0, a=0, r=r, s_next=1))[4]
    return max(abs(x) for x in log_cs)


@given(instances(2, 2), signed_magnitude(), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
# log weights near -5000: the variance moves 1.8 times 1e-12 of E[q^2], inside the bound
@example(
    {
        "means": np.array([[-100.0, -100.0], [-1.0, -1e-3]]),
        "variances": np.array([[1.0, 1.0], [1.0, 1e-7]]),
        "r": -1e-4,
        "gamma": 0.5,
        "sigma_w": 0.0,
        "variance_floor": TINY_FLOOR,
    },
    1.0,
    100.0,
)
def test_closed_form_translation_and_scale(inst, c, k):
    """The two tests above, with the analytic update's tolerances.

    The means keep them. The scaled variance sums two errors. The branch
    values at either scale carry the inputs' rounding, as in
    ``adfq_update``: ``REL * k**2 * E[q^2]``. And
    ``exact_two_action_moments`` is within ``128 (1 + L) eps`` relative of
    the exact moments of its own branch values, ``L`` the larger
    ``|log_c|``; those exact moments scale as ``k**2``, so the two results
    may differ by that bound at scale 1, times ``k**2``, plus the bound at
    scale ``k``, with each scale's own ``L``.
    """
    mean, variance = _closed_form(inst)
    means = inst["means"].copy()
    means[0, 0] += c
    moved, _ = _closed_form(inst, means=means, r=inst["r"] + c)
    assert abs(moved - (mean + c)) <= REL * max(_scale(inst), abs(c))
    big = dict(
        means=inst["means"] * k,
        variances=inst["variances"] * (k * k),
        r=inst["r"] * k,
        sigma_w=inst["sigma_w"] * k,
    )
    big_mean, big_variance = _closed_form(inst, **big)
    assert abs(big_mean - k * mean) <= REL * k * _scale(inst)
    tol = REL * k * k * (variance + mean**2) + CLOSED_FORM_TOL * (
        (1.0 + _largest_log_weight(inst)) * k * k * variance
        + (1.0 + _largest_log_weight(inst, **big)) * big_variance
    )
    assert abs(big_variance - k * k * variance) <= tol


@given(instances(2, 2))
def test_closed_form_swap_of_next_actions_changes_no_bit(inst):
    means, variances = inst["means"].copy(), inst["variances"].copy()
    means[1] = inst["means"][1, ::-1]
    variances[1] = inst["variances"][1, ::-1]
    base = _closed_form(inst)
    swap = _closed_form(inst, means=means, variances=variances)
    assert [x.hex() for x in swap] == [x.hex() for x in base]


@given(instances(), st.randoms(use_true_random=False))
def test_next_action_permutation_changes_nothing(inst, rnd):
    n = inst["means"].shape[1]
    order = list(range(n))
    rnd.shuffle(order)
    means, variances = inst["means"].copy(), inst["variances"].copy()
    means[1] = inst["means"][1, order]
    variances[1] = inst["variances"][1, order]
    base = _update(inst)
    perm = _update(inst, means=means, variances=variances)
    assert math.isclose(perm.new_mean, base.new_mean, rel_tol=REL, abs_tol=REL * _scale(inst))
    second = base.new_variance + base.new_mean**2
    assert abs(perm.new_variance - base.new_variance) <= REL * second


@given(instances())
def test_mixture_sanity(inst):
    res = _update(inst)
    weights = [br.weight for br in res.branches]
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    assert all(w >= 0.0 for w in weights)
    assert res.new_variance > 0.0
    assert math.isfinite(res.new_mean) and math.isfinite(res.new_variance)
    peaks = [br.mu_star for br in res.branches]
    slack = REL * _scale(inst)
    assert min(peaks) - slack <= res.new_mean <= max(peaks) + slack


@given(instances(min_actions=2, max_actions=50))
def test_skipped_branches_leave_the_mixture_bitwise_unchanged(inst):
    # the update mixes only the branches it solves; re-mixing all of them
    # from their heights must give the same bits, sign of zero included
    res = _update(inst)
    branches = res.branches
    weights = mixture_weights([br.log_k_star for br in branches])
    assert [br.weight for br in branches] == weights
    mean = math.fsum(w * br.mu_star for w, br in zip(weights, branches))
    variance = math.fsum(
        [
            w * (br.var_star + (br.mu_star - mean) * (br.mu_star - mean))
            for w, br in zip(weights, branches)
        ]
    )
    assert mean.hex() == res.new_mean.hex()
    assert variance.hex() == res.new_variance.hex()
    top = max(br.log_k_star for br in branches)
    for br in branches:
        if br.log_c < top - NEGLIGIBLE_LOG_DENSITY:
            assert br.weight == 0.0


@given(instances(min_actions=2, max_actions=50))
def test_diagnostics_read_after_apply_update_describe_the_update(inst):
    # s == s_next: writing the result back changes the next state's row
    tau = Transition(s=1, a=0, r=inst["r"], s_next=1)
    fresh = adfq_update(_table(inst), tau).branches
    table = _table(inst)
    res = adfq_update(table, tau)
    apply_update(table, tau, res)
    assert res.branches == fresh
