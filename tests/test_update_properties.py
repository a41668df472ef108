"""Property tests for ``adfq_update`` over the robustness-probe ranges.

Means (signed) span magnitudes 1e-6 to 1e6 and variances 1e-10 to 1e2,
with 1 to 12 next actions, discounts in [0.5, 0.99] and observation
noise on or off. The properties are invariances of the exact update
that the moment-matched one keeps: translation, scale and permutation
of the next actions, plus the basic sanity of the mixture. Two more, at
2 to 50 next actions, check that the branches the update skips as
weightless change no bit of the mixture, and that the diagnostics it
fills in later describe the update even after the table has changed.

Means are compared to 1e-12 of the largest input magnitude, the
roundoff scale of the update's sums. The variance is summed about the
mean, but the peaks it sums over each carry a rounding error of order
``eps * |mean|``, which moves their squared offsets by up to about
``eps * E[q^2]``; so it is compared to 1e-12 of ``E[q^2]``.
``test_update_accuracy.py`` checks the variance itself against an
extended-precision reference.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from support import log_uniform_variance, signed_magnitude

from adfq.beliefs import (
    DEFAULT_VARIANCE_FLOOR,
    NEGLIGIBLE_LOG_DENSITY,
    BeliefTable,
    Transition,
)
from adfq.engine import adfq_update, apply_update, mixture_weights

TINY_FLOOR = 1e-300  # keeps scaled copies legal without clamping
REL = 1e-12


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
    res = _update(inst, variance_floor=DEFAULT_VARIANCE_FLOOR)
    weights = [br.weight for br in res.branches]
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    assert all(w >= 0.0 for w in weights)
    assert res.new_variance >= DEFAULT_VARIANCE_FLOOR
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
    assert max(variance, TINY_FLOOR).hex() == res.new_variance.hex()
    top = max(br.log_k_star for br in branches)
    for br in branches:
        if br.components.log_c < top - NEGLIGIBLE_LOG_DENSITY:
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
