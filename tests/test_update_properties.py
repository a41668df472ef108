"""Property tests for ``adfq_update`` over the robustness-probe ranges.

Means (signed) span magnitudes 1e-6 to 1e6 and variances 1e-10 to 1e2,
with 1 to 12 next actions, discounts in [0.5, 0.99] and observation
noise on or off. The properties are invariances of the exact update
that the moment-matched one keeps: translation, scale and permutation
of the next actions, plus the basic sanity of the mixture.

Means are compared to 1e-12 of the largest input magnitude, the
roundoff scale of the update's sums. The variance is computed as
``E[q^2] - mean^2``, so it is compared to 1e-12 of ``E[q^2]``, the
scale of that difference's cancellation error.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from support import signed_magnitude

from adfq.beliefs import DEFAULT_VARIANCE_FLOOR, BeliefTable, Transition
from adfq.engine import adfq_update

# deterministic examples and no example database written next to the tests
settings.register_profile("adfq", derandomize=True, database=None, deadline=None)
settings.load_profile("adfq")

TINY_FLOOR = 1e-300  # keeps scaled copies legal without clamping
REL = 1e-12


def _variance():
    return st.floats(-10.0, 2.0).map(lambda exponent: 10.0**exponent)


@st.composite
def instances(draw):
    """Prior at (0, 0), next-state beliefs in row 1, plus r, gamma, sigma_w."""
    n = draw(st.integers(1, 12))
    means = np.array(draw(st.lists(signed_magnitude(), min_size=2 * n, max_size=2 * n)))
    variances = np.array(draw(st.lists(_variance(), min_size=2 * n, max_size=2 * n)))
    return {
        "means": means.reshape(2, n),
        "variances": variances.reshape(2, n),
        "r": draw(signed_magnitude()),
        "gamma": draw(st.floats(0.5, 0.99)),
        "sigma_w": draw(st.sampled_from([0.0, 0.1])),
        "variance_floor": TINY_FLOOR,
    }


def _update(inst, **override):
    p = {**inst, **override}
    table = BeliefTable(
        p["means"], p["variances"], p["gamma"], p["sigma_w"], p["variance_floor"]
    )
    return adfq_update(table, Transition(s=0, a=0, r=p["r"], s_next=1))


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
