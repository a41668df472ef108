"""Invariances of ``quadrature_log_moments``, as ``test_update_properties.py``
checks them for the analytic update: translation, scale and permutation
of the next actions.

Each test runs 300 seeded draws of acceptance criterion 2's
distribution (|A| in 2..10, means U[-8, 8], standard deviations U[0.1,
0.8], r U[-1, 1], gamma in {0.9, 0.95}) with observation noise off or at
0.1, on the default grid. The grid is auto-sized from the beliefs, so it
moves with them and the exact posterior's invariances carry over to the
trapezoid sums up to rounding:

- translation by ``c`` rounds every cell of the shifted grid by up to an
  ulp of ``|c|``, so the mean may move by a few ``eps |c|`` and the
  variance by a few ``eps |c| sd``. The tolerance is 32 of each; these
  draws read at worst 3.1 and 0.62 (c = ±1e3), and a wider scan of
  1,800 draws (seeds 5 to 7, noise off and on) at most 3.1 and 2.3.
- scaling by ``k`` rounds every input once, so the moments move by
  rounding relative to their own scale: the mean to 1e-12 of ``k`` times
  the largest input magnitude, the variance to 1e-12 of itself. These
  draws read at worst 1.1e-15 and 1.1e-13 (k in {1e-2, 1e2}).
- a permutation of the next actions reorders the sums over branches:
  the same two tolerances; the worst read 5.1e-16 and 5.4e-14.
"""

import numpy as np
import pytest
from support import random_instance

from adfq.beliefs import BeliefTable, Transition
from adfq.posterior import quadrature_log_moments

EPS = 2.0**-52
SHIFT_ULPS = 32.0
REL = 1e-12
DRAWS = 300


def _draws(seed: int):
    """Criterion 2's tables, each with its transition and its input magnitude."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        sigma_w = float(rng.choice((0.0, 0.1)))
        table, tau = random_instance(
            rng,
            n_actions=int(rng.integers(2, 11)),
            sigma_range=(0.1, 0.8),
            mean_range=(-8.0, 8.0),
            r_range=(-1.0, 1.0),
            sigma_w=sigma_w,
        )
        yield table, tau, max(float(np.abs(table.means).max()), abs(tau.r))


def _moments(table, tau, means=None, variances=None, r=None, sigma_w=None):
    """Quadrature mean and variance of ``table`` with the given fields replaced."""
    copy = BeliefTable(
        table.means if means is None else means,
        table.variances if variances is None else variances,
        table.gamma,
        table.sigma_w if sigma_w is None else sigma_w,
        variance_floor=1e-300,
    )
    _, mean, variance = quadrature_log_moments(
        copy, Transition(0, 0, tau.r if r is None else r, 1)
    )
    return mean, variance


@pytest.mark.parametrize("c", [1e3, -1e3])
def test_translation_shifts_mean(c):
    for table, tau, _ in _draws(5):
        mean, variance = _moments(table, tau)
        means = table.means.copy()
        means[0, 0] += c
        moved, moved_variance = _moments(table, tau, means=means, r=tau.r + c)
        assert abs(moved - (mean + c)) <= SHIFT_ULPS * EPS * abs(c)
        assert abs(moved_variance - variance) <= SHIFT_ULPS * EPS * abs(c) * variance**0.5


@pytest.mark.parametrize("k", [1e-2, 1e2])
def test_scale_maps_mean_and_variance(k):
    for table, tau, scale in _draws(5):
        mean, variance = _moments(table, tau)
        big, big_variance = _moments(
            table,
            tau,
            means=table.means * k,
            variances=table.variances * (k * k),
            r=tau.r * k,
            sigma_w=table.sigma_w * k,
        )
        assert abs(big - k * mean) <= REL * k * scale
        assert abs(big_variance - k * k * variance) <= REL * k * k * variance


def test_next_action_permutation_changes_nothing():
    rng = np.random.default_rng(6)
    for table, tau, scale in _draws(5):
        order = rng.permutation(table.n_actions)
        means, variances = table.means.copy(), table.variances.copy()
        means[1] = table.means[1, order]
        variances[1] = table.variances[1, order]
        mean, variance = _moments(table, tau)
        perm, perm_variance = _moments(table, tau, means=means, variances=variances)
        assert abs(perm - mean) <= REL * scale
        assert abs(perm_variance - variance) <= REL * variance
