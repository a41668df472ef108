"""Reference posterior: density shape, quadrature, and closed form."""

import math

import numpy as np
import pytest
from support import random_instance, scaled

from adfq.beliefs import BeliefTable, GaussianBelief, Transition, td_components
from adfq.posterior import (
    GridSpec,
    NormalizerUnderflowError,
    exact_two_action_moments,
    posterior_unnorm_pdf,
    quadrature_log_moments,
    quadrature_moments,
)


def _two_action_table(prior, targets, gamma=0.9, sigma_w=0.0):
    means = np.array([[prior[0]] * 2, [t[0] for t in targets]])
    variances = np.array([[prior[1]] * 2, [t[1] for t in targets]])
    return BeliefTable(means, variances, gamma=gamma, sigma_w=sigma_w, variance_floor=1e-300)


class TestPosteriorDensity:
    def test_single_action_is_conjugate_product(self):
        means = np.array([[0.2], [1.0]])
        variances = np.array([[1.3], [0.6]])
        table = BeliefTable(means, variances, gamma=0.9)
        tau = Transition(0, 0, 0.5, 1)
        comp = td_components(
            GaussianBelief(0.2, 1.3), GaussianBelief(1.0, 0.6), 0.5, 0.9, 0.0
        )
        q = quadrature_moments(table, tau, GridSpec(n=4001))
        assert q.mean == pytest.approx(comp.mu_bar, abs=1e-8)
        assert q.variance == pytest.approx(comp.var_bar, abs=1e-8)

    def test_nonnegative_on_dense_grid(self):
        rng = np.random.default_rng(31)
        table, tau = random_instance(rng, n_actions=4)
        lo = table.means.min() - 30
        hi = table.means.max() + 30
        vals = [posterior_unnorm_pdf(q, table, tau) for q in np.linspace(lo, hi, 500)]
        assert all(v >= 0.0 for v in vals)

    def test_high_target_pulls_posterior_above_prior(self):
        # one clearly dominant next action concentrates mass between the
        # prior mean and that target
        means = np.array([[0.0, 0.0, 0.0], [-2.0, -2.0, 4.5]])
        variances = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 0.5]])
        table = BeliefTable(means, variances, gamma=0.9)
        tau = Transition(0, 0, 0.0, 1)
        _, mean, _ = quadrature_log_moments(table, tau, GridSpec(n=4001))
        assert mean > table.means[0, 0]
        assert mean < 0.9 * 4.5

    def test_zero_discount_cdf_scale_rejected(self):
        means = np.zeros((2, 2))
        variances = np.ones((2, 2))
        table = BeliefTable(means, variances, gamma=0.0, sigma_w=0.5)
        with pytest.raises(ValueError):
            posterior_unnorm_pdf(0.0, table, Transition(0, 0, 0.0, 1))


class TestQuadratureMoments:
    def test_grid_convergence(self):
        rng = np.random.default_rng(99)
        table, tau = random_instance(rng, n_actions=3)
        _, m1, _ = quadrature_log_moments(table, tau, GridSpec(n=2001))
        _, m2, _ = quadrature_log_moments(table, tau, GridSpec(n=4001))
        assert abs(m2 - m1) < 1e-9

    def test_widening_grid_is_invariant(self):
        rng = np.random.default_rng(100)
        table, tau = random_instance(rng, n_actions=3)
        lo, hi = -80.0, 80.0
        _, m1, v1 = quadrature_log_moments(table, tau, GridSpec(n=8001))
        _, m2, v2 = quadrature_log_moments(table, tau, GridSpec(lo, hi, 80001))
        assert m2 == pytest.approx(m1, abs=1e-9)
        assert v2 == pytest.approx(v1, abs=1e-9)

    def test_rejects_small_grid(self):
        rng = np.random.default_rng(101)
        table, tau = random_instance(rng, n_actions=2)
        with pytest.raises(ValueError):
            quadrature_moments(table, tau, GridSpec(n=500))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": math.nan},
            {"lo": -math.inf},
            {"lo": 5.0, "hi": 5.0},
            {"lo": 10.0, "hi": -10.0},
            {"n": 1001.5},
        ],
        ids=["lo-nan", "lo-inf", "lo-equals-hi", "lo-above-hi", "n-fractional"],
    )
    def test_grid_spec_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_explicit_lo_above_auto_hi_rejected(self):
        rng = np.random.default_rng(102)
        table, tau = random_instance(rng, n_actions=2)
        with pytest.raises(ValueError, match="lo < hi"):
            quadrature_log_moments(table, tau, GridSpec(lo=1e6))

    def test_underflow_reported(self):
        # huge TD error at tiny combined variance pushes the normalizer
        # below the smallest positive double
        table = _two_action_table((0.0, 1e-4), [(50.0, 1e-4), (60.0, 1e-4)])
        tau = Transition(0, 0, 0.0, 1)
        with pytest.raises(NormalizerUnderflowError):
            quadrature_moments(table, tau)
        # the log-space route still produces usable moments
        log_z, mean, var = quadrature_log_moments(table, tau)
        assert log_z < math.log(1e-300)
        assert math.isfinite(mean) and var > 0.0

    def test_terminal_transition_is_conjugate(self):
        means = np.array([[0.0, 0.0], [5.0, 5.0]])
        variances = np.array([[2.0, 2.0], [1.0, 1.0]])
        table = BeliefTable(means, variances, gamma=0.9, sigma_w=0.5)
        tau = Transition(0, 0, 3.0, 1, terminal=True)
        q = quadrature_moments(table, tau, GridSpec(n=4001))
        # conjugate with target (r, sigma_w^2)
        var_bar = 1.0 / (1.0 / 2.0 + 1.0 / 0.25)
        mu_bar = var_bar * (0.0 / 2.0 + 3.0 / 0.25)
        assert q.mean == pytest.approx(mu_bar, abs=1e-8)
        assert q.variance == pytest.approx(var_bar, abs=1e-8)


class TestExactTwoActionMoments:
    def test_matches_quadrature_on_random_instances(self):
        rng = np.random.default_rng(7007)
        for _ in range(50):
            table, tau = random_instance(
                rng, n_actions=2, sigma_range=(0.3, 3.0), mean_range=(-5.0, 5.0)
            )
            mean, var = exact_two_action_moments(table, tau)
            _, q_mean, q_var = quadrature_log_moments(table, tau, GridSpec(n=20001))
            assert mean == pytest.approx(q_mean, rel=1e-6, abs=1e-9)
            assert var == pytest.approx(q_var, rel=1e-6)

    def test_mirrored_instance_sits_above_midpoint(self):
        # mirrored targets give equal branch weights, but the max
        # operation skews the posterior upward, so the mean lands
        # strictly above the component midpoint; quadrature arbitrates
        table = _two_action_table((0.0, 1.0), [(2.0, 0.8), (-2.0, 0.8)])
        tau = Transition(0, 0, 0.0, 1)
        comps = [
            td_components(GaussianBelief(0.0, 1.0), GaussianBelief(m, 0.8), 0.0, 0.9, 0.0)
            for m in (2.0, -2.0)
        ]
        mean, _ = exact_two_action_moments(table, tau)
        midpoint = 0.5 * (comps[0].mu_bar + comps[1].mu_bar)
        assert midpoint == pytest.approx(0.0, abs=1e-12)
        _, q_mean, _ = quadrature_log_moments(table, tau, GridSpec(n=20001))
        assert mean == pytest.approx(q_mean, rel=1e-9, abs=1e-9)
        assert mean > midpoint

    def test_dominant_branch_takes_over(self):
        sigma2 = 0.01
        table = _two_action_table((0.0, 1e4), [(0.0, sigma2), (20.0, sigma2)], gamma=0.9)
        tau = Transition(0, 0, 0.0, 1)
        comp_hi = td_components(
            GaussianBelief(0.0, 1e4), GaussianBelief(20.0, sigma2), 0.0, 0.9, 0.0
        )
        mean, _ = exact_two_action_moments(table, tau)
        assert mean == pytest.approx(comp_hi.mu_bar, rel=1e-6)

    def test_matches_quadrature_with_noise(self):
        # observation noise enters the Gaussian part only; the closed
        # form must track the same density quadrature integrates
        rng = np.random.default_rng(515)
        for _ in range(20):
            table, tau = random_instance(rng, n_actions=2, sigma_w=0.3)
            mean, var = exact_two_action_moments(table, tau)
            _, q_mean, q_var = quadrature_log_moments(table, tau, GridSpec(n=20001))
            assert mean == pytest.approx(q_mean, rel=1e-6, abs=1e-9)
            assert var == pytest.approx(q_var, rel=1e-6)

    def test_variance_fixed_point_at_zero(self):
        # equal means with shrinking variances: the updated variance
        # follows the inputs down to zero and the mean settles there
        prev = None
        mean = None
        for scale_exp in range(0, 7):
            s = 10.0 ** (-scale_exp)
            table = _two_action_table((1.0, s), [(1.0 / 0.9, s), (1.0 / 0.9, s)])
            mean, var = exact_two_action_moments(table, Transition(0, 0, 0.0, 1))
            if prev is not None:
                assert var < prev
            prev = var
        assert prev < 1e-5
        assert mean == pytest.approx(1.0, abs=1e-2)

    def test_survives_underflowing_normalizer(self):
        # far outside the representable-normalizer envelope the closed
        # form still lands on the truncation-shifted peak; the variance
        # loses a few digits to cancellation at z-scores in the
        # thousands, which is inherent to doubles in this regime
        table = _two_action_table((0.0, 1e-4), [(50.0, 1e-4), (60.0, 1e-4)])
        tau = Transition(0, 0, 0.0, 1)
        mean, var = exact_two_action_moments(table, tau)
        _, q_mean, q_var = quadrature_log_moments(table, tau, GridSpec(n=40001))
        assert mean == pytest.approx(q_mean, rel=1e-9)
        assert var == pytest.approx(q_var, rel=1e-3)

    def test_rejects_wrong_shapes(self):
        rng = np.random.default_rng(1)
        table, tau = random_instance(rng, n_actions=3)
        with pytest.raises(ValueError):
            exact_two_action_moments(table, tau)
        table2, tau2 = random_instance(rng, n_actions=2)
        with pytest.raises(ValueError):
            exact_two_action_moments(
                table2, Transition(tau2.s, tau2.a, tau2.r, tau2.s_next, terminal=True)
            )


class TestAnalyticVersusExact:
    def test_mean_gap_shrinks_with_scale(self):
        from adfq.engine import adfq_update

        rng = np.random.default_rng(9090)
        for _ in range(20):
            table, tau = random_instance(
                rng, n_actions=2, sigma_range=(0.3, 1.5), mean_range=(-3.0, 3.0)
            )
            gaps = []
            for factor in (1.0, 0.1, 0.01):
                t = scaled(table, factor)
                mean, _ = exact_two_action_moments(t, tau)
                gaps.append(abs(adfq_update(t, tau).new_mean - mean))
            assert gaps[2] <= gaps[1] + 1e-12
            assert gaps[1] <= gaps[0] + 1e-12
