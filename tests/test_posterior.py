"""Reference posterior: density shape, quadrature, and closed form."""

import math

import numpy as np
import pytest
from support import random_instance, scaled

from adfq import posterior
from adfq.beliefs import BeliefTable, GaussianBelief, Transition, td_components
from adfq.posterior import (
    GridSpec,
    NormalizerUnderflowError,
    exact_two_action_moments,
    posterior_unnorm_pdf_grid,
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
        vals = posterior_unnorm_pdf_grid(np.linspace(lo, hi, 500), table, tau)
        assert np.all(vals >= 0.0)

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
            posterior_unnorm_pdf_grid(np.array([0.0, 1.0]), table, Transition(0, 0, 0.0, 1))


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

    @pytest.mark.parametrize(
        "terminal, n_actions", [(True, 4), (False, 1), (False, 4)],
        ids=["terminal", "A1", "A4"],
    )
    def test_density_evaluated_once(self, monkeypatch, terminal, n_actions):
        calls = []
        density = posterior._log_density
        monkeypatch.setattr(
            posterior, "_log_density", lambda q, arrays: calls.append(q) or density(q, arrays)
        )
        table, tau = random_instance(np.random.default_rng(103), n_actions=n_actions)
        quadrature_log_moments(table, Transition(0, 0, tau.r, 1, terminal=terminal))
        assert len(calls) == 1

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
            {"n": 5},
        ],
        ids=["lo-nan", "lo-inf", "lo-equals-hi", "lo-above-hi", "n-fractional", "n-small"],
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

    def test_matches_quadrature_at_large_means(self):
        # every mean shifted by 1e6 with variances near 1e-2: the spread
        # sits far below |mean| * sqrt(eps), where E[q^2] - mean^2 cancels
        rng = np.random.default_rng(6006)
        level = 1e6
        for _ in range(10):
            table, tau = random_instance(rng, n_actions=2, sigma_range=(0.05, 0.2))
            shifted = BeliefTable(
                table.means + level, table.variances, gamma=table.gamma, variance_floor=1e-300
            )
            tau = Transition(0, 0, tau.r + (1.0 - table.gamma) * level, 1)
            mean, var = exact_two_action_moments(shifted, tau)
            _, q_mean, q_var = quadrature_log_moments(shifted, tau, GridSpec(n=20001))
            assert mean == pytest.approx(q_mean, rel=1e-12)
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

    def test_matches_quadrature_far_in_the_lower_tail(self):
        # one branch's standardized gap is near -3.8e9: its log density and
        # log CDF both sit near -7.2e18, and exp of their difference overflowed
        table = BeliefTable(
            np.array([[-1429.1649711376333, -0.3820149837297687],
                      [-294713.57304447156, 51143.9540401513]]),
            np.array([[2.2519288861476757e-05, 1.3308197157832288e-05],
                      [6.61226423661607e-09, 1.693891304554982e-09]]),
            gamma=0.6750331870579795,
            variance_floor=1e-300,
        )
        tau = Transition(0, 0, 6.656692634023375e-06, 1)
        mean, var = exact_two_action_moments(table, tau)
        grid = GridSpec(mean - 1e-3, mean + 1e-3, 20001)
        _, q_mean, q_var = quadrature_log_moments(table, tau, grid)
        assert mean == pytest.approx(q_mean, rel=1e-12)
        assert var == pytest.approx(q_var, rel=1e-5)

    def test_finite_across_the_robustness_range(self):
        # noiseless tables with means from 1e-6 to 1e6 and variances from
        # 1e-10 to 1e2; at these scales about 1% of draws used to raise or
        # return a non-finite moment
        rng = np.random.default_rng(1)
        for _ in range(2000):
            signs = rng.choice([-1.0, 1.0], size=(2, 2))
            table = BeliefTable(
                signs * 10.0 ** rng.uniform(-6.0, 6.0, size=(2, 2)),
                10.0 ** rng.uniform(-10.0, 2.0, size=(2, 2)),
                gamma=float(rng.uniform(0.5, 0.99)),
                variance_floor=1e-300,
            )
            r = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0))
            mean, var = exact_two_action_moments(table, Transition(0, 0, r, 1))
            assert math.isfinite(mean) and math.isfinite(var)

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
