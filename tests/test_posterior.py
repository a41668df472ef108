"""Reference posterior: density shape, quadrature, and closed form."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mp_reference import (
    DIGITS,
    reference_truncated_lambda,
    reference_truncated_variance,
    reference_two_action_moments,
)
from support import one_branch, random_instance, scaled

from adfq import posterior
from adfq.beliefs import BeliefTable, GaussianBelief, Transition
from adfq.posterior import (
    CONTINUED_FRACTION_BELOW,
    GridSpec,
    _branch_arrays,
    _truncated_normal,
    exact_two_action_moments,
    posterior_unnorm_pdf_grid,
    quadrature_log_moments,
)

EPS = 2.0**-52
# Relative error of _truncated_normal's variance against the mpmath
# reference: twice the worst case over 18,000 random gaps, rounded up to
# a power of two, as in test_update_accuracy.py. The direct form's worst
# is 251 eps, near zb = -2.39, just above CONTINUED_FRACTION_BELOW; the
# continued fraction's, below it, is 2.4 eps.
TRUNCATED_VAR_TOL = 2.0**9 * EPS
CONTINUED_FRACTION_TOL = 8.0 * EPS
# The same convention for lam over 36,000 gaps: the continued fraction's
# worst is 0.52 eps. Above the threshold lam is conditioned like 1 +
# zb**2 (its log slope is about -zb**2 for zb > 0), and erfcx's exp(y**2)
# rounds at that scale: its worst is 4.9 eps of 1 + zb**2.
LAMBDA_CF_TOL = 2.0 * EPS
LAMBDA_ERFCX_TOL = 16.0 * EPS
# The closed form against reference_two_action_moments on criterion 1's
# distribution, by the same convention over 21,000 draws (7 seeds of
# 3,000): the mean's worst is 6.3 eps of 1 + |mean|, the variance's
# 48.7 eps relative.
CLOSED_FORM_MEAN_TOL = 16.0 * EPS
CLOSED_FORM_VAR_TOL = 128.0 * EPS
# Over the robustness range the log weights reach 1.7e11 in magnitude,
# and each carries about |log_c| eps of rounding into the mixture
# weights. On 3,000 draws the variance's worst error is 38.6 (1 + L) eps
# relative, L the larger |log_c| of the two branches; by the same
# convention the bound is 128 (1 + L) eps.
CLOSED_FORM_LOG_WEIGHT_TOL = 128.0 * EPS


def _robustness_tables(n):
    """``n`` noiseless two-action tables and transitions at seed 1.

    Means and rewards from 1e-6 to 1e6 in magnitude, variances from
    1e-10 to 1e2, uniform in the exponent.
    """
    rng = np.random.default_rng(1)
    for _ in range(n):
        signs = rng.choice([-1.0, 1.0], size=(2, 2))
        table = BeliefTable(
            signs * 10.0 ** rng.uniform(-6.0, 6.0, size=(2, 2)),
            10.0 ** rng.uniform(-10.0, 2.0, size=(2, 2)),
            gamma=float(rng.uniform(0.5, 0.99)),
            variance_floor=1e-300,
        )
        r = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0))
        yield table, Transition(0, 0, r, 1)


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
        comp = one_branch(
            GaussianBelief(0.2, 1.3), GaussianBelief(1.0, 0.6), 0.5, 0.9, 0.0
        )
        _, mean, variance = quadrature_log_moments(table, tau, GridSpec(n=4001))
        assert mean == pytest.approx(comp.mu_bar, abs=1e-8)
        assert variance == pytest.approx(comp.var_bar, abs=1e-8)

    def test_nonnegative_on_dense_grid(self):
        rng = np.random.default_rng(31)
        table, tau = random_instance(rng, n_actions=4)
        lo = table.means.min() - 30
        hi = table.means.max() + 30
        vals = posterior_unnorm_pdf_grid(np.linspace(lo, hi, 500), table, tau)
        assert np.all(vals >= 0.0)

    def test_one_point_reads_its_batch_value(self):
        # numpy sums a lone cell's branch axis in another order than a
        # batch's, which moved 283 of these 2100 points in the last bits
        rng = np.random.default_rng(3)
        q = np.linspace(-10.0, 10.0, 7)
        for i in range(300):
            table, tau = random_instance(rng, n_actions=2 + i % 18)
            batch = posterior_unnorm_pdf_grid(q, table, tau)
            alone = [posterior_unnorm_pdf_grid(q[j : j + 1], table, tau)[0] for j in range(7)]
            assert [x.hex() for x in alone] == [float(x).hex() for x in batch]

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

    def test_underflowing_cdf_scale_rejected(self):
        # gamma > 0, so td_components accepts it, but gamma * sd is 0.0
        table = BeliefTable(np.zeros((2, 2)), np.full((2, 2), 0.01), gamma=5e-324, sigma_w=0.1)
        with pytest.raises(ValueError, match="CDF denominator gamma \\* sd underflows to zero"):
            quadrature_log_moments(table, Transition(0, 0, 0.0, 1))


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": math.nan},
            {"lo": -math.inf},
            {"lo": 5.0, "hi": 5.0},
            {"lo": 10.0, "hi": -10.0},
            # each bound finite, but hi - lo overflows: the step would be inf
            {"lo": -1.5e308, "hi": 1.5e308},
            {"n": 1001.5},
            {"n": 5},
        ],
        ids=[
            "lo-nan", "lo-inf", "lo-equals-hi", "lo-above-hi", "span-overflows", "n-fractional",
            "n-small",
        ],
    )
    def test_grid_spec_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_overflowing_auto_span_rejected(self):
        # auto bounds near -1e308 and 1e308: each is finite, their span is
        # not, and the grid's cells would be NaN
        table = _two_action_table((0.0, 1.0), [(1e308, 1.0), (-1e308, 1.0)])
        with pytest.raises(ValueError, match="finite span"):
            quadrature_log_moments(table, Transition(0, 0, 0.0, 1))

    def test_explicit_lo_above_auto_hi_rejected(self):
        rng = np.random.default_rng(102)
        table, tau = random_instance(rng, n_actions=2)
        with pytest.raises(ValueError, match="lo < hi"):
            quadrature_log_moments(table, tau, GridSpec(lo=1e6))

    def test_moments_survive_underflowing_normalizer(self):
        # huge TD error at tiny combined variance pushes the normalizer
        # below the smallest positive double; kept in log space, the
        # moments stay usable
        table = _two_action_table((0.0, 1e-4), [(50.0, 1e-4), (60.0, 1e-4)])
        tau = Transition(0, 0, 0.0, 1)
        log_z, mean, var = quadrature_log_moments(table, tau)
        assert log_z < math.log(1e-300)
        assert math.isfinite(mean) and var > 0.0

    def test_terminal_transition_is_conjugate(self):
        means = np.array([[0.0, 0.0], [5.0, 5.0]])
        variances = np.array([[2.0, 2.0], [1.0, 1.0]])
        table = BeliefTable(means, variances, gamma=0.9, sigma_w=0.5)
        tau = Transition(0, 0, 3.0, 1, terminal=True)
        _, mean, variance = quadrature_log_moments(table, tau, GridSpec(n=4001))
        # conjugate with target (r, sigma_w^2)
        var_bar = 1.0 / (1.0 / 2.0 + 1.0 / 0.25)
        mu_bar = var_bar * (0.0 / 2.0 + 3.0 / 0.25)
        assert mean == pytest.approx(mu_bar, abs=1e-8)
        assert variance == pytest.approx(var_bar, abs=1e-8)


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
            one_branch(GaussianBelief(0.0, 1.0), GaussianBelief(m, 0.8), 0.0, 0.9, 0.0)
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
        comp_hi = one_branch(
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
        # at these scales about 1% of draws used to raise or return a
        # non-finite moment
        for table, tau in _robustness_tables(2000):
            mean, var = exact_two_action_moments(table, tau)
            assert math.isfinite(mean) and math.isfinite(var)

    def test_variance_nonnegative_across_the_robustness_range(self):
        # 56 of these used to come out negative, each from a branch whose
        # gap lay below -1.9e4, where 1 - lam * (zb + lam) cancelled
        negative = [
            var for var in (exact_two_action_moments(*case)[1]
                            for case in _robustness_tables(20_000))
            if not var >= 0.0
        ]
        assert negative == []

    @settings(max_examples=300)
    @given(
        st.floats(-3.0, 12.0).map(lambda e: -(10.0**e))
        | st.floats(-3.0, 1.6).map(lambda e: 10.0**e)
    )
    @example(CONTINUED_FRACTION_BELOW)
    @example(math.nextafter(CONTINUED_FRACTION_BELOW, -math.inf))
    @example(-2.3922021921043513)
    @example(-40.0)
    @example(-200.0)
    def test_truncated_variance_matches_mpmath(self, zb):
        _, variance = _truncated_normal(zb)
        with mpmath.workdps(DIGITS):
            ref = reference_truncated_variance(zb)
            err = float(abs(variance - ref) / ref)
        assert err <= (
            CONTINUED_FRACTION_TOL if zb < CONTINUED_FRACTION_BELOW else TRUNCATED_VAR_TOL
        )

    @settings(max_examples=300)
    @given(
        st.floats(-3.0, 12.0).map(lambda e: -(10.0**e))
        | st.floats(-3.0, 1.4).map(lambda e: 10.0**e)
    )
    @example(CONTINUED_FRACTION_BELOW)
    @example(math.nextafter(CONTINUED_FRACTION_BELOW, -math.inf))
    @example(-40.0)
    @example(25.0)
    def test_truncated_lambda_matches_mpmath(self, zb):
        lam, _ = _truncated_normal(zb)
        with mpmath.workdps(DIGITS):
            ref = reference_truncated_lambda(zb)
            err = float(abs(lam - ref) / ref)
        if zb < CONTINUED_FRACTION_BELOW:
            assert err <= LAMBDA_CF_TOL
        else:
            assert err <= LAMBDA_ERFCX_TOL * (1.0 + zb * zb)

    def test_matches_mpmath_oracle_on_criterion_1_draws(self):
        # test_criterion_1_exact_oracle_equivalence's 1000 draws; the
        # oracle starts from the same branch values as the closed form
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            table, tau = random_instance(
                rng, 2, sigma_range=(0.1, 10.0), mean_range=(-10.0, 10.0),
                gammas=(0.5, 0.9, 0.95),
            )
            br = _branch_arrays(table, tau)
            mean, variance = exact_two_action_moments(table, tau)
            ref_mean, ref_variance = reference_two_action_moments(
                br.mu_bar, br.var_bar, br.m, br.scales, br.log_c
            )
            with mpmath.workdps(DIGITS):
                assert abs(mean - ref_mean) <= CLOSED_FORM_MEAN_TOL * (1 + abs(ref_mean))
                assert abs(variance - ref_variance) <= CLOSED_FORM_VAR_TOL * ref_variance

    def test_variance_error_scales_with_the_log_weights(self):
        # the bound exact_two_action_moments' docstring states
        for table, tau in _robustness_tables(3000):
            br = _branch_arrays(table, tau)
            _, variance = exact_two_action_moments(table, tau)
            _, ref_variance = reference_two_action_moments(
                br.mu_bar, br.var_bar, br.m, br.scales, br.log_c
            )
            tol = CLOSED_FORM_LOG_WEIGHT_TOL * (1.0 + max(abs(x) for x in br.log_c))
            with mpmath.workdps(DIGITS):
                assert abs(variance - ref_variance) <= tol * ref_variance

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
