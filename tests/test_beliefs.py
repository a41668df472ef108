"""Belief data model and the per-branch prior/target combination."""

import io
import math

import numpy as np
import pytest

from adfq.beliefs import (
    BeliefTable,
    GaussianBelief,
    Transition,
    td_components,
    terminal_components,
)

# frozen from a 30-digit evaluation of the combination formulas for
# prior (0, 1), target (-2, 2), r = 0, gamma = 0.9, sigma_w = 0
EXPECTED_V = 1.62
EXPECTED_VAR_BAR = 0.61832061068702290076
EXPECTED_MU_BAR = -0.68702290076335877863
EXPECTED_C = 0.13280859763896012997


class TestTdComponents:
    def test_reference_instance(self):
        comp = td_components(
            GaussianBelief(0.0, 1.0), GaussianBelief(-2.0, 2.0), r=0.0, gamma=0.9, sigma_w=0.0
        )
        assert comp.v == pytest.approx(EXPECTED_V, rel=1e-15)
        assert comp.var_bar == pytest.approx(EXPECTED_VAR_BAR, rel=1e-14)
        assert comp.mu_bar == pytest.approx(EXPECTED_MU_BAR, rel=1e-14)
        assert comp.c == pytest.approx(EXPECTED_C, rel=1e-13)
        assert comp.m == pytest.approx(-1.8)

    def test_matched_target_is_fixed_point(self):
        # target mean placed so r + gamma*mu equals the prior mean, with
        # matching effective variance: the weighted mean must not move
        prior = GaussianBelief(1.7, 0.9)
        gamma = 0.9
        target = GaussianBelief((prior.mean - 0.3) / gamma, prior.variance / gamma**2)
        comp = td_components(prior, target, r=0.3, gamma=gamma, sigma_w=0.0)
        assert comp.v == pytest.approx(prior.variance, rel=1e-14)
        assert comp.mu_bar == pytest.approx(prior.mean, rel=1e-13)

    def test_uninformative_target_leaves_prior(self):
        comp = td_components(
            GaussianBelief(0.0, 1.0), GaussianBelief(3.0, 1e12), r=0.0, gamma=0.9, sigma_w=0.0
        )
        assert abs(comp.mu_bar) < 1e-6
        assert comp.var_bar == pytest.approx(1.0, abs=1e-6)

    def test_mu_bar_between_prior_and_target(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            prior = GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            target = GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            r = rng.uniform(-2, 2)
            comp = td_components(prior, target, r=r, gamma=0.9, sigma_w=0.1)
            lo, hi = sorted((prior.mean, comp.m))
            assert lo - 1e-12 <= comp.mu_bar <= hi + 1e-12

    def test_var_bar_strictly_contracts(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            prior = GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            target = GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            comp = td_components(prior, target, r=0.0, gamma=0.9, sigma_w=0.0)
            assert comp.var_bar < prior.variance
            assert comp.var_bar < comp.v

    def test_weight_peaks_at_zero_td_error(self):
        prior = GaussianBelief(0.5, 1.3)
        gamma, r = 0.9, 0.2
        target_means = np.linspace(-6, 6, 241)
        cs = [
            td_components(prior, GaussianBelief(m, 0.8), r=r, gamma=gamma, sigma_w=0.0).c
            for m in target_means
        ]
        best = target_means[int(np.argmax(cs))]
        zero_delta = (prior.mean - r) / gamma
        assert best == pytest.approx(zero_delta, abs=0.06)

    def test_degenerate_target_variance_rejected(self):
        with pytest.raises(ValueError):
            td_components(
                GaussianBelief(0.0, 1.0), GaussianBelief(0.0, 1.0), r=0.0, gamma=0.0, sigma_w=0.0
            )

    def test_terminal_uses_noise_variance(self):
        comp = terminal_components(GaussianBelief(0.0, 1.0), r=2.0, sigma_w=0.5)
        assert comp.m == 2.0
        assert comp.v == pytest.approx(0.25)
        comp0 = terminal_components(GaussianBelief(0.0, 1.0), r=2.0, sigma_w=0.0)
        assert comp0.v == pytest.approx(1e-12)
        assert comp0.mu_bar == pytest.approx(2.0, abs=1e-6)


class TestGaussianBelief:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianBelief(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianBelief(0.0, -2.0)


class TestBeliefTable:
    def _table(self):
        rng = np.random.default_rng(0)
        return BeliefTable.random_init(3, 2, gamma=0.9, rng=rng)

    def test_random_init_shape_and_ranges(self):
        t = self._table()
        assert t.means.shape == (3, 2)
        assert np.all((t.means >= 0.0) & (t.means < 1.0))
        assert np.all(t.variances == 100.0)

    def test_floor_enforced_on_write(self):
        t = self._table()
        t.set_belief(0, 0, 5.0, 1e-30)
        assert t.variances[0, 0] == t.variance_floor
        t.set_belief(0, 0, 5.0, 2.0)
        assert t.variances[0, 0] == 2.0

    @pytest.mark.parametrize(
        "mean, variance",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf)],
    )
    def test_rejects_nan_write(self, mean, variance):
        t = self._table()
        before = t.belief(0, 1)
        with pytest.raises(ValueError, match=r"non-finite belief at \(0, 1\)"):
            t.set_belief(0, 1, mean, variance)
        assert t.belief(0, 1) == before

    def test_rejects_bad_gamma_and_floor(self):
        ones = np.ones((2, 2))
        with pytest.raises(ValueError):
            BeliefTable(ones, ones, gamma=1.0)
        with pytest.raises(ValueError):
            BeliefTable(ones, ones, gamma=0.9, variance_floor=0.0)
        with pytest.raises(ValueError):
            BeliefTable(ones, ones * 1e-12, gamma=0.9)  # below default floor

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            BeliefTable([[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [1.0, 1.0]], 0.9)
        with pytest.raises(ValueError, match="finite"):
            BeliefTable([[0.0, 0.0], [0.0, 1.0]], [[1.0, np.nan], [1.0, 1.0]], 0.9)
        with pytest.raises(ValueError, match="finite"):
            BeliefTable([[0.0, -np.inf], [0.0, 1.0]], np.ones((2, 2)), 0.9)
        for sigma_w in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma_w must be finite"):
                BeliefTable(np.ones((2, 2)), np.ones((2, 2)), 0.9, sigma_w=sigma_w)

    def test_transition_validation(self):
        t = self._table()
        with pytest.raises(ValueError):
            t.check_transition(Transition(3, 0, 0.0, 0))
        with pytest.raises(ValueError):
            t.check_transition(Transition(0, 2, 0.0, 0))
        t.check_transition(Transition(2, 1, 0.0, 0))

    @pytest.mark.parametrize("r", [float("inf"), float("-inf"), float("nan")])
    def test_transition_rejects_non_finite_reward(self, r):
        with pytest.raises(ValueError, match="reward must be finite"):
            Transition(0, 0, r, 1)

    def test_csv_round_trip(self):
        t = self._table()
        t.set_belief(1, 1, -3.25, 0.125)
        buf = io.StringIO()
        t.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "state,action,mean,variance"
        back = BeliefTable.from_csv(io.StringIO(text), gamma=t.gamma)
        np.testing.assert_array_equal(back.means, t.means)
        np.testing.assert_array_equal(back.variances, t.variances)

    def test_csv_rejects_incomplete_table(self):
        text = "state,action,mean,variance\n0,0,1.0,1.0\n1,1,1.0,1.0\n"
        with pytest.raises(ValueError):
            BeliefTable.from_csv(io.StringIO(text), gamma=0.9)

    @pytest.mark.parametrize(
        "row", ["1,0,inf,1.0", "1,0,-inf,1.0", "1,0,nan,1.0", "1,0,0.5,inf", "1,0,0.5,nan"]
    )
    def test_csv_rejects_non_finite_entry(self, row):
        text = f"state,action,mean,variance\n0,0,1.0,1.0\n{row}\n"
        with pytest.raises(ValueError, match=r"line 3 \(state 1, action 0\).*non-finite"):
            BeliefTable.from_csv(io.StringIO(text), gamma=0.9)

    @pytest.mark.parametrize(
        "rows, match",
        [
            # numpy would index -1 as the last state and overwrite it
            ("0,0,1.0,1.0\n1,0,1.0,1.0\n-1,0,9.0,1.0\n", r"line 4 has a negative state"),
            ("0,0,1.0,1.0\n1,0,1.0,1.0\n0,0,2.0,1.0\n", r"line 4 repeats state 0, action 0 .* 2"),
            ("0,0,1.0,1.0\n1,0,1.0\n", r"line 3 has 3 fields, expected 4"),
            ("", r"no rows after its header on line 1"),
        ],
        ids=["negative-state", "repeated-pair", "short-row", "header-only"],
    )
    def test_csv_rejects_malformed_rows(self, rows, match):
        text = "state,action,mean,variance\n" + rows
        with pytest.raises(ValueError, match=match):
            BeliefTable.from_csv(io.StringIO(text), gamma=0.9)
