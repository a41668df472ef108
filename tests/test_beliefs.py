"""Belief data model and the per-branch prior/target combination."""

import copy
import math
import pickle

import numpy as np
import pytest
from support import one_branch

from adfq.beliefs import (
    TERMINAL_TARGET_VARIANCE,
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
        comp = one_branch(
            GaussianBelief(0.0, 1.0), GaussianBelief(-2.0, 2.0), r=0.0, gamma=0.9, sigma_w=0.0
        )
        assert comp.v == pytest.approx(EXPECTED_V, rel=1e-15)
        assert comp.var_bar == pytest.approx(EXPECTED_VAR_BAR, rel=1e-14)
        assert comp.mu_bar == pytest.approx(EXPECTED_MU_BAR, rel=1e-14)
        assert math.exp(comp.log_c) == pytest.approx(EXPECTED_C, rel=1e-13)
        assert comp.m == pytest.approx(-1.8)

    def test_matched_target_is_fixed_point(self):
        # target mean placed so r + gamma*mu equals the prior mean, with
        # matching effective variance: the weighted mean must not move
        prior = GaussianBelief(1.7, 0.9)
        gamma = 0.9
        target = GaussianBelief((prior.mean - 0.3) / gamma, prior.variance / gamma**2)
        comp = one_branch(prior, target, r=0.3, gamma=gamma, sigma_w=0.0)
        assert comp.v == pytest.approx(prior.variance, rel=1e-14)
        assert comp.mu_bar == pytest.approx(prior.mean, rel=1e-13)

    def test_uninformative_target_leaves_prior(self):
        comp = one_branch(
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
            comp = one_branch(prior, target, r=r, gamma=0.9, sigma_w=0.1)
            lo, hi = sorted((prior.mean, comp.m))
            assert lo - 1e-12 <= comp.mu_bar <= hi + 1e-12

    def test_var_bar_strictly_contracts(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            prior = GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            target = GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            comp = one_branch(prior, target, r=0.0, gamma=0.9, sigma_w=0.0)
            assert comp.var_bar < prior.variance
            assert comp.var_bar < comp.v

    def test_weight_peaks_at_zero_td_error(self):
        prior = GaussianBelief(0.5, 1.3)
        gamma, r = 0.9, 0.2
        target_means = np.linspace(-6, 6, 241)
        cs = [
            math.exp(one_branch(prior, GaussianBelief(m, 0.8), r=r, gamma=gamma, sigma_w=0.0).log_c)
            for m in target_means
        ]
        best = target_means[int(np.argmax(cs))]
        zero_delta = (prior.mean - r) / gamma
        assert best == pytest.approx(zero_delta, abs=0.06)

    def test_degenerate_target_variance_rejected(self):
        with pytest.raises(ValueError):
            one_branch(
                GaussianBelief(0.0, 1.0), GaussianBelief(0.0, 1.0), r=0.0, gamma=0.0, sigma_w=0.0
            )

    def test_terminal_uses_noise_variance(self):
        comp = one_branch(GaussianBelief(0.0, 1.0), None, r=2.0, gamma=0.9, sigma_w=0.5)
        assert comp.m == 2.0
        assert comp.v == pytest.approx(0.25)
        comp0 = one_branch(GaussianBelief(0.0, 1.0), None, r=2.0, gamma=0.9, sigma_w=0.0)
        assert comp0.v == pytest.approx(1e-12)
        assert comp0.mu_bar == pytest.approx(2.0, abs=1e-6)

    def test_terminal_record_has_the_td_layout(self):
        # one branch and no penalties, in td_components' five fields
        table = BeliefTable(np.zeros((2, 3)), np.ones((2, 3)), gamma=0.9)
        tau = Transition(0, 0, 2.0, 1)
        prior, ms, penalties, vs, log_cs = terminal_components(table, tau._replace(terminal=True))
        assert (prior, ms, penalties, vs) == ((0.0, 1.0), [2.0], (), [TERMINAL_TARGET_VARIANCE])
        assert len(log_cs) == 1
        assert len(td_components(table, tau)) == 5


class TestGaussianBelief:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianBelief(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianBelief(0.0, -2.0)


class TestBeliefTable:
    def _table(self):
        rng = np.random.default_rng(0)
        return BeliefTable(rng.uniform(0.0, 1.0, size=(3, 2)), np.full((3, 2), 100.0), gamma=0.9)

    def test_arrays_are_read_only_copies(self):
        means, variances = np.zeros((2, 3)), np.ones((2, 3))
        t = BeliefTable(means, variances, gamma=0.9)
        assert type(t.n_states) is int and type(t.n_actions) is int
        assert (t.n_states, t.n_actions) == (2, 3)
        for view in (t.means, t.variances):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                view += 1.0
        t.set_belief(0, 0, 5.0, 2.0)
        assert (t.means[0, 0], t.variances[0, 0]) == (5.0, 2.0)
        # the caller's arrays are neither aliased nor made read-only
        assert means.flags.writeable and variances.flags.writeable
        assert not means.any() and (variances == 1.0).all()
        # a copy, pickled or not, writes only its own entries
        for other in (t.copy(), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            other.set_belief(1, 2, -4.0, 3.0)
            assert (other.means[1, 2], other.variances[1, 2]) == (-4.0, 3.0)
            assert (t.means[1, 2], t.variances[1, 2]) == (0.0, 1.0)
            assert other.belief(0, 0) == t.belief(0, 0)
        # no attribute can be rebound or deleted: a rebound view would
        # detach from the array set_belief writes
        for name, value in list(vars(t).items()):
            with pytest.raises(AttributeError, match=f"BeliefTable.{name}"):
                setattr(t, name, value)
            with pytest.raises(AttributeError, match=f"BeliefTable.{name}"):
                delattr(t, name)
        t.set_belief(0, 1, 6.0, 4.0)
        assert (t.means[0, 1], t.variances[0, 1]) == (6.0, 4.0)

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

    @pytest.mark.parametrize("s, a", [(-1, 0), (0, -1), (-1, -1), (3, 0), (0, 2), (-4, 0)])
    def test_rejects_index_out_of_range(self, s, a):
        # numpy would wrap a negative index onto another entry
        t = self._table()
        before = (t.means.copy(), t.variances.copy())
        with pytest.raises(ValueError, match=rf"\({s}, {a}\) out of range"):
            t.set_belief(s, a, 7.0, 2.0)
        with pytest.raises(ValueError, match=rf"\({s}, {a}\) out of range"):
            t.belief(s, a)
        np.testing.assert_array_equal(t.means, before[0])
        np.testing.assert_array_equal(t.variances, before[1])

    def test_rejects_bad_gamma_and_floor(self):
        ones = np.ones((2, 2))
        with pytest.raises(ValueError):
            BeliefTable(ones, ones, gamma=1.0)
        with pytest.raises(ValueError):
            BeliefTable(ones, ones, gamma=0.9, variance_floor=0.0)
        with pytest.raises(ValueError):
            BeliefTable(ones, ones * 1e-12, gamma=0.9)  # below default floor

    @pytest.mark.parametrize("shapes", [((2, 2), (2, 3)), ((4,), (4,))])
    def test_rejects_mismatched_shapes(self, shapes):
        means_shape, variances_shape = shapes
        with pytest.raises(ValueError, match="means and variances must be matching 2-D arrays"):
            BeliefTable(np.zeros(means_shape), np.ones(variances_shape), gamma=0.9)

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
        # positional, keyword, _make and _replace all build through __new__
        finite = Transition(0, 0, 0.0, 1)
        for build in (
            lambda: Transition(0, 0, r, 1),
            lambda: Transition(s=0, a=0, r=r, s_next=1, terminal=True),
            lambda: Transition._make((0, 0, r, 1, False)),
            lambda: finite._replace(r=r),
        ):
            with pytest.raises(ValueError, match="reward must be finite"):
                build()

    def test_transition_unpickles_through_the_reward_check(self):
        # the process pool pickles transitions; tuple.__new__ skips the check
        tau = Transition(2, 1, -0.5, 3, True)
        forged = tuple.__new__(Transition, (0, 0, math.nan, 1, False))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(tau, protocol))
            assert type(back) is Transition and back == tau
            with pytest.raises(ValueError, match="reward must be finite"):
                pickle.loads(pickle.dumps(forged, protocol))
