"""Analytic update: peak solving, curvature, heights, mixture moments.

Derived expectations come from independent oracles implemented here:
a ternary search over the (concave, piecewise quadratic) branch
exponent for the peak, central finite differences for the curvature,
direct evaluation of the approximated posterior terms for the weights,
and trapezoid integration of the true posterior for the full update.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from support import (
    Branch,
    all_branches,
    limit_regime_instance,
    one_branch,
    random_instance,
    rel_err,
    scaled,
)

from adfq import engine
from adfq.beliefs import BeliefTable, GaussianBelief, Transition
from adfq.engine import (
    adfq_update,
    apply_update,
    mixture_moments,
    mixture_weights,
    qlearning_limit_target,
    solve_peak_mean,
)
from adfq.posterior import GridSpec, _branch_arrays, quadrature_log_moments

FIG_PRIOR = GaussianBelief(0.0, 1.0)
FIG_GAMMA = 0.9
FIG_TARGETS = [GaussianBelief(-2.0, 2.0), GaussianBelief(-2.0, 0.5), GaussianBelief(4.5, 0.5)]


def _table(prior: GaussianBelief, targets: list[GaussianBelief]) -> BeliefTable:
    """State 0 holds ``prior`` at every action, state 1 the next-state beliefs."""
    n = len(targets)
    means = np.array([[prior.mean] * n, [t.mean for t in targets]])
    variances = np.array([[prior.variance] * n, [t.variance for t in targets]])
    return BeliefTable(means, variances, gamma=FIG_GAMMA, sigma_w=0.0)


def _fig_table() -> tuple[BeliefTable, Transition]:
    return _table(FIG_PRIOR, FIG_TARGETS), Transition(s=0, a=0, r=0.0, s_next=1)


def _one_action_table() -> tuple[BeliefTable, Transition]:
    """The reference branch alone: its active set is empty."""
    return _table(FIG_PRIOR, FIG_TARGETS[:1]), Transition(s=0, a=0, r=0.0, s_next=1)


def _branch_inputs(branch_index: int):
    """Branch components plus the other targets' (mean, variance) pairs."""
    comp = one_branch(FIG_PRIOR, FIG_TARGETS[branch_index], 0.0, FIG_GAMMA, 0.0)
    others = [
        (FIG_GAMMA * t.mean, FIG_GAMMA**2 * t.variance)
        for i, t in enumerate(FIG_TARGETS)
        if i != branch_index
    ]
    return comp, others


def _branch_exponent(comp, others):
    """Concave piecewise-quadratic log shape of one posterior summand."""

    def f(q: float) -> float:
        val = -((q - comp.mu_bar) ** 2) / (2.0 * comp.var_bar)
        for m, u in others:
            gap = m - q
            if gap > 0.0:
                val -= gap * gap / (2.0 * u)
        return val

    return f


def _peak(branch, others):
    """``solve_peak_mean`` for ``branch`` over ``others``, ranked by mean, descending."""
    order = sorted(range(len(others)), key=lambda i: others[i][0], reverse=True)
    return solve_peak_mean((branch.mu_bar, branch.var_bar, branch.log_c), others, order)


def _ternary_argmax(f, lo: float, hi: float, iters: int = 300) -> float:
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


class TestSolvePeakMean:
    def test_no_other_targets(self):
        comp, _ = _branch_inputs(0)
        assert _peak(comp, []) == comp.mu_bar

    def test_all_targets_below_mean(self):
        comp, _ = _branch_inputs(0)
        others = [(comp.mu_bar - 1.0, 0.5), (comp.mu_bar - 3.0, 1.0)]
        assert _peak(comp, others) == comp.mu_bar

    def test_reference_branch_matches_grid_argmax(self):
        comp, others = _branch_inputs(0)
        mu_star = _peak(comp, others)
        oracle = _ternary_argmax(_branch_exponent(comp, others), -20.0, 20.0)
        assert mu_star == pytest.approx(oracle, abs=1e-6)

    def test_random_branches_match_grid_argmax(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            comp = one_branch(
                GaussianBelief(rng.uniform(-3, 3), rng.uniform(0.2, 3.0)),
                GaussianBelief(rng.uniform(-3, 3), rng.uniform(0.2, 3.0)),
                r=rng.uniform(-1, 1),
                gamma=0.9,
                sigma_w=0.0,
            )
            others = [
                (rng.uniform(-4, 4), rng.uniform(0.1, 2.0)) for _ in range(rng.integers(0, 6))
            ]
            mu_star = _peak(comp, others)
            oracle = _ternary_argmax(_branch_exponent(comp, others), -40.0, 40.0)
            assert mu_star == pytest.approx(oracle, abs=1e-6)

    def test_exactly_one_consistent_prefix(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(1, 11))
            comp = one_branch(
                GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.05, 5.0)),
                GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.05, 5.0)),
                r=0.0,
                gamma=0.9,
                sigma_w=0.0,
            )
            others = [
                (float(rng.uniform(-6, 6)), float(rng.uniform(0.05, 5.0)))
                for _ in range(n - 1)
            ]
            targets = sorted(others, key=lambda t: t[0], reverse=True)
            consistent = []
            for k in range(len(targets) + 1):
                active = targets[:k]
                den = 1.0 / comp.var_bar + sum(1.0 / u for _, u in active)
                num = comp.mu_bar / comp.var_bar + sum(m / u for m, u in active)
                cand = num / den
                upper = targets[k - 1][0] if k > 0 else math.inf
                lower = targets[k][0] if k < len(targets) else -math.inf
                if upper > cand >= lower:
                    consistent.append(cand)
            assert len(consistent) == 1
            assert _peak(comp, others) == pytest.approx(consistent[0], rel=1e-12)

    @pytest.mark.parametrize("others", [[(1.0, 1e-20)], [(1.0, 1e-20), (0.5, 1.0)]])
    def test_least_violation_fallback(self, others):
        # mu_bar sits one ulp below a target whose precision swamps it:
        # the empty prefix lies below that target and admitting it lands
        # exactly on it, so in doubles no bracket holds and the scan
        # returns its least-violating candidate
        comp = Branch(1.0, 1.0, 0.9999999999999999, 1.0, 0.0)
        targets = sorted(others, reverse=True)
        num, den, upper = comp.mu_bar / comp.var_bar, 1.0 / comp.var_bar, math.inf
        for k in range(len(targets) + 1):
            lower = targets[k][0] if k < len(targets) else -math.inf
            assert not upper > num / den >= lower
            if k < len(targets):
                num += targets[k][0] / targets[k][1]
                den += 1.0 / targets[k][1]
                upper = targets[k][0]
        assert _peak(comp, others) == 1.0

    def test_peak_never_below_weighted_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            comp = one_branch(
                GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 3.0)),
                GaussianBelief(rng.uniform(-5, 5), rng.uniform(0.1, 3.0)),
                r=0.0,
                gamma=0.9,
                sigma_w=0.0,
            )
            others = [
                (float(rng.uniform(-6, 6)), float(rng.uniform(0.1, 3.0)))
                for _ in range(rng.integers(0, 5))
            ]
            assert _peak(comp, others) >= comp.mu_bar - 1e-12


class TestPeakVariance:
    def test_empty_active_set(self):
        (branch,) = adfq_update(*_one_action_table()).branches
        assert branch.var_star == branch.var_bar

    def test_single_equal_precision_target(self):
        # the other target's penalty variance equals the branch's var_bar
        # and its mean sits 5 above mu_bar, so it is active at the peak
        comp = one_branch(FIG_PRIOR, FIG_TARGETS[0], 0.0, FIG_GAMMA, 0.0)
        other = GaussianBelief((comp.mu_bar + 5.0) / FIG_GAMMA, comp.var_bar / FIG_GAMMA**2)
        table = _table(FIG_PRIOR, [FIG_TARGETS[0], other])
        branch = adfq_update(table, Transition(0, 0, 0.0, 1)).branches[0]
        assert branch.var_star == pytest.approx(comp.var_bar / 2.0)

    def test_boundary_target_excluded(self):
        # mu_bar and the other target's mean are both exactly 0.0: a
        # target at the peak is not active (step function 0 at 0)
        table = _table(GaussianBelief(0.0, 1.0), [GaussianBelief(0.0, 0.5)] * 2)
        res = adfq_update(table, Transition(0, 0, 0.0, 1))
        for branch in res.branches:
            assert branch.mu_bar == 0.0
            assert branch.mu_star == branch.mu_bar
            assert branch.var_star == branch.var_bar

    def test_reference_branch_matches_finite_difference(self):
        branch = adfq_update(*_fig_table()).branches[0]
        comp, others = _branch_inputs(0)
        f = _branch_exponent(comp, others)
        h = 1e-5
        mu_star = branch.mu_star
        second = (f(mu_star + h) - 2.0 * f(mu_star) + f(mu_star - h)) / (h * h)
        assert -1.0 / second == pytest.approx(branch.var_star, rel=1e-4)


class TestLogPeakHeight:
    def test_single_action_reduces_to_weight(self):
        (branch,) = adfq_update(*_one_action_table()).branches
        assert branch.log_k_star == pytest.approx(branch.log_c, rel=1e-14)

    def test_exchangeable_branches_split_evenly(self):
        # identical target parameters make the two branches exchangeable
        means = np.array([[0.3, 0.3], [1.0, 1.0]])
        variances = np.array([[1.0, 1.0], [0.7, 0.7]])
        table = BeliefTable(means, variances, gamma=0.9)
        res = adfq_update(table, Transition(0, 0, 0.0, 1))
        w = [br.weight for br in res.branches]
        assert res.branches[0].log_k_star == pytest.approx(res.branches[1].log_k_star, rel=1e-12)
        assert w[0] == pytest.approx(0.5, abs=1e-12)
        assert w[1] == pytest.approx(0.5, abs=1e-12)

    def test_weights_match_direct_term_evaluation(self):
        # mass of each matched Gaussian = height of the approximated
        # posterior term at its peak, times sqrt(2 pi) * sd_star
        table, tau = _fig_table()
        res = adfq_update(table, tau)
        direct = []
        for b, branch in enumerate(res.branches):
            comp, others = _branch_inputs(b)
            f = _branch_exponent(comp, others)
            log_height = (
                comp.log_c
                - 0.5 * math.log(2.0 * math.pi * comp.var_bar)
                + f(branch.mu_star)
            )
            direct.append(
                log_height + 0.5 * math.log(2.0 * math.pi * branch.var_star)
            )
        shift = max(direct)
        masses = [math.exp(d - shift) for d in direct]
        expected = [m / sum(masses) for m in masses]
        for branch, w in zip(res.branches, expected):
            assert branch.weight == pytest.approx(w, abs=1e-6)


class TestMixtureWeights:
    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        logs = rng.uniform(-50, 0, size=6).tolist()
        w1 = mixture_weights(logs)
        w2 = mixture_weights([v - 1234.5 for v in logs])
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_no_masses_refused(self):
        with pytest.raises(ValueError, match="no branch masses to normalize"):
            mixture_weights([])

    def test_all_zero_masses_share_the_weight(self):
        assert mixture_weights([-math.inf, -math.inf]) == [0.5, 0.5]
        # finite beliefs get there too: each TD error's square overflows
        table = BeliefTable(np.array([[0.0, 0.0], [1e160, 1e160]]), np.ones((2, 2)), gamma=0.9)
        res = adfq_update(table, Transition(0, 0, 0.0, 1))
        assert res.log_cs == [-math.inf, -math.inf]
        assert res.weights == [0.5, 0.5]
        assert math.isfinite(res.new_mean) and math.isfinite(res.new_variance)

    def test_far_underflow_still_normalized(self):
        w = mixture_weights([-80000.0, -80001.0, -80005.0])
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert w[0] > w[1] > w[2] > 0.0


class TestMixtureMoments:
    def test_one_component_is_itself(self):
        weights, mean, variance = mixture_moments([(3.25, 0.125, -41.0)])
        assert weights == [1.0]
        assert (mean, variance) == (3.25, 0.125)

    def test_permutation_gives_the_same_bits(self):
        rng = np.random.default_rng(5)
        comps = list(zip(
            rng.normal(0.0, 3.0, 6).tolist(),
            rng.uniform(0.01, 2.0, 6).tolist(),
            rng.uniform(-8.0, 0.0, 6).tolist(),
        ))
        weights, mean, variance = mixture_moments(comps)
        for _ in range(5):
            perm = rng.permutation(len(comps)).tolist()
            p_weights, p_mean, p_variance = mixture_moments([comps[i] for i in perm])
            assert (p_mean, p_variance) == (mean, variance)
            assert p_weights == [weights[i] for i in perm]

    def test_large_means_keep_the_variance(self):
        # means near 1e6 with a spread of 1e-3: E[q^2] - mean^2 cancels
        # about 1e-4 of absolute error into a variance of about 1e-6
        rng = np.random.default_rng(8)
        comps = list(zip(
            (1e6 + rng.uniform(0.0, 1e-3, 5)).tolist(),
            rng.uniform(1e-7, 1e-6, 5).tolist(),
            rng.uniform(-3.0, 0.0, 5).tolist(),
        ))
        weights, mean, variance = mixture_moments(comps)
        w = [Fraction(x) for x in weights]
        exact_mean = sum(wi * Fraction(m) for wi, (m, _, _) in zip(w, comps)) / sum(w)
        exact = sum(
            wi * (Fraction(v) + (Fraction(m) - exact_mean) ** 2) for wi, (m, v, _) in zip(w, comps)
        ) / sum(w)
        assert abs(Fraction(variance) - exact) <= Fraction(1e-9) * exact
        raw = math.fsum(wi * (v + m * m) for wi, (m, v, _) in zip(weights, comps)) - mean * mean
        assert abs(Fraction(raw) - exact) > Fraction(1e-9) * exact


class TestAdfqUpdate:
    def test_single_action_is_conjugate(self):
        means = np.array([[0.3], [1.1]])
        variances = np.array([[1.5], [0.4]])
        table = BeliefTable(means, variances, gamma=0.9)
        comp = one_branch(
            GaussianBelief(0.3, 1.5), GaussianBelief(1.1, 0.4), 0.0, 0.9, 0.0
        )
        res = adfq_update(table, Transition(0, 0, 0.0, 1))
        assert res.new_mean == pytest.approx(comp.mu_bar, rel=1e-13)
        assert res.new_variance == pytest.approx(comp.var_bar, rel=1e-13)

    def test_reference_instance_matches_quadrature(self):
        # three actions, moderate variances, targets resolved at the
        # belief scale: the regime where the approximation is tight
        table, tau = _fig_table()
        res = adfq_update(table, tau)
        _, q_mean, q_var = quadrature_log_moments(table, tau, GridSpec(n=8001))
        assert rel_err(res.new_mean, q_mean) < 0.02
        assert abs(res.new_variance - q_var) / q_var < 0.02

    def test_resolved_instances_match_quadrature(self):
        # the approximation degrades once targets overlap within the
        # discounted belief scale, so keep separations dominant here
        rng = np.random.default_rng(321)
        errs = []
        for _ in range(60):
            table, tau = random_instance(
                rng, n_actions=3, sigma_range=(0.1, 0.8), mean_range=(-8.0, 8.0)
            )
            res = adfq_update(table, tau)
            _, q_mean, q_var = quadrature_log_moments(table, tau, GridSpec(n=6001))
            errs.append(rel_err(res.new_mean, q_mean))
        errs = np.sort(errs)
        assert np.median(errs) < 0.02
        assert np.mean(np.array(errs) < 0.05) >= 0.85

    def test_small_variance_limit_matches_reference_rate(self):
        eps = 1e-8
        means = np.array([[0.0, 0.0], [1.0, 2.0]])
        variances = np.full((2, 2), eps)
        table = BeliefTable(means, variances, gamma=0.9, variance_floor=1e-300)
        res = adfq_update(table, Transition(0, 0, 0.0, 1))
        assert res.new_mean == pytest.approx(1.8 / 1.81, rel=1e-6)

    def test_pure_and_apply_writes(self):
        table, tau = _fig_table()
        means_before = table.means.copy()
        res = adfq_update(table, tau)
        np.testing.assert_array_equal(table.means, means_before)
        apply_update(table, tau, res)
        assert table.means[0, 0] == res.new_mean
        assert table.variances[0, 0] == res.new_variance

    def test_collapsed_heights_still_update(self):
        # every branch's raw height underflows exp(); the shifted
        # softmax must still produce finite, normalized weights
        means = np.array([[1000.0, 1000.0], [0.0, 0.1]])
        variances = np.array([[1e-4, 1e-4], [1e-4, 1e-4]])
        table = BeliefTable(means, variances, gamma=0.9)
        res = adfq_update(table, Transition(0, 0, 0.0, 1))
        assert all(br.log_k_star < -745.0 for br in all_branches(res))
        assert math.isfinite(res.new_mean)
        assert sum(br.weight for br in res.branches) == pytest.approx(1.0, abs=1e-12)

    def test_branches_built_on_first_access_only(self, monkeypatch):
        # .branches is no field of the record: each access builds the rows
        # from the fields, and building them solves nothing
        table, tau = _fig_table()
        res = adfq_update(table, tau)
        assert "branches" not in res._fields
        solved = []
        monkeypatch.setattr(engine, "_solve_branch", lambda *args: solved.append(args))
        monkeypatch.setattr(engine, "solve_peak_mean", lambda *args: solved.append(args))
        first = res.branches
        assert res.branches == first
        assert [br.b for br in first] == [0, 1, 2]
        assert solved == []

    def test_zero_weight_branches_are_solved_only_on_first_access(self, monkeypatch):
        # the update skips every branch of weight exactly 0.0; reading
        # .branches solves none of them, and support.all_branches solves
        # each skipped one once, on demand
        rng = np.random.default_rng(7)
        table, tau = random_instance(rng, 50, sigma_range=(0.01, 0.03))
        calls = []

        def counting(name):
            real = getattr(engine, name)

            def wrapper(*args):
                calls.append((name, args[0]))
                return real(*args)

            return wrapper

        for name in ("_solve_branch", "solve_peak_mean"):
            monkeypatch.setattr(engine, name, counting(name))
        res = adfq_update(table, tau)
        n_solved = len(res.peaks)
        assert 0 < n_solved < 50
        assert [b for name, b in calls if name == "_solve_branch"] == list(res.solve_order[:n_solved])
        calls.clear()
        branches = res.branches
        assert res.branches == branches
        assert len(branches) == 50
        assert calls == []
        # a solved branch's row holds the record's peak and weight; a
        # skipped one weighs exactly 0.0 and its peak was never computed
        found = dict(zip(res.solve_order, zip(res.peaks, res.weights)))
        for b, br in enumerate(branches):
            assert br.b == b
            if b in found:
                assert (br[6:9], br.weight) == found[b]
            else:
                assert br.weight == 0.0
                assert all(math.isnan(x) for x in br[6:9])
        rows = all_branches(res)
        skipped = list(res.solve_order[n_solved:])
        assert [b for name, b in calls if name == "_solve_branch"] == skipped
        assert sorted(list(res.solve_order[:n_solved]) + skipped) == list(range(50))
        # every peak sits at its own branch: re-solve each one directly
        ms = tau.r + table.gamma * table.means[tau.s_next]
        us = table.gamma**2 * table.variances[tau.s_next]
        for b, br in enumerate(rows):
            assert br.b == b
            others = [(float(m), float(u)) for i, (m, u) in enumerate(zip(ms, us)) if i != b]
            assert br.mu_star == _peak(br, others)

    def test_lazy_branches_match_the_quadrature_branches_bit_for_bit(self, monkeypatch):
        # the update builds (mu_bar, var_bar) only for the branches it solves
        # and .branches the rest; the quadrature builds every branch at once
        # narrow beliefs, the prior at the highest target: every branch whose
        # target lies a few spreads below it has weight exactly 0.0
        rng = np.random.default_rng(7)
        targets = rng.uniform(-50.0, 50.0, size=50)
        means = np.stack([np.full(50, 0.9 * targets.max()), targets])
        table = BeliefTable(means, rng.uniform(0.005, 0.02, size=(2, 50)), gamma=0.9, sigma_w=0.1)
        tau = Transition(0, 0, 0.0, 1)
        solved = []
        solve = engine._solve_branch

        def counting(b, *args):
            solved.append(b)
            return solve(b, *args)

        monkeypatch.setattr(engine, "_solve_branch", counting)
        res = adfq_update(table, tau)
        assert 0 < len(solved) < 10
        arrays = _branch_arrays(table, tau)
        for name in ("mu_bar", "var_bar", "log_c"):
            lazy = [getattr(br, name).hex() for br in res.branches]
            assert lazy == [x.hex() for x in getattr(arrays, name)], name

    def test_terminal_routes_to_single_branch(self):
        table, _ = _fig_table()
        tau = Transition(0, 0, 2.5, 1, terminal=True)
        res = adfq_update(table, tau)
        assert len(res.branches) == 1
        assert res.new_mean == pytest.approx(2.5, abs=1e-6)

    @pytest.mark.parametrize("n_actions", [1, 2, 4, 10, 50])
    def test_record_fields_by_name(self, n_actions):
        # the solved peaks alone give the record's weights, mean and raw
        # variance, bit for bit; every other branch weighs 0.0
        rng = np.random.default_rng(n_actions)
        for sigma_range in ((0.5, 3.0), (0.01, 0.03)):
            for _ in range(10):
                table, tau = random_instance(rng, n_actions, sigma_range=sigma_range)
                for tau in (tau, tau._replace(terminal=True)):
                    res = adfq_update(table, tau)
                    weights, mean, variance = mixture_moments(res.peaks)
                    assert [w.hex() for w in weights] == [w.hex() for w in res.weights]
                    assert (mean.hex(), variance.hex()) == (
                        res.new_mean.hex(), res.new_variance.hex()
                    )
                    solved = set(res.solve_order[: len(res.peaks)])
                    for b, br in enumerate(res.branches):
                        assert b in solved or br.weight == 0.0
                    if tau.terminal:
                        assert res.branches[0].b == -1 and res.solve_order == (0,)

    def test_variance_floor_applied(self):
        # the record keeps the raw variance, below the floor here, and
        # set_belief floors it on write
        means = np.array([[0.0, 0.0], [0.0, 0.0]])
        variances = np.full((2, 2), 1e-10)
        table = BeliefTable(means, variances, gamma=0.9)
        tau = Transition(0, 0, 0.0, 1)
        res = adfq_update(table, tau)
        assert res.new_variance < table.variance_floor
        apply_update(table, tau, res)
        assert table.variances[0, 0] == table.variance_floor

    def test_mu_star_at_least_mu_bar(self):
        rng = np.random.default_rng(5150)
        for _ in range(200):
            table, tau = random_instance(rng, n_actions=int(rng.integers(2, 6)))
            for br in adfq_update(table, tau).branches:
                assert br.mu_star >= br.mu_bar - 1e-10
                assert br.var_star <= br.var_bar + 1e-15


    def test_every_branch_peak_matches_grid_argmax(self):
        # the kernel walks one shared ranking and skips each branch's own
        # target by rank; check every branch against its own exponent
        rng = np.random.default_rng(4242)
        for _ in range(100):
            table, tau = random_instance(rng, n_actions=int(rng.integers(2, 7)))
            ms = tau.r + table.gamma * table.means[tau.s_next]
            us = table.gamma**2 * table.variances[tau.s_next]
            for br in adfq_update(table, tau).branches:
                others = [(float(m), float(u)) for i, (m, u) in enumerate(zip(ms, us)) if i != br.b]
                oracle = _ternary_argmax(_branch_exponent(br, others), -40.0, 40.0)
                assert br.mu_star == pytest.approx(oracle, abs=1e-6)


class TestVarianceScalingAgreement:
    def test_analytic_error_shrinks_with_variance(self):
        rng = np.random.default_rng(99)
        wins = 0
        n = 100
        for _ in range(n):
            table, tau = random_instance(rng, n_actions=int(rng.integers(2, 6)))
            errs = []
            for factor in (1.0, 0.01):
                t = scaled(table, factor)
                res = adfq_update(t, tau)
                _, q_mean, _ = quadrature_log_moments(t, tau, GridSpec(n=4001))
                errs.append(rel_err(res.new_mean, q_mean))
            if errs[1] < errs[0]:
                wins += 1
        assert wins >= 0.95 * n


class TestQlearningLimitTarget:
    def test_equal_variance_rate(self):
        means = np.array([[0.0, 0.0], [1.0, 2.0]])
        variances = np.full((2, 2), 0.3)
        table = BeliefTable(means, variances, gamma=0.9)
        mean, alpha = qlearning_limit_target(table, Transition(0, 0, 0.0, 1))
        assert alpha == pytest.approx(1.0 / 1.81, rel=1e-12)
        assert mean == pytest.approx(alpha * 1.8, rel=1e-12)

    def test_rate_limits(self):
        variances = np.array([[1e6, 1.0], [1e-6, 1e-6]])
        means = np.array([[0.0, 0.0], [1.0, 0.0]])
        table = BeliefTable(means, variances, gamma=0.9, variance_floor=1e-300)
        _, alpha_wide = qlearning_limit_target(table, Transition(0, 0, 0.0, 1))
        assert alpha_wide > 1.0 - 1e-6
        variances = np.array([[1e-6, 1.0], [1e6, 1e6]])
        table = BeliefTable(means, variances, gamma=0.9, variance_floor=1e-300)
        _, alpha_narrow = qlearning_limit_target(table, Transition(0, 0, 0.0, 1))
        assert alpha_narrow < 1e-6

    def test_terminal_targets_the_bare_reward(self):
        # the next state's beliefs are ignored; only the noise variance remains
        means = np.array([[1.0, 0.0], [5.0, 7.0]])
        table = BeliefTable(means, np.ones((2, 2)), gamma=0.9, sigma_w=0.5)
        mean, alpha = qlearning_limit_target(table, Transition(0, 0, 3.0, 1, terminal=True))
        assert alpha == 1.0 / 1.25
        assert mean == pytest.approx(0.2 * 1.0 + 0.8 * 3.0, rel=1e-15)

    def test_argmax_breaks_ties_low(self):
        means = np.array([[0.0, 0.0], [2.0, 2.0]])
        variances = np.array([[1.0, 1.0], [0.5, 4.0]])
        table = BeliefTable(means, variances, gamma=0.9)
        _, alpha = qlearning_limit_target(table, Transition(0, 0, 0.0, 1))
        # tie on means: action 0 (variance 0.5) must define the rate
        assert alpha == pytest.approx(1.0 / (1.0 + 0.81 * 0.5), rel=1e-12)

    def test_convergence_to_qlearning_across_scales(self):
        rng = np.random.default_rng(1028)
        for _ in range(30):
            table, tau = limit_regime_instance(rng, n_actions=3)
            gaps = []
            for factor in (1e-2, 1e-4, 1e-6):
                t = scaled(table, factor)
                res = adfq_update(t, tau)
                target_mean, _ = qlearning_limit_target(t, tau)
                gaps.append(abs(res.new_mean - target_mean))
            # monotone decrease down to the resolution of doubles
            slack = 1e-12 * (1.0 + abs(target_mean))
            assert gaps[2] <= gaps[1] + slack
            assert gaps[1] <= gaps[0] + slack
            target_mean, _ = qlearning_limit_target(scaled(table, 1e-6), tau)
            assert gaps[2] < 1e-3 * (1.0 + abs(target_mean))
