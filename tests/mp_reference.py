"""Extended-precision reference for the analytic update (a test oracle).

The analytic update of ``adfq.engine.adfq_update`` written again in
mpmath at ``DIGITS`` significant digits: the conjugate combine of the
prior with each TD target, the bracket scan for each branch's peak, the
curvature-matched variance, the log peak height, the mixture weights
and the mixture moments. Every double input converts to an mpf
exactly, so the reference's own error is mpmath's rounding, about
``10**-DIGITS`` relative, far below a double's. It checks how the
kernel rounds; nothing in the package uses it.

:func:`reference_update` starts from a belief table and a transition.
:func:`reference_moments` starts from per-branch peaks, variances and
log heights, so it can check the kernel's last step on the kernel's own
branch values. :func:`reference_truncated_lambda` and
:func:`reference_truncated_variance` check the truncated normal that
each branch of the two-action closed form reads, and
:func:`reference_two_action_moments` checks the closed form itself from
the branch values it starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf

from adfq.beliefs import TERMINAL_TARGET_VARIANCE, BeliefTable, Transition

DIGITS = 60


@dataclass(frozen=True)
class ReferenceBranch:
    """One next-action branch, every value an mpf.

    ``u`` is the target's variance under the other branches' penalty,
    the discounted belief variance without the observation noise; ``v``
    adds that noise. A terminal branch has no penalty and ``u`` is None.
    """

    m: mpf
    u: mpf | None
    v: mpf
    mu_bar: mpf
    var_bar: mpf
    mu_star: mpf
    var_star: mpf
    log_k: mpf
    active: tuple[int, ...]


@dataclass(frozen=True)
class ReferenceUpdate:
    branches: tuple[ReferenceBranch, ...]
    mean: mpf
    variance: mpf


def _conjugate(prior_mean, prior_var, m, v):
    s2 = prior_var + v
    delta = m - prior_mean
    log_c = -delta * delta / (2 * s2) - mpmath.log(s2) / 2 - mpmath.log(2 * mpmath.pi) / 2
    var_bar = 1 / (1 / prior_var + 1 / v)
    mu_bar = var_bar * (prior_mean / prior_var + m / v)
    return mu_bar, var_bar, log_c


def _peak(mu_bar, var_bar, others):
    """Peak mean and active set of one branch; ``others`` maps index -> (m, u).

    Admits the other targets in descending order of mean; the first
    precision-weighted average that lies below the last admitted mean
    and at or above the next one is the peak. Exactly one such prefix
    exists, so the scan needs no fallback.
    """
    ranked = sorted(others.items(), key=lambda item: item[1][0], reverse=True)
    num = mu_bar / var_bar
    den = 1 / var_bar
    upper = mpmath.inf
    for k in range(len(ranked) + 1):
        candidate = num / den
        lower = ranked[k][1][0] if k < len(ranked) else -mpmath.inf
        if upper > candidate >= lower:
            return candidate, tuple(sorted(i for i, _ in ranked[:k]))
        m, u = ranked[k][1]
        num += m / u
        den += 1 / u
        upper = m
    raise AssertionError("no consistent prefix")


def reference_moments(mu_stars, var_stars, log_ks):
    """Mixture mean and variance of the matched Gaussians."""
    with mpmath.workdps(DIGITS):
        mu_stars = [mpf(x) for x in mu_stars]
        var_stars = [mpf(x) for x in var_stars]
        log_ks = [mpf(x) for x in log_ks]
        top = max(log_ks)
        masses = [mpmath.exp(lk - top) for lk in log_ks]
        total = mpmath.fsum(masses)
        weights = [mass / total for mass in masses]
        mean = mpmath.fsum(w * m for w, m in zip(weights, mu_stars))
        variance = mpmath.fsum(
            w * (v + (m - mean) ** 2) for w, v, m in zip(weights, var_stars, mu_stars)
        )
        return mean, variance


def reference_update(table: BeliefTable, tau: Transition) -> ReferenceUpdate:
    """The analytic update of ``Q(tau.s, tau.a)`` before the variance floor."""
    with mpmath.workdps(DIGITS):
        prior_mean = mpf(float(table.means[tau.s, tau.a]))
        prior_var = mpf(float(table.variances[tau.s, tau.a]))
        r = mpf(tau.r)
        sigma2 = mpf(table.sigma_w) ** 2
        if tau.terminal:
            targets = [(r, None, sigma2 if table.sigma_w > 0.0 else mpf(TERMINAL_TARGET_VARIANCE))]
        else:
            gamma = mpf(table.gamma)
            targets = []
            for mean, var in zip(table.means[tau.s_next], table.variances[tau.s_next]):
                u = gamma**2 * mpf(float(var))
                targets.append((r + gamma * mpf(float(mean)), u, u + sigma2))
        branches = []
        for b, (m, u, v) in enumerate(targets):
            mu_bar, var_bar, log_c = _conjugate(prior_mean, prior_var, m, v)
            others = {i: (t[0], t[1]) for i, t in enumerate(targets) if i != b}
            mu_star, active = _peak(mu_bar, var_bar, others)
            var_star = 1 / (1 / var_bar + mpmath.fsum(1 / others[i][1] for i in active))
            d = mu_star - mu_bar
            log_k = (
                log_c
                + mpmath.log(var_star / var_bar) / 2
                - d * d / (2 * var_bar)
                - mpmath.fsum((others[i][0] - mu_star) ** 2 / (2 * others[i][1]) for i in active)
            )
            branches.append(
                ReferenceBranch(m, u, v, mu_bar, var_bar, mu_star, var_star, log_k, active)
            )
        mean, variance = reference_moments(
            [br.mu_star for br in branches],
            [br.var_star for br in branches],
            [br.log_k for br in branches],
        )
        return ReferenceUpdate(tuple(branches), mean, variance)


def reference_truncated_variance(z: float) -> mpf:
    """Variance of a standard normal conditioned to lie below ``z``.

    ``1 - lam * (z + lam)``, with ``lam`` the density-to-CDF ratio,
    cancels about ``4 * log10(-z)`` digits far below zero, so the working
    precision grows by that much to keep ``DIGITS`` in the result.
    """
    extra = 4 * math.ceil(math.log10(-z)) if z < -1.0 else 0
    with mpmath.workdps(DIGITS + extra):
        z = mpf(z)
        lam = mpmath.npdf(z) / mpmath.ncdf(z)
        return 1 - lam * (z + lam)


def reference_truncated_lambda(z: float) -> mpf:
    """Density-to-CDF ratio of a standard normal at ``z``; no cancellation."""
    with mpmath.workdps(DIGITS):
        z = mpf(z)
        return mpmath.npdf(z) / mpmath.ncdf(z)


def reference_two_action_moments(mu_bar, var_bar, m, scales, log_c):
    """Mean and variance of the two-action closed form, from its branch values.

    The per-branch lists ``adfq.posterior._branch_arrays`` builds: branch
    b's Gaussian part ``N(mu_bar[b], var_bar[b])`` times the CDF of the
    other target, ``Phi((q - m[o]) / scales[o])``. Its weight is
    ``exp(log_c[b]) * Phi(z)`` at the standardized gap ``z``, and its
    mean and variance follow from a standard normal truncated at ``z``.
    The variance ``var_bar - (var_bar / s)**2 * lam * (z + lam)`` is
    regrouped as the closed form does, onto
    :func:`reference_truncated_variance`, which keeps ``DIGITS`` where
    ``1 - lam * (z + lam)`` cancels.
    """
    with mpmath.workdps(DIGITS):
        means, variances, log_ws = [], [], []
        for b, o in ((0, 1), (1, 0)):
            mb, vb, scale2 = mpf(mu_bar[b]), mpf(var_bar[b]), mpf(scales[o]) ** 2
            s2 = vb + scale2
            s = mpmath.sqrt(s2)
            z = (mb - mpf(m[o])) / s
            means.append(mb + vb * reference_truncated_lambda(z) / s)
            truncated = reference_truncated_variance(z)
            variances.append(vb * scale2 / s2 + (vb / s) ** 2 * truncated)
            log_ws.append(mpf(log_c[b]) + mpmath.log(mpmath.ncdf(z)))
        return reference_moments(means, variances, log_ws)
