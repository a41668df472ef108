"""Gaussian Q-value beliefs and per-branch posterior components.

An agent keeps one independent Gaussian belief per state-action pair.
On each observed transition the next state's action beliefs induce TD
target distributions. For every next action, :func:`td_components`
builds, on plain floats, what ranking and skipping the branches read:
the TD target mean ``m``, the penalty pair ``(m, discounted target
variance)``, the effective target variance ``v`` (discount squared
times target variance, plus the observation noise variance) and the log
branch weight ``log_c`` (the log density of the TD error), plus the
prior. :func:`conjugate_pair` builds a branch's precision-weighted
mean/variance pair ``mu_bar`` / ``var_bar`` from the prior, ``m`` and
``v``; the update kernel in :mod:`adfq.engine` calls it only for the
branches it solves, the quadrature in :mod:`adfq.posterior` for every
branch. With :func:`terminal_components` for terminal transitions, they
are the one set of per-branch builders that both share.

:class:`BeliefTable` holds the beliefs and enforces their invariant:
every mean and variance is finite and every variance is at least the
floor. Its ``means`` and ``variances`` are read-only views and
:meth:`BeliefTable.set_belief`, their one writer, is the only place the
floor applies; the builders read entries without re-checking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# exp(x) is exactly 0.0 for x below about -745.13: a density term this far
# under the largest one adds nothing to a sum of exp(term - largest)
NEGLIGIBLE_LOG_DENSITY = 750.0
DEFAULT_VARIANCE_FLOOR = 1e-10
# TD-target observation noise; 0 is the noiseless posterior
DEFAULT_SIGMA_W = 0.0
TERMINAL_TARGET_VARIANCE = 1e-12


@dataclass(frozen=True)
class GaussianBelief:
    """Belief over a single Q(s, a): mean and variance in Q-value units."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"belief variance must be positive, got {self.variance}")


class _TransitionFields(NamedTuple):
    s: int
    a: int
    r: float
    s_next: int
    terminal: bool = False


class Transition(_TransitionFields):
    """One environment step ``(s, a, r, s_next)`` plus a terminal flag.

    A named tuple: immutable, and compared, hashed and unpacked as the
    tuple of its fields. A non-finite reward is rejected here, at the
    boundary, rather than turning into a NaN posterior inside the
    update; every construction path (positional, keyword, ``_make``,
    ``_replace`` and unpickling) goes through this check.
    """

    __slots__ = ()

    def __new__(cls, s: int, a: int, r: float, s_next: int, terminal: bool = False):
        if not math.isfinite(r):
            raise ValueError(f"transition reward must be finite, got {r}")
        return tuple.__new__(cls, (s, a, r, s_next, terminal))

    @classmethod
    def _make(cls, iterable) -> "Transition":
        # the generated _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def __reduce__(self):
        # every pickle protocol rebuilds through __new__
        return type(self), tuple(self)


def conjugate_pair(prior: tuple[float, float], m: float, v: float) -> tuple[float, float]:
    """``(mu_bar, var_bar)`` of a ``prior`` ``(mean, variance)`` and a target (m, v).

    The inverse-variance weighted mean and the harmonic combination of
    the two variances, smaller than either.
    """
    prior_mean, prior_var = prior
    var_bar = 1.0 / (1.0 / prior_var + 1.0 / v)
    mu_bar = var_bar * (prior_mean / prior_var + m / v)
    return mu_bar, var_bar


def _log_cs(prior: tuple[float, float], ms: list, vs: list) -> list:
    """Each target's log weight: the log Gaussian density of the TD error
    ``m - prior mean`` under the combined scale ``prior variance + v``."""
    prior_mean, prior_var = prior
    log_cs = []
    for m, v in zip(ms, vs):
        s2 = prior_var + v
        delta = m - prior_mean
        log_cs.append(-0.5 * delta * delta / s2 - 0.5 * math.log(s2) - LOG_SQRT_2PI)
    return log_cs


def _prior(table: BeliefTable, tau: Transition) -> tuple[float, float]:
    """Mean and variance of the belief ``tau`` updates, once ``tau`` is checked."""
    table.check_transition(tau)
    return float(table.means[tau.s, tau.a]), float(table.variances[tau.s, tau.a])


def td_components(table: BeliefTable, tau: Transition) -> tuple[tuple, list, list, list, list]:
    """Every next-action branch of a non-terminal update, on plain floats.

    ``(prior, ms, penalties, vs, log_cs)``: the prior's ``(mean,
    variance)``, then one entry per action: the TD target means, the
    ``(m, discounted target variance)`` pairs of the CDF factors, the
    effective target variances and the log branch weights. These are
    what ranking and skipping the branches read; a branch's
    :func:`conjugate_pair` is built from ``prior``, ``m`` and ``v`` only
    where it is needed.

    Raises:
        ValueError: for ``gamma == 0`` with more than one action, or an
            effective target variance of zero (``gamma == sigma_w == 0``).
    """
    prior = _prior(table, tau)
    r = tau.r
    gamma = table.gamma
    if table.n_actions > 1 and gamma == 0.0:
        raise ValueError("multi-action update requires gamma > 0")
    gamma2 = gamma * gamma
    sigma2 = table.sigma_w * table.sigma_w
    ms, penalties, vs = [], [], []
    for mean, var in zip(table.means[tau.s_next].tolist(), table.variances[tau.s_next].tolist()):
        m = r + gamma * mean
        pen_v = gamma2 * var
        v = pen_v + sigma2
        if not v > 0.0:
            raise ValueError("effective target variance is zero (gamma=0 and sigma_w=0)")
        ms.append(m)
        penalties.append((m, pen_v))
        vs.append(v)
    return prior, ms, penalties, vs, _log_cs(prior, ms, vs)


def terminal_components(table: BeliefTable, tau: Transition) -> tuple[tuple, list, list, list]:
    """The single branch of a transition into a terminal state.

    ``(prior, [r], [v], [log_c])``, laid out as :func:`td_components`
    does, less the penalties. The target is the bare reward, so its
    variance is the observation noise alone, clamped for noiseless
    configurations to a tiny positive constant that keeps the conjugate
    formulas defined.
    """
    prior = _prior(table, tau)
    sigma_w = table.sigma_w
    ms, vs = [tau.r], [sigma_w * sigma_w if sigma_w > 0.0 else TERMINAL_TARGET_VARIANCE]
    return prior, ms, vs, _log_cs(prior, ms, vs)


class BeliefTable:
    """All Q-beliefs of one agent plus the shared update constants.

    Means and variances are dense ``(n_states, n_actions)`` arrays,
    copied from the constructor's inputs and exposed as read-only views:
    assigning into ``means`` or ``variances`` raises ``ValueError``, and
    rebinding or deleting any attribute raises ``AttributeError``.
    :meth:`set_belief` is the one writer; it refuses non-finite values
    and applies the variance floor, which the updates never do, so every
    entry stays finite and at least the floor. The table is
    single-writer: reads may run concurrently between updates, but each
    write lands atomically on one (state, action) entry.
    """

    def __init__(
        self,
        means: np.ndarray,
        variances: np.ndarray,
        gamma: float,
        sigma_w: float = DEFAULT_SIGMA_W,
        variance_floor: float = DEFAULT_VARIANCE_FLOOR,
    ) -> None:
        # copies: a caller's array is never aliased or made read-only
        means = np.array(means, dtype=float)
        variances = np.array(variances, dtype=float)
        if means.ndim != 2 or means.shape != variances.shape:
            raise ValueError("means and variances must be matching 2-D arrays")
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        if not 0.0 <= sigma_w < math.inf:
            raise ValueError(f"sigma_w must be finite and nonnegative, got {sigma_w}")
        if not variance_floor > 0.0:
            raise ValueError(f"variance_floor must be positive, got {variance_floor}")
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise ValueError("belief means and variances must be finite")
        if np.any(variances < variance_floor):
            raise ValueError("all variances must be at least the variance floor")
        self._means = means
        self._variances = variances
        self.means = means.view()
        self.variances = variances.view()
        self.means.flags.writeable = False
        self.variances.flags.writeable = False
        self.n_states, self.n_actions = means.shape
        self.gamma = float(gamma)
        self.sigma_w = float(sigma_w)
        self.variance_floor = float(variance_floor)

    def __setattr__(self, name: str, value) -> None:
        # a rebound view would detach from the array set_belief writes; hasattr,
        # unlike self.__dict__, keeps CPython's fast inline attribute reads
        if hasattr(self, name):
            raise AttributeError(f"cannot rebind BeliefTable.{name}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete BeliefTable.{name}")

    def belief(self, s: int, a: int) -> GaussianBelief:
        # numpy would wrap a negative index onto another entry
        if not (0 <= s < self.n_states and 0 <= a < self.n_actions):
            raise ValueError(f"belief index ({s}, {a}) out of range")
        return GaussianBelief(float(self.means[s, a]), float(self.variances[s, a]))

    def set_belief(self, s: int, a: int, mean: float, variance: float) -> None:
        """Write one entry, clamping the variance to the floor; both must be finite."""
        if not (0 <= s < self.n_states and 0 <= a < self.n_actions):
            raise ValueError(f"belief index ({s}, {a}) out of range")
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise ValueError(f"refusing to store non-finite belief at ({s}, {a}): {mean}, {variance}")
        self._means[s, a] = mean
        self._variances[s, a] = max(variance, self.variance_floor)

    def copy(self) -> "BeliefTable":
        """An independent table with the same beliefs and constants."""
        cls, args = self.__reduce__()
        return cls(*args)

    def __reduce__(self):
        # pickle and copy.deepcopy would store the views apart from the
        # arrays set_belief writes; rebuild through __init__, which copies
        args = (self.means, self.variances, self.gamma, self.sigma_w, self.variance_floor)
        return BeliefTable, args

    def check_transition(self, tau: Transition) -> None:
        if not (0 <= tau.s < self.n_states and 0 <= tau.s_next < self.n_states):
            raise ValueError(f"state ids out of range: {tau}")
        if not 0 <= tau.a < self.n_actions:
            raise ValueError(f"action id out of range: {tau}")


__all__ = [
    "DEFAULT_VARIANCE_FLOOR",
    "DEFAULT_SIGMA_W",
    "TERMINAL_TARGET_VARIANCE",
    "GaussianBelief",
    "Transition",
    "conjugate_pair",
    "td_components",
    "terminal_components",
    "BeliefTable",
]
