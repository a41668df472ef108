"""Gaussian Q-value beliefs and per-branch posterior components.

An agent keeps one independent Gaussian belief per state-action pair.
On each observed transition the next state's action beliefs induce TD
target distributions; :func:`td_components` combines the prior with one
such target into the quantities every downstream update needs:
the TD target mean ``m``, the effective target variance ``v`` (discount
squared times target variance, plus the observation noise variance),
the log branch weight ``log_c`` (the log density of the TD error), and
the precision-weighted mean/variance pair ``mu_bar`` / ``var_bar``.
The same arithmetic on plain floats, for every branch of one update at
once, is ``_branch_terms``, which the update kernel in
:mod:`adfq.engine` and the quadrature in :mod:`adfq.posterior` share.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# exp(x) is exactly 0.0 for x below about -745.13: a density term this far
# under the largest one adds nothing to a sum of exp(term - largest)
NEGLIGIBLE_LOG_DENSITY = 750.0
DEFAULT_VARIANCE_FLOOR = 1e-10
DEFAULT_INIT_VARIANCE = 100.0
DEFAULT_INIT_MEAN_RANGE = (0.0, 1.0)
# the Q-learning baseline's step size alpha0 * (n0 + 1) / (n0 + t)
DEFAULT_ALPHA0 = 0.5
DEFAULT_N0 = 0.0
TERMINAL_TARGET_VARIANCE = 1e-12


@dataclass(frozen=True)
class GaussianBelief:
    """Belief over a single Q(s, a): mean and variance in Q-value units."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        _check_variance(self.variance)


def _check_variance(variance: float) -> None:
    if not variance > 0.0:
        raise ValueError(f"belief variance must be positive, got {variance}")


@dataclass(frozen=True)
class Transition:
    """One environment step ``(s, a, r, s_next)`` plus a terminal flag.

    A non-finite reward is rejected here, at the boundary, rather than
    turning into a NaN posterior inside the update.
    """

    s: int
    a: int
    r: float
    s_next: int
    terminal: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError(f"transition reward must be finite, got {self.r}")


@dataclass(frozen=True)
class BranchComponents:
    """Prior/target combination for one next-state action branch.

    ``mu_bar`` is the inverse-variance weighted average of the prior
    mean and the TD target mean; ``var_bar`` is the harmonic combination
    of the two variances, so it is strictly smaller than either.
    ``log_c`` is the log Gaussian density of the TD error under the
    combined scale, the branch's unnormalized log weight; ``c`` is its
    exponential, which underflows to 0 once the TD error is large.
    """

    m: float
    v: float
    mu_bar: float
    var_bar: float
    log_c: float

    @property
    def c(self) -> float:
        return math.exp(self.log_c)


def td_components(
    prior: GaussianBelief,
    target: GaussianBelief,
    r: float,
    gamma: float,
    sigma_w: float,
) -> BranchComponents:
    """Combine a prior belief with one next-action TD target.

    Raises:
        ValueError: when the effective target variance degenerates to
            zero (``gamma == 0`` with ``sigma_w == 0``).
    """
    v = gamma * gamma * target.variance + sigma_w * sigma_w
    if not v > 0.0:
        raise ValueError("effective target variance is zero (gamma=0 and sigma_w=0)")
    m = r + gamma * target.mean
    return BranchComponents(m, v, *_conjugate(prior.mean, prior.variance, m, v))


def _conjugate(
    prior_mean: float, prior_var: float, m: float, v: float
) -> tuple[float, float, float]:
    """``(mu_bar, var_bar, log_c)`` of a prior combined with a target (m, v)."""
    s2 = prior_var + v
    delta = m - prior_mean
    log_c = -0.5 * delta * delta / s2 - 0.5 * math.log(s2) - LOG_SQRT_2PI
    var_bar = 1.0 / (1.0 / prior_var + 1.0 / v)
    mu_bar = var_bar * (prior_mean / prior_var + m / v)
    return mu_bar, var_bar, log_c


def terminal_components(
    prior: GaussianBelief, r: float, sigma_w: float
) -> BranchComponents:
    """Single-branch combination for a transition into a terminal state.

    The target is the bare reward with zero value beyond it, so the
    effective target variance is the observation noise alone; for
    noiseless configurations it is clamped to a tiny positive constant
    to keep the conjugate formulas defined.
    """
    v = _terminal_variance(sigma_w)
    return BranchComponents(r, v, *_conjugate(prior.mean, prior.variance, r, v))


def _terminal_variance(sigma_w: float) -> float:
    return sigma_w * sigma_w if sigma_w > 0.0 else TERMINAL_TARGET_VARIANCE


def _branch_terms(table: BeliefTable, tau: Transition) -> tuple[list, list, list, list]:
    """One update's branches on plain floats, as :func:`td_components` builds them.

    ``(ms, penalties, vs, combos)``: TD target means, ``(m, discounted
    target variance)`` pairs of the CDF factors (none if terminal),
    effective target variances and ``(mu_bar, var_bar, log_c)`` triples.
    """
    table.check_transition(tau)
    prior_mean = float(table.means[tau.s, tau.a])
    prior_var = float(table.variances[tau.s, tau.a])
    _check_variance(prior_var)
    r = tau.r
    if tau.terminal:
        v = _terminal_variance(table.sigma_w)
        return [r], [], [v], [_conjugate(prior_mean, prior_var, r, v)]
    gamma = table.gamma
    if table.n_actions > 1 and gamma == 0.0:
        raise ValueError("multi-action update requires gamma > 0")
    gamma2 = gamma * gamma
    sigma2 = table.sigma_w * table.sigma_w
    ms, penalties, vs, combos = [], [], [], []
    for mean, var in zip(table.means[tau.s_next].tolist(), table.variances[tau.s_next].tolist()):
        _check_variance(var)
        m = r + gamma * mean
        pen_v = gamma2 * var
        v = pen_v + sigma2
        if not v > 0.0:
            raise ValueError("effective target variance is zero (gamma=0 and sigma_w=0)")
        ms.append(m)
        penalties.append((m, pen_v))
        vs.append(v)
        combos.append(_conjugate(prior_mean, prior_var, m, v))
    return ms, penalties, vs, combos


class BeliefTable:
    """All Q-beliefs of one agent plus the shared update constants.

    Means and variances are stored as dense ``(n_states, n_actions)``
    arrays. Writes go through :meth:`set_belief`, which applies the
    variance floor; intermediate branch math never floors. The table is
    single-writer: reads may run concurrently between updates, but each
    write lands atomically on one (state, action) entry.
    """

    def __init__(
        self,
        means: np.ndarray,
        variances: np.ndarray,
        gamma: float,
        sigma_w: float = 0.0,
        variance_floor: float = DEFAULT_VARIANCE_FLOOR,
    ) -> None:
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
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
        self.means = means
        self.variances = variances
        self.gamma = float(gamma)
        self.sigma_w = float(sigma_w)
        self.variance_floor = float(variance_floor)

    @classmethod
    def random_init(
        cls,
        n_states: int,
        n_actions: int,
        gamma: float,
        rng: np.random.Generator,
        mean_range: tuple[float, float] = DEFAULT_INIT_MEAN_RANGE,
        init_variance: float = DEFAULT_INIT_VARIANCE,
        sigma_w: float = 0.0,
        variance_floor: float = DEFAULT_VARIANCE_FLOOR,
    ) -> "BeliefTable":
        """Fresh table: means uniform over ``mean_range``, fixed variance."""
        lo, hi = mean_range
        means = rng.uniform(lo, hi, size=(n_states, n_actions))
        variances = np.full((n_states, n_actions), float(init_variance))
        return cls(means, variances, gamma, sigma_w, variance_floor)

    @property
    def n_states(self) -> int:
        return self.means.shape[0]

    @property
    def n_actions(self) -> int:
        return self.means.shape[1]

    def belief(self, s: int, a: int) -> GaussianBelief:
        return GaussianBelief(float(self.means[s, a]), float(self.variances[s, a]))

    def set_belief(self, s: int, a: int, mean: float, variance: float) -> None:
        """Write one entry, clamping the variance to the floor; both must be finite."""
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise ValueError(f"refusing to store non-finite belief at ({s}, {a}): {mean}, {variance}")
        self.means[s, a] = mean
        self.variances[s, a] = max(variance, self.variance_floor)

    def copy(self) -> "BeliefTable":
        return BeliefTable(
            self.means.copy(),
            self.variances.copy(),
            self.gamma,
            self.sigma_w,
            self.variance_floor,
        )

    def check_transition(self, tau: Transition) -> None:
        if not (0 <= tau.s < self.n_states and 0 <= tau.s_next < self.n_states):
            raise ValueError(f"state ids out of range: {tau}")
        if not 0 <= tau.a < self.n_actions:
            raise ValueError(f"action id out of range: {tau}")

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Serialize as ``state,action,mean,variance`` rows."""
        if isinstance(path, io.TextIOBase):
            self._write_csv(path)
        else:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "action", "mean", "variance"])
        for s in range(self.n_states):
            for a in range(self.n_actions):
                writer.writerow(
                    [s, a, repr(float(self.means[s, a])), repr(float(self.variances[s, a]))]
                )

    @classmethod
    def from_csv(
        cls,
        path: str | Path | io.TextIOBase,
        gamma: float,
        sigma_w: float = 0.0,
        variance_floor: float = DEFAULT_VARIANCE_FLOOR,
    ) -> "BeliefTable":
        """Read a table written by :meth:`to_csv`.

        Raises:
            ValueError: naming the line, for a row without exactly four
                fields, a field that does not parse, a negative state or
                action, a repeated (state, action) pair, or a non-finite
                mean or variance; also for a missing header, a file with
                no rows after it, and a table with a pair missing.
        """
        if isinstance(path, io.TextIOBase):
            rows = list(csv.reader(path))
        else:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        if not rows or rows[0] != ["state", "action", "mean", "variance"]:
            raise ValueError("belief CSV must start with state,action,mean,variance")
        if len(rows) == 1:
            raise ValueError("belief CSV has no rows after its header on line 1")
        entries: dict[tuple[int, int], tuple[int, float, float]] = {}
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != 4:
                raise ValueError(f"belief CSV line {line} has {len(row)} fields, expected 4")
            try:
                s, a, m, v = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"belief CSV line {line}: {exc}") from None
            if s < 0 or a < 0:
                raise ValueError(
                    f"belief CSV line {line} has a negative state or action: {s}, {a}"
                )
            if (s, a) in entries:
                raise ValueError(
                    f"belief CSV line {line} repeats state {s}, action {a} "
                    f"from line {entries[s, a][0]}"
                )
            if not (math.isfinite(m) and math.isfinite(v)):
                raise ValueError(
                    f"belief CSV line {line} (state {s}, action {a}) has a non-finite "
                    f"mean or variance: {m!r}, {v!r}"
                )
            entries[s, a] = (line, m, v)
        n_states = max(s for s, _ in entries) + 1
        n_actions = max(a for _, a in entries) + 1
        means = np.full((n_states, n_actions), np.nan)
        variances = np.full((n_states, n_actions), np.nan)
        for (s, a), (_, m, v) in entries.items():
            means[s, a] = m
            variances[s, a] = v
        if np.any(np.isnan(means)):
            raise ValueError("belief CSV does not cover every state-action pair")
        return cls(means, variances, gamma, sigma_w, variance_floor)


__all__ = [
    "DEFAULT_VARIANCE_FLOOR",
    "DEFAULT_INIT_VARIANCE",
    "DEFAULT_INIT_MEAN_RANGE",
    "DEFAULT_ALPHA0",
    "DEFAULT_N0",
    "TERMINAL_TARGET_VARIANCE",
    "GaussianBelief",
    "Transition",
    "BranchComponents",
    "td_components",
    "terminal_components",
    "BeliefTable",
]
