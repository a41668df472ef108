"""Ground-truth references for the belief update.

``posterior_unnorm_pdf`` evaluates the unnormalized true posterior over
Q(s, a) after one transition: a sum over next actions of the branch
weight times a Gaussian in the combined prior/target parameters, times
the product of Gaussian CDF factors of the remaining targets. With
observation noise the Gaussian part carries the noise variance while
the CDF factors keep the bare discounted target scale.

``quadrature_moments`` integrates that density with the trapezoid rule
on an auto-sized grid (deterministic, unlike adaptive quadrature) and
is the numeric reference the analytic update is validated against.
The integrand is ``exp(log_f - peak)``, which is exactly ``0.0`` on
every cell more than about 745 below the peak; most of a narrow
posterior's grid is such cells. So the log density is evaluated only on
the contiguous window of cells outside which it cannot reach within 750
of the peak, and the integrand is left at ``0.0`` elsewhere. Each CDF
factor is at most 1, so every branch's Gaussian part plus ``log(A)``
bounds the log density from above and gives that branch a closed-form
interval; the exact density at a few grid cells bounds the peak from
below. The trapezoid sums still run over the whole grid, so the moments
are bit for bit those of evaluating every cell.
``exact_two_action_moments`` is the closed form for two next actions,
obtained from the moment generating function of the two-branch density;
it is exact for the noiseless posterior and agrees with quadrature to
solver precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .beliefs import (
    BeliefTable,
    BranchComponents,
    Transition,
    td_components,
    terminal_components,
)
from .gaussians import LOG_SQRT_2PI

UNDERFLOW_LIMIT = 1e-300
# exp(x) is exactly 0.0 for x below about -745.13; cells whose log density
# is bounded this far under the peak add nothing to the trapezoid sums
NEGLIGIBLE_LOG_DENSITY = 750.0


class NormalizerUnderflowError(ArithmeticError):
    """Posterior normalizer below the smallest representable double.

    Callers that only need moments should use
    :func:`quadrature_log_moments`, which keeps the normalizer in log
    space, or shrink variances less aggressively.
    """


@dataclass(frozen=True)
class GridSpec:
    """Trapezoid grid; ``lo``/``hi`` of None auto-size to the support.

    Raises:
        ValueError: for a non-finite bound, ``lo >= hi``, or an ``n``
            that is not an integer.
    """

    lo: float | None = None
    hi: float | None = None
    n: int = 2001

    def __post_init__(self) -> None:
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if bound is not None and not math.isfinite(bound):
                raise ValueError(f"grid {name} must be finite, got {bound}")
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise ValueError(f"grid needs lo < hi, got lo={self.lo}, hi={self.hi}")
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid n must be an integer, got {self.n!r}")


@dataclass(frozen=True)
class QuadratureMoments:
    z: float
    mean: float
    variance: float


def _branch_components(table: BeliefTable, tau: Transition) -> list[BranchComponents]:
    table.check_transition(tau)
    prior = table.belief(tau.s, tau.a)
    if tau.terminal:
        return [terminal_components(prior, tau.r, table.sigma_w)]
    return [
        td_components(prior, table.belief(tau.s_next, b), tau.r, table.gamma, table.sigma_w)
        for b in range(table.n_actions)
    ]


def _cdf_scales(table: BeliefTable, tau: Transition) -> np.ndarray:
    """Per-branch CDF denominators: discounted target standard deviations."""
    scales = table.gamma * np.sqrt(table.variances[tau.s_next])
    if np.any(scales <= 0.0):
        raise ValueError("CDF denominator is zero; requires gamma > 0")
    return scales


def _log_posterior_grid(
    q: np.ndarray, table: BeliefTable, tau: Transition, comps: list[BranchComponents]
) -> np.ndarray:
    """Log unnormalized posterior density on an array of q values.

    ``comps`` are the transition's ``_branch_components``. Every step is
    elementwise in q or a reduction over the branch axis, so a cell's
    value does not depend on which other cells ``q`` holds, as long as
    ``q`` has at least two: for a single cell numpy sums the branch
    axis in another order.
    """
    mu_bar = np.array([c.mu_bar for c in comps])
    sd_bar = np.sqrt(np.array([c.var_bar for c in comps]))
    log_c = np.array([c.log_c for c in comps])

    z = (q[None, :] - mu_bar[:, None]) / sd_bar[:, None]
    log_terms = (
        log_c[:, None] - 0.5 * z * z - LOG_SQRT_2PI - np.log(sd_bar)[:, None]
    )
    if not tau.terminal and table.n_actions > 1:
        scales = _cdf_scales(table, tau)
        m = tau.r + table.gamma * table.means[tau.s_next]
        log_cdf = log_ndtr((q[None, :] - m[:, None]) / scales[:, None])
        log_terms += log_cdf.sum(axis=0, keepdims=True) - log_cdf

    m_max = log_terms.max(axis=0)
    with np.errstate(invalid="ignore"):
        out = m_max + np.log(np.exp(log_terms - m_max).sum(axis=0))
    return np.where(np.isfinite(m_max), out, -np.inf)


def posterior_unnorm_pdf(q: float, table: BeliefTable, tau: Transition) -> float:
    """Unnormalized true posterior density at a single point."""
    q_arr = np.asarray([q], dtype=float)
    return float(np.exp(_log_posterior_grid(q_arr, table, tau, _branch_components(table, tau))[0]))


def posterior_unnorm_pdf_grid(
    q: np.ndarray, table: BeliefTable, tau: Transition
) -> np.ndarray:
    """Vectorized ``posterior_unnorm_pdf`` for plotting and diagnostics."""
    q_arr = np.asarray(q, dtype=float)
    return np.exp(_log_posterior_grid(q_arr, table, tau, _branch_components(table, tau)))


def _auto_bounds(
    table: BeliefTable, tau: Transition, comps: list[BranchComponents]
) -> tuple[float, float]:
    # The CDF factors can relocate a branch's mass far beyond its own
    # component mean, but never beyond the highest TD target (every
    # stationary point is a precision-weighted average of component and
    # target means), so the support must span both mean sets.
    prior = table.belief(tau.s, tau.a)
    spread = max(math.sqrt(prior.variance + c.v) for c in comps)
    anchors = [c.mu_bar for c in comps] + [c.m for c in comps]
    return min(anchors) - 10.0 * spread, max(anchors) + 10.0 * spread


def _mass_window(
    q: np.ndarray, table: BeliefTable, tau: Transition, comps: list[BranchComponents]
) -> tuple[int, int]:
    """Cells ``[i0, i1)`` of ``q`` outside which ``exp(log_f - peak)`` is 0.0.

    The log density at the grid cells next to each branch's ``mu_bar``
    is a lower bound on the peak. Branch b's Gaussian part plus
    ``log(A)`` bounds the log density from above, so it reaches
    ``probe - NEGLIGIBLE_LOG_DENSITY`` only within a closed-form radius
    of ``mu_bar``; the window spans those intervals. The slack and the
    edges are widened by a relative 1e-9 and 1e-12, far above the
    rounding of the density itself, so no cell with mass is cut even
    when the log density is of order 1e20. Without a finite probe or a
    surviving interval the window is the whole grid.
    """
    n = len(q)
    probe_cells = np.minimum(np.searchsorted(q, [c.mu_bar for c in comps]), n - 1)
    probe = float(_log_posterior_grid(q[probe_cells], table, tau, comps).max())
    if probe == -math.inf:
        return 0, n
    floor = probe - NEGLIGIBLE_LOG_DENSITY - math.log(len(comps))
    lo, hi = math.inf, -math.inf
    for c in comps:
        height = c.log_c - 0.5 * math.log(c.var_bar) - LOG_SQRT_2PI
        slack = height - floor + 1e-9 * (abs(height) + abs(floor))
        if slack >= 0.0:
            radius = math.sqrt(2.0 * slack * c.var_bar) + 1e-12 * abs(c.mu_bar)
            lo = min(lo, c.mu_bar - radius)
            hi = max(hi, c.mu_bar + radius)
    if lo > hi:
        return 0, n
    i0 = min(int(np.searchsorted(q, lo, side="left")), n - 2)
    i1 = int(np.searchsorted(q, hi, side="right"))
    return i0, max(i1, i0 + 2)


def _trapezoid(y: np.ndarray, dq: np.ndarray) -> float:
    """``np.trapezoid(y, q)`` given ``dq = np.diff(q)``, with numpy's arithmetic."""
    return float((dq * (y[1:] + y[:-1]) / 2.0).sum())


def quadrature_log_moments(
    table: BeliefTable, tau: Transition, grid: GridSpec | None = None
) -> tuple[float, float, float]:
    """Trapezoid moments with the normalizer kept in log space.

    Returns ``(log_z, mean, variance)``. The integrand is rescaled by
    its grid maximum before integration so that the moments stay
    accurate even when the normalizer itself is far below the double
    underflow point.

    The log density is evaluated only on the window of cells that
    ``_mass_window`` bounds to within ``NEGLIGIBLE_LOG_DENSITY`` of the
    peak; outside it ``exp(log_f - peak)`` would underflow to exactly
    0.0, which is what the integrand holds there. Since the window
    holds the peak and the sums still run over the whole grid, the
    result is bit for bit that of evaluating every cell.

    Raises:
        ValueError: for fewer than 1001 points, or bounds with
            ``lo >= hi`` once the auto-sized ones are filled in.
        NormalizerUnderflowError: when the density is zero (its log
            is ``-inf``) on every grid cell.
    """
    if grid is None:
        grid = GridSpec()
    if grid.n < 1001:
        raise ValueError(f"grid must have at least 1001 points, got {grid.n}")
    comps = _branch_components(table, tau)
    lo, hi = grid.lo, grid.hi
    if lo is None or hi is None:
        auto_lo, auto_hi = _auto_bounds(table, tau, comps)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
        if lo >= hi:
            raise ValueError(f"grid needs lo < hi, got lo={lo}, hi={hi}")
    q = np.linspace(lo, hi, grid.n)
    i0, i1 = _mass_window(q, table, tau, comps)
    log_f = _log_posterior_grid(q[i0:i1], table, tau, comps)
    peak = log_f.max()
    if peak == -np.inf:
        raise NormalizerUnderflowError("posterior density vanished on the whole grid")
    f = np.zeros(grid.n)
    f[i0:i1] = np.exp(log_f - peak)
    dq = np.diff(q)
    z0 = _trapezoid(f, dq)
    mean = _trapezoid(f * q, dq) / z0
    variance = _trapezoid(f * (q - mean) ** 2, dq) / z0
    log_z = float(peak + math.log(z0))
    return log_z, mean, variance


def quadrature_moments(
    table: BeliefTable, tau: Transition, grid: GridSpec | None = None
) -> QuadratureMoments:
    """Normalizer, mean, and variance of the true posterior.

    Raises:
        NormalizerUnderflowError: when the normalizer is not
            representable as a positive double (below 1e-300).
    """
    log_z, mean, variance = quadrature_log_moments(table, tau, grid)
    if log_z < math.log(UNDERFLOW_LIMIT):
        raise NormalizerUnderflowError(
            f"posterior normalizer underflows: log Z = {log_z:.3f}"
        )
    return QuadratureMoments(z=math.exp(log_z), mean=mean, variance=variance)


def exact_two_action_moments(table: BeliefTable, tau: Transition) -> tuple[float, float]:
    """Closed-form posterior mean and variance for two next actions.

    Derived from the moment generating function of the two-branch
    density. Each branch contributes its weight times the CDF of the
    standardized gap to the other target; first and second moments add
    ratio terms of the Gaussian density to that CDF. All weight factors
    are evaluated relative to the dominant branch in log space, so the
    expressions stay finite when the raw normalizer underflows.

    Raises:
        ValueError: if the update is not a two-action, non-terminal one.
    """
    table.check_transition(tau)
    if tau.terminal:
        raise ValueError("closed form requires a non-terminal transition")
    if table.n_actions != 2:
        raise ValueError(f"closed form requires exactly 2 actions, got {table.n_actions}")

    comps = _branch_components(table, tau)
    scales = _cdf_scales(table, tau)
    m = tau.r + table.gamma * table.means[tau.s_next]

    log_w = np.empty(2)
    first = np.empty(2)
    second = np.empty(2)
    for b, other in ((0, 1), (1, 0)):
        comp = comps[b]
        s2 = comp.var_bar + scales[other] ** 2
        s = math.sqrt(s2)
        zb = (comp.mu_bar - float(m[other])) / s
        log_cdf = float(log_ndtr(zb))
        # density-to-CDF ratio of the standardized gap, stable in both tails
        log_pdf = -0.5 * zb * zb - LOG_SQRT_2PI - math.log(s)
        ratio = math.exp(log_pdf - log_cdf)
        log_w[b] = comp.log_c + log_cdf
        first[b] = comp.mu_bar + comp.var_bar * ratio
        second[b] = (
            comp.mu_bar * comp.mu_bar
            + comp.var_bar
            + 2.0 * comp.mu_bar * comp.var_bar * ratio
            - (comp.var_bar * comp.var_bar / s2) * (comp.mu_bar - float(m[other])) * ratio
        )

    shift = log_w.max()
    w = np.exp(log_w - shift)
    z = w.sum()
    mean = float((w * first).sum() / z)
    variance = float((w * second).sum() / z) - mean * mean
    return mean, variance


__all__ = [
    "GridSpec",
    "QuadratureMoments",
    "NormalizerUnderflowError",
    "posterior_unnorm_pdf",
    "posterior_unnorm_pdf_grid",
    "quadrature_log_moments",
    "quadrature_moments",
    "exact_two_action_moments",
]
