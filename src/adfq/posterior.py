"""Ground-truth references for the belief update.

``posterior_unnorm_pdf_grid`` evaluates the unnormalized true posterior
over Q(s, a) after one transition: a sum over next actions of the branch
weight times a Gaussian in the combined prior/target parameters, times
the product of Gaussian CDF factors of the remaining targets. With
observation noise the Gaussian part carries the noise variance while
the CDF factors keep the bare discounted target scale.

``quadrature_moments`` integrates that density with the trapezoid rule
on an auto-sized grid (deterministic, unlike adaptive quadrature) and
is the numeric reference the analytic update is validated against.
Each update's branches are built once, as the arrays of
``_branch_arrays``, and everything below works on those arrays alone.
The integrand ``exp(log_f - peak)`` is exactly ``0.0`` more than about
745 below the peak, so the density is evaluated once, on the window of
cells that ``_mass_window`` bounds to within 750 of the peak; the
trapezoid sums still run over the whole grid, so the moments are bit
for bit those of evaluating every cell.
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
from scipy.special import erfcx, log_ndtr

from .beliefs import (
    LOG_SQRT_2PI,
    NEGLIGIBLE_LOG_DENSITY,
    BeliefTable,
    Transition,
    _branch_terms,
    # re-exported: perfbench/tracer.py wraps them as attributes of this module
    td_components,  # noqa: F401
    terminal_components,  # noqa: F401
)

UNDERFLOW_LIMIT = 1e-300


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
            that is not an integer of at least 1001.
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
        if self.n < 1001:
            raise ValueError(f"grid must have at least 1001 points, got {self.n}")


@dataclass(frozen=True)
class QuadratureMoments:
    z: float
    mean: float
    variance: float


def _branch_arrays(table: BeliefTable, tau: Transition) -> tuple:
    """``(mu_bar, var_bar, sd_bar, log_sd, log_c, m, v, scales)`` of one update.

    ``m`` and ``v`` are the TD target means and effective variances;
    ``scales``, the CDF denominators, is None when the density has no
    CDF factors (a terminal transition or one action).
    """
    ms, _, vs, combos = _branch_terms(table, tau)
    mu_bar, var_bar, log_c = np.array(combos).T
    sd_bar = np.sqrt(var_bar)
    scales = None
    if not (tau.terminal or table.n_actions == 1):
        scales = table.gamma * np.sqrt(table.variances[tau.s_next])
        if not scales.min() > 0.0:
            raise ValueError("CDF denominator gamma * sd underflows to zero")
    return mu_bar, var_bar, sd_bar, np.log(sd_bar), log_c, np.array(ms), np.array(vs), scales


def _log_density(q: np.ndarray, arrays: tuple) -> np.ndarray:
    """Log unnormalized posterior density on an array of q values.

    ``arrays`` are the update's ``_branch_arrays``. Every step is
    elementwise in q or a reduction over the branch axis, so a cell's
    value does not depend on which other cells ``q`` holds, as long as
    ``q`` has at least two: for a single cell numpy sums the branch
    axis in another order.
    """
    mu_bar, _, sd_bar, log_sd, log_c, m, _, scales = arrays
    # in place, in the order of log_c - 0.5 * z * z - LOG_SQRT_2PI - log_sd
    # and log_terms + (sum(log_cdf) - log_cdf), so every cell keeps its bits;
    # z * z overflows to the right -inf limit, np.where replaces -inf - -inf
    with np.errstate(over="ignore", invalid="ignore"):
        z = (q - mu_bar[:, None]) / sd_bar[:, None]
        log_terms = 0.5 * z
        log_terms *= z
        np.subtract(log_c[:, None], log_terms, out=log_terms)
        log_terms -= LOG_SQRT_2PI
        log_terms -= log_sd[:, None]
        if scales is not None:
            log_cdf = log_ndtr((q - m[:, None]) / scales[:, None])
            log_terms += np.subtract(log_cdf.sum(axis=0), log_cdf, out=log_cdf)
        m_max = log_terms.max(axis=0)
        log_terms -= m_max
        out = np.log(np.exp(log_terms, out=log_terms).sum(axis=0))
    out += m_max
    return np.where(np.isfinite(m_max), out, -np.inf)


def posterior_unnorm_pdf_grid(
    q: np.ndarray, table: BeliefTable, tau: Transition
) -> np.ndarray:
    """Unnormalized true posterior density at each point of ``q``.

    For plotting and diagnostics. A point's value depends only on that
    point as long as ``q`` holds at least two; to evaluate one point,
    pass it with a second and drop the second.
    """
    return np.exp(_log_density(np.asarray(q, dtype=float), _branch_arrays(table, tau)))


def _auto_bounds(table: BeliefTable, tau: Transition, arrays: tuple) -> tuple[float, float]:
    # The CDF factors can relocate a branch's mass far beyond its own
    # component mean, but never beyond the highest TD target (every
    # stationary point is a precision-weighted average of component and
    # target means), so the support must span both mean sets.
    mu_bar, _, _, _, _, m, v, _ = arrays
    # sqrt is correctly rounded, so this is the largest math.sqrt too
    spread = np.sqrt(float(table.variances[tau.s, tau.a]) + v).max()
    anchors = np.concatenate((mu_bar, m))
    return float(anchors.min() - 10.0 * spread), float(anchors.max() + 10.0 * spread)


def _mass_window(q: np.ndarray, arrays: tuple) -> tuple[int, int]:
    """Cells ``[i0, i1)`` of ``q`` outside which ``exp(log_f - peak)`` is 0.0.

    Each branch's own summand of the density at the grid cell next to
    its ``mu_bar`` bounds the peak from below. Branch b's Gaussian part
    plus ``log(A)`` bounds the log density from above, so it reaches
    ``probe - NEGLIGIBLE_LOG_DENSITY`` only within a closed-form radius
    of ``mu_bar``; the window spans those intervals. The slack and the
    edges are widened by a relative 1e-9 and 1e-12, far above the
    rounding of the density itself, so no cell with mass is cut even
    when the log density is of order 1e20. Without a finite probe or a
    surviving interval the window is the whole grid.
    """
    n = len(q)
    mu_bar, var_bar, sd_bar, log_sd, log_c, m, _, scales = arrays
    qp = q.take(q.searchsorted(mu_bar), mode="clip")  # past the grid: its last cell
    # Branch b's summand at qp[b] is its Gaussian part plus the other
    # targets' log CDF factors. The log density there, a log-sum-exp of
    # such summands, is at least each of them, up to rounding that the
    # relative 1e-9 slack below covers. The diagonal, b's own factor, is
    # zeroed, not subtracted: -inf - -inf is NaN.
    with np.errstate(over="ignore"):
        z = (qp - mu_bar) / sd_bar
        own = log_c - 0.5 * z * z - LOG_SQRT_2PI - log_sd
        if scales is not None:
            log_cdf = log_ndtr((qp[:, None] - m[None, :]) / scales[None, :])
            log_cdf.flat[:: len(m) + 1] = 0.0
            own += log_cdf.sum(axis=1)
    probe = float(own.max())
    if probe == -math.inf:
        return 0, n
    floor = probe - NEGLIGIBLE_LOG_DENSITY - math.log(len(m))
    lo, hi = math.inf, -math.inf
    for mb, vb, lc in zip(mu_bar.tolist(), var_bar.tolist(), log_c.tolist()):
        height = lc - 0.5 * math.log(vb) - LOG_SQRT_2PI
        slack = height - floor + 1e-9 * (abs(height) + abs(floor))
        if slack >= 0.0:
            radius = math.sqrt(2.0 * slack * vb) + 1e-12 * abs(mb)
            lo = min(lo, mb - radius)
            hi = max(hi, mb + radius)
    if lo > hi:
        return 0, n
    i0 = min(int(q.searchsorted(lo, side="left")), n - 2)
    i1 = int(q.searchsorted(hi, side="right"))
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

    The log density is evaluated only on ``_mass_window``'s cells; the
    integrand is exactly 0.0 outside them, and the sums run over the
    whole grid, so the result is bit for bit that of every cell.

    Raises:
        ValueError: for bounds with ``lo >= hi`` once the auto-sized
            ones are filled in.
        NormalizerUnderflowError: when the density is zero (its log
            is ``-inf``) on every grid cell.
    """
    if grid is None:
        grid = GridSpec()
    arrays = _branch_arrays(table, tau)
    lo, hi = grid.lo, grid.hi
    if lo is None or hi is None:
        auto_lo, auto_hi = _auto_bounds(table, tau, arrays)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
        if lo >= hi:
            raise ValueError(f"grid needs lo < hi, got lo={lo}, hi={hi}")
    q = np.linspace(lo, hi, grid.n)
    i0, i1 = _mass_window(q, arrays)
    log_f = _log_density(q[i0:i1], arrays)
    peak = log_f.max()
    if peak == -np.inf:
        raise NormalizerUnderflowError("posterior density vanished on the whole grid")
    f = np.zeros(grid.n)
    f[i0:i1] = np.exp(log_f - peak)
    dq = q[1:] - q[:-1]
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
    standardized gap ``zb`` to the other target; each branch's mean and
    variance add ratio terms of the Gaussian density to that CDF, taken
    through ``erfcx`` so that neither overflows. Weights are relative to
    the dominant branch in log space, so the moments stay finite when the
    raw normalizer underflows. Where ``zb`` lies below about -1.9e4,
    ``zb + ratio * s`` cancels in that branch's variance, and the
    variance can come out negative.

    Raises:
        ValueError: if the update is not a two-action, non-terminal one.
    """
    table.check_transition(tau)
    if tau.terminal:
        raise ValueError("closed form requires a non-terminal transition")
    if table.n_actions != 2:
        raise ValueError(f"closed form requires exactly 2 actions, got {table.n_actions}")

    mu_bar, var_bar, _, _, log_c, m, _, scales = _branch_arrays(table, tau)

    log_w, first, var = np.empty((3, 2))
    for b, other in ((0, 1), (1, 0)):
        mb, vb, m_other = float(mu_bar[b]), float(var_bar[b]), float(m[other])
        s2 = vb + float(scales[other]) ** 2
        s = math.sqrt(s2)
        zb = (mb - m_other) / s
        log_cdf = float(log_ndtr(zb))
        # pdf(zb) / cdf(zb) / s; erfcx divides out their common exp(-zb**2 / 2)
        ratio = math.sqrt(2.0 / math.pi) / float(erfcx(-zb / math.sqrt(2.0))) / s
        log_w[b] = float(log_c[b]) + log_cdf
        first[b] = mb + vb * ratio
        var[b] = vb - vb * vb * ratio * ((mb - m_other) / s2 + ratio)

    shift = log_w.max()
    w = np.exp(log_w - shift)
    z = w.sum()
    mean = float((w * first).sum() / z)
    # mixed about the mean, not as E[q^2] - mean^2, which cancels once
    # |mean| is large next to the spread
    variance = float((w * (var + (first - mean) ** 2)).sum() / z)
    return mean, variance


__all__ = [
    "GridSpec",
    "QuadratureMoments",
    "NormalizerUnderflowError",
    "posterior_unnorm_pdf_grid",
    "quadrature_log_moments",
    "quadrature_moments",
    "exact_two_action_moments",
]
