"""Ground-truth references for the belief update.

``posterior_unnorm_pdf_grid`` evaluates the unnormalized true posterior
over Q(s, a) after one transition: a sum over next actions of the branch
weight times a Gaussian in the combined prior/target parameters, times
the product of Gaussian CDF factors of the remaining targets. With
observation noise the Gaussian part carries the noise variance while
the CDF factors keep the bare discounted target scale.

``quadrature_log_moments`` integrates that density with the trapezoid
rule on an auto-sized grid (deterministic, unlike adaptive quadrature)
and is the numeric reference the analytic update is validated against.
Each update's branches are built once, by ``_branch_arrays`` from
:func:`adfq.beliefs.td_components` and, for every branch,
:func:`adfq.beliefs.conjugate_pair`, as the update kernel builds them, and
everything below works on them alone: as Python floats for the work
that scales with the number of branches (the grid bounds and the mass
window's radii), and as ``(A, 1)`` columns for the work on cells, which
NumPy does. ``_log_summands`` writes each branch's log term once; the
density is their log-sum-exp. A cell whose integrand ``exp(log_f -
peak)`` is below ``exp(-depth)``, with the depth of
:func:`_window_depth` (61 at the default 2001 points), cannot move the
moments by half an ulp of the grid's own scales, so the density is
evaluated once, on the window of cells that ``_mass_window`` bounds to
within that depth of the peak, and the trapezoid sums run on that
window and one empty cell on each side. Its probe of the peak is the
largest of the density's own summands at a few cells, so it never
exceeds the peak. The moments are those of evaluating every cell to
within the bound :func:`_window_depth` derives, plus the rounding of
summing in another order.
``exact_two_action_moments`` is the closed form for two next actions,
obtained from the moment generating function of the two-branch density;
it is exact with or without observation noise and agrees with
quadrature to solver precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx, log_ndtr

from .beliefs import (
    LOG_SQRT_2PI,
    BeliefTable,
    Transition,
    conjugate_pair,
    td_components,
    terminal_components,
)
from .engine import mixture_moments

# standardized gap below which _truncated_normal takes the continued
# fraction: a 60-digit mpmath scan puts it within 2.5 eps of the variance
# at every gap below, where the direct form loses up to 250 eps and more
# as zb falls; summed from depth 100, it stops converging above about -2.25
CONTINUED_FRACTION_BELOW = -2.5


class NormalizerUnderflowError(ArithmeticError):
    """The posterior density is zero (its log is ``-inf``) on every grid cell.

    A normalizer below the double range is not an error:
    :func:`quadrature_log_moments` keeps it in log space.
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


class _Branches(NamedTuple):
    """One update's branches, as :func:`_branch_arrays` builds them.

    Work that scales with the number of branches reads the float lists;
    work on grid cells reads ``columns``, ``(mu_bar, var_bar, height, m,
    scales)`` as ``(A, 1)`` arrays. ``height`` is a branch's Gaussian
    part at its mean, so its Gaussian part at ``q`` is ``height - 0.5 *
    d * d / var_bar`` with ``d = q - mu_bar``; ``m`` and ``v`` are the
    TD target means and effective variances; ``scales``, the CDF
    denominators, is None (in ``columns`` too) when the density has no
    CDF factors: a terminal transition or one action.
    """

    mu_bar: list[float]
    var_bar: list[float]
    log_c: list[float]
    height: list[float]
    m: list[float]
    v: list[float]
    scales: list[float] | None
    columns: tuple


def _branch_arrays(table: BeliefTable, tau: Transition) -> _Branches:
    """The branches of one update, built once for every step below."""
    if tau.terminal:
        prior, ms, vs, log_c = terminal_components(table, tau)
    else:
        prior, ms, _, vs, log_c = td_components(table, tau)
    mu_bar, var_bar = map(list, zip(*[conjugate_pair(prior, m, v) for m, v in zip(ms, vs)]))
    height = [lc - 0.5 * math.log(vb) - LOG_SQRT_2PI for vb, lc in zip(var_bar, log_c)]
    flat = mu_bar + var_bar + height + ms
    scales = None
    if not (tau.terminal or table.n_actions == 1):
        gamma = table.gamma
        scales = [gamma * math.sqrt(x) for x in table.variances[tau.s_next].tolist()]
        if not min(scales) > 0.0:
            raise ValueError("CDF denominator gamma * sd underflows to zero")
        flat += scales
    cols = np.array(flat).reshape(-1, len(ms), 1)
    columns = (*cols[:4], cols[4] if scales else None)
    return _Branches(mu_bar, var_bar, log_c, height, ms, vs, scales, columns)


def _other_log_cdfs(q: np.ndarray, branches: _Branches) -> np.ndarray:
    """``(A, len(q))``: each branch's log CDF factors of the other targets, ``sum - own``."""
    m, scales = branches.columns[3:]
    log_cdf = q - m
    log_cdf /= scales
    log_ndtr(log_cdf, out=log_cdf)
    return np.subtract(log_cdf.sum(axis=0), log_cdf, out=log_cdf)


def _log_summands(q: np.ndarray, branches: _Branches) -> np.ndarray:
    """``(A, len(q))``: each branch's Gaussian part plus :func:`_other_log_cdfs`.

    ``d * d`` overflows to the right -inf limit, and a term is NaN where
    the branch's own CDF factor is -inf, so callers hold
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    mu_bar, var_bar, height = branches.columns[:3]
    d = q - mu_bar
    log_terms = 0.5 * d
    log_terms *= d
    log_terms /= var_bar
    np.subtract(height, log_terms, out=log_terms)
    if branches.scales is not None:
        log_terms += _other_log_cdfs(q, branches)
    return log_terms


def _log_density(q: np.ndarray, branches: _Branches) -> np.ndarray:
    """Log unnormalized posterior density: :func:`_log_summands`' log-sum-exp.

    A cell whose terms are all -inf or NaN gets -inf. Every step is
    elementwise in q or a reduction over the branch axis, so a cell's
    value does not depend on which other cells ``q`` holds, as long as
    ``q`` has at least two: for a single cell numpy sums the branch
    axis in another order.
    """
    log_terms = _log_summands(q, branches)
    m_max = log_terms.max(axis=0)
    log_terms -= m_max
    out = np.log(np.exp(log_terms, out=log_terms).sum(axis=0))
    out += m_max
    # such a cell's m_max is -inf or NaN, which leaves its out NaN
    return np.fmax(out, -np.inf, out=out)


def posterior_unnorm_pdf_grid(
    q: np.ndarray, table: BeliefTable, tau: Transition
) -> np.ndarray:
    """Unnormalized true posterior density at each point of ``q``.

    For plotting and diagnostics. A point's value depends only on that
    point, however many points ``q`` holds.
    """
    branches = _branch_arrays(table, tau)
    q = np.asarray(q, dtype=float)
    # numpy sums a lone cell's branch axis in another order, so the first
    # point goes in twice and its copy is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(_log_density(np.append(q, q.flat[:1]), branches))[:-1]


def _auto_bounds(table: BeliefTable, tau: Transition, branches: _Branches) -> tuple[float, float]:
    # The CDF factors can relocate a branch's mass far beyond its own
    # component mean, but never beyond the highest TD target (every
    # stationary point is a precision-weighted average of component and
    # target means), so the support must span both mean sets.
    prior_var = float(table.variances[tau.s, tau.a])
    spread = max(math.sqrt(prior_var + v) for v in branches.v)
    anchors = branches.mu_bar + branches.m
    return min(anchors) - 10.0 * spread, max(anchors) + 10.0 * spread


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)`` bit for bit: numpy's arithmetic on a fresh ramp."""
    step = (hi - lo) / (n - 1)
    if step == 0.0:
        # linspace divides and multiplies separately when the step
        # underflows (numpy gh-5437)
        return np.linspace(lo, hi, n)
    q = np.arange(n, dtype=float)
    q *= step
    q += lo
    q[-1] = hi
    return q


def _window_probe(q: np.ndarray, branches: _Branches) -> float:
    """The largest branch summand of the log density at a cell of ``q``.

    Branch b is probed at the cell next to its ``mu_bar`` (past the
    grid: its last cell), on the diagonal of :func:`_log_summands` at
    those cells. The log density there is a log-sum-exp of the same
    summands, so it is at least each of them and the probe bounds its
    maximum over ``q`` from below exactly. A summand is NaN where b's own
    factor is -inf; ``np.fmax`` skips it, as the density drops that cell,
    and the probe is -inf when every summand is NaN.
    """
    qp = q.take(q.searchsorted(branches.columns[0][:, 0]), mode="clip")
    return float(np.fmax.reduce(_log_summands(qp, branches).diagonal(), initial=-math.inf))


def _window_depth(n: int) -> float:
    """How far below the peak, in log units, a grid of ``n`` cells keeps cells.

    Each cell the window drops holds an integrand below ``exp(-depth)``
    of the peak's 1. The trapezoid weights of all cells sum to the grid
    width ``(n - 1) h``, and ``z0`` is at least the peak cell's ``h /
    2``, while every ``(q - mean)**2`` is at most the squared width. So
    the dropped cells move ``z0`` by less than ``2 (n - 1) e^-depth``
    relative, the mean by less than ``2 (n - 1)**2 e^-depth h`` and the
    variance by less than ``2 (n - 1)**3 e^-depth h**2``. At ``55 ln 2 +
    3 ln(n - 1)`` the last is half an ulp of ``h**2`` (``2**-54 h**2``)
    and the other two are smaller still; the trapezoid rule's own error
    is of order ``h**2``. That is 60.9 at the default 2001 points, where
    ``exp`` underflows to 0.0 only about 745 below the peak.
    """
    return 55.0 * math.log(2.0) + 3.0 * math.log(n - 1)


def _mass_window(q: np.ndarray, branches: _Branches) -> tuple[int, int]:
    """Cells ``[i0, i1)`` of ``q`` outside which ``exp(log_f - peak)`` is below ``e^-depth``.

    ``depth`` is :func:`_window_depth` of the grid's size.
    :func:`_window_probe` bounds the peak from below. Branch b's
    Gaussian part plus ``log(A)`` bounds the log density from above, so
    it reaches ``probe - depth`` only within a closed-form radius of
    ``mu_bar`` set by its ``height``; the window spans those intervals.
    The slack and the edges are widened by a relative 1e-9 and 1e-12,
    far above the rounding of the density itself, so no cell above the
    depth is cut even when the log density is of order 1e20. Without a
    finite probe or a surviving interval the window is the whole grid.
    """
    n = len(q)
    probe = _window_probe(q, branches)
    if probe == -math.inf:
        return 0, n
    floor = probe - _window_depth(n) - math.log(len(branches.mu_bar))
    lo, hi = math.inf, -math.inf
    for mb, vb, height in zip(branches.mu_bar, branches.var_bar, branches.height):
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


def _trapezoid(y: np.ndarray, dq: np.ndarray, out: np.ndarray) -> float:
    """``np.trapezoid(y, q)`` given ``dq = np.diff(q)``, with numpy's
    arithmetic; ``out``, of ``dq``'s shape, is scratch space."""
    np.add(y[1:], y[:-1], out=out)
    out *= dq
    out /= 2.0
    return float(out.sum())


def quadrature_log_moments(
    table: BeliefTable, tau: Transition, grid: GridSpec | None = None
) -> tuple[float, float, float]:
    """Trapezoid moments with the normalizer kept in log space.

    Returns ``(log_z, mean, variance)``. The integrand is rescaled by
    its grid maximum before integration so that the moments stay
    accurate even when the normalizer itself is far below the double
    underflow point.

    The log density is evaluated only on ``_mass_window``'s cells, and
    the sums run on them and one empty cell on each side. The integrand
    outside them is below ``exp(-depth)`` of the peak, so the moments
    are those of every cell to within the bound :func:`_window_depth`
    derives, below half an ulp of the grid's scales, plus the rounding
    of summing in another order.

    Raises:
        ValueError: for bounds with ``lo >= hi`` once the auto-sized
            ones are filled in.
        NormalizerUnderflowError: when the density is zero (its log
            is ``-inf``) on every grid cell.
    """
    if grid is None:
        grid = GridSpec()
    branches = _branch_arrays(table, tau)
    lo, hi = grid.lo, grid.hi
    if lo is None or hi is None:
        auto_lo, auto_hi = _auto_bounds(table, tau, branches)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
        if lo >= hi:
            raise ValueError(f"grid needs lo < hi, got lo={lo}, hi={hi}")
    q = _grid(lo, hi, grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        i0, i1 = _mass_window(q, branches)
        log_f = _log_density(q[i0:i1], branches)
    peak = float(log_f.max())
    if peak == -math.inf:
        raise NormalizerUnderflowError("posterior density vanished on the whole grid")
    log_f -= peak
    # one empty cell on each side keeps the half weight of the trapezoid
    # interval between the window's edge cell and its outside neighbour
    j0, j1 = max(i0 - 1, 0), min(i1 + 1, grid.n)
    q = q[j0:j1]
    f = np.zeros(j1 - j0)
    np.exp(log_f, out=f[i0 - j0 : i1 - j0])
    dq = q[1:] - q[:-1]
    scratch = np.empty_like(dq)
    z0 = _trapezoid(f, dq, scratch)
    y = f * q
    mean = _trapezoid(y, dq, scratch) / z0
    d = np.subtract(q, mean, out=y)
    d *= d
    d *= f
    variance = _trapezoid(d, dq, scratch) / z0
    log_z = peak + math.log(z0)
    return log_z, mean, variance


def _truncated_normal(zb: float) -> tuple[float, float]:
    """``(lam, variance)`` of a standard normal conditioned to lie below ``zb``.

    ``lam``, the density-to-CDF ratio at ``zb``, is minus the
    conditional mean; ``erfcx`` divides out the common ``exp(-zb**2 /
    2)`` of the density and the CDF, so it does not overflow. The
    variance is ``1 - lam * (zb + lam)``, which cancels as ``zb`` falls,
    so below ``CONTINUED_FRACTION_BELOW`` both come from the continued
    fraction of Mills' ratio, ``1 / lam = 1 / (x + T1)`` with ``x =
    -zb`` and ``T_n = n / (x + T_{n+1})``, summed backwards from
    ``T_101 = 0``: ``lam`` is ``x + T1`` and the variance ``T1**2 * (1 +
    T2 * (T2 - T3))``, sums with no cancellation. Against a 60-digit
    reference the variance is within 2.5 eps there, and within 260 eps
    above; ``lam`` is within 0.5 eps there, where ``erfcx`` reads up to
    2.7 eps.
    """
    if zb < CONTINUED_FRACTION_BELOW:
        x = -zb
        t3 = 0.0
        for n in range(100, 2, -1):
            t3 = n / (x + t3)
        t2 = 2.0 / (x + t3)
        t1 = 1.0 / (x + t2)
        return x + t1, t1 * t1 * (1.0 + t2 * (t2 - t3))
    lam = math.sqrt(2.0 / math.pi) / float(erfcx(-zb / math.sqrt(2.0)))
    return lam, 1.0 - lam * (zb + lam)


def exact_two_action_moments(table: BeliefTable, tau: Transition) -> tuple[float, float]:
    """Closed-form posterior mean and variance for two next actions.

    Derived from the moment generating function of the two-branch
    density. Each branch contributes its weight times the CDF of the
    standardized gap ``zb`` to the other target; each branch's mean and
    variance follow from a standard normal truncated at ``zb``
    (:func:`_truncated_normal`). A branch's variance is the sum of two
    nonnegative terms, so it cannot come out negative. The two branches
    are mixed by :func:`adfq.engine.mixture_moments` in max-shifted log
    space, so the moments stay finite when the raw normalizer underflows.
    A log weight of size ``L`` carries about ``L`` eps of rounding: the
    variance is within ``128 (1 + L)`` eps relative of the exact moments
    of the same branch values, ``L`` the larger ``|log_c|``.

    Raises:
        ValueError: if the update is not a two-action, non-terminal one.
    """
    table.check_transition(tau)
    if tau.terminal:
        raise ValueError("closed form requires a non-terminal transition")
    if table.n_actions != 2:
        raise ValueError(f"closed form requires exactly 2 actions, got {table.n_actions}")

    branches = _branch_arrays(table, tau)
    components = []
    for b, other in ((0, 1), (1, 0)):
        mb, vb, m_other = branches.mu_bar[b], branches.var_bar[b], branches.m[other]
        scale2 = branches.scales[other] ** 2
        s2 = vb + scale2
        s = math.sqrt(s2)
        zb = (mb - m_other) / s
        lam, truncated_var = _truncated_normal(zb)
        first = mb + vb * (lam / s)
        # vb - (vb / s)**2 * lam * (zb + lam), regrouped so that no term cancels
        var = vb * scale2 / s2 + (vb / s) ** 2 * truncated_var
        components.append((first, var, branches.log_c[b] + float(log_ndtr(zb))))
    _, mean, variance = mixture_moments(components)
    return mean, variance


__all__ = [
    "GridSpec",
    "NormalizerUnderflowError",
    "posterior_unnorm_pdf_grid",
    "quadrature_log_moments",
    "exact_two_action_moments",
]
