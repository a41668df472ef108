"""Bitwise regression pins for ``quadrature_log_moments``.

``data/pinned_quadrature.json`` holds a seeded set of transitions with
the ``(log_z, mean, variance)`` the quadrature returned when the set was
recorded: a terminal transition, A in {1, 2, 4, 10}, broad beliefs whose
mass covers the whole grid, narrow posteriors whose mass sits on one to
three cells, means from 1e-6 to 1e6 with variances from 1e-10 to 1e2,
explicit grid bounds (two with the mass at a grid edge, one where the
density vanishes on the whole grid) and grids of 1001, 2001 and 20001
points. Floats are stored as ``float.hex`` strings, so the comparison is
exact.

The property tests check the windowed quadrature against the plain
evaluation of the log density on every grid cell followed by
``np.trapezoid``, bit for bit, and that the window holds every cell
whose integrand is not exactly 0.0, which the sums alone cannot show: a
cell of about 1e-320 can be cut without changing any of them.

Re-record only for an intended numerical change, with
``PYTHONPATH=src python tests/test_pinned_quadrature.py``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import signed_magnitude

from adfq.beliefs import BeliefTable, Transition
from adfq.posterior import (
    GridSpec,
    NormalizerUnderflowError,
    _auto_bounds,
    _branch_arrays,
    _log_density,
    _mass_window,
    quadrature_log_moments,
)

DATA = Path(__file__).with_name("data") / "pinned_quadrature.json"
VANISHED = "NormalizerUnderflowError"


def _h(x: float) -> str:
    return float(x).hex()


def _instances(rng: np.random.Generator) -> list[dict]:
    """Transitions and grids to pin; every float is kept as its hex string."""
    out = []

    def add(kind, means, variances, r=0.0, gamma=0.9, sigma_w=0.1,
            terminal=False, lo=None, hi=None, n=2001):
        out.append({
            "kind": kind,
            "means": [[_h(x) for x in row] for row in np.asarray(means, dtype=float)],
            "variances": [[_h(x) for x in row] for row in np.asarray(variances, dtype=float)],
            "r": _h(r),
            "gamma": _h(gamma),
            "sigma_w": _h(sigma_w),
            "terminal": terminal,
            "grid": {
                "lo": None if lo is None else _h(lo),
                "hi": None if hi is None else _h(hi),
                "n": n,
            },
        })

    def moderate(n_actions):
        return (
            rng.uniform(-5.0, 5.0, size=(2, n_actions)),
            rng.uniform(0.5, 3.0, size=(2, n_actions)) ** 2,
        )

    for sigma_w in (0.0, 0.1):
        add("terminal", *moderate(4), r=float(rng.uniform(-1.0, 1.0)),
            sigma_w=sigma_w, terminal=True)
    for n_actions in (1, 2, 4, 10):
        for sigma_w in (0.0, 0.1):
            add("moderate", *moderate(n_actions), r=float(rng.uniform(-1.0, 1.0)),
                gamma=float(rng.choice([0.9, 0.95])), sigma_w=sigma_w)
    for n_actions in (2, 4):
        add("broad", rng.uniform(-5.0, 5.0, size=(2, n_actions)),
            rng.uniform(50.0, 100.0, size=(2, n_actions)), r=0.5)
    # a 1e-10 prior variance against unit next-state variances: the
    # posterior is far narrower than the auto-sized grid's spacing
    for next_means, sigma_w in (
        ([-2.0, -2.0, 4.5], 0.0), ([-2.0, -2.0, 4.5], 0.1),
        ([1.0, 2.0, 3.0, 4.0], 0.1), ([1.0, 2.0], 0.0),
    ):
        k = len(next_means)
        add("narrow", [[0.0] * k, next_means], [[1e-10] * k, [1.0] * k], sigma_w=sigma_w)
    for n_actions in (2, 4, 10):
        for _ in range(2):
            signs = rng.choice([-1.0, 1.0], size=(2, n_actions))
            add("wide", signs * 10.0 ** rng.uniform(-6.0, 6.0, size=(2, n_actions)),
                10.0 ** rng.uniform(-10.0, 2.0, size=(2, n_actions)),
                r=float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)),
                gamma=float(rng.uniform(0.5, 0.99)), sigma_w=float(rng.choice([0.0, 0.1])))
    means, variances = [[0.0, 0.0], [1.0, 2.0]], [[1.0, 1.0], [0.5, 0.5]]
    add("explicit", means, variances, lo=-10.0, hi=10.0)
    add("explicit", means, variances, lo=1.2)
    # the density peaks just left of lo, so its mass piles up at the edge
    add("explicit-edge", means, variances, lo=1.5, hi=6.0)
    add("explicit-far", means, variances, lo=200.0, hi=300.0)
    # so far out that every branch's log density overflows to -inf
    add("explicit-vanished", means, variances, lo=1e200, hi=2e200)
    for n in (1001, 20001):
        add("grid-n", *moderate(4), r=0.25, n=n)
    add("grid-n", [[0.0] * 3, [-2.0, -2.0, 4.5]], [[1e-10] * 3, [1.0] * 3], n=20001)
    return out


def _build(inst: dict) -> tuple[BeliefTable, Transition, GridSpec]:
    f = float.fromhex
    table = BeliefTable(
        np.array([[f(x) for x in row] for row in inst["means"]]),
        np.array([[f(x) for x in row] for row in inst["variances"]]),
        gamma=f(inst["gamma"]),
        sigma_w=f(inst["sigma_w"]),
        variance_floor=1e-300,
    )
    tau = Transition(s=0, a=0, r=f(inst["r"]), s_next=1, terminal=inst["terminal"])
    g = inst["grid"]
    grid = GridSpec(
        None if g["lo"] is None else f(g["lo"]),
        None if g["hi"] is None else f(g["hi"]),
        g["n"],
    )
    return table, tau, grid


def _observed(table: BeliefTable, tau: Transition, grid: GridSpec):
    try:
        return [_h(x) for x in quadrature_log_moments(table, tau, grid)]
    except NormalizerUnderflowError:
        return VANISHED


# absent only while recording; the coverage test below then fails
CASES = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


@pytest.mark.parametrize(
    "inst", CASES, ids=lambda c: f"{c['kind']}-A{len(c['means'][0])}-n{c['grid']['n']}"
)
def test_quadrature_is_bitwise_pinned(inst):
    assert _observed(*_build(inst)) == inst["expected"]


def test_pinned_set_covers_actions_grids_and_regimes():
    assert {len(c["means"][0]) for c in CASES} >= {1, 2, 4, 10}
    assert {c["grid"]["n"] for c in CASES} == {1001, 2001, 20001}
    assert {"terminal", "broad", "narrow", "wide", "explicit-edge"} <= {c["kind"] for c in CASES}
    assert VANISHED in [c["expected"] for c in CASES]
    # a narrow posterior collapses onto a cell or two: zero grid variance
    assert any(c["kind"] == "narrow" and c["expected"][2] == _h(0.0) for c in CASES)


def _grid(table: BeliefTable, tau: Transition, grid: GridSpec):
    """The grid's cells, with auto-sized bounds filled in, and the branch arrays."""
    arrays = _branch_arrays(table, tau)
    auto_lo, auto_hi = _auto_bounds(table, tau, arrays)
    lo = auto_lo if grid.lo is None else grid.lo
    hi = auto_hi if grid.hi is None else grid.hi
    return np.linspace(lo, hi, grid.n), arrays


def _full_grid(table: BeliefTable, tau: Transition, grid: GridSpec):
    """The log density on every grid cell, then three ``np.trapezoid`` sums."""
    q, arrays = _grid(table, tau, grid)
    log_f = _log_density(q, arrays)
    peak = log_f.max()
    if peak == -np.inf:
        return VANISHED
    f = np.exp(log_f - peak)
    z0 = float(np.trapezoid(f, q))
    mean = float(np.trapezoid(f * q, q)) / z0
    variance = float(np.trapezoid(f * (q - mean) ** 2, q)) / z0
    return [_h(x) for x in (float(peak + math.log(z0)), mean, variance)]


@st.composite
def transitions(draw):
    """Beliefs over the robustness-probe ranges, a transition and a grid."""
    n = draw(st.integers(1, 10))
    means = draw(st.lists(signed_magnitude(), min_size=2 * n, max_size=2 * n))
    exponents = draw(st.lists(st.floats(-10.0, 2.0), min_size=2 * n, max_size=2 * n))
    table = BeliefTable(
        np.reshape(means, (2, n)),
        10.0 ** np.reshape(exponents, (2, n)),
        gamma=draw(st.floats(0.5, 0.99)),
        sigma_w=draw(st.sampled_from([0.0, 0.1])),
        variance_floor=1e-300,
    )
    tau = Transition(0, 0, draw(signed_magnitude()), 1, terminal=draw(st.booleans()))
    return table, tau, GridSpec(n=draw(st.sampled_from([1001, 2001])))


@settings(max_examples=300)
@given(transitions())
def test_window_matches_full_grid_bitwise(case):
    table, tau, grid = case
    assert _observed(table, tau, grid) == _full_grid(table, tau, grid)


@settings(max_examples=100)
@given(transitions(), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
def test_window_matches_full_grid_on_explicit_bounds(case, shift, width):
    # bounds placed relative to the auto-sized grid, from covering all of
    # the mass to cutting it at either edge
    table, tau, grid = case
    auto_lo, auto_hi = _auto_bounds(table, tau, _branch_arrays(table, tau))
    span = auto_hi - auto_lo
    lo = auto_lo + shift * span
    explicit = GridSpec(lo, lo + width * span, grid.n)
    assert _observed(table, tau, explicit) == _full_grid(table, tau, explicit)


def _assert_window_holds_mass(table: BeliefTable, tau: Transition, grid: GridSpec) -> None:
    q, arrays = _grid(table, tau, grid)
    i0, i1 = _mass_window(q, arrays)
    log_f = _log_density(q, arrays)
    peak = log_f.max()
    if peak == -np.inf:
        return
    mass = np.flatnonzero(np.exp(log_f - peak) > 0.0)
    assert i0 <= mass[0] and mass[-1] < i1, (i0, i1, mass[0], mass[-1])


@settings(max_examples=300)
@given(transitions())
def test_window_holds_every_cell_with_mass(case):
    _assert_window_holds_mass(*case)


@settings(max_examples=100)
@given(transitions(), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
def test_window_holds_every_cell_with_mass_on_explicit_bounds(case, shift, width):
    table, tau, grid = case
    auto_lo, auto_hi = _auto_bounds(table, tau, _branch_arrays(table, tau))
    span = auto_hi - auto_lo
    lo = auto_lo + shift * span
    _assert_window_holds_mass(table, tau, GridSpec(lo, lo + width * span, grid.n))


# noiseless, both variances 1e-10 and a TD error of 9e5: the log density
# is about -2.2e21, where one unit in the last place is 2.6e5, so on a grid
# that resolves the peak every cell rounds to the same value; found by
# hand, the random transitions reach this corner too rarely
FLAT_TOP = (
    BeliefTable(np.array([[0.0], [1e6]]), np.array([[1e-10], [1e-10]]), gamma=0.9,
                variance_floor=1e-300),
    Transition(0, 0, 0.0, 1),
    GridSpec(n=2001),
)


@settings(max_examples=300)
@given(transitions(), st.floats(-1.0, 1.0), st.floats(1.0, 1000.0))
@example(FLAT_TOP, 0.0, 10.0)
def test_window_holds_every_cell_with_mass_on_a_zoomed_grid(case, shift, width):
    # bounds a few to a thousand standard deviations around the tallest
    # branch, so the grid resolves its peak even where the log density is
    # so large that rounding exceeds the 750 margin
    table, tau, grid = case
    mu_bar, var_bar, _, _, log_c = (x.tolist() for x in _branch_arrays(table, tau)[:5])
    top = max(range(len(mu_bar)), key=lambda b: log_c[b] - 0.5 * math.log(var_bar[b]))
    sd = math.sqrt(var_bar[top])
    lo, hi = mu_bar[top] + (shift - 1.0) * width * sd, mu_bar[top] + (shift + 1.0) * width * sd
    _assert_window_holds_mass(table, tau, GridSpec(lo, hi, grid.n))


if __name__ == "__main__":
    cases = _instances(np.random.default_rng(20171208))
    for case in cases:
        case["expected"] = _observed(*_build(case))
    lines = ",\n".join(json.dumps(case) for case in cases)
    DATA.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} pinned quadratures to {DATA}")
