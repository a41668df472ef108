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
``np.trapezoid``, to within a bound derived from the window's depth,
the grid size and the rounding of summing in another order, and that
the window holds every cell whose integrand is above ``exp(-depth)`` of
the peak, which the sums alone cannot show. Two more check what that
rests on: the grid is ``np.linspace``'s, bit for bit, and the window's
probe is at most the log density's maximum, exactly.

Re-record only for an intended numerical change, with
``PYTHONPATH=src python tests/test_pinned_quadrature.py``; it prints
each stored value that moves, with its pin's index and kind.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from support import signed_magnitude

from adfq.beliefs import BeliefTable, Transition
from adfq.posterior import (
    GridSpec,
    NormalizerUnderflowError,
    _auto_bounds,
    _branch_arrays,
    _grid,
    _log_density,
    _mass_window,
    _window_depth,
    _window_probe,
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


def _grid_and_branches(table: BeliefTable, tau: Transition, grid: GridSpec):
    """The grid's cells, with auto-sized bounds filled in, and the branch arrays."""
    arrays = _branch_arrays(table, tau)
    auto_lo, auto_hi = _auto_bounds(arrays)
    lo = auto_lo if grid.lo is None else grid.lo
    hi = auto_hi if grid.hi is None else grid.hi
    return np.linspace(lo, hi, grid.n), arrays


def _full_grid(table: BeliefTable, tau: Transition, grid: GridSpec):
    """The log density on every grid cell, then three ``np.trapezoid`` sums.

    Returns the grid and ``(log_z, mean, variance, z0)``, or VANISHED.
    """
    q, arrays = _grid_and_branches(table, tau, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        log_f = _log_density(q, arrays)
    peak = log_f.max()
    if peak == -np.inf:
        return VANISHED
    f = np.exp(log_f - peak)
    z0 = float(np.trapezoid(f, q))
    mean = float(np.trapezoid(f * q, q)) / z0
    variance = float(np.trapezoid(f * (q - mean) ** 2, q)) / z0
    return q, (float(peak + math.log(z0)), mean, variance, z0)


def _assert_within_window_bound(table: BeliefTable, tau: Transition, grid: GridSpec) -> None:
    """The windowed moments against :func:`_full_grid`'s, within a derived bound.

    Both take each kept cell's trapezoid term from the same operations
    on the same values, so they differ only by the cells the window
    drops and by the order of the sums. On ``n`` cells of width ``h``,
    with ``M`` the larger of ``|lo|`` and ``|hi|``, ``u = 2**-53`` and
    ``g = n u / (1 - n u)``, which bounds the rounding of a sum of ``n
    - 1`` terms relative to the sum of their magnitudes (``n`` for ``n -
    1`` takes in the second-order terms), and with the dropped cells'
    ``e_z``, ``e_m`` and ``e_v`` of :func:`_window_depth`:
    - z0 sums nonnegative terms: ``r_z = 2 g + e_z`` relative;
    - ``log_z = peak + log(z0)``: ``r_z`` plus one rounding of the log
      (within 2 ulps) and of the sum, on each side;
    - each mean is within ``(2 g + u) M`` of its exact weighted mean,
      and the exact means are ``e_m`` apart;
    - each variance is its exact value about its own mean, ``V + (mean
      - exact mean)**2``, within ``2 g + 7 u`` relative (five roundings
      per term, the sum, the division), and the two ``V`` are ``e_z V
      + e_v + e_m**2`` apart.
    """
    reference = _full_grid(table, tau, grid)
    try:
        log_z, mean, variance = quadrature_log_moments(table, tau, grid)
    except NormalizerUnderflowError:
        assert reference == VANISHED
        return
    assert reference != VANISHED
    q, (ref_log_z, ref_mean, ref_variance, z0) = reference
    n = len(q)
    u = 2.0**-53
    g = n * u / (1.0 - n * u)
    h = (q[-1] - q[0]) / (n - 1)
    big = max(abs(q[0]), abs(q[-1]))
    cut = 2.0 * (n - 1) * math.exp(-_window_depth(n))
    e_z, e_m, e_v = cut, cut * (n - 1) * h, cut * ((n - 1) * h) ** 2
    r_z = 2.0 * g + e_z
    tol_log_z = r_z + 4.0 * u * abs(math.log(z0)) + 2.0 * u * abs(ref_log_z)
    tol_mean = 2.0 * (2.0 * g + u) * big + e_m
    tol_variance = (
        (4.0 * g + 14.0 * u + e_z) * ref_variance
        + e_v + e_m**2 + 2.0 * ((2.0 * g + u) * big) ** 2
    )
    assert abs(log_z - ref_log_z) <= tol_log_z, (log_z, ref_log_z, tol_log_z)
    assert abs(mean - ref_mean) <= tol_mean, (mean, ref_mean, tol_mean)
    assert abs(variance - ref_variance) <= tol_variance, (variance, ref_variance, tol_variance)


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
@given(
    st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300),
    st.floats(1e-320, 1e300),
    st.sampled_from([1001, 2001, 20001]),
)
@example(0.0, 5e-324, 2001)  # the step underflows to 0.0
@example(-5e-324, 1e-323, 1001)
@example(-1e300, 2e300, 20001)
@example(-3, 10, 1001)  # integer bounds, as GridSpec accepts them
def test_grid_is_linspace_bitwise(lo, width, n):
    hi = lo + width
    assume(lo < hi)
    assert _grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes()


# the explicit-vanished pin: every cell's log density overflows to -inf
VANISHED_GRID = (
    BeliefTable(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[1.0, 1.0], [0.5, 0.5]]), 0.9),
    Transition(0, 0, 0.0, 1),
    GridSpec(1e200, 2e200),
)


# both priors (0, 1e-10), gamma 0.9 and sigma_w 0.1, with targets 1000
# (variance 1e-10) and 2.07 (variance 1): branch 0 dominates while its own
# log CDF factor is -6.2e15, so sum - own of its other factors cancels and
# runs 0.465 low, on a log density of -1.6e8; the probe must take the
# same sum to stay below the density's maximum
CANCELLING_OWN_FACTOR = (
    BeliefTable(np.array([[0.0, 0.0], [1000 / 0.9, 2.07 / 0.9]]),
                np.array([[1e-10, 1e-10], [1e-10 / 0.81, 1 / 0.81]]),
                gamma=0.9, sigma_w=0.1, variance_floor=1e-300),
    Transition(0, 0, 0.0, 1),
    GridSpec(n=2001),
)


# six actions with means from 3e-6 to 2e5 and variances from 6e-10 to 2:
# the log density peaks at -5.6e11, where a probe whose CDF factors were
# summed apart from the density's would overshoot its maximum by 1574;
# draw 2575 of default_rng(5) over the robustness ranges, which the
# derandomized transitions above never draw
DEEP_SIX_ACTION_PEAK = (
    BeliefTable(
        np.array([
            [-0.16044581581732975, 0.009521275980401601, -0.033344092757816295,
             -0.005367472704059348, -214.77198412906804, -2.78801382114872e-06],
            [178589.56972056328, 2.5871812491021196e-06, 5571.414677627876,
             -0.0019513214107992245, -26070.30558865654, 217.23742579555918],
        ]),
        np.array([
            [5.4475025213924735e-09, 1.580603324649907e-06, 6.740400781744346e-08,
             3.662797361962432e-05, 6.147343864422521e-10, 0.0003448057201493071],
            [1.2712025775281596e-09, 0.020674472095510866, 2.3382973911481946,
             1.5190879439501037, 0.22464736310079286, 2.6720986231653457e-07],
        ]),
        gamma=0.5478852388649459, sigma_w=0.1, variance_floor=1e-300,
    ),
    Transition(0, 0, -0.00017322485037116008, 1),
    GridSpec(n=2001),
)


# one action, noiseless: a Gaussian part rounded apart from the
# density's would put the probe 1 ulp above its maximum,
# -3.644735269575116 against -3.6447352695751163
ONE_ULP_GAUSSIAN_PART = (
    BeliefTable(np.array([[1.0], [-1.0]]), np.array([[1.0], [1.0]]), gamma=0.5,
                sigma_w=0.0, variance_floor=1e-300),
    Transition(0, 0, -1.0, 1),
    GridSpec(n=1001),
)


@settings(max_examples=300)
@given(transitions())
@example(VANISHED_GRID)
@example(CANCELLING_OWN_FACTOR)
@example(DEEP_SIX_ACTION_PEAK)
@example(ONE_ULP_GAUSSIAN_PART)
def test_window_probe_is_a_lower_bound_up_to_rounding(case):
    # the probe is one summand of the log density's log-sum-exp at its
    # cell, by construction, so no rounding may lift it above the maximum
    q, branches = _grid_and_branches(*case)
    with np.errstate(over="ignore", invalid="ignore"):
        probe = _window_probe(q, branches)
        peak = float(_log_density(q, branches).max())
    if peak == -math.inf:
        assert probe == -math.inf
    else:
        assert probe <= peak, (probe, peak)


# the narrow pins' posterior: its mass sits on one cell at the window's
# edge, so summing the window without the empty cell beside it drops half
# of that cell's trapezoid weight and moves log_z by exactly -ln 2
EDGE_CELL = (
    BeliefTable(np.array([[0.0, 0.0, 0.0], [-2.0, -2.0, 4.5]]),
                np.array([[1e-10] * 3, [1.0] * 3]), gamma=0.9, variance_floor=1e-300),
    Transition(0, 0, 0.0, 1),
    GridSpec(n=2001),
)


@settings(max_examples=300)
@given(transitions())
@example(CANCELLING_OWN_FACTOR)
@example(EDGE_CELL)
def test_window_matches_full_grid_within_bound(case):
    _assert_within_window_bound(*case)


@settings(max_examples=100)
@given(transitions(), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
def test_window_matches_full_grid_on_explicit_bounds(case, shift, width):
    # bounds placed relative to the auto-sized grid, from covering all of
    # the mass to cutting it at either edge
    table, tau, grid = case
    auto_lo, auto_hi = _auto_bounds(_branch_arrays(table, tau))
    span = auto_hi - auto_lo
    lo = auto_lo + shift * span
    _assert_within_window_bound(table, tau, GridSpec(lo, lo + width * span, grid.n))


def _assert_window_holds_mass(table: BeliefTable, tau: Transition, grid: GridSpec) -> None:
    # every cell whose integrand is above exp(-depth) of the peak's 1
    q, arrays = _grid_and_branches(table, tau, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        i0, i1 = _mass_window(q, arrays)
        log_f = _log_density(q, arrays)
    peak = log_f.max()
    if peak == -np.inf:
        return
    mass = np.flatnonzero(log_f - peak > -_window_depth(len(q)))
    assert i0 <= mass[0] and mass[-1] < i1, (i0, i1, mass[0], mass[-1])


@settings(max_examples=300)
@given(transitions())
@example(CANCELLING_OWN_FACTOR)
def test_window_holds_every_cell_with_mass(case):
    _assert_window_holds_mass(*case)


@settings(max_examples=100)
@given(transitions(), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
def test_window_holds_every_cell_with_mass_on_explicit_bounds(case, shift, width):
    table, tau, grid = case
    auto_lo, auto_hi = _auto_bounds(_branch_arrays(table, tau))
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
    # so large that its rounding exceeds the window's depth
    table, tau, grid = case
    branches = _branch_arrays(table, tau)
    mu_bar, var_bar, log_c = branches.mu_bar, branches.var_bar, branches.log_c
    top = max(range(len(mu_bar)), key=lambda b: log_c[b] - 0.5 * math.log(var_bar[b]))
    sd = math.sqrt(var_bar[top])
    lo, hi = mu_bar[top] + (shift - 1.0) * width * sd, mu_bar[top] + (shift + 1.0) * width * sd
    _assert_window_holds_mass(table, tau, GridSpec(lo, hi, grid.n))


def _changes(old, new) -> list[str]:
    """What moved between a stored and a fresh ``expected``, field by field."""
    if VANISHED in (old, new):
        return [] if old == new else [f"{old} -> {new}"]
    names = ("log_z", "mean", "variance")
    return [
        f"{name} {float.fromhex(a)!r} -> {float.fromhex(b)!r}"
        for name, a, b in zip(names, old, new) if a != b
    ]


if __name__ == "__main__":
    cases = _instances(np.random.default_rng(20171208))
    for i, case in enumerate(cases):
        case["expected"] = _observed(*_build(case))
        if i < len(CASES):
            for change in _changes(CASES[i]["expected"], case["expected"]):
                print(f"pin {i} ({case['kind']}): {change}")
    lines = ",\n".join(json.dumps(case) for case in cases)
    DATA.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} pinned quadratures to {DATA}")
