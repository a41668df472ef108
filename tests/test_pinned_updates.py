"""Bitwise regression pins for ``adfq_update``.

``data/pinned_updates.json`` holds a seeded set of transitions at
A in {1, 2, 4, 10, 50} (moderate instances, instances spanning means
from 1e-6 to 1e6 and variances from 1e-10 to 1e2, tied next-action
means, terminal transitions) together with the posterior and every
per-branch value the update produced when the set was recorded, the
peaks of the branches it skips solved on demand by
``support.all_branches``. Floats
are stored as ``float.hex`` strings, so the comparison is exact: any
change to the order or grouping of the update's arithmetic shows here.

Re-record only for an intended numerical change, with
``PYTHONPATH=src python tests/test_pinned_updates.py``; it prints each
field that moved, old -> new in hex, before it rewrites the data.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from support import all_branches

from adfq.beliefs import NEGLIGIBLE_LOG_DENSITY, BeliefTable, Transition
from adfq.engine import adfq_update

DATA = Path(__file__).with_name("data") / "pinned_updates.json"
ACTION_COUNTS = (1, 2, 4, 10, 50)
BRANCH_FIELDS = ("m", "v", "c", "mu_bar", "var_bar", "log_c")
PEAK_FIELDS = ("mu_star", "var_star", "log_k_star", "weight")


def _h(x: float) -> str:
    return float(x).hex()


def _instances(rng: np.random.Generator) -> list[dict]:
    """Transitions to pin; every float is kept as its hex string."""
    out = []

    def add(kind, means, variances, r, gamma, sigma_w, terminal=False, floor=1e-10):
        out.append({
            "kind": kind,
            "means": [[_h(x) for x in row] for row in means],
            "variances": [[_h(x) for x in row] for row in variances],
            "r": _h(r),
            "gamma": _h(gamma),
            "sigma_w": _h(sigma_w),
            "variance_floor": _h(floor),
            "terminal": terminal,
        })

    for n in ACTION_COUNTS:
        for _ in range(3):
            add(
                "moderate",
                rng.uniform(-5.0, 5.0, size=(2, n)),
                rng.uniform(0.5, 3.0, size=(2, n)) ** 2,
                float(rng.uniform(-1.0, 1.0)),
                float(rng.choice([0.9, 0.95])),
                float(rng.choice([0.0, 0.1])),
            )
        for _ in range(3):
            signs = rng.choice([-1.0, 1.0], size=(2, n))
            add(
                "wide",
                signs * 10.0 ** rng.uniform(-6.0, 6.0, size=(2, n)),
                10.0 ** rng.uniform(-10.0, 2.0, size=(2, n)),
                float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)),
                float(rng.uniform(0.5, 0.99)),
                float(rng.choice([0.0, 0.1])),
            )
        # next-action means drawn from three values, so many targets tie
        levels = rng.uniform(-2.0, 2.0, size=3)
        means = np.vstack([rng.uniform(-2.0, 2.0, size=n), rng.choice(levels, size=n)])
        add(
            "tied", means, rng.uniform(0.1, 2.0, size=(2, n)),
            0.25, 0.9, float(rng.choice([0.0, 0.1])),
        )
    for sigma_w in (0.0, 0.1):
        add(
            "terminal",
            rng.uniform(-5.0, 5.0, size=(2, 4)),
            rng.uniform(0.5, 3.0, size=(2, 4)) ** 2,
            float(rng.uniform(-1.0, 1.0)), 0.9, sigma_w, terminal=True,
        )
    return out


def _build(inst: dict) -> tuple[BeliefTable, Transition]:
    f = float.fromhex
    table = BeliefTable(
        np.array([[f(x) for x in row] for row in inst["means"]]),
        np.array([[f(x) for x in row] for row in inst["variances"]]),
        gamma=f(inst["gamma"]),
        sigma_w=f(inst["sigma_w"]),
        variance_floor=f(inst["variance_floor"]),
    )
    tau = Transition(s=0, a=0, r=f(inst["r"]), s_next=1, terminal=inst["terminal"])
    return table, tau


def _observed(inst: dict) -> dict:
    res = adfq_update(*_build(inst))
    return {
        "new_mean": _h(res.new_mean),
        "new_variance": _h(res.new_variance),
        "branches": [
            [br.b]
            + [_h(math.exp(br.log_c) if k == "c" else getattr(br, k)) for k in BRANCH_FIELDS]
            + [_h(getattr(br, k)) for k in PEAK_FIELDS]
            for br in all_branches(res)
        ],
    }


# absent only while recording; the coverage test below then fails
CASES = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


@pytest.mark.parametrize("inst", CASES, ids=lambda c: f"{c['kind']}-A{len(c['means'][0])}")
def test_update_is_bitwise_pinned(inst):
    assert _observed(inst) == inst["expected"]


def _skippable_branches(inst: dict) -> int:
    """Pinned branches whose ``log_c`` lies more than 750 below the top ``log_k_star``."""
    rows = inst["expected"]["branches"]
    log_c = 1 + BRANCH_FIELDS.index("log_c")
    log_k = 1 + len(BRANCH_FIELDS) + PEAK_FIELDS.index("log_k_star")
    top = max(float.fromhex(row[log_k]) for row in rows)
    return sum(float.fromhex(row[log_c]) < top - NEGLIGIBLE_LOG_DENSITY for row in rows)


def test_pinned_set_covers_action_counts_and_ties():
    assert {len(c["means"][0]) for c in CASES} == set(ACTION_COUNTS)
    assert {"moderate", "wide", "tied", "terminal"} <= {c["kind"] for c in CASES}
    for c in CASES:
        if c["kind"] == "tied" and len(c["means"][1]) >= 4:
            assert len(set(c["means"][1])) < len(c["means"][1])
    # the update skips such branches; the pins must keep exercising that
    assert sum(_skippable_branches(c) > 0 for c in CASES) >= 5


def _changes(old: dict, new: dict) -> list[str]:
    """What moved between a stored and a fresh ``expected``, field by field."""
    names = ("b", *BRANCH_FIELDS, *PEAK_FIELDS)
    moved = [(k, old[k], new[k]) for k in ("new_mean", "new_variance")]
    for j, (row_old, row_new) in enumerate(zip(old["branches"], new["branches"])):
        moved += [(f"branch {j} {k}", a, b) for k, a, b in zip(names, row_old, row_new)]
    return [f"{name} {a} -> {b}" for name, a, b in moved if a != b]


if __name__ == "__main__":
    cases = _instances(np.random.default_rng(20171208))
    for i, case in enumerate(cases):
        case["expected"] = _observed(case)
        if i < len(CASES):
            for change in _changes(CASES[i]["expected"], case["expected"]):
                print(f"pin {i} ({case['kind']}-A{len(case['means'][0])}): {change}")
    lines = ",\n".join(json.dumps(case) for case in cases)
    DATA.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} pinned updates to {DATA}")
