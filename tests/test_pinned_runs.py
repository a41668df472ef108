"""Byte-for-byte pins of three short ``adfq`` CLI runs.

``data/pinned_runs/`` holds the CSVs each run wrote when the set was
recorded. The runs cover the online loop with Thompson sampling, a
50-action fixed-trajectory replay beside Q-learning, and the quadrature
twin with epsilon-greedy on the maze, so any change to a random stream,
the update arithmetic or the CSV format shows here. Each run goes
through ``adfq.cli.main`` in-process at ``--seed 0 --trials 1 --jobs 1``.

Re-record only for an intended change of output, with
``PYTHONPATH=src python tests/test_pinned_runs.py``; it prints each CSV
whose bytes change, with its count of differing rows and, for each
numeric column, the largest relative change of a value.
"""

from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

import pytest

from adfq.cli import main

DATA = Path(__file__).with_name("data") / "pinned_runs"

BELIEF_FLAGS = (
    "--init-variance", "100",
    "--variance-floor", "1e-10",
    "--alpha0", "0.5",
    "--n0", "0",
    "--grid-points", "2001",
)

RUNS = {
    "loop-ts": (
        "learn",
        "--domain", "loop", "--slip", "0.1", "--gamma", "0.95",
        "--agent", "adfq", "--policy", "ts", "--epsilon", "0.1",
        "--temperature", "1.0", "--sigma-w", "0.1",
        "--init-mean-low", "0", "--init-mean-high", "20",
        *BELIEF_FLAGS,
        "--horizon", "2000", "--eval-every", "100",
    ),
    "arms50-conv": (
        "convergence",
        "--domain", "arms", "--n-arms", "50", "--slip", "0", "--gamma", "0.9",
        "--agents", "adfq,qlearning", "--sigma-w", "0.1",
        "--init-mean-low", "0", "--init-mean-high", "1",
        *BELIEF_FLAGS,
        "--horizon", "600", "--eval-every", "30",
    ),
    "maze-numeric": (
        "learn",
        "--domain", "maze", "--slip", "0", "--gamma", "0.95",
        "--agent", "adfq-numeric", "--policy", "egreedy", "--epsilon", "0.1",
        "--temperature", "1.0", "--sigma-w", "0.1",
        "--init-mean-low", "0", "--init-mean-high", "1",
        *BELIEF_FLAGS,
        "--horizon", "300", "--eval-every", "20",
    ),
}


def _csvs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def _run(name: str, out_dir: Path) -> dict[str, bytes]:
    """CSV bytes the run writes, by file name."""
    argv = [*RUNS[name], "--seed", "0", "--trials", "1", "--jobs", "1", "--out", str(out_dir)]
    assert main(argv) == 0
    return _csvs(out_dir)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_writes_the_pinned_csvs(name, tmp_path):
    recorded = _csvs(DATA / name)
    assert recorded, f"no pinned CSVs for {name}"
    assert _run(name, tmp_path) == recorded


def _differing_rows(old: bytes, new: bytes) -> int:
    """Lines that differ between two CSVs, counting those only one has."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    shared = sum(a != b for a, b in zip(old_rows, new_rows))
    return shared + abs(len(old_rows) - len(new_rows))


def _largest_relative_changes(old: bytes, new: bytes) -> dict[str, float]:
    """Per numeric column, the largest ``|new - old| / max(|old|, |new|)`` over shared rows."""
    old_rows = list(csv.reader(old.decode().splitlines()))
    new_rows = list(csv.reader(new.decode().splitlines()))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return {}
    changes = {}
    for j, name in enumerate(old_rows[0]):
        worst = 0.0
        for a, b in zip(old_rows[1:], new_rows[1:]):
            try:
                x, y = float(a[j]), float(b[j])
            except ValueError:
                break
            if x != y:
                worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
        else:
            changes[name] = worst
    return changes


if __name__ == "__main__":
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            written = _run(name, Path(tmp))
        target = DATA / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.glob("*.csv"):
            was, now = old.read_bytes(), written.get(old.name, b"")
            if was != now:
                largest = ", ".join(
                    f"{column} {change:.3g}"
                    for column, change in _largest_relative_changes(was, now).items()
                )
                print(f"{name}/{old.name}: {_differing_rows(was, now)} rows differ; "
                      f"largest relative change: {largest}", file=sys.stderr)
            old.unlink()
        for file_name, data in written.items():
            (target / file_name).write_bytes(data)
        print(f"wrote {', '.join(written)} to {target}", file=sys.stderr)
