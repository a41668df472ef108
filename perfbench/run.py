"""adfq benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload loop-ts --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every workload run is a fresh
``python3 perfbench/child.py`` process making one ``adfq.cli.main``
call with ``--jobs 1``. With ``--trace 0`` the benchmark measures:

* ``updates_per_s`` and ``peak_rss_mb``: medians over the timed runs of
  the workload at ``--seed`` that fit in ``--seconds``;
* ``setup_s``: median over up to SETUP_PROBES fresh processes, run
  between the timed runs, of the time from spawning the process to the
  end of a horizon-0 run (import, domain build, ``optimal_q``, agent
  construction and one evaluation);
* both timings are scaled to the reference host speed: each process
  times a fixed calibration loop several times next to the workload
  (see REFERENCE_CALIBRATION_S), and the unscaled medians are printed
  as notes;
* ``final_rmse``: the trial-mean RMSE at the last evaluation of the run
  at the seed of reference.json, whose values it must match.

With ``--trace 1`` it runs the workload untraced and traced (tracer.py)
in pairs for ``--seconds``, requires byte-identical CSVs within each
pair, and reports the per-layer metrics (medians over the traced runs),
``trace.overhead_s`` and an isolated ``adfq_update`` sweep.

Every run checks its outputs: exit status, CSV row counts, finite
values, byte-identical CSVs across runs of one seed, and the reference
values. A process that fails a check counts in ``failed``. The last
line of stdout is the JSON result; the lines above it name every
metric with its unit, the run metadata and any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

# Median time of child.calibrate() on the 2-vCPU Xeon VM of
# baseline.json. Each timing is scaled by (reference / mean calibration
# time measured around it), so the host's drifting speed cancels out.
# The mean, not the median: the host switches between a fast and a slow
# speed within a second, and the workload's time is the time-weighted
# mix of both, which the mean of the samples estimates.
REFERENCE_CALIBRATION_S = 0.025
SETUP_PROBES = 9
MIN_ROUNDS = 5
MIN_TRACE_ROUNDS = 2
SWEEP_SECONDS = 2.0
CHILD_TIMEOUT_S = 150.0
# admits last-bit differences from reordered float sums
REL_TOL = 1e-9
ABS_TOL = 1e-12
CSV_HEADER = ["trial", "step", "rmse", "greedy_return", "wall_ms"]

CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Tally:
    """Counts attempted workload processes and the checks they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return not problems


def spawn(*args: object) -> tuple[dict | None, list[str]]:
    """Run child.py with ``args``; return its JSON result and any problems."""
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    if args[0] == "run":
        cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, [f"exit status {proc.returncode}: {tail[0]}"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, [f"unreadable result line {lines[-1][:80]!r}"]
    if result.get("rc", 0) != 0:
        return None, [f"adfq exited with status {result['rc']}"]
    return result, []


def read_csvs(out_dir: Path, w: Workload, horizon: int, trials: int):
    """Check the CSVs of one run.

    Returns the problems found, the trial-mean ``(rmse, greedy_return)``
    at the last evaluation per agent, and the bytes of every CSV.
    """
    rows_expected = trials * (horizon // w.eval_every + 1)
    problems: list[str] = []
    finals: dict[str, tuple[float, float]] = {}
    blob = b""
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        blob += path.name.encode() + b"\n" + data
        agent = path.name.split("_")[2]
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        if not rows or rows[0] != CSV_HEADER:
            problems.append(f"{path.name}: unexpected header")
            continue
        if len(rows) - 1 != rows_expected:
            problems.append(f"{path.name}: {len(rows) - 1} rows, expected {rows_expected}")
        try:
            values = [(int(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]
        except (ValueError, IndexError):
            problems.append(f"{path.name}: malformed row")
            continue
        if not values or not all(math.isfinite(v) for _, *pair in values for v in pair):
            problems.append(f"{path.name}: missing or non-finite values")
            continue
        last = max(step for step, _, _ in values)
        final = [(rmse, ret) for step, rmse, ret in values if step == last]
        finals[agent] = (statistics.fmean(r for r, _ in final),
                         statistics.fmean(g for _, g in final))
    if not problems and sorted(finals) != sorted(w.agents):
        problems.append(f"CSVs for agents {sorted(finals)}, expected {sorted(w.agents)}")
    return problems, finals, blob


def run_workload(name: str, seed: int, out_dir: Path, *flags: str,
                 horizon: int | None = None, trials: int | None = None):
    """One checked workload process; returns (result, finals, csv bytes, problems)."""
    w = WORKLOADS[name]
    out_dir.mkdir(parents=True)
    result, problems = spawn("run", name, seed, out_dir, *flags)
    finals, blob = {}, b""
    if result is not None:
        csv_problems, finals, blob = read_csvs(
            out_dir, w, w.horizon if horizon is None else horizon,
            w.trials if trials is None else trials,
        )
        problems += csv_problems
    return result, finals, blob, problems


def reference_run(name: str, work: Path, tally: Tally) -> dict[str, tuple[float, float]] | None:
    """Run the workload at the reference seed and compare with reference.json."""
    result, finals, _, problems = run_workload(name, REFERENCE["seed"], work / "reference")
    for agent, expected in REFERENCE["workloads"][name].items():
        got = dict(zip(("final_rmse", "final_return"), finals.get(agent, ())))
        for label, value in got.items():
            if not math.isclose(value, expected[label], rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"{agent} {label} {value!r} != reference {expected[label]!r}")
    tally.record("reference run", problems)
    return finals if sorted(finals) == sorted(WORKLOADS[name].agents) else None


def end_to_end(name: str, seed: int, seconds: float, work: Path, tally: Tally):
    """Reference run, then timed runs alternating with set-up runs.

    Alternating lets ``setup_s`` and ``updates_per_s`` sample the same
    spells of a machine whose speed drifts; the loop stops before a
    further round would overrun ``seconds``.
    """
    w = WORKLOADS[name]
    start = time.monotonic()
    reference = reference_run(name, work, tally)
    setup, raw_setup, rates, raw_rates, rss, rounds = [], [], [], [], [], []
    first_blob, seed_finals = None, {}
    while (len(rounds) < MIN_ROUNDS
           or time.monotonic() - start + statistics.fmean(rounds) <= seconds):
        t0 = time.monotonic()
        i = len(rounds)
        result, finals, blob, problems = run_workload(name, seed, work / f"timed{i}")
        if result is not None and first_blob is None:
            first_blob, seed_finals = blob, finals
        elif result is not None and blob != first_blob:
            problems.append("CSV bytes differ from the first run of this seed")
        if tally.record(f"timed run {i}", problems):
            speed = statistics.fmean(result["calibration_s"]) / REFERENCE_CALIBRATION_S
            raw_rates.append(w.updates / result["wall_s"])
            rates.append(raw_rates[-1] * speed)
            rss.append(result["peak_rss_mb"])
        if i < SETUP_PROBES:
            result, _, _, problems = run_workload(name, seed, work / f"setup{i}", "--setup",
                                                  horizon=0, trials=1)
            if tally.record(f"set-up run {i}", problems):
                raw_setup.append(result["ready_s"])
                setup.append(raw_setup[-1] * REFERENCE_CALIBRATION_S
                             / statistics.fmean(result["calibration_s"]))
        shutil.rmtree(work / f"timed{i}")
        rounds.append(time.monotonic() - t0)

    if not setup or not rates or reference is None:
        return None, {}
    metrics = {
        "setup_s": statistics.median(setup),
        "updates_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
        "final_rmse": reference[w.agents[0]][0],
    }
    seed_rmse, seed_return = seed_finals.get(w.agents[0], (math.nan, math.nan))
    notes = {
        "timed runs": len(rates),
        "set-up runs": len(setup),
        "unscaled updates_per_s": statistics.median(raw_rates),
        "unscaled setup_s": statistics.median(raw_setup),
        f"final_return (seed {REFERENCE['seed']})": reference[w.agents[0]][1],
        f"final_rmse (seed {seed})": seed_rmse,
        f"final_return (seed {seed})": seed_return,
    }
    return metrics, notes


def traced(name: str, seed: int, seconds: float, work: Path, tally: Tally):
    """Reference run, then untraced/traced pairs, then the ``adfq_update`` sweep.

    Pairs alternate which side runs first and repeat while they fit in
    ``seconds``; each layer metric is the median over the traced runs
    and ``trace.overhead_s`` the median of traced minus untraced time.
    """
    start = time.monotonic()
    reference = reference_run(name, work, tally)
    layers, overheads, rounds = [], [], []
    while (len(rounds) < MIN_TRACE_ROUNDS
           or time.monotonic() - start + statistics.fmean(rounds) + SWEEP_SECONDS <= seconds):
        t0 = time.monotonic()
        i = len(rounds)
        runs = {}
        for flags in (((), ("--trace",)) if i % 2 == 0 else (("--trace",), ())):
            runs[flags] = run_workload(name, seed, work / f"{i}{''.join(flags)}", *flags)
        plain, _, plain_blob, problems = runs[()]
        tally.record(f"untraced run {i}", problems)
        spans, _, spans_blob, problems = runs[("--trace",)]
        if spans is not None and plain is not None and spans_blob != plain_blob:
            problems.append("traced CSV bytes differ from the untraced run")
        if tally.record(f"traced run {i}", problems) and plain is not None:
            layers.append(spans["layers"])
            overheads.append(spans["wall_s"] - plain["wall_s"])
        rounds.append(time.monotonic() - t0)
    sweep, problems = spawn("sweep", seed, SWEEP_SECONDS)
    tally.record("adfq_update sweep", problems)
    if reference is None or not layers or sweep is None:
        return None, {}
    metrics = {key: statistics.median(run[key] for run in layers) for key in layers[0]}
    metrics.update(sweep)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, {"traced pairs": len(layers)}


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(name: str, seed: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "reference_seed": REFERENCE["seed"],
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "processes_per_run": 1,
        "jobs": 1,
        "argv": WORKLOADS[name].argv(seed, "OUT"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="adfq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "adfq" / "__init__.py").is_file():
        print(f"error: no adfq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics, notes = traced(args.workload, args.seed, args.seconds, work, tally)
        else:
            metrics, notes = end_to_end(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    for failure in tally.failures:
        print(f"FAILED {failure}")
    if metrics is None:
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1
    print(f"meta {json.dumps(run_metadata(args.workload, args.seed))}")
    for key, value in notes.items():
        print(f"note {key} = {value}")
    print(f"failed_frac = {len(tally.failures) / tally.attempted} "
          f"({len(tally.failures)} of {tally.attempted} workload processes)")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
