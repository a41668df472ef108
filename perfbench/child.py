"""One fresh adfq process of the benchmark; prints one JSON line on stdout.

    python3 perfbench/child.py run WORKLOAD SEED OUT_DIR --spawned T [--trace] [--setup]
    python3 perfbench/child.py sweep SEED SECONDS

``run`` makes a single ``adfq.cli.main`` call for the workload and
reports its wall time, the process's peak resident set, ``ready_s``,
the time from T (the parent's ``time.monotonic()`` when it started this
process; CLOCK_MONOTONIC is system-wide on Linux) until the call
returned, and ``calibration_s``, the times of CALIBRATION_SAMPLES runs
of ``calibrate()`` just before the call and as many just after it
(after it only for ``--setup``, which is timed from the spawn).
``--trace`` installs the span tracer first and adds the per-layer
summary; ``--setup`` runs the workload with horizon 0 and
one trial, which stops before the first update. ``sweep`` times
``adfq_update`` on seeded random belief tables at 2, 4, 10 and 50 next
actions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP_ACTIONS = (2, 4, 10, 50)
SWEEP_CASES = 32
# iterations of the three parts of calibrate(), about 9 ms each
CALIBRATION_LOOPS = (70000, 2700, 420)
CALIBRATION_SAMPLES = 5


def _check_source() -> None:
    import adfq

    if Path(adfq.__file__).resolve().parent != SRC / "adfq":
        raise SystemExit(f"imported adfq from {adfq.__file__}, not from {SRC}")


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter arithmetic, small NumPy calls
    and NumPy arithmetic on a 2001-point grid.

    It touches no adfq code, so its time tracks only the speed the host
    gives this process at the moment, which drifts on shared machines.
    The three parts stand for the kinds of work the workloads do; how
    much a slow spell of the host slows each part differs, so the mix
    tracks all three workloads better than any one part does.
    """
    import numpy as np

    interp, small, vector = CALIBRATION_LOOPS
    values = np.arange(8.0)
    grid = np.linspace(-5.0, 5.0, 2001)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(interp):
        acc += i * i % 7
    for _ in range(small):
        acc += int(np.argmax(values))
    for _ in range(vector):
        acc += float(np.sum(np.exp(-0.5 * grid * grid) * grid))
    return time.perf_counter() - t0


def run(workload: str, seed: int, out_dir: str, spawned: float, trace: bool,
        setup: bool) -> dict:
    import adfq.cli

    _check_source()
    w = WORKLOADS[workload]
    argv = w.argv(seed, out_dir, horizon=0, trials=1) if setup else w.argv(seed, out_dir)
    main = adfq.cli.main
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        main = tracer.span("cli", "main", main)
    captured = io.StringIO()
    before = [] if setup else [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = main(argv)
    wall = time.perf_counter() - t0
    ready = time.monotonic() - spawned
    after = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    if rc != 0:
        sys.stderr.write(captured.getvalue())
    result = {
        "rc": rc,
        "wall_s": wall,
        "ready_s": ready,
        "calibration_s": before + after,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary("cli.main")
    return result


def sweep(seed: int, seconds: float) -> dict:
    import numpy as np
    from adfq import BeliefTable, Transition, adfq_update

    _check_source()
    out = {}
    for n in SWEEP_ACTIONS:
        rng = np.random.default_rng([seed, n])
        cases = [
            (
                BeliefTable(rng.uniform(-5.0, 5.0, (2, n)), rng.uniform(0.01, 1.0, (2, n)),
                            gamma=0.95, sigma_w=0.1),
                Transition(0, int(rng.integers(n)), float(rng.uniform(-1.0, 1.0)), 1),
            )
            for _ in range(SWEEP_CASES)
        ]
        per_call = []
        deadline = time.perf_counter() + seconds / len(SWEEP_ACTIONS)
        while len(per_call) < 5 or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            for table, tau in cases:
                adfq_update(table, tau)
            per_call.append((time.perf_counter() - t0) / len(cases))
        out[f"engine.adfq_update.us_A{n}"] = statistics.median(per_call) * 1e6
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("out_dir")
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup", action="store_true")
    p = sub.add_parser("sweep")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    args = parser.parse_args()
    if args.mode == "run":
        result = run(args.workload, args.seed, args.out_dir, args.spawned, args.trace,
                     args.setup)
    else:
        result = sweep(args.seed, args.seconds)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
