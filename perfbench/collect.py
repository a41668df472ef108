"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out summary.json

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one run
at a time, for its ``run_seconds``, and reports for every metric its
median, quartiles (``statistics.quantiles`` with n=4) and spread, the
quartile distance as a share of the median. End-to-end runs also
summarise the unscaled timings that run.py prints as ``note unscaled``
lines. This is how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNSCALED = "note unscaled "


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    summary: dict = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs, unscaled = [], defaultdict(list)
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            for line in lines:
                if line.startswith(UNSCALED):
                    key, _, value = line[len(UNSCALED):].partition(" = ")
                    unscaled[key].append(float(value))
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
        metrics = {
            key: summarise([r["metrics"][key]["value"] for r in runs])
            for key in runs[0]["metrics"]
        }
        summary[name] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        if unscaled:
            summary[name]["unscaled"] = {key: summarise(v) for key, v in unscaled.items()}
        for key, s in metrics.items():
            print(f"{name} {key}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
