"""The benchmark's tracer finds every entry point it wraps, and sees them run.

``perfbench/tracer.py`` replaces module attributes such as
``adfq.posterior.td_components`` by traced wrappers and raises when one
is missing, so renaming or deleting such an attribute would otherwise
fail only a traced benchmark run. A wrapped attribute that no runtime
path calls would read 0 calls in every traced run, so short CLI runs
check that the per-branch builder, the peak solve, the policy and the
environment step are the live code.
"""

import json

import pytest
from support import SRC_DIR, run_python

TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
import adfq.cli
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = tracer.span("cli", "main", adfq.cli.main)(sys.argv[1:])
summary = tracer.summary("cli.main")
summary["beliefs.terminal_components.calls"] = len(
    tracer.self_s.get("beliefs.terminal_components", ())
)
print(json.dumps({"rc": rc, **summary}))
"""


def test_tracer_installs():
    result = run_python(
        "-c",
        'import sys; sys.path.insert(0, "perfbench"); from tracer import Tracer; Tracer().install()',
        cwd=SRC_DIR.parent,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv, live",
    [
        (("learn", "--domain", "loop", "--agent", "adfq", "--policy", "ts"),
         ("beliefs.td_components", "engine.solve_peak_mean", "agents.select_action",
          "envs.step")),
        (("learn", "--domain", "maze", "--agent", "adfq-numeric"),
         ("beliefs.td_components",)),
        (("convergence", "--domain", "arms", "--n-arms", "10", "--agents", "adfq"),
         ("beliefs.td_components", "beliefs.terminal_components", "engine.solve_peak_mean")),
    ],
    ids=["learn-adfq", "learn-adfq-numeric", "convergence-arms"],
)
def test_traced_run_counts_the_live_code(tmp_path, argv, live):
    result = run_python(
        "-c", TRACED_RUN, *argv,
        "--horizon", "200", "--eval-every", "200", "--trials", "1", "--seed", "1",
        "--out", str(tmp_path),
        cwd=SRC_DIR.parent,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["rc"] == 0
    for key in live:
        assert summary[f"{key}.calls"] > 0, key
