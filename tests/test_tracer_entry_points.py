"""The benchmark's tracer finds every entry point it wraps.

``perfbench/tracer.py`` replaces module attributes such as
``adfq.posterior.td_components`` by traced wrappers and raises when one
is missing, so renaming or deleting such an attribute would otherwise
fail only a traced benchmark run.
"""

from support import SRC_DIR, run_python


def test_tracer_installs():
    result = run_python(
        "-c",
        'import sys; sys.path.insert(0, "perfbench"); from tracer import Tracer; Tracer().install()',
        cwd=SRC_DIR.parent,
    )
    assert result.returncode == 0, result.stderr
