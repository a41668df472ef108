"""Demo scripts run end to end against the package."""

import re

from support import SRC_DIR, run_python

DEMOS = SRC_DIR.parent / "demos"


def test_belief_update_walkthrough(tmp_path):
    result = run_python(str(DEMOS / "01_belief_update_walkthrough.py"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    densities = re.findall(r"density of max\(V\) at [-+]\d\.\d: (\S+)", result.stdout)
    assert densities == ["0.00000", "0.00000", "0.05946", "0.56419", "0.05947"]
