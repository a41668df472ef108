"""Demo scripts run end to end against the package."""

import re
import shlex

from support import SRC_DIR, run_python

from adfq.cli import build_parser

DEMOS = SRC_DIR.parent / "demos"
README = SRC_DIR.parent / "README.md"


def test_belief_update_walkthrough(tmp_path):
    result = run_python(str(DEMOS / "01_belief_update_walkthrough.py"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    densities = re.findall(r"density of max\(V\) at [-+]\d\.\d: (\S+)", result.stdout)
    assert densities == ["0.00000", "0.00000", "0.05946", "0.56419", "0.05947"]


def test_readme_library_example():
    section = README.read_text(encoding="utf-8").split("## Library in five lines", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    table, result = namespace["table"], namespace["result"]
    assert table.means[0, 0] == result.new_mean
    assert table.variances[0, 0] == result.new_variance


def test_readme_cli_examples_parse():
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("adfq ")]
    assert len(commands) == 5
    parser = build_parser()
    for argv in commands:
        # argparse exits on a flag or value the CLI no longer takes
        assert parser.parse_args(argv).command == argv[0]
