"""README.md's python blocks run as written, and its command lines parse,
so a changed signature or a renamed flag cannot leave them stale."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from dcboost.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The quick start's claims about its own output.
    assert np.allclose(namespace["boosted"].final_point, [-1.0, -1.0], atol=1e-4)
    assert namespace["report"].is_d_stationary
    assert len(namespace["pairs"].pairs) == 2


def _readme_commands(section: str = "Command line") -> list[str]:
    """The ``dcboost ...`` lines of the first shell block of ``section``,
    with ``\\`` continuations joined."""
    text = README.read_text().split(f"## {section}\n", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("dcboost ")]


def test_readme_has_one_command_per_subcommand():
    subcommands = [shlex.split(line)[1] for line in _readme_commands()]
    assert subcommands == ["solve", "check", "table1", "cluster", "gen"]


@pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: line.split()[1])
def test_readme_command_lines_parse(line):
    # Parsed only, not run.
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def test_what_reproduces_runs_the_pinned_experiment():
    # tests/test_claims.py pins the tables these commands write.
    parsed = [
        build_parser().parse_args(shlex.split(line)[1:])
        for line in _readme_commands("What reproduces")
    ]
    assert [(a.command, a.starts, a.seed, a.lambda_bar1, a.pss) for a in parsed] == [
        ("table1", 2000, 0, 0.5, "d1"),
        ("table1", 2000, 0, 2.0, "d1"),
    ]
