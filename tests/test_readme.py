"""The README's examples run: every ``python`` block executes, and every
``tropmat`` line of its ``sh`` blocks exits 0 with one JSON object, so the
document cannot keep naming an API that is gone."""

import json
import re
import shlex
from pathlib import Path

import pytest

from tropmat import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


CLI_LINES = [
    line.strip() for block in blocks("sh") for line in block.splitlines()
    if line.strip().startswith("tropmat ")
]


def test_the_readme_has_examples():
    assert len(blocks("python")) >= 1 and len(CLI_LINES) >= 12


@pytest.mark.parametrize("block", blocks("python"))
def test_each_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", CLI_LINES)
def test_each_cli_line_prints_one_json_object(capsys, line):
    code = cli.main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("\n") == 1 and isinstance(json.loads(out), dict)
