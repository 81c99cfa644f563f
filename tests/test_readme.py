"""The README's Python examples and its command-line block run as written."""

import os
import re
import shlex

import pytest

from orbitcodes.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
README = os.path.join(ROOT, "README.md")

with open(README, encoding="utf-8") as fh:
    TEXT = fh.read()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
COMMANDS = [shlex.split(line, comments=True) for line in re.search(
    r"^## Command line\n.*?^```sh\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)[1].splitlines()]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, README, "exec"), {"__name__": "readme"})


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    """Each command exits 0, in order, in an empty directory; paths into
    src/ name the files a checkout ships."""
    monkeypatch.chdir(tmp_path)
    assert len(COMMANDS) == 10
    for prog, *argv in COMMANDS:
        argv = [os.path.join(ROOT, word) if word.startswith("src/") else word
                for word in argv]
        assert (prog, main(argv)) == ("orbitcodes", 0), argv
