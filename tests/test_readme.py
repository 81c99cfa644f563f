"""The README's Python examples run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")

with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, README, "exec"), {"__name__": "readme"})
