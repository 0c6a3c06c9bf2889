"""The README's library example runs as written, and the names it says
the package root exports are `toricover.__all__`."""

from __future__ import annotations

import re
from pathlib import Path

import toricover

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_python_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_lists_the_exported_names():
    (paragraph,) = re.findall(r"^The package root exports .*?\n\n", README, re.S | re.M)
    names = re.findall(r"`(\w+)`", paragraph.split(":", 1)[1].split(". ", 1)[0])
    assert len(names) == 21
    assert names == sorted(toricover.__all__)
