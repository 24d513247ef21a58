"""The README's library example runs as written and names the package surface."""

from __future__ import annotations

import pathlib
import re

import natreg

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    assert "agreement:" in capsys.readouterr().out


def test_package_exports_exactly_the_readme_names():
    # attribute uses such as natreg.run_audit, not imports from submodules
    used = set(re.findall(r"(?<!from )\bnatreg\.(\w+)", _library_example()))
    assert sorted(natreg.__all__) == sorted(used)
