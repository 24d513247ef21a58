"""The README's library example runs as written and names the package surface,
its table of maximal families is the audit's, its counterexamples are what the
command prints, and it names the Python versions CI runs and the commands its
smoke test runs."""

from __future__ import annotations

import pathlib
import re

import natreg
from natreg.cli import main
from natreg.morphisms import Axis, CategoryKind
from natreg.naturality import MAXIMAL
from natreg.regression import AlgorithmKind

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


def test_readme_maximal_families_are_the_audits():
    text = README.read_text(encoding="utf-8")
    header, _, *rows = re.search(r"^\| \| target .*?\n(?=\n)", text, re.M | re.S)[0].splitlines()
    axes = [Axis(name) for name in header.strip("| ").split(" | ")]
    table = {}
    for row in rows:
        algorithm, *families = row.strip("| ").split(" | ")
        table[AlgorithmKind(algorithm)] = dict(zip(axes, map(CategoryKind, families)))
    assert table == MAXIMAL


def test_readme_counterexamples_are_what_the_command_prints(capsys):
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"```text\n(shear counterexample.*?)```", text, re.DOTALL)
    assert main(["counterexamples"]) == 0
    assert capsys.readouterr().out == block


def test_readme_tests_section_names_each_command_ci_smoke_tests():
    workflow = (README.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = re.search(r"- name: Console script\n.*?run: \|\n(.*?)(?=\n      - |\Z)", workflow, re.S)[1]
    commands = {f"natreg {command}" for command in re.findall(r"^\s*natreg (\S+)", step, re.M)}
    assert {"natreg audit", "natreg counterexamples", "natreg fit", "natreg --version"} <= commands
    tests = re.search(r"^## Tests\n(.*?)^## ", README.read_text(encoding="utf-8"), re.M | re.S)[1]
    tests = " ".join(tests.split())  # a command may break across lines
    assert [command for command in sorted(commands) if command not in tests] == []


def test_readme_lists_the_python_versions_ci_runs():
    workflow = README.parent / ".github" / "workflows" / "tests.yml"
    matrix = re.search(r"python-version: \[(.*?)\]", workflow.read_text(encoding="utf-8"))[1]
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"on Python ((?:3\.\d+(?:,? and |, )?)+)", text)[1]
    assert re.findall(r"3\.\d+", listed) == re.findall(r"3\.\d+", matrix)
