"""Shared test helpers: acceptance criteria report their verdicts here."""

from __future__ import annotations

import json

_criterion_lines: list[tuple[int, str]] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    """Remember one acceptance verdict; printed after the run as well."""
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] acceptance {number}: {description}"
    _criterion_lines.append((number, line))
    print(line)


def no_fork():
    """Stands in for ``os.fork`` where no process can be forked."""
    raise OSError("no process to spare")


def strict_json(text: str):
    """``json.loads(text)``, refusing the ``Infinity`` and ``NaN`` that strict JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
