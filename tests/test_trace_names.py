"""The natreg names that the benchmark's trace binds still exist.

``benchmarks/trace_child.py`` rebinds about twenty natreg functions by name
(``install``).  Tier-1 does not run ``pytest benchmarks``, so without this
test a removal from ``src/`` that deletes one of those names fails nothing
until the benchmark runs.  The trace is installed in a fresh interpreter, so
no other test sees its rebinding; nothing under ``benchmarks/`` is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import natreg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRACED_RUN = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
import trace_child, tracer
main = trace_child.install(tracer.Tracer())
results = []
for argv in (["audit", "--trials", "2"], ["counterexamples"]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    results.append([argv, code, err.getvalue()])
print(json.dumps(results))
"""


def test_benchmark_trace_installs_and_its_traced_cli_runs():
    src = os.path.dirname(os.path.dirname(natreg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, os.path.join(ROOT, "benchmarks")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert [(argv, code) for argv, code, _ in results] == [
        (["audit", "--trials", "2"], 0),
        (["counterexamples"], 0),
    ], results
