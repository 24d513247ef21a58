"""Traced run of one workload's CLI calls, inside a single process.

Usage: ``python3 trace_child.py SPEC OUT`` with natreg importable.  SPEC is a
JSON list of CLI argument lists.  After one warm-up sequence the calls run
once untraced and once with every wrapper installed, so the difference is
the tracer's own overhead;
then each distinct CSV is parsed once more under tracemalloc for its peak.
OUT receives the spans, counts, timings and the traced calls' outputs.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import natreg.cli as cli
import natreg.data as data
import natreg.linalg as linalg
import natreg.morphisms as morphisms
import natreg.naturality as naturality
import natreg.regression as regression
import natreg.report as report

from tracer import Tracer


def run_calls(main, commands: list[list[str]]) -> tuple[float, list[list]]:
    outputs = []
    start = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        outputs.append([code, out.getvalue(), err.getvalue()])
    return time.perf_counter() - start, outputs


def parse_peak_mb(commands: list[list[str]]) -> float:
    csvs = {}
    for argv in commands:
        options = dict(zip(argv[1::2], argv[2::2]))
        if "--data" in options:
            csvs[options["--data"]] = (int(options["--predictors"]), int(options["--targets"]))
    peak = 0
    for path, (p, q) in csvs.items():
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        tracemalloc.start()
        try:
            data.dataset_from_csv(content, p, q)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


class _TimedFile:
    """A file handle whose ``read`` is traced as the CLI's input read."""

    def __init__(self, handle, read):
        self._handle = handle
        self.read = read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def install(tracer: Tracer):
    """Wrap each layer's public entry points; returns the traced CLI main."""
    counts = tracer.counts

    def everywhere(name, fn, on_call=None):
        tracer.replace_everywhere("natreg", fn, tracer.span(name, fn, on_call))

    def audit_counts(args, audit):
        counts["naturality.trials"] += len(audit.trials)
        counts["naturality.domain_exits"] += sum(not math.isfinite(t.residual) for t in audit.trials)

    def accepted(args, morphism):
        if morphism.kind is morphisms.CategoryKind.FINVEC_ISO:
            counts["morphisms.finvec_iso_accepts"] += 1

    def traced_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        return _TimedFile(handle, tracer.span("data.read", handle.read))

    cli.open = traced_open  # shadows the builtin for the CLI module only
    everywhere("data.parse", data.dataset_from_csv)
    everywhere("data.synth", data.synth_dataset)
    everywhere("naturality.run_audit", naturality.run_audit, audit_counts)
    everywhere("naturality.counterexamples", naturality.counterexample_ols_shear)
    everywhere("naturality.counterexamples", naturality.counterexample_ridge_scaling)
    for axis, checker in list(naturality._CHECKERS.items()):
        naturality._CHECKERS[axis] = tracer.span("naturality.check", checker)
    for render in (
        report.audit_report_to_text,
        report.audit_report_to_json,
        report.counterexamples_to_text,
        report.counterexamples_to_json,
    ):
        everywhere("report.render", render)
    everywhere("regression.ols_fit", regression.ols_fit)
    everywhere("regression.ridge_fit", regression.ridge_fit)
    everywhere("regression.min_norm_ols_fit", regression.min_norm_ols_fit)
    everywhere("linalg.solve_spd", linalg.solve_spd)
    everywhere("linalg.numerical_rank", linalg.numerical_rank)
    linalg.SeedState.generator = tracer.span("linalg.seed_generator", linalg.SeedState.generator)
    everywhere("morphisms.sample", morphisms.sample_morphism, accepted)
    morphisms.condition_estimate = tracer.counter("morphisms.finvec_iso_draws", morphisms.condition_estimate)
    tracer.replace_everywhere("natreg", linalg.as_matrix, tracer.counter("linalg.as_matrix_calls", linalg.as_matrix))
    return tracer.span("cli.main", cli.main)


def main() -> None:
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as handle:
        commands = json.load(handle)
    run_calls(cli.main, commands)  # warm-up, so neither timed sequence pays first-call costs
    untraced_s, _ = run_calls(cli.main, commands)
    peak_mb = parse_peak_mb(commands)
    tracer = Tracer()
    traced_main = install(tracer)
    traced_s, outputs = run_calls(traced_main, commands)
    tracer.dump(out_path, untraced_s=untraced_s, traced_s=traced_s, parse_peak_mb=peak_mb, outputs=outputs)


if __name__ == "__main__":
    main()
