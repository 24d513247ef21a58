"""natreg benchmark: runs the CLI the way a user does and checks every output.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload audit-default --seed 1 --seconds 27 --trace 0

Every CLI call is a fresh ``python3 -m natreg.cli`` process on the checkout's
``src``, run one after another from this process: a closed loop with one
client.  Inputs are generated here from ``--seed``.

``--trace 0`` times whole passes over the workload's command list and
prints the end-to-end metrics.  A speed probe, a fixed kernel that never
runs natreg, is timed before the first call and after every call, and each
call's wall and CPU time is scaled by the two probes around it to one
nominal host speed before it is added to its pass; the raw samples are in
the detail line.  Failed calls show as ``success_rate``, the share of calls
that pass their check: a regression bound is a share of the baseline, so a
compared metric must never read 0.  ``error_rate`` is in the detail line.
``--trace 1`` instead runs the same calls in one traced process
(``trace_child.py``) plus an import probe, and prints the per-layer metrics.
Per-layer ``*_s`` metrics are inclusive times, ``*.self_s`` exclude the time
of traced callees, and a layer the workload never reaches reads 0.  The last
stdout line is the result object; the lines before it carry run metadata and
failure reasons.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import summarize  # noqa: E402

WORKLOADS = ("audit-default", "fit-tall", "cli-short")
SETUPS = 3
IMPORT_PROBES = 3
CALL_TIMEOUT_S = 150
WORK_DIR = ".bench_work"
# The speed probe's kernel, and the seconds it takes at the nominal host speed
# to which setup_s, wall_s and cpu_s are scaled (about its median between calls
# on a 2-vCPU Xeon).  A shared host's speed drifts by 1.5x and more over seconds
# to minutes, and every timed call drifts with it.  A probe right before and
# after a call drifts alike (the call runs on the probe's vCPU when the other is
# idle); a change in natreg moves the call and not the probes.
SPEED_PROBE_LOOP = 1_200_000
SPEED_PROBE_SOLVES = 8_000
SPEED_PROBE_LINES = 10_000
SPEED_REFERENCE_S = 0.30


@dataclass(frozen=True)
class Op:
    """One CLI call and the check its output must pass."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str, str], checks.Verdict]
    repeat_exact: bool = False  # output bytes must be identical on every call


def fit_ops(case: inputs.FitCase, suffix: str = "") -> list[Op]:
    ops = []
    for algorithm in ("ols", "ridge", "minnorm-ols"):
        argv = ["fit", "--data", case.path, "--predictors", str(case.p),
                "--targets", str(case.q), "--algorithm", algorithm]
        kappa = case.kappa_x
        if algorithm == "ridge":
            argv += ["--lambda", format(inputs.RIDGE_LAMBDA, "g")]
            kappa = case.kappa_ridge
        reference = case.reference[algorithm]

        def check(code, out, err, reference=reference, kappa=kappa):
            return checks.check_fit(code, out, err, reference, kappa)

        ops.append(Op(algorithm + suffix, tuple(argv), check))
    return ops


def build_workload(name: str, seed: int, directory: str) -> list[Op]:
    """The workload's fixed command list; generates any inputs it needs."""
    if name == "audit-default":
        return [Op("audit", ("audit",), checks.check_audit_text, repeat_exact=True)]
    if name == "fit-tall":
        return fit_ops(inputs.tall_case(seed, directory))
    ops = [
        Op("counterexamples.text", ("counterexamples",), checks.check_counterexamples_text, True),
        Op("counterexamples.json", ("counterexamples", "--format", "json"),
           checks.check_counterexamples_json, True),
    ]
    for kappa in inputs.LADDER_KAPPAS:
        ops += fit_ops(inputs.ladder_case(seed, kappa, directory), "." + kappa)
    return ops


class Tally:
    """Attempted and failed operations, with each failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: dict[str, int] = {}
        self.first_output: dict[str, str] = {}
        self.rel_err: dict[str, float] = {}

    def record(self, op: Op, code: int, out: str, err: str, counted: bool = True) -> None:
        """Check one call.  Uncounted calls (warm-ups) still decide ``correct``."""
        verdict = op.check(code, out, err)
        if op.repeat_exact and verdict.ok:
            if self.first_output.setdefault(op.label, out) != out:
                verdict = checks.wrong("output bytes differ from the first call")
        self.correct = self.correct and verdict.correct
        if not counted:
            return
        self.attempted += 1
        if verdict.rel_err is not None:
            self.rel_err[op.label] = verdict.rel_err
        if not verdict.ok:
            self.failed += 1
            key = f"{op.label}: {verdict.reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call(argv, root: str, env: dict[str, str]) -> tuple[int, str, str]:
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=root, env=env, capture_output=True,
            text=True, timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -9, "", f"timed out after {CALL_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def cli_call(op: Op, root: str, env: dict[str, str]) -> tuple[int, str, str]:
    return call(["-m", "natreg.cli", *op.argv], root, env)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def speed_probe() -> float:
    """Seconds a fixed kernel takes now, in this process.

    The kernel mixes what the workloads spend their time on: interpreter
    bytecode, 4x4 numpy solves, and splitting and parsing CSV lines.
    """
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_PROBE_LOOP):
        total += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(SPEED_PROBE_SOLVES):
        a = rng.standard_normal((4, 4))
        np.linalg.solve(a @ a.T + np.eye(4), np.ones(4))
    line = ",".join(format(v, ".17g") for v in rng.standard_normal(22))
    rows = [[float(field) for field in line.split(",")] for _ in range(SPEED_PROBE_LINES)]
    del rows
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` scaled by SPEED_REFERENCE_S over the mean of the probes around them."""
    return seconds * 2 * SPEED_REFERENCE_S / (probe_before + probe_after)


class TimedCall(NamedTuple):
    result: tuple[int, str, str]
    wall_s: float
    cpu_s: float
    scaled_wall_s: float  # at the reference speed
    scaled_cpu_s: float


class ProbedCaller:
    """Runs CLI calls with a speed probe after each, the first call also preceded by one."""

    def __init__(self, root: str, env: dict[str, str]) -> None:
        self.root, self.env = root, env
        speed_probe()  # the first run pays numpy's first-call costs
        self.probes = [speed_probe()]

    def __call__(self, op: Op) -> TimedCall:
        cpu0, start = children_cpu_s(), time.perf_counter()
        result = cli_call(op, self.root, self.env)
        wall, cpu = time.perf_counter() - start, children_cpu_s() - cpu0
        self.probes.append(speed_probe())
        before, after = self.probes[-2:]
        return TimedCall(result, wall, cpu, at_reference_speed(wall, before, after),
                         at_reference_speed(cpu, before, after))


def measure(ops: list[Op], seconds: float, root: str, env: dict[str, str], tally: Tally) -> dict:
    """Set up SETUPS times, then run whole passes, at least one, until ``seconds`` are up."""
    caller = ProbedCaller(root, env)
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        shutil.rmtree(os.path.join(root, "src", "natreg", "__pycache__"), ignore_errors=True)
        timed = caller(ops[0])
        raw_setups.append(timed.wall_s)
        setups.append(timed.scaled_wall_s)
        tally.record(ops[0], *timed.result, counted=False)
    walls, cpus, raw_walls, raw_cpus = [], [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        timed = [caller(op) for op in ops]
        raw_walls.append(sum(t.wall_s for t in timed))
        raw_cpus.append(sum(t.cpu_s for t in timed))
        walls.append(sum(t.scaled_wall_s for t in timed))
        cpus.append(sum(t.scaled_cpu_s for t in timed))
        for op, t in zip(ops, timed):
            tally.record(op, *t.result)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        },
        "detail": {
            "setup_samples_s": raw_setups,
            "wall_samples_s": raw_walls,
            "cpu_samples_s": raw_cpus,
            "speed_probe_s": caller.probes,
            "wall_n": len(walls),
            "wall_tail": tail_percentile(walls),
        },
    }


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return None
    pct = int(100 * (n - 10) / n)
    return {"percentile": pct, "value_s": float(np.percentile(samples, pct))}


def import_times(root: str, env: dict[str, str]) -> tuple[float, float]:
    """Cumulative ``import natreg`` and scipy times from ``-X importtime``."""
    code, _, err = call(["-X", "importtime", "-c", "import natreg"], root, env)
    if code != 0:
        raise RuntimeError(f"import natreg failed: {err.strip()}")
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the column header
        stripped = name.lstrip()
        depth = (len(name) - len(stripped)) // 2
        entries.append((depth, stripped.strip(), int(cumulative) * 1e-6))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    natreg_s = next(s for depth, name, s in entries if name == "natreg")
    scipy_s = 0.0
    for i, (depth, name, seconds) in enumerate(entries):
        if not is_scipy(name):
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if not is_scipy(parent):
            scipy_s += seconds
    return natreg_s, scipy_s


PER_LAYER_SPANS = {
    "linalg.seed_generator_s": ("linalg.seed_generator", "total_s"),
    "linalg.seed_generator_calls": ("linalg.seed_generator", "calls"),
    "linalg.solve_spd_s": ("linalg.solve_spd", "total_s"),
    "linalg.solve_spd_calls": ("linalg.solve_spd", "calls"),
    "linalg.numerical_rank_s": ("linalg.numerical_rank", "total_s"),
    "morphisms.sample_s": ("morphisms.sample", "total_s"),
    "data.synth_s": ("data.synth", "total_s"),
    "data.read_s": ("data.read", "total_s"),
    "data.parse_s": ("data.parse", "total_s"),
    "regression.ols_fit_s": ("regression.ols_fit", "total_s"),
    "regression.ridge_fit_s": ("regression.ridge_fit", "total_s"),
    "regression.min_norm_ols_fit_s": ("regression.min_norm_ols_fit", "total_s"),
    "naturality.run_audit_s": ("naturality.run_audit", "total_s"),
    "naturality.self_s": ("naturality.run_audit", "self_s"),
    "naturality.check_s": ("naturality.check", "total_s"),
    "naturality.counterexamples_s": ("naturality.counterexamples", "total_s"),
    "report.render_s": ("report.render", "total_s"),
    "cli.self_s": ("cli.main", "self_s"),
}

PER_LAYER_COUNTS = ("linalg.as_matrix_calls", "naturality.trials", "naturality.domain_exits")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("regression.rel_err.") or name.endswith("_per_accept"):
        return "ratio"
    return "count"


def traced(ops: list[Op], root: str, env: dict[str, str], workdir: str, tally: Tally) -> dict:
    probes = [import_times(root, env) for _ in range(IMPORT_PROBES)]
    spec = os.path.join(workdir, "commands.json")
    dump = os.path.join(workdir, "trace.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump([list(op.argv) for op in ops], handle)
    code, _, err = call([os.path.join(HERE, "trace_child.py"), spec, dump], root, env)
    if code != 0:
        raise RuntimeError(f"traced run failed: {err.strip()}")
    with open(dump, encoding="utf-8") as handle:
        trace = json.load(handle)
    for op, output in zip(ops, trace["outputs"]):
        tally.record(op, *output)
    layers = summarize(trace["spans"])
    counts = trace["counts"]
    values = {
        "import.natreg_s": statistics.median(p[0] for p in probes),
        "import.scipy_s": statistics.median(p[1] for p in probes),
        "data.parse_peak_mb": trace["parse_peak_mb"],
        "trace.overhead_s": trace["traced_s"] - trace["untraced_s"],
    }
    for metric, (span, field) in PER_LAYER_SPANS.items():
        values[metric] = layers.get(span, {}).get(field, 0)
    for metric in PER_LAYER_COUNTS:
        values[metric] = counts.get(metric, 0)
    accepts = counts.get("morphisms.finvec_iso_accepts", 0)
    values["morphisms.finvec_iso_draws_per_accept"] = (
        counts.get("morphisms.finvec_iso_draws", 0) / accepts if accepts else 0.0
    )
    for algorithm in ("ols", "ridge", "minnorm-ols"):
        for kappa in inputs.LADDER_KAPPAS:
            label = f"{algorithm}.{kappa}"
            values[f"regression.rel_err.{label}"] = tally.rel_err.get(label, 0.0)
    return {"metrics": {k: (v, unit_of(k)) for k, v in values.items()}, "detail": {}}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def metadata(root: str, workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "natreg", "cli.py")):
        print("error: run from the root of a natreg checkout (src/natreg is missing)", file=sys.stderr)
        return 2
    env = child_env(root)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(root, WORK_DIR))
    try:
        start = time.perf_counter()
        ops = build_workload(args.workload, args.seed, workdir)
        input_gen_s = time.perf_counter() - start
        tally = Tally()
        if args.trace:
            result = traced(ops, root, env, workdir, tally)
            result["metrics"]["bench.input_gen_s"] = (input_gen_s, "s")
        else:
            result = measure(ops, args.seconds, root, env, tally)
            result["detail"]["input_gen_s"] = input_gen_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["detail"]["failures"] = tally.reasons
    result["detail"]["error_rate"] = tally.failed / tally.attempted
    print(json.dumps({"meta": metadata(root, args.workload, args.seed)}))
    print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
