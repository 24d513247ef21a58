"""Command-line interface: fit, audit, and counterexamples subcommands.

Exit codes follow one convention everywhere: 0 on success (fit computed, all
audit cells agree, both counterexamples exhibited), 1 when the requested
certificate fails (rank-deficient fit, a disagreeing cell, a missing
violation), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

# One OpenBLAS thread per process: the CLI's solves are small or thin, where
# more threads mostly spin, and its parallel work runs in forked processes.
# Set before numpy is first imported; a user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .data import csv_block_factors
from .errors import NatregError, RankDeficient
from .regression import AlgorithmKind, AlgorithmSpec, fit_block_factors

# natreg.naturality and natreg.report are imported inside the subcommands
# that use them, so `natreg fit` never loads them.  Such an import reads the
# module's attributes at call time, so a name rebound there (by a test or a
# tracer) is the one called.


def _positive_int(text: str) -> int:
    error = argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 1:
        raise error
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natreg",
        description="closed-form linear fits and naturality audits",
    )
    parser.add_argument("--version", action="version", version=f"natreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a linear model to a CSV dataset")
    fit.add_argument("--data", required=True, help="CSV file, p predictor then q target fields per record")
    fit.add_argument("--predictors", required=True, type=_positive_int, metavar="P")
    fit.add_argument("--targets", required=True, type=_positive_int, metavar="Q")
    fit.add_argument(
        "--algorithm",
        required=True,
        choices=[kind.value for kind in AlgorithmKind],
    )
    fit.add_argument("--lambda", dest="lam", type=float, default=None)
    fit.add_argument("--out", default=None, help="write coefficients here instead of stdout")

    audit = sub.add_parser("audit", help="run randomized commutative-diagram checks")
    # flags left out (None) take AuditConfig's defaults
    audit.add_argument("--algorithm", help="comma-separated subset of ols,ridge (default both)")
    audit.add_argument("--axes", help="comma-separated subset of predictor,target,index")
    audit.add_argument("--categories", help="comma-separated subset of the morphism kinds")
    audit.add_argument("--trials", type=_positive_int)
    audit.add_argument("--seed", type=int)
    audit.add_argument("--tolerance", type=float)
    audit.add_argument("--format", choices=["text", "json"], default="text")
    audit.add_argument("--out", default=None, help="write the report here instead of stdout")

    ce = sub.add_parser("counterexamples", help="print the two exact violation witnesses")
    ce.add_argument("--k", type=float, default=1.0, help="shear amount")
    ce.add_argument("--b", type=float, default=1.0, help="predictor value")
    ce.add_argument("--c", type=float, default=2.0, help="scaling factor")
    ce.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ce.add_argument("--format", choices=["text", "json"], default="text")

    return parser


@contextlib.contextmanager
def _output(out: str | None):
    """A ``write(text)`` to stdout, or to ``out``, opened here, before any work.

    ``out`` is opened without truncation, so a path that cannot be written
    fails here with the error ``open`` gives, and a file keeps its contents
    until ``write`` truncates it.  A file this creates is left empty when
    the work fails.
    """
    if out is None:
        yield sys.stdout.write
        return
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as handle:

        def write(text: str) -> None:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # not a pipe or a device
                os.ftruncate(handle.fileno(), 0)
            handle.write(text)

        yield write


def _cmd_fit(args: argparse.Namespace) -> int:
    spec = AlgorithmSpec(AlgorithmKind(args.algorithm), args.lam)  # usage errors before I/O
    with _output(args.out) as write:
        with open(args.data, "r", encoding="utf-8") as handle:
            factors, n_examples = csv_block_factors(handle, args.predictors, args.targets)
        try:
            model, sse, objective = fit_block_factors(spec, factors, n_examples, args.predictors)
        except RankDeficient as exc:
            print(
                f"error: rank-deficient predictors (rank {exc.rank} < {exc.required}); "
                "no unique least-squares fit, consider minnorm-ols or ridge",
                file=sys.stderr,
            )
            return 1
        rows = [",".join(format(v, ".17g") for v in row) for row in model.coef]
        write("\n".join(rows) + "\n")
    print(f"sse = {sse:.17g}", file=sys.stderr)
    if spec.kind is AlgorithmKind.RIDGE:
        print(f"ridge objective = {objective:.17g}", file=sys.stderr)
    return 0


def _parse_names(raw: str, allowed: dict[str, object], flag: str, parser: argparse.ArgumentParser):
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        parser.error(f"{flag} must name at least one entry")
    picked = []
    for name in names:
        if name not in allowed:
            parser.error(f"{flag}: unknown name {name!r} (choose from {', '.join(allowed)})")
        if allowed[name] not in picked:
            picked.append(allowed[name])
    return tuple(picked)


def _cmd_audit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .naturality import ALL_AXES, ALL_CATEGORIES, AuditConfig, run_audit
    from .report import audit_report_to_json, audit_report_to_text

    # AuditConfig alone holds the defaults, so it gets only the flags given;
    # an audited algorithm's CLI name picks AuditConfig's own spec (ridge at
    # its default penalty)
    named = (
        ("algorithms", "--algorithm", args.algorithm, {s.kind.value: s for s in AuditConfig.algorithms}),
        ("axes", "--axes", args.axes, {axis.value: axis for axis in ALL_AXES}),
        ("categories", "--categories", args.categories, {kind.value: kind for kind in ALL_CATEGORIES}),
    )
    given = {
        field: _parse_names(raw, allowed, flag, parser)
        for field, flag, raw, allowed in named
        if raw is not None
    }
    numbers = {"trials_per_cell": args.trials, "master_seed": args.seed, "base_tolerance": args.tolerance}
    given.update((field, value) for field, value in numbers.items() if value is not None)
    config = AuditConfig(**given)
    with _output(args.out) as write:
        report = run_audit(config)
        if args.format == "json":
            write(audit_report_to_json(report))
        else:
            write(audit_report_to_text(report))
    return 0 if report.all_agree else 1


def _cmd_counterexamples(args: argparse.Namespace) -> int:
    from .naturality import counterexample_ols_shear, counterexample_ridge_scaling
    from .report import counterexamples_to_json, counterexamples_to_text

    shear = counterexample_ols_shear(args.k)
    scaling = counterexample_ridge_scaling(args.b, args.c, args.lam)
    if args.format == "json":
        sys.stdout.write(counterexamples_to_json(__version__, shear, scaling))
    else:
        sys.stdout.write(counterexamples_to_text(shear, scaling))
    both = shear.violation_exhibited and scaling.violation_exhibited
    return 0 if both else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "audit":
            return _cmd_audit(args, parser)
        return _cmd_counterexamples(args)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return int(exc.code or 0)
    except (NatregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """The ``natreg`` command: :func:`main`, then an exit with no interpreter teardown."""
    code = main()
    try:
        if sys.stdout is not None:  # None when descriptor 1 was closed at startup
            sys.stdout.flush()
    except OSError as exc:  # such as a pipe whose reader has gone
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    # os._exit skips the interpreter's teardown, which frees every module and
    # object and costs about 20 ms, and also skips atexit handlers and the
    # flush of open files.  Nothing is lost: the two streams were just
    # flushed, --out is closed by its with block, fork_map reaps every child
    # before it returns, and natreg registers no atexit handler.  An
    # exception out of main() never reaches here; it propagates as usual.
    os._exit(code)


if __name__ == "__main__":
    entry_point()
