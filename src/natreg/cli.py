"""Command-line interface: fit, audit, and counterexamples subcommands.

Exit codes follow one convention everywhere: 0 on success (fit computed, all
audit cells agree, both counterexamples exhibited), 1 when the requested
certificate fails (rank-deficient fit, a disagreeing cell, a missing
violation), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .data import dataset_from_csv
from .errors import NatregError, RankDeficient
from .naturality import (
    ALL_AXES,
    ALL_CATEGORIES,
    AuditConfig,
    counterexample_ols_shear,
    counterexample_ridge_scaling,
    run_audit,
)
from .regression import AlgorithmKind, AlgorithmSpec, ridge_objective, sse
from .report import (
    audit_report_to_json,
    audit_report_to_text,
    counterexamples_to_json,
    counterexamples_to_text,
)

# Audited algorithms by CLI name, with AuditConfig's default ridge penalty.
_AUDIT_ALGORITHMS = {spec.kind.value: spec for spec in AuditConfig.algorithms}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
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
    audit.add_argument(
        "--algorithm",
        default=",".join(_AUDIT_ALGORITHMS),
        help="comma-separated subset of ols,ridge (default both)",
    )
    audit.add_argument(
        "--axes",
        default=",".join(axis.value for axis in AuditConfig.axes),
        help="comma-separated subset of predictor,target,index",
    )
    audit.add_argument(
        "--categories",
        default=",".join(category.value for category in AuditConfig.categories),
        help="comma-separated subset of the morphism kinds",
    )
    audit.add_argument("--trials", type=_positive_int, default=AuditConfig.trials_per_cell)
    audit.add_argument("--seed", type=int, default=AuditConfig.master_seed)
    audit.add_argument("--tolerance", type=float, default=AuditConfig.base_tolerance)
    audit.add_argument("--format", choices=["text", "json"], default="text")
    audit.add_argument("--out", default=None, help="write the report here instead of stdout")

    ce = sub.add_parser("counterexamples", help="print the two exact violation witnesses")
    ce.add_argument("--k", type=float, default=1.0, help="shear amount")
    ce.add_argument("--b", type=float, default=1.0, help="predictor value")
    ce.add_argument("--c", type=float, default=2.0, help="scaling factor")
    ce.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ce.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_fit(args: argparse.Namespace) -> int:
    spec = AlgorithmSpec(AlgorithmKind(args.algorithm), args.lam)  # usage errors before I/O
    with open(args.data, "r", encoding="utf-8") as handle:
        content = handle.read()
    d = dataset_from_csv(content, args.predictors, args.targets)
    try:
        model = spec.fit(d)
    except RankDeficient as exc:
        print(
            f"error: rank-deficient predictors (rank {exc.rank} < {exc.required}); "
            "no unique least-squares fit, consider minnorm-ols or ridge",
            file=sys.stderr,
        )
        return 1
    rows = [",".join(format(v, ".17g") for v in row) for row in model.coef]
    _write_output("\n".join(rows) + "\n", args.out)
    print(f"sse = {sse(d, model):.17g}", file=sys.stderr)
    if spec.kind is AlgorithmKind.RIDGE:
        print(
            f"ridge objective = {ridge_objective(d, model, spec.lam):.17g}",
            file=sys.stderr,
        )
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
    axes_by_name = {axis.value: axis for axis in ALL_AXES}
    categories_by_name = {category.value: category for category in ALL_CATEGORIES}
    config = AuditConfig(
        algorithms=_parse_names(args.algorithm, _AUDIT_ALGORITHMS, "--algorithm", parser),
        axes=_parse_names(args.axes, axes_by_name, "--axes", parser),
        categories=_parse_names(args.categories, categories_by_name, "--categories", parser),
        trials_per_cell=args.trials,
        master_seed=args.seed,
        base_tolerance=args.tolerance,
    )
    report = run_audit(config)
    if args.format == "json":
        rendered = audit_report_to_json(report)
    else:
        rendered = audit_report_to_text(report)
    _write_output(rendered, args.out)
    return 0 if report.all_agree else 1


def _cmd_counterexamples(args: argparse.Namespace) -> int:
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
    except (NatregError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
