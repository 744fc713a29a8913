"""Command-line interface.

Subcommands: ``metrics`` (one mask pair → JSON record on stdout),
``evaluate`` (manifest → report bundle on disk), ``anova`` (re-analysis
from a metrics CSV), ``subgroup`` (field-strength comparison from a
metrics CSV).

Exit codes: 0 success, 1 I/O or manifest failure, 2 metric-domain
failure, 3 statistics failure. Configuration is flags-only; no
environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .cohort import (
    CaseSpec,
    EvalConfig,
    compute_record,
    evaluate_cohort,
    parse_manifest,
    subgroup_report,
)
from .errors import InputError, MetricError, StatsError
from .reporting import (
    anova_for_metric,
    anova_table_payload,
    read_metrics_csv,
    write_report_bundle,
)
from .volume import BinarizeRule


def _add_space_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=("index", "physical"), default="index")
    p.add_argument("--connectivity", type=int, choices=(6, 26), default=6)
    p.add_argument("--unit", choices=("mm3", "voxels"), default="mm3")
    p.add_argument(
        "--label",
        type=_label_rule,
        default=None,
        help="binarize by equality with this label value (default: nonzero)",
    )


def _label_rule(text: str) -> BinarizeRule:
    try:
        return BinarizeRule.equals(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid label {text!r}: {exc}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config(args: argparse.Namespace) -> EvalConfig:
    return EvalConfig(
        space=args.space,
        connectivity=args.connectivity,
        unit=args.unit,
        pooling=getattr(args, "pooling", "observation"),
        threads=getattr(args, "threads", None),
        default_rule=getattr(args, "label", None) or BinarizeRule.nonzero(),
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    case = CaseSpec(
        subject_id="",
        method="",
        structure="",
        auto_path=args.auto,
        manual_path=args.manual,
    )
    record = compute_record(case, _config(args))
    print(json.dumps(asdict(record), sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config(args)
    cases = parse_manifest(args.manifest)
    result = evaluate_cohort(cases, config, manifest_path=args.manifest)
    bundle = write_report_bundle(result, args.out_dir, config)
    n_ok = sum(r.status == "ok" for r in result.records)
    print(f"{n_ok}/{len(result.records)} cases ok; wrote {bundle.metrics_csv.parent}")
    return 0


def _cmd_anova(args: argparse.Namespace) -> int:
    records = read_metrics_csv(args.metrics_csv)
    table = anova_for_metric(records, args.metric, pooling=args.pooling)
    print(json.dumps(anova_table_payload(table), sort_keys=True, indent=2))
    return 0


def _cmd_subgroup(args: argparse.Namespace) -> int:
    records = read_metrics_csv(args.metrics_csv)
    report = subgroup_report(records)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segeval",
        description="Agreement metrics between automatic and manual 3D label masks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="evaluate one automatic/manual mask pair")
    p.add_argument("auto", help="automatic segmentation volume")
    p.add_argument("manual", help="manual (ground-truth) segmentation volume")
    _add_space_flags(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("evaluate", help="evaluate a cohort manifest")
    p.add_argument("manifest", help="cohort manifest (.csv or .jsonl)")
    p.add_argument("out_dir", help="directory for the report bundle")
    _add_space_flags(p)
    p.add_argument(
        "--pooling", choices=("observation", "subject"), default="observation"
    )
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="worker count, at most one per case (default: machine parallelism)",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("anova", help="recompute ANOVA from a metrics CSV")
    p.add_argument("metrics_csv")
    p.add_argument("metric", help="one of the nine metric column names")
    p.add_argument(
        "--pooling", choices=("observation", "subject"), default="observation"
    )
    p.set_defaults(func=_cmd_anova)

    p = sub.add_parser("subgroup", help="field-strength comparison from a metrics CSV")
    p.add_argument("metrics_csv")
    p.set_defaults(func=_cmd_subgroup)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except MetricError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except StatsError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
