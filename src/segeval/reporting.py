"""Serialization of cohort results: CSV tables and JSON series.

Every aggregate is derived here, from a cohort's records and the config
they were computed under: the case counts, the left/right volume table,
the subjects excluded under subject pooling (:func:`_excluded_subjects`),
the ANOVA tables and the summaries.

Formatting is fixed and locale-free (RFC-4180 commas, "." decimal point,
distances/ratios/volumes at 4 decimals, p-values as 2-decimal-mantissa
scientific notation). Every artifact names the run configuration in a
leading ``# config:`` comment or a ``config`` field, and is written
atomically (temp file + rename) so a crashed run never leaves truncated
output.

The ANOVA is computed once, in memory, from each metric value rounded to
the 4 decimals ``metrics.csv`` prints (:func:`_round4`). ``anova.csv`` and
``run_manifest.json`` carry the same per-metric skip reasons, and
re-analysis from ``metrics.csv`` alone reproduces ``anova.csv`` bit for bit.
``boxplot.json`` and ``scatter.json`` keep full precision.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .cohort import (
    LEFT,
    METRIC_NAMES,
    RIGHT,
    CohortResult,
    EvalConfig,
    MetricRecord,
)
from .errors import MalformedCsv, StatsError, UnknownMetric
from .stats import AnovaTable, GroupSample, group_summary, one_way_anova

_METRICS_HEADER = (
    ["subject", "method", "structure", "field_strength"]
    + list(METRIC_NAMES)
    + ["v_auto", "v_manual", "space", "status", "error"]
)
_VOLUMES_HEADER = [
    "subject", "method",
    "left_auto", "left_manual", "left_norm_diff",
    "right_auto", "right_manual", "right_norm_diff",
]
_ANOVA_HEADER = ["Measurement", "Source", "SS", "df", "MS", "F", "P-value"]


@dataclass(frozen=True)
class ReportBundle:
    metrics_csv: Path
    volumes_csv: Path
    anova_csv: Path
    boxplot_json: Path
    scatter_json: Path
    run_manifest: Path


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _round4(value: float) -> float:
    """``value`` as ``metrics.csv`` prints it and a reader parses it back."""
    return float(_fmt(value))


def _fmt_p(p: float) -> str:
    return f"{p:.2E}"


def _atomic_write(path: Path, data: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def metrics_csv_text(records: list[MetricRecord], config: EvalConfig) -> str:
    buf = io.StringIO()
    buf.write(f"# config: {config.describe()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_METRICS_HEADER)
    for r in records:
        writer.writerow(
            [
                r.subject,
                r.method,
                r.structure,
                r.field_strength or "",
            ]
            + [_fmt(r.metric(m)) for m in METRIC_NAMES]
            + [_fmt(r.v_auto), _fmt(r.v_manual), r.space, r.status, r.error or ""]
        )
    return buf.getvalue()


def volumes_csv_text(records: list[MetricRecord], config: EvalConfig) -> str:
    """Per (subject, method), in lexicographic order, each side's automatic and
    manual volume and |RAVD| from its ok record; a side without one is blank.
    """
    sides = {LEFT: 0, RIGHT: 3}
    rows: dict[tuple[str, str], list[float | None]] = {}
    for r in records:
        if r.status == "ok" and r.structure in sides:
            k = sides[r.structure]
            rows.setdefault((r.subject, r.method), [None] * 6)[k : k + 3] = (
                r.v_auto, r.v_manual, abs(r.ravd),
            )
    buf = io.StringIO()
    buf.write(f"# config: {config.describe()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_VOLUMES_HEADER)
    for key in sorted(rows):
        writer.writerow(list(key) + [_fmt(v) for v in rows[key]])
    return buf.getvalue()


def anova_csv_text(
    tables: dict[str, AnovaTable], skipped: dict[str, str], config: EvalConfig
) -> str:
    buf = io.StringIO()
    buf.write(f"# config: {config.describe()}\n")
    for metric in sorted(skipped):
        buf.write(f"# skipped {metric}: {skipped[metric]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ANOVA_HEADER)
    for metric in METRIC_NAMES:
        table = tables.get(metric)
        if table is None:
            continue
        writer.writerow(
            [metric, "Columns", _fmt(table.ss_between), table.df_between,
             _fmt(table.ms_between), _fmt(table.f), _fmt_p(table.p)]
        )
        writer.writerow(
            [metric, "Error", _fmt(table.ss_within), table.df_within,
             _fmt(table.ms_within), "", ""]
        )
        writer.writerow(
            [metric, "Total", _fmt(table.ss_total), table.df_total, "", "", ""]
        )
    return buf.getvalue()


def _data_lines(text: str) -> list[str]:
    """The header row and every line after it.

    Only the ``#`` lines before the header are comments: a data row whose
    subject starts with ``#`` is data.
    """
    lines = text.splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    return lines[start:]


def read_metrics_csv(path: str | Path) -> list[MetricRecord]:
    """Parse a metrics.csv produced by this package back into records."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(_data_lines(text))
    if reader.fieldnames is None:
        raise MalformedCsv(f"{path}: no header row")
    missing = [c for c in _METRICS_HEADER if c not in reader.fieldnames]
    if missing:
        raise MalformedCsv(f"{path}: missing columns {missing}")
    records = []
    for row_no, row in enumerate(reader, start=2):
        try:
            if row["status"] not in ("ok", "error"):
                raise MalformedCsv(
                    f"{path}: row {row_no}: status {row['status']!r} is not ok or error"
                )
            metrics = {
                m: (float(row[m]) if row[m] != "" else None) for m in METRIC_NAMES
            }
            blank = [m for m, v in metrics.items() if v is None]
            if blank and row["status"] == "ok":
                raise MalformedCsv(
                    f"{path}: row {row_no}: ok row has blank {', '.join(blank)}"
                )
            records.append(
                MetricRecord(
                    subject=row["subject"],
                    method=row["method"],
                    structure=row["structure"],
                    field_strength=row["field_strength"] or None,
                    space=row["space"],
                    status=row["status"],
                    error=row["error"] or None,
                    v_auto=float(row["v_auto"]) if row["v_auto"] else None,
                    v_manual=float(row["v_manual"]) if row["v_manual"] else None,
                    **metrics,
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedCsv(f"{path}: row {row_no}: {e}") from None
    return records


def _excluded_subjects(records: list[MetricRecord], pooling: str) -> set[str]:
    """The subjects the ANOVA leaves out: under subject pooling, those with an
    errored record, whose mean would miss a case; none under observation pooling.
    """
    if pooling not in ("observation", "subject"):
        raise ValueError(f"unknown pooling {pooling!r}")
    errored = {r.subject for r in records if r.status == "error"}
    return errored if pooling == "subject" else set()


def _anova_groups(
    records: list[MetricRecord], metric: str, pooling: str
) -> list[GroupSample]:
    """One sample per method, in lexicographic order, of 4-dp values.

    Only ok records count. Under subject pooling each value is the mean of a
    subject's records, over the subjects :func:`_excluded_subjects` keeps.
    Methods without values get no group.
    """
    excluded = _excluded_subjects(records, pooling)
    groups = []
    for method in sorted({r.method for r in records}):
        ok = [r for r in records if r.status == "ok" and r.method == method]
        if pooling == "subject":
            by_subject: dict[str, list[float]] = {}
            for r in ok:
                if r.subject not in excluded:
                    by_subject.setdefault(r.subject, []).append(
                        _round4(r.metric(metric))
                    )
            values = [sum(vs) / len(vs) for _, vs in sorted(by_subject.items())]
        else:
            values = [_round4(r.metric(metric)) for r in ok]
        if values:
            groups.append(GroupSample(label=method, values=tuple(values)))
    return groups


def anova_for_metric(
    records: list[MetricRecord], metric: str, pooling: str = "observation"
) -> AnovaTable:
    """One-way ANOVA across methods for one metric, from records alone.

    In-memory records and the records of a re-read ``metrics.csv`` give
    the same table, because every value is first rounded to 4 decimals.
    """
    if metric not in METRIC_NAMES:
        raise UnknownMetric(f"{metric!r}; valid names: {', '.join(METRIC_NAMES)}")
    return one_way_anova(_anova_groups(records, metric, pooling))


def boxplot_payload(records: list[MetricRecord], config: EvalConfig) -> dict:
    """Five-number summaries + n/mean per (metric, method): the data behind boxplots."""
    series: dict[str, dict[str, dict]] = {}
    ok = [r for r in records if r.status == "ok"]
    methods = sorted({r.method for r in ok})
    for metric in METRIC_NAMES:
        series[metric] = {}
        for method in methods:
            values = tuple(r.metric(metric) for r in ok if r.method == method)
            if not values:
                continue
            series[metric][method] = asdict(
                group_summary(GroupSample(method, values))
            )
    return {"config": config.describe(), "series": series}


def scatter_payload(records: list[MetricRecord], config: EvalConfig) -> dict:
    """Per-case values per (metric, method), in manifest order."""
    series: dict[str, dict[str, list]] = {metric: {} for metric in METRIC_NAMES}
    for r in records:
        if r.status != "ok":
            continue
        for metric in METRIC_NAMES:
            series[metric].setdefault(r.method, []).append(
                {
                    "subject": r.subject,
                    "structure": r.structure,
                    "field_strength": r.field_strength,
                    "value": r.metric(metric),
                }
            )
    return {"config": config.describe(), "series": series}


def write_report_bundle(
    result: CohortResult, out_dir: str | Path, config: EvalConfig
) -> ReportBundle:
    """Write all six artifacts atomically and return their paths.

    ``config`` must have the settings ``result.config`` has (``threads`` may
    differ), or a ``ValueError`` is raised: a bundle names one config, the
    one its records were computed under. Every text is rendered before any
    file is touched, so an error in rendering leaves an earlier bundle in
    ``out_dir`` as it was.
    """
    if config.settings() != result.config.settings():
        raise ValueError(f"bundle config {config.describe()} is not the config the "
                         f"records were computed under, {result.config.describe()}")
    records = result.records
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = ReportBundle(
        metrics_csv=out / "metrics.csv",
        volumes_csv=out / "volumes.csv",
        anova_csv=out / "anova.csv",
        boxplot_json=out / "boxplot.json",
        scatter_json=out / "scatter.json",
        run_manifest=out / "run_manifest.json",
    )
    started = datetime.now(timezone.utc).isoformat()

    tables: dict[str, AnovaTable] = {}
    skipped: dict[str, str] = {}
    for metric in METRIC_NAMES:
        try:
            tables[metric] = anova_for_metric(records, metric, config.pooling)
        except StatsError as e:
            skipped[metric] = f"{type(e).__name__}: {e}"
    texts = {
        bundle.metrics_csv: metrics_csv_text(records, config),
        bundle.anova_csv: anova_csv_text(tables, skipped, config),
        bundle.volumes_csv: volumes_csv_text(records, config),
        bundle.boxplot_json: _json_dump(boxplot_payload(records, config)),
        bundle.scatter_json: _json_dump(scatter_payload(records, config)),
    }
    n_ok = sum(r.status == "ok" for r in records)
    run_manifest = {
        "tool_version": __version__,
        "config": config.settings(),
        "config_hash": config.config_hash(),
        "manifest_path": result.manifest_path,
        "n_cases": len(records),
        "n_ok": n_ok,
        "n_error": len(records) - n_ok,
        "excluded_subjects": sorted(_excluded_subjects(records, config.pooling)),
        "anova_skipped": skipped,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    manifest_text = _json_dump(run_manifest)

    # the old manifest goes first and the new one comes last, so a directory
    # holding a run_manifest.json holds that run's whole bundle
    bundle.run_manifest.unlink(missing_ok=True)
    for path, text in texts.items():
        _atomic_write(path, text)
    _atomic_write(bundle.run_manifest, manifest_text)
    return bundle


def anova_table_payload(table: AnovaTable) -> dict:
    """Full-precision machine-readable form of one ANOVA table."""
    return {
        "ss_between": table.ss_between,
        "ss_within": table.ss_within,
        "ss_total": table.ss_total,
        "df_between": table.df_between,
        "df_within": table.df_within,
        "df_total": table.df_total,
        "ms_between": table.ms_between,
        "ms_within": table.ms_within,
        "f": table.f,
        "p": table.p,
        "p_printed": _fmt_p(table.p),
    }
