"""Batch evaluation of (subject, method, structure) cases from a manifest.

Cases are independent by construction. They are evaluated in parallel,
in jobs of cases that share files, so each file is decoded once per job.
Per-case failures degrade to error-status records so a long batch never
dies on one bad file, nor on one worker the OS kills. Records keep
manifest order, so repeated runs are byte-identical regardless of the
worker count. A :class:`CohortResult` is the records and the config they
were computed under; every aggregate (counts, the volume table, the
subjects excluded under subject pooling, the ANOVA over methods) is
derived from them by :mod:`segeval.reporting`, in one place.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from .errors import (
    AllCasesFailed,
    DuplicateCase,
    EmptySubgroup,
    MalformedRow,
    NonFiniteMetric,
    UnknownStructure,
)
from .overlap import (
    VolumePair,
    confusion_counts,
    dice,
    precision,
    ravd,
    sensitivity,
    similarity,
    volume,
)
from .stats import GroupSample, group_summary
from .surface import compare_surfaces
from .volume import BinaryMask, BinarizeRule, load_mask_pairs

# Canonical metric column order; also the metric names accepted by the
# ANOVA entry points and used as CSV headers.
METRIC_NAMES = (
    "hausdorff",
    "dice",
    "similarity",
    "precision",
    "rms",
    "assd",
    "mean_distance",
    "sensitivity",
    "ravd",
)

LEFT = "left_hippocampus"
RIGHT = "right_hippocampus"
_STRUCTURE_ALIASES = {"left": LEFT, "left_hippocampus": LEFT,
                      "right": RIGHT, "right_hippocampus": RIGHT}
_FIELD_STRENGTH_ALIASES = {"1.5t": "1.5T", "3t": "3T"}
FIELD_STRENGTHS = ("1.5T", "3T")

_MANIFEST_COLUMNS = ("subject", "method", "structure", "auto", "manual")


@dataclass(frozen=True)
class CaseSpec:
    subject_id: str
    method: str
    structure: str
    auto_path: str
    manual_path: str
    field_strength: str | None = None
    binarize_rule: BinarizeRule | None = None


_CONFIG_CHOICES = {
    "space": ("index", "physical"),
    "connectivity": (6, 26),
    "unit": ("mm3", "voxels"),
    "pooling": ("observation", "subject"),
}


@dataclass(frozen=True)
class EvalConfig:
    space: str = "index"  # each of these four is one of its _CONFIG_CHOICES
    connectivity: int = 6
    unit: str = "mm3"
    pooling: str = "observation"
    threads: int | None = None  # None -> machine parallelism
    default_rule: BinarizeRule = field(default_factory=BinarizeRule.nonzero)

    def __post_init__(self) -> None:
        """Reject a field outside its legal values, before any case is decoded."""
        for name, legal in _CONFIG_CHOICES.items():
            value = getattr(self, name)
            # by type too: True == 1 and 6.0 == 6 would change config_hash
            if not any(type(value) is type(v) and value == v for v in legal):
                raise ValueError(
                    f"EvalConfig.{name} {value!r} is not one of "
                    + ", ".join(repr(v) for v in legal)
                )
        if self.threads is not None and (type(self.threads) is not int or self.threads < 1):
            raise ValueError(f"EvalConfig.threads {self.threads!r} is not None or an int >= 1")
        if not isinstance(self.default_rule, BinarizeRule):
            raise ValueError(f"EvalConfig.default_rule {self.default_rule!r} is not a BinarizeRule")

    def settings(self) -> dict:
        """The fields that can change an output; ``run_manifest.json`` writes them.

        ``threads`` is not one: the worker count must not change any output byte.
        """
        return {
            "space": self.space,
            "connectivity": self.connectivity,
            "unit": self.unit,
            "pooling": self.pooling,
            "default_rule": str(self.default_rule),
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.settings(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def describe(self) -> str:
        return (
            f"space={self.space} connectivity={self.connectivity} "
            f"unit={self.unit} pooling={self.pooling} "
            f"binarize={self.default_rule} hash={self.config_hash()}"
        )


@dataclass(frozen=True)
class MetricRecord:
    """All nine metrics for one case, or an error status."""

    subject: str
    method: str
    structure: str
    field_strength: str | None
    space: str
    status: str  # "ok" | "error"
    error: str | None = None
    hausdorff: float | None = None
    dice: float | None = None
    similarity: float | None = None
    precision: float | None = None
    rms: float | None = None
    assd: float | None = None
    mean_distance: float | None = None
    sensitivity: float | None = None
    ravd: float | None = None
    v_auto: float | None = None
    v_manual: float | None = None

    def metric(self, name: str) -> float | None:
        if name not in METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)


@dataclass(frozen=True)
class CohortResult:
    """A cohort's records, in manifest order, and the config they were computed under."""

    records: list[MetricRecord]
    config: EvalConfig
    manifest_path: str = ""


def _normalize_structure(raw: str, row_no: int) -> str:
    text = raw.strip()
    if not text:
        raise UnknownStructure(f"row {row_no}: blank structure")
    return _STRUCTURE_ALIASES.get(text.lower(), text)


def _normalize_field_strength(raw: str | None, row_no: int) -> str | None:
    text = (raw or "").strip()
    if not text:
        return None
    try:
        return _FIELD_STRENGTH_ALIASES[text.lower()]
    except KeyError:
        raise MalformedRow(
            f"row {row_no}: field_strength {text!r} not one of 1.5T, 3T"
        ) from None


def _row_to_case(row: dict[str, str], row_no: int, base: Path) -> CaseSpec:
    """One manifest row, its cells as text (a missing cell is absent or None)."""
    for col in _MANIFEST_COLUMNS:
        if col == "structure":
            if row.get(col) is None:
                raise MalformedRow(f"row {row_no}: missing column 'structure'")
            continue  # blank structure gets the more specific UnknownStructure
        if row.get(col) is None or not row[col].strip():
            raise MalformedRow(f"row {row_no}: missing column {col!r}")
    label = row.get("label")
    rule = None
    if label is not None and label.strip():
        try:
            rule = BinarizeRule.equals(float(label))
        except ValueError:
            raise MalformedRow(f"row {row_no}: label {label!r} is not a number") from None
    return CaseSpec(
        subject_id=row["subject"].strip(),
        method=row["method"].strip(),
        structure=_normalize_structure(row["structure"], row_no),
        auto_path=str(base / row["auto"].strip()),
        manual_path=str(base / row["manual"].strip()),
        field_strength=_normalize_field_strength(row.get("field_strength"), row_no),
        binarize_rule=rule,
    )


def parse_manifest(path: str | Path) -> list[CaseSpec]:
    """Read a cohort manifest (CSV or JSON-lines) into case specs.

    Relative auto/manual paths are resolved against the manifest's
    directory. The (subject, method, structure) key must be unique. A
    JSON-lines value is read as the text a CSV cell would hold: a string
    as it is, null as a missing cell, any other value as its JSON text
    (``17`` as ``"17"``, ``true`` as ``"true"``). The text is UTF-8, with
    or without a byte-order mark; a manifest without a data row is malformed.
    """
    path = Path(path)
    base = path.parent
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise MalformedRow(f"manifest is not UTF-8 text ({e})") from None
    rows: list[tuple[int, dict]] = []
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        for row_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedRow(f"row {row_no}: invalid JSON ({e.msg})") from None
            if not isinstance(obj, dict):
                raise MalformedRow(f"row {row_no}: expected a JSON object")
            rows.append((row_no, {
                key: value if isinstance(value, str) else json.dumps(value)
                for key, value in obj.items()
                if value is not None
            }))
    else:
        reader = csv.DictReader(text.splitlines())
        try:
            header, data = reader.fieldnames, list(reader)
        except csv.Error as e:  # a cell over the csv module's field size limit, say
            raise MalformedRow(f"row {reader.reader.line_num}: {e}") from None
        if header is None:
            raise MalformedRow("manifest has no header row")
        missing = [c for c in _MANIFEST_COLUMNS if c not in header]
        if missing:
            raise MalformedRow(f"manifest header is missing columns {missing}")
        # data rows start at line 2, after the header
        rows = list(enumerate(data, start=2))
    if not rows:
        raise MalformedRow("manifest has no data rows")

    cases: list[CaseSpec] = []
    seen: dict[tuple[str, str, str], int] = {}
    for row_no, row in rows:
        case = _row_to_case(row, row_no, base)
        key = (case.subject_id, case.method, case.structure)
        if key in seen:
            raise DuplicateCase(
                f"rows {seen[key]} and {row_no} both define case {key}"
            )
        seen[key] = row_no
        cases.append(case)
    return cases


def compute_record(case: CaseSpec, config: EvalConfig) -> MetricRecord:
    """Compute all nine metrics for one case; raises on any failure.

    The pair is the one item of :func:`~segeval.volume.load_mask_pairs`,
    the loader of a cohort job: both files are streamed in z-slab chunks,
    one after the other, and each mask is kept on the bounding box of its
    own members, so no full-grid array is held. Counts, volumes, surfaces
    and distances all run on those boxes. The pair's error is raised as the
    loader yields it.
    """
    rule = case.binarize_rule or config.default_rule
    # unpacked, so the loader has finished before the record is made
    (masks,) = load_mask_pairs([(case.auto_path, case.manual_path, rule)])
    if isinstance(masks, Exception):
        raise masks
    return _record_from_masks(case, config, *masks)


def _record_from_masks(
    case: CaseSpec, config: EvalConfig, mask_a: BinaryMask, mask_m: BinaryMask
) -> MetricRecord:
    counts = confusion_counts(mask_a, mask_m)
    v_auto = volume(mask_a, config.unit)
    v_manual = volume(mask_m, config.unit)
    pair = VolumePair(v_auto=v_auto, v_manual=v_manual, unit=config.unit)
    surf = compare_surfaces(
        mask_a, mask_m, space=config.space, connectivity=config.connectivity
    )
    record = MetricRecord(
        subject=case.subject_id,
        method=case.method,
        structure=case.structure,
        field_strength=case.field_strength,
        space=config.space,
        status="ok",
        hausdorff=surf.hausdorff,
        dice=dice(counts),
        similarity=similarity(counts),
        precision=precision(counts),
        rms=surf.rms,
        assd=surf.assd,
        mean_distance=surf.mean_distance,
        sensitivity=sensitivity(counts),
        ravd=ravd(pair),
        v_auto=v_auto,
        v_manual=v_manual,
    )
    for name in ("v_auto", "v_manual", *METRIC_NAMES):  # an overflowing volume first
        value = getattr(record, name)
        if not math.isfinite(value):
            raise NonFiniteMetric(f"{name} is {value}, not a finite number")
    return record


def _error_record(case: CaseSpec, config: EvalConfig, e: BaseException) -> MetricRecord:
    return MetricRecord(
        subject=case.subject_id,
        method=case.method,
        structure=case.structure,
        field_strength=case.field_strength,
        space=config.space,
        status="error",
        error=f"{type(e).__name__}: {e}",
    )


def _evaluate_job(cases: list[CaseSpec], config: EvalConfig) -> list[MetricRecord]:
    """Each case's record, decoding each (path, rule) once.

    A case that fails gets an error-status record whose ``error`` is
    ``"<exception type>: <message>"``, for the exception
    :func:`compute_record` raises on it; the job goes on with the next case.
    """
    pairs = load_mask_pairs(
        [(c.auto_path, c.manual_path, c.binarize_rule or config.default_rule) for c in cases]
    )
    records = []
    # not zip(cases, pairs): zip's reused result tuple holds the last pair
    # until the next one is decoded
    for case in cases:
        masks = next(pairs)
        if isinstance(masks, Exception):
            records.append(_error_record(case, config, masks))
        else:
            try:
                records.append(_record_from_masks(case, config, *masks))
            except Exception as e:  # noqa: BLE001 - a failed case becomes its error record
                records.append(_error_record(case, config, e))
        del masks  # freed before the next pair is decoded
    return records


def _jobs(cases: list[CaseSpec], workers: int) -> list[list[int]]:
    """The cases' indices, grouped into jobs of cases that share a manual file.

    A job holds the cases of one manual path, in manifest order. A job
    larger than ⌈cases/workers⌉ is cut into consecutive pieces of that
    size, so a manifest that scores every case against one template still
    spreads over the workers. An automatic file shared by two manual files
    is decoded once in each of their jobs.
    """
    groups: dict[str, list[int]] = {}
    for i, case in enumerate(cases):
        groups.setdefault(case.manual_path, []).append(i)
    size = -(-len(cases) // workers)
    return [g[k : k + size] for g in groups.values() for k in range(0, len(g), size)]


def _evaluate_alone(job: list[CaseSpec], config: EvalConfig) -> list[MetricRecord]:
    """Evaluate one job in a worker of its own.

    If that worker dies too, each case of a job of several is run alone in
    the same way, and a lone case whose worker dies gets the death as its
    error record.
    """
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_evaluate_job, job, config).result()
        except BrokenProcessPool as e:
            if len(job) == 1:
                return [_error_record(job[0], config, e)]
    return [record for case in job for record in _evaluate_alone([case], config)]


def _pool_records(
    jobs: list[list[CaseSpec]], config: EvalConfig, workers: int
) -> list[list[MetricRecord]]:
    """Evaluate the jobs in worker processes, one job per task, in order.

    A worker killed by the OS (out of memory, a signal) breaks its pool. The
    first job without records was then in flight, so it is rerun once in a
    worker of its own (:func:`_evaluate_alone`). If that worker dies too,
    each of the job's cases is rerun alone, one new single-worker pool and
    one decode of its files per case, and a case whose worker dies again
    becomes an error record. That fallback is serial: its cost grows with
    the job, up to ⌈cases/workers⌉ cases. The jobs after it go on in a
    fresh pool, so each of their cases gets the record a serial run gives.
    """
    run = partial(_evaluate_job, config=config)
    done: list[list[MetricRecord]] = []
    while len(done) < len(jobs):
        rest = jobs[len(done):]
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(rest))) as pool:
                for records in pool.map(run, rest, chunksize=1):
                    done.append(records)
        except BrokenProcessPool:
            done.append(_evaluate_alone(jobs[len(done)], config))
    return done


def evaluate_cohort(
    cases: list[CaseSpec], config: EvalConfig, manifest_path: str = ""
) -> CohortResult:
    """Evaluate every case, in parallel, into its record.

    Cases run in jobs (:func:`_jobs`): each job decodes each file it reads
    once per binarize rule, and a case's record is the one
    :func:`compute_record` returns for it or, if that raises, an error
    record naming the exception (:func:`_evaluate_job`). Jobs are spread
    over the workers; one worker runs them in process. A case whose worker
    dies in its job, in that job's rerun and then alone, gets an error
    record (``BrokenProcessPool: ...``; see :func:`_pool_records`). Records
    keep manifest order. Raises :class:`AllCasesFailed` if no case is ok.
    """
    if not cases:
        raise ValueError("cohort has no cases")
    workers = min(config.threads or os.cpu_count() or 1, len(cases))
    jobs = _jobs(cases, workers)
    job_cases = [[cases[i] for i in job] for job in jobs]
    if workers == 1:
        done = [_evaluate_job(job, config) for job in job_cases]
    else:
        done = _pool_records(job_cases, config, workers)
    records = [None] * len(cases)
    for job, job_records in zip(jobs, done):
        for i, record in zip(job, job_records):
            records[i] = record

    if all(r.status == "error" for r in records):
        raise AllCasesFailed(f"all {len(records)} cases errored")
    return CohortResult(records, config, str(manifest_path))


def subgroup_report(records: list[MetricRecord]) -> dict:
    """Per method per metric: summaries per field strength and 3T−1.5T deltas.

    Takes ``CohortResult.records`` or the records of a re-read metrics CSV.
    """
    tagged = [r for r in records if r.status == "ok" and r.field_strength is not None]
    if not tagged:
        raise EmptySubgroup("no cases carry field_strength")
    methods = sorted({r.method for r in records if r.status == "ok"})
    report: dict = {"partition": "field_strength", "methods": {}}
    for method in methods:
        for fs in FIELD_STRENGTHS:
            if not any(r.method == method and r.field_strength == fs for r in tagged):
                raise EmptySubgroup(f"({method}, {fs})")
        per_metric = {}
        for metric in METRIC_NAMES:
            cell = {}
            for fs in FIELD_STRENGTHS:
                values = tuple(
                    r.metric(metric)
                    for r in tagged
                    if r.method == method and r.field_strength == fs
                )
                cell[fs] = asdict(group_summary(GroupSample(method, values)))
            cell["delta_mean"] = cell["3T"]["mean"] - cell["1.5T"]["mean"]
            per_metric[metric] = cell
        report["methods"][method] = per_metric
    return report
