"""Timed passes over one generated workload, in a process of their own.

``run.py`` starts this script once per run so that the peak RSS it reads
back (this process and its pool workers) covers only the measured passes,
not input generation. Every call into segeval goes through public
functions. The result is written as JSON to ``<out>/measure.json``.

Modes:

* ``e2e`` — end-to-end stages, no tracing:
  ``evaluate`` (parse_manifest → evaluate_cohort at nproc workers →
  write_report_bundle, as ``segeval evaluate`` does), ``serial`` (one
  ``compute_record`` per call, as ``segeval metrics`` does) and
  ``reanalysis`` (nine ``segeval anova`` and one ``segeval subgroup``
  commands on a metrics CSV).
* ``trace`` — the same stages with spans recorded around the calls into
  each module from outside the package, plus a per-case replay of
  ``compute_record``'s steps so that each layer gets its own span.

The measured seconds are shared between stages by ``SHARES``; see
``schedule``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from segeval.cli import main as cli_main  # noqa: E402
from segeval.cohort import (  # noqa: E402
    METRIC_NAMES,
    EvalConfig,
    compute_record,
    evaluate_cohort,
    parse_manifest,
    subgroup_report,
)
from segeval.overlap import confusion_counts, volume  # noqa: E402
from segeval.reporting import (  # noqa: E402
    anova_for_metric,
    metrics_csv_text,
    read_metrics_csv,
    write_report_bundle,
)
from segeval.surface import compare_surfaces, extract_surface  # noqa: E402
from segeval.volume import binarize, check_compatible, load_volume  # noqa: E402

from workloads import SHARES, WORKLOADS  # noqa: E402

ARTIFACTS = ("metrics.csv", "volumes.csv", "anova.csv", "boxplot.json", "scatter.json")
# Spans that replay compute_record's own steps; their sum over the
# compute_record span is trace.coverage.
REPLAY_STEPS = (
    "volume.load", "volume.binarize", "volume.check",
    "overlap.confusion", "overlap.volume", "surface.compare",
)
FULL_GRID_STEPS = REPLAY_STEPS[:-1] + ("surface.extract",)


class Tracer:
    """Spans kept in memory: name, start, end, parent index, case id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, case: str | None = None):
        parent = self._open[-1] if self._open else None
        if case is None and parent is not None:
            case = self.spans[parent]["case"]
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "case": case}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def ms_by_name(self, first: int) -> dict[str, float]:
        """Summed duration per span name over spans[first:], in ms."""
        out: dict[str, float] = {}
        for s in self.spans[first:]:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) * 1e3
        return out

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c) * 1e3
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def case_id(case) -> str:
    return f"{case.subject_id}/{case.method}/{case.structure}"


class Run:
    """Inputs, configs and the correctness record shared by both modes."""

    def __init__(self, inputs: Path, workload: str, nproc: int, out: Path):
        self.w = WORKLOADS[workload]
        self.manifest = inputs / "manifest.csv"
        self.cases = parse_manifest(self.manifest)
        self.pool_config = EvalConfig(threads=nproc)
        self.serial_config = EvalConfig(threads=1)
        self.bundle = out / "bundle"
        self.csv = self.bundle / "metrics.csv"
        self.commands = [["anova", str(self.csv), m] for m in METRIC_NAMES]
        self.commands.append(["subgroup", str(self.csv)])
        self.rows = 0
        self.next_case = 0
        self.serial_records: dict[int, object] = {}
        self.gate = {
            "attempted": 0,
            "failed": 0,
            "errors_by_type": {},
            "bundle_digests": [],
            "reanalysis_digests": [],
        }

    def _error(self, name: str) -> None:
        self.gate["failed"] += 1
        by_type = self.gate["errors_by_type"]
        by_type[name] = by_type.get(name, 0) + 1

    def after_evaluate(self, result) -> None:
        self.gate["attempted"] += len(result.records)
        for r in result.records:
            if r.status != "ok":
                self._error(r.error.split(":", 1)[0])
        self.gate["bundle_digests"].append(
            {name: sha256_file(self.bundle / name) for name in ARTIFACTS}
        )
        if not self.rows:
            self.rows = len(read_metrics_csv(self.csv))

    def serial_call(self):
        """One compute_record on the next case; returns (case index, seconds)."""
        i = self.next_case % len(self.cases)
        self.next_case += 1
        self.gate["attempted"] += 1
        t0 = time.perf_counter()
        try:
            record = compute_record(self.cases[i], self.serial_config)
        except Exception as e:  # noqa: BLE001 - counted and reported as a failure
            self._error(type(e).__name__)
            record = None
        dt = time.perf_counter() - t0
        self.serial_records.setdefault(i, record)
        return i, dt

    def command(self, argv: list[str]) -> str:
        buf = io.StringIO()
        self.gate["attempted"] += 1
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        if code != 0:
            self._error(f"exit{code}")
        return buf.getvalue()

    def after_reanalysis(self, outputs: list[str]) -> None:
        digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
        self.gate["reanalysis_digests"].append(digest)

    def finish_gate(self) -> dict:
        """Pool bundle's metrics.csv must equal the serial pass's records."""
        gate = self.gate
        records = [self.serial_records.get(i) for i in range(len(self.cases))]
        if all(r is not None for r in records):
            text = metrics_csv_text(records, self.serial_config)
            gate["serial_matches_pool"] = (
                text.encode() == (self.bundle / "metrics.csv").read_bytes()
            )
        else:
            gate["serial_matches_pool"] = False
        gate["n_cases"] = len(self.cases)
        gate["rows"] = self.rows
        return gate


def schedule(stages: dict, seconds: float) -> None:
    """Interleave stage units over the seconds, each stage near its share.

    ``stages`` maps a name to (share, minimum units, unit function); a unit
    function returns the seconds it measured. Minimums run first, in order.
    Then the stage furthest below its share runs the next unit, and a unit
    that would end past the seconds is not started. Interleaving spreads
    every stage's samples over the whole run, so a slow spell of the
    machine weighs on all stages alike.
    """
    used = {k: 0.0 for k in stages}
    count = {k: 0 for k in stages}
    last = {k: 0.0 for k in stages}
    total = 0.0
    while True:
        pending = [k for k, (_, least, _) in stages.items() if count[k] < least]
        if pending:
            k = pending[0]
        else:
            fits = [k for k in stages if total + last[k] <= seconds]
            if not fits:
                return
            k = min(fits, key=lambda k: used[k] / stages[k][0])
        last[k] = stages[k][2]()
        used[k] += last[k]
        count[k] += 1
        total += last[k]


def peak_rss_mb() -> float:
    """Highest RSS of this process and of its waited-for children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_e2e(run: Run, seconds: float) -> dict:
    n = len(run.cases)
    pass_rates: list[float] = []
    case_ms: list[float] = []
    set_rates: list[float] = []
    command_ms: list[float] = []

    def evaluate_pass() -> float:
        t0 = time.perf_counter()
        cases = parse_manifest(run.manifest)
        result = evaluate_cohort(cases, run.pool_config, manifest_path=str(run.manifest))
        write_report_bundle(result, run.bundle, run.pool_config)
        dt = time.perf_counter() - t0
        run.after_evaluate(result)
        pass_rates.append(n / dt)
        return dt

    def serial_call() -> float:
        _, dt = run.serial_call()
        case_ms.append(dt * 1e3)
        return dt

    def reanalysis_set() -> float:
        outputs = []
        dt = 0.0
        for argv in run.commands:
            t0 = time.perf_counter()
            outputs.append(run.command(argv))
            command_ms.append((time.perf_counter() - t0) * 1e3)
            dt += command_ms[-1] / 1e3
        run.after_reanalysis(outputs)
        set_rates.append(run.rows * len(run.commands) / dt)
        return dt

    # warm-up: lazy imports, page cache of the inputs
    compute_record(run.cases[0], run.serial_config)
    ev, se, re_ = SHARES
    schedule(
        {
            "evaluate": (ev, 1, evaluate_pass),
            "serial": (se, n, serial_call),
            "reanalysis": (re_, 1, reanalysis_set),
        },
        seconds,
    )
    return {
        "metrics": {
            "cases_per_s": statistics.median(pass_rates),
            "case_ms_p50": statistics.median(case_ms),
            "peak_rss_mb": peak_rss_mb(),
        },
        # the re-analysis of a workload's own small bundle is not bounded
        "unbounded": {
            "rows_per_s": statistics.median(set_rates),
            "command_ms_p50": statistics.median(command_ms),
        },
        "p90": p90({"case_ms_p90": case_ms, "command_ms_p90": command_ms}),
        "samples": {
            "evaluate_passes": len(pass_rates),
            "serial_cases": len(case_ms),
            "reanalysis_sets": len(set_rates),
        },
    }


def p90(samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
    """p90 and count of each series with ten samples beyond it; others are omitted."""
    return {
        name: (float(np.percentile(v, 90)), len(v))
        for name, v in samples.items()
        if len(v) >= 100
    }


def _scipy_edt():
    try:
        from scipy.ndimage import distance_transform_edt
    except ImportError:
        return None
    return distance_transform_edt


def run_trace(run: Run, seconds: float, out: Path) -> dict:
    tr = Tracer()
    edt = _scipy_edt()
    per_case: list[dict] = []
    per_pass: list[dict] = []
    per_set: list[dict] = []

    def evaluate_pass() -> float:
        first = len(tr.spans)
        t0 = time.perf_counter()
        with tr.span("evaluate"):
            with tr.span("cohort.parse_manifest"):
                cases = parse_manifest(run.manifest)
            with tr.span("cohort.evaluate_cohort"):
                result = evaluate_cohort(
                    cases, run.pool_config, manifest_path=str(run.manifest)
                )
            with tr.span("reporting.write_report_bundle"):
                write_report_bundle(result, run.bundle, run.pool_config)
        dt = time.perf_counter() - t0
        run.after_evaluate(result)
        row = tr.ms_by_name(first)
        row["bundle_bytes"] = sum(p.stat().st_size for p in run.bundle.iterdir())
        per_pass.append(row)
        return dt

    def traced_case() -> float:
        i, untraced_s = run.serial_call()
        case = run.cases[i]
        config = run.serial_config
        t0 = time.perf_counter()
        first = len(tr.spans)
        with tr.span("case", case_id(case)):
            with tr.span("cohort.compute_record"):
                compute_record(case, config)
            with tr.span("replay"):
                with tr.span("volume.load"):
                    vol_a = load_volume(case.auto_path)
                with tr.span("volume.load"):
                    vol_m = load_volume(case.manual_path)
                rule = case.binarize_rule or config.default_rule
                with tr.span("volume.binarize"):
                    mask_a = binarize(vol_a, rule)
                with tr.span("volume.binarize"):
                    mask_m = binarize(vol_m, rule)
                with tr.span("volume.check"):
                    check_compatible(mask_a, mask_m)
                with tr.span("overlap.confusion"):
                    confusion_counts(mask_a, mask_m)
                with tr.span("overlap.volume"):
                    volume(mask_a, config.unit)
                    volume(mask_m, config.unit)
                with tr.span("surface.compare"):
                    compare_surfaces(
                        mask_a, mask_m, space=config.space,
                        connectivity=config.connectivity,
                    )
            # extraction again on its own, so distance = compare - extract
            with tr.span("surface.extract"):
                s_a = extract_surface(mask_a, config.space, config.connectivity)
                s_r = extract_surface(mask_m, config.space, config.connectivity)
        dt = time.perf_counter() - t0
        row = tr.ms_by_name(first)
        both = np.vstack([s_a.indices, s_r.indices])
        lo = both.min(axis=0)
        crop = tuple(int(d) for d in both.max(axis=0) - lo + 1)
        if edt is not None:
            t1 = time.perf_counter()
            for s in (s_a, s_r):
                sites = np.zeros(crop, dtype=bool)
                local = s.indices - lo
                sites[local[:, 0], local[:, 1], local[:, 2]] = True
                edt(~sites)
            row["edt_scipy"] = (time.perf_counter() - t1) * 1e3
        row.update(
            untraced_ms=untraced_s * 1e3,
            read_bytes=sum(Path(p).stat().st_size for p in (case.auto_path, case.manual_path)),
            decoded_bytes=vol_a.data.nbytes + vol_m.data.nbytes,
            points=s_a.count + s_r.count,
            pairs=s_a.count * s_r.count,
            crop_voxels=int(np.prod(crop)),
            grid_voxels=int(np.prod(mask_a.dims)),
        )
        per_case.append(row)
        return dt

    def reanalysis_set() -> float:
        first = len(tr.spans)
        t0 = time.perf_counter()
        with tr.span("reanalysis"):
            outputs = []
            for argv in run.commands:
                with tr.span("cli.main"):
                    outputs.append(run.command(argv))
            with tr.span("reporting.read_metrics_csv"):
                records = read_metrics_csv(run.csv)
            for metric in METRIC_NAMES:
                with tr.span("stats.anova_for_metric"):
                    anova_for_metric(records, metric)
            with tr.span("stats.subgroup_report"):
                subgroup_report(records)
        dt = time.perf_counter() - t0
        run.after_reanalysis(outputs)
        per_set.append(tr.ms_by_name(first))
        return dt

    compute_record(run.cases[0], run.serial_config)
    ev, se, re_ = SHARES
    schedule(
        {
            "evaluate": (ev, 1, evaluate_pass),
            "traced": (se, len(run.cases), traced_case),
            "reanalysis": (re_, 1, reanalysis_set),
        },
        seconds,
    )
    tr.dump(out / "spans.jsonl")
    return summarize_trace(tr, run, per_case, per_pass, per_set, edt is not None)


def _p50(rows: list[dict], key) -> float:
    return float(statistics.median(key(r) if callable(key) else r.get(key, 0.0) for r in rows))


def summarize_trace(tr, run, per_case, per_pass, per_set, have_scipy) -> dict:
    serial_sum_s = sum(r["untraced_ms"] for r in per_case[: len(run.cases)]) / 1e3
    evaluate_s = _p50(per_pass, "cohort.evaluate_cohort") / 1e3

    def full_grid(r):
        return sum(r.get(k, 0.0) for k in FULL_GRID_STEPS)

    def distance(r):
        return r["surface.compare"] - r["surface.extract"]

    def csv_stats(r):
        work = len(run.commands) * r["reporting.read_metrics_csv"]
        work += r["stats.anova_for_metric"] + r["stats.subgroup_report"]
        return work / r["cli.main"]

    anova_ms = _p50(per_set, "stats.anova_for_metric")
    subgroup_ms = _p50(per_set, "stats.subgroup_report")
    write_ms = _p50(per_pass, "reporting.write_report_bundle")
    pass_ms = _p50(per_pass, "evaluate")
    commands_ms = [
        (s["end"] - s["start"]) * 1e3 for s in tr.spans if s["name"] == "cli.main"
    ]
    m = {
        "volume.load_ms": _p50(per_case, "volume.load"),
        "volume.binarize_ms": _p50(per_case, "volume.binarize"),
        "volume.check_ms": _p50(per_case, "volume.check"),
        "volume.read_bytes": _p50(per_case, "read_bytes"),
        "volume.decoded_bytes": _p50(per_case, "decoded_bytes"),
        "overlap.confusion_ms": _p50(per_case, "overlap.confusion"),
        "overlap.volume_ms": _p50(per_case, "overlap.volume"),
        "surface.extract_ms": _p50(per_case, "surface.extract"),
        "surface.compare_ms": _p50(per_case, "surface.compare"),
        "surface.distance_ms": _p50(per_case, distance),
        "surface.points": _p50(per_case, "points"),
        "surface.pairs": _p50(per_case, "pairs"),
        "surface.crop_voxels": _p50(per_case, "crop_voxels"),
        "surface.grid_voxels": _p50(per_case, "grid_voxels"),
        "surface.pairs_over_grid": sum(
            r["pairs"] > r["grid_voxels"] for r in per_case
        ) / len(per_case),
        "cohort.parse_manifest_ms": _p50(per_pass, "cohort.parse_manifest"),
        "cohort.evaluate_s": evaluate_s,
        "cohort.compute_record_ms": _p50(per_case, "cohort.compute_record"),
        "cohort.pool_speedup": serial_sum_s / evaluate_s,
        "cohort.errors": float(run.gate["failed"]),
        "stats.anova_ms": anova_ms,
        "stats.subgroup_ms": subgroup_ms,
        "reporting.write_bundle_ms": write_ms,
        "reporting.bundle_bytes": _p50(per_pass, "bundle_bytes"),
        "reporting.read_csv_ms": _p50(per_set, "reporting.read_metrics_csv"),
        "cli.command_ms": float(statistics.median(commands_ms)),
        "trace.cases": float(len(per_case)),
        "trace.coverage": _p50(
            per_case,
            lambda r: sum(r[k] for k in REPLAY_STEPS) / r["cohort.compute_record"],
        ),
        "trace.overhead_frac": _p50(
            per_case,
            lambda r: r["cohort.compute_record"] / r["untraced_ms"] - 1.0,
        ),
        "share.full_grid": _p50(per_case, lambda r: full_grid(r) / r["cohort.compute_record"]),
        "share.distance": _p50(per_case, lambda r: distance(r) / r["cohort.compute_record"]),
        "share.csv_stats": _p50(per_set, csv_stats),
        "share.write_bundle": write_ms / pass_ms,
    }
    if have_scipy:
        m["surface.edt_scipy_ms"] = _p50(per_case, "edt_scipy")
    counts = {
        "traced_cases": len(per_case),
        "evaluate_passes": len(per_pass),
        "reanalysis_sets": len(per_set),
        "cli_commands": len(commands_ms),
    }
    return {
        "metrics": m,
        "p90": p90({"cohort.compute_record_ms.p90": [r["cohort.compute_record"] for r in per_case]}),
        "samples": counts,
        "self_ms": tr.self_ms(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--nproc", type=int, required=True)
    p.add_argument("--mode", choices=("e2e", "trace"), required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    run = Run(args.inputs, args.workload, args.nproc, args.out)
    if args.mode == "e2e":
        result = run_e2e(run, args.seconds)
    else:
        result = run_trace(run, args.seconds, args.out)
    result["gate"] = run.finish_gate()
    (args.out / "measure.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
