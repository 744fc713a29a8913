from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest
from helpers import build_cohort

from segeval import reporting
from segeval.cli import main
from segeval.cohort import (
    METRIC_NAMES,
    CohortResult,
    EvalConfig,
    MetricRecord,
    evaluate_cohort,
    parse_manifest,
)
from segeval.errors import MalformedCsv
from segeval.volume import BinarizeRule
from segeval.reporting import (
    anova_for_metric,
    metrics_csv_text,
    read_metrics_csv,
    write_report_bundle,
)

ARTIFACTS = ("metrics.csv", "volumes.csv", "anova.csv", "boxplot.json", "scatter.json")


def _evaluate(tmp_path, flags=(), **cohort):
    manifest = build_cohort(tmp_path / "cohort", **cohort)
    out = tmp_path / "out"
    assert main(["evaluate", str(manifest), str(out), "--threads", "1", *flags]) == 0
    return out


def _anova_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return {(r["Measurement"], r["Source"]): r for r in csv.DictReader(lines)}


def _skipped_lines(path):
    prefix = "# skipped "
    skipped = {}
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            metric, reason = line[len(prefix):].split(": ", 1)
            skipped[metric] = reason
    return skipped


def _manifest_skipped(out):
    return json.loads((out / "run_manifest.json").read_text())["anova_skipped"]


# sha256 of the five deterministic artifacts. A refactor must leave every byte
# as it is; only a deliberate change of output updates a digest here.
GOLDEN = {
    "three_methods_subject_pooling": (
        dict(n_subjects=4, field_strengths=("1.5T", "3T")),
        ("--pooling", "subject"),
        {
            "metrics.csv": "4d1f1ca93134b91c8e79712504c08744788b16d133835ecb788d87bb55f8f52c",
            "volumes.csv": "46cba9ecd2fdef34009c1324368bd05fada45957e938b380d1389480ce18f675",
            "anova.csv": "81d7e380edbeca68743a2a06a54999e23cb578c15d8b4486dd42c1adec78cf7d",
            "boxplot.json": "134c4b925e53a414a1a4e71b51d33bc87baa2d00144112f1b8b8a57ccd4bf10f",
            "scatter.json": "a04daf2e5576217ed358090502a0340478f0c69342236c3546951be1211891db",
        },
    ),
    "single_method": (
        dict(n_subjects=2, methods=("alpha",)),
        (),
        {
            "metrics.csv": "9f7e6ff8f8e9389432c6c84785e664738ba6d089f821279a21f77df4f01fcd48",
            "volumes.csv": "808888a11464d6846c8280d824b6775d041cb865ed9e21a02fbbe653ed84dfaf",
            "anova.csv": "bb9ea9269015301e01f2528a964979256ea13e49b5893bb768ffd1e9258a18c3",
            "boxplot.json": "15f4f54c8a655a72147efaa9538f228c5e4ceb294cbbadb82de94c2c6724e2da",
            "scatter.json": "943ab284a2a162e94e4912df22ab55e02b014242ff03883b2efcf92faaf29314",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bundle_digests(tmp_path, capsys, name):
    cohort, flags, digests = GOLDEN[name]
    out = _evaluate(tmp_path, flags, **cohort)
    got = {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    assert got == digests


@pytest.mark.parametrize(
    "cohort, reason",
    [
        (dict(n_subjects=2, methods=("alpha",)), "TooFewGroups: need at least 2 groups, got 1"),
        (dict(n_subjects=2, identity=True), "DegenerateData: within-group variance is zero"),
    ],
    ids=["single_method", "identity"],
)
def test_anova_csv_and_run_manifest_skip_the_same(tmp_path, capsys, cohort, reason):
    out = _evaluate(tmp_path, **cohort)
    skipped = _skipped_lines(out / "anova.csv")
    assert set(skipped) == set(METRIC_NAMES)
    assert all(v.startswith(reason) for v in skipped.values())
    assert _manifest_skipped(out) == skipped


def _record(subject, method, value):
    return MetricRecord(
        subject=subject, method=method, structure="left_hippocampus",
        field_strength=None, space="index", status="ok",
        v_auto=1.0, v_manual=1.0, **{m: value for m in METRIC_NAMES},
    )


def test_values_equal_at_four_decimals_are_degenerate_in_both_artifacts(tmp_path):
    # every value prints as 0.5000: at full precision the ANOVA is defined,
    # at the 4 decimals metrics.csv holds it is not
    records = [
        _record("s1", "alpha", 0.50001),
        _record("s2", "alpha", 0.50002),
        _record("s1", "beta", 0.50003),
        _record("s2", "beta", 0.50004),
    ]
    config = EvalConfig()
    bundle = write_report_bundle(CohortResult(records, config), tmp_path, config)
    skipped = _skipped_lines(bundle.anova_csv)
    assert set(skipped) == set(METRIC_NAMES)
    assert all(v.startswith("DegenerateData: within-group") for v in skipped.values())
    assert _manifest_skipped(tmp_path) == skipped


def _two_method_records():
    return [_record(f"s{i}", method, 0.5 + 0.01 * i + (method == "beta") * 0.1)
            for method in ("alpha", "beta") for i in range(3)]


@pytest.mark.parametrize(
    "config, digest",
    [
        (EvalConfig(), "9545fe7d6fe9"),
        (EvalConfig(space="physical", connectivity=26, unit="voxels", pooling="subject",
                    threads=3), "e6987cddb9ac"),
    ],
    ids=["default", "all_flags"],
)
def test_run_manifest_config_is_the_hashed_dict(tmp_path, config, digest):
    write_report_bundle(CohortResult(_two_method_records(), config), tmp_path, config)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"] == {
        "space": config.space,
        "connectivity": config.connectivity,
        "unit": config.unit,
        "pooling": config.pooling,
        "default_rule": "nonzero",
    }
    assert manifest["config_hash"] == config.config_hash() == digest
    for name in ("metrics.csv", "volumes.csv", "anova.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first.startswith("# config: ") and first.endswith(f" hash={digest}")


@pytest.mark.parametrize("status", ["OK", "", "failed"])
def test_metrics_csv_status_other_than_ok_or_error_is_malformed(tmp_path, status):
    # such a row is neither analysed nor an error, so it would drop out unseen
    text = metrics_csv_text(_two_method_records(), EvalConfig())
    lines = text.splitlines()
    lines[-1] = lines[-1].replace(",index,ok,", f",index,{status},")
    path = tmp_path / "metrics.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedCsv, match=f"row 7: status '{status}' is not ok or error"):
        read_metrics_csv(path)


def test_unknown_pooling_raises():
    with pytest.raises(ValueError, match="unknown pooling 'subjects'"):
        anova_for_metric(_two_method_records(), "dice", pooling="subjects")


def _prefix_hash_to_s000(manifest):
    lines = manifest.read_text().splitlines()
    manifest.write_text(
        "\n".join("#" + l if l.startswith("s000,") else l for l in lines) + "\n"
    )


def test_hash_prefixed_subject_is_data_not_comment(tmp_path, capsys):
    manifest = build_cohort(tmp_path / "cohort", n_subjects=3)
    _prefix_hash_to_s000(manifest)
    cases = parse_manifest(manifest)
    assert sum(c.subject_id == "#s000" for c in cases) == 6
    out = tmp_path / "out"
    assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
    assert (out / "metrics.csv").read_text().count("\n#s000,") == 6

    records = read_metrics_csv(out / "metrics.csv")
    assert len(records) == len(cases) == 18
    assert [r.subject for r in records] == [c.subject_id for c in cases]

    capsys.readouterr()
    assert main(["anova", str(out / "metrics.csv"), "dice"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["df_total"] == len(cases) - 1
    assert int(_anova_rows(out / "anova.csv")[("dice", "Total")]["df"]) == len(cases) - 1


def test_volumes_csv_keeps_hash_prefixed_subject(tmp_path):
    manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
    _prefix_hash_to_s000(manifest)
    config = EvalConfig(threads=1)
    result = evaluate_cohort(parse_manifest(manifest), config)
    bundle = write_report_bundle(result, tmp_path / "out", config)
    lines = bundle.volumes_csv.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    rows = list(csv.DictReader(lines[1:]))
    assert [(r["subject"], r["method"]) for r in rows] == sorted(
        {(r.subject, r.method) for r in result.records}
    )
    assert rows[0]["subject"] == "#s000"


def _bundle_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "renderer",
    ["metrics_csv_text", "anova_csv_text", "volumes_csv_text", "boxplot_payload",
     "scatter_payload", "_json_dump"],
)
def test_a_failed_render_leaves_the_earlier_bundle_untouched(tmp_path, monkeypatch, renderer):
    cases = parse_manifest(build_cohort(tmp_path / "cohort", n_subjects=2))
    out = tmp_path / "out"
    physical = EvalConfig(space="physical", threads=1)
    write_report_bundle(evaluate_cohort(cases, physical), out, physical)
    before = _bundle_bytes(out)
    config = EvalConfig(threads=1)
    result = evaluate_cohort(cases, config)
    assert sorted(before) == sorted(ARTIFACTS + ("run_manifest.json",))
    real = getattr(reporting, renderer)

    def fail(*args):
        # _json_dump renders two artifacts first; it fails on the run manifest
        if renderer != "_json_dump" or "tool_version" in args[0]:
            raise RuntimeError("render failed")
        return real(*args)

    monkeypatch.setattr(reporting, renderer, fail)
    with pytest.raises(RuntimeError, match="render failed"):
        write_report_bundle(result, out, config)
    assert _bundle_bytes(out) == before


def test_the_run_manifest_is_replaced_around_the_artifacts(tmp_path, monkeypatch):
    # so a directory holding a run_manifest.json holds that run's whole bundle
    manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
    config = EvalConfig(threads=1)
    result = evaluate_cohort(parse_manifest(manifest), config)
    out = tmp_path / "out"
    write_report_bundle(result, out, config)
    real, written, failing = reporting._atomic_write, [], {"scatter.json"}

    def write(path, data):
        if path.name in failing:
            raise OSError("disk full")
        written.append(path.name)
        real(path, data)

    monkeypatch.setattr(reporting, "_atomic_write", write)
    with pytest.raises(OSError, match="disk full"):
        write_report_bundle(result, out, config)
    assert not (out / "run_manifest.json").exists()
    failing.clear()
    written.clear()
    write_report_bundle(result, out, config)
    assert sorted(written) == sorted(ARTIFACTS + ("run_manifest.json",))
    assert written[-1] == "run_manifest.json"


@pytest.mark.parametrize(
    "field, value",
    [("space", "physical"), ("connectivity", 26), ("unit", "voxels"),
     ("pooling", "subject"), ("default_rule", BinarizeRule.equals(1.0))],
    ids=["space", "connectivity", "unit", "pooling", "default_rule"],
)
def test_a_bundle_config_other_than_the_records_is_rejected_untouched(tmp_path, field, value):
    # the records were computed under one config; a bundle naming another
    # would print one config's numbers under the other's header and hash
    cases = parse_manifest(build_cohort(tmp_path / "cohort", n_subjects=2))
    config = EvalConfig(threads=1)
    result = evaluate_cohort(cases, config)
    out = tmp_path / "out"
    write_report_bundle(result, out, config)
    before = _bundle_bytes(out)
    other = EvalConfig(**{"threads": 1, field: value})
    for target in (out, tmp_path / "fresh"):
        with pytest.raises(ValueError, match="is not the config the records were computed under"):
            write_report_bundle(result, target, other)
    assert _bundle_bytes(out) == before
    assert not (tmp_path / "fresh").exists()


def test_a_bundle_config_differing_only_in_threads_is_accepted(tmp_path):
    cases = parse_manifest(build_cohort(tmp_path / "cohort", n_subjects=2))
    result = evaluate_cohort(cases, EvalConfig(threads=1))
    write_report_bundle(result, tmp_path / "a", EvalConfig(threads=1))
    write_report_bundle(result, tmp_path / "b", EvalConfig(threads=4))
    write_report_bundle(result, tmp_path / "c", EvalConfig())
    a = _bundle_bytes(tmp_path / "a")
    for other in ("b", "c"):
        b = _bundle_bytes(tmp_path / other)
        assert {k: a[k] for k in ARTIFACTS} == {k: b[k] for k in ARTIFACTS}


@pytest.mark.parametrize("pooling", ["subject", "observation"])
def test_a_subject_with_an_errored_case_is_excluded_under_subject_pooling(tmp_path, pooling):
    n_subjects, n_methods = 3, 3
    cases = parse_manifest(build_cohort(tmp_path / "cohort", n_subjects=n_subjects))
    victim = next(c for c in cases if c.subject_id == "s001")
    blob = Path(victim.auto_path).read_bytes()
    Path(victim.auto_path).write_bytes(blob[: len(blob) // 2])
    config = EvalConfig(pooling=pooling, threads=1)
    result = evaluate_cohort(cases, config)
    assert [r.subject for r in result.records if r.status == "error"] == ["s001"]
    out = tmp_path / "out"
    write_report_bundle(result, out, config)
    manifest = json.loads((out / "run_manifest.json").read_text())
    total_df = int(_anova_rows(out / "anova.csv")[("dice", "Total")]["df"])
    if pooling == "subject":
        assert manifest["excluded_subjects"] == ["s001"]
        assert total_df == (n_subjects - 1) * n_methods - 1
    else:
        assert manifest["excluded_subjects"] == []
        assert total_df == (len(cases) - 1) - 1  # every case but the errored one
