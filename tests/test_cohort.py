from __future__ import annotations

import csv
import importlib
import json
import math
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import build_cohort, sphere_bits, write_rawvol

from segeval import cohort
from segeval.cohort import (
    METRIC_NAMES,
    CaseSpec,
    EvalConfig,
    compute_record,
    evaluate_cohort,
    parse_manifest,
    subgroup_report,
)
from segeval.errors import (
    AllCasesFailed,
    DegenerateData,
    DuplicateCase,
    EmptySubgroup,
    MalformedRow,
    TooFewGroups,
    UnknownStructure,
)
from segeval.reporting import anova_for_metric, metrics_csv_text, write_report_bundle
from segeval.volume import BinarizeRule

# the package's ``volume`` attribute is the function overlap.volume
volume_module = importlib.import_module("segeval.volume")


def _write_manifest(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseManifest:
    def test_four_rows(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left_hippocampus,a1.nii,m1.nii,1.5T,",
                "s1,beta,left_hippocampus,a2.nii,m1.nii,1.5T,",
                "s2,alpha,left_hippocampus,a3.nii,m2.nii,3T,",
                "s2,beta,left_hippocampus,a4.nii,m2.nii,3T,",
            ],
        )
        cases = parse_manifest(manifest)
        assert len(cases) == 4
        assert cases[0].subject_id == "s1"
        assert cases[0].field_strength == "1.5T"
        assert cases[2].field_strength == "3T"
        # relative paths resolved against the manifest directory
        assert cases[0].auto_path == str(tmp_path / "a1.nii")

    def test_field_strength_aliases(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left,a.nii,m.nii,3t,",
                "s2,alpha,right,a.nii,m.nii,,",
            ],
        )
        cases = parse_manifest(manifest)
        assert cases[0].field_strength == "3T"
        assert cases[0].structure == "left_hippocampus"
        assert cases[1].field_strength is None

    def test_duplicate_names_both_rows(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left_hippocampus,a.nii,m.nii,,",
                "s1,alpha,left_hippocampus,b.nii,m.nii,,",
            ],
        )
        with pytest.raises(DuplicateCase, match="rows 2 and 3"):
            parse_manifest(manifest)

    def test_malformed_row(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left_hippocampus,,m.nii,,",
            ],
        )
        with pytest.raises(MalformedRow, match="row 2"):
            parse_manifest(manifest)

    def test_blank_structure(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha, ,a.nii,m.nii,,",
            ],
        )
        with pytest.raises(UnknownStructure):
            parse_manifest(manifest)

    def test_custom_structure_text_accepted(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,amygdala,a.nii,m.nii,,",
            ],
        )
        assert parse_manifest(manifest)[0].structure == "amygdala"

    def test_label_column_becomes_equals_rule(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left,a.nii,m.nii,,17",
            ],
        )
        assert parse_manifest(manifest)[0].binarize_rule == BinarizeRule.equals(17)

    def test_nan_label_is_a_malformed_row(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left,a.nii,m.nii,,nan",
            ],
        )
        with pytest.raises(MalformedRow, match="row 2: label 'nan'"):
            parse_manifest(manifest)

    def test_bad_field_strength(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left,a.nii,m.nii,7T,",
            ],
        )
        with pytest.raises(MalformedRow, match="field_strength"):
            parse_manifest(manifest)

    def test_jsonl_equivalent(self, tmp_path):
        rows = [
            {"subject": "s1", "method": "alpha", "structure": "left_hippocampus",
             "auto": "a.nii", "manual": "m.nii", "field_strength": "1.5T"},
            {"subject": 2, "method": "alpha", "structure": "right",
             "auto": "b.nii", "manual": "n.nii", "field_strength": None, "label": 17},
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        cases = parse_manifest(manifest)
        assert len(cases) == 2
        assert cases[1].subject_id == "2"
        assert cases[1].structure == "right_hippocampus"
        assert cases[1].field_strength is None
        assert cases[1].binarize_rule == BinarizeRule.equals(17)

    @pytest.mark.parametrize(
        "extra, match",
        [
            ({"label": [17]}, "label '[17]' is not a number"),
            ({"label": True}, "label 'true' is not a number"),
            ({"label": {"value": 17}}, """label '{"value": 17}' is not a number"""),
            ({"field_strength": 3}, "field_strength '3' not one of"),
            ({"field_strength": 1.5}, "field_strength '1.5' not one of"),
        ],
        ids=["label_list", "label_true", "label_object", "field_strength_3", "field_strength_1.5"],
    )
    def test_jsonl_value_read_as_cell_text_is_malformed(self, tmp_path, extra, match):
        row = {"subject": "s1", "method": "alpha", "structure": "left",
               "auto": "a.nii", "manual": "m.nii", **extra}
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(row) + "\n")
        with pytest.raises(MalformedRow, match=re.escape("row 1: " + match)):
            parse_manifest(manifest)

    def test_missing_header_columns(self, tmp_path):
        manifest = _write_manifest(tmp_path / "m.csv", ["subject,method", "s1,alpha"])
        with pytest.raises(MalformedRow, match="missing columns"):
            parse_manifest(manifest)


class TestEvaluateCohort:
    def test_identity_cohort(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=2, identity=True)
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        assert all(r.status == "ok" for r in result.records)
        for r in result.records:
            assert r.dice == 1.0
            assert r.hausdorff == 0.0
            assert r.rms == 0.0
            assert r.assd == 0.0
            assert r.mean_distance == 0.0
            assert r.ravd == 0.0
        # all methods identical -> within-group variance zero on every metric
        for metric in METRIC_NAMES:
            with pytest.raises(DegenerateData):
                anova_for_metric(result.records, metric)

    def test_dilated_method_ranks_below_identity(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=3)
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        by_case = {}
        for r in result.records:
            by_case.setdefault((r.subject, r.structure), {})[r.method] = r
        for pair in by_case.values():
            assert pair["alpha"].dice == 1.0
            assert pair["beta"].dice < 1.0
            assert pair["beta"].ravd > 0.0  # dilation strictly adds voxels

    def test_record_order_and_counts(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=2)
        cases = parse_manifest(manifest)
        result = evaluate_cohort(cases, EvalConfig(threads=1))
        assert len(result.records) == len(cases)
        assert [(r.subject, r.method, r.structure) for r in result.records] == [
            (c.subject_id, c.method, c.structure) for c in cases
        ]

    def test_determinism_across_worker_counts(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=3)
        cases = parse_manifest(manifest)
        texts = []
        for threads in (1, 2):
            config = EvalConfig(threads=threads)
            result = evaluate_cohort(cases, config)
            texts.append(metrics_csv_text(result.records, config))
        assert texts[0] == texts[1]

    def test_a_pool_forked_after_a_single_case_gives_the_serial_bundle(self, tmp_path):
        # the workers inherit what a case in this process leaves behind, such as
        # surface._offset_levels' cached tables; their records must not change
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        cases = parse_manifest(manifest)
        assert compute_record(cases[0], EvalConfig(threads=1)).status == "ok"
        bundles = []
        for threads in (2, 1):
            config = EvalConfig(threads=threads)
            out = tmp_path / f"out{threads}"
            write_report_bundle(evaluate_cohort(cases, config), out, config)
            bundles.append({
                name: (out / name).read_bytes()
                for name in ("metrics.csv", "volumes.csv", "anova.csv",
                             "boxplot.json", "scatter.json")
            })
        assert bundles[0] == bundles[1]

    def test_isolation_of_corrupt_case(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=2)
        cases = parse_manifest(manifest)
        config = EvalConfig(threads=1)
        clean = evaluate_cohort(cases, config).records
        _truncate(cases[3].auto_path)
        dirty = evaluate_cohort(cases, config).records
        assert dirty[3].status == "error"
        assert "CorruptFile" in dirty[3].error
        for i, (c, d) in enumerate(zip(clean, dirty)):
            if i != 3:
                assert c == d

    def test_dead_workers_sink_only_their_cases(self, tmp_path, monkeypatch):
        manifest = build_cohort(tmp_path, n_subjects=3)
        cases = parse_manifest(manifest)
        serial = evaluate_cohort(cases, EvalConfig(threads=1)).records
        doomed = {cases[1].auto_path, cases[10].auto_path}
        # pools fork, so the workers inherit the patched per-case step
        parent, real = os.getpid(), cohort._record_from_masks

        def dies_on_doomed(case, config, *masks):
            if case.auto_path in doomed and os.getpid() != parent:
                os._exit(1)
            return real(case, config, *masks)

        monkeypatch.setattr(cohort, "_record_from_masks", dies_on_doomed)
        pooled = evaluate_cohort(cases, EvalConfig(threads=2)).records
        for case, s, p in zip(cases, serial, pooled):
            if case.auto_path in doomed:
                assert p.status == "error"
                assert p.error.startswith("BrokenProcessPool: ")
                assert (p.subject, p.method, p.structure) == (s.subject, s.method, s.structure)
            else:
                assert p == s

    def test_all_cases_failed(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "m.csv",
            [
                "subject,method,structure,auto,manual,field_strength,label",
                "s1,alpha,left,missing_a.nii,missing_m.nii,,",
            ],
        )
        with pytest.raises(AllCasesFailed):
            evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))

    @pytest.mark.parametrize(
        "field, value",
        [("space", "bogus"), ("connectivity", 7), ("unit", "litres"),
         ("pooling", "subjects"), ("threads", 0), ("default_rule", "nonzero"),
         # of the wrong type: 6.0 and True would change config_hash or mean 1
         ("space", None), ("connectivity", 6.0), ("connectivity", True),
         ("threads", -3), ("threads", 1.0), ("threads", True)],
    )
    def test_a_bad_config_field_is_rejected_before_any_decode(
        self, tmp_path, monkeypatch, field, value
    ):
        cases = parse_manifest(build_cohort(tmp_path, n_subjects=1))
        decoded = []
        monkeypatch.setattr(volume_module, "_decode", lambda *key: decoded.append(key))
        with pytest.raises(ValueError, match=f"EvalConfig.{field} "):
            evaluate_cohort(cases, EvalConfig(**{"threads": 1, field: value}))
        assert decoded == []

    @pytest.mark.parametrize(
        "kind, value, field",
        [("bogus", 1.0, "kind"), ("equals", None, "value"), ("greater_than", math.nan, "value"),
         ("equals", "17", "value"), ("nonzero", 0.0, "value")],
    )
    def test_a_bad_rule_is_rejected_before_any_decode(
        self, tmp_path, monkeypatch, kind, value, field
    ):
        cases = parse_manifest(build_cohort(tmp_path, n_subjects=1))
        decoded = []
        monkeypatch.setattr(volume_module, "_decode", lambda *key: decoded.append(key))
        with pytest.raises(ValueError, match=f"BinarizeRule.{field} "):
            evaluate_cohort(cases, EvalConfig(threads=1, default_rule=BinarizeRule(kind, value)))
        assert decoded == []

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError):
            evaluate_cohort([], EvalConfig())

    def test_pooling_observation_vs_subject(self, tmp_path):
        n_subjects, n_methods, n_structures = 4, 3, 2
        manifest = build_cohort(tmp_path, n_subjects=n_subjects)
        records = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1)).records
        t_obs = anova_for_metric(records, "assd", pooling="observation")
        t_subj = anova_for_metric(records, "assd", pooling="subject")
        assert t_obs.df_total == n_subjects * n_methods * n_structures - 1
        assert t_subj.df_total == n_subjects * n_methods - 1

    def test_volume_table_shape(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=2)
        config = EvalConfig(threads=1)
        result = evaluate_cohort(parse_manifest(manifest), config)
        bundle = write_report_bundle(result, tmp_path / "out", config)
        rows = list(csv.DictReader(bundle.volumes_csv.read_text().splitlines()[1:]))
        assert len(rows) == 2 * 3  # subjects x methods
        for row in rows:
            for side in ("left", "right"):
                auto, manual, norm_diff = (
                    float(row[f"{side}_{col}"]) for col in ("auto", "manual", "norm_diff")
                )
                # each value is printed at 4 decimals
                assert norm_diff == pytest.approx(abs(auto - manual) / manual, abs=1e-4)
        subjects_methods = [(r["subject"], r["method"]) for r in rows]
        assert subjects_methods == sorted(subjects_methods)


def _truncate(path):
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])


class TestJobs:
    """Cases that share files run as one job, which decodes each file once."""

    def test_jobs_group_cases_by_manual_path(self):
        paths = [("a1", "m1"), ("a2", "m2"), ("a3", "m1"), ("a4", "m2"), ("a5", "m1"),
                 ("a6", "m3")]
        cases = [CaseSpec(f"s{i}", "alpha", "left", a, m) for i, (a, m) in enumerate(paths)]
        assert cohort._jobs(cases, 1) == [[0, 2, 4], [1, 3], [5]]
        assert cohort._jobs(cases, 3) == [[0, 2], [4], [1, 3], [5]]  # pieces of ⌈6/3⌉ = 2
        assert cohort._jobs(cases, 6) == [[0], [2], [4], [1], [3], [5]]

    def test_each_file_is_decoded_once(self, tmp_path, monkeypatch):
        manifest = build_cohort(tmp_path, n_subjects=2)  # 2 structures × 3 methods
        cases = parse_manifest(manifest)
        config = EvalConfig(threads=1)
        distinct = sorted({p for c in cases for p in (c.auto_path, c.manual_path)})
        assert (len(cases), len(distinct)) == (12, 16)
        opened = []

        class CountingFile(volume_module._VolumeFile):
            def __init__(self, path):
                opened.append(str(path))
                super().__init__(path)

        monkeypatch.setattr(volume_module, "_VolumeFile", CountingFile)
        clean = evaluate_cohort(cases, config).records
        assert sorted(opened) == distinct
        opened.clear()
        assert [compute_record(c, config) for c in cases] == clean
        assert len(opened) == 24  # one case at a time reads its manual once per method

        # a failed decode is kept too: the bad manual is read once for its three cases
        _truncate(cases[0].manual_path)
        opened.clear()
        dirty = evaluate_cohort(cases, config).records
        assert sorted(opened) == distinct
        assert [r.status for r in dirty] == ["error"] * 3 + ["ok"] * 9
        assert dirty[3:] == clean[3:]

    def test_one_shared_template_spreads_over_workers(self, tmp_path, monkeypatch):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        template = parse_manifest(manifest)[0].manual_path
        lines = manifest.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        manifest.write_text(
            "\n".join([lines[0]] + [",".join(r[:4] + [template] + r[5:]) for r in rows]) + "\n"
        )
        cases = parse_manifest(manifest)
        assert {c.manual_path for c in cases} == {template}
        seen = []
        real = cohort._jobs

        def spy(cases, workers):
            seen.append(real(cases, workers))
            return seen[-1]

        monkeypatch.setattr(cohort, "_jobs", spy)
        bundles = []
        for threads in (1, 2):
            config = EvalConfig(threads=threads)
            out = tmp_path / f"out{threads}"
            write_report_bundle(evaluate_cohort(cases, config), out, config)
            bundles.append({
                name: (out / name).read_bytes()
                for name in ("metrics.csv", "volumes.csv", "anova.csv",
                             "boxplot.json", "scatter.json")
            })
        assert seen == [[list(range(12))], [list(range(6)), list(range(6, 12))]]
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_case_keeps_its_own_error(self, tmp_path, threads):
        manifest = build_cohort(tmp_path, n_subjects=2)
        cases = parse_manifest(manifest)
        config = EvalConfig(threads=threads)
        clean = evaluate_cohort(cases, config).records
        # s000 left: a truncated manual shared by all three methods
        _truncate(cases[0].manual_path)
        # s000 right: a truncated manual, and gamma's auto is no volume at all
        _truncate(cases[3].manual_path)
        Path(cases[5].auto_path).write_bytes(b"not a volume")
        # s001 left: beta's auto lies on another grid
        write_rawvol(cases[7].auto_path, np.ones((16, 16, 17), np.uint8), gzipped=True)
        dirty = evaluate_cohort(cases, config).records

        bad = {0, 1, 2, 3, 4, 5, 7}
        for i, (case, c, d) in enumerate(zip(cases, clean, dirty)):
            if i not in bad:
                assert d == c
                continue
            # the error record names what the case alone raises
            with pytest.raises(Exception) as raised:
                compute_record(case, config)
            e = raised.value
            assert (d.status, d.error) == ("error", f"{type(e).__name__}: {e}")
        assert dirty[0].error.startswith("CorruptFile: ")
        assert dirty[0].error == dirty[1].error == dirty[2].error
        assert dirty[3].error == dirty[4].error
        assert dirty[3].error.startswith("CorruptFile: ")
        assert dirty[5].error.startswith("UnsupportedFormat: ")  # auto's, not manual's
        assert dirty[7].error == "GridMismatch: (16,16,17) vs (16,16,16)"

    @pytest.mark.parametrize("first", ["ok", "error"])
    def test_a_job_frees_each_case_s_masks_before_the_next_decode(
        self, tmp_path, monkeypatch, first
    ):
        manifest = build_cohort(tmp_path, n_subjects=2, methods=("alpha",),
                                structures=("left_hippocampus",))
        cases = parse_manifest(manifest)  # two cases that share no file
        if first == "error":  # an empty automatic mask fails in the record step
            write_rawvol(cases[0].auto_path, np.zeros((16, 16, 16), np.uint8), gzipped=True)
        case_of = {p: i for i, c in enumerate(cases) for p in (c.auto_path, c.manual_path)}
        decoded = []  # (case, weak reference to the mask)
        live = []  # per decode: its case, and the earlier cases with a mask alive
        real = volume_module._members

        def spy(src, rule):  # _decode turns a failed assert into the file's error
            case = case_of[src.path]
            live.append((case, [i for i, ref in decoded if i < case and ref() is not None]))
            mask = real(src, rule)
            decoded.append((case, weakref.ref(mask)))
            return mask

        monkeypatch.setattr(volume_module, "_members", spy)
        records = cohort._evaluate_job(cases, EvalConfig(threads=1))
        assert [r.status for r in records] == [first, "ok"]
        assert live == [(0, []), (0, []), (1, []), (1, [])]

    def test_a_single_case_finishes_its_loader_before_the_record(self, tmp_path, monkeypatch):
        # the loader's generator runs to its end, and so frees what it held,
        # before any surface work allocates; kept open, it changes the heap
        # the record step and later decodes see
        manifest = build_cohort(tmp_path, n_subjects=1, methods=("alpha",),
                                structures=("left_hippocampus",))
        (case,) = parse_manifest(manifest)
        events = []
        real_load, real_record = cohort.load_mask_pairs, cohort._record_from_masks

        def load(pairs):
            try:
                yield from real_load(pairs)
            finally:
                events.append("loader finished")

        def record(*args):
            events.append("record")
            return real_record(*args)

        monkeypatch.setattr(cohort, "load_mask_pairs", load)
        monkeypatch.setattr(cohort, "_record_from_masks", record)
        assert compute_record(case, EvalConfig(threads=1)).status == "ok"
        assert events == ["loader finished", "record"]

    def test_dead_worker_inside_a_job_sinks_only_its_case(self, tmp_path, monkeypatch):
        manifest = build_cohort(tmp_path, n_subjects=2)
        cases = parse_manifest(manifest)
        serial = evaluate_cohort(cases, EvalConfig(threads=1)).records
        assert cohort._jobs(cases, 2)[1] == [3, 4, 5]
        doomed = cases[4]
        # pools fork, so the workers inherit the patched per-case step
        parent, real = os.getpid(), cohort._record_from_masks

        def dies_on_doomed(case, config, *masks):
            if case == doomed and os.getpid() != parent:
                os._exit(1)
            return real(case, config, *masks)

        monkeypatch.setattr(cohort, "_record_from_masks", dies_on_doomed)
        pooled = evaluate_cohort(cases, EvalConfig(threads=2)).records
        assert pooled[4].status == "error"
        assert pooled[4].error.startswith("BrokenProcessPool: ")
        assert (pooled[4].subject, pooled[4].method) == (serial[4].subject, serial[4].method)
        assert pooled[:4] + pooled[5:] == serial[:4] + serial[5:]

    def test_a_rerun_job_goes_case_by_case_only_if_it_dies_again(self, tmp_path, monkeypatch):
        manifest = build_cohort(tmp_path, n_subjects=1, structures=("left_hippocampus",))
        cases = parse_manifest(manifest)  # three methods against one manual: one job
        config = EvalConfig(threads=1)
        serial = evaluate_cohort(cases, config).records
        pools = []

        class CountingPool(cohort.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cohort, "ProcessPoolExecutor", CountingPool)
        assert cohort._evaluate_alone(cases, config) == serial
        assert pools == [1]

        # pools fork, so the workers inherit the patched per-case step
        parent, real = os.getpid(), cohort._record_from_masks

        def dies_on_beta(case, config, *masks):
            if case.method == "beta" and os.getpid() != parent:
                os._exit(1)
            return real(case, config, *masks)

        monkeypatch.setattr(cohort, "_record_from_masks", dies_on_beta)
        pools.clear()
        rerun = cohort._evaluate_alone(cases, config)
        assert pools == [1, 1, 1, 1]  # the job, then each of its three cases
        assert [r.method for r in rerun] == ["alpha", "beta", "gamma"]
        assert rerun[1].error.startswith("BrokenProcessPool: ")
        assert [rerun[0], rerun[2]] == [serial[0], serial[2]]


class TestSubgroups:
    def _mirrored_cohort(self, tmp_path):
        """3T cases are byte-identical copies of the 1.5T cases."""
        dims = (12, 12, 12)
        manual = sphere_bits(dims, (6, 6, 6), 3)
        auto = sphere_bits(dims, (7, 6, 6), 3)
        write_rawvol(tmp_path / "m.rawvol", manual.astype(np.uint8))
        write_rawvol(tmp_path / "a.rawvol", auto.astype(np.uint8))
        lines = ["subject,method,structure,auto,manual,field_strength,label"]
        for si, fs in enumerate(("1.5T", "3T")):
            for method in ("alpha", "beta"):
                lines.append(f"s{si},{method},left,a.rawvol,m.rawvol,{fs},")
        return _write_manifest(tmp_path / "m.csv", lines)

    def test_mirrored_subgroups_have_zero_deltas(self, tmp_path):
        manifest = self._mirrored_cohort(tmp_path)
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        report = subgroup_report(result.records)
        for method, metrics in report["methods"].items():
            for metric, cell in metrics.items():
                assert cell["delta_mean"] == 0.0

    def test_subgroup_counts(self, tmp_path):
        manifest = build_cohort(
            tmp_path, n_subjects=8,
            field_strengths=("1.5T", "3T", "3T", "3T"),  # 2 vs 6 subjects
        )
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        report = subgroup_report(result.records)
        cell = report["methods"]["alpha"]["dice"]
        assert cell["1.5T"]["n"] == 2 * 2  # subjects x structures
        assert cell["3T"]["n"] == 6 * 2

    def test_missing_subgroup_named(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=2, field_strengths=("1.5T",))
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        with pytest.raises(EmptySubgroup, match=r"\(alpha, 3T\)"):
            subgroup_report(result.records)

    def test_no_field_strength_at_all(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=2)
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        with pytest.raises(EmptySubgroup, match="field_strength"):
            subgroup_report(result.records)

    def test_subgroup_report_cell_n_and_mean(self, tmp_path):
        manifest = build_cohort(tmp_path, n_subjects=4, field_strengths=("1.5T", "3T"))
        result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
        report = subgroup_report(result.records)
        assert set(report["methods"]) == {"alpha", "beta", "gamma"}
        cell = report["methods"]["alpha"]["dice"]["3T"]
        assert cell["n"] == 2 * 2
        assert cell["mean"] == 1.0


def test_single_method_cohort_has_too_few_groups(tmp_path):
    manifest = build_cohort(tmp_path, n_subjects=2, methods=("alpha",))
    result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
    for metric in METRIC_NAMES:
        with pytest.raises(TooFewGroups, match="got 1"):
            anova_for_metric(result.records, metric)


def _synthetic_record(subject, method, fs, value):
    from segeval.cohort import MetricRecord

    metrics = {name: value for name in METRIC_NAMES}
    return MetricRecord(
        subject=subject, method=method, structure="left_hippocampus",
        field_strength=fs, space="index", status="ok",
        v_auto=1.0, v_manual=1.0, **metrics,
    )


def test_subgroup_sizes_154_and_270():
    rng = np.random.default_rng(5)
    records = []
    for i in range(154):
        records.append(_synthetic_record(f"a{i}", "alpha", "1.5T", rng.random()))
    for i in range(270):
        records.append(_synthetic_record(f"b{i}", "alpha", "3T", rng.random()))
    report = subgroup_report(records)
    cell = report["methods"]["alpha"]["dice"]
    assert cell["1.5T"]["n"] == 154
    assert cell["3T"]["n"] == 270


def test_metric_record_accessor(tmp_path):
    manifest = build_cohort(tmp_path, n_subjects=1)
    result = evaluate_cohort(parse_manifest(manifest), EvalConfig(threads=1))
    record = result.records[0]
    for name in METRIC_NAMES:
        assert record.metric(name) is not None
    with pytest.raises(KeyError):
        record.metric("volume")
