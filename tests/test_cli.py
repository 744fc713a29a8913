from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import build_cohort, sphere_bits, write_nifti, write_rawvol

import segeval
from segeval import cohort
from segeval.cli import build_parser, main
from segeval.cohort import METRIC_NAMES
from segeval.reporting import read_metrics_csv, read_volumes_csv


@pytest.fixture
def pair(tmp_path):
    dims = (10, 10, 10)
    manual = sphere_bits(dims, (5, 5, 5), 3).astype(np.uint8)
    auto = sphere_bits(dims, (6, 5, 5), 3).astype(np.uint8)
    m = write_rawvol(tmp_path / "manual.rawvol", manual)
    a = write_rawvol(tmp_path / "auto.rawvol", auto)
    return str(a), str(m)


class TestMetricsCommand:
    def test_identical_files(self, tmp_path, capsys):
        vol = sphere_bits((8, 8, 8), (4, 4, 4), 2).astype(np.uint8)
        p = str(write_rawvol(tmp_path / "v.rawvol", vol))
        assert main(["metrics", p, p]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["dice"] == 1.0
        assert record["hausdorff"] == 0.0
        assert record["status"] == "ok"

    def test_grid_mismatch_exit_2(self, tmp_path, capsys):
        a = write_rawvol(tmp_path / "a.rawvol", np.ones((4, 4, 4), dtype=np.uint8))
        m = write_rawvol(tmp_path / "m.rawvol", np.ones((4, 4, 5), dtype=np.uint8))
        assert main(["metrics", str(a), str(m)]) == 2
        err = capsys.readouterr().err
        assert "GridMismatch: (4,4,4) vs (4,4,5)" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "no.nii"), str(tmp_path / "no2.nii")]) == 1

    @pytest.mark.parametrize("defect", ["nan_voxel", "nan_slope"])
    def test_nan_input_exit_1(self, tmp_path, capsys, defect):
        ball = sphere_bits((8, 8, 8), (4, 4, 4), 2).astype(np.float32)
        good = str(write_rawvol(tmp_path / "good.rawvol", ball))
        if defect == "nan_voxel":
            ball[0, 0, 0] = np.nan
            bad = write_rawvol(tmp_path / "bad.rawvol", ball)
        else:
            bad = write_nifti(tmp_path / "bad.nii", ball, scl_slope=float("nan"))
        assert main(["metrics", str(bad), good]) == 1
        assert "CorruptFile" in capsys.readouterr().err

    def test_label_flag(self, tmp_path, capsys):
        data = np.zeros((6, 6, 6), dtype=np.uint8)
        data[2:4, 2:4, 2:4] = 17
        data[0, 0, 0] = 3  # distractor label
        p = str(write_rawvol(tmp_path / "v.rawvol", data))
        assert main(["metrics", p, p, "--label", "17"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["v_auto"] == 8.0

    def test_nan_label_is_a_usage_error(self, tmp_path, capsys):
        p = str(write_rawvol(tmp_path / "v.rawvol", np.ones((2, 2, 2), dtype=np.uint8)))
        with pytest.raises(SystemExit) as exc:
            main(["metrics", p, p, "--label", "nan"])
        assert exc.value.code == 2
        assert "--label" in capsys.readouterr().err

    def test_physical_space_flag(self, pair, capsys):
        a, m = pair
        assert main(["metrics", a, m, "--space", "physical"]) == 0
        assert json.loads(capsys.readouterr().out)["space"] == "physical"


class TestEvaluateCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
        for name in ("metrics.csv", "volumes.csv", "anova.csv",
                     "boxplot.json", "scatter.json", "run_manifest.json"):
            assert (out / name).exists(), name

    def test_metrics_csv_identity_cohort(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2, identity=True)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
        records = read_metrics_csv(out / "metrics.csv")
        assert all(r.dice == 1.0 for r in records)
        text = (out / "metrics.csv").read_text()
        assert ",1.0000," in text

    def test_anova_csv_has_three_rows_per_metric(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=3)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
        lines = [
            l for l in (out / "anova.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 9 * 3  # nine metrics x Columns/Error/Total
        sources = [r["Source"] for r in rows[:3]]
        assert sources == ["Columns", "Error", "Total"]
        assert {r["Measurement"] for r in rows} == set(METRIC_NAMES)

    def test_golden_determinism_across_runs_and_workers(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=3,
                                field_strengths=("1.5T", "3T"))
        outputs = {}
        for run, threads in (("r1", "1"), ("r2", "1"), ("r3", "2")):
            out = tmp_path / run
            assert main(["evaluate", str(manifest), str(out), "--threads", threads]) == 0
            outputs[run] = {
                name: (out / name).read_bytes()
                for name in ("metrics.csv", "volumes.csv", "anova.csv",
                             "boxplot.json", "scatter.json")
            }
        assert outputs["r1"] == outputs["r2"] == outputs["r3"]

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_threads_below_one_rejected_at_parsing(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["evaluate", "m.csv", "out", "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_pool_capped_at_case_count(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(cohort, "ProcessPoolExecutor", InProcessPool)
        manifest = build_cohort(tmp_path / "cohort", n_subjects=1,
                                methods=("alpha", "beta"),
                                structures=("left_hippocampus",))
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "64"]) == 0
        assert sizes == [2]

    def test_dead_worker_becomes_an_error_row(self, tmp_path, capsys, monkeypatch):
        # pools fork, so the workers inherit the patched per-case step
        parent, real = os.getpid(), cohort._record_from_masks

        def dies_on_beta(case, config, *masks):
            if case.method == "beta" and os.getpid() != parent:
                os._exit(1)
            return real(case, config, *masks)

        monkeypatch.setattr(cohort, "_record_from_masks", dies_on_beta)
        manifest = build_cohort(tmp_path / "cohort", n_subjects=1,
                                structures=("left_hippocampus",))
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "2"]) == 0
        assert "2/3 cases ok" in capsys.readouterr().out
        rows = {r.method: r for r in read_metrics_csv(out / "metrics.csv")}
        assert rows["beta"].status == "error"
        assert rows["beta"].error.startswith("BrokenProcessPool: ")
        assert rows["alpha"].status == rows["gamma"].status == "ok"

    def test_config_comment_present(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=1)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1",
                     "--space", "physical", "--connectivity", "26"]) == 0
        head = (out / "metrics.csv").read_text().splitlines()[0]
        assert head.startswith("# config:")
        assert "space=physical" in head
        assert "connectivity=26" in head
        boxplot = json.loads((out / "boxplot.json").read_text())
        assert "space=physical" in boxplot["config"]

    def test_bad_manifest_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,method\n1,2\n")
        assert main(["evaluate", str(bad), str(tmp_path / "out")]) == 1

    def test_csvs_reparse_through_own_readers(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
        records = read_metrics_csv(out / "metrics.csv")
        assert len(records) == 2 * 3 * 2
        rows = read_volumes_csv(out / "volumes.csv")
        assert len(rows) == 2 * 3


class TestAnovaCommand:
    def test_round_trip_matches_bundled_anova_csv(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=3)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
        capsys.readouterr()
        bundled = {}
        lines = [
            l for l in (out / "anova.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        for row in csv.DictReader(lines):
            bundled.setdefault(row["Measurement"], {})[row["Source"]] = row
        for metric in ("dice", "assd", "hausdorff"):
            assert main(["anova", str(out / "metrics.csv"), metric]) == 0
            table = json.loads(capsys.readouterr().out)
            cols = bundled[metric]["Columns"]
            assert abs(table["ss_between"] - float(cols["SS"])) <= 1e-4 + 1e-10
            assert table["df_between"] == int(cols["df"])
            assert table["df_within"] == int(bundled[metric]["Error"]["df"])
            # the CSV is generated from itself-parsable values: formatting the
            # recomputed cells must reproduce the file exactly
            assert f"{table['ss_between']:.4f}" == cols["SS"]
            assert f"{table['f']:.4f}" == cols["F"]
            assert table["p_printed"] == cols["P-value"]

    def test_unknown_metric_exit_3(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        out = tmp_path / "out"
        main(["evaluate", str(manifest), str(out), "--threads", "1"])
        capsys.readouterr()
        assert main(["anova", str(out / "metrics.csv"), "volume"]) == 3
        err = capsys.readouterr().err
        assert "UnknownMetric" in err
        assert "hausdorff" in err  # lists valid names

    def test_single_method_exit_3(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2, methods=("alpha",))
        out = tmp_path / "out"
        main(["evaluate", str(manifest), str(out), "--threads", "1"])
        capsys.readouterr()
        assert main(["anova", str(out / "metrics.csv"), "dice"]) == 3
        assert "TooFewGroups" in capsys.readouterr().err

    def test_missing_csv_exit_1(self, tmp_path, capsys):
        assert main(["anova", str(tmp_path / "none.csv"), "dice"]) == 1

    def test_blank_metric_on_an_ok_row_exit_1(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        out = tmp_path / "out"
        assert main(["evaluate", str(manifest), str(out), "--threads", "1"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        names = lines[header].split(",")
        cells = lines[header + 2].split(",")
        assert cells[names.index("status")] == "ok"
        cells[names.index("dice")] = ""
        lines[header + 2] = ",".join(cells)
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["anova", str(blank), "dice"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("MalformedCsv:")
        assert "row 3: ok row has blank dice" in err


class TestSubgroupCommand:
    def test_report_shape(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=4,
                                field_strengths=("1.5T", "3T"))
        out = tmp_path / "out"
        main(["evaluate", str(manifest), str(out), "--threads", "1"])
        capsys.readouterr()
        assert main(["subgroup", str(out / "metrics.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition"] == "field_strength"
        assert set(report["methods"]) == {"alpha", "beta", "gamma"}
        cell = report["methods"]["alpha"]["dice"]
        assert {"1.5T", "3T", "delta_mean"} <= set(cell)

    def test_missing_field_strength_exit_3(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=2)
        out = tmp_path / "out"
        main(["evaluate", str(manifest), str(out), "--threads", "1"])
        capsys.readouterr()
        assert main(["subgroup", str(out / "metrics.csv")]) == 3
        assert "EmptySubgroup" in capsys.readouterr().err


def test_import_loads_no_third_party_module_but_numpy():
    # the runtime depends on numpy alone; a fresh interpreter shows what the
    # package and its command line pull in
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import segeval, segeval.cli\n"
        "main = sys.modules['__main__']\n"
        "loaded = {n.partition('.')[0] for n in set(sys.modules) - before\n"
        "          if sys.modules[n] is not main}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n"
    )
    src = str(Path(segeval.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["numpy", "segeval"]
