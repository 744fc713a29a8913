from __future__ import annotations

import csv
import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import build_cohort, sphere_bits, write_nifti, write_rawvol
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import segeval
from segeval import cohort
from segeval.cli import build_parser, main
from segeval.cohort import METRIC_NAMES
from segeval.reporting import metrics_csv_text, read_metrics_csv


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
        # the data after the one "# config:" line
        rows = list(csv.DictReader((out / "volumes.csv").read_text().splitlines()[1:]))
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


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(segeval.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _bad_inputs(root: Path) -> None:
    """JSON-lines manifests with non-text values, and a metrics CSV with an unknown status."""
    base = {"subject": "s1", "method": "alpha", "structure": "left",
            "auto": "a.rawvol", "manual": "m.rawvol"}
    for name, extra in (("label_list", {"label": [17]}), ("label_true", {"label": True}),
                        ("field_strength_3", {"field_strength": 3})):
        (root / f"{name}.jsonl").write_text(json.dumps({**base, **extra}) + "\n")
    records = [
        cohort.MetricRecord(
            subject=f"s{i}", method=method, structure="left_hippocampus",
            field_strength=("1.5T", "3T")[i % 2], space="index", status="ok",
            v_auto=1.0, v_manual=1.0,
            **{m: 0.5 + 0.01 * i + 0.1 * (method == "beta") for m in METRIC_NAMES},
        )
        for method in ("alpha", "beta") for i in range(4)
    ]
    text = metrics_csv_text(records, cohort.EvalConfig())
    (root / "status.csv").write_text(text.replace(",index,ok,", ",index,OK,", 2))


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["evaluate", "label_list.jsonl", "out"], 1, "MalformedRow: row 1: label '[17]'"),
        (["evaluate", "label_true.jsonl", "out"], 1, "MalformedRow: row 1: label 'true'"),
        (["evaluate", "field_strength_3.jsonl", "out"], 1,
         "MalformedRow: row 1: field_strength '3'"),
        (["anova", "status.csv", "dice"], 1, "MalformedCsv:"),
        (["subgroup", "status.csv"], 1, "MalformedCsv:"),
        (["subgroup", "status.csv", "--partition", "site"], 2, "unrecognized arguments"),
        (["anova", "status.csv", "dice", "--pooling", "subjects"], 2, "invalid choice"),
        (["evaluate", "label_list.jsonl", "out", "--bogus"], 2, "unrecognized arguments"),
    ],
    ids=["jsonl_label_list", "jsonl_label_true", "jsonl_field_strength_3", "anova_status",
         "subgroup_status", "subgroup_partition", "anova_pooling", "evaluate_unknown_flag"],
)
def test_bad_input_ends_in_an_exit_code_not_a_traceback(tmp_path, argv, code, message):
    _bad_inputs(tmp_path)
    run = subprocess.run(
        [sys.executable, "-m", "segeval.cli", *argv], cwd=tmp_path, env=_src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == code, run.stderr
    assert message in run.stderr
    assert "Traceback" not in run.stderr


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
    run = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["numpy", "segeval"]


# --- end to end: damaged cohorts ----------------------------------------------

_MUTATIONS = ("truncate", "flip_header", "corrupt_gzip", "dims", "nan_slope")

# rows appended to a manifest; each makes it malformed
_BAD_ROWS = (
    "s009,alpha,left,{auto}\n",  # too few cells
    "s009,alpha,left,{auto},{manual},2T,\n",
    "s009,alpha,left,{auto},{manual},,seventeen\n",
    "{first}\n",  # a second row for the first row's case
    "s009,alpha, ,{auto},{manual},,\n",
)


def _mutate(path: Path, kind: str, where: int, xor: int) -> None:
    """Damage one gzipped rawvol file as ``kind`` names; ``where`` and ``xor`` pick the byte."""
    blob = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(blob[: where % len(blob)])
    elif kind == "flip_header":
        raw = gzip.decompress(blob)
        i = where % raw.index(b"end\n")
        path.write_bytes(gzip.compress(raw[:i] + bytes([raw[i] ^ xor]) + raw[i + 1 :]))
    elif kind == "corrupt_gzip":
        i = 10 + where % (len(blob) - 18)  # in the deflate data, between header and trailer
        path.write_bytes(blob[:i] + bytes([blob[i] ^ xor]) + blob[i + 1 :])
    elif kind == "dims":
        write_rawvol(path, np.ones((16, 16, 17), np.uint8), gzipped=True)
    else:
        write_nifti(path, np.ones((16, 16, 16), np.uint8), scl_slope=float("nan"), gzipped=True)


def _evaluate_in_subprocess(manifest: Path, out: Path, threads: int):
    return subprocess.run(
        [sys.executable, "-m", "segeval.cli", "evaluate", str(manifest), str(out),
         "--threads", str(threads)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )


def _bundle(out: Path) -> dict:
    """Every file of a bundle; the run manifest without its timestamps."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    run_manifest = json.loads(files.pop("run_manifest.json"))
    del run_manifest["started"], run_manifest["finished"]
    return {**files, "run_manifest.json": run_manifest}


@pytest.fixture(scope="module")
def clean_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    manifest = build_cohort(root / "cohort", n_subjects=2)
    run = _evaluate_in_subprocess(manifest, root / "out", 1)
    assert run.returncode == 0, run.stderr
    return root


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    damage=st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from(_MUTATIONS),
                  st.integers(0, 2**16), st.integers(1, 255)),
        max_size=3, unique_by=lambda d: d[0],
    ),
    bad_row=st.none() | st.sampled_from(_BAD_ROWS),
)
def test_a_damaged_cohort_ends_in_an_exit_code_and_a_whole_or_untouched_bundle(
    clean_cohort, damage, bad_row
):
    # every input ends in metrics or in a typed error: the exit code is 0-3 with
    # no traceback, an undamaged case keeps the clean run's row, the bundle does
    # not depend on --threads, and a failed run leaves the earlier bundle as it was
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(clean_cohort / "cohort", root / "cohort")
        manifest = root / "cohort" / "manifest.csv"
        header, *rows = manifest.read_text().splitlines()
        files = sorted(p.name for p in (root / "cohort").glob("*.rawvol.gz"))
        for index, kind, where, xor in damage:
            _mutate(root / "cohort" / files[index], kind, where, xor)
        if bad_row is not None:
            first = rows[0].split(",")
            with manifest.open("a") as fh:
                fh.write(bad_row.format(auto=first[3], manual=first[4], first=rows[0]))

        before = _bundle(clean_cohort / "out")
        runs, bundles = [], []
        for threads in (1, 2):
            out = root / f"out{threads}"
            shutil.copytree(clean_cohort / "out", out)
            runs.append(_evaluate_in_subprocess(manifest, out, threads))
            bundles.append(_bundle(out))

    for run in runs:
        assert run.returncode in (0, 1, 2, 3), run.stderr
        assert "Traceback" not in run.stderr
    # a malformed row fails the manifest; otherwise at most three of the
    # sixteen files are damaged, so some case stays whole and the run succeeds
    assert [run.returncode for run in runs] == [0 if bad_row is None else 1] * 2
    if bad_row is not None:
        assert bundles[0] == bundles[1] == before
        return
    assert bundles[0] == bundles[1]
    damaged = {files[index] for index, *_ in damage}
    clean_rows = before["metrics.csv"].decode().splitlines()
    for i, (row, line) in enumerate(zip(rows, bundles[0]["metrics.csv"].decode().splitlines()[2:])):
        auto, manual = row.split(",")[3:5]
        if not {auto, manual} & damaged:
            assert line == clean_rows[i + 2]
