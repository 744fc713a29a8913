"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the gate lines.

Criterion 5(b) is known-red: one of the 18 reference metric rows (subject 2,
first method) has |similarity − dice/(2−dice)| = 0.0106, above the pinned
0.01 slack. The companion test ``test_printed_rows_consistent_after_rounding``
shows the row is internally consistent once two-decimal rounding of both
printed values is accounted for, so the defect is in the pinned tolerance,
not in the data or the implementation.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from helpers import build_cohort, enumerate_confusion, make_mask, random_bits

from segeval.cli import main as cli_main
from segeval.cohort import EvalConfig, evaluate_cohort, parse_manifest
from segeval.overlap import (
    confusion_counts,
    dice,
    precision,
    ravd,
    sensitivity,
    similarity,
    volume,
)
from segeval.reporting import metrics_csv_text
from segeval.stats import GroupSample, f_cdf, one_way_anova
from segeval.surface import compare_surfaces, extract_surface, surface_metrics_bruteforce


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL — {title}")
        raise
    print(f"[criterion {number:02d}] PASS — {title}")


# Regression fixtures: previously reported per-case metric values
# (six subjects × three methods; columns follow the metrics-table order:
# hausdorff, dice, similarity, precision, rms, assd, mean_distance,
# sensitivity, ravd).
REPORTED_METRIC_ROWS = (
    ("1", "ABSS", 1.00, 0.86, 0.76, 0.84, 0.56, 0.29, 0.32, 0.89, 0.07),
    ("1", "LocalInfo", 3.00, 0.72, 0.56, 0.63, 1.23, 0.74, 0.92, 0.84, 0.34),
    ("1", "FreeSurfer", 3.46, 0.70, 0.54, 0.57, 1.35, 0.84, 1.08, 0.93, 0.63),
    ("2", "ABSS", 1.41, 0.83, 0.72, 0.89, 0.69, 0.38, 0.31, 0.78, -0.12),
    ("2", "LocalInfo", 2.83, 0.73, 0.58, 0.68, 1.11, 0.70, 0.82, 0.79, 0.17),
    ("2", "FreeSurfer", 3.74, 0.70, 0.54, 0.58, 1.39, 0.86, 1.11, 0.90, 0.54),
    ("3", "ABSS", 4.00, 0.74, 0.59, 0.71, 1.36, 0.72, 0.90, 0.78, 0.10),
    ("3", "LocalInfo", 5.92, 0.61, 0.44, 0.52, 2.18, 1.31, 1.73, 0.75, 0.44),
    ("3", "FreeSurfer", 7.07, 0.64, 0.48, 0.56, 2.49, 1.40, 1.73, 0.77, 0.38),
    ("424", "ABSS", 1.41, 0.85, 0.73, 0.83, 0.86, 0.43, 0.47, 0.87, 0.05),
    ("424", "LocalInfo", 6.40, 0.74, 0.59, 0.64, 2.20, 1.04, 1.44, 0.87, 0.35),
    ("424", "FreeSurfer", 5.10, 0.76, 0.62, 0.67, 1.77, 0.89, 1.15, 0.88, 0.31),
    ("425", "ABSS", 1.00, 0.86, 0.75, 0.86, 0.59, 0.30, 0.31, 0.85, -0.01),
    ("425", "LocalInfo", 3.61, 0.72, 0.56, 0.64, 1.33, 0.78, 1.01, 0.82, 0.29),
    ("425", "FreeSurfer", 4.12, 0.65, 0.48, 0.52, 1.57, 1.02, 1.33, 0.87, 0.68),
    ("426", "ABSS", 4.24, 0.73, 0.58, 0.72, 1.48, 0.87, 1.02, 0.74, 0.03),
    ("426", "LocalInfo", 5.39, 0.68, 0.52, 0.59, 1.92, 1.19, 1.55, 0.80, 0.35),
    ("426", "FreeSurfer", 5.00, 0.69, 0.53, 0.58, 1.81, 1.10, 1.46, 0.86, 0.47),
)

# Reported (auto, manual, normalized difference) volume triples,
# four subjects × three methods × left/right.
REPORTED_VOLUME_TRIPLES = (
    (3318.19, 2863.16, 0.16), (3010.77, 3076.64, 0.02),
    (4114.80, 2863.16, 0.44), (3824.46, 3076.64, 0.24),
    (4849.19, 2863.16, 0.69), (4841.87, 3076.64, 0.57),
    (2921.71, 3114.46, 0.06), (2643.57, 3198.64, 0.17),
    (3612.19, 3114.46, 0.16), (3770.78, 3198.64, 0.18),
    (5018.76, 3114.46, 0.61), (4730.86, 3198.64, 0.48),
    (2086.07, 2724.09, 0.23), (2526.46, 1950.66, 0.30),
    (3469.46, 2724.09, 0.27), (2581.35, 1950.66, 0.32),
    (4458.81, 2724.09, 0.64), (3376.74, 1950.66, 0.73),
    (3447.50, 2819.24, 0.22), (2765.56, 3229.13, 0.14),
    (4056.24, 2819.24, 0.44), (4114.80, 3229.13, 0.27),
    (4360.00, 2819.24, 0.55), (4523.47, 3229.13, 0.40),
)


def test_criterion_01_worked_example_fidelity():
    with criterion(1, "half-labeled structure: precision 1.0, dice 0.6667"):
        t0 = time.perf_counter()
        m_bits = np.zeros((8, 8, 8), dtype=bool)
        m_bits[2:4, 2:4, 2:4] = True  # |M| = 8
        a_bits = np.zeros((8, 8, 8), dtype=bool)
        a_bits[2:4, 2:4, 2:3] = True  # half of M, nothing else
        counts = confusion_counts(make_mask(a_bits), make_mask(m_bits))
        assert precision(counts) == 1.0
        assert dice(counts) == pytest.approx(0.6667, abs=0.0005)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_surface_oracle_equivalence(rng):
    with criterion(2, "compare_surfaces matches brute force (120 pairs, 16³)"):
        t0 = time.perf_counter()
        dims = (16, 16, 16)
        checked = 0
        for space in ("index", "physical"):
            spacing = (0.781, 0.781, 2.0) if space == "physical" else (1.0, 1.0, 1.0)
            for conn in (6, 26):
                for _ in range(30):
                    a_mask = make_mask(random_bits(rng, dims, rng.uniform(0.05, 0.5)), spacing)
                    r_mask = make_mask(random_bits(rng, dims, rng.uniform(0.05, 0.5)), spacing)
                    a = extract_surface(a_mask, space=space, connectivity=conn)
                    r = extract_surface(r_mask, space=space, connectivity=conn)
                    slow = surface_metrics_bruteforce(a, r)
                    # the route every case runs: == in index space, 1e-9 in physical
                    case = compare_surfaces(a_mask, r_mask, space=space, connectivity=conn)
                    for name in ("hausdorff", "rms", "assd", "mean_distance"):
                        if space == "index":
                            assert getattr(case, name) == getattr(slow, name)
                        else:
                            assert abs(getattr(case, name) - getattr(slow, name)) <= 1e-9
                    checked += 1
        assert checked >= 100
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_overlap_oracle_equivalence(rng):
    with criterion(3, "overlap metrics match voxel enumeration exactly (200 pairs, 8³)"):
        t0 = time.perf_counter()
        for _ in range(200):
            a_bits = random_bits(rng, (8, 8, 8), rng.uniform(0.05, 0.7))
            m_bits = random_bits(rng, (8, 8, 8), rng.uniform(0.05, 0.7))
            a, m = make_mask(a_bits), make_mask(m_bits)
            c = confusion_counts(a, m)
            tp, fp, fn, tn = enumerate_confusion(a_bits, m_bits)
            assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
            assert dice(c) == 2 * tp / (2 * tp + fp + fn)
            assert precision(c) == tp / (tp + fp)
            assert sensitivity(c) == tp / (tp + fn)
            assert similarity(c) == tp / (tp + fp + fn)
            v_auto, v_manual = volume(a, "voxels"), volume(m, "voxels")
            assert ravd(v_auto, v_manual) == ((tp + fp) - (tp + fn)) / (tp + fn)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_04_metric_identities(rng):
    with criterion(4, "Jaccard–Dice and harmonic identities; hausdorff ≥ rms ≥ assd"):
        for _ in range(200):
            a_bits = random_bits(rng, (8, 8, 8), rng.uniform(0.05, 0.7))
            m_bits = random_bits(rng, (8, 8, 8), rng.uniform(0.05, 0.7))
            c = confusion_counts(make_mask(a_bits), make_mask(m_bits))
            d, s = dice(c), similarity(c)
            assert abs(s - d / (2 - d)) <= 1e-12
            if c.tp > 0:
                assert abs(1 / d - (1 / precision(c) + 1 / sensitivity(c)) / 2) <= 1e-12
        for _ in range(30):
            a = extract_surface(make_mask(random_bits(rng, (10, 10, 10), 0.25)))
            r = extract_surface(make_mask(random_bits(rng, (10, 10, 10), 0.25)))
            res = surface_metrics_bruteforce(a, r)
            assert res.hausdorff >= res.rms >= res.assd >= 0.0


def test_criterion_05_reported_row_consistency():
    with criterion(5, "18 reported rows: ordering and similarity/dice consistency ≤ 0.01"):
        failures = []
        for subject, method, h, d, s, p, rms, assd, md, sen, rv in REPORTED_METRIC_ROWS:
            assert h >= rms >= assd, (subject, method)
            gap = abs(s - d / (2 - d))
            if gap > 0.01:
                failures.append((subject, method, round(gap, 6)))
        assert not failures, (
            f"|printed similarity − printed dice/(2−printed dice)| > 0.01 for "
            f"{failures}; two-decimal rounding of both printed values can "
            f"legitimately produce gaps up to ~0.0125, so these rows exceed "
            f"the pinned slack without being inconsistent data"
        )


def test_printed_rows_consistent_after_rounding():
    # Companion check: each reported (dice, similarity) pair admits a true
    # dice value that rounds to the printed dice while dice/(2-dice) rounds
    # to the printed similarity, i.e. the data is consistent at two decimals.
    for subject, method, h, d, s, *_ in REPORTED_METRIC_ROWS:
        lo, hi = d - 0.005, d + 0.005
        j_lo, j_hi = lo / (2 - lo), hi / (2 - hi)
        assert j_lo < s + 0.005 and j_hi > s - 0.005, (subject, method)


def test_criterion_06_reported_volume_regression():
    with criterion(6, "24 reported volume triples reproduce normalized difference ± 0.005"):
        for v_auto, v_manual, printed in REPORTED_VOLUME_TRIPLES:
            value = abs(ravd(v_auto, v_manual))
            assert value == pytest.approx(printed, abs=0.005)


def test_criterion_07_anova_structure(rng):
    with criterion(7, "ANOVA df (2, 1275, 1277) at 426×3; hand-worked 3×3 table"):
        groups = [
            GroupSample(m, tuple(rng.normal(mu, 0.05, size=426)))
            for m, mu in (("a", 0.85), ("b", 0.72), ("c", 0.70))
        ]
        table = one_way_anova(groups)
        assert (table.df_between, table.df_within, table.df_total) == (2, 1275, 1277)

        hand = one_way_anova(
            [
                GroupSample("a", (1.0, 2.0, 3.0)),
                GroupSample("b", (2.0, 3.0, 4.0)),
                GroupSample("c", (3.0, 4.0, 5.0)),
            ]
        )
        assert hand.ss_between == pytest.approx(6.0, abs=1e-9)
        assert hand.ss_within == pytest.approx(6.0, abs=1e-9)
        assert hand.ss_total == pytest.approx(12.0, abs=1e-9)
        assert hand.f == pytest.approx(3.0, abs=1e-9)
        assert hand.p == pytest.approx(0.125, abs=1e-9)


def test_criterion_08_f_cdf_accuracy():
    with criterion(8, "F-CDF matches the d1=2 closed form within 1e-10 and is monotone"):
        xs = np.linspace(0.0, 100.0, 200)
        for d2 in (2, 6, 100, 1275):
            previous = -1.0
            for x in xs:
                got = f_cdf(float(x), 2, d2)
                closed = 1.0 - (1.0 + 2.0 * float(x) / d2) ** (-d2 / 2.0)
                assert abs(got - closed) <= 1e-10
                assert got >= previous
                previous = got


@pytest.fixture(scope="module")
def scale_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("scale_cohort")
    manifest = build_cohort(
        root,
        n_subjects=426,
        dims=(64, 64, 64),
        structures=("left_hippocampus",),
        field_strengths=("1.5T", "3T"),
        seed=13,
    )
    return manifest


def test_criterion_09_scale_and_determinism(scale_cohort, tmp_path):
    with criterion(9, "1278 cases at 64³ under 5 min; bundles byte-identical at 1/2/8 workers"):
        artifacts = ("metrics.csv", "volumes.csv", "anova.csv",
                     "boxplot.json", "scatter.json")
        bundles = {}
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            t0 = time.perf_counter()
            code = cli_main(
                ["evaluate", str(scale_cohort), str(out), "--threads", str(workers)]
            )
            elapsed = time.perf_counter() - t0
            assert code == 0
            assert elapsed < 300.0, f"{workers} workers took {elapsed:.1f}s"
            bundles[workers] = {n: (out / n).read_bytes() for n in artifacts}
        assert bundles[1] == bundles[2] == bundles[8]

        # 426 subjects x 3 methods -> the Error df cell must print 1275
        lines = [
            l for l in bundles[1]["anova.csv"].decode().splitlines()
            if l and not l.startswith("#")
        ]
        error_df = {
            r["Measurement"]: r["df"]
            for r in csv.DictReader(lines)
            if r["Source"] == "Error"
        }
        assert error_df["dice"] == "1275"
        total_df = {
            r["Measurement"]: r["df"]
            for r in csv.DictReader(lines)
            if r["Source"] == "Total"
        }
        assert total_df["dice"] == "1277"


def test_criterion_10_robustness_to_one_corrupt_file(tmp_path):
    with criterion(10, "one corrupt file → exactly one error record, others byte-identical"):
        manifest = build_cohort(tmp_path / "cohort", n_subjects=6, seed=3)
        cases = parse_manifest(manifest)
        config = EvalConfig(threads=1)
        clean = evaluate_cohort(cases, config)
        clean_rows = metrics_csv_text(clean.records, config).splitlines()

        victim_index = 7
        victim = Path(cases[victim_index].auto_path)
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 3])

        dirty = evaluate_cohort(cases, config)
        dirty_rows = metrics_csv_text(dirty.records, config).splitlines()
        statuses = [r.status for r in dirty.records]
        assert statuses.count("error") == 1
        assert dirty.records[victim_index].status == "error"
        assert len(clean_rows) == len(dirty_rows)
        for i, (c, d) in enumerate(zip(clean_rows, dirty_rows)):
            if i != victim_index + 2:  # comment + header lines precede data
                assert c == d, f"line {i} changed"
