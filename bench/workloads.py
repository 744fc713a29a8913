"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a cohort of co-registered mask pairs on a gzip NIfTI
grid, plus a manifest. Inputs depend only on
(workload, seed). The seed moves structure centers only; sizes, methods
and their assignment to subjects are fixed, so two seeds give the same
amount of work and run-to-run spread reflects the machine, not the draw.

Volumes are written with the test-side oracle writers in
``tests/helpers.py``; the package itself writes no volumes. The methods
follow the scale test's cohort builder: ``identity`` reproduces the manual
mask, ``dilated`` is one (even subjects) or two (odd subjects) 6-dilations
larger, ``shifted`` is rolled by (1,0,0) or (1,1,0).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import helpers  # tests/helpers.py, put on sys.path by the caller

LEFT = "left_hippocampus"
RIGHT = "right_hippocampus"
FIELD_STRENGTHS = ("1.5T", "3T")
# Room around a ball for two dilations and a one-voxel shift.
_MARGIN = 3


# Share of the measured seconds given to each end-to-end stage: evaluate
# passes, serial compute_record calls, re-analysis command sets.
SHARES = (0.5, 0.45, 0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    radius: int
    n_subjects: int
    structures: tuple[str, ...]
    methods: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mri-hippo", (256, 256, 170), 14, 2, (LEFT, RIGHT),
            ("identity", "dilated", "shifted"),
        ),
        Workload("mri-large", (256, 256, 170), 40, 2, (LEFT,), ("dilated", "shifted")),
    )
}


@dataclass(frozen=True)
class CaseDef:
    subject: int
    structure: str
    method: str
    center: tuple[int, int, int]
    radius: int

    @property
    def field_strength(self) -> str:
        return FIELD_STRENGTHS[self.subject % 2]

    @property
    def subject_id(self) -> str:
        return f"s{self.subject:04d}"


def plan(w: Workload, seed: int) -> list[CaseDef]:
    """Cases in manifest order: subject, then structure, then method."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    cases = []
    for pair in range(w.n_subjects * len(w.structures)):
        subject, si = divmod(pair, len(w.structures))
        lo = w.radius + _MARGIN
        center = tuple(int(rng.integers(lo, n - lo)) for n in w.dims)
        for method in w.methods:
            cases.append(CaseDef(subject, w.structures[si], method, center, w.radius))
    return cases


def _auto_bits(manual: np.ndarray, case: CaseDef) -> np.ndarray:
    if case.method == "identity":
        return manual
    if case.method == "dilated":
        out = helpers.dilate6(manual)
        return helpers.dilate6(out) if case.subject % 2 else out
    if case.method == "shifted":
        shift = (1, 0, 0) if case.subject % 2 else (1, 1, 0)
        return np.roll(manual, shift, axis=(0, 1, 2))
    raise ValueError(f"unknown method {case.method!r}")


def case_bits(w: Workload, case: CaseDef) -> tuple[np.ndarray, np.ndarray]:
    """(auto, manual) membership arrays on the full grid.

    Built in a box around the ball and pasted into an empty grid; the
    margin keeps every member voxel off the box edge, so this equals the
    same construction on the full grid.
    """
    half = case.radius + _MARGIN
    box = (2 * half + 1,) * 3
    manual_box = helpers.sphere_bits(box, (half, half, half), case.radius)
    auto_box = _auto_bits(manual_box, case)
    where = tuple(slice(c - half, c + half + 1) for c in case.center)
    auto = np.zeros(w.dims, dtype=bool)
    manual = np.zeros(w.dims, dtype=bool)
    auto[where] = auto_box
    manual[where] = manual_box
    return auto, manual


def _file_names(case: CaseDef) -> tuple[str, str]:
    stem = f"{case.subject_id}_{case.structure}"
    return f"{stem}_{case.method}.nii.gz", f"{stem}_manual.nii.gz"


def generate(w: Workload, seed: int, root: Path) -> Path:
    """Write the workload's inputs under ``root`` once; reuse them afterwards."""
    source = Path(__file__).read_bytes() + Path(helpers.__file__).read_bytes()
    tag = hashlib.sha256(source).hexdigest()[:8]  # a generator change starts a new set
    target = root / f"{w.name}-s{seed}-{tag}"
    if target.is_dir():
        return target
    tmp = root / f".{target.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    lines = ["subject,method,structure,auto,manual,field_strength,label"]
    for case in plan(w, seed):
        auto, manual = case_bits(w, case)
        auto_name, manual_name = _file_names(case)
        if not (tmp / manual_name).exists():
            helpers.write_nifti(tmp / manual_name, manual.astype(np.uint8), gzipped=True)
        helpers.write_nifti(tmp / auto_name, auto.astype(np.uint8), gzipped=True)
        lines.append(
            f"{case.subject_id},{case.method},{case.structure},"
            f"{auto_name},{manual_name},{case.field_strength},"
        )
    (tmp / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        tmp.rename(target)
    except OSError:  # another run finished the same set first
        shutil.rmtree(tmp)
    return target
