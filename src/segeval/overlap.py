"""Voxel-overlap and volume agreement metrics.

All scores are ratios of the four confusion tallies between an automatic
mask A and a manual (ground-truth) mask M on a common grid, which
:func:`confusion_counts` checks: a case's one grid check. Degenerate
inputs raise instead of returning sentinel scores: an empty hippocampus in
this pipeline signals a bug, not a 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BothMasksEmpty,
    EmptyAutomaticMask,
    EmptyManualMask,
    ZeroManualVolume,
)
from .volume import BinaryMask, check_compatible


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FP/FN/TN voxel tallies between an automatic and a manual mask."""

    tp: int
    fp: int
    fn: int
    tn: int


def confusion_counts(a: BinaryMask, m: BinaryMask) -> ConfusionCounts:
    """Tally TP = |A∩M|, FP = |A∖M|, FN = |M∖A|, TN = remainder.

    Each mask may cover any box of the common grid: the full grid
    (:func:`binarize`) or its own members' box (:func:`load_mask_pairs`).
    TP is counted where the two boxes overlap, and is 0 where they do not;
    TN comes from the full grid size, so every placement of the same members
    gives the same tallies. The grids are checked first, by
    :func:`check_compatible`: a case's one grid check, so a grid or spacing
    mismatch is raised before any empty-mask error.
    """
    check_compatible(a, m)
    ends = ([o + n for o, n in zip(k.origin, k.bits.shape)] for k in (a, m))
    lo = list(map(max, a.origin, m.origin))
    hi = list(map(max, lo, map(min, *ends)))  # hi = lo on an axis where the boxes part
    a_in, m_in = (
        k.bits[tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, k.origin))] for k in (a, m)
    )
    tp = int(np.count_nonzero(a_in & m_in))
    fp = a.count - tp
    fn = m.count - tp
    total = a.dims[0] * a.dims[1] * a.dims[2]
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=total - tp - fp - fn)


def dice(c: ConfusionCounts) -> float:
    """2|A∩M| / (|A| + |M|); 1.0 means complete overlap."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        raise BothMasksEmpty("dice undefined: both masks are empty")
    return 2 * c.tp / denom


def precision(c: ConfusionCounts) -> float:
    """TP / (TP + FP): fraction of automatic voxels that are correct."""
    if c.tp + c.fp == 0:
        raise EmptyAutomaticMask("precision undefined: automatic mask is empty")
    return c.tp / (c.tp + c.fp)


def similarity(c: ConfusionCounts) -> float:
    """TP / (TP + FP + FN): the Jaccard index of A and M."""
    denom = c.tp + c.fp + c.fn
    if denom == 0:
        raise BothMasksEmpty("similarity undefined: both masks are empty")
    return c.tp / denom


def sensitivity(c: ConfusionCounts) -> float:
    """TP / (TP + FN): fraction of ground-truth voxels recovered."""
    if c.tp + c.fn == 0:
        raise EmptyManualMask("sensitivity undefined: manual mask is empty")
    return c.tp / (c.tp + c.fn)


def volume(mask: BinaryMask, unit: str = "mm3") -> float:
    """Mask volume as a voxel count or in mm³ (count × sx·sy·sz)."""
    count = mask.count
    if unit == "voxels":
        return float(count)
    if unit == "mm3":
        sx, sy, sz = mask.spacing
        return count * sx * sy * sz
    raise ValueError(f"unknown volume unit {unit!r}")


def ravd(v_auto: float, v_manual: float) -> float:
    """Signed relative volume difference (V_A − V_M) / V_M.

    Negative when the automatic segmentation is smaller than the manual
    one. Both volumes must be in one unit; the ratio is unit-invariant.
    Its absolute value is the normalized volume difference that
    ``volumes.csv`` prints.
    """
    if v_manual <= 0:
        raise ZeroManualVolume(f"manual volume {v_manual} must be positive")
    return (v_auto - v_manual) / v_manual

