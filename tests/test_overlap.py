from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import embed, enumerate_confusion, loaded_pair, make_mask, random_bits
from hypothesis import example, given
from hypothesis import strategies as st

from segeval.errors import (
    BothMasksEmpty,
    EmptyAutomaticMask,
    EmptyManualMask,
    ZeroManualVolume,
)
from segeval.overlap import (
    ConfusionCounts,
    VolumePair,
    confusion_counts,
    dice,
    normalized_volume_difference,
    precision,
    ravd,
    sensitivity,
    similarity,
    volume,
)
from segeval.volume import BinarizeRule, BinaryMask

counts_nonempty = st.tuples(
    st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
).filter(lambda t: t[0] + t[1] + t[2] > 0).map(lambda t: ConfusionCounts(*t))


class TestConfusionCounts:
    def test_identity_case(self):
        bits = np.zeros((4, 4, 4), dtype=bool)
        bits.flat[:10] = True
        m = make_mask(bits)
        c = confusion_counts(m, m)
        assert (c.tp, c.fp, c.fn, c.tn) == (10, 0, 0, 54)

    def test_empty_auto(self):
        a = make_mask(np.zeros((4, 4, 4), dtype=bool))
        bits = np.zeros((4, 4, 4), dtype=bool)
        bits.flat[:7] = True
        c = confusion_counts(a, make_mask(bits))
        assert (c.tp, c.fp, c.fn) == (0, 0, 7)

    def test_overlapping_bars(self):
        # A = 3-voxel bar at x=0..2, M = 2-voxel bar at x=2..3, sharing x=2
        a = np.zeros((5, 1, 1), dtype=bool)
        a[0:3] = True
        m = np.zeros((5, 1, 1), dtype=bool)
        m[2:4] = True
        c = confusion_counts(make_mask(a), make_mask(m))
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 2, 1, 1)

    def test_random_pairs_match_enumeration_oracle(self, rng):
        for _ in range(50):
            a = random_bits(rng, (6, 5, 4), rng.uniform(0, 0.6), nonempty=False)
            m = random_bits(rng, (6, 5, 4), rng.uniform(0, 0.6), nonempty=False)
            c = confusion_counts(make_mask(a), make_mask(m))
            assert (c.tp, c.fp, c.fn, c.tn) == enumerate_confusion(a, m)


def _full_and_cropped(root, a_bits, m_bits, spacing=(1.0, 1.0, 1.0)):
    cropped, full = loaded_pair(
        root, a_bits.astype(np.uint8), m_bits.astype(np.uint8), BinarizeRule.nonzero(), spacing
    )
    return full, cropped


def _sparse_bits(rng, dims=(12, 11, 10)):
    """Random members confined to a random sub-box, so the crop is a real one."""
    bits = np.zeros(dims, dtype=bool)
    lo = [int(rng.integers(0, n // 2)) for n in dims]
    hi = [int(rng.integers(l + 1, n + 1)) for l, n in zip(lo, dims)]
    box = tuple(slice(l, h) for l, h in zip(lo, hi))
    bits[box] = random_bits(rng, bits[box].shape, rng.uniform(0.1, 0.7))
    return bits


@st.composite
def _masks_on_boxes(draw):
    """Two masks of one grid, each on a box of its own: any origin, any
    shape that fits, the empty box too, any flags inside."""
    dims = draw(st.tuples(*[st.integers(1, 6)] * 3))
    masks = []
    for _ in range(2):
        lo = [draw(st.integers(0, n)) for n in dims]
        shape = tuple(draw(st.integers(0, n - l)) for l, n in zip(lo, dims))
        flags = draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
        bits = np.array(flags, dtype=bool).reshape(shape)
        masks.append(BinaryMask(dims, (1.0, 1.0, 1.0), bits, tuple(lo)))
    return masks


class TestCroppedMasks:
    def test_counts_and_volumes_match_the_full_grid(self, rng, tmp_path):
        spacing = (0.781, 0.781, 2.0)
        for _ in range(30):
            a, m = _sparse_bits(rng), _sparse_bits(rng)
            (full_a, full_m), (crop_a, crop_m) = _full_and_cropped(tmp_path, a, m, spacing)
            c_full = confusion_counts(full_a, full_m)
            c_crop = confusion_counts(crop_a, crop_m)
            assert (c_crop.tp, c_crop.fp, c_crop.fn, c_crop.tn) == (
                c_full.tp, c_full.fp, c_full.fn, c_full.tn
            )
            for unit in ("voxels", "mm3"):
                assert volume(crop_a, unit) == volume(full_a, unit)
                assert volume(crop_m, unit) == volume(full_m, unit)

    @given(_masks_on_boxes())
    @example([  # apart on x by a gap shorter than the far box's own length
        BinaryMask((6, 1, 1), (1.0, 1.0, 1.0), np.ones((1, 1, 1), bool), (0, 0, 0)),
        BinaryMask((6, 1, 1), (1.0, 1.0, 1.0), np.ones((4, 1, 1), bool), (2, 0, 0)),
    ])
    def test_masks_on_any_two_boxes_count_as_on_the_full_grid(self, masks):
        # the boxes overlap, nest, touch or lie apart
        c = confusion_counts(*masks)
        assert (c.tp, c.fp, c.fn, c.tn) == enumerate_confusion(*map(embed, masks))

    def test_empty_pairs_raise_as_on_the_full_grid(self, tmp_path):
        manual = np.zeros((8, 8, 8), dtype=bool)
        manual[2:5, 3:6, 4:6] = True
        empty = np.zeros_like(manual)
        for a, m, score, error in (
            (empty, manual, precision, EmptyAutomaticMask),
            (empty, empty, dice, BothMasksEmpty),
            (empty, empty, similarity, BothMasksEmpty),
        ):
            (full_a, full_m), (crop_a, crop_m) = _full_and_cropped(tmp_path, a, m)
            with pytest.raises(error) as on_full:
                score(confusion_counts(full_a, full_m))
            with pytest.raises(error) as on_crop:
                score(confusion_counts(crop_a, crop_m))
            assert str(on_crop.value) == str(on_full.value)


class TestScores:
    def test_dice_half_labeled(self):
        # half the structure labeled, nothing else: dice = 1/1.5
        c = ConfusionCounts(tp=5, fp=0, fn=5, tn=100)
        assert dice(c) == pytest.approx(1 / 1.5, abs=1e-12)

    def test_dice_complete_overlap(self):
        assert dice(ConfusionCounts(12, 0, 0, 10)) == 1.0

    def test_dice_arithmetic(self):
        assert dice(ConfusionCounts(6, 2, 3, 0)) == pytest.approx(12 / 17)

    def test_dice_both_empty(self):
        with pytest.raises(BothMasksEmpty):
            dice(ConfusionCounts(0, 0, 0, 64))

    def test_precision_half_labeled(self):
        assert precision(ConfusionCounts(5, 0, 5, 100)) == 1.0

    def test_precision_totally_inaccurate(self):
        assert precision(ConfusionCounts(0, 4, 9, 0)) == 0.0

    def test_precision_arithmetic(self):
        assert precision(ConfusionCounts(6, 2, 3, 0)) == 0.75

    def test_precision_empty_auto(self):
        with pytest.raises(EmptyAutomaticMask):
            precision(ConfusionCounts(0, 0, 5, 10))

    def test_similarity_arithmetic(self):
        assert similarity(ConfusionCounts(6, 2, 3, 0)) == pytest.approx(6 / 11)

    def test_similarity_identity(self):
        assert similarity(ConfusionCounts(9, 0, 0, 1)) == 1.0

    def test_similarity_from_dice_086(self):
        # counts with dice 0.86 -> similarity 0.86/(2-0.86) ~ 0.754
        c = ConfusionCounts(tp=86, fp=14, fn=14, tn=0)
        assert dice(c) == pytest.approx(0.86, abs=1e-12)
        assert similarity(c) == pytest.approx(0.86 / (2 - 0.86), abs=1e-12)
        assert round(similarity(c), 2) == 0.75 or round(similarity(c), 2) == 0.76

    def test_sensitivity_arithmetic(self):
        assert sensitivity(ConfusionCounts(6, 2, 3, 0)) == pytest.approx(2 / 3)

    def test_sensitivity_superset(self):
        assert sensitivity(ConfusionCounts(7, 3, 0, 0)) == 1.0

    def test_sensitivity_empty_auto(self):
        assert sensitivity(ConfusionCounts(0, 0, 6, 0)) == 0.0

    def test_sensitivity_empty_manual(self):
        with pytest.raises(EmptyManualMask):
            sensitivity(ConfusionCounts(0, 5, 0, 10))


class TestVolume:
    def test_unit_spacing(self):
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits.flat[:10] = True
        assert volume(make_mask(bits), "mm3") == 10.0
        assert volume(make_mask(bits), "voxels") == 10.0

    def test_anisotropic_mm3(self):
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits.flat[:10] = True
        mask = make_mask(bits, spacing=(0.781, 0.781, 2.0))
        assert volume(mask, "mm3") == pytest.approx(12.19922, abs=1e-5)
        assert volume(mask, "voxels") == 10.0

    def test_empty(self):
        assert volume(make_mask(np.zeros((2, 2, 2), dtype=bool))) == 0.0


class TestRavd:
    def test_table_subject1_left(self):
        assert ravd(VolumePair(3318.19, 2863.16, "mm3")) == pytest.approx(0.1589, abs=5e-5)

    def test_equal_volumes(self):
        assert ravd(VolumePair(123.4, 123.4, "mm3")) == 0.0

    def test_table_subject2_left_negative(self):
        assert ravd(VolumePair(2921.71, 3114.46, "mm3")) == pytest.approx(-0.0619, abs=5e-5)

    def test_zero_manual(self):
        with pytest.raises(ZeroManualVolume):
            ravd(VolumePair(5.0, 0.0, "voxels"))

    def test_unit_invariance(self):
        scale = 0.781 * 0.781 * 2.0
        assert ravd(VolumePair(30.0, 40.0, "voxels")) == pytest.approx(
            ravd(VolumePair(30.0 * scale, 40.0 * scale, "mm3")), abs=1e-15
        )


class TestNormalizedVolumeDifference:
    def test_printed_two_decimals(self):
        assert round(normalized_volume_difference(VolumePair(3318.19, 2863.16, "mm3")), 2) == 0.16
        assert round(normalized_volume_difference(VolumePair(2921.71, 3114.46, "mm3")), 2) == 0.06

    def test_equal(self):
        assert normalized_volume_difference(VolumePair(9.0, 9.0, "voxels")) == 0.0

    def test_is_absolute_ravd(self):
        pair = VolumePair(2921.71, 3114.46, "mm3")
        assert normalized_volume_difference(pair) == abs(ravd(pair))


class TestIdentities:
    @given(counts_nonempty)
    def test_jaccard_dice_identity(self, c):
        d = dice(c)
        s = similarity(c)
        assert abs(s - d / (2 - d)) <= 1e-12
        assert abs(d - 2 * s / (1 + s)) <= 1e-12
        assert s <= d + 1e-15

    @given(counts_nonempty.filter(lambda c: c.tp > 0))
    def test_harmonic_mean_identity(self, c):
        d = dice(c)
        p = precision(c)
        s = sensitivity(c)
        assert abs(1 / d - (1 / p + 1 / s) / 2) <= 1e-12

    @given(counts_nonempty)
    def test_ranges(self, c):
        assert 0.0 <= dice(c) <= 1.0
        assert 0.0 <= similarity(c) <= 1.0
        if c.tp + c.fp > 0:
            assert 0.0 <= precision(c) <= 1.0
        if c.tp + c.fn > 0:
            assert 0.0 <= sensitivity(c) <= 1.0

    @given(counts_nonempty)
    def test_similarity_is_lower_bound(self, c):
        s = similarity(c)
        assert s <= dice(c) + 1e-15
        if c.tp + c.fp > 0:
            assert s <= precision(c) + 1e-15
        if c.tp + c.fn > 0:
            assert s <= sensitivity(c) + 1e-15

    def test_swap_symmetry(self, rng):
        for _ in range(25):
            a = random_bits(rng, (6, 6, 6), 0.3)
            m = random_bits(rng, (6, 6, 6), 0.3)
            c_am = confusion_counts(make_mask(a), make_mask(m))
            c_ma = confusion_counts(make_mask(m), make_mask(a))
            assert (c_am.fp, c_am.fn) == (c_ma.fn, c_ma.fp)
            assert dice(c_am) == dice(c_ma)
            assert similarity(c_am) == similarity(c_ma)
            if c_am.tp + c_am.fp > 0 and c_am.tp + c_am.fn > 0:
                assert precision(c_am) == sensitivity(c_ma)
                assert sensitivity(c_am) == precision(c_ma)

    def test_ravd_lower_bound(self):
        assert ravd(VolumePair(0.0, 10.0, "voxels")) == -1.0

