from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import math
import struct
import tempfile
import threading
import traceback
import tracemalloc
import warnings
import weakref
import zlib
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (
    embed,
    gunzip_members,
    gzip_members,
    loaded_pair,
    make_volume,
    member_box,
    nifti_bytes,
    rawvol_bytes,
    sphere_bits,
    write_nifti,
    write_rawvol,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segeval import cli
from segeval import cohort as cohort_module
from segeval.cohort import CaseSpec, EvalConfig, compute_record
from segeval.errors import (
    CorruptFile,
    GridMismatch,
    InputError,
    MetricError,
    NonPositiveSpacing,
    SegEvalError,
    SpacingMismatch,
    StatsError,
    UnsupportedDatatype,
    UnsupportedFormat,
)
from segeval.overlap import confusion_counts
from segeval.volume import (
    BinarizeRule,
    BinaryMask,
    binarize,
    check_compatible,
    load_mask_pairs,
    load_volume,
)


# the attribute segeval.volume is the function overlap.volume, not this module
volume_module = importlib.import_module("segeval.volume")


def _pair_record(auto_path, manual_path, rule=None):
    """:func:`compute_record` on the case scoring ``auto_path`` against ``manual_path``."""
    case = CaseSpec("s", "m", "left", str(auto_path), str(manual_path), binarize_rule=rule)
    return compute_record(case, EvalConfig(threads=1))


def _arange_vol(dims, dtype=np.uint8):
    n = dims[0] * dims[1] * dims[2]
    return (np.arange(n, dtype=np.int64) % 200).astype(dtype).reshape(dims, order="F")


class TestNifti:
    def test_basic_header(self, tmp_path):
        data = _arange_vol((4, 4, 4))
        path = write_nifti(tmp_path / "v.nii", data)
        vol = load_volume(path)
        assert vol.dims == (4, 4, 4)
        assert vol.data.size == 64
        assert vol.spacing == (1.0, 1.0, 1.0)
        np.testing.assert_array_equal(vol.data, data)

    def test_gzip_identical(self, tmp_path):
        data = _arange_vol((3, 5, 2), np.int16)
        plain = load_volume(write_nifti(tmp_path / "v.nii", data))
        packed = load_volume(write_nifti(tmp_path / "v.nii.gz", data, gzipped=True))
        assert plain.dims == packed.dims
        assert plain.spacing == packed.spacing
        np.testing.assert_array_equal(plain.data, packed.data)

    def test_paper_spacing(self, tmp_path):
        path = write_nifti(tmp_path / "v.nii", _arange_vol((4, 4, 4)),
                           spacing=(0.781, 0.781, 2.0))
        vol = load_volume(path)
        assert vol.spacing == pytest.approx((0.781, 0.781, 2.0), rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
    def test_all_datatypes(self, tmp_path, dtype):
        data = _arange_vol((3, 3, 3), dtype)
        vol = load_volume(write_nifti(tmp_path / "v.nii", data))
        np.testing.assert_array_equal(vol.data, data)

    def test_big_endian(self, tmp_path):
        data = _arange_vol((4, 3, 2), np.int32)
        vol = load_volume(write_nifti(tmp_path / "v.nii", data, byteorder=">"))
        np.testing.assert_array_equal(vol.data, data)

    def test_scl_slope_applied(self, tmp_path):
        data = _arange_vol((3, 3, 3), np.int16)
        vol = load_volume(
            write_nifti(tmp_path / "v.nii", data, scl_slope=2.5, scl_inter=-1.0)
        )
        np.testing.assert_allclose(vol.data, data * 2.5 - 1.0)

    def test_scl_slope_zero_means_no_scaling(self, tmp_path):
        data = _arange_vol((3, 3, 3), np.int16)
        vol = load_volume(
            write_nifti(tmp_path / "v.nii", data, scl_slope=0.0, scl_inter=100.0)
        )
        np.testing.assert_array_equal(vol.data, data)

    def test_trailing_unit_dims_accepted(self, tmp_path):
        data = _arange_vol((4, 4, 4))
        vol = load_volume(
            write_nifti(tmp_path / "v.nii", data, dim0=4, extra_dims=(1,))
        )
        assert vol.dims == (4, 4, 4)

    def test_true_4d_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2, 3), dtype=np.uint8)
        flat3d = data.reshape(2, 2, 6)
        path = write_nifti(tmp_path / "v.nii", flat3d, dim0=4)
        # rebuild with a genuine 4th dim > 1
        blob = nifti_bytes(np.zeros((2, 2, 2), np.uint8), dim0=4, extra_dims=(3,))
        (tmp_path / "4d.nii").write_bytes(blob + b"\x00" * 100)
        with pytest.raises(UnsupportedFormat):
            load_volume(tmp_path / "4d.nii")
        load_volume(path)  # 3D rank-4 header with nt=1 loads fine

    def test_header_data_pair_rejected(self, tmp_path):
        path = write_nifti(tmp_path / "v.nii", _arange_vol((3, 3, 3)), magic=b"ni1\x00")
        with pytest.raises(UnsupportedFormat, match="pairs"):
            load_volume(path)

    def test_unknown_magic_rejected(self, tmp_path):
        (tmp_path / "junk.nii").write_bytes(b"\x00" * 400)
        with pytest.raises(UnsupportedFormat):
            load_volume(tmp_path / "junk.nii")

    def test_unsupported_datatype(self, tmp_path):
        data = _arange_vol((3, 3, 3))
        blob = bytearray(nifti_bytes(data))
        import struct

        struct.pack_into("<h", blob, 70, 128)  # RGB24 code
        (tmp_path / "rgb.nii").write_bytes(bytes(blob))
        with pytest.raises(UnsupportedDatatype):
            load_volume(tmp_path / "rgb.nii")

    def test_truncated_payload(self, tmp_path):
        path = write_nifti(
            tmp_path / "v.nii", _arange_vol((4, 4, 4)), truncate_payload=10
        )
        with pytest.raises(CorruptFile):
            load_volume(path)

    def test_nonpositive_spacing(self, tmp_path):
        path = write_nifti(tmp_path / "v.nii", _arange_vol((3, 3, 3)),
                           spacing=(1.0, 0.0, 1.0))
        with pytest.raises(NonPositiveSpacing):
            load_volume(path)

    @pytest.mark.parametrize("field", ["scl_slope", "scl_inter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scale_factor_is_corrupt(self, tmp_path, field, value):
        # a NaN slope would make every voxel a member under "nonzero"
        factors = {"scl_slope": 2.0, "scl_inter": 0.0, field: value}
        path = write_nifti(tmp_path / "v.nii", _arange_vol((3, 3, 3), np.int16), **factors)
        with pytest.raises(CorruptFile, match="non-finite"):
            load_volume(path)


@pytest.mark.parametrize("writer", [write_nifti, write_rawvol])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nan_voxel_is_corrupt(tmp_path, writer, dtype):
    data = _arange_vol((3, 3, 3), dtype)
    data[1, 2, 0] = np.nan
    with pytest.raises(CorruptFile, match="NaN"):
        load_volume(writer(tmp_path / "v.vol", data))


class TestRawvol:
    def test_round_trip_all_dtypes(self, tmp_path, rng):
        for dtype in (np.uint8, np.int16, np.int32, np.float32, np.float64):
            data = (rng.random((3, 4, 5)) * 50).astype(dtype)
            path = write_rawvol(tmp_path / f"{np.dtype(dtype).name}.rawvol", data,
                                spacing=(0.5, 1.25, 2.0))
            vol = load_volume(path)
            assert vol.dims == (3, 4, 5)
            assert vol.spacing == (0.5, 1.25, 2.0)
            np.testing.assert_array_equal(vol.data, data)

    def test_gzip_round_trip(self, tmp_path):
        data = _arange_vol((6, 5, 4), np.int16)
        plain = load_volume(write_rawvol(tmp_path / "v.rawvol", data))
        packed = load_volume(write_rawvol(tmp_path / "v.rawvol.gz", data, gzipped=True))
        np.testing.assert_array_equal(plain.data, packed.data)

    def test_truncated_payload(self, tmp_path):
        blob = rawvol_bytes(_arange_vol((4, 4, 4)))
        (tmp_path / "cut.rawvol").write_bytes(blob[:-7])
        with pytest.raises(CorruptFile):
            load_volume(tmp_path / "cut.rawvol")

    def test_bad_header(self, tmp_path):
        (tmp_path / "bad.rawvol").write_bytes(b"RAWVOL1\ndims 2 2\nend\n")
        with pytest.raises(CorruptFile):
            load_volume(tmp_path / "bad.rawvol")

    def test_unknown_datatype(self, tmp_path):
        (tmp_path / "bad.rawvol").write_bytes(
            b"RAWVOL1\ndims 1 1 1\nspacing 1 1 1\ndatatype complex64\nend\n" + b"\x00" * 8
        )
        with pytest.raises(UnsupportedDatatype):
            load_volume(tmp_path / "bad.rawvol")


class TestBinarize:
    def test_equals(self):
        vol = make_volume(np.array([[[0, 17, 53, 17]]], dtype=np.int32))
        mask = binarize(vol, BinarizeRule.equals(17))
        np.testing.assert_array_equal(mask.bits, [[[False, True, False, True]]])

    def test_nonzero_on_zeros(self):
        vol = make_volume(np.zeros((2, 2, 2), dtype=np.uint8))
        assert binarize(vol, BinarizeRule.nonzero()).count == 0

    def test_greater_than(self):
        vol = make_volume(np.array([[[0.0, 0.4, 0.9]]]))
        mask = binarize(vol, BinarizeRule.greater_than(0.5))
        np.testing.assert_array_equal(mask.bits, [[[False, False, True]]])

    def test_float32_and_float64_files_compare_alike(self, tmp_path):
        value = np.float32(0.1)  # 0.100000001…, above the float64 0.1
        paths = [
            write_rawvol(tmp_path / f"{np.dtype(dtype).name}.rawvol",
                         np.full((1, 1, 1), value, dtype=dtype))
            for dtype in (np.float32, np.float64)
        ]
        inf = write_rawvol(tmp_path / "inf.rawvol", np.full((1, 1, 1), np.inf, np.float32))
        cases = [
            (BinarizeRule.equals(0.1), paths, 0),
            (BinarizeRule.greater_than(0.1), paths, 1),
            (BinarizeRule.equals(1e300), [inf, inf], 0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule, pair, count in cases:
                full = [binarize(load_volume(path), rule).count for path in pair]
                (masks,) = load_mask_pairs([(*pair, rule)])
                streamed = [mask.count for mask in masks]
                assert full == streamed == [count, count], rule

    def test_nonzero_idempotent(self, rng):
        vol = make_volume(rng.integers(0, 3, size=(5, 5, 5)).astype(np.int16))
        first = binarize(vol, BinarizeRule.nonzero())
        again = binarize(make_volume(first.bits.astype(np.uint8), first.spacing),
                         BinarizeRule.nonzero())
        np.testing.assert_array_equal(first.bits, again.bits)

    def test_dims_and_spacing_preserved(self):
        vol = make_volume(np.ones((2, 3, 4)), spacing=(0.781, 0.781, 2.0))
        mask = binarize(vol, BinarizeRule.nonzero())
        assert mask.dims == (2, 3, 4)
        assert mask.spacing == (0.781, 0.781, 2.0)

    def test_keeps_the_native_fortran_layout(self, tmp_path):
        data = _arange_vol((6, 5, 4))
        vol = load_volume(write_nifti(tmp_path / "v.nii", data))
        mask = binarize(vol, BinarizeRule.greater_than(100))
        assert mask.bits.flags.f_contiguous
        np.testing.assert_array_equal(mask.bits, data > 100)

    def test_count_is_computed_once(self, tmp_path):
        mask = binarize(make_volume(np.eye(4)[:, :, None]), BinarizeRule.nonzero())
        assert mask.count == 4
        assert mask.__dict__["count"] == 4  # cached on the instance
        # so the bits it was counted from cannot change under it
        assert not mask.bits.flags.writeable
        eye = np.eye(4, dtype=np.uint8)[:, :, None]
        for cropped in loaded_pair(tmp_path, eye, eye, BinarizeRule.nonzero())[0]:
            assert not cropped.bits.flags.writeable


class TestBinarizePair:
    """A pair read by :func:`load_mask_pairs`, against ``binarize`` of each full grid."""

    def test_each_mask_covers_its_own_members_box(self, tmp_path):
        a = np.zeros((10, 9, 8), dtype=np.uint8)
        m = np.zeros((10, 9, 8), dtype=np.uint8)
        a[2, 3, 4] = 1
        m[5, 1, 6] = 1
        m[4, 7, 5] = 1
        (mask_a, mask_m), _ = loaded_pair(tmp_path, a, m, BinarizeRule.nonzero())
        for mask, full, origin, shape in ((mask_a, a, (2, 3, 4), (1, 1, 1)),
                                          (mask_m, m, (4, 1, 5), (2, 7, 2))):
            assert mask.dims == (10, 9, 8)
            assert (mask.origin, mask.bits.shape) == (origin, shape)
            box = tuple(slice(o, o + n) for o, n in zip(origin, shape))
            np.testing.assert_array_equal(mask.bits, full[box] != 0)

    def test_both_empty_gives_an_empty_box(self, tmp_path):
        zeros = np.zeros((4, 4, 4), dtype=np.uint8)
        (mask_a, mask_m), _ = loaded_pair(tmp_path, zeros, zeros, BinarizeRule.nonzero())
        assert mask_a.count == mask_m.count == 0
        assert mask_a.dims == (4, 4, 4)
        c = confusion_counts(mask_a, mask_m)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 0, 64)

    def test_rule_applies_to_both(self, tmp_path):
        a = np.array([[[0, 17, 53, 17]]], dtype=np.int32)
        m = np.array([[[17, 53, 0, 0]]], dtype=np.int32)
        (mask_a, mask_m), _ = loaded_pair(tmp_path, a, m, BinarizeRule.equals(17))
        assert (mask_a.origin, mask_m.origin) == ((0, 0, 1), (0, 0, 0))
        np.testing.assert_array_equal(mask_a.bits, [[[True, False, True]]])
        np.testing.assert_array_equal(mask_m.bits, [[[True]]])

    def test_grid_mismatch_checked_on_the_volumes(self, tmp_path):
        a = write_rawvol(tmp_path / "a.rawvol", np.ones((4, 4, 4)))
        m = write_rawvol(tmp_path / "m.rawvol", np.ones((4, 4, 5)))
        with pytest.raises(GridMismatch, match=r"\(4,4,4\) vs \(4,4,5\)"):
            _pair_record(a, m)

    def test_spacing_mismatch_checked_on_the_volumes(self, tmp_path):
        a = write_rawvol(tmp_path / "a.rawvol", np.ones((4, 4, 4)), (0.781, 0.781, 2.0))
        m = write_rawvol(tmp_path / "m.rawvol", np.ones((4, 4, 4)), (0.78, 0.78, 2.0))
        with pytest.raises(SpacingMismatch, match="axis x"):
            _pair_record(a, m)


@st.composite
def _embedded_pairs(draw):
    """A random nonempty mask pair, and a zero margin to embed it in."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        bits = rng.random(shape) < draw(st.floats(0.05, 0.9))
        bits[tuple(rng.integers(0, n) for n in shape)] = True
        pair.append(bits.astype(np.uint8))
    before = tuple(draw(st.integers(0, 5)) for _ in range(3))
    after = tuple(draw(st.integers(0, 5)) for _ in range(3))
    config = EvalConfig(
        space=draw(st.sampled_from(("index", "physical"))),
        connectivity=draw(st.sampled_from((6, 26))),
        threads=1,
    )
    return pair, before, after, config


def _record(root: Path, name: str, auto, manual, config):
    spacing = (0.781, 0.781, 2.0)
    case = CaseSpec(
        subject_id="s",
        method="m",
        structure="left",
        auto_path=str(write_rawvol(root / f"{name}_a.rawvol", auto, spacing)),
        manual_path=str(write_rawvol(root / f"{name}_m.rawvol", manual, spacing)),
    )
    return asdict(compute_record(case, config))


@settings(max_examples=40, deadline=None)
@given(_embedded_pairs())
def test_embedding_in_a_larger_empty_grid_changes_no_metric(example):
    (auto, manual), before, after, config = example
    margin = tuple(zip(before, after))
    big_auto = np.pad(auto, margin)
    big_manual = np.pad(manual, margin)
    with tempfile.TemporaryDirectory() as tmp:
        small = _record(Path(tmp), "small", auto, manual, config)
        big = _record(Path(tmp), "big", big_auto, big_manual, config)
    assert big == small

    rule = BinarizeRule.nonzero()
    with tempfile.TemporaryDirectory() as tmp:
        c_small = confusion_counts(*loaded_pair(Path(tmp), auto, manual, rule)[0])
        c_big = confusion_counts(*loaded_pair(Path(tmp), big_auto, big_manual, rule)[0])
    assert (c_big.tp, c_big.fp, c_big.fn) == (c_small.tp, c_small.fp, c_small.fn)
    assert c_big.tn - c_small.tn == math.prod(big_auto.shape) - math.prod(auto.shape)


class TestCheckCompatible:
    def test_equal_grids(self):
        vol = make_volume(np.ones((4, 4, 4)))
        a = binarize(vol, BinarizeRule.nonzero())
        check_compatible(a, a)

    def test_grid_mismatch(self):
        a = binarize(make_volume(np.ones((4, 4, 4))), BinarizeRule.nonzero())
        m = binarize(make_volume(np.ones((4, 4, 5))), BinarizeRule.nonzero())
        with pytest.raises(GridMismatch, match=r"\(4,4,4\) vs \(4,4,5\)"):
            check_compatible(a, m)

    def test_spacing_mismatch(self):
        a = binarize(make_volume(np.ones((4, 4, 4)), (0.781, 0.781, 2.0)),
                     BinarizeRule.nonzero())
        m = binarize(make_volume(np.ones((4, 4, 4)), (0.78, 0.78, 2.0)),
                     BinarizeRule.nonzero())
        with pytest.raises(SpacingMismatch, match="axis x"):
            check_compatible(a, m)

    def test_spacing_within_tolerance(self):
        a = binarize(make_volume(np.ones((4, 4, 4)), (0.781, 0.781, 2.0)),
                     BinarizeRule.nonzero())
        m = binarize(make_volume(np.ones((4, 4, 4)), (0.781 * (1 + 5e-5), 0.781, 2.0)),
                     BinarizeRule.nonzero())
        check_compatible(a, m)


def test_gzip_and_plain_encodings_equal(tmp_path, rng):
    data = (rng.random((5, 6, 7)) * 9).astype(np.uint8)
    for writer, name in ((write_nifti, "v.nii"), (write_rawvol, "v.rawvol")):
        plain = load_volume(writer(tmp_path / name, data))
        packed = load_volume(writer(tmp_path / (name + ".gz"), data, gzipped=True))
        assert plain.dims == packed.dims
        assert plain.spacing == packed.spacing
        np.testing.assert_array_equal(plain.data, packed.data)


def test_gzip_magic_sniffing_ignores_extension(tmp_path):
    data = _arange_vol((3, 3, 3))
    blob = gzip.compress(rawvol_bytes(data))
    path = tmp_path / "misnamed.rawvol"  # gz content behind a plain name
    path.write_bytes(blob)
    np.testing.assert_array_equal(load_volume(path).data, data)


# --- the chunk decoder --------------------------------------------------------

def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_decoding_is_bounded_by_the_declared_size(tmp_path):
    # a .nii.gz declaring 2x2x2 whose stream inflates to ~200 MiB of zeros
    data = np.zeros((2, 2, 2), np.uint8)
    data[1, 0, 1] = 1
    deflate = zlib.compressobj(1, wbits=31)
    parts = [deflate.compress(nifti_bytes(data))]
    zeros = bytes(1 << 20)
    parts += [deflate.compress(zeros) for _ in range(200)]
    parts.append(deflate.flush())
    path = tmp_path / "bomb.nii.gz"
    path.write_bytes(b"".join(parts))
    assert path.stat().st_size < 1 << 20
    vol, peak = _peak_mib(load_volume, path)
    np.testing.assert_array_equal(vol.data, data)
    assert peak < 16
    case = CaseSpec("s", "m", "left", str(path), str(path))
    record, peak = _peak_mib(compute_record, case, EvalConfig(threads=1))
    assert record.dice == 1.0
    assert peak < 16


def _ball_grid(dims, center, radius):
    grid = np.zeros(dims, np.uint8)
    k = np.arange(-radius, radius + 1)
    inside = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2 <= radius**2
    at = tuple(slice(c - radius, c + radius + 1) for c in center)
    grid[at][inside] = 1
    return grid


def _nonzero_boxes(grid, slabs):
    """The shape of each chunk's box of nonzero voxels, chunk by chunk."""
    boxes = []
    for z0 in range(0, grid.shape[2], slabs):
        hits = np.argwhere(grid[:, :, z0 : z0 + slabs])
        if len(hits):
            boxes.append(tuple(int(n) for n in hits.max(axis=0) - hits.min(axis=0) + 1))
    return boxes


def test_binarizing_follows_the_structure_not_the_grid(tmp_path):
    # an MRI grid holding two hippocampus-sized balls, one voxel apart
    dims = (256, 256, 170)
    auto = _ball_grid(dims, (100, 120, 70), 14)
    manual = _ball_grid(dims, (101, 120, 70), 14)
    a = write_nifti(tmp_path / "a.nii.gz", auto, gzipped=True)
    m = write_nifti(tmp_path / "m.nii.gz", manual, gzipped=True)
    seen = []  # the spy's calls: thread and shape

    def spy(data, rule):
        seen.append((threading.get_ident(), data.shape))
        return apply_rule(data, rule)

    apply_rule = volume_module._apply_rule
    with mock.patch.object(volume_module, "_apply_rule", spy):
        (masks,) = load_mask_pairs([(a, m, BinarizeRule.nonzero())])
    assert [mask.count for mask in masks] == [auto.sum(), manual.sum()]
    # per file, one zero-value probe, then each chunk's nonzero box alone;
    # the calling thread decodes the automatic file, then the manual one
    slabs = volume_module._CHUNK_SLABS
    probe = [(1, 1, 1)]
    assert {ident for ident, _ in seen} == {threading.get_ident()}
    assert [shape for _, shape in seen] == (
        probe + _nonzero_boxes(auto, slabs) + probe + _nonzero_boxes(manual, slabs)
    )

    # Beyond what the decoder itself holds while both files are read one
    # after the other, only the small boxes may be added. Flags for a whole
    # chunk, as a full-chunk rule makes, would add one chunk (256 KiB of
    # uint8 voxels); half of one is the bound. Neither file's full grid is
    # ever held.
    def decode(auto_path, manual_path):
        for path in (auto_path, manual_path):
            for _chunk in volume_module._VolumeFile(path).chunks():
                pass

    chunk_mib = dims[0] * dims[1] * slabs / 2**20
    _, decoder = _peak_mib(decode, a, m)
    _, peak = _peak_mib(list, load_mask_pairs([(a, m, BinarizeRule.nonzero())]))
    assert peak < decoder + chunk_mib / 2
    assert peak < 2
    assert peak < auto.nbytes / 2**20


def test_a_chunk_of_zero_bytes_is_never_boxed(tmp_path):
    # the inflater's CRC test already saw each empty chunk's bytes; a member
    # boundary falls inside a chunk that holds data
    dims = (64, 64, 40)
    grid = _ball_grid(dims, (30, 30, 20), 6)
    path = write_nifti(tmp_path / "v.nii.gz", grid, members=3)
    stored = []  # the zero test of each stored chunk the spy is given
    real = volume_module._nonzero_box

    def spy(a):
        if a.dtype != bool:
            stored.append(bool(a.any()))
        return real(a)

    with mock.patch.object(volume_module, "_nonzero_box", spy):
        ((mask, _),) = load_mask_pairs([(path, path, BinarizeRule.nonzero())])
    assert mask.count == grid.sum()
    assert stored == [True] * len(_nonzero_boxes(grid, volume_module._CHUNK_SLABS))


@pytest.mark.parametrize("reader", ["chunks", "members"])
def test_a_decode_drops_each_chunk_before_it_inflates_the_next(tmp_path, reader):
    # zlib joins its output blocks at the end of each inflate, so a chunk
    # exists twice for a moment; a chunk still held from before makes three
    dims = (256, 256, 40)
    path = write_nifti(tmp_path / "v.nii.gz", _ball_grid(dims, (128, 128, 20), 14), gzipped=True)
    chunk_mib = dims[0] * dims[1] * volume_module._CHUNK_SLABS / 2**20

    def read(src):
        for _z0, buf, _nonzero in src.chunks():
            stored = src.stored(buf)
            del buf, stored

    def members(src):
        volume_module._members(src, BinarizeRule.nonzero())

    decode = {"chunks": read, "members": members}
    src = volume_module._VolumeFile(path)  # the compressed file is read before tracing
    _, peak = _peak_mib(decode[reader], src)
    assert peak < 2.5 * chunk_mib


@pytest.mark.parametrize("manual", ["clean", "truncated", "corrupt"])
def test_shared_pairs_drop_each_file_after_its_last_use(tmp_path, manual):
    paths = {
        name: write_rawvol(
            tmp_path / f"{name}.rawvol",
            sphere_bits((12, 12, 12), center, 3).astype(np.uint8),
            gzipped=True,
        )
        for name, center in (("a1", (6, 6, 6)), ("a2", (7, 6, 6)), ("m", (6, 7, 6)),
                             ("a3", (5, 5, 5)), ("n", (5, 5, 6)))
    }
    blob = paths["m"].read_bytes()
    if manual == "truncated":
        paths["m"].write_bytes(blob[: len(blob) // 2])
    elif manual == "corrupt":  # zlib's error is chained to the CorruptFile
        paths["m"].write_bytes(blob[:20] + bytes(b ^ 0xFF for b in blob[20:40]) + blob[40:])
    rule = BinarizeRule.nonzero()
    pairs = [(paths["a1"], paths["m"], rule), (paths["a2"], paths["m"], rule),
             (paths["a3"], paths["n"], rule)]
    decoded, opened = {}, {}
    real = volume_module._members

    def spy(src, *args):
        opened[Path(src.path).stem] = weakref.ref(src)
        mask = real(src, *args)
        decoded[Path(src.path).stem] = weakref.ref(mask)
        return mask

    def live(refs):
        return sorted(name for name, ref in refs.items() if ref() is not None)

    def keep(item):
        """What is compared of a yielded item: its error, or copies of its masks'
        boxes, so that no check below sees a mask the test holds."""
        if isinstance(item, Exception):
            return item
        return [(mask.origin, mask.bits.copy()) for mask in item]

    got = []
    with mock.patch.object(volume_module, "_members", spy):
        shared = load_mask_pairs(pairs)
        item = next(shared)
        first_m = None if isinstance(item, Exception) else weakref.ref(item[1])
        got.append(keep(item))
        del item
        # the shared manual's mask, or its error, outlives the first pair
        assert live(decoded) == (["m"] if manual == "clean" else [])
        assert live(opened) == []
        item = next(shared)
        if first_m is not None:  # the pairs reading m share one mask object
            assert item[1] is first_m()
        got.append(keep(item))
        del item
        assert (sorted(decoded), live(decoded), live(opened)) == (
            ["a1", "a2", "m"] if manual == "clean" else ["a1", "a2"], [], []
        )
        got.append(keep(next(shared)))
        assert (live(decoded), live(opened)) == ([], [])
        assert next(shared, None) is None
    for kept, pair in zip(got, pairs):
        (alone,) = load_mask_pairs([pair])
        if isinstance(kept, Exception):
            assert (type(kept), type(alone), str(kept)) == (CorruptFile, CorruptFile, str(alone))
            continue
        for (origin, bits), want in zip(kept, alone):
            assert origin == want.origin
            assert np.array_equal(bits, want.bits)
    assert [isinstance(kept, Exception) for kept in got] == (
        [False] * 3 if manual == "clean" else [True, True, False]
    )


def test_a_pair_reading_one_file_decodes_it_once(tmp_path, monkeypatch):
    path, other = (
        write_nifti(tmp_path / name, _ball_grid((12, 12, 12), center, 3), gzipped=True)
        for name, center in (("v.nii.gz", (6, 6, 6)), ("w.nii.gz", (5, 6, 6)))
    )
    opened = []

    class CountingFile(volume_module._VolumeFile):
        def __init__(self, path):
            opened.append(str(path))
            super().__init__(path)

    monkeypatch.setattr(volume_module, "_VolumeFile", CountingFile)
    ((mask_a, mask_m),) = load_mask_pairs([(path, str(path), BinarizeRule.nonzero())])
    assert opened == [str(path)]
    assert mask_a.count == mask_m.count > 0
    list(load_mask_pairs([(path, other, BinarizeRule.nonzero())]))
    assert opened[1:] == [str(path), str(other)]


def _pair_files(tmp_path, case):
    """An automatic and a manual file, spoiled as ``case`` names."""
    dims = (12, 12, 12)
    auto = _ball_grid(dims, (6, 6, 6), 3).astype(np.float32)
    manual = _ball_grid(dims, (5, 6, 6), 3).astype(np.float32)
    spacing = (1.0, 1.0, 1.0)
    if case == "grid":
        manual = np.zeros((12, 12, 13), np.float32)
    elif case == "spacing":
        spacing = (1.0, 1.0, 1.5)
    elif case in ("nan-manual", "both-bad"):
        manual[0, 0, 11] = np.nan
    a = write_nifti(tmp_path / "a.nii.gz", auto, gzipped=True)
    m = write_nifti(tmp_path / "m.nii.gz", manual, spacing, gzipped=True)
    spoiled = {"bad-auto": a, "both-bad": a, "truncated-manual": m, "flipped-manual": m}
    if case in spoiled:
        blob = spoiled[case].read_bytes()
        if case == "flipped-manual":  # zlib's error is chained to the CorruptFile
            blob = blob[:20] + bytes(b ^ 0xFF for b in blob[20:40]) + blob[40:]
        else:
            blob = blob[: len(blob) // 2]
        spoiled[case].write_bytes(blob)
    return a, m


@pytest.mark.parametrize(
    "case",
    ["bad-auto", "truncated-manual", "flipped-manual", "nan-manual", "both-bad",
     "grid", "spacing"],
)
def test_a_failed_pair_raises_what_the_shared_route_yields(tmp_path, case):
    a, m = _pair_files(tmp_path, case)
    rule = BinarizeRule.nonzero()
    with pytest.raises(SegEvalError) as raised:
        _pair_record(a, m, rule)
    (want,) = load_mask_pairs([(a, m, rule)])
    error = raised.value
    assert str(error).startswith({
        "bad-auto": f"{a}: bad gzip stream", "both-bad": f"{a}: bad gzip stream",
        "truncated-manual": f"{m}: bad gzip stream", "flipped-manual": f"{m}: bad gzip stream",
        "nan-manual": f"{m}: volume holds NaN voxels", "grid": "(12,12,12) vs (12,12,13)",
        "spacing": "spacing (1.0, 1.0, 1.0) vs (1.0, 1.0, 1.5)",
    }[case])
    frames = [frame.f_code.co_name for frame, _ in traceback.walk_tb(error.__traceback__)]
    if case in ("grid", "spacing"):
        # the loader yields the masks; the case's one grid check is confusion_counts'
        assert [type(mask) for mask in want] == [BinaryMask, BinaryMask]
        assert type(error) is {"grid": GridMismatch, "spacing": SpacingMismatch}[case]
        assert frames[-2:] == ["confusion_counts", "check_compatible"]
    else:
        # the file's error as the loader yields it, with no frame of the decode
        assert (type(error), str(error)) == (type(want), str(want))
        assert frames[-1] == "compute_record"
    # nor a chained one
    chained = []
    link = error.__cause__ or error.__context__
    while link is not None:
        chained.append(link)
        link = link.__cause__ or link.__context__
    assert [type(e) for e in chained] == ([zlib.error] if case == "flipped-manual" else [])
    assert all(e.__traceback__ is None for e in chained)


@pytest.mark.parametrize("loader", ["compute_record", "load_mask_pairs", "evaluate_cohort"])
@pytest.mark.parametrize("file", ["auto", "manual"])
def test_an_interrupt_in_a_decode_is_raised_as_itself(tmp_path, monkeypatch, loader, file):
    # never an error item, nor an error record
    a, m = _pair_files(tmp_path, "clean")
    rule = BinarizeRule.nonzero()
    real, interrupt = volume_module._members, {"auto": a, "manual": m}[file]

    def members(src, rule):  # called inside _decode's guard
        if src.path == str(interrupt):
            raise KeyboardInterrupt("stop")
        return real(src, rule)

    monkeypatch.setattr(volume_module, "_members", members)
    with pytest.raises(KeyboardInterrupt, match="stop"):
        if loader == "compute_record":
            _pair_record(a, m, rule)
        elif loader == "load_mask_pairs":
            list(load_mask_pairs([(a, a, rule), (a, m, rule)]))
        else:
            cases = [CaseSpec("s", "x", "left", str(a), str(a)),
                     CaseSpec("s", "y", "left", str(a), str(m))]
            cohort_module.evaluate_cohort(cases, EvalConfig(threads=1))


def _corrupt_crc(blob: bytes) -> bytes:
    blob = bytearray(blob)
    blob[-8] ^= 0xFF  # the trailer is CRC32 then ISIZE
    return bytes(blob)


@pytest.mark.parametrize("reader", ["load_volume", "compute_record"])
@pytest.mark.parametrize(
    "defect",
    [_corrupt_crc, lambda b: b[: len(b) // 2], lambda b: b[:-4]],
    ids=["flipped-crc", "cut-in-half", "cut-trailer"],
)
def test_corrupt_gzip_stream(tmp_path, reader, defect):
    path = write_nifti(tmp_path / "v.nii.gz", _arange_vol((6, 5, 40)), gzipped=True)
    path.write_bytes(defect(path.read_bytes()))
    with pytest.raises(CorruptFile, match="bad gzip stream"):
        if reader == "load_volume":
            load_volume(path)
        else:
            _pair_record(path, path)


@pytest.mark.parametrize("writer", [write_nifti, write_rawvol])
@pytest.mark.parametrize("members", [2, 3])
def test_multi_member_gzip_equals_one_member(tmp_path, writer, members):
    data = _arange_vol((7, 6, 9), np.int16)
    one = load_volume(writer(tmp_path / "one.gz", data, gzipped=True))
    many = load_volume(writer(tmp_path / "many.gz", data, members=members))
    assert many.dims == one.dims
    assert many.spacing == one.spacing
    np.testing.assert_array_equal(many.data, one.data)


def test_the_inflater_takes_the_compressed_input_in_bounded_pieces(tmp_path, monkeypatch):
    # noise barely compresses, so each 4-slab chunk needs ~256 KiB of input;
    # handing zlib the whole rest of the file on every call hands it ~5.5
    # times the file, as each chunk re-hands all that follows it. Three
    # members: each next member starts inside a piece.
    data = np.random.default_rng(0).random((128, 128, 16), dtype=np.float32)
    path = write_nifti(tmp_path / "noise.nii.gz", data, members=3)
    handed = []
    real = zlib.decompressobj

    class Spy:
        def __init__(self, *args, **kwargs):
            self._inflater = real(*args, **kwargs)

        def decompress(self, data, max_length=0):
            handed.append(len(data))
            return self._inflater.decompress(data, max_length)

        def __getattr__(self, name):
            return getattr(self._inflater, name)

    monkeypatch.setattr(volume_module.zlib, "decompressobj", Spy)
    np.testing.assert_array_equal(load_volume(path).data, data)
    assert max(handed) <= volume_module._INPUT_BYTES
    assert sum(handed) < 2 * path.stat().st_size


def test_zero_padding_between_gzip_members_is_skipped(tmp_path):
    data = _arange_vol((4, 4, 4))
    blob = rawvol_bytes(data)
    path = tmp_path / "padded.rawvol.gz"
    path.write_bytes(
        gzip.compress(blob[:50]) + bytes(16) + gzip.compress(blob[50:]) + bytes(3)
    )
    np.testing.assert_array_equal(load_volume(path).data, data)


def _member(payload: bytes, flags: int = 0, extra: bytes = b"", name: bytes = b"",
            comment: bytes = b"", mtime: int = 0, level: int = 6) -> bytes:
    """One gzip member of ``payload``, laid out field by field (RFC 1952).

    ``flags`` is the FLG byte: FEXTRA (4), FNAME (8) and FCOMMENT (16) add
    ``extra``, ``name`` and ``comment``, the last two zero-terminated, and
    FHCRC (2) adds the low 16 bits of the header's CRC32.
    """
    head = b"\x1f\x8b\x08" + bytes([flags]) + struct.pack("<I", mtime) + b"\x00\xff"
    if flags & 4:
        head += struct.pack("<H", len(extra)) + extra
    if flags & 8:
        head += name + b"\x00"
    if flags & 16:
        head += comment + b"\x00"
    if flags & 2:
        head += struct.pack("<H", zlib.crc32(head) & 0xFFFF)
    deflate = zlib.compressobj(level, wbits=-15)
    body = deflate.compress(payload) + deflate.flush()
    return head + body + struct.pack("<II", zlib.crc32(payload), len(payload) & 0xFFFFFFFF)


_TEXT = st.binary(max_size=12).map(lambda b: b.replace(b"\x00", b"a"))  # zero-free


@st.composite
def _gzip_files(draw):
    """1-3 gzip members of a payload of zero runs and random bytes, with
    random header fields and zero padding, then at most one bit flip, cut
    or piece of trailing garbage."""
    runs = st.one_of(st.integers(1, 1 << 19).map(bytes), st.binary(min_size=1, max_size=64))
    payload = b"".join(draw(st.lists(runs, min_size=1, max_size=6)))
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), min_size=k - 1, max_size=k - 1)))
    blob = b""
    for lo, hi in zip([0, *cuts], [*cuts, len(payload)]):
        blob += _member(
            payload[lo:hi], flags=draw(st.integers(0, 31)), extra=draw(st.binary(max_size=12)),
            name=draw(_TEXT), comment=draw(_TEXT), mtime=draw(st.integers(0, 2**32 - 1)),
            level=draw(st.integers(0, 9)),
        ) + bytes(draw(st.sampled_from([0, 0, 1, 7])))
    mutation = draw(st.sampled_from(["none", "flip", "cut", "garbage"]))
    if mutation == "flip":  # never in the first magic, which makes the file plain
        at = draw(st.integers(2, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ 1 << draw(st.integers(0, 7))]) + blob[at + 1 :]
    elif mutation == "cut":
        blob = blob[: draw(st.integers(2, len(blob) - 1))]
    elif mutation == "garbage":
        blob += draw(st.binary(min_size=1, max_size=12))
    return blob


@settings(deadline=None)
@given(_gzip_files(), st.sampled_from([1 << 8, 1 << 12, 1 << 18, 1 << 20]))
@example(  # every header field, in a clean file: random files have one only at times
    _member(bytes(1 << 18) + b"\x01", flags=31, extra=b"SE\x04\x00eval", name=b"v.nii",
            comment=b"label map"),
    1 << 12,
)
def test_gzip_files_read_as_zlib_s_gzip_wrapper_reads_them(blob, step):
    def read_all():
        stream = volume_module._Decoded(blob, "v.gz")
        parts = []
        while piece := stream.read(step):
            parts.append(bytes(piece))
        stream.drain()
        return b"".join(parts)

    try:
        want = gunzip_members(blob)
    except zlib.error:
        with pytest.raises(CorruptFile, match=r"^v\.gz: bad gzip stream \("):
            read_all()
    else:
        assert read_all() == want


@given(
    st.one_of(st.sampled_from([1, 255, 1 << 18, 1 << 20]),
              st.integers(0, 1 << 17).map(lambda n: 2 * n + 1)),
    st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), max_size=3),
)
def test_crc32_equals_zlib_s_for_zero_and_mixed_data(length, crc, nonzero):
    data = bytearray(length)
    for at, value in nonzero:
        data[at % length] = value
    assert volume_module._crc32(bytes(data), crc) == (zlib.crc32(data, crc), any(data))
    assert volume_module._zeros_tables.cache_info().maxsize is not None


def _spoiled_member(defect: str) -> bytes:
    """A gzip member of a NIfTI file of long zero runs, with ``defect``."""
    data = np.zeros((128, 128, 32), np.uint8)
    data[60:68, 60:68, 14:18] = 1
    clean = nifti_bytes(data)
    blob = bytearray(_member(clean, flags=2 if defect == "header-crc" else 0))
    if defect == "method":
        blob[2] = 7
    elif defect == "flags":
        blob[3] |= 0x80
    elif defect == "header-crc":
        blob[4] ^= 1  # MTIME, under the header's CRC
    elif defect == "data":  # one more nonzero byte deep in a zero run, the clean trailer
        spoiled = bytearray(clean)
        spoiled[len(clean) * 3 // 4] = 1
        blob = bytearray(_member(bytes(spoiled))[:-8] + blob[-8:])
    elif defect == "length":
        blob[-4] ^= 1  # ISIZE
    elif defect == "garbage":
        blob += b"segeval"
    return bytes(blob)


@pytest.mark.parametrize("reader", ["load_volume", "compute_record"])
@pytest.mark.parametrize("defect, reason", [
    ("method", "unknown compression method"),
    ("flags", "unknown header flags set"),
    ("header-crc", "header crc mismatch"),
    ("data", "incorrect data check"),
    ("length", "incorrect length check"),
    ("garbage", "incorrect header check"),
])
def test_a_bad_gzip_member_fails_with_zlib_s_reason(tmp_path, reader, defect, reason):
    blob = _spoiled_member(defect)
    with pytest.raises(zlib.error, match=f": {reason}$") as oracle:
        gunzip_members(blob)
    path = tmp_path / "v.nii.gz"
    path.write_bytes(blob)
    with pytest.raises(CorruptFile) as raised:
        if reader == "load_volume":
            load_volume(path)
        else:
            _pair_record(path, path)
    assert str(raised.value) == f"{path}: bad gzip stream ({oracle.value})"


def test_a_gzip_file_with_a_name_decodes(tmp_path):
    # nibabel and FSL write the file name into the gzip header (FNAME)
    data = _arange_vol((5, 4, 3))
    path = tmp_path / "v.nii.gz"
    with gzip.GzipFile(filename=path, mode="wb") as f:
        f.write(nifti_bytes(data))
    assert path.read_bytes()[3] & 8
    np.testing.assert_array_equal(load_volume(path).data, data)


@pytest.mark.parametrize("gzipped", [False, True])
def test_huge_declared_grid_with_a_short_payload_is_corrupt(tmp_path, gzipped):
    blob = bytearray(nifti_bytes(_arange_vol((2, 2, 2))))
    struct.pack_into("<3h", blob, 42, 30000, 30000, 30000)
    path = tmp_path / "huge.nii"
    path.write_bytes(gzip.compress(bytes(blob)) if gzipped else bytes(blob))
    with pytest.raises(CorruptFile, match="payload has 8 bytes"):
        load_volume(path)
    with pytest.raises(CorruptFile, match="payload has 8 bytes"):
        _pair_record(path, path)


def test_vox_offset_beyond_the_header(tmp_path):
    data = _arange_vol((3, 4, 5), np.float32)
    for name, gz in (("v.nii", False), ("v.nii.gz", True)):
        vol = load_volume(write_nifti(tmp_path / name, data, gzipped=gz, vox_offset=6000))
        np.testing.assert_array_equal(vol.data, data)


_RULES = (
    BinarizeRule.nonzero(),
    BinarizeRule.equals(2),
    BinarizeRule.greater_than(1.5),
    # the zero value is a member, so no chunk can be skipped
    BinarizeRule.equals(0),
    BinarizeRule.greater_than(-0.5),
)


@st.composite
def _encoded_pairs(draw):
    """A pair of volumes and how to write them, over every decoder branch."""
    dims = tuple(draw(st.integers(1, 12)) for _ in range(2)) + (draw(st.integers(1, 8)),)
    dtype = draw(st.sampled_from(("uint8", "int16", "int32", "float32", "float64")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty = draw(st.sampled_from(("none", "none", "auto", "both")))
    # -0.0 has a nonzero stored bit but is 0; a NaN voxel makes the file corrupt
    special = draw(st.sampled_from(("none", "-0.0", "nan"))) if dtype[0] == "f" else "none"
    pair = []
    for role in ("auto", "manual"):
        values = rng.integers(1, 4, size=dims) * (rng.random(dims) < draw(st.floats(0, 0.6)))
        if empty == "both" or (empty == "auto" and role == "auto"):
            values[...] = 0
        values = values.astype(dtype)
        if special != "none":
            where = rng.random(dims) < draw(st.floats(0, 0.2))
            if special == "nan" and role == "manual":
                where.flat[rng.integers(where.size)] = True  # at least one file is corrupt
            values[where] = float(special)
        pair.append(values)
    nifti = draw(st.booleans())
    write = {"members": draw(st.integers(0, 3))}  # 0: plain, else gzip members
    if nifti:
        write["byteorder"] = draw(st.sampled_from("<>"))
        write["vox_offset"] = draw(st.sampled_from((352, 353, 400, 5000)))
        # scaling can make the zero value a member
        write["scl_slope"] = draw(st.sampled_from((0.0, 1.0, 2.5, -1.0)))
        write["scl_inter"] = draw(st.sampled_from((0.0, -1.0, 0.5, 2.0)))
    rule = draw(st.sampled_from(_RULES))
    slabs = draw(st.sampled_from((1, 3, 4)))
    return pair, special, nifti, write, rule, slabs


def _write(path, data, nifti, write):
    write = dict(write)
    members = write.pop("members")
    gz = {"gzipped": bool(members), "members": max(members, 1)}
    if nifti:
        return str(write_nifti(path, data, **gz, **write))
    return str(write_rawvol(path, data, **gz))


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - the error is the outcome here
        return (type(e), str(e))


def _full_grid_masks(pairs):
    """Each pair's two full-grid masks, or its error in :func:`load_mask_pairs`' order."""
    for auto_path, manual_path, rule in pairs:
        try:
            item = tuple(binarize(load_volume(path), rule) for path in (auto_path, manual_path))
        except Exception as e:  # noqa: BLE001 - the pair's outcome, as the loader yields it
            item = e
        yield item


def _rule_on_written(data, nifti, write, rule):
    """The rule on the array handed to the writer, in float64: no code of the
    decoder runs. A NIfTI file's scale factors come first, unless its slope
    is 0 (no scaling) or they are (1, 0)."""
    values = np.asarray(data, dtype=np.float64)
    if nifti:
        slope, inter = write["scl_slope"], write["scl_inter"]
        if slope != 0 and (slope, inter) != (1, 0):
            values = values * slope + inter
    if rule.kind == "equals":
        return values == rule.value
    if rule.kind == "greater_than":
        return values > rule.value
    return values != 0


def _ball_pair_across_chunks():
    """Two int16 balls that cross a chunk edge at 4 slabs, the default, with nz = 7."""
    dims = (6, 5, 7)
    pair = [sphere_bits(dims, (3, 2, 3), 2).astype(np.int16),
            2 * sphere_bits(dims, (2, 2, 4), 2).astype(np.int16)]
    write = {"members": 1, "byteorder": "<", "vox_offset": 352,
             "scl_slope": 0.0, "scl_inter": 0.0}
    return pair, "none", True, write, BinarizeRule.nonzero(), 4


def _member_boundary_in_a_chunk():
    """A gzip member boundary at payload byte 400, inside the first 4-slab
    chunk: zeros before it and data after it in the automatic file, data
    before it and zeros after it in the manual one. The second chunk is
    zero in both."""
    dims = (12, 12, 8)  # 144-byte slabs; 1504 bytes in all, cut in half
    auto, manual = np.zeros(dims, np.uint8), np.zeros(dims, np.uint8)
    auto[5, 10, 2] = auto[4, 4, 3] = 1  # payload bytes 413 and 484
    manual[1, 1, 0] = manual[3, 4, 2] = 1  # payload bytes 13 and 339
    write = {"members": 2, "byteorder": "<", "vox_offset": 352,
             "scl_slope": 0.0, "scl_inter": 0.0}
    return [auto, manual], "none", True, write, BinarizeRule.nonzero(), 4


def _payload_in_the_rawvol_prefix():
    """Payload bytes held from the 4 KiB rawvol header prefix: one-slab
    chunks of 1600 bytes, the first two held whole and the third in part."""
    dims = (40, 40, 8)
    auto, manual = np.zeros(dims, np.uint8), np.zeros(dims, np.uint8)
    auto[3, 3, 1] = auto[5, 10, 2] = 1  # held, as is the rest of their chunks
    manual[0, 0, 0] = manual[5, 30, 2] = manual[7, 7, 5] = 1  # inflated after the prefix
    return [auto, manual], "none", False, {"members": 1}, BinarizeRule.nonzero(), 1


def _negative_zero_voxels():
    """float32 -0.0 voxels, whose stored bits are not zero, fill a whole
    chunk of the automatic file; they are no member under ``nonzero``."""
    dims = (6, 5, 8)
    auto = np.zeros(dims, np.float32)
    auto[:, :, 4:] = -0.0
    auto[2, 2, 1] = 3.0
    manual = sphere_bits(dims, (3, 2, 3), 2).astype(np.float32)
    write = {"members": 1, "byteorder": ">", "vox_offset": 352,
             "scl_slope": 0.0, "scl_inter": 0.0}
    return [auto, manual], "-0.0", True, write, BinarizeRule.nonzero(), 4


def _zero_members_in_a_zero_chunk():
    """``equals(0)`` on files whose second chunk is all zero: every voxel of
    it is a member, so it cannot be dropped."""
    dims = (6, 5, 8)
    pair = [2 * sphere_bits(dims, (3, 2, 1), 1).astype(np.uint8),
            sphere_bits(dims, (2, 2, 2), 1).astype(np.uint8)]
    write = {"members": 1, "byteorder": "<", "vox_offset": 352,
             "scl_slope": 0.0, "scl_inter": 0.0}
    return pair, "none", True, write, BinarizeRule.equals(0), 4


@settings(max_examples=150, deadline=None)
@given(_encoded_pairs())
@example(_ball_pair_across_chunks())
@example(_member_boundary_in_a_chunk())
@example(_payload_in_the_rawvol_prefix())
@example(_negative_zero_voxels())
@example(_zero_members_in_a_zero_chunk())
def test_streamed_pair_equals_the_full_grid_route(example):
    (auto, manual), special, nifti, write, rule, slabs = example
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        volume_module, "_CHUNK_SLABS", slabs
    ):
        a = _write(Path(tmp) / "a.vol", auto, nifti, write)
        m = _write(Path(tmp) / "m.vol", manual, nifti, write)
        case = CaseSpec("s", "m", "left", a, m, binarize_rule=rule)
        config = EvalConfig(threads=1)
        got = _outcome(lambda: asdict(compute_record(case, config)))
        # the same record from full-grid masks, or the same error
        with mock.patch.object(cohort_module, "load_mask_pairs", _full_grid_masks):
            want = _outcome(lambda: asdict(compute_record(case, config)))
        assert got == want

        if special == "nan":
            # the automatic file's error is reported first
            message = f"{a if np.isnan(auto).any() else m}: volume holds NaN voxels"
            (error,) = load_mask_pairs([(a, m, rule)])
            assert (type(error), str(error)) == (CorruptFile, message)
            assert got == (CorruptFile, message)
            return

        # the rule on every voxel of each fully loaded grid, and the box of
        # each one's members, with no box code in between
        vols = [load_volume(path) for path in (a, m)]
        want_bits = [binarize(vol, rule).bits for vol in vols]
        (masks,) = load_mask_pairs([(a, m, rule)])
        for mask, vol, bits, data in zip(masks, vols, want_bits, (auto, manual)):
            assert (mask.dims, mask.spacing) == (vol.dims, vol.spacing)
            assert (mask.origin, mask.bits.shape) == member_box(bits)
            assert mask.bits.dtype == bool and mask.bits.flags.c_contiguous
            assert not mask.bits.flags.writeable
            np.testing.assert_array_equal(embed(mask), bits, strict=True)
            # and against an oracle that shares no code with the decoder
            written = _rule_on_written(data, nifti, write, rule)
            np.testing.assert_array_equal(embed(mask), written, strict=True)


# header fields the fuzz rewrites: byte offset and struct code of each
_NIFTI_FIELDS = {
    "magic": (344, "4s"),
    "dim": (40, "h"),  # plus 2·index, index 0..7
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "pixdim": (76, "f"),  # plus 4·index, index 0..7
    "vox_offset": (108, "f"),
    "scl_slope": (112, "f"),
    "scl_inter": (116, "f"),
}
_INT16 = st.one_of(
    st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 7, 8, 16, 64, 128, 256, 512, 32767, -32768)),
    st.integers(-(2**15), 2**15 - 1),
)
_FLOAT32 = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 3e38, 1e-45)),
    st.floats(width=32),
)
_TOKEN = st.one_of(
    st.integers(-5, 2**70).map(str),
    st.floats().map(repr),
    st.text(alphabet="0123456789.-+eE xnaifNI\t", max_size=12),
)


@st.composite
def _nifti_mutation(draw, order):
    field = draw(st.sampled_from(sorted(_NIFTI_FIELDS)))
    offset, code = _NIFTI_FIELDS[field]
    if field == "magic":
        value = draw(st.one_of(st.sampled_from((b"ni1\x00", b"n+2\x00")), st.binary(min_size=4, max_size=4)))
    elif code == "h":
        value = draw(_INT16)
    else:
        value = draw(_FLOAT32)
    if field in ("dim", "pixdim"):
        offset += struct.calcsize(code) * draw(st.integers(0, 7))
    return offset, order + code, value


@st.composite
def _rawvol_header(draw, dims, dtype):
    lines = [
        "RAWVOL1",
        f"dims {dims[0]} {dims[1]} {dims[2]}",
        "spacing 1.0 1.0 1.0",
        f"datatype {dtype}",
        "end",
    ]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "token", "drop", "insert")))
        if kind == "token":
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(_TOKEN)
            lines[i] = " ".join(words)
        elif kind == "drop":
            del lines[i]
        else:
            key = draw(st.sampled_from(("dims", "spacing", "datatype", "end", "origin", "")))
            lines.insert(i, f"{key} {draw(_TOKEN)}".strip())
        if not lines:
            break
    return "".join(line + "\n" for line in lines).encode("ascii")


@st.composite
def _mutated_files(draw):
    """A small valid volume, its file with mutated header fields, and how to gzip it."""
    dims = (3, 4, 5)
    dtype = draw(st.sampled_from(("uint8", "int16", "int32", "float32", "float64")))
    data = (np.arange(60) % 3).astype(dtype).reshape(dims, order="F")
    if draw(st.booleans()):
        order = draw(st.sampled_from("<>"))
        blob = bytearray(nifti_bytes(data, byteorder=order))
        for _ in range(draw(st.integers(1, 3))):
            offset, code, value = draw(_nifti_mutation(order))
            struct.pack_into(code, blob, offset, value)
        blob = bytes(blob)
    else:
        valid = rawvol_bytes(data)
        payload = valid[valid.index(b"end\n") + 4 :]
        blob = draw(_rawvol_header(dims, dtype)) + payload
    members = draw(st.integers(0, 2))  # 0: plain, else gzip members
    both = draw(st.booleans())  # the mutated file as auto only, or as both masks
    return data, blob, members, both


_EXIT_CODES = ((InputError, 1), (MetricError, 2), (StatsError, 3))


@settings(max_examples=300, deadline=None)
@given(_mutated_files())
def test_mutated_headers_end_in_a_record_or_a_typed_error(example):
    data, blob, members, both = example
    if members:
        blob = gzip_members(blob, members)
    with tempfile.TemporaryDirectory() as tmp:
        auto = Path(tmp) / "auto.vol"
        auto.write_bytes(blob)
        manual = str(auto) if both else str(write_nifti(Path(tmp) / "m.nii", data))
        case = CaseSpec("s", "m", "left", str(auto), manual)
        try:
            record = compute_record(case, EvalConfig(threads=1))
        except SegEvalError as e:
            want = next(code for kind, code in _EXIT_CODES if isinstance(e, kind))
        else:
            assert record.status == "ok"
            want = 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["metrics", str(auto), manual])
    assert code == want
    assert bool(out.getvalue()) == (code == 0)
    assert bool(err.getvalue()) == (code != 0)
