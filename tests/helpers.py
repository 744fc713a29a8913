"""Shared test utilities: fixture writers and synthetic cohort builders.

The NIfTI writer below is the test-side oracle for the reader: it lays out
the 348-byte header field by field from the public format description,
independently of the parsing code under test. The package itself never
writes volumes.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

from segeval.volume import (
    BinarizeRule,
    BinaryMask,
    LabelVolume,
    binarize,
    load_mask_pairs,
    load_volume,
)

_NIFTI_CODES = {"uint8": 2, "int16": 4, "int32": 8, "float32": 16, "float64": 64}


def nifti_bytes(
    data: np.ndarray,
    spacing=(1.0, 1.0, 1.0),
    *,
    byteorder: str = "<",
    magic: bytes = b"n+1\x00",
    scl_slope: float = 0.0,
    scl_inter: float = 0.0,
    vox_offset: int = 352,
    dim0: int | None = None,
    extra_dims: tuple[int, ...] = (),
    bitpix: int | None = None,
    truncate_payload: int = 0,
) -> bytes:
    """Serialize a 3D array as a single-file NIfTI-1 blob, field by field."""
    data = np.asarray(data)
    name = data.dtype.name
    code = _NIFTI_CODES[name]
    header = bytearray(348)
    struct.pack_into(byteorder + "i", header, 0, 348)
    dims = list(data.shape) + list(extra_dims)
    ndim = dim0 if dim0 is not None else len(dims)
    dim_field = [ndim] + dims + [1] * (7 - len(dims))
    struct.pack_into(byteorder + "8h", header, 40, *dim_field)
    struct.pack_into(byteorder + "h", header, 70, code)
    struct.pack_into(
        byteorder + "h", header, 72, bitpix if bitpix is not None else data.dtype.itemsize * 8
    )
    pixdim = [1.0, spacing[0], spacing[1], spacing[2], 0.0, 0.0, 0.0, 0.0]
    struct.pack_into(byteorder + "8f", header, 76, *pixdim)
    struct.pack_into(byteorder + "f", header, 108, float(vox_offset))
    struct.pack_into(byteorder + "f", header, 112, scl_slope)
    struct.pack_into(byteorder + "f", header, 116, scl_inter)
    header[344:348] = magic
    payload = data.astype(data.dtype.newbyteorder(byteorder)).tobytes(order="F")
    if truncate_payload:
        payload = payload[:-truncate_payload]
    return bytes(header) + b"\x00" * (vox_offset - 348) + payload


def gzip_members(blob: bytes, members: int = 1) -> bytes:
    """``blob`` as ``members`` gzip members of near-equal size, concatenated."""
    cuts = [len(blob) * i // members for i in range(members + 1)]
    view = memoryview(blob)
    return b"".join(
        gzip.compress(view[lo:hi], compresslevel=1) for lo, hi in zip(cuts, cuts[1:])
    )


def gunzip_members(blob: bytes) -> bytes:
    """The bytes of a gzip file, read member after member by zlib's gzip
    wrapper (``wbits=31``), zero padding between members skipped.

    The oracle for the package's gzip reader, which checks each member's
    header and trailer itself. Raises ``zlib.error`` where a member is bad
    or the file ends inside one.
    """
    parts = []
    while blob:
        inflater = zlib.decompressobj(wbits=31)
        parts.append(inflater.decompress(blob))
        if not inflater.eof:
            raise zlib.error("the file ends inside a gzip member")
        blob = inflater.unused_data.lstrip(b"\x00")
    return b"".join(parts)


def write_nifti(path: Path, data: np.ndarray, spacing=(1.0, 1.0, 1.0), *,
                gzipped: bool = False, members: int = 1, vox_offset: int = 352,
                **kwargs) -> Path:
    """Write a NIfTI-1 file; ``members`` > 1 gzips it as that many members."""
    blob = nifti_bytes(data, spacing, vox_offset=vox_offset, **kwargs)
    if gzipped or members > 1:
        blob = gzip_members(blob, members)
    Path(path).write_bytes(blob)
    return Path(path)


def rawvol_bytes(data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> bytes:
    data = np.asarray(data)
    header = (
        "RAWVOL1\n"
        f"dims {data.shape[0]} {data.shape[1]} {data.shape[2]}\n"
        f"spacing {spacing[0]!r} {spacing[1]!r} {spacing[2]!r}\n"
        f"datatype {data.dtype.name}\n"
        "end\n"
    )
    payload = data.astype(data.dtype.newbyteorder("<")).tobytes(order="F")
    return header.encode("ascii") + payload


def write_rawvol(path: Path, data: np.ndarray, spacing=(1.0, 1.0, 1.0), *,
                 gzipped: bool = False, members: int = 1) -> Path:
    """Write a rawvol file; ``members`` > 1 gzips it as that many members."""
    blob = rawvol_bytes(data, spacing)
    if gzipped or members > 1:
        blob = gzip_members(blob, members)
    Path(path).write_bytes(blob)
    return Path(path)


# --- in-memory builders -----------------------------------------------------

def make_mask(bits: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    bits = np.asarray(bits, dtype=bool)
    return BinaryMask(dims=bits.shape, spacing=spacing, bits=bits)


def make_volume(data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> LabelVolume:
    data = np.asarray(data)
    return LabelVolume(dims=data.shape, spacing=spacing, data=data)


def embed(mask: BinaryMask) -> np.ndarray:
    """The flags of ``mask`` on its full grid: ``bits`` placed at ``origin``."""
    full = np.zeros(mask.dims, dtype=bool)
    full[tuple(slice(o, o + n) for o, n in zip(mask.origin, mask.bits.shape))] = mask.bits
    return full


def loaded_pair(root: Path, auto: np.ndarray, manual: np.ndarray, rule: BinarizeRule,
                spacing=(1.0, 1.0, 1.0)) -> tuple[tuple[BinaryMask, BinaryMask], list[BinaryMask]]:
    """The masks ``load_mask_pairs`` reads from the two arrays written as
    rawvol files, and ``binarize(load_volume(path), rule)`` of each file.

    Checks the loaded masks against the full-grid ones on the way: each one
    embedded at its origin equals its full-grid flags, and its box is the
    bounding box of those flags alone.
    """
    paths = [write_rawvol(Path(root) / f"{role}.rawvol", data, spacing)
             for role, data in (("auto", auto), ("manual", manual))]
    (loaded,) = load_mask_pairs([(*paths, rule)])
    if isinstance(loaded, Exception):
        raise loaded
    full = [binarize(load_volume(path), rule) for path in paths]
    for mask, whole in zip(loaded, full):
        assert (mask.dims, mask.spacing) == (whole.dims, whole.spacing)
        assert (mask.origin, mask.bits.shape) == member_box(whole.bits)
        np.testing.assert_array_equal(embed(mask), whole.bits, strict=True)
    return loaded, full


def member_box(bits: np.ndarray) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Origin and shape of the bounding box of the set flags; an empty box
    at the grid corner if none is set."""
    hits = np.argwhere(bits)
    if not len(hits):
        return (0, 0, 0), (0, 0, 0)
    lo, hi = hits.min(axis=0), hits.max(axis=0) + 1
    return tuple(int(n) for n in lo), tuple(int(n) for n in hi - lo)


def random_bits(rng: np.random.Generator, dims, p: float = 0.2,
                nonempty: bool = True) -> np.ndarray:
    bits = rng.random(dims) < p
    if nonempty and not bits.any():
        bits[tuple(rng.integers(0, d) for d in dims)] = True
    return bits


def sphere_bits(dims, center, radius) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return dist2 <= radius**2


def dilate6(bits: np.ndarray) -> np.ndarray:
    out = bits.copy()
    for axis in range(3):
        for shift in (1, -1):
            rolled = np.zeros_like(bits)
            src = [slice(None)] * 3
            dst = [slice(None)] * 3
            n = bits.shape[axis]
            if shift > 0:
                src[axis], dst[axis] = slice(0, n - 1), slice(1, n)
            else:
                src[axis], dst[axis] = slice(1, n), slice(0, n - 1)
            rolled[tuple(dst)] = bits[tuple(src)]
            out |= rolled
    return out


# --- brute-force overlap oracle ---------------------------------------------

def enumerate_confusion(a_bits: np.ndarray, m_bits: np.ndarray):
    """Voxel-by-voxel confusion tallies in pure Python (the overlap oracle)."""
    tp = fp = fn = tn = 0
    for av, mv in zip(a_bits.ravel().tolist(), m_bits.ravel().tolist()):
        if av and mv:
            tp += 1
        elif av:
            fp += 1
        elif mv:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


# --- synthetic cohorts --------------------------------------------------------

METHODS = ("alpha", "beta", "gamma")


def build_cohort(
    root: Path,
    n_subjects: int = 4,
    dims=(16, 16, 16),
    methods=METHODS,
    structures=("left_hippocampus", "right_hippocampus"),
    field_strengths=None,
    seed: int = 7,
    spacing=(1.0, 1.0, 1.0),
    identity: bool = False,
) -> Path:
    """Write masks + a manifest.csv; returns the manifest path.

    Method "alpha" reproduces the manual mask exactly, "beta" is one
    dilation larger, "gamma" is shifted by one voxel, so metric orderings
    are known by construction.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = ["subject,method,structure,auto,manual,field_strength,label"]
    for si in range(n_subjects):
        subject = f"s{si:03d}"
        fs = ""
        if field_strengths is not None:
            fs = field_strengths[si % len(field_strengths)]
        for structure in structures:
            center = rng.integers(dims[0] // 3, 2 * dims[0] // 3, size=3)
            radius = int(rng.integers(max(2, dims[0] // 6), max(3, dims[0] // 4)))
            manual = sphere_bits(dims, center, radius)
            manual_name = f"{subject}_{structure}_manual.rawvol.gz"
            write_rawvol(root / manual_name, manual.astype(np.uint8), spacing, gzipped=True)
            for method in methods:
                if identity or method == "alpha":
                    auto = manual
                elif method == "beta":
                    # one or two dilation steps so metrics vary across subjects
                    auto = dilate6(manual)
                    if si % 2:
                        auto = dilate6(auto)
                else:
                    shift = (1, 0, 0) if si % 2 else (1, 1, 0)
                    auto = np.roll(manual, shift, axis=(0, 1, 2))
                auto_name = f"{subject}_{structure}_{method}.rawvol.gz"
                write_rawvol(root / auto_name, auto.astype(np.uint8), spacing, gzipped=True)
                lines.append(
                    f"{subject},{method},{structure},{auto_name},{manual_name},{fs},"
                )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
