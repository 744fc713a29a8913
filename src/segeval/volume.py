"""Loading and binarizing 3D label volumes.

Two on-disk formats are read, both optionally gzip-compressed:

* a minimal, read-only NIfTI-1 subset (single-file ``.nii`` / ``.nii.gz``,
  magic ``n+1``, 348-byte header, little- or big-endian detected from the
  ``sizeof_hdr`` field, datatypes uint8/int16/int32/float32/float64,
  ``scl_slope``/``scl_inter`` applied when the slope is nonzero);
* the repo's ``.rawvol`` fixture format, documented in the README: an ASCII
  header (``RAWVOL1`` magic, ``dims``, ``spacing``, ``datatype``, ``end``)
  followed by a flat little-endian payload in x-fastest order.

Orientation matrices are ignored: both masks of a comparison pair are
assumed co-registered on the same grid.

:func:`binarize_pair` is the case pipeline's entry point: it binarizes both
volumes of a pair and crops them to the bounding box of their union, so every
later step works on that box instead of the full grid.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFile,
    GridMismatch,
    NonPositiveSpacing,
    SpacingMismatch,
    UnsupportedDatatype,
    UnsupportedFormat,
)

SPACING_RTOL = 1e-4

_NIFTI_DTYPES = {2: np.uint8, 4: np.int16, 8: np.int32, 16: np.float32, 64: np.float64}
_RAWVOL_DTYPES = {
    "uint8": np.uint8,
    "int16": np.int16,
    "int32": np.int32,
    "float32": np.float32,
    "float64": np.float64,
}
_RAWVOL_MAGIC = b"RAWVOL1\n"


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """A dense 3D scalar grid with per-axis spacing in mm.

    ``data`` is indexed ``[x, y, z]``; scale factors from the file header
    are already applied.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray
    source_path: str = ""


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Membership flags on the grid of the volume it was derived from.

    ``bits`` covers either the whole grid or a box of it whose lowest corner
    sits at ``origin``; voxels outside the box are non-members. ``dims``
    is always the full grid. ``count`` is computed once, so ``bits`` must not
    change after construction; :func:`binarize` and :func:`binarize_pair`
    hand out read-only arrays.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    bits: np.ndarray
    origin: tuple[int, int, int] = (0, 0, 0)

    @cached_property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class BinarizeRule:
    """Rule mapping scalar voxel values to membership flags."""

    kind: str  # "equals" | "greater_than" | "nonzero"
    value: float | None = None

    @classmethod
    def equals(cls, value: float) -> "BinarizeRule":
        return cls("equals", float(value))

    @classmethod
    def greater_than(cls, threshold: float) -> "BinarizeRule":
        return cls("greater_than", float(threshold))

    @classmethod
    def nonzero(cls) -> "BinarizeRule":
        return cls("nonzero")

    def __str__(self) -> str:
        if self.kind == "nonzero":
            return "nonzero"
        return f"{self.kind}:{self.value:g}"


def _format_dims(dims: tuple[int, ...]) -> str:
    return "(" + ",".join(str(d) for d in dims) + ")"


def load_volume(path: str | Path) -> LabelVolume:
    """Load a label volume from ``.nii``, ``.nii.gz``, or ``.rawvol`` (+gz).

    The format is detected from content, never from the extension; gzip
    payloads are decompressed transparently.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as e:
            raise CorruptFile(f"{path}: bad gzip stream ({e})") from None
    if raw.startswith(_RAWVOL_MAGIC):
        dims, spacing, data = _parse_rawvol(raw, str(path))
    else:
        dims, spacing, data = _parse_nifti(raw, str(path))
    _check_spacing(spacing, str(path))
    # a NaN compares unequal to 0, so "nonzero" would count it as a member
    if data.dtype.kind == "f" and np.isnan(data).any():
        raise CorruptFile(f"{path}: volume holds NaN voxels")
    return LabelVolume(dims=dims, spacing=spacing, data=data, source_path=str(path))


def _check_spacing(spacing: tuple[float, float, float], path: str) -> None:
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise NonPositiveSpacing(f"{path}: spacing {spacing} must be positive")


def _parse_nifti(raw: bytes, path: str):
    if len(raw) < 348:
        raise UnsupportedFormat(f"{path}: too short for a NIfTI-1 header")
    le_size = struct.unpack_from("<i", raw, 0)[0]
    be_size = struct.unpack_from(">i", raw, 0)[0]
    if le_size == 348:
        order = "<"
    elif be_size == 348:
        order = ">"
    else:
        raise UnsupportedFormat(f"{path}: unrecognized magic (not NIfTI-1 or rawvol)")
    magic = raw[344:348]
    if magic == b"ni1\x00":
        raise UnsupportedFormat(
            f"{path}: NIfTI-1 header+data pairs (.hdr/.img) are not supported"
        )
    if magic != b"n+1\x00":
        raise UnsupportedFormat(f"{path}: bad NIfTI-1 magic {magic!r}")

    dim = struct.unpack_from(order + "8h", raw, 40)
    rank = dim[0]
    if rank < 1 or rank > 7:
        raise CorruptFile(f"{path}: NIfTI dim[0]={rank} out of range")
    sizes = [int(d) for d in dim[1 : rank + 1]]
    if any(s > 1 for s in sizes[3:]):
        raise UnsupportedFormat(
            f"{path}: volume has {rank} nontrivial dimensions; only 3D is supported"
        )
    while len(sizes) < 3:
        sizes.append(1)
    nx, ny, nz = sizes[:3]
    if nx < 1 or ny < 1 or nz < 1:
        raise CorruptFile(f"{path}: non-positive grid dims {(nx, ny, nz)}")

    datatype = struct.unpack_from(order + "h", raw, 70)[0]
    bitpix = struct.unpack_from(order + "h", raw, 72)[0]
    if datatype not in _NIFTI_DTYPES:
        raise UnsupportedDatatype(f"{path}: NIfTI datatype code {datatype}")
    dtype = np.dtype(_NIFTI_DTYPES[datatype]).newbyteorder(order)
    if bitpix and bitpix != dtype.itemsize * 8:
        raise CorruptFile(
            f"{path}: bitpix {bitpix} inconsistent with datatype code {datatype}"
        )

    pixdim = struct.unpack_from(order + "8f", raw, 76)
    spacing = (float(pixdim[1]), float(pixdim[2]), float(pixdim[3]))
    vox_offset = int(struct.unpack_from(order + "f", raw, 108)[0])
    if vox_offset < 348:
        vox_offset = 348
    scl_slope = float(struct.unpack_from(order + "f", raw, 112)[0])
    scl_inter = float(struct.unpack_from(order + "f", raw, 116)[0])
    if not (np.isfinite(scl_slope) and np.isfinite(scl_inter)):
        raise CorruptFile(
            f"{path}: non-finite scale factors scl_slope={scl_slope} scl_inter={scl_inter}"
        )

    nvox = nx * ny * nz
    need = vox_offset + nvox * dtype.itemsize
    if len(raw) < need:
        raise CorruptFile(
            f"{path}: payload has {len(raw) - vox_offset} bytes, "
            f"header promises {nvox * dtype.itemsize}"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=nvox, offset=vox_offset)
    data = flat.reshape((nx, ny, nz), order="F")
    data = np.asarray(data, dtype=data.dtype.newbyteorder("="))
    # slope of exactly 0 means "no scaling" per the NIfTI convention
    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        data = data.astype(np.float64) * scl_slope + scl_inter
    return (nx, ny, nz), spacing, data


def _parse_rawvol(raw: bytes, path: str):
    body = raw[len(_RAWVOL_MAGIC):]
    dims = spacing = dtype = None
    offset = 0
    while True:
        nl = body.find(b"\n", offset)
        if nl < 0:
            raise CorruptFile(f"{path}: rawvol header not terminated by 'end'")
        line = body[offset:nl].decode("ascii", errors="replace").strip()
        offset = nl + 1
        if line == "end":
            break
        try:
            key, rest = line.split(None, 1)
        except ValueError:
            raise CorruptFile(f"{path}: malformed rawvol header line {line!r}") from None
        if key == "dims":
            parts = rest.split()
            if len(parts) != 3 or not all(p.isdigit() for p in parts):
                raise CorruptFile(f"{path}: bad rawvol dims {rest!r}")
            dims = tuple(int(p) for p in parts)
        elif key == "spacing":
            try:
                sx, sy, sz = (float(p) for p in rest.split())
            except ValueError:
                raise CorruptFile(f"{path}: bad rawvol spacing {rest!r}") from None
            spacing = (sx, sy, sz)
        elif key == "datatype":
            if rest not in _RAWVOL_DTYPES:
                raise UnsupportedDatatype(f"{path}: rawvol datatype {rest!r}")
            dtype = np.dtype(_RAWVOL_DTYPES[rest]).newbyteorder("<")
        else:
            raise CorruptFile(f"{path}: unknown rawvol header key {key!r}")
    if dims is None or spacing is None or dtype is None:
        raise CorruptFile(f"{path}: rawvol header missing dims/spacing/datatype")
    if any(d < 1 for d in dims):
        raise CorruptFile(f"{path}: non-positive rawvol dims {dims}")
    nvox = dims[0] * dims[1] * dims[2]
    payload = body[offset:]
    if len(payload) < nvox * dtype.itemsize:
        raise CorruptFile(
            f"{path}: payload has {len(payload)} bytes, "
            f"header promises {nvox * dtype.itemsize}"
        )
    flat = np.frombuffer(payload, dtype=dtype, count=nvox)
    data = flat.reshape(dims, order="F")
    data = np.asarray(data, dtype=data.dtype.newbyteorder("="))
    return dims, spacing, data


def _apply_rule(data: np.ndarray, rule: BinarizeRule) -> np.ndarray:
    if rule.kind == "equals":
        return data == rule.value
    if rule.kind == "greater_than":
        return data > rule.value
    if rule.kind == "nonzero":
        return data != 0
    raise ValueError(f"unknown binarization rule kind {rule.kind!r}")


def binarize(vol: LabelVolume, rule: BinarizeRule) -> BinaryMask:
    """Apply a membership rule to the (scale-adjusted) voxel values.

    An empty result is legal; downstream metrics decide how to treat it.
    """
    bits = _apply_rule(vol.data, rule)
    bits.flags.writeable = False
    return BinaryMask(dims=vol.dims, spacing=vol.spacing, bits=bits)


def binarize_pair(
    vol_a: LabelVolume, vol_m: LabelVolume, rule: BinarizeRule
) -> tuple[BinaryMask, BinaryMask]:
    """Binarize a co-registered pair, both cropped to the box around their union.

    The crop is exact without padding: no member of either mask lies outside
    the box, and the grid edge already counts as "outside" for surfaces.
    The masks keep the full ``dims``, so TN still counts the whole grid.
    Both-empty pairs yield an empty box.
    """
    check_compatible(vol_a, vol_m)
    bits_a = _apply_rule(vol_a.data, rule)
    bits_m = _apply_rule(vol_m.data, rule)
    union = bits_a | bits_m
    box = []
    for axis in range(3):
        others = tuple(ax for ax in range(3) if ax != axis)
        hits = np.flatnonzero(union.any(axis=others))
        box.append(slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0))
    box = tuple(box)
    origin = tuple(sl.start for sl in box)
    masks = []
    for vol, bits in ((vol_a, bits_a), (vol_m, bits_m)):
        # a copy, so the full-grid array is freed once this returns
        crop = bits[box].copy()
        crop.flags.writeable = False
        masks.append(BinaryMask(vol.dims, vol.spacing, crop, origin))
    return masks[0], masks[1]


def check_compatible(
    a: BinaryMask | LabelVolume, m: BinaryMask | LabelVolume
) -> None:
    """Verify the two masks (or volumes) live on the same grid.

    Dims must match exactly; per-axis spacing must agree within a relative
    tolerance of ``SPACING_RTOL``. Both failures are fatal because voxelwise
    tallies and physical-space distances would otherwise be ill-defined.
    """
    if a.dims != m.dims:
        raise GridMismatch(f"{_format_dims(a.dims)} vs {_format_dims(m.dims)}")
    axes = "xyz"
    for i, (sa, sm) in enumerate(zip(a.spacing, m.spacing)):
        if abs(sa - sm) / max(abs(sa), abs(sm)) > SPACING_RTOL:
            raise SpacingMismatch(
                f"spacing {a.spacing} vs {m.spacing} "
                f"(relative error > {SPACING_RTOL:g} on axis {axes[i]})"
            )
