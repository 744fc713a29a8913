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

Both payloads are x-fastest (Fortran order), so every z-slab is
``nx·ny·itemsize`` contiguous bytes. One chunk decoder reads every file. It
parses the header from a small decoded prefix, then hands out the payload in
chunks of ``_CHUNK_SLABS`` whole z-slabs, as stored. Plain files are sliced
in place. A gzip stream is inflated only as far as each chunk needs, so
decoding is bounded by the size the header declares. The rest of the stream
is then inflated in bounded pieces and dropped, which still checks its CRC
trailer. Multi-member gzip files are read member after member.

The decoder has two consumers. :func:`load_volume` scales every chunk and
assembles the full grid, which :func:`binarize` turns into a full-grid
mask. The case pipeline, :func:`load_mask_pairs`, keeps only the box of
each chunk's members and assembles each file's mask on the bounding box
of its own members, so no full-grid array is ever built. It decodes one
file after the other on the calling thread; pairs that share a file share
its mask. :func:`load_mask_pair` is its single pair.

A chunk's members are found inside the box of its voxels whose stored bits
are not all zero, taken with ``max`` reductions over an unsigned view of
the same item size; only that box is scaled, checked for NaN and binarized.
This is exact. A voxel whose bits are all zero holds the file's zero value,
0 or ``scl_inter`` once scaled, which is never NaN. So when the rule maps
the zero value to a non-member, nothing outside the box is a member or a
NaN, and a chunk without a nonzero bit is skipped. The zero value is run
once per file through the very scaling and rule the chunks get; when it is
a member (``equals:0``, say), the box is the whole chunk.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from collections.abc import Iterator, Sequence
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
_RULE_KINDS = ("equals", "greater_than", "nonzero")

_CHUNK_SLABS = 4  # z-slabs per chunk; time changes in the bench flow, not a one-process loop
_HEADER_BYTES = 4096  # decoded prefix that must hold a rawvol header
_DRAIN_BYTES = 1 << 20  # largest piece inflated to skip or drop bytes
_INPUT_BYTES = 1 << 16  # largest piece of compressed input handed to zlib at once
_NONZERO_BYTE = re.compile(rb"[^\x00]")  # the next gzip member, past zero padding


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """A dense 3D scalar grid with per-axis spacing in mm.

    ``data`` is indexed ``[x, y, z]``; scale factors from the file header
    are already applied.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Membership flags on the grid of the volume it was derived from.

    ``bits`` covers either the whole grid (:func:`binarize`) or a box of it
    whose lowest corner sits at ``origin``: the bounding box of the mask's
    own members (:func:`load_mask_pair`, :func:`load_mask_pairs`), empty at
    ``(0, 0, 0)`` when it has none. Voxels outside the box are non-members.
    ``dims`` is always the full grid. ``count`` is computed once, so
    ``bits`` must not change after construction; all three functions hand
    out read-only arrays.
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
    """Rule mapping scalar voxel values to membership flags.

    ``kind`` is one of ``_RULE_KINDS``. A ``nonzero`` rule has no value; the
    others need a float. A NaN value is rejected: no voxel equals it or lies
    above it. Infinite values are legal, as float volumes may hold infinite
    voxels.
    """

    kind: str  # "equals" | "greater_than" | "nonzero"
    value: float | None = None

    def __post_init__(self) -> None:
        """Reject an unknown kind or a value it cannot take, before any file is decoded."""
        if self.kind not in _RULE_KINDS:
            raise ValueError(
                f"BinarizeRule.kind {self.kind!r} is not one of "
                + ", ".join(repr(k) for k in _RULE_KINDS)
            )
        if self.kind == "nonzero":
            if self.value is not None:
                raise ValueError(f"BinarizeRule.value {self.value!r} must be None for nonzero")
        elif not isinstance(self.value, float) or math.isnan(self.value):
            raise ValueError(
                f"BinarizeRule.value {self.value!r} must be a non-NaN float for {self.kind}"
            )

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


class _Decoded:
    """The decoded bytes of one file, read front to back.

    Plain files are sliced in place. A gzip stream is inflated with
    ``max_length``, so no more is decoded than the reader asks for; members
    follow one another, zero padding between them skipped, as in
    :func:`gzip.decompress`. The inflater takes the compressed bytes in
    pieces of at most ``_INPUT_BYTES``: zlib copies the unconsumed rest of
    its input on every call, so handing it the whole file would copy the
    file once per chunk.
    """

    def __init__(self, raw: bytes, path: str) -> None:
        self.path = path
        self._held = memoryview(raw)  # decoded, not yet read
        self._inflater = None
        if raw[:2] == b"\x1f\x8b":
            self._raw = self._held
            self._held = memoryview(b"")
            # compressed bytes handed over and not yet consumed: always
            # self._raw[self._fed - len(self._input):self._fed]
            self._input = b""
            self._fed = 0
            self._inflater = zlib.decompressobj(wbits=31)

    def _inflate(self, n: int) -> bytes:
        """Up to ``n`` more decoded bytes; empty only at the end of the stream."""
        while True:
            inflater = self._inflater
            if inflater.eof:
                # the member's unused input is read again, past any zero padding
                start = self._fed - len(inflater.unused_data)
                member = _NONZERO_BYTE.search(self._raw, start)
                if member is None:
                    return b""
                inflater = self._inflater = zlib.decompressobj(wbits=31)
                self._input, self._fed = b"", member.start()
            if not self._input:
                self._input = self._raw[self._fed : self._fed + _INPUT_BYTES]
                self._fed += len(self._input)
            try:
                out = inflater.decompress(self._input, n)
            except zlib.error as e:
                raise CorruptFile(f"{self.path}: bad gzip stream ({e})") from None
            self._input = inflater.unconsumed_tail
            if out:
                return out
            if self._fed == len(self._raw) and not self._input and not inflater.eof:
                raise CorruptFile(
                    f"{self.path}: bad gzip stream (Compressed file ended "
                    "before the end-of-stream marker was reached)"
                )

    def read(self, n: int) -> bytes | memoryview:
        """The next ``n`` decoded bytes; fewer only where the stream ends."""
        out = self._held[:n]
        self._held = self._held[len(out):]
        if len(out) == n or self._inflater is None:
            return out
        parts = [bytes(out)] if len(out) else []
        need = n - len(out)
        while need:
            piece = self._inflate(need)
            if not piece:
                break
            parts.append(piece)
            need -= len(piece)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def peek(self, n: int) -> bytes:
        """The next ``n`` decoded bytes (fewer where the stream ends), left unread."""
        if self._inflater is not None and len(self._held) < n:
            self._held = memoryview(self.read(n))
        return bytes(self._held[:n])

    def skip(self, n: int) -> None:
        while n > 0:
            got = len(self.read(min(n, _DRAIN_BYTES)))
            if not got:
                return
            n -= got

    def drain(self) -> None:
        """Inflate and drop the rest of the stream, which checks its CRC trailers."""
        if self._inflater is not None:
            while self._inflate(_DRAIN_BYTES):
                pass


class _VolumeFile:
    """A volume file whose header is parsed and whose payload is not yet read."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        stream = _Decoded(Path(path).read_bytes(), self.path)
        # a NIfTI prefix ends at the header, so the first chunk needs no join
        head = stream.peek(348)
        parse = _parse_nifti
        if head.startswith(_RAWVOL_MAGIC):
            head = stream.peek(_HEADER_BYTES)
            parse = _parse_rawvol
        self.dims, self.spacing, self._dtype, self._scale, offset = parse(head, self.path)
        stream.skip(offset)
        self._stream = stream
        self._has_nan = False

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the arrays :meth:`values` returns, in native byte order."""
        return np.dtype(np.float64) if self._scale else self._dtype.newbyteorder("=")

    def values(self, stored: np.ndarray) -> np.ndarray:
        """``stored`` with the scale factors applied; its NaN voxels are noted.

        :meth:`chunks` raises for the noted NaN voxels once the file is
        read, so every value a consumer takes must pass through here.
        """
        values = stored
        if self._scale:
            values = stored.astype(np.float64) * self._scale[0] + self._scale[1]
        # a NaN compares unequal to 0, so "nonzero" would count it as a member
        if values.dtype.kind == "f" and not self._has_nan:
            self._has_nan = bool(np.isnan(values).any())
        return values

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(z0, stored)`` for each chunk of ``_CHUNK_SLABS`` z-slabs.

        ``stored`` is the ``(nx, ny, k)`` block starting at slab ``z0``, in
        the stored dtype and byte order. After the last chunk the rest of
        the stream is drained, then the spacing and the NaN voxels that
        :meth:`values` noted are checked, in the order a whole decoded file
        was checked in.
        """
        nx, ny, nz = self.dims
        slab = nx * ny * self._dtype.itemsize
        for z0 in range(0, nz, _CHUNK_SLABS):
            k = min(_CHUNK_SLABS, nz - z0)
            buf = self._stream.read(k * slab)
            if len(buf) < k * slab:
                raise CorruptFile(
                    f"{self.path}: payload has {z0 * slab + len(buf)} bytes, "
                    f"header promises {nz * slab}"
                )
            yield z0, np.frombuffer(buf, dtype=self._dtype).reshape((nx, ny, k), order="F")
            del buf  # so the consumer's drop frees the chunk before the next is inflated
        self._stream.drain()
        _check_spacing(self.spacing, self.path)
        if self._has_nan:
            raise CorruptFile(f"{self.path}: volume holds NaN voxels")


def load_volume(path: str | Path) -> LabelVolume:
    """Load a label volume from ``.nii``, ``.nii.gz``, or ``.rawvol`` (+gz).

    The format is detected from content, never from the extension; gzip
    payloads are decompressed transparently, no further than the header
    declares (the rest of the stream is only checked).
    """
    src = _VolumeFile(path)
    # the whole file is validated before the declared grid is allocated
    chunks = [(z0, src.values(stored)) for z0, stored in src.chunks()]
    data = np.empty(src.dims, dtype=src.dtype, order="F")
    for z0, values in chunks:
        data[:, :, z0 : z0 + values.shape[2]] = values
    return LabelVolume(dims=src.dims, spacing=src.spacing, data=data)


def _check_spacing(spacing: tuple[float, float, float], path: str) -> None:
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise NonPositiveSpacing(f"{path}: spacing {spacing} must be positive")


def _parse_nifti(head: bytes, path: str):
    """Grid, spacing, stored dtype, scale factors and payload offset of a NIfTI-1 header."""
    if len(head) < 348:
        raise UnsupportedFormat(f"{path}: too short for a NIfTI-1 header")
    le_size = struct.unpack_from("<i", head, 0)[0]
    be_size = struct.unpack_from(">i", head, 0)[0]
    if le_size == 348:
        order = "<"
    elif be_size == 348:
        order = ">"
    else:
        raise UnsupportedFormat(f"{path}: unrecognized magic (not NIfTI-1 or rawvol)")
    magic = head[344:348]
    if magic == b"ni1\x00":
        raise UnsupportedFormat(
            f"{path}: NIfTI-1 header+data pairs (.hdr/.img) are not supported"
        )
    if magic != b"n+1\x00":
        raise UnsupportedFormat(f"{path}: bad NIfTI-1 magic {magic!r}")

    dim = struct.unpack_from(order + "8h", head, 40)
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

    datatype = struct.unpack_from(order + "h", head, 70)[0]
    bitpix = struct.unpack_from(order + "h", head, 72)[0]
    if datatype not in _NIFTI_DTYPES:
        raise UnsupportedDatatype(f"{path}: NIfTI datatype code {datatype}")
    dtype = np.dtype(_NIFTI_DTYPES[datatype]).newbyteorder(order)
    if bitpix and bitpix != dtype.itemsize * 8:
        raise CorruptFile(
            f"{path}: bitpix {bitpix} inconsistent with datatype code {datatype}"
        )

    pixdim = struct.unpack_from(order + "8f", head, 76)
    spacing = (float(pixdim[1]), float(pixdim[2]), float(pixdim[3]))
    vox_offset = struct.unpack_from(order + "f", head, 108)[0]
    if not np.isfinite(vox_offset):
        raise CorruptFile(f"{path}: non-finite vox_offset {vox_offset}")
    vox_offset = max(int(vox_offset), 348)
    scl_slope = float(struct.unpack_from(order + "f", head, 112)[0])
    scl_inter = float(struct.unpack_from(order + "f", head, 116)[0])
    if not (np.isfinite(scl_slope) and np.isfinite(scl_inter)):
        raise CorruptFile(
            f"{path}: non-finite scale factors scl_slope={scl_slope} scl_inter={scl_inter}"
        )
    # slope of exactly 0 means "no scaling" per the NIfTI convention
    scale = None
    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        scale = (scl_slope, scl_inter)
    return (nx, ny, nz), spacing, dtype, scale, vox_offset


def _parse_rawvol(head: bytes, path: str):
    """Grid, spacing, stored dtype, no scale factors and payload offset of a rawvol header."""
    dims = spacing = dtype = None
    offset = len(_RAWVOL_MAGIC)
    while True:
        nl = head.find(b"\n", offset)
        if nl < 0:
            raise CorruptFile(f"{path}: rawvol header not terminated by 'end'")
        line = head[offset:nl].decode("ascii", errors="replace").strip()
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
    return dims, spacing, dtype, None, offset


# the float64 loop of a comparison ufunc: the data is cast block by block,
# never whole, and no dtype or NumPy version changes the comparison
_FLOAT64_COMPARE = (np.float64, np.float64, np.bool_)


def _apply_rule(data: np.ndarray, rule: BinarizeRule) -> np.ndarray:
    """Membership flags of ``data``; value rules compare in float64 for every dtype."""
    if rule.kind == "equals":
        return np.equal(data, rule.value, signature=_FLOAT64_COMPARE)
    if rule.kind == "greater_than":
        return np.greater(data, rule.value, signature=_FLOAT64_COMPARE)
    return data != 0  # nonzero


def binarize(vol: LabelVolume, rule: BinarizeRule) -> BinaryMask:
    """Apply a membership rule to the (scale-adjusted) voxel values.

    An empty result is legal; downstream metrics decide how to treat it.
    """
    bits = _apply_rule(vol.data, rule)
    bits.flags.writeable = False
    return BinaryMask(dims=vol.dims, spacing=vol.spacing, bits=bits)


def _nonzero_box(stored: np.ndarray) -> tuple[slice, slice, slice] | None:
    """The box of the voxels whose stored bits are not all zero; None if none are.

    The reductions run on an unsigned view of the same item size: first per
    z-slab, which skips an empty chunk after one pass, then per x and per y
    over the footprint of the occupied slabs.
    """
    bits = stored.view(f"u{stored.itemsize}")
    zs = np.flatnonzero(bits.max(axis=(0, 1), initial=0))
    if not zs.size:
        return None
    footprint = bits[:, :, zs[0] : zs[-1] + 1].max(axis=2)
    xs = np.flatnonzero(footprint.max(axis=1))
    ys = np.flatnonzero(footprint[xs[0] : xs[-1] + 1].max(axis=0))
    return tuple(slice(int(h[0]), int(h[-1]) + 1) for h in (xs, ys, zs))


def _members(src: _VolumeFile, rule: BinarizeRule) -> BinaryMask:
    """The mask of the file ``src`` on the bounding box of its members, read chunk by chunk.

    Per chunk, only the box of voxels with a nonzero stored bit is passed
    through :meth:`_VolumeFile.values` and the rule, unless the zero value
    is itself a member; then the box is the whole chunk. The members' box
    within it is kept, and the kept boxes are pasted into the box around
    them all. A file without members gets an empty box at the grid corner.
    """
    pieces = []
    zero_member = None
    for z0, stored in src.chunks():
        if zero_member is None:  # every chunk of a file has one dtype
            zero = src.values(np.zeros((1, 1, 1), stored.dtype))
            zero_member = bool(_apply_rule(zero, rule).any())
        piece = _chunk_members(src, z0, stored, rule, zero_member)
        del stored  # freed before the next chunk is inflated
        if piece is not None:
            pieces.append(piece)
    origin = end = (0, 0, 0)
    if pieces:
        origin = tuple(min(c[i] for c, _ in pieces) for i in range(3))
        end = tuple(max(c[i] + bits.shape[i] for c, bits in pieces) for i in range(3))
    box = np.zeros(tuple(e - o for e, o in zip(end, origin)), dtype=bool)
    for corner, bits in pieces:
        box[tuple(slice(c - o, c - o + n) for c, o, n in zip(corner, origin, bits.shape))] = bits
    box.flags.writeable = False
    return BinaryMask(src.dims, src.spacing, box, origin)


def _chunk_members(
    src: _VolumeFile, z0: int, stored: np.ndarray, rule: BinarizeRule, zero_member: bool
) -> tuple[tuple[int, int, int], np.ndarray] | None:
    """The grid corner and a copy of the box of the members of the chunk at
    slab ``z0``; None if it has none."""
    whole = tuple(slice(0, n) for n in stored.shape)
    box = whole if zero_member else _nonzero_box(stored)
    if box is None:
        return None
    bits = _apply_rule(src.values(stored[box]), rule)
    if not bits.any():
        return None
    tight = []
    for axis in range(3):
        others = tuple(ax for ax in range(3) if ax != axis)
        hits = np.flatnonzero(bits.any(axis=others))
        tight.append(slice(int(hits[0]), int(hits[-1]) + 1))
    x, y, z = (b.start + t.start for b, t in zip(box, tight))
    # a copy, so the box's flags are freed
    return (x, y, z0 + z), bits[tuple(tight)].copy()


def _decode(path: str, rule: BinarizeRule) -> BinaryMask | Exception:
    """The mask of the file at ``path`` under ``rule``, or the error its decode raised."""
    try:
        return _members(_VolumeFile(path), rule)
    except Exception as e:  # noqa: BLE001 - the file's outcome, raised by each pair reading it
        return e


def load_mask_pair(
    auto_path: str | Path, manual_path: str | Path, rule: BinarizeRule
) -> tuple[BinaryMask, BinaryMask]:
    """Read and binarize a co-registered pair, each mask on the box around its own members.

    The single pair of :func:`load_mask_pairs`: its masks, or its error
    raised, with no traceback from the decode or the grid check. Pasted at
    its ``origin``, each mask equals ``binarize(load_volume(path), rule).bits``.
    """
    (item,) = load_mask_pairs([(auto_path, manual_path, rule)])
    if isinstance(item, Exception):
        raise item
    return item


def load_mask_pairs(
    pairs: Sequence[tuple[str | Path, str | Path, BinarizeRule]],
) -> Iterator[tuple[BinaryMask, BinaryMask] | Exception]:
    """The masks of each ``(auto_path, manual_path, rule)``, or the pair's error, in order.

    Each file is decoded chunk by chunk on the calling thread and validated
    completely; only the boxes of each chunk's members are kept, so no full
    grid is ever held. Each mask covers the bounding box of its own file's
    members. A pair's error is the automatic file's first, then the manual
    file's, then the grid check's.
    Each (path, rule) is decoded once into one read-only mask, which every
    pair reading it gets; the mask, or the file's error, is kept only until
    the last pair that reads it. Errors carry no traceback, nor do the
    exceptions chained to them: their frames would keep a pair's masks and
    a failed decoder's bytes alive for as long as the error is.
    """
    keys = [((str(a), rule), (str(m), rule)) for a, m, rule in pairs]
    last = {key: i for i, pair in enumerate(keys) for key in pair}
    held: dict[tuple[str, BinarizeRule], BinaryMask | Exception] = {}
    for i, pair in enumerate(keys):
        for key in pair:
            if key not in held:
                held[key] = _decode(*key)
        # handed out by a call, so this suspended frame holds no mask
        yield _take_pair(held, pair, [key for key in pair if last[key] == i])


def _take_pair(held: dict, pair: tuple, done: list) -> tuple[BinaryMask, BinaryMask] | Exception:
    """The masks ``held`` under the two keys of ``pair``, or the pair's error;
    the keys in ``done`` are then dropped from ``held``."""
    try:
        for key in pair:
            if isinstance(held[key], Exception):
                raise held[key]
        item = held[pair[0]], held[pair[1]]
        check_compatible(*item)
    except Exception as e:  # noqa: BLE001 - the pair's outcome
        item = _bare(e)  # a kept file error too: it is the object raised
    for key in done:
        held.pop(key, None)
    return item


def _bare(e: Exception) -> Exception:
    """``e``, with the tracebacks of it and of its chained exceptions dropped."""
    link: BaseException | None = e
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return e


def check_compatible(a: BinaryMask | LabelVolume, m: BinaryMask | LabelVolume) -> None:
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
