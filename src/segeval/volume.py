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
is then inflated in bounded pieces and dropped, which still checks its
trailers. Multi-member gzip files are read member after member. Each
member's deflate data is inflated raw, and its RFC 1952 header and its
CRC32 and length trailer are checked in this module, as zlib's gzip wrapper
checks them. The CRC of each inflated piece that holds a nonzero byte is
computed by zlib; that of an all-zero piece is combined from its length, so
the long zero runs of a mask file are never hashed. The same zero test tells
each chunk's reader whether the chunk held a nonzero byte.

The decoder has two consumers. :func:`load_volume` scales every chunk and
assembles the full grid, which :func:`binarize` turns into a full-grid
mask. The case pipeline, :func:`load_mask_pairs`, keeps only the box of
each chunk's members and assembles each file's mask on the bounding box
of its own members, so no full-grid array is ever built. It decodes one
file after the other on the calling thread; pairs that share a file share
its mask. A single case (:func:`segeval.cohort.compute_record`) reads its
pair as the one item of :func:`load_mask_pairs`.

A chunk's members are found inside the box of its voxels whose stored bits
are not all zero, taken with ``max`` reductions over an unsigned view of
the same item size; only that box is scaled, checked for NaN and binarized.
This is exact. A voxel whose bits are all zero holds the file's zero value,
0 or ``scl_inter`` once scaled, which is never NaN. So when the rule maps
the zero value to a non-member, nothing outside the box is a member or a
NaN, and a chunk whose inflated bytes the CRC's zero test found all zero is
dropped with no view and no reduction. The zero value is run once per
file, before its first chunk, through the very scaling and rule the chunks
get; when it is a member (``equals:0``, say), the box is the whole chunk.
The members' box within it is taken by the same reductions, and the flags
are copied down to it only when it is strictly smaller.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
_ZERO_BYTE = re.compile(rb"\x00")  # the end of a gzip header's name or comment
_CUT = "Compressed file ended before the end-of-stream marker was reached"
_BAD_MEMBER = "Error -3 while decompressing data: {}"  # zlib.error's text, as zlib reports it
_CRC_POLY = 0xEDB88320  # CRC-32 (RFC 1952), bit-reflected


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
    own members (:func:`load_mask_pairs`), empty at ``(0, 0, 0)`` when it
    has none. Voxels outside the box are non-members. ``dims`` is always the
    full grid. ``count`` is computed once, so ``bits`` must not change after
    construction; both functions hand out read-only arrays.
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


def _crc32(data: bytes, crc: int) -> tuple[int, bool]:
    """``zlib.crc32(data, crc)``, and whether ``data`` holds a nonzero byte.

    For an all-zero ``data`` the CRC is combined from its length: appending
    ``n`` zero bytes multiplies the unconditioned CRC register by x^(8n)
    modulo the CRC polynomial, as zlib's ``crc32_combine`` does, here by
    table lookup. The zero test reads ``data`` in place and allocates no
    copy of it.
    """
    if np.frombuffer(data, np.uint8).max(initial=0):
        return zlib.crc32(data, crc), True
    t0, t1, t2, t3 = _zeros_tables(len(data))
    b = crc ^ 0xFFFFFFFF
    return t0[b & 255] ^ t1[b >> 8 & 255] ^ t2[b >> 16 & 255] ^ t3[b >> 24] ^ 0xFFFFFFFF, False


def _multmodp(a: int, b: int) -> int:
    """a·b modulo the CRC polynomial, both bit-reflected (x^0 is ``1 << 31``)."""
    m, p = 1 << 31, 0
    while a:
        if a & m:
            p ^= b
            a ^= m
        m >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return p


def _zeros_shift(n: int) -> int:
    """x^(8n) modulo the CRC polynomial: the shift of ``n`` zero bytes."""
    p, square = 1 << 31, 1 << 23  # x^0, x^8
    while n:
        if n & 1:
            p = _multmodp(square, p)
        n >>= 1
        square = _multmodp(square, square)
    return p


@lru_cache(maxsize=64)  # a stream's pieces come in a few lengths
def _zeros_tables(n: int) -> tuple[array, array, array, array]:
    """The shift of ``n`` zero bytes as four 256-entry tables, one per register byte.

    The product by x^(8n) is linear over GF(2), so a register's product is
    the XOR of its bytes' products: entry ``v`` of table ``j`` is that of
    ``v << 8j``. Four lookups then take the place of :func:`_multmodp`'s
    32 steps.
    """
    image, images = _zeros_shift(n), []
    for _ in range(32):  # the products of x^0 .. x^31
        images.append(image)
        image = (image >> 1) ^ _CRC_POLY if image & 1 else image >> 1
    tables = []
    for j in range(4):
        table = [0]
        for i in range(8):  # bit i of byte j is x^(31 - 8j - i)
            image = images[31 - 8 * j - i]
            table += [t ^ image for t in table]
        tables.append(array("I", table))
    return tuple(tables)


class _Decoded:
    """The decoded bytes of one file, read front to back.

    Plain files are sliced in place. A gzip stream is inflated with
    ``max_length``, so no more is decoded than the reader asks for; members
    follow one another, zero padding between them skipped, as in
    :func:`gzip.decompress`. The inflater takes the compressed bytes in
    pieces of at most ``_INPUT_BYTES``: zlib copies the unconsumed rest of
    its input on every call, so handing it the whole file would copy the
    file once per chunk.

    Each member's deflate data is inflated raw, and its RFC 1952 header
    and trailer are checked here, as zlib's gzip wrapper checks them. The
    wrapper would hash every decoded byte; here the CRC of each decoded
    piece goes through :func:`_crc32`, which combines an all-zero piece's
    CRC from its length. Its zero test also sets :attr:`nonzero`, so a
    reader learns which of its reads held only zero bytes.
    """

    def __init__(self, raw: bytes, path: str) -> None:
        self.path = path
        self._held = memoryview(raw)  # decoded, not yet read
        self._inflater = None
        self.nonzero = False  # whether the last read's bytes may hold a nonzero byte
        if raw[:2] == b"\x1f\x8b":
            self._raw = self._held
            self._held = memoryview(b"")
            self._start_member(0)

    def _bad(self, reason: str) -> CorruptFile:
        return CorruptFile(f"{self.path}: bad gzip stream ({reason})")

    def _start_member(self, start: int) -> None:
        """Check the header of the member at ``start`` and set up to inflate its data."""
        raw, at = self._raw, start + 10
        # each field is checked once zlib's gzip wrapper would have it whole
        fixed = raw[start:at]  # magic, CM, FLG, MTIME, XFL, OS
        if len(fixed) >= 2 and fixed[:2] != b"\x1f\x8b":
            raise self._bad(_BAD_MEMBER.format("incorrect header check"))
        if len(fixed) >= 4 and fixed[2] != 8:
            raise self._bad(_BAD_MEMBER.format("unknown compression method"))
        if len(fixed) >= 4 and fixed[3] & 0xE0:
            raise self._bad(_BAD_MEMBER.format("unknown header flags set"))
        if len(fixed) < 10:
            raise self._bad(_CUT)
        flags = fixed[3]
        if flags & 4:  # FEXTRA: a 2-byte length, then that many bytes
            at += 2 + int.from_bytes(raw[at : at + 2], "little")
        for flag in (8, 16):  # FNAME, FCOMMENT: zero-terminated
            if flags & flag:
                zero = _ZERO_BYTE.search(raw, at)
                at = zero.end() if zero else len(raw) + 1
        if flags & 2:  # FHCRC: the low 16 bits of the header's CRC32
            if at + 2 <= len(raw) and (
                zlib.crc32(raw[start:at]) & 0xFFFF != int.from_bytes(raw[at : at + 2], "little")
            ):
                raise self._bad(_BAD_MEMBER.format("header crc mismatch"))
            at += 2
        if at > len(raw):
            raise self._bad(_CUT)
        self._inflater = zlib.decompressobj(wbits=-15)
        # compressed bytes handed over and not yet consumed: always
        # self._raw[self._fed - len(self._input):self._fed]
        self._input, self._fed = b"", at
        self._crc = self._size = 0

    def _check_trailer(self, end: int) -> None:
        """Check the CRC32 and ISIZE trailer at ``end`` against the member's output."""
        trailer = self._raw[end : end + 8]
        if len(trailer) < 8:
            raise self._bad(_CUT)
        crc, size = struct.unpack("<II", trailer)
        if crc != self._crc:
            raise self._bad(_BAD_MEMBER.format("incorrect data check"))
        if size != self._size & 0xFFFFFFFF:
            raise self._bad(_BAD_MEMBER.format("incorrect length check"))

    def _inflate(self, n: int) -> bytes:
        """Up to ``n`` more decoded bytes; empty only at the end of the stream."""
        while True:
            inflater = self._inflater
            if inflater.eof:
                # the trailer and the next member are read from the unused input
                end = self._fed - len(inflater.unused_data)
                self._check_trailer(end)
                member = _NONZERO_BYTE.search(self._raw, end + 8)
                if member is None:
                    return b""
                self._start_member(member.start())
                inflater = self._inflater
            if not self._input:
                self._input = self._raw[self._fed : self._fed + _INPUT_BYTES]
                self._fed += len(self._input)
            try:
                out = inflater.decompress(self._input, n)
            except zlib.error as e:
                raise self._bad(str(e)) from None
            self._input = inflater.unconsumed_tail
            if out:
                self._crc, nonzero = _crc32(out, self._crc)
                self.nonzero = self.nonzero or nonzero
                self._size += len(out)
                return out
            if self._fed == len(self._raw) and not self._input and not inflater.eof:
                raise self._bad(_CUT)

    def read(self, n: int) -> bytes | memoryview:
        """The next ``n`` decoded bytes; fewer only where the stream ends.

        :attr:`nonzero` is then False only if each of them was inflated by
        this read and found zero by :func:`_crc32`'s test; bytes held from
        a plain file or a peek count as nonzero.
        """
        out = self._held[:n]
        self._held = self._held[len(out):]
        self.nonzero = len(out) > 0
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

    def stored(self, buf: bytes | memoryview) -> np.ndarray:
        """A chunk's bytes as its ``(nx, ny, k)`` block, in the stored dtype and byte order."""
        nx, ny, _ = self.dims
        return np.frombuffer(buf, dtype=self._dtype).reshape((nx, ny, -1), order="F")

    def chunks(self) -> Iterator[tuple[int, bytes | memoryview, bool]]:
        """Yield ``(z0, buf, nonzero)`` for each chunk of ``_CHUNK_SLABS`` z-slabs.

        ``buf`` holds the stored bytes of the slabs from ``z0`` on;
        :meth:`stored` views them as a block. ``nonzero`` is False only
        when the inflater's CRC test saw every one of those bytes zero.
        After the last chunk the rest of the stream is drained, then the
        spacing and the NaN voxels that :meth:`values` noted are checked,
        in the order a whole decoded file was checked in.
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
            yield z0, buf, self._stream.nonzero
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
    chunks = [(z0, src.values(src.stored(buf))) for z0, buf, _ in src.chunks()]
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


def _nonzero_box(a: np.ndarray) -> tuple[slice, slice, slice] | None:
    """The box of the items of ``a`` whose bits are not all zero; None if none are.

    It finds both boxes of a chunk that holds data: that of its nonzero
    stored voxels and that of the members among them (a bool array views as
    ``u1``). The reductions run on an unsigned view of the same item size:
    the footprint (``max`` over z) in one pass over ``a``, then x and y on
    the footprint, then z on the box alone.
    """
    bits = a.view(f"u{a.itemsize}")
    footprint = bits.max(axis=2)
    xs = np.flatnonzero(footprint.max(axis=1))
    if not xs.size:
        return None
    ys = np.flatnonzero(footprint[xs[0] : xs[-1] + 1].max(axis=0))
    x, y = (slice(int(h[0]), int(h[-1]) + 1) for h in (xs, ys))
    zs = np.flatnonzero(bits[x, y].max(axis=(0, 1)))
    return x, y, slice(int(zs[0]), int(zs[-1]) + 1)


def _members(src: _VolumeFile, rule: BinarizeRule) -> BinaryMask:
    """The mask of the file ``src`` on the bounding box of its members, read chunk by chunk.

    The zero value goes through :meth:`_VolumeFile.values` and the rule
    once, before the first chunk. Unless it is itself a member, a chunk
    whose bytes the inflater found all zero is dropped unviewed, and of any
    other chunk only the :func:`_nonzero_box` of its stored voxels goes
    through them; when it is a member, the box is the whole chunk. The
    :func:`_nonzero_box` of the resulting flags is kept: the flags as they
    are when it spans them, else a copy of it. The kept boxes are pasted
    into the box around them all. A file without members gets an empty box
    at the grid corner.
    """
    zero = src.values(np.zeros((1, 1, 1), src._dtype))
    whole = (slice(0, None),) * 3 if _apply_rule(zero, rule).any() else None
    pieces = []
    for z0, buf, nonzero in src.chunks():
        if nonzero or whole:  # zero bytes hold the zero value alone, a non-member
            stored = src.stored(buf)
            box = whole or _nonzero_box(stored)
            if box is not None:
                bits = _apply_rule(src.values(stored[box]), rule)
                tight = _nonzero_box(bits)
                if tight is not None:
                    x, y, z = (b.start + t.start for b, t in zip(box, tight))
                    if bits[tight].shape != bits.shape:  # a copy, so the larger flags are freed
                        bits = bits[tight].copy()
                    pieces.append(((x, y, z0 + z), bits))
                del bits
            del stored
        del buf  # freed before the next chunk is inflated
    origin = end = (0, 0, 0)
    if pieces:
        origin = tuple(min(c[i] for c, _ in pieces) for i in range(3))
        end = tuple(max(c[i] + bits.shape[i] for c, bits in pieces) for i in range(3))
    box = np.zeros(tuple(e - o for e, o in zip(end, origin)), dtype=bool)
    for corner, bits in pieces:
        box[tuple(slice(c - o, c - o + n) for c, o, n in zip(corner, origin, bits.shape))] = bits
    box.flags.writeable = False
    return BinaryMask(src.dims, src.spacing, box, origin)


def _decode(path: str, rule: BinarizeRule) -> BinaryMask | Exception:
    """The mask of the file at ``path`` under ``rule``, or the error its decode raised."""
    try:
        return _members(_VolumeFile(path), rule)
    except Exception as e:  # noqa: BLE001 - the file's outcome, raised by each pair reading it
        return e


def load_mask_pairs(
    pairs: Sequence[tuple[str | Path, str | Path, BinarizeRule]],
) -> Iterator[tuple[BinaryMask, BinaryMask] | Exception]:
    """The masks of each ``(auto_path, manual_path, rule)``, or the pair's error, in order.

    Each file is decoded chunk by chunk on the calling thread and validated
    completely; only the boxes of each chunk's members are kept, so no full
    grid is ever held. Each mask covers the bounding box of its own file's
    members; pasted at its ``origin``, it equals
    ``binarize(load_volume(path), rule).bits``. A pair's error is the
    automatic file's first, then the manual file's, then the grid check's.
    It is yielded, not raised: one pair is read as
    ``(item,) = load_mask_pairs([(auto_path, manual_path, rule)])``, and
    ``item`` is raised if it is an error.
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
