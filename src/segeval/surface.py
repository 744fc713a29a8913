"""Surface extraction and surface-to-surface distance measures.

A surface voxel is a member voxel with at least one face-adjacent
(6-connected) neighbor that is non-member or outside the grid; 26-
connectivity is available for sensitivity studies. Distances run between
voxel centers, in index space (unit cubes, the default) or in physical
space (index × spacing per axis).

:func:`compare_surfaces` computes the distance measures by one route:
exact nearest-site distances at the opposing surface's voxels, found on
the bounding box of the two surfaces (:func:`_nearest_distances`).
:func:`surface_metrics_bruteforce` computes the same measures from all
|S_A|·|S_R| pairwise distances; it is the oracle the route is tested
against, and no production path calls it.

The route's values are those of an exact Euclidean distance transform.
The transform is separable: one pass per axis, each setting
``out[i] = min over |k| ≤ w of f[i±k] + step²·k·k`` for a window w. After
the three passes every squared distance below T = min(step²)·(w+1)² is
exact, and every other value is an overestimate at or above T. With
w ≥ max(dims) − 1 the windows span the grid and every value is exact, so
a windowed round whose window spans its box settles every query.
Each value is then the minimum over sites of
``(h0·k0·k0 + h1·k1·k1) + h2·k2·k2`` (h = step²), because float rounding
is monotone: a minimum plus a constant is the minimum of the sums.

Surfaces of overlapping structures lie a few voxels apart, so the route
works at the query voxels, in the three stages :func:`_nearest_distances`
sets out, each computing that same expression. A far-away false-positive
island voxel is one leftover query, finished by its brute-force stage at
the cost of |sites| terms, not by windows grown to its distance over the
whole box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, EmptySurface
from .volume import BinaryMask

# reach R of the distance-order search, in voxels per axis: it settles every
# squared distance below T = min(step²)·(R+1)²
_REACH = 4
# brute-force chunk: query rows × sites per block of squared distances
_BRUTE_CHUNK = 1 << 20

_OFFSETS_6 = [
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
]
_OFFSETS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


@dataclass(frozen=True, eq=False)
class SurfacePointSet:
    """Boundary voxels of a mask, addressed by integer grid indices.

    ``points`` exposes coordinates in the requested space: the indices
    themselves (as reals) in index space, index × spacing in physical space.
    """

    indices: np.ndarray  # (count, 3) int
    space: str  # "index" | "physical"
    spacing: tuple[float, float, float]

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def points(self) -> np.ndarray:
        coords = self.indices.astype(np.float64)
        if self.space == "physical":
            coords = coords * np.asarray(self.spacing, dtype=np.float64)
        return coords


@dataclass(frozen=True)
class SurfaceDistanceResult:
    hausdorff: float
    rms: float
    assd: float
    mean_distance: float
    directed_h_am: float
    directed_h_ma: float
    space: str


def extract_surface(
    mask: BinaryMask, space: str = "index", connectivity: int = 6
) -> SurfacePointSet:
    """Member voxels with a non-member neighbor; grid boundary counts as outside."""
    if space not in ("index", "physical"):
        raise ValueError(f"unknown space {space!r}")
    if connectivity == 6:
        offsets = _OFFSETS_6
    elif connectivity == 26:
        offsets = _OFFSETS_26
    else:
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    if mask.count == 0:
        raise EmptyMask("cannot extract the surface of an empty mask")
    bits = mask.bits
    interior = bits.copy(order="K")  # keep the layout: mixed layouts run strided
    for offset in offsets:  # interior[i] &= bits[i + offset] for i + offset in the box
        here = tuple(slice(max(-d, 0), n - max(d, 0)) for d, n in zip(offset, bits.shape))
        there = tuple(slice(max(d, 0), n + min(d, 0)) for d, n in zip(offset, bits.shape))
        interior[here] &= bits[there]
    # the box edge is exact as "outside": no member lies beyond it, and every
    # face has a neighbor beyond it
    interior[0] = interior[-1] = interior[:, 0] = interior[:, -1] = False
    interior[:, :, 0] = interior[:, :, -1] = False
    np.logical_xor(interior, bits, out=interior)  # the surface: members not interior
    # one C-order scan gives np.argwhere's order and (n, 3) column-major layout
    at = np.stack(np.unravel_index(np.flatnonzero(interior), bits.shape))
    at = at.astype(np.int64, copy=False)  # already int64 where intp is
    at += np.asarray(mask.origin, dtype=np.int64)[:, None]
    return SurfacePointSet(indices=at.T, space=space, spacing=mask.spacing)


def _window_pass(f: np.ndarray, axis: int, w: int, h2: float) -> np.ndarray:
    """out[i] = min over |k| ≤ w of f[i±k] + h2·k·k along one axis.

    Runs as 2·w shifted ``np.minimum`` updates over the whole array. In
    index space h2 = 1 and f holds integers, so every value is an exact
    integer.
    """
    out = f.copy()
    fv = np.moveaxis(f, axis, 0)
    ov = np.moveaxis(out, axis, 0)
    for k in range(1, min(w, fv.shape[0] - 1) + 1):
        c = h2 * k * k
        np.minimum(ov[k:], fv[:-k] + c, out=ov[k:])
        np.minimum(ov[:-k], fv[k:] + c, out=ov[:-k])
    return out


def _window_sample(g: np.ndarray, at: np.ndarray, w: int, h2: float) -> np.ndarray:
    """The last-axis :func:`_window_pass` of ``g``, evaluated only at ``at``.

    A shift past the grid edge is clamped to the edge voxel: that candidate
    is no lower than the edge voxel's own, which the window already holds.
    """
    x, y, z = at[:, 0], at[:, 1], at[:, 2]
    top = g.shape[2] - 1
    vals = g[x, y, z]
    for k in range(1, min(w, top) + 1):
        c = h2 * k * k
        np.minimum(vals, g[x, y, np.minimum(z + k, top)] + c, out=vals)
        np.minimum(vals, g[x, y, np.maximum(z - k, 0)] + c, out=vals)
    return vals


def _squared_edt(sites: np.ndarray, steps: tuple[float, ...], w: int) -> np.ndarray:
    """Squared Euclidean distance to the nearest True voxel, window w per axis.

    One pass per given step, along the leading axes; with two steps the
    last axis is left for :func:`_window_sample`.

    Every entry whose true value is below T = min(step²)·(w+1)² is exact;
    every other entry is an overestimate at or above T (inf where no site
    lies within the window). With w ≥ max(dims) − 1 the windows cover the
    grid and every entry is exact.
    """
    d = np.where(sites, 0.0, np.inf)
    for axis, step in enumerate(steps):
        d = _window_pass(d, axis, w, step * step)
    return d


def _axis_terms(h2: float, n: int) -> np.ndarray:
    """``h2 * k * k`` for k = 0..n-1, as :func:`_window_pass` adds it.

    k = 0 adds nothing there, so its term is 0 even where h2 is inf.
    """
    k = np.arange(1, n)
    return np.concatenate([[0.0], h2 * k * k])


@functools.lru_cache(maxsize=16)
def _offset_levels(h2: tuple[float, float, float]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Offsets below the first-round bound, grouped by squared length, ascending.

    Built once per exact ``h2`` and shared by later calls, so every array
    is read-only.

    The bound is T = min(h2)·(R+1)² with R = ``_REACH``. A length is summed
    as the window passes sum it, ``(t0 + t1) + t2`` with the terms of
    :func:`_axis_terms`, so a level's value is bit for bit the transform's
    value for its offsets. An offset with |k| > R on some axis adds at
    least T there, so the table misses none.
    """
    terms = [_axis_terms(h, _REACH + 1) for h in h2]
    span = np.arange(-_REACH, _REACH + 1)
    k = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    a = np.abs(k)
    value = (terms[0][a[:, 0]] + terms[1][a[:, 1]]) + terms[2][a[:, 2]]
    keep = value < min(h2) * (_REACH + 1) * (_REACH + 1)
    k, value = k[keep], value[keep]
    order = np.argsort(value, kind="stable")
    levels, starts = np.unique(value[order], return_index=True)
    offsets = tuple(np.split(k[order], starts[1:]))
    for a in (levels, *offsets):
        a.flags.writeable = False
    return levels, offsets


def _bruteforce_squared(
    sites: np.ndarray, queries: np.ndarray, terms: list[np.ndarray]
) -> np.ndarray:
    """Squared distance from each query to its nearest site, over every site.

    Sums the per-axis ``terms`` (indexed by |offset|) in the window
    passes' order, so each value equals what a window spanning the grid
    gives.
    """
    out = np.empty(queries.shape[0])
    rows = max(1, _BRUTE_CHUNK // sites.shape[0])
    for start in range(0, queries.shape[0], rows):
        block = queries[start : start + rows]
        d2 = terms[0][np.abs(block[:, None, 0] - sites[None, :, 0])]
        for axis in (1, 2):
            d2 += terms[axis][np.abs(block[:, None, axis] - sites[None, :, axis])]
        out[start : start + block.shape[0]] = d2.min(axis=1)
    return out


def _nearest_distances(
    sites: np.ndarray,
    queries: np.ndarray,
    dims: tuple[int, int, int],
    steps: tuple[float, float, float],
) -> np.ndarray:
    """Exact distance from each query voxel to the nearest site voxel.

    Every value is the minimum over sites of the float expression
    ``(h0·k0·k0 + h1·k1·k1) + h2·k2·k2`` with h = step², the value a
    window pass spanning the box gives. Three stages reach it:

    1. Search in distance order: offsets below T = min(h)·(R+1)², R = 4,
       sorted into levels of equal value. Each level is one gather over the
       unsettled queries on the site grid padded by R voxels; the first
       level with a site settles the query at that level's value. A query
       with no site below T is left over.
    2. When |left|·|sites| is at most the voxel count of the next windowed
       round's box, every leftover is finished by brute force over all
       sites with the same expression.
    3. Otherwise one windowed round runs with w = 2R, then doubled, on the
       box around the leftovers widened by w, and keeps each value below
       min(h)·(w+1)²: a site outside that box is at least w+1 voxels away
       along some axis, so it cannot undercut the bound. Stage 2 is
       checked again before each round. A window spanning the box settles
       every value.

    Float rounding is monotone, so a minimum plus a constant is the minimum
    of the sums; each stage therefore gives the same bits as the spanning
    window.
    """
    h2 = tuple(step * step for step in steps)
    padded = np.zeros(tuple(n + 2 * _REACH for n in dims), dtype=bool)
    grid = padded[_REACH:-_REACH, _REACH:-_REACH, _REACH:-_REACH]
    flat = padded.ravel()
    s1 = padded.shape[2]
    s0 = padded.shape[1] * s1
    strides = np.asarray([s0, s1, 1])

    def address(p: np.ndarray) -> np.ndarray:
        """Flat index in ``padded`` of each row of ``p``, one column at a time."""
        return p[:, 0] * s0 + p[:, 1] * s1 + p[:, 2] + _REACH * (s0 + s1 + 1)

    flat[address(sites)] = True
    out = np.empty(queries.shape[0])
    # a query more than R voxels outside the sites' box on some axis has no
    # offset in the table; it skips the search and stays left over
    near = (
        (queries >= sites.min(axis=0) - _REACH) & (queries <= sites.max(axis=0) + _REACH)
    ).all(axis=1)
    todo = np.flatnonzero(near)
    at = address(queries)[todo]
    for value, offsets in zip(*_offset_levels(h2)):
        hit = flat[at[:, None] + offsets @ strides].any(axis=1)
        out[todo[hit]] = value
        todo, at = todo[~hit], at[~hit]
        if todo.size == 0:
            break
    todo = np.concatenate([todo, np.flatnonzero(~near)])
    top = np.asarray(dims) - 1
    full = int(top.max())
    h2_min = min(h2)
    w = 2 * _REACH
    while todo.size:
        w = min(w, full)
        lo = np.maximum(queries[todo].min(axis=0) - w, 0)
        hi = np.minimum(queries[todo].max(axis=0) + w, top)
        if todo.size * sites.shape[0] <= math.prod(int(n) for n in hi - lo + 1):
            terms = [_axis_terms(h, n) for h, n in zip(h2, dims)]
            out[todo] = _bruteforce_squared(sites, queries[todo], terms)
            break
        box = tuple(slice(int(l), int(h) + 1) for l, h in zip(lo, hi))
        g = _squared_edt(grid[box], steps[:2], w)
        vals = _window_sample(g, queries[todo] - lo, w, h2[2])
        if w == full:  # the window spans the box: every value is exact, inf too
            out[todo] = vals
            break
        # a candidate outside the window adds at least h2·(w+1)·(w+1) on its
        # axis; float products and sums are monotone, so T computed the same
        # way bounds it exactly in floats too
        done = vals < h2_min * (w + 1) * (w + 1)
        out[todo[done]] = vals[done]
        todo = todo[~done]
        w *= 2
    return np.sqrt(out)


def _pooled_result(d_am: np.ndarray, d_ma: np.ndarray, space: str) -> SurfaceDistanceResult:
    h_am = float(d_am.max())
    h_ma = float(d_ma.max())
    total = d_am.size + d_ma.size
    sum_sq = float((d_am**2).sum() + (d_ma**2).sum())
    sum_d = float(d_am.sum() + d_ma.sum())
    return SurfaceDistanceResult(
        hausdorff=max(h_am, h_ma),
        rms=math.sqrt(sum_sq / total),
        assd=sum_d / total,
        mean_distance=0.5 * (float(d_am.mean()) + float(d_ma.mean())),
        directed_h_am=h_am,
        directed_h_ma=h_ma,
        space=space,
    )


def surface_metrics_bruteforce(
    a: SurfacePointSet, r: SurfacePointSet, chunk: int = 1024
) -> SurfaceDistanceResult:
    """Hausdorff, RMS, ASSD and mean surface distance, by exhaustive pairwise distances.

    Each voxel of one surface takes its distance to the nearest voxel of
    the other. RMS and ASSD pool both directions over |S_A| + |S_R| terms;
    mean_distance averages the two directed means. The reference that
    :func:`compare_surfaces` is tested and spot-checked against, at a cost
    of |S_A|·|S_R| distance terms; no production path calls it.
    """
    if a.count == 0 or r.count == 0:
        raise EmptySurface("surface metrics need two nonempty surfaces")
    if a.space != r.space:
        raise ValueError(f"mixed spaces {a.space} vs {r.space}")
    pa = a.points
    pr = r.points
    d_am = np.empty(a.count)
    d_ma = np.full(r.count, np.inf)
    for start in range(0, a.count, chunk):
        block = pa[start : start + chunk]
        # one axis at a time: a length-3 reduction axis runs slowly on row-major input
        d2 = np.square(block[:, 0, None] - pr[None, :, 0])
        diff = np.empty_like(d2)
        for axis in (1, 2):
            np.subtract(block[:, axis, None], pr[None, :, axis], out=diff)
            d2 += np.square(diff, out=diff)
        dist = np.sqrt(d2, out=d2)
        d_am[start : start + block.shape[0]] = dist.min(axis=1)
        np.minimum(d_ma, dist.min(axis=0), out=d_ma)
    return _pooled_result(d_am, d_ma, a.space)


def compare_surfaces(
    mask_a: BinaryMask,
    mask_r: BinaryMask,
    space: str = "index",
    connectivity: int = 6,
) -> SurfaceDistanceResult:
    """Extract both surfaces and compute the four distance measures.

    Each direction's distances are the nearest-site distances at the
    opposing surface's voxels (:func:`_nearest_distances`), on the
    bounding box of the two surfaces: every site and query voxel lies
    inside it, so the crop cannot change any nearest-point distance, and
    box-local coordinates make the values independent of where the pair
    lies in the grid.
    """
    s_a = extract_surface(mask_a, space=space, connectivity=connectivity)
    s_r = extract_surface(mask_r, space=space, connectivity=connectivity)
    lo = np.minimum(s_a.indices.min(axis=0), s_r.indices.min(axis=0))
    hi = np.maximum(s_a.indices.max(axis=0), s_r.indices.max(axis=0))
    dims = tuple(int(n) for n in hi - lo + 1)
    if space == "physical":
        steps_a, steps_r = mask_a.spacing, mask_r.spacing
    else:
        steps_a = steps_r = (1.0, 1.0, 1.0)
    a, r = s_a.indices - lo, s_r.indices - lo
    d_am = _nearest_distances(r, a, dims, steps_r)
    d_ma = _nearest_distances(a, r, dims, steps_a)
    return _pooled_result(d_am, d_ma, space)
