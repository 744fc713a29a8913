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

Each value is the minimum over sites of
``(h0·k0·k0 + h1·k1·k1) + h2·k2·k2`` (h = step², k the offset in voxels),
what an exact separable Euclidean distance transform gives, as float
rounding is monotone. Surfaces of overlapping structures lie a few voxels
apart, so the route works at the query voxels, in the two stages that
:func:`_nearest_distances` sets out. A query that the short-range stage
leaves over, such as a far false-positive island voxel, is finished
against the sites grouped by tile, searching only the groups whose boxes
could hold a nearer site.
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
# site-group edge of the leftover search: 8 was slower on far balls, 16 on speckle
_TILE = 12
# entries per temporary of the leftover search (2 MiB of float64)
_BUDGET = 1 << 18

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


def _axis_terms(h2: float, n: int) -> np.ndarray:
    """``h2 * k * k`` for k = 0..n-1, with 0 at k = 0 even where h2 is inf."""
    k = np.arange(1, n)
    return np.concatenate([[0.0], h2 * k * k])


def _sum_terms(terms: list[np.ndarray], gaps) -> np.ndarray:
    """``(t0[g0] + t1[g1]) + t2[g2]`` over the per-axis gap arrays, made one at a time."""
    gaps = iter(gaps)
    d2 = terms[0][next(gaps)]
    d2 += terms[1][next(gaps)]
    d2 += terms[2][next(gaps)]
    return d2


@functools.lru_cache(maxsize=16)
def _offset_levels(h2: tuple[float, float, float]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Offsets below the distance-order search's bound, by squared length, ascending.

    Built once per exact ``h2`` and shared by later calls, so every array
    is read-only.

    The bound is T = min(h2)·(R+1)² with R = ``_REACH``. A length is summed
    by :func:`_sum_terms` from the terms of :func:`_axis_terms`, as the
    leftover search sums it, so a level's value is bit for bit that
    search's value for its offsets. An offset with |k| > R on some axis
    adds at least T there, so the table misses none.
    """
    terms = [_axis_terms(h, _REACH + 1) for h in h2]
    span = np.arange(-_REACH, _REACH + 1)
    k = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    value = _sum_terms(terms, np.abs(k).T)
    keep = value < min(h2) * (_REACH + 1) * (_REACH + 1)
    k, value = k[keep], value[keep]
    order = np.argsort(value, kind="stable")
    levels, starts = np.unique(value[order], return_index=True)
    offsets = tuple(np.split(k[order], starts[1:]))
    for a in (levels, *offsets):
        a.flags.writeable = False
    return levels, offsets


def _tile_key(p: np.ndarray) -> np.ndarray:
    """The ``_TILE``-cube of each row of ``p``, as one flat index."""
    tile = p // _TILE
    return np.ravel_multi_index(tile.T, tuple(tile.max(axis=0) + 1))


def _lower(
    best: np.ndarray, q: np.ndarray, sel: np.ndarray, group: np.ndarray, terms: list[np.ndarray]
) -> None:
    """Lower ``best[sel]`` to the squared distance from query ``q[:, sel]`` to
    the nearest of the ``group`` sites (3, n), ``_BUDGET`` distances at a time."""
    rows = max(1, _BUDGET // group.shape[1])
    for first in range(0, sel.size, rows):
        at = sel[first : first + rows]
        gaps = (np.abs(q[axis, at, None] - group[axis]) for axis in range(3))
        best[at] = np.minimum(best[at], _sum_terms(terms, gaps).min(axis=1))


def _tile_search(sites: np.ndarray, queries: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
    """Squared distance from each query to its nearest site, by :func:`_sum_terms`.

    Sites are grouped by tile. A group's box gives each query a lower bound,
    the same sum of its gaps to the box, as terms grow with |offset| and
    float sums are monotone. Each query of a block first searches the group
    of its least bound; the block then visits the groups in order of least
    bound, searches one only for the queries whose best exceeds their bound,
    and stops once no group still to come has a bound below the block's
    largest best. So each value is a minimum over all sites. A temporary
    holds at most ``_BUDGET`` entries, or one query's bounds.
    """
    # one group when every distance fits the budget at once
    key = _tile_key(sites) * (queries.shape[0] * sites.shape[0] > _BUDGET)
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    ends = np.append(starts[1:], order.size)
    cols = sites[order].T.copy()  # (3, sites): each group's columns are contiguous
    lo, hi = np.minimum.reduceat(cols, starts, axis=1), np.maximum.reduceat(cols, starts, axis=1)
    by_tile = np.argsort(_tile_key(queries))  # so that a block's queries lie close together
    out = np.empty(queries.shape[0])
    rows = max(1, _BUDGET // starts.size)
    for first in range(0, by_tile.size, rows):
        at = by_tile[first : first + rows]
        q = queries[at].T
        # (groups, block): no site of a group lies nearer to a query than its box
        gaps = (np.abs(q[a] - np.clip(q[a], lo[a, :, None], hi[a, :, None])) for a in range(3))
        bound = _sum_terms(terms, gaps)
        best = np.full(at.size, np.inf)
        near = bound.argmin(axis=0)
        for g in np.unique(near):
            _lower(best, q, np.flatnonzero(near == g), cols[:, starts[g] : ends[g]], terms)
        bound[near, np.arange(at.size)] = np.inf  # searched
        least = bound.min(axis=1)
        for g in np.argsort(least, kind="stable"):
            if least[g] >= best.max():
                break
            _lower(best, q, np.flatnonzero(bound[g] < best), cols[:, starts[g] : ends[g]], terms)
        out[at] = best
    return out


def _nearest_distances(
    sites: np.ndarray,
    queries: np.ndarray,
    dims: tuple[int, int, int],
    steps: tuple[float, float, float],
) -> np.ndarray:
    """Exact distance from each query voxel to the nearest site voxel.

    Every value is the minimum over sites of the float expression
    ``(h0·k0·k0 + h1·k1·k1) + h2·k2·k2`` with h = step², in two stages:

    1. Search in distance order: offsets below T = min(h)·(R+1)², R = 4,
       sorted into levels of equal value. Each level is one gather over the
       unsettled queries on the site grid padded by R voxels; the first
       level with a site settles the query at that level's value. A query
       with no site below T is left over.
    2. :func:`_tile_search` finishes every leftover against the sites
       grouped by tile, skipping each group whose box lies no nearer than
       the query's best so far.

    Both stages take a minimum of that same expression over a set of sites
    that holds the nearest one, so every value has the same bits as the
    minimum over all sites.
    """
    h2 = tuple(step * step for step in steps)
    padded = np.zeros(tuple(n + 2 * _REACH for n in dims), dtype=bool)
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
    if todo.size:
        terms = [_axis_terms(h, n) for h, n in zip(h2, dims)]
        out[todo] = _tile_search(sites, queries[todo], terms)
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
