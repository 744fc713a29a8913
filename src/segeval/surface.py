"""Surface extraction and surface-to-surface distance measures.

A surface voxel is a member voxel with at least one face-adjacent
(6-connected) neighbor that is non-member or outside the grid; 26-
connectivity is available for sensitivity studies. Distances run between
voxel centers, in index space (unit cubes, the default) or in physical
space (index × spacing per axis).

Two interchangeable routes compute the distance measures:

* an exact Euclidean distance transform (:func:`distance_field`) sampled at
  the opposing surface, run on the bounding box of the two surfaces, so its
  work grows with the voxels of that box;
* exhaustive pairwise distances (:func:`surface_metrics_bruteforce`) —
  |S_A|·|S_R| pairs, also the testing oracle for the field route.

:func:`compare_surfaces` takes brute force when the pair count is at most
the number of box voxels, else the field route. Both satisfy the same
contract, so the choice is unobservable except in runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, EmptySurface
from .volume import BinaryMask

# Stand-in for +inf inside the envelope passes: large enough to dominate any
# reachable squared distance, small enough that finite increments are
# absorbed without producing inf-inf = nan in the intersection formula.
_BIG = 1e30

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


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Euclidean distance from every voxel center to a surface point set.

    Zero exactly at surface voxels; 1-Lipschitz in the coordinates of its
    space.
    """

    dims: tuple[int, int, int]
    values: np.ndarray  # (nx, ny, nz) float64
    space: str
    spacing: tuple[float, float, float]

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        return self.values[indices[:, 0], indices[:, 1], indices[:, 2]]


@dataclass(frozen=True)
class SurfaceDistanceResult:
    hausdorff: float
    rms: float
    assd: float
    mean_distance: float
    directed_h_am: float
    directed_h_ma: float
    space: str


def _neighbor_shift(bits: np.ndarray, offset: tuple[int, int, int]) -> np.ndarray:
    """bits shifted so result[i] = bits[i + offset], False outside the grid."""
    out = np.zeros_like(bits)
    src = []
    dst = []
    for d, n in zip(offset, bits.shape):
        if d >= 0:
            src.append(slice(d, n))
            dst.append(slice(0, n - d))
        else:
            src.append(slice(0, n + d))
            dst.append(slice(-d, n))
    out[tuple(dst)] = bits[tuple(src)]
    return out


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
    interior = mask.bits.copy(order="K")  # keep the layout: mixed layouts run strided
    for offset in offsets:
        interior &= _neighbor_shift(mask.bits, offset)
    # the box edge is exact as "outside": no member lies beyond it
    indices = np.argwhere(mask.bits & ~interior).astype(np.int64)
    indices += np.asarray(mask.origin, dtype=np.int64)
    return SurfacePointSet(indices=indices, space=space, spacing=mask.spacing)


def _envelope_pass(f: np.ndarray, step: float) -> np.ndarray:
    """One squared-distance pass along the last axis, all rows in lockstep.

    Computes out[r, i] = min_j (f[r, j] + step²·(i−j)²) exactly via the
    lower envelope of the parabolas rooted at each j. The envelope is built
    left to right: parabola q evicts the top of the stack while its
    intersection s with the top falls left of the top's own reign, then is
    pushed with s as the new boundary. All rows advance together; the
    data-dependent evictions run as masked vector updates until no row
    needs another pop, which keeps the amortized O(n) bound per row.
    """
    rows, n = f.shape
    if n == 1:
        return f.copy()
    h2 = step * step
    ridx = np.arange(rows)
    positions = np.arange(n, dtype=np.float64)
    g = f + h2 * positions**2  # g[:, q] = f[:, q] + step²·q²
    v = np.zeros((rows, n), dtype=np.intp)  # parabola roots on the envelope
    z = np.full((rows, n + 1), np.inf)  # reign boundaries between roots
    z[:, 0] = -np.inf
    k = np.zeros(rows, dtype=np.intp)  # envelope top per row
    for q in range(1, n):
        gq = g[:, q]
        while True:
            vk = v[ridx, k]
            s = (gq - g[ridx, vk]) / (2.0 * h2 * (q - vk))
            pop = (s <= z[ridx, k]) & (k > 0)
            if not pop.any():
                break
            k[pop] -= 1
        k += 1
        v[ridx, k] = q
        z[ridx, k] = s
        z[ridx, k + 1] = np.inf

    out = np.empty_like(f)
    k = np.zeros(rows, dtype=np.intp)
    for q in range(n):
        while True:
            adv = z[ridx, k + 1] < q
            if not adv.any():
                break
            k[adv] += 1
        vk = v[ridx, k]
        d = q - vk
        out[:, q] = f[ridx, vk] + h2 * d * d
    return out


def _squared_edt(sites: np.ndarray, steps: tuple[float, float, float]) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest True voxel of sites."""
    d = np.where(sites, 0.0, _BIG)
    for axis in range(3):
        moved = np.moveaxis(d, axis, -1)
        shape = moved.shape
        flat = np.ascontiguousarray(moved).reshape(-1, shape[-1])
        flat = _envelope_pass(flat, steps[axis])
        d = np.moveaxis(flat.reshape(shape), -1, axis)
    return d


def distance_field(
    surface: SurfacePointSet,
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float] | None = None,
) -> DistanceField:
    """Exact Euclidean distance from every voxel center to the surface.

    Separable envelope passes, one per axis; anisotropic spacing is honored
    in physical space. Not a chamfer approximation: index-space values are
    exact square roots of integers.
    """
    if surface.count == 0:
        raise EmptySurface("cannot build a distance field from an empty surface")
    if spacing is None:
        spacing = surface.spacing
    idx = surface.indices
    if (idx < 0).any() or (idx >= np.asarray(dims)).any():
        raise ValueError(f"surface points fall outside dims {dims}")
    steps = spacing if surface.space == "physical" else (1.0, 1.0, 1.0)
    sites = np.zeros(dims, dtype=bool)
    sites[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    values = np.sqrt(_squared_edt(sites, steps))
    return DistanceField(dims=dims, values=values, space=surface.space, spacing=spacing)


def directed_hausdorff(from_set: SurfacePointSet, to_field: DistanceField) -> float:
    """One directed max-min distance: max over the set of the field value there."""
    if from_set.count == 0:
        raise EmptySurface("directed Hausdorff from an empty surface")
    if from_set.space != to_field.space:
        raise ValueError(
            f"space mismatch: set is {from_set.space}, field is {to_field.space}"
        )
    return float(to_field.values_at(from_set.indices).max())


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


def surface_metrics(
    a: SurfacePointSet,
    r: SurfacePointSet,
    field_a: DistanceField,
    field_r: DistanceField,
) -> SurfaceDistanceResult:
    """Hausdorff, RMS, ASSD, and mean surface distance from distance fields.

    ``field_a`` must be the field of ``a``'s surface and ``field_r`` of
    ``r``'s; nearest-surface distances are the field values sampled at the
    opposing surface's voxels. RMS and ASSD pool both directions over
    |S_A| + |S_R| terms; mean_distance averages the two directed means.
    """
    if a.count == 0 or r.count == 0:
        raise EmptySurface("surface metrics need two nonempty surfaces")
    spaces = {a.space, r.space, field_a.space, field_r.space}
    if len(spaces) != 1:
        raise ValueError(f"mixed spaces {spaces}")
    d_am = field_r.values_at(a.indices)
    d_ma = field_a.values_at(r.indices)
    return _pooled_result(d_am, d_ma, a.space)


def surface_metrics_bruteforce(
    a: SurfacePointSet, r: SurfacePointSet, chunk: int = 1024
) -> SurfaceDistanceResult:
    """Same contract as :func:`surface_metrics`, by exhaustive pairwise distances."""
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
        dist = np.sqrt(((block[:, None, :] - pr[None, :, :]) ** 2).sum(axis=2))
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

    The field computation is confined to the bounding box of the two
    surfaces; every site and query point lies inside it, so the crop cannot
    change any nearest-point distance. Routes to brute force when the
    pairwise product does not exceed the voxel count of that box, else to
    the distance-field path.
    """
    s_a = extract_surface(mask_a, space=space, connectivity=connectivity)
    s_r = extract_surface(mask_r, space=space, connectivity=connectivity)
    both = np.vstack([s_a.indices, s_r.indices])
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    sub_dims = tuple(int(h - l + 1) for l, h in zip(lo, hi))
    # both routes see box-local coordinates, so translating a pair changes no bit
    s_a_local = SurfacePointSet(indices=s_a.indices - lo, space=space, spacing=s_a.spacing)
    s_r_local = SurfacePointSet(indices=s_r.indices - lo, space=space, spacing=s_r.spacing)
    if s_a.count * s_r.count <= math.prod(sub_dims):
        return surface_metrics_bruteforce(s_a_local, s_r_local)
    field_a = distance_field(s_a_local, sub_dims, mask_a.spacing)
    field_r = distance_field(s_r_local, sub_dims, mask_r.spacing)
    return surface_metrics(s_a_local, s_r_local, field_a, field_r)
