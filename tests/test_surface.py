from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import loaded_pair, make_mask, make_volume, random_bits, sphere_bits, write_rawvol

from segeval import surface
from segeval.cohort import CaseSpec, EvalConfig, compute_record
from segeval.errors import EmptyMask, EmptySurface
from segeval.surface import (
    SurfacePointSet,
    compare_surfaces,
    extract_surface,
    surface_metrics_bruteforce,
)
from segeval.volume import BinarizeRule, BinaryMask, binarize


def _point_set(points, space="index", spacing=(1.0, 1.0, 1.0)):
    return SurfacePointSet(
        indices=np.asarray(points, dtype=np.int64), space=space, spacing=spacing
    )


def _mask_of(points, dims, spacing=(1.0, 1.0, 1.0)):
    bits = np.zeros(dims, dtype=bool)
    bits[tuple(np.asarray(points).T)] = True
    return make_mask(bits, spacing)


def _spanning_field(sites, dims, steps=(1.0, 1.0, 1.0)):
    """Distance from every voxel to the nearest of the ``sites`` indices.

    The separable transform: one pass per axis sets
    ``out[i] = min over k of f[i±k] + step²·k·k``, with k spanning the grid,
    so every value is exact.
    """
    d2 = np.full(dims, np.inf)
    d2[tuple(np.asarray(sites).T)] = 0.0
    for axis, step in enumerate(steps):
        h2 = step * step
        f = np.moveaxis(d2, axis, 0)
        out = f.copy()
        for k in range(1, f.shape[0]):
            c = h2 * k * k
            np.minimum(out[k:], f[:-k] + c, out=out[k:])
            np.minimum(out[:-k], f[k:] + c, out=out[:-k])
        d2 = np.moveaxis(out, 0, axis)
    return np.sqrt(d2)


def _plain_squared(sites, queries, steps):
    """The minimum over every site of ``(h0·k0·k0 + h1·k1·k1) + h2·k2·k2``,
    h = step², with a zero term where k = 0 even if h is inf."""
    best = []
    for first in range(0, len(queries), 256):
        d2 = 0.0
        for axis, step in enumerate(steps):
            k = np.abs(queries[first : first + 256, axis, None] - sites[None, :, axis])
            with np.errstate(invalid="ignore"):
                d2 = d2 + np.where(k == 0, 0.0, step * step * k * k)
        best.append(d2.min(axis=1))
    return np.concatenate(best)


def _beyond_reach(sites, queries, steps):
    """The ``queries`` rows whose nearest site lies at T = min(step²)·(R+1)² or
    beyond: those the distance-order search leaves over, in row-major order."""
    reach = surface._REACH + 1
    beyond = min(s * s for s in steps) * reach * reach  # T as the search computes it
    left = queries[_plain_squared(sites, queries, steps) >= beyond]
    return sorted(map(tuple, left.tolist()))


def _must_not_run(route):
    def fail(*args, **kwargs):
        raise AssertionError(f"the {route} route ran")

    return fail


class TestExtractSurface:
    def test_solid_cube_sheds_center(self):
        bits = np.zeros((5, 5, 5), dtype=bool)
        bits[1:4, 1:4, 1:4] = True
        surf = extract_surface(make_mask(bits))
        assert surf.count == 26
        assert [2, 2, 2] not in surf.indices.tolist()

    def test_single_voxel(self):
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits[1, 1, 1] = True
        surf = extract_surface(make_mask(bits))
        assert surf.count == 1
        assert surf.indices.tolist() == [[1, 1, 1]]

    def test_slab_is_all_surface(self):
        bits = np.zeros((3, 3, 1), dtype=bool)
        bits[:, :, 0] = True
        assert extract_surface(make_mask(bits)).count == 9

    def test_grid_boundary_counts_as_outside(self):
        bits = np.ones((3, 3, 3), dtype=bool)
        assert extract_surface(make_mask(bits)).count == 26  # only center is interior

    def test_26_connectivity_supersets_6(self, rng):
        # plus-shaped mask: center is 6-interior but not 26-interior
        bits = np.zeros((5, 5, 5), dtype=bool)
        bits[2, 2, 2] = True
        for off in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            bits[2 + off[0], 2 + off[1], 2 + off[2]] = True
        s6 = extract_surface(make_mask(bits), connectivity=6)
        s26 = extract_surface(make_mask(bits), connectivity=26)
        assert s6.count == 6
        assert s26.count == 7
        for _ in range(10):
            bits = random_bits(rng, (8, 8, 8), 0.4)
            set6 = {tuple(p) for p in extract_surface(make_mask(bits), connectivity=6).indices}
            set26 = {tuple(p) for p in extract_surface(make_mask(bits), connectivity=26).indices}
            assert set6 <= set26

    def test_index_order_is_the_same_for_every_memory_layout(self, rng):
        around = [off for off in np.ndindex(3, 3, 3) if off != (1, 1, 1)]
        neighbors = {6: [off for off in around if off.count(1) == 2], 26: around}
        for trial in range(20):
            faces = trial % 2 == 1
            bits = random_bits(
                rng, tuple(int(n) for n in rng.integers(1, 9, size=3)), 0.9 if faces else 0.5
            )
            if faces:  # every voxel on each face of the box is a member
                bits[0] = bits[-1] = bits[:, 0] = bits[:, -1] = True
                bits[:, :, 0] = bits[:, :, -1] = True
            padded = np.pad(bits, 1)
            n0, n1, n2 = bits.shape
            strided = np.zeros((n0, 2 * n1, n2), dtype=bool)
            strided[:, ::2, :] = bits
            for connectivity, offsets in neighbors.items():
                # oracle: a voxel is interior when all its neighbors, padded with False, are members
                interior = bits.copy()
                for dx, dy, dz in offsets:
                    interior &= padded[dx:dx + n0, dy:dy + n1, dz:dz + n2]
                expected = np.argwhere(bits & ~interior)
                for layout in (bits, np.asfortranarray(bits), strided[:, ::2, :]):
                    got = extract_surface(make_mask(layout), connectivity=connectivity).indices
                    np.testing.assert_array_equal(got, expected)
                    # the column-major int64 layout np.argwhere gives, which the
                    # nearest-site search reads column by column
                    assert got.dtype == np.int64 and got.flags.f_contiguous

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            extract_surface(make_mask(np.zeros((2, 2, 2), dtype=bool)))

    def test_physical_coordinates(self):
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits[1, 2, 1] = True
        surf = extract_surface(make_mask(bits, spacing=(0.5, 2.0, 4.0)), space="physical")
        np.testing.assert_allclose(surf.points, [[0.5, 4.0, 4.0]])


class TestDistanceField:
    """The windowed transform, with a window spanning the grid."""

    def test_single_site_corner_value(self):
        field = _spanning_field([(2, 2, 2)], (5, 5, 5))
        assert field[0, 0, 0] == pytest.approx(math.sqrt(12), abs=1e-12)

    def test_zero_at_sites(self, rng):
        bits = random_bits(rng, (7, 7, 7), 0.3)
        surf = extract_surface(make_mask(bits))
        field = _spanning_field(surf.indices, (7, 7, 7))
        assert np.all(field[tuple(surf.indices.T)] == 0.0)

    def test_physical_z_step(self):
        field = _spanning_field([(0, 0, 0)], (3, 3, 3), (1.0, 1.0, 2.0))
        assert field[0, 0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_exact_on_random_fixtures(self, rng):
        # oracle: brute-force minimum over all site points
        for trial in range(20):
            dims = (12, 12, 12)
            spacing = (1.0, 1.0, 1.0) if trial % 2 == 0 else (0.781, 0.781, 2.0)
            space = "index" if trial % 2 == 0 else "physical"
            bits = random_bits(rng, dims, 0.1)
            surf = extract_surface(make_mask(bits, spacing), space=space)
            scale = np.ones(3) if space == "index" else np.asarray(spacing)
            field = _spanning_field(surf.indices, dims, tuple(scale))
            pts = surf.indices * scale
            grid = np.indices(dims).reshape(3, -1).T * scale
            brute = np.sqrt(
                ((grid[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            ).min(1).reshape(dims)
            assert np.abs(field - brute).max() <= 1e-9

    def test_matches_scipy(self, rng):
        ndimage = pytest.importorskip("scipy.ndimage")
        for trial in range(6):
            dims = tuple(int(n) for n in rng.integers(5, 30, size=3))
            space = ("index", "physical")[trial % 2]
            spacing = (0.781, 0.9, 2.0) if space == "physical" else (1.0, 1.0, 1.0)
            sites = random_bits(rng, dims, 0.01)
            sites[tuple(int(rng.integers(n)) for n in dims)] = True
            field = _spanning_field(np.argwhere(sites), dims, spacing)
            expected = ndimage.distance_transform_edt(~sites, sampling=spacing)
            assert np.abs(field - expected).max() <= 1e-9

    def test_lipschitz_in_physical_coords(self, rng):
        spacing = (0.7, 1.3, 2.0)
        bits = random_bits(rng, (9, 9, 9), 0.15)
        surf = extract_surface(make_mask(bits, spacing), space="physical")
        field = _spanning_field(surf.indices, (9, 9, 9), spacing)
        for axis, step in enumerate(spacing):
            diff = np.abs(np.diff(field, axis=axis))
            assert diff.max() <= step + 1e-9


class TestDirectedHausdorff:
    def test_identical_sets(self):
        s = _mask_of([(1, 1, 1), (2, 1, 1)], (4, 4, 4))
        res = compare_surfaces(s, s)
        assert res.directed_h_am == res.directed_h_ma == 0.0

    def test_single_pair(self):
        a = _mask_of([(0, 0, 0)], (5, 5, 5))
        b = _mask_of([(3, 4, 0)], (5, 5, 5))
        assert compare_surfaces(a, b).directed_h_am == pytest.approx(5.0, abs=1e-12)

    def test_max_over_points(self):
        a = _mask_of([(1, 0, 0), (2, 0, 0)], (4, 1, 1))
        b = _mask_of([(0, 0, 0)], (4, 1, 1))
        assert compare_surfaces(a, b).directed_h_am == pytest.approx(2.0, abs=1e-12)


class TestSurfaceMetrics:
    def test_worked_example_both_paths(self):
        a = [(0, 0, 0)]
        r = [(1, 0, 0), (2, 0, 0)]
        for result in (
            compare_surfaces(_mask_of(a, (3, 1, 1)), _mask_of(r, (3, 1, 1))),
            surface_metrics_bruteforce(_point_set(a), _point_set(r)),
        ):
            assert result.hausdorff == pytest.approx(2.0, abs=1e-12)
            assert result.assd == pytest.approx(4 / 3, abs=1e-12)
            assert result.rms == pytest.approx(math.sqrt(2), abs=1e-12)
            assert result.mean_distance == pytest.approx(1.25, abs=1e-12)
            assert result.directed_h_am == pytest.approx(1.0, abs=1e-12)
            assert result.directed_h_ma == pytest.approx(2.0, abs=1e-12)

    def test_identical_surfaces_all_zero(self, rng):
        mask = make_mask(random_bits(rng, (6, 6, 6), 0.3))
        result = compare_surfaces(mask, mask)
        assert (result.hausdorff, result.rms, result.assd, result.mean_distance) == (
            0.0, 0.0, 0.0, 0.0,
        )

    def test_hausdorff_is_max_of_directed(self, rng):
        a = extract_surface(make_mask(random_bits(rng, (8, 8, 8), 0.2)))
        r = extract_surface(make_mask(random_bits(rng, (8, 8, 8), 0.2)))
        res = surface_metrics_bruteforce(a, r)
        assert res.hausdorff == max(res.directed_h_am, res.directed_h_ma)

    def test_sqrt_k_exactness_in_index_space(self):
        # single-voxel masks offset by known integer vectors
        for offset, k in (((1, 0, 0), 1), ((1, 1, 0), 2), ((2, 2, 2), 12),
                          ((3, 3, 0), 18), ((3, 4, 0), 25), ((5, 5, 0), 50)):
            dims = tuple(o + 1 for o in offset)
            res = compare_surfaces(_mask_of([(0, 0, 0)], dims), _mask_of([offset], dims))
            assert res.hausdorff == math.sqrt(k)
            res_bf = surface_metrics_bruteforce(_point_set([(0, 0, 0)]), _point_set([offset]))
            assert res_bf.hausdorff == math.sqrt(k)

    def test_empty_surface_error(self):
        a = _point_set([(0, 0, 0)])
        empty = _point_set(np.empty((0, 3)))
        with pytest.raises(EmptySurface):
            surface_metrics_bruteforce(a, empty)

    def test_bruteforce_is_the_same_for_row_and_column_major_indices(self, rng):
        for space, spacing in (("index", (1.0, 1.0, 1.0)), ("physical", (0.781, 0.9, 2.0))):
            a, r = (
                extract_surface(make_mask(random_bits(rng, (9, 9, 9), 0.3), spacing), space)
                for _ in range(2)
            )
            by_layout = [
                surface_metrics_bruteforce(
                    SurfacePointSet(layout(a.indices), space, spacing),
                    SurfacePointSet(layout(r.indices), space, spacing),
                    chunk=7,
                )
                for layout in (np.ascontiguousarray, np.asfortranarray)
            ]
            assert by_layout[0] == by_layout[1]


class TestOracleEquivalence:
    def test_random_masks_both_spaces_and_connectivities(self, rng):
        dims = (16, 16, 16)
        for space in ("index", "physical"):
            for conn in (6, 26):
                for _ in range(5):
                    spacing = (0.781, 0.781, 2.0) if space == "physical" else (1.0, 1.0, 1.0)
                    a_mask = make_mask(random_bits(rng, dims, 0.25), spacing)
                    r_mask = make_mask(random_bits(rng, dims, 0.25), spacing)
                    a = extract_surface(a_mask, space=space, connectivity=conn)
                    r = extract_surface(r_mask, space=space, connectivity=conn)
                    fast = compare_surfaces(a_mask, r_mask, space=space, connectivity=conn)
                    slow = surface_metrics_bruteforce(a, r)
                    for name in ("hausdorff", "rms", "assd", "mean_distance"):
                        assert abs(getattr(fast, name) - getattr(slow, name)) <= 1e-9

    def test_symmetry(self, rng):
        a = extract_surface(make_mask(random_bits(rng, (10, 10, 10), 0.2)))
        r = extract_surface(make_mask(random_bits(rng, (10, 10, 10), 0.2)))
        ar = surface_metrics_bruteforce(a, r)
        ra = surface_metrics_bruteforce(r, a)
        assert ar.hausdorff == ra.hausdorff
        assert ar.rms == ra.rms
        assert ar.assd == ra.assd
        assert ar.mean_distance == ra.mean_distance
        assert (ar.directed_h_am, ar.directed_h_ma) == (ra.directed_h_ma, ra.directed_h_am)

    def test_translation_invariance(self, rng):
        bits_a = np.zeros((12, 12, 12), dtype=bool)
        bits_a[2:5, 2:5, 2:5] = True
        bits_r = np.zeros((12, 12, 12), dtype=bool)
        bits_r[3:7, 2:5, 2:6] = True
        base = compare_surfaces(make_mask(bits_a), make_mask(bits_r))
        shifted = compare_surfaces(
            make_mask(np.roll(bits_a, (3, 2, 1), axis=(0, 1, 2))),
            make_mask(np.roll(bits_r, (3, 2, 1), axis=(0, 1, 2))),
        )
        assert base.hausdorff == pytest.approx(shifted.hausdorff, abs=1e-12)
        assert base.rms == pytest.approx(shifted.rms, abs=1e-12)
        assert base.assd == pytest.approx(shifted.assd, abs=1e-12)
        assert base.mean_distance == pytest.approx(shifted.mean_distance, abs=1e-12)

    def test_ordering_invariant(self, rng):
        for _ in range(20):
            a = extract_surface(make_mask(random_bits(rng, (9, 9, 9), 0.25)))
            r = extract_surface(make_mask(random_bits(rng, (9, 9, 9), 0.25)))
            res = surface_metrics_bruteforce(a, r)
            assert res.hausdorff >= res.rms >= res.assd >= 0.0


def _mri_island_pair(spacing):
    """A radius-14 ball pair shifted one voxel on a 256×256×170 grid, with one
    auto island voxel at (250, 250, 165) that stretches the surfaces' box to
    205×205×125 voxels.

    Both masks hold that box; :func:`compare_surfaces` works on the box of
    both surfaces, whatever boxes the masks cover.
    """
    origin = (46, 46, 41)
    box = (205, 205, 125)
    manual = np.zeros(box, dtype=bool)
    auto = np.zeros(box, dtype=bool)
    manual[:30, :29, :29] = sphere_bits((30, 29, 29), (14, 14, 14), 14)
    auto[:30, :29, :29] = sphere_bits((30, 29, 29), (15, 14, 14), 14)
    auto[-1, -1, -1] = True
    dims = (256, 256, 170)
    return tuple(
        BinaryMask(dims=dims, spacing=spacing, bits=bits, origin=origin)
        for bits in (auto, manual)
    )


class TestCompareSurfacesEngine:
    def test_matches_bruteforce_when_field_path_triggers(self, rng, monkeypatch):
        dims = (16, 16, 16)
        a_bits = random_bits(rng, dims, 0.4)
        r_bits = random_bits(rng, dims, 0.4)
        a_mask, r_mask = make_mask(a_bits), make_mask(r_bits)
        oracle = surface_metrics_bruteforce(extract_surface(a_mask), extract_surface(r_mask))
        monkeypatch.setattr(surface, "surface_metrics_bruteforce", _must_not_run("brute-force"))
        engine = compare_surfaces(a_mask, r_mask)
        for name in ("hausdorff", "rms", "assd", "mean_distance"):
            assert abs(getattr(engine, name) - getattr(oracle, name)) <= 1e-9

    def test_far_apart_voxels_take_the_nearest_site_route(self, monkeypatch):
        # the surface box is the whole 64³ grid, but there is a single pair
        bits_a = np.zeros((64, 64, 64), dtype=bool)
        bits_a[0, 0, 0] = True
        bits_r = np.zeros((64, 64, 64), dtype=bool)
        bits_r[63, 63, 63] = True
        monkeypatch.setattr(surface, "surface_metrics_bruteforce", _must_not_run("brute-force"))
        res = compare_surfaces(make_mask(bits_a), make_mask(bits_r))
        assert res.hausdorff == pytest.approx(63 * math.sqrt(3), abs=1e-12)

    def test_ball_pair_takes_field_path(self, monkeypatch):
        dims = (96, 96, 96)
        spacing = (0.9, 1.1, 1.3)
        pairs = [
            (
                make_mask(sphere_bits(dims, (44, 48, 48), 12), spacing),
                make_mask(sphere_bits(dims, (48, 50, 48), 12), spacing),
            ),
            _mri_island_pair(spacing),
        ]
        # the oracle below is this module's own binding of the function
        monkeypatch.setattr(surface, "surface_metrics_bruteforce", _must_not_run("brute-force"))
        for a_mask, r_mask in pairs:
            for space in ("index", "physical"):
                oracle = surface_metrics_bruteforce(
                    extract_surface(a_mask, space=space), extract_surface(r_mask, space=space)
                )
                engine = compare_surfaces(a_mask, r_mask, space=space)
                if space == "index":
                    assert engine == oracle
                else:
                    for name in ("hausdorff", "rms", "assd", "mean_distance",
                                 "directed_h_am", "directed_h_ma"):
                        assert abs(getattr(engine, name) - getattr(oracle, name)) <= 1e-9

    def test_single_voxel_pair(self):
        bits_a = np.zeros((32, 32, 32), dtype=bool)
        bits_a[4, 4, 4] = True
        bits_r = np.zeros((32, 32, 32), dtype=bool)
        bits_r[10, 4, 4] = True
        res = compare_surfaces(make_mask(bits_a), make_mask(bits_r))
        assert res.hausdorff == 6.0

    def test_physical_space_spheres(self, rng):
        dims = (20, 20, 20)
        spacing = (0.781, 0.781, 2.0)
        a_bits = sphere_bits(dims, (10, 10, 10), 6)
        r_bits = sphere_bits(dims, (11, 10, 10), 6)
        a_mask, r_mask = make_mask(a_bits, spacing), make_mask(r_bits, spacing)
        engine = compare_surfaces(a_mask, r_mask, space="physical")
        oracle = surface_metrics_bruteforce(
            extract_surface(a_mask, space="physical"),
            extract_surface(r_mask, space="physical"),
        )
        assert engine.hausdorff == pytest.approx(oracle.hausdorff, abs=1e-9)
        assert engine.assd == pytest.approx(oracle.assd, abs=1e-9)

    def test_empty_mask_raises(self):
        good = make_mask(np.ones((3, 3, 3), dtype=bool))
        with pytest.raises(EmptyMask):
            compare_surfaces(good, make_mask(np.zeros((3, 3, 3), dtype=bool)))


def _calls(monkeypatch, name):
    """Record the positional arguments of every call to ``surface.<name>``."""
    calls = []
    real = getattr(surface, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(surface, name, spy)
    return calls


def _leftover_calls(mask_a, mask_r, space, monkeypatch):
    """Run :func:`compare_surfaces` with a spy on the leftover search; return the
    result, the query rows of each search call, and the rows each call should get:
    per direction, the queries beyond the distance-order search's reach."""
    s_a = extract_surface(mask_a, space=space)
    s_r = extract_surface(mask_r, space=space)
    lo = np.vstack([s_a.indices, s_r.indices]).min(axis=0)  # the box compare_surfaces uses
    a, r = s_a.indices - lo, s_r.indices - lo
    steps = mask_a.spacing if space == "physical" else (1.0, 1.0, 1.0)
    expected = [_beyond_reach(sites, queries, steps) for sites, queries in ((r, a), (a, r))]
    calls = _calls(monkeypatch, "_tile_search")
    result = compare_surfaces(mask_a, mask_r, space=space)
    got = [sorted(map(tuple, args[1].tolist())) for args in calls]
    return result, got, [rows for rows in expected if rows]


def _ball_with_outlier(dims, center, radius, outlier):
    bits = sphere_bits(dims, center, radius)
    bits[outlier] = True
    return bits


class TestLeftoverQueries:
    """Pairs whose queries the distance-order search does not all settle."""

    DIMS = (48, 48, 48)
    CASES = {
        "outlier_in_a": lambda d: (
            _ball_with_outlier(d, (12, 12, 12), 6, (44, 44, 44)),
            sphere_bits(d, (13, 12, 12), 6),
        ),
        "outlier_in_r": lambda d: (
            sphere_bits(d, (13, 12, 12), 6),
            _ball_with_outlier(d, (12, 12, 12), 6, (44, 44, 44)),
        ),
        "far_apart_balls": lambda d: (
            sphere_bits(d, (10, 10, 10), 5), sphere_bits(d, (36, 12, 10), 5),
        ),
        "concentric_balls": lambda d: (
            sphere_bits(d, (24, 24, 24), 4), sphere_bits(d, (24, 24, 24), 14),
        ),
    }

    def _check(self, monkeypatch, a_mask, r_mask, space="index"):
        """Check the pair against brute force, and that exactly the queries
        beyond stage 1's reach reach the leftover search; return the result and
        the query rows of each search call."""
        oracle = surface_metrics_bruteforce(
            extract_surface(a_mask, space=space), extract_surface(r_mask, space=space)
        )
        monkeypatch.setattr(surface, "surface_metrics_bruteforce", _must_not_run("brute-force"))
        engine, got, expected = _leftover_calls(a_mask, r_mask, space, monkeypatch)
        for name in ("hausdorff", "rms", "assd", "mean_distance", "directed_h_am", "directed_h_ma"):
            assert abs(getattr(engine, name) - getattr(oracle, name)) <= 1e-9
        assert got == expected
        return engine, got

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_bruteforce(self, monkeypatch, case):
        a_bits, r_bits = self.CASES[case](self.DIMS)
        _, leftovers = self._check(monkeypatch, make_mask(a_bits), make_mask(r_bits))
        if case.startswith("outlier"):
            # the search settles the balls; the lone outlier is left over
            assert [len(rows) for rows in leftovers] == [1]
        else:
            # the search leaves queries over in both directions
            assert len(leftovers) == 2

    def test_anisotropic_shift_in_physical_space(self, monkeypatch):
        dims = (30, 30, 30)
        spacing = (0.781, 0.9, 2.0)
        a_mask = make_mask(sphere_bits(dims, (14, 15, 14), 8), spacing)
        r_mask = make_mask(sphere_bits(dims, (15, 15, 16), 8), spacing)
        _, leftovers = self._check(monkeypatch, a_mask, r_mask, space="physical")
        assert leftovers

    @pytest.mark.parametrize("gap", [5, 9])
    def test_plane_and_bump_against_a_plane(self, monkeypatch, gap):
        # gap 5 = R+1: no plane site lies within the search's reach. gap 9:
        # the bump at x = 1 is the nearest site of the queries around it,
        # but the corner queries' nearest sites lie on the plane at x = 0
        bits_a = np.zeros((gap + 1, 6, 6), dtype=bool)
        bits_a[0] = True
        bits_a[1, 5, 5] = True
        bits_r = np.zeros_like(bits_a)
        bits_r[gap] = True
        engine, _ = self._check(monkeypatch, make_mask(bits_a), make_mask(bits_r))
        assert engine.hausdorff == float(gap)


def _field_values(sites, queries, dims, steps):
    """The oracle: a full distance field of ``sites``, read at ``queries``."""
    return _spanning_field(sites, dims, steps)[tuple(queries.T)]


@st.composite
def _staged_queries(draw):
    """Sites and queries that run both stages of the nearest-site search.

    Along the first axis of an (nx, ny, nz) box, sites fill the plane x = 0
    and part of x = 1. Queries at x ≤ 8 lie at most 8 voxels from a site:
    those within 4 settle in the distance-order search. The full plane
    x = 7 and one far query at x = nx − 1 are left over. The first axis has
    the smallest step, so the plane lies beyond the search's reach in
    physical space too. The axes are then permuted.
    """
    nx, ny, nz = draw(st.integers(31, 40)), draw(st.integers(7, 10)), draw(st.integers(7, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = np.zeros((nx, ny, nz), dtype=bool)
    sites[0] = True
    sites[1] = rng.random((ny, nz)) < draw(st.floats(0, 0.5))
    queries = np.zeros_like(sites)
    queries[:9] = rng.random((9, ny, nz)) < draw(st.floats(0, 0.3))
    queries[7] = True
    queries[1, 0, 0] = True
    queries[nx - 1, rng.integers(ny), rng.integers(nz)] = True
    step = draw(st.floats(0.5, 1.5))
    steps = (step, draw(st.floats(step, 3.0)), draw(st.floats(step, 3.0)))
    perm = draw(st.permutations((0, 1, 2)))
    sites, queries = sites.transpose(perm), queries.transpose(perm)
    steps = tuple(steps[axis] for axis in perm)
    return np.argwhere(sites), np.argwhere(queries), sites.shape, steps


class TestNearestDistances:
    """The two-stage nearest-site search against the full distance field."""

    @settings(max_examples=40, deadline=None)
    @given(
        _staged_queries(), st.sampled_from(("index", "physical")), st.sampled_from((64, 1 << 18))
    )
    def test_equals_the_distance_field_bit_for_bit(self, example, space, budget):
        sites, queries, dims, steps = example
        if space == "index":
            steps = (1.0, 1.0, 1.0)
        leftovers = []
        real = surface._tile_search

        def spy(sites_, queries_, terms):
            leftovers.append(sorted(map(tuple, queries_.tolist())))
            return real(sites_, queries_, terms)

        with mock.patch.object(surface, "_tile_search", spy), mock.patch.object(
            surface, "_BUDGET", budget
        ):
            got = surface._nearest_distances(sites, queries, dims, steps)
        want = _field_values(sites, queries, dims, steps)
        np.testing.assert_array_equal(got, want, strict=True)
        # the distance-order search settled the queries within its reach, and
        # exactly the rest, the plane and the far query among them, were left over
        assert leftovers == [_beyond_reach(sites, queries, steps)]
        assert 0 < len(leftovers[0]) < len(queries)

    def test_last_level_and_first_leftover(self, monkeypatch):
        levels, _ = surface._offset_levels((1.0, 1.0, 1.0))
        assert levels[-1] == 24.0  # T = 25 is not below itself
        leftovers = _calls(monkeypatch, "_tile_search")
        sites = np.array([[0, 0, 0]])
        queries = np.array([[4, 2, 2], [4, 3, 0], [2, 4, 2], [0, 0, 5]])
        got = surface._nearest_distances(sites, queries, (9, 9, 9), (1.0, 1.0, 1.0))
        assert got.tolist() == [math.sqrt(24), 5.0, math.sqrt(24), 5.0]
        assert [args[1].tolist() for args in leftovers] == [[[4, 3, 0], [0, 0, 5]]]

    def test_the_offset_table_is_built_once_per_spacing_and_read_only(self, rng):
        levels, offsets = surface._offset_levels((1.0, 1.0, 1.0))
        assert surface._offset_levels((1.0, 1.0, 1.0))[0] is levels
        for array in (levels, *offsets):
            with pytest.raises(ValueError):
                array[0] = 7
        # spacing A, then B, then A again: the second A result is the first
        dims = (16, 14, 12)
        a, r = random_bits(rng, dims, 0.3), random_bits(rng, dims, 0.3)
        results = [
            compare_surfaces(make_mask(a, spacing), make_mask(r, spacing), space="physical")
            for spacing in ((0.8, 1.1, 2.5), (1.3, 0.7, 1.0), (0.8, 1.1, 2.5))
        ]
        assert results[2] == results[0] != results[1]
        for connectivity in (6, 26):
            got = compare_surfaces(make_mask(a), make_mask(r), connectivity=connectivity)
            want = surface_metrics_bruteforce(
                *(extract_surface(make_mask(b), connectivity=connectivity) for b in (a, r))
            )
            assert got == want

    def test_offset_range_differs_per_axis(self, rng):
        steps = (1.2, 1.2, 3.0)
        levels, offsets = surface._offset_levels(tuple(s * s for s in steps))
        # 3.0²·2² = 36 is not below T = 1.2²·5² = 36, so the z reach is 1
        assert np.abs(np.concatenate(offsets)).max(axis=0).tolist() == [4, 4, 1]
        assert levels.max() < 1.2 * 1.2 * 5 * 5
        dims = (14, 13, 9)
        for _ in range(10):
            sites = np.argwhere(random_bits(rng, dims, 0.01))
            queries = np.argwhere(random_bits(rng, dims, 0.3))
            got = surface._nearest_distances(sites, queries, dims, steps)
            want = _field_values(sites, queries, dims, steps)
            np.testing.assert_array_equal(got, want, strict=True)

    def test_a_step_whose_square_overflows(self, rng):
        # step² = inf: off-site values and their bounds are inf, which no
        # best so far exceeds; the leftover search must still end
        steps = (1e200, 1.0, 1.0)
        dims = (12, 9, 8)
        sites = np.zeros(dims, dtype=bool)
        sites[0] = random_bits(rng, dims[1:], 0.1)
        sites, queries = np.argwhere(sites), np.argwhere(random_bits(rng, dims, 0.5))
        got = surface._nearest_distances(sites, queries, dims, steps)
        want = _field_values(sites, queries, dims, steps)
        np.testing.assert_array_equal(got, want, strict=True)
        assert np.isinf(got[queries[:, 0] > 0]).all() and np.isfinite(got).any()

    def test_island_pair_leaves_only_the_island_over(self, monkeypatch):
        dims = (64, 64, 48)
        manual = sphere_bits(dims, (16, 16, 12), 8)
        auto = _ball_with_outlier(dims, (17, 16, 12), 8, (60, 60, 44))
        for space in ("index", "physical"):
            spacing = (0.9, 1.1, 1.3)
            a_mask, m_mask = make_mask(auto, spacing), make_mask(manual, spacing)
            oracle = surface_metrics_bruteforce(
                extract_surface(a_mask, space=space), extract_surface(m_mask, space=space)
            )
            with monkeypatch.context() as m:
                m.setattr(surface, "surface_metrics_bruteforce", _must_not_run("brute-force"))
                engine, got, expected = _leftover_calls(a_mask, m_mask, space, m)
            for name in ("hausdorff", "rms", "assd", "mean_distance", "directed_h_am"):
                assert abs(getattr(engine, name) - getattr(oracle, name)) <= 1e-9
            assert engine.hausdorff == engine.directed_h_am > 40
            # the balls settle in the distance-order search; the island alone is left over
            assert got == expected == [[(52, 52, 40)]]


@st.composite
def _site_layouts(draw):
    """Sites and queries for the leftover search on a box of up to 30³.

    Sites are speckle, some of them one-site groups, plus at times a solid
    slab that fills whole groups; queries are speckle too, many of them
    inside a group's box or far from every site, and some lie on sites.
    Each step is ordinary, or one whose square overflows or underflows.
    """
    dims = tuple(draw(st.integers(1, 30)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = rng.random(dims) < draw(st.sampled_from((0.0005, 0.005, 0.05)))
    if draw(st.booleans()):
        axis = draw(st.integers(0, 2))
        first = draw(st.integers(0, dims[axis] - 1))
        slab = [slice(None)] * 3
        slab[axis] = slice(first, first + draw(st.integers(1, 3)))
        sites[tuple(slab)] = True
    sites.flat[rng.integers(sites.size)] = True
    queries = rng.random(dims) < draw(st.sampled_from((0.002, 0.02, 0.1)))
    queries |= sites & (rng.random(dims) < 0.05)
    queries.flat[rng.integers(queries.size)] = True
    steps = tuple(draw(st.sampled_from((1.0, 0.7, 2.5, 1e200, 1e-200))) for _ in range(3))
    return np.argwhere(sites), np.argwhere(queries), dims, steps


class TestTileSearch:
    """The leftover search against a plain minimum over every site."""

    @settings(max_examples=60, deadline=None)
    @given(_site_layouts(), st.sampled_from((1, 40, 2000, 1 << 18)))
    def test_equals_the_plain_minimum_bit_for_bit(self, layout, budget):
        sites, queries, dims, steps = layout
        terms = [surface._axis_terms(s * s, n) for s, n in zip(steps, dims)]
        with mock.patch.object(surface, "_BUDGET", budget):
            got = surface._tile_search(sites, queries, terms)
        want = _plain_squared(sites, queries, steps)
        np.testing.assert_array_equal(got, want, strict=True)

    def test_memory_stays_bounded_against_a_solid_block(self):
        # 32 groups of 1,728 sites; 20,736 queries 7 to 15 voxels off one face.
        # A block of 8,192 queries times one group would be 14 M distances.
        sites = np.argwhere(np.ones((24, 48, 48), dtype=bool))
        queries = np.argwhere(np.ones((9, 48, 48), dtype=bool)) + np.array([30, 0, 0])
        terms = [surface._axis_terms(1.0, n) for n in (39, 48, 48)]
        tracemalloc.start()
        try:
            got = surface._tile_search(sites, queries, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        np.testing.assert_array_equal(got, (queries[:, 0] - 23.0) ** 2)


def _directed_distances(mask_a, mask_r, space):
    """Both directed nearest-surface distances, on the surfaces' box as
    :func:`compare_surfaces` computes them, with the auto surface indices."""
    s_a = extract_surface(mask_a, space=space)
    s_r = extract_surface(mask_r, space=space)
    both = np.vstack([s_a.indices, s_r.indices])
    lo = both.min(axis=0)
    dims = tuple(int(n) for n in both.max(axis=0) - lo + 1)
    steps = mask_a.spacing if space == "physical" else (1.0, 1.0, 1.0)
    a, r = s_a.indices - lo, s_r.indices - lo
    d_am = surface._nearest_distances(r, a, dims, steps)
    d_ma = surface._nearest_distances(a, r, dims, steps)
    return s_a.indices, d_am, d_ma


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(*[st.floats(0.8, 1.6)] * 3),
    st.tuples(*[st.integers(30, 39)] * 3),
    st.sampled_from(("index", "physical")),
)
def test_a_far_island_adds_only_its_own_term(seed, spacing, island, space):
    # every surface voxel lies in [0, 10)³, so the island is at least 20
    # voxels out on every axis: farther, at a spacing ratio of at most 2,
    # than any voxel there is from its nearest opposing surface voxel
    rng = np.random.default_rng(seed)
    dims = (40, 40, 40)
    manual = np.zeros(dims, dtype=bool)
    auto = np.zeros(dims, dtype=bool)
    manual[:10, :10, :10] = random_bits(rng, (10, 10, 10), rng.uniform(0.1, 0.8))
    auto[:10, :10, :10] = random_bits(rng, (10, 10, 10), rng.uniform(0.1, 0.8))
    with_island = auto.copy()
    with_island[island] = True
    m_mask = make_mask(manual, spacing)
    a_idx, d_am, d_ma = _directed_distances(make_mask(auto, spacing), m_mask, space)
    a_idx2, d_am2, d_ma2 = _directed_distances(make_mask(with_island, spacing), m_mask, space)
    assert a_idx2[-1].tolist() == list(island)  # row-major order puts it last
    np.testing.assert_array_equal(a_idx2[:-1], a_idx)
    np.testing.assert_array_equal(d_am2[:-1], d_am, strict=True)
    np.testing.assert_array_equal(d_ma2, d_ma, strict=True)
    assert d_am2[-1] > d_am.max()


def _sparse_pair(rng, dims=(18, 17, 16)):
    """Two random masks confined to random sub-boxes of a larger grid."""
    pair = []
    for _ in range(2):
        bits = np.zeros(dims, dtype=np.uint8)
        lo = [int(rng.integers(0, n // 2)) for n in dims]
        hi = [int(rng.integers(l + 2, n + 1)) for l, n in zip(lo, dims)]
        box = tuple(slice(l, h) for l, h in zip(lo, hi))
        bits[box] = random_bits(rng, bits[box].shape, rng.uniform(0.2, 0.8))
        pair.append(bits)
    return pair


class TestCroppedMasks:
    def test_surface_indices_match_the_full_grid(self, rng, tmp_path):
        rule = BinarizeRule.nonzero()
        for _ in range(15):
            cropped, full = loaded_pair(tmp_path, *_sparse_pair(rng), rule)
            for crop, whole in zip(cropped, full):
                for connectivity in (6, 26):
                    np.testing.assert_array_equal(
                        extract_surface(crop, connectivity=connectivity).indices,
                        extract_surface(whole, connectivity=connectivity).indices,
                    )

    def test_distances_match_the_full_grid(self, rng, tmp_path):
        rule = BinarizeRule.nonzero()
        for _ in range(8):
            cropped, full = loaded_pair(tmp_path, *_sparse_pair(rng), rule, (0.781, 0.781, 2.0))
            for space in ("index", "physical"):
                assert compare_surfaces(*cropped, space=space) == compare_surfaces(
                    *full, space=space
                )

    @pytest.mark.parametrize("auto_empty, manual_empty", [(True, False), (True, True)])
    def test_empty_pairs_raise_as_on_the_full_grid(self, tmp_path, auto_empty, manual_empty):
        ball = sphere_bits((9, 9, 9), (4, 4, 4), 2).astype(np.uint8)
        empty = np.zeros_like(ball)
        auto = empty if auto_empty else ball
        manual = empty if manual_empty else ball
        full = [binarize(make_volume(bits), BinarizeRule.nonzero()) for bits in (auto, manual)]
        with pytest.raises(EmptyMask) as on_full:
            compare_surfaces(*full)
        case = CaseSpec(
            subject_id="s",
            method="m",
            structure="left",
            auto_path=str(write_rawvol(tmp_path / "a.rawvol", auto)),
            manual_path=str(write_rawvol(tmp_path / "m.rawvol", manual)),
        )
        with pytest.raises(EmptyMask) as in_pipeline:
            compute_record(case, EvalConfig())
        assert str(in_pipeline.value) == str(on_full.value)
