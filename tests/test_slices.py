import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from mbkit import dynamics, slices
from mbkit.dynamics import IterationParams, escape_bound, grid_counts_complex
from mbkit.hypercomplex import (
    Tricomplex,
    UnitIndex,
    complex4_rows,
    distinct_components,
    in_discus,
    iteration_span_units,
    to_complex4,
)
from mbkit.roots import MANDELBRIC_REAL_BOUND
from mbkit.slices import (
    PRINCIPAL_SLICES,
    ConjugacyMap,
    SliceSpec,
    VoxelGrid,
    cell_centers,
    classify_principal,
    conjugacy_catalog,
    embed_slice_point,
    enumerate_slices,
    sample_slice,
    verify_conjugacy,
)

U = UnitIndex


def test_enumerate_slices():
    specs = enumerate_slices()
    assert len(specs) == 56
    keys = [s.canonical_key for s in specs]
    assert len(set(keys)) == 56
    assert keys == sorted(keys)  # deterministic canonical order
    assert SliceSpec.of(U.ONE, U.I1, U.I2).canonical_key in keys
    assert SliceSpec.of(U.J1, U.J2, U.J3).canonical_key in keys


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec.of(U.ONE, U.ONE, U.I1)
    with pytest.raises(ValueError, match="^slice units must be distinct, got 1,j1,j1$"):
        SliceSpec.parse("1,j1,j1")
    with pytest.raises(ValueError, match="^need three distinct units, got 1,j1,j1$"):
        iteration_span_units((U.ONE, U.J1, U.J1))
    with pytest.raises(ValueError):
        SliceSpec.parse("1,i1")
    assert SliceSpec.parse("1,j1,j2") == PRINCIPAL_SLICES["Perplexbric"]


def test_embed_slice_point_examples():
    c = embed_slice_point(SliceSpec.parse("1,j1,j2"), (0.1, 0.2, 0.3))
    assert c == Tricomplex((0.1, 0, 0, 0, 0, 0.2, 0.3, 0))
    assert embed_slice_point(SliceSpec.parse("i1,i2,i3"), (1, 2, 3)) == \
        Tricomplex((0, 1, 2, 3, 0, 0, 0, 0))
    assert embed_slice_point(SliceSpec.parse("i2,j3,i4"), (0, 0, 0)) == Tricomplex.zero()


# --- conjugacy catalog ---------------------------------------------------------


def test_catalog_holds_the_explicit_bridges():
    cat = conjugacy_catalog(3)
    pairs = {(m.source.canonical_key, m.target.canonical_key) for m in cat}
    tetra = SliceSpec.of(U.ONE, U.I1, U.I2).canonical_key
    assert (tetra, SliceSpec.of(U.I1, U.I2, U.J1).canonical_key) in pairs
    assert (tetra, SliceSpec.of(U.I1, U.I2, U.J2).canonical_key) in pairs
    assert (SliceSpec.of(U.ONE, U.I1, U.J1).canonical_key,
            SliceSpec.of(U.I1, U.J1, U.J2).canonical_key) in pairs
    assert (SliceSpec.of(U.ONE, U.J1, U.J2).canonical_key,
            SliceSpec.of(U.J1, U.J2, U.J3).canonical_key) in pairs


def test_catalog_maps_all_verify():
    for m in conjugacy_catalog(3):
        report = verify_conjugacy(m, 3, n_samples=1000, tol=1e-9, seed=11)
        assert report.passed, (m.source, m.target, report.max_residual)


def test_identity_map_verifies():
    spec = PRINCIPAL_SLICES["Tetrabric"]
    ident = ConjugacyMap(spec, spec, tuple((u, 1, u) for u in spec.span4))
    assert verify_conjugacy(ident, 3, 500).passed


def test_inverse_maps_verify():
    for m in conjugacy_catalog(3)[:6]:
        assert verify_conjugacy(m.inverse(), 3, 500).passed


def test_wrong_sign_is_reported_with_witness():
    m = conjugacy_catalog(3)[0]
    u, s, v = m.phi[0]
    broken = ConjugacyMap(m.source, m.target, ((u, -s, v),) + m.phi[1:])
    report = verify_conjugacy(broken, 3, 500)
    assert not report.passed
    assert report.witness is not None
    eta, c, residual = report.witness
    assert residual == report.max_residual > 1e-9


def test_verify_conjugacy_needs_a_sample():
    m = conjugacy_catalog(3)[0]
    with pytest.raises(ValueError, match="n_samples < 1"):
        verify_conjugacy(m, 3, n_samples=0)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_verify_conjugacy_rejects_a_tolerance_that_is_not_positive(tol):
    # A NaN tolerance would fail every residual, a true conjugacy included.
    m = conjugacy_catalog(3)[0]
    with pytest.raises(ValueError, match="^tol must be positive$"):
        verify_conjugacy(m, 3, n_samples=10, tol=tol)


def _sign_flips(m):
    for k, (u, s, v) in enumerate(m.phi):
        yield ConjugacyMap(m.source, m.target, m.phi[:k] + ((u, -s, v),) + m.phi[k + 1:])


def test_exact_rule_accepts_every_catalog_map_and_inverse():
    for m in conjugacy_catalog(3):
        assert slices._is_conjugacy(m, 3), (m.source, m.target)
        assert slices._is_conjugacy(m.inverse(), 3), (m.target, m.source)


def test_exact_rule_rejects_every_sign_flip_and_a_unit_swap():
    flips = [f for m in conjugacy_catalog(3) for f in _sign_flips(m)]
    assert len(flips) == 208
    for f in flips:
        assert not slices._is_conjugacy(f, 3), (f.source, f.target, f.phi)
    # T(1,i1,i2) ~ T(i1,i2,j1) with the images of 1 and i1 swapped:
    # 1 -> i1 cannot commute with cubing, since i1**3 = -i1.
    bridge = conjugacy_catalog(3)[0]
    swapped = ConjugacyMap(bridge.source, bridge.target, (
        (U.ONE, 1, U.I1), (U.I1, 1, U.J1), (U.I2, 1, U.I2), (U.J1, 1, U.ONE)))
    assert not slices._is_conjugacy(swapped, 3)
    assert not verify_conjugacy(swapped, 3, 500).passed


def test_catalog_rejects_a_bridge_map_that_is_not_a_conjugacy(monkeypatch):
    good = slices._fixed_bridge_maps()
    bad = next(_sign_flips(good[0]))
    monkeypatch.setattr(slices, "_fixed_bridge_maps", lambda: [bad] + good[1:])
    conjugacy_catalog.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="is not a conjugacy"):
            conjugacy_catalog(3)
    finally:
        conjugacy_catalog.cache_clear()


def test_catalog_rejects_a_family_member_no_map_reaches(monkeypatch):
    # No signed unit permutation conjugates T(1,i1,i2), a Tetrabric slice,
    # to T(i1,i2,i3), a Metabric one.
    families = slices._slice_families()
    monkeypatch.setattr(slices, "_slice_families", lambda: [
        families[0] + [PRINCIPAL_SLICES["Metabric"]]] + families[1:])
    conjugacy_catalog.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"^no conjugacy found from "
                           r"T\(1,i1,i2\) to T\(i1,i2,i3\)$"):
            conjugacy_catalog(3)
    finally:
        conjugacy_catalog.cache_clear()


def test_catalog_is_a_spanning_forest():
    # Each map joins two classes that the maps before it have not joined,
    # so no map is redundant; after the bridges, every map starts at the
    # first slice of its family.
    cat = conjugacy_catalog(3)
    joined = {s.canonical_key: {s.canonical_key} for s in enumerate_slices()}
    for m in cat:
        a, b = joined[m.source.canonical_key], joined[m.target.canonical_key]
        assert a is not b, (m.source, m.target)
        a |= b
        joined.update(dict.fromkeys(b, a))
    assert len(cat) == 56 - classify_principal(3).class_count == 52
    bridges = len(slices._fixed_bridge_maps())
    assert [m.source for m in cat[bridges:]] == [
        family[0] for family in slices._slice_families() for _ in family[1:]]


def test_catalog_and_classification_draw_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("the exact rule drew random numbers")

    monkeypatch.setattr(slices.np.random, "default_rng", no_rng)
    conjugacy_catalog.cache_clear()
    try:
        assert len(conjugacy_catalog(3)) == 52
        assert classify_principal(3).class_count == 4
    finally:
        conjugacy_catalog.cache_clear()


def test_catalog_is_pinned():
    # The sources, targets and signed unit maps of every catalog map, in
    # catalog order: a change to the search, or to what it accepts, moves it.
    text = repr([(m.source.label(), m.target.label(),
                  tuple((u.label, s, v.label) for u, s, v in m.phi))
                 for m in conjugacy_catalog(3)])
    assert len(conjugacy_catalog(3)) == 52
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "de728dccfb84e69663bc2aa870fc422751bb3cf77cd48fe542a63fccdcca6c56")


def test_catalog_requires_p3():
    with pytest.raises(ValueError):
        conjugacy_catalog(2)


def test_classification_four_classes():
    cl = classify_principal(3)
    assert cl.class_count == 4
    assert sorted(len(c) for c in cl.classes) == [4, 4, 24, 24]
    for name, rep in PRINCIPAL_SLICES.items():
        assert cl.name_of(rep) == name


def test_classification_expected_members():
    cl = classify_principal(3)
    meta_keys = {s.canonical_key for s in cl.class_of(PRINCIPAL_SLICES["Metabric"])}
    from itertools import combinations
    for trio in combinations((U.I1, U.I2, U.I3, U.I4), 3):
        assert SliceSpec(tuple(trio)).canonical_key in meta_keys
    perp_keys = {s.canonical_key for s in cl.class_of(PRINCIPAL_SLICES["Perplexbric"])}
    assert SliceSpec.of(U.J1, U.J2, U.J3).canonical_key in perp_keys
    hour_keys = {s.canonical_key for s in cl.class_of(PRINCIPAL_SLICES["Hourglassbric"])}
    assert SliceSpec.of(U.I3, U.J2, U.J3).canonical_key in hour_keys




# --- voxel sampling --------------------------------------------------------------


def test_cell_centers_symmetric_windows_mirror_exactly():
    xs = cell_centers(-0.4, 0.4, 37)
    assert np.array_equal(xs, -xs[::-1])
    xs = cell_centers(-1.5, 1.5, 256)
    assert np.array_equal(xs, -xs[::-1])


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (1.7e308, 1.79e308)])
def test_cell_centers_rejects_windows_whose_width_or_midpoint_overflows(lo, hi):
    with pytest.raises(ValueError, match="overflows"):
        cell_centers(lo, hi, 3)


def test_origin_cell_is_member_for_any_spec():
    params = IterationParams(3, 60)
    for spec in (PRINCIPAL_SLICES["Tetrabric"], PRINCIPAL_SLICES["Metabric"],
                 SliceSpec.parse("i2,j1,j3")):
        g = sample_slice(spec, ((-0.1, 0.1),) * 3, (3, 3, 3), params)
        assert g.member_mask()[1, 1, 1]


def test_plane_slice_matches_complex_raster_bitwise():
    # The z = 0 plane of the (1, i1, i2) slice is the 2D degree-3 set.
    params = IterationParams(3, 200)
    n = 48
    spec = PRINCIPAL_SLICES["Tetrabric"]
    h = 3.0 / n
    g = sample_slice(spec, ((-1.5, 1.5), (-1.5, 1.5), (-h / 2, h / 2)),
                     (n, n, 1), params)
    xs = cell_centers(-1.5, 1.5, n)
    grid = xs[:, None] + 1j * xs[None, :]
    counts, _ = grid_counts_complex(grid.ravel(), params)
    assert np.array_equal(g.cells[:, :, 0], counts.reshape(n, n))


def test_perplexbric_grid_matches_analytic_outside_band():
    params = IterationParams(3, 500)
    n = 40
    spec = PRINCIPAL_SLICES["Perplexbric"]
    g = sample_slice(spec, ((-0.5, 0.5),) * 3, (n, n, n), params)
    xs = cell_centers(-0.5, 0.5, n)
    gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
    l1 = np.abs(gx) + np.abs(gy) + np.abs(gz)
    band = 3.0 / n  # one-cell band in the l1 metric
    analytic = l1 <= MANDELBRIC_REAL_BOUND
    away = np.abs(l1 - MANDELBRIC_REAL_BOUND) > band
    assert np.array_equal(g.member_mask()[away], analytic[away])


def test_voxel_grid_metadata_and_volume():
    params = IterationParams(3, 100)
    g = sample_slice(PRINCIPAL_SLICES["Perplexbric"], ((-0.5, 0.5),) * 3,
                     (16, 16, 16), params)
    assert g.dims == (16, 16, 16)
    assert g.cells.shape == (16, 16, 16)
    assert g.spacing == (1 / 16, 1 / 16, 1 / 16)
    assert g.origin == (-0.5 + 1 / 32,) * 3
    assert g.volume_estimate() == g.member_count() * (1 / 16) ** 3
    assert 0.0 < g.volume_estimate() < 1.0


def test_mbv1_export_format(tmp_path):
    params = IterationParams(3, 50)
    g = sample_slice(PRINCIPAL_SLICES["Tetrabric"], ((-1.2, 1.2),) * 3,
                     (6, 5, 4), params)
    path = tmp_path / "grid.mbv1"
    g.write_mbv1(path)
    blob = path.read_bytes()
    header, _, payload = blob.partition(b"\n")
    tokens = header.decode("ascii").split()
    assert tokens[0] == "MBV1"
    assert tokens[1:5] == ["dims", "6", "5", "4"]
    assert tokens[5] == "origin" and tokens[9] == "spacing"
    assert tokens[13:] == ["max_iter", "50"]
    counts = np.frombuffer(payload, dtype="<u4").reshape(6, 5, 4)
    assert np.array_equal(counts, g.cells)


def test_pointcloud_export(tmp_path):
    params = IterationParams(3, 80)
    g = sample_slice(PRINCIPAL_SLICES["Perplexbric"], ((-0.5, 0.5),) * 3,
                     (10, 10, 10), params)
    path = tmp_path / "cloud.xyz"
    g.write_pointcloud(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == g.member_count()
    x, y, z = (float(v) for v in lines[0].split())
    assert abs(x) <= 0.5 and abs(y) <= 0.5 and abs(z) <= 0.5
    # Same bytes as formatting origin + index * spacing on every line, on
    # distinct axes whose products round.
    g = VoxelGrid(g.spec, (-0.3, 0.1, 0.7), (0.1, 0.03, 1 / 3), (4, 3, 5), 5,
                  np.arange(60, dtype=np.uint32).reshape(4, 3, 5) % 6)
    g.write_pointcloud(path)
    (ox, oy, oz), (sx, sy, sz) = g.origin, g.spacing
    assert path.read_text() == "".join(
        f"{ox + i * sx!r} {oy + j * sy!r} {oz + k * sz!r}\n"
        for i, j, k in np.argwhere(g.member_mask()).tolist())


def test_pointcloud_writer_holds_one_plane(tmp_path):
    # Every cell a member; the writer holds one 1,024-member x-plane at a
    # time.  Collecting the whole grid's index triples took about 107 bytes
    # per member.
    dims = (64, 32, 32)
    g = VoxelGrid(PRINCIPAL_SLICES["Perplexbric"], (-0.5, -0.5, -0.5),
                  (1 / 64, 1 / 32, 1 / 32), dims, 5, np.full(dims, 5, dtype=np.uint32))
    path = tmp_path / "cloud.xyz"
    tracemalloc.start()
    try:
        g.write_pointcloud(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    members = g.member_count()
    assert members == 64 * 32 * 32
    assert path.read_text().count("\n") == members
    assert peak <= 16 * members


def test_member_count_holds_one_plane():
    # Every other x-plane all members: a full-grid mask would take one byte
    # per cell, 262,144 here; one x-plane's mask takes 4,096.
    dims = (64, 64, 64)
    cells = np.full(dims, 5, dtype=np.uint32)
    cells[::2] = 4
    g = VoxelGrid(PRINCIPAL_SLICES["Perplexbric"], (-0.5, -0.5, -0.5),
                  (1 / 64, 1 / 64, 1 / 64), dims, 5, cells)
    tracemalloc.start()
    try:
        members = g.member_count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members == 32 * 64 * 64 == int(np.sum(cells == 5))
    assert g.volume_estimate() == members * (1 / 64) ** 3
    assert peak <= cells.size // 16


def test_exports_byte_deterministic(tmp_path):
    params = IterationParams(3, 60)
    blobs = []
    for k in range(2):
        g = sample_slice(PRINCIPAL_SLICES["Perplexbric"], ((-0.5, 0.5),) * 3,
                         (12, 12, 12), params, threads=1 + 2 * k)
        p1 = tmp_path / f"a{k}.mbv1"
        p2 = tmp_path / f"a{k}.xyz"
        g.write_mbv1(p1)
        g.write_pointcloud(p2)
        blobs.append((p1.read_bytes(), p2.read_bytes()))
    assert blobs[0] == blobs[1]


def test_tetrabric_grid_symmetric_under_coordinate_negation():
    params = IterationParams(3, 150)
    g = sample_slice(PRINCIPAL_SLICES["Tetrabric"], ((-1.2, 1.2),) * 3,
                     (24, 24, 24), params)
    assert g.member_count() > 0
    cells = g.cells
    assert np.array_equal(cells, cells[::-1, ::-1, ::-1])  # c -> -c
    assert np.array_equal(cells, cells[:, ::-1, :])        # i1 -> -i1
    assert np.array_equal(cells, cells[:, :, ::-1])        # i2 -> -i2


def test_window_outside_bounding_discus_is_empty():
    params = IterationParams(3, 100)
    g = sample_slice(PRINCIPAL_SLICES["Tetrabric"], ((5.0, 6.0),) * 3,
                     (8, 8, 8), params)
    assert g.member_count() == 0


# --- chunked sampling ----------------------------------------------------------


# The whole window through sample_slice, or ("prune") the flat rows of its
# cells inside the bounding discus through grid_counts_tricomplex, as
# slices.prune_soundness passes them.
@pytest.mark.parametrize("pruned", [False, True], ids=["full", "prune"])
# The principal slices, and a span from each bicomplex subalgebra other than
# Tetrabric's, sampled on their two distinct components; the reference
# iterates all four.
@pytest.mark.parametrize("name", list(PRINCIPAL_SLICES) + ["1,i1,i3", "1,i4,j3"])
def test_streamed_sampling_matches_whole_window(name, pruned, monkeypatch,
                                                sample_slice_whole_window,
                                                discus_reference):
    # Pretend to have 8 CPUs, and let every worker take a block of any
    # size, so threads 2 and 3 split the window's cells.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)
    params = IterationParams(3, 40)
    spec = PRINCIPAL_SLICES.get(name) or SliceSpec.parse(name)
    dims = (13, 7, 11)  # 1001 cells, 77 per x-plane
    # A symmetric window puts cell centers on 0 in every axis; the other is not.
    for window in (((-1.5, 1.5),) * 3, ((-1.3, 0.4), (-0.2, 1.1), (-0.9, 0.7))):
        ref = sample_slice_whole_window(spec, window, dims, params)
        assert 0 < ref.member_count() < ref.cells.size
        if pruned:
            axes = [cell_centers(lo, hi, n) for (lo, hi), n in zip(window, dims)]
            coords = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
            x8 = np.zeros((8, ref.cells.size))
            x8[list(spec.units)] = coords
            inside = discus_reference(x8, escape_bound(params.p))
            assert inside.any() and not inside.all()
            flat = _slice_rows(spec, [c[inside] for c in coords])
        # One cell per chunk, less than one x-plane, a size that does not
        # divide the cell count, and the whole window in one chunk.
        for chunk, threads in ((1, 1), (50, 1), (50, 2), (173, 3), (1 << 18, 2)):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            if pruned:
                counts, _ = dynamics.grid_counts_tricomplex(flat, params, threads=threads)
                assert np.array_equal(counts, ref.cells.ravel()[inside]), (window, chunk)
                continue
            g = sample_slice(spec, window, dims, params, threads=threads)
            assert g == ref
            assert g.cells.dtype == ref.cells.dtype
            assert np.array_equal(g.cells, ref.cells), (window, chunk, threads)


@pytest.mark.parametrize("spec", enumerate_slices(), ids=SliceSpec.label)
def test_distinct_values_match_the_whole_window_on_every_span(spec, rng, monkeypatch,
                                                              sample_slice_whole_window):
    # Every span through the distinct-value tricomplex path, which windows
    # this small take only with _MIN_SHARING at 0, against the joint kernel
    # on the whole window: at p = 2, 3 and 5, a symmetric window reaching
    # past the set and one shifted by a seeded fraction of a cell in each
    # axis; at p = 3 also a window one cell thick.
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    for params, dims in ((IterationParams(3, 200), (12, 10, 14)),
                         (IterationParams(2, 100), (8, 7, 9)),
                         (IterationParams(5, 100), (8, 7, 9))):
        half = 0.85 * escape_bound(params.p)
        shift = rng.uniform(-0.5, 0.5, 3) * 2 * half / np.array(dims)
        windows = [((-half, half),) * 3, tuple((-half + d, half + d) for d in shift)]
        for window in windows:
            ref = sample_slice_whole_window(spec, window, dims, params)
            assert 0 < ref.member_count() < ref.cells.size
            g = sample_slice(spec, window, dims, params)
            assert np.array_equal(g.cells, ref.cells), (params.p, window)
    thin = (12, 1, 14)
    window = ((-1.2, 1.2), (-0.05, 0.05), (-1.2, 1.2))
    ref = sample_slice_whole_window(spec, window, thin, IterationParams(3, 200))
    assert 0 < ref.member_count() < ref.cells.size
    g = sample_slice(spec, window, thin, IterationParams(3, 200))
    assert np.array_equal(g.cells, ref.cells)


def test_discus_mask_does_not_depend_on_batch_size(rng):
    # Points scaled onto the discus boundary, where the last bit of the
    # component norms decides membership.
    radius = escape_bound(3)
    x8 = rng.standard_normal((8, 2000))
    x8 *= radius / np.sqrt(np.maximum(
        ((x8[0] + x8[7]) ** 2 + (x8[1] + x8[4]) ** 2 + (x8[2] - x8[3]) ** 2
         + (x8[5] - x8[6]) ** 2),
        ((x8[0] - x8[7]) ** 2 + (x8[1] - x8[4]) ** 2 + (x8[2] + x8[3]) ** 2
         + (x8[5] + x8[6]) ** 2)))
    whole = in_discus(list(x8), radius)
    assert whole.any() and not whole.all()
    single = [in_discus([r[k:k + 1] for r in x8], radius)[0]
              for k in range(x8.shape[1])]
    assert np.array_equal(whole, single)


def _slice_rows(spec, coords):
    # The coefficient rows sample_slice passes: the slice's three, None
    # for the five zero ones.
    x = [None] * 8
    for u, row in zip(spec.units, coords):
        x[u] = row
    return x


def test_four_spans_have_real_components():
    # complex4_rows decides the dtype from the rows present: float64 for
    # exactly the spans without an i-unit.
    coords = np.ones((3, 5))
    real = [s.label() for s in enumerate_slices()
            if complex4_rows(_slice_rows(s, coords)).dtype == np.float64]
    assert real == ["1,j1,j2", "1,j1,j3", "1,j2,j3", "j1,j2,j3"]
    assert all(complex4_rows(_slice_rows(s, coords)).dtype == np.complex128
               for s in enumerate_slices() if s.label() not in real)


# The bicomplex subalgebras, each with the row of to_complex4 that each of
# its four rows repeats.
_REPEATS = {
    frozenset((U.ONE, U.I1, U.I2, U.J1)): (0, 1, 0, 1),
    frozenset((U.ONE, U.I1, U.I3, U.J2)): (0, 1, 1, 0),
    frozenset((U.ONE, U.I1, U.I4, U.J3)): (0, 0, 2, 2),
}


def _repeats(spec):
    return next((rows for algebra, rows in _REPEATS.items()
                 if set(spec.units) <= algebra), (0, 1, 2, 3))


def test_twelve_spans_iterate_two_components():
    reduced = [s.label() for s in enumerate_slices()
               if len(distinct_components(s.units)) == 2]
    assert reduced == ["1,i1,i2", "1,i1,i3", "1,i1,i4", "1,i1,j1", "1,i1,j2",
                       "1,i1,j3", "1,i2,j1", "1,i3,j2", "1,i4,j3", "i1,i2,j1",
                       "i1,i3,j2", "i1,i4,j3"]
    # Tetrabric and Hourglassbric lie in {1, i1, i2, j1}.
    for name in ("Tetrabric", "Hourglassbric"):
        assert distinct_components(PRINCIPAL_SLICES[name].units) == (0, 1)
    for name in ("Perplexbric", "Metabric"):
        assert distinct_components(PRINCIPAL_SLICES[name].units) == (0, 1, 2, 3)


@pytest.mark.parametrize("spec", enumerate_slices(), ids=SliceSpec.label)
def test_slice_native_components_match_the_full_batch(spec, rng, tricomplex_components,
                                                      discus_reference):
    # The component rows complex4_rows builds from the three axis rows alone,
    # as grid_counts_tricomplex does for the joint kernel, against those of
    # the embedded (8, n) batch: signed zeros, and points scaled onto the
    # discus boundary, where the last bit decides pruning.
    radius = escape_bound(3)
    coords = rng.standard_normal((3, 3000))
    coords[:, :600] = rng.choice([-0.0, 0.0, 0.25, -1.0], (3, 600))
    x8 = np.zeros((8, coords.shape[1]))
    x8[list(spec.units)] = coords
    ref = to_complex4(x8)
    n1, n2 = (np.abs(ref[0]) ** 2 + np.abs(ref[1]) ** 2,
              np.abs(ref[2]) ** 2 + np.abs(ref[3]) ** 2)
    scale = np.ones(coords.shape[1])
    scale[600:] = radius / np.sqrt(np.maximum(n1, n2)[600:] / 2.0)
    coords *= scale
    x8 *= scale
    x = _slice_rows(spec, coords)
    w = complex4_rows(x)
    # The layout follows from the units: the distinct rows, float64 exactly
    # when no unit is an i-unit, in an array of its own.
    components = distinct_components(spec.units)
    real = not any(U.I1 <= u <= U.I4 for u in spec.units)
    assert w.shape == (len(components), coords.shape[1])
    assert w.dtype == (np.float64 if real else np.complex128)
    assert not any(np.shares_memory(w, r) for r in coords)
    assert not np.shares_memory(w, complex4_rows(x))
    # Equal under ==, the way no norm, power or comparison can tell apart.
    ref = to_complex4(x8)
    kept = ref[list(components)]
    assert np.array_equal(w, kept.real if real else kept)
    scan = tricomplex_components(x8)
    assert w.dtype == scan.dtype and np.array_equal(w, scan[list(components)])
    keep = in_discus(x, radius)
    assert np.array_equal(keep, discus_reference(x8, radius))
    assert keep[600:].any() and not keep[600:].all()
    # Exactly the spans inside a bicomplex subalgebra iterate fewer rows:
    # each dropped row equals the kept row it repeats, and no two kept rows
    # are equal, so no other span could drop one.
    repeats = _repeats(spec)
    assert components == tuple(sorted(set(repeats)))
    for row, kept in enumerate(repeats):
        assert np.array_equal(ref[row], ref[kept]), (row, kept)
    for a in components:
        for b in components:
            assert a == b or not np.array_equal(ref[a], ref[b]), (a, b)


def _sampling_peak(n):
    params = IterationParams(3, 8)
    tracemalloc.start()
    try:
        g = sample_slice(PRINCIPAL_SLICES["Perplexbric"], ((-0.5, 0.5),) * 3,
                         (n, n, n), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.cells.shape == (n, n, n)
    return peak


def test_sample_slice_memory_is_flat_in_dims():
    # Beyond the 4-byte counts, sampling holds the 1-byte member flags and
    # tables over one or two axes; the whole-window batch took about 368
    # bytes per cell.
    small, large = _sampling_peak(64), _sampling_peak(128)
    assert large - small <= 8 * (128 ** 3 - 64 ** 3)


def test_planes_larger_than_a_chunk_are_walked_in_parts():
    # A 512^2 plane holds four 2^16-cell chunks.  Walked a plane at a time,
    # the settle's per-block ids and lookups took a tracemalloc peak of
    # 41.1 MB, against 19.8 MB in blocks of at most a chunk (one worker).
    tracemalloc.start()
    try:
        g = sample_slice(PRINCIPAL_SLICES["Perplexbric"], ((-0.5, 0.5),) * 3,
                         (2, 512, 512), IterationParams(3, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < g.member_count() < g.cells.size
    assert peak <= 5 * g.cells.size + 24_000_000


def test_shifted_tetrabric_sampling_holds_no_dense_step_table():
    # A Tetrabric 96^3 window shifted by fractions of a cell, whose rows
    # take 36,672 distinct values: a table of each at 64 steps took 18.8 MB,
    # of which a cell can read the steps before the value's E_v only.
    # tracemalloc peaks at 35.8 MB with the dense table and 19.3 MB with
    # the entries a cell can read (one worker).
    h = 3.0 / 96
    window = [(-1.5 + f * h, 1.5 + f * h) for f in (0.31, -0.17, 0.42)]
    tracemalloc.start()
    try:
        g = sample_slice(PRINCIPAL_SLICES["Tetrabric"], window, (96, 96, 96),
                         IterationParams(3, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < g.member_count() < g.cells.size
    assert peak <= 24_000_000
