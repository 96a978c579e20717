import math
import os

import numpy as np
import pytest

from mbkit import dynamics
from mbkit.dynamics import (
    OVERFLOW_NORM,
    EscapeResult,
    IterationParams,
    escape_bound,
    grid_counts_complex,
    grid_counts_hyperbolic,
    grid_counts_real,
    grid_counts_tricomplex,
    iterate_complex,
    iterate_hyperbolic,
    iterate_tricomplex,
    member_hyperbric_analytic,
    member_multibrot,
    member_perplexbric_analytic,
    member_perplexbric_union_form,
    orbit_complex,
    orbit_real,
    real_axis_extent,
)
from mbkit.hypercomplex import Bicomplex, Hyperbolic, Tricomplex, to_complex4, to_idempotent
from mbkit.roots import MANDELBRIC_REAL_BOUND
from mbkit.slices import SliceSpec, cell_centers
from mbkit.suites import _bicomplex_member


def test_params_validation():
    assert IterationParams(3).escape_radius == math.sqrt(2.0)
    assert IterationParams(2).escape_radius == 2.0
    with pytest.raises(ValueError):
        IterationParams(1)
    with pytest.raises(ValueError):
        IterationParams(3, 0)
    with pytest.raises(ValueError):
        IterationParams(3, 100, 1.0)  # below the sharp bound
    assert IterationParams(3, 100, 2.0).escape_radius == 2.0


def test_iterate_complex_examples():
    assert iterate_complex(0j, IterationParams(3, 200)) == EscapeResult(False, 200, 0.0)
    r = iterate_complex(2 + 0j, IterationParams(2, 100))
    # Orbit 0, 2, 6: |2| is not above the radius, |6| is.
    assert r.escaped and r.iterations == 2 and r.final_norm == 6.0


def test_escape_lower_bound_single_orbit():
    # |Q^m(0)| >= |c| (|c|^(p-1) - 1)^(m-1) once |c|^(p-1) > 2.
    p, c = 3, 1.5 + 0.4j
    assert abs(c) ** (p - 1) > 2
    base = abs(c) ** (p - 1) - 1.0
    for m, z in enumerate(orbit_complex(c, p, 40), start=1):
        assert math.log(abs(z)) >= math.log(abs(c)) + (m - 1) * math.log(base) - 1e-9


def test_member_multibrot_examples():
    assert member_multibrot(0.25 + 0j, IterationParams(2, 2000))
    assert not member_multibrot(0.39 + 0j, IterationParams(3, 2000))
    assert member_multibrot(-0.38 + 0j, IterationParams(3, 2000))
    # Short circuit outside the sharp bound.
    assert not member_multibrot(3 + 0j, IterationParams(3, 2000))


def test_overflow_guard():
    r = iterate_complex(1e60 + 0j, IterationParams(2, 1000))
    assert r.escaped and r.iterations == 1


def test_real_axis_extent_quick():
    lo, hi = real_axis_extent(3, IterationParams(3, 1000), 1e-3)
    assert abs(hi - MANDELBRIC_REAL_BOUND) <= 2e-3
    assert abs(lo + MANDELBRIC_REAL_BOUND) <= 2e-3
    lo, hi = real_axis_extent(2, IterationParams(2, 1000), 1e-3)
    assert abs(lo + 2.0) <= 2e-3 and abs(hi - 0.25) <= 2e-3


def test_real_orbit_monotone():
    orbit = orbit_real(0.2, 3, 50)
    assert all(b >= a for a, b in zip(orbit, orbit[1:]))
    orbit = orbit_real(-0.2, 3, 50)
    assert all(b <= a for a, b in zip(orbit, orbit[1:]))


def test_mandelbric_symmetries_exact(rng):
    params = IterationParams(3, 400)
    for _ in range(250):
        c = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        base = iterate_complex(c, params)
        for mirrored in (c.conjugate(), -c, -c.conjugate()):
            r = iterate_complex(mirrored, params)
            assert (r.escaped, r.iterations, r.final_norm) == (
                base.escaped, base.iterations, base.final_norm)


# --- hyperbolic ------------------------------------------------------------------


def test_iterate_hyperbolic_examples():
    params = IterationParams(3, 500)
    assert not iterate_hyperbolic(Hyperbolic(0, 0), params).escaped
    # Both T-components within the real interval: bounded.
    r = MANDELBRIC_REAL_BOUND
    c = Hyperbolic(0.3 * r, 0.6 * r)  # |a-b| and |a+b| both below r
    assert not iterate_hyperbolic(c, IterationParams(3, 2000)).escaped


def test_hyperbolic_modes_agree(rng):
    params = IterationParams(3, 400)
    for _ in range(1000):
        c = Hyperbolic(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = iterate_hyperbolic(c, params, "decomposed")
        b = iterate_hyperbolic(c, params, "direct")
        assert (a.escaped, a.iterations) == (b.escaped, b.iterations)
    with pytest.raises(ValueError):
        iterate_hyperbolic(Hyperbolic(0, 0), params, "sideways")


def test_hyperbolic_orbit_decomposition(rng):
    # T of the diamond orbit equals the two real orbits, componentwise.
    from mbkit.hypercomplex import hyp_T, hyp_pow

    for _ in range(300):
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        p = int(rng.integers(2, 5))
        z = Hyperbolic(0.0, 0.0)
        xm = xp = 0.0
        for _m in range(6):
            z = hyp_pow(z, p) + Hyperbolic(a, b)
            xm = xm ** p + (a - b)
            xp = xp ** p + (a + b)
            tm, tp = hyp_T(z)
            scale = max(1.0, abs(xm), abs(xp))
            assert abs(tm - xm) <= 1e-12 * scale
            assert abs(tp - xp) <= 1e-12 * scale


def test_hyperbolic_decomposition_check_survives_escaping_orbits():
    from mbkit.suites import _hyperbolic_decomposition_residual

    # Sample 430 of this stream (a, b near 1, p = 4) escapes far enough that
    # the next float ** p would raise OverflowError; the check stops it first.
    worst = _hyperbolic_decomposition_residual(np.random.default_rng(2), 430)
    assert 0.0 < worst <= 1e-12


def test_member_hyperbric_analytic_examples():
    assert member_hyperbric_analytic(0.0, 0.0)
    assert member_hyperbric_analytic(MANDELBRIC_REAL_BOUND, 0.0)  # vertex
    assert not member_hyperbric_analytic(0.2, 0.2)


def test_hyperbric_escape_matches_analytic_away_from_boundary(rng):
    params = IterationParams(3, 2000)
    checked = 0
    while checked < 300:
        a, b = rng.uniform(-0.5, 0.5, 2)
        margin = abs(a) + abs(b) - MANDELBRIC_REAL_BOUND
        if abs(margin) <= 1e-2:
            continue
        checked += 1
        member = not iterate_hyperbolic(Hyperbolic(a, b), params).escaped
        assert member == (margin <= 0)


# --- tricomplex ------------------------------------------------------------------


def test_iterate_tricomplex_examples():
    params = IterationParams(3, 300)
    assert not iterate_tricomplex(Tricomplex.zero(), params).escaped
    # A real parameter behaves exactly like the complex engine.
    r_tc = iterate_tricomplex(Tricomplex.real(0.5), params, "direct")
    r_c = iterate_complex(0.5 + 0j, params)
    assert r_tc.escaped and (r_tc.escaped, r_tc.iterations) == (r_c.escaped, r_c.iterations)


def test_tricomplex_modes_agree(rng):
    params = IterationParams(3, 300)
    for _ in range(800):
        c = Tricomplex(tuple(rng.uniform(-1.5, 1.5, 8)))
        a = iterate_tricomplex(c, params, "direct")
        b = iterate_tricomplex(c, params, "idempotent")
        assert (a.escaped, a.iterations) == (b.escaped, b.iterations)


def test_tricomplex_membership_is_componentwise(rng):
    # Bounded iff both bicomplex idempotent components are bounded.
    params = IterationParams(3, 300)
    for _ in range(400):
        c = Tricomplex(tuple(rng.uniform(-0.8, 0.8, 8)))
        member = not iterate_tricomplex(c, params, "direct").escaped
        pair = to_idempotent(c)
        both = True
        for comp in (pair.u1, pair.u2):
            z = type(comp).zero()
            comp_member = True
            for _m in range(params.max_iter):
                z = z * z * z + comp
                if z.norm_sq() > 2.0:
                    comp_member = False
                    break
            both &= comp_member
        assert member == both


def _direct_reference(c, params, table_mul):
    """The direct engine on Tricomplex values with the term-by-term table product."""
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    eta = Tricomplex.zero()
    n2 = 0.0
    for m in range(1, params.max_iter + 1):
        ep = eta
        for _ in range(params.p - 1):
            ep = Tricomplex(table_mul(ep.x, eta.x))
        eta = ep + c
        n2 = sum(v * v for v in eta.x)
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, params.max_iter, math.sqrt(n2))


def _bits(r):
    return r.escaped, r.iterations, r.final_norm.hex()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_direct_tricomplex_matches_dataclass_loop(p, rng, table_mul):
    params = IterationParams(p, 120)
    bound = escape_bound(p)
    cs = []
    # Perplexbric and Tetrabric: the latest escapes (the boundary band) and
    # a few members; then full 8-coefficient parameters, mostly escaping.
    for units in ("1,j1,j2", "1,i1,i2"):
        x8 = _slice_batch(units, ((-bound, bound),) * 3, 24)
        counts, member = grid_counts_tricomplex(x8, params)
        outside = np.flatnonzero(~member)
        picks = outside[np.argsort(-counts[outside], kind="stable")[:10]]
        picks = np.concatenate([picks, np.flatnonzero(member)[:3]])
        cs += [x8[:, k] for k in picks]
    cs += list(rng.uniform(-0.3 * bound, 0.3 * bound, (20, 8)))
    escaped = 0
    for x in cs:
        c = Tricomplex(tuple(x))
        got = iterate_tricomplex(c, params, "direct")
        assert _bits(got) == _bits(_direct_reference(c, params, table_mul)), c.x
        escaped += got.escaped
    assert 20 <= escaped < len(cs)


def _bicomplex_member_reference(c, params):
    """The parent loop on Bicomplex values."""
    r2 = params.escape_radius * params.escape_radius
    z = Bicomplex.zero()
    for _ in range(params.max_iter):
        zp = z
        for _k in range(params.p - 1):
            zp = zp * z
        z = zp + c
        n2 = z.norm_sq()
        if n2 > r2 or not math.isfinite(n2):
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 4])
def test_bicomplex_member_matches_dataclass_loop(p, rng):
    params = IterationParams(p, 200)
    half = 0.45 * escape_bound(p)
    members = 0
    for _ in range(300):
        c = Bicomplex(tuple(rng.uniform(-half, half, 4)))
        got = _bicomplex_member(c, params)
        assert got == _bicomplex_member_reference(c, params), c.z
        members += got
    assert 10 <= members <= 290


def test_member_perplexbric_examples():
    r = MANDELBRIC_REAL_BOUND
    assert member_perplexbric_analytic(0.0, 0.0, 0.0)
    assert member_perplexbric_analytic(0.0, 0.0, r)  # apex
    assert not member_perplexbric_analytic(0.13, 0.13, 0.13)


def test_perplexbric_union_form_equivalence(rng):
    for _ in range(4000):
        c1, c4, c6 = rng.uniform(-0.6, 0.6, 3)
        assert member_perplexbric_analytic(c1, c4, c6) == \
            member_perplexbric_union_form(c1, c4, c6)


# --- grid engines ------------------------------------------------------------------
#
# Uniform samples mostly escape within a few steps, so the boundary-band checks
# compare the grid engines with the scalar oracles where orbits run long: cells
# of a rendered window escaping after 8 < count < max_iter steps, plus members.

BAND_PARAMS = IterationParams(3, 200)


def _plane(window, res):
    """Render-order cell centers of a 2D window: (x, y) with the top row first."""
    xs = cell_centers(*window[0], res)
    ys = cell_centers(*window[1], res)[::-1]
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def _slice_batch(units, window, res):
    """(8, res^3) coefficient batch over a 3D slice window."""
    axes = [cell_centers(lo, hi, res) for lo, hi in window]
    x8 = np.zeros((8, res ** 3))
    for u, g in zip(SliceSpec.parse(units).units, np.meshgrid(*axes, indexing="ij")):
        x8[u] = g.ravel()
    return x8


def _assert_band_matches(counts, member, oracle, rng):
    max_iter = BAND_PARAMS.max_iter
    band = np.flatnonzero((counts > 8) & (counts < max_iter))
    members = np.flatnonzero(member)
    assert band.size >= 150 and members.size >= 30
    picks = np.concatenate([rng.choice(band, 150, replace=False),
                            rng.choice(members, 30, replace=False)])
    for k in picks:
        ref = oracle(k)
        assert (counts[k], member[k]) == (ref.iterations, not ref.escaped), k


def test_grid_complex_matches_scalar_bitwise(rng):
    params = IterationParams(3, 250)
    cs = rng.uniform(-1.6, 1.6, 300) + 1j * rng.uniform(-1.6, 1.6, 300)
    counts, member = grid_counts_complex(cs, params)
    for k in range(cs.size):
        ref = iterate_complex(complex(cs[k]), params)
        assert counts[k] == ref.iterations
        assert member[k] == (not ref.escaped)
    # Multibrot boundary band.
    x, y = _plane(((-1.5, 1.5), (-1.5, 1.5)), 96)
    cs = x + 1j * y
    counts, member = grid_counts_complex(cs, BAND_PARAMS)
    _assert_band_matches(counts, member,
                         lambda k: iterate_complex(complex(cs[k]), BAND_PARAMS), rng)


def test_grid_real_matches_scalar(rng):
    params = IterationParams(2, 500)
    cs = rng.uniform(-2.2, 0.5, 300)
    counts, member = grid_counts_real(cs, params)
    for k in range(cs.size):
        ref = iterate_complex(complex(cs[k]), params)
        assert counts[k] == ref.iterations
        assert member[k] == (not ref.escaped)


def test_grid_hyperbolic_matches_scalar(rng):
    params = IterationParams(3, 400)
    a = rng.uniform(-0.6, 0.6, 300)
    b = rng.uniform(-0.6, 0.6, 300)
    counts, member = grid_counts_hyperbolic(a, b, params)
    for k in range(a.size):
        ref = iterate_hyperbolic(Hyperbolic(a[k], b[k]), params, "decomposed")
        assert counts[k] == ref.iterations
        assert member[k] == (not ref.escaped)
    # Hyperbrot boundary band, against the engine that never decomposes.
    a, b = _plane(((-0.4, 0.4), (-0.4, 0.4)), 96)
    counts, member = grid_counts_hyperbolic(a, b, BAND_PARAMS)
    _assert_band_matches(
        counts, member,
        lambda k: iterate_hyperbolic(Hyperbolic(a[k], b[k]), BAND_PARAMS, "direct"), rng)


def test_grid_tricomplex_matches_scalar(rng):
    # Perplexbric iterates real components, Tetrabric complex ones.
    for units, half, real in (("1,j1,j2", 0.5, True), ("1,i1,i2", 1.5, False)):
        x8 = _slice_batch(units, ((-half, half),) * 3, 24)
        assert (not to_complex4(x8).imag.any()) == real
        counts, member = grid_counts_tricomplex(x8, BAND_PARAMS)
        _assert_band_matches(
            counts, member,
            lambda k: iterate_tricomplex(Tricomplex(tuple(x8[:, k])), BAND_PARAMS,
                                         "direct"),
            rng)


def test_grid_threads_do_not_change_output(rng, monkeypatch):
    # Workers are capped at the CPU count; pretend to have 8 so every
    # requested count below gives its own partition.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    params = IterationParams(3, 150)
    x8 = rng.uniform(-1.5, 1.5, (8, 500))
    cs = x8[0] + 1j * x8[1]
    runs = {
        threads: (grid_counts_tricomplex(x8, params, threads=threads),
                  grid_counts_complex(cs, params, threads=threads),
                  grid_counts_hyperbolic(x8[2], x8[3], params, threads=threads))
        for threads in (1, 3, 8)
    }
    for threads in (3, 8):
        for (c, m), (c1, m1) in zip(runs[threads], runs[1]):
            assert np.array_equal(c, c1) and np.array_equal(m, m1)


def test_grid_workers_capped_at_cpu_count(rng, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor and runs the blocks in this thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 4)
    params = IterationParams(3, 60)
    cs = rng.uniform(-1.5, 1.5, 400) + 1j * rng.uniform(-1.5, 1.5, 400)
    counts, member = grid_counts_complex(cs, params, threads=10_000)
    assert pools and all(w <= os.cpu_count() for w in pools)
    ref_counts, ref_member = grid_counts_complex(cs, params)
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)


def test_divergence_amplification_lemma(rng):
    # After the first crossing by delta, growth dominates (2p)^m delta.
    p = 3
    bound = escape_bound(p)
    confirmed = 0
    while confirmed < 25:
        c = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        if abs(c) > bound:
            continue
        orbit = orbit_complex(c, p, 150)
        cross = next((k for k, z in enumerate(orbit) if abs(z) > bound), None)
        if cross is None:
            continue
        confirmed += 1
        delta = abs(orbit[cross]) - bound
        for m, z in enumerate(orbit[cross + 1:], start=1):
            lower = bound + (2 * p) ** m * delta
            if lower > OVERFLOW_NORM:
                break
            assert abs(z) >= lower * (1 - 1e-12)
