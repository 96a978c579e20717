import math
import os
import re
import time
import tracemalloc
import warnings

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
from mbkit.hypercomplex import (
    Bicomplex,
    Hyperbolic,
    Tricomplex,
    hyp_diamond,
    to_complex4,
    to_idempotent,
)
from mbkit.roots import MANDELBRIC_REAL_BOUND, real_extent_closed_form
from mbkit.slices import SliceSpec, cell_centers
from mbkit.suites import _bicomplex_member


def test_params_validation():
    assert IterationParams(3).escape_radius == math.sqrt(2.0)
    assert IterationParams(2).escape_radius == 2.0
    with pytest.raises(ValueError):
        IterationParams(1)
    for max_iter in (0, -1, 2 ** 32, True, 10.0, "10", None):
        with pytest.raises(ValueError, match="max_iter"):
            IterationParams(3, max_iter)
    for max_iter in (1, 2 ** 32 - 1, np.uint32(2 ** 32 - 1)):
        params = IterationParams(3, max_iter)
        assert params.max_iter == max_iter and type(params.max_iter) is int
    with pytest.raises(ValueError):
        IterationParams(3, 100, 1.0)  # below the sharp bound
    assert IterationParams(3, 100, 2.0).escape_radius == 2.0
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            IterationParams(3, 10, radius)


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


def test_direct_tricomplex_escape_norm_sums_left_to_right():
    # c's squared norm is 1e16 left to right (1e16 absorbs each 1), exactly
    # the squared radius, so c stays inside at step 1 and escapes at step 2;
    # a compensated sum (1e16 + 8) would escape at step 1.
    c = Tricomplex((1e8,) + (1.0,) * 7)
    params = IterationParams(3, 10, 1e8)
    assert math.fsum(v * v for v in c.x) > params.escape_radius ** 2
    r = iterate_tricomplex(c, params, mode="direct")
    assert r.escaped and r.iterations == 2


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
        n2 = 0.0
        for v in eta.x:  # left to right: sum() compensates from Python 3.12
            n2 += v * v
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, params.max_iter, math.sqrt(n2))


def _bits(r):
    return r.escaped, r.iterations, r.final_norm.hex()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_direct_tricomplex_matches_dataclass_loop(p, rng, table_mul,
                                                  tricomplex_components):
    params = IterationParams(p, 120)
    bound = escape_bound(p)
    cs = []
    # Perplexbric and Tetrabric: the latest escapes (the boundary band) and
    # a few members; then full 8-coefficient parameters, mostly escaping.
    for units in ("1,j1,j2", "1,i1,i2"):
        x8 = _slice_batch(units, ((-bound, bound),) * 3, 24)
        counts, member = grid_counts_tricomplex(tricomplex_components(x8), params)
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


# --- scalar escape-time driver ----------------------------------------------------
#
# Every scalar engine runs on dynamics._escape_time, which skips whole periods
# once a state repeats a snapshot.  These tests pin each engine bit for bit to
# a plain loop that runs every step, with each engine's arithmetic written
# out on the algebra's own types (Hyperbolic, Bicomplex).


def _every_step(step, z0, params):
    """The scalar escape-time loop without cycle retirement."""
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    z, n2 = z0, 0.0
    for m in range(1, params.max_iter + 1):
        z, n2 = step(z)
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, params.max_iter, math.sqrt(n2))


def _complex_reference(c, params):
    def step(z):
        zp = z
        for _ in range(params.p - 1):
            zp = zp * z
        z = zp + c
        return z, z.real * z.real + z.imag * z.imag
    return _every_step(step, complex(0.0, 0.0), params)


def _hyperbolic_decomposed_reference(c, params):
    cm, cp = c.u - c.v, c.u + c.v

    def step(x):
        xm, xp = x
        t = xm
        for _ in range(params.p - 1):
            t = t * xm
        xm = t + cm
        t = xp
        for _ in range(params.p - 1):
            t = t * xp
        xp = t + cp
        return (xm, xp), max(xm * xm, xp * xp)
    return _every_step(step, (0.0, 0.0), params)


def _hyperbolic_direct_reference(c, params):
    def step(z):
        zp = z
        for _ in range(params.p - 1):
            zp = hyp_diamond(zp, z)
        z = zp + c
        tm, tp = z.u - z.v, z.u + z.v
        return z, max(tm * tm, tp * tp)
    return _every_step(step, Hyperbolic(0.0, 0.0), params)


def _idempotent_reference(c, params):
    pair = to_idempotent(c)

    def step(u):
        u1, u2 = u
        t = u1
        for _ in range(params.p - 1):
            t = t * u1
        u1 = t + pair.u1
        t = u2
        for _ in range(params.p - 1):
            t = t * u2
        u2 = t + pair.u2
        return (u1, u2), (u1.norm_sq() + u2.norm_sq()) / 2.0
    return _every_step(step, (Bicomplex.zero(), Bicomplex.zero()), params)


# Exact cycles of p = 2: -1 has period 2, the airplane and rabbit centres
# period 3, i period 2 after one step (p = 3: period 2; p = 4: -1, period 2).
_CYCLES = (-1.0, -1.7548776662466927, complex(-0.1225611668766536, 0.7448617666197442),
           1j, 0.2, complex(-0.1, 0.1))
_BUDGETS = (1, 2, 3, 17, 33, 1000)


def _pin_parameters(p):
    """Complex parameters for the pins at exponent p: signed zeros, exact
    cycles and fixed points, and slow escapers just outside the real-axis
    extent, escaping before and after the largest budget."""
    lo, hi = real_extent_closed_form(p)
    return [0.0, -0.0, complex(-0.0, -0.0), *_CYCLES,
            hi + 1e-3, hi + 1e-4, hi + 1e-5, hi + 1e-6, lo - 1e-6]


def _assert_pinned(engine, reference, values, p):
    for max_iter in _BUDGETS:
        params = IterationParams(p, max_iter)
        refs = [reference(c, params) for c in values]
        for c, ref in zip(values, refs):
            assert _bits(engine(c, params)) == _bits(ref), (c, max_iter)
    # At the largest budget: members, and escapes as late as step 300.
    escapes = [r.iterations for r in refs if r.escaped]
    assert len(escapes) < len(refs) and max(escapes) > 300


@pytest.mark.parametrize("p", [2, 3, 4])
def test_complex_engine_matches_every_step(p):
    values = [complex(c) for c in _pin_parameters(p)]
    _assert_pinned(iterate_complex, _complex_reference, values, p)


@pytest.mark.parametrize("mode", ["decomposed", "direct"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_hyperbolic_engines_match_every_step(mode, p):
    # (x, 0) iterates x in both components; (x/2, x/2) holds the first at
    # the fixed point 0 while the second runs x.
    values = []
    for x in (complex(c).real for c in _pin_parameters(p)):
        values += [Hyperbolic(x, 0.0), Hyperbolic(x / 2, x / 2), Hyperbolic(x / 2, -x / 2)]
    reference = {"decomposed": _hyperbolic_decomposed_reference,
                 "direct": _hyperbolic_direct_reference}[mode]
    _assert_pinned(lambda c, params: iterate_hyperbolic(c, params, mode), reference,
                   values, p)


def _tricomplex_pins(p):
    # c in the i1 plane, and (x/2, ..., -x/2), whose idempotent components
    # are 0, held at its fixed point, and x.
    values = []
    for c in _pin_parameters(p):
        c = complex(c)
        values.append(Tricomplex((c.real, c.imag) + (0.0,) * 6))
        values.append(Tricomplex((c.real / 2,) + (0.0,) * 6 + (-c.real / 2,)))
    return values


@pytest.mark.parametrize("p", [2, 3, 4])
def test_idempotent_tricomplex_matches_every_step(p):
    _assert_pinned(lambda c, params: iterate_tricomplex(c, params, "idempotent"),
                   _idempotent_reference, _tricomplex_pins(p), p)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_direct_tricomplex_matches_every_step(p, table_mul):
    _assert_pinned(lambda c, params: iterate_tricomplex(c, params, "direct"),
                   lambda c, params: _direct_reference(c, params, table_mul),
                   _tricomplex_pins(p), p)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_bicomplex_member_matches_every_step(p):
    values = []
    for c in _pin_parameters(p):
        c = complex(c)
        values += [Bicomplex((c.real, c.imag, 0.0, 0.0)), Bicomplex((0.0, 0.0, c.real, 0.0))]
    for max_iter in _BUDGETS:
        params = IterationParams(p, max_iter)
        for c in values:
            assert _bicomplex_member(c, params) == _bicomplex_member_reference(c, params), \
                (c, max_iter)


def test_escape_time_skips_whole_periods():
    # 0 -> -1 -> 0 -> ... (z^2 - 1): the states at even and odd budgets
    # differ, so the remainder after the skipped periods must be stepped.
    calls = []

    def step(z):
        calls.append(z)
        z = z * z - 1.0
        return z, z * z

    for max_iter, final in ((10 ** 9, 0.0), (10 ** 9 + 1, 1.0), (2 ** 32 - 1, 1.0)):
        calls.clear()
        r = dynamics._escape_time(step, 0.0, IterationParams(2, max_iter))
        assert (r.escaped, r.iterations, r.final_norm) == (False, max_iter, final)
        assert len(calls) <= 5


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


def test_grid_tricomplex_matches_scalar(rng, tricomplex_components):
    # Perplexbric iterates real components, Tetrabric complex ones.
    for units, half, real in (("1,j1,j2", 0.5, True), ("1,i1,i2", 1.5, False)):
        x8 = _slice_batch(units, ((-half, half),) * 3, 24)
        w = tricomplex_components(x8)
        assert (w.dtype == np.float64) == real
        counts, member = grid_counts_tricomplex(w, BAND_PARAMS)
        _assert_band_matches(
            counts, member,
            lambda k: iterate_tricomplex(Tricomplex(tuple(x8[:, k])), BAND_PARAMS,
                                         "direct"),
            rng)


def test_grid_threads_do_not_change_output(rng, monkeypatch, tricomplex_components):
    # Workers are capped at the CPU count; pretend to have 8 so every
    # requested count below gives its own partition.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    params = IterationParams(3, 150)
    x8 = rng.uniform(-1.5, 1.5, (8, 500))
    cs = x8[0] + 1j * x8[1]
    runs = {
        threads: (grid_counts_tricomplex(tricomplex_components(x8), params,
                                         threads=threads),
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


# --- streamed hyperbolic path ----------------------------------------------------
#
# grid_counts_hyperbolic reads its inputs in chunks of at most _CHUNK points.
# These tests pin it to the whole-grid body (the hyperbolic_whole_grid
# fixture) with chunks that split rows and leave a partial last chunk.


def _hyperbolic_inputs(case, rng):
    # Asymmetric in both axes, so a flipped or transposed read shows.
    xs = cell_centers(-0.41, 0.43, 103)
    ys = cell_centers(-0.37, 0.42, 97)
    if case == "meshgrid view":
        return np.meshgrid(xs, ys, copy=False)
    if case == "reversed-y view":  # as render2d builds it
        return np.meshgrid(xs, ys[::-1], copy=False)
    if case == "contiguous":
        return rng.uniform(-0.6, 0.6, 4001), rng.uniform(-0.6, 0.6, 4001)
    if case == "strided columns":
        pts = rng.uniform(-0.6, 0.6, (4001, 2))
        return pts[:, 0], pts[:, 1]
    # Signed zeros (a - b and a + b of +-0.0 give both signs) and exact
    # duplicates, within a chunk and across chunks.
    values = np.array([0.0, -0.0, 0.1, -0.1, 0.25, 0.3849, -0.3849, 0.5])
    return rng.choice(values, 4001), rng.choice(values, 4001)


_HYPERBOLIC_CASES = ["meshgrid view", "reversed-y view", "contiguous",
                     "strided columns", "signed zeros and duplicates"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk", [37, 1000])
@pytest.mark.parametrize("case", _HYPERBOLIC_CASES)
def test_streamed_hyperbolic_matches_whole_grid(case, chunk, threads, rng, monkeypatch,
                                                hyperbolic_whole_grid):
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    a, b = _hyperbolic_inputs(case, rng)
    params = IterationParams(3, 300)
    counts, member = grid_counts_hyperbolic(a, b, params, threads=threads)
    ref_counts, ref_member = hyperbolic_whole_grid(a, b, params, threads=threads)
    assert counts.shape == member.shape == (a.size,)
    assert counts.dtype == np.uint32 and member.dtype == bool
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    assert member.any() and not member.all()


@pytest.mark.parametrize("chunk, sizes", [(None, (1000, 2000)), (1 << 12, (500, 1000))])
def test_streamed_hyperbolic_memory_is_flat_in_grid_size(chunk, sizes, monkeypatch):
    # Beyond the 5 B/cell outputs the path holds a few chunk-sized arrays
    # and the distinct components (7,359 at 1000^2, 14,547 at 2000^2).  The
    # whole-grid body took about 64 B/cell: 192 MB more at 2000^2.  With
    # small chunks, holding every chunk's distinct values until the end
    # would add about 12 MB from 500^2 to 1000^2.
    if chunk is not None:
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    params = IterationParams(3, 8)
    extra = []
    for n in sizes:
        xs = cell_centers(-0.4, 0.4, n)
        a, b = np.meshgrid(xs, xs[::-1], copy=False)
        tracemalloc.start()
        try:
            grid_counts_hyperbolic(a, b, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - 5 * n * n)
    assert extra[1] <= extra[0] + 2_000_000


def test_hyperbolic_inputs_must_have_equal_shapes():
    params = IterationParams(3, 50)
    # A size-1 b used to broadcast silently to three results.
    for a, b in (([0.0, 0.1, 0.3], [0.05]), (np.zeros(3), np.zeros(4)),
                 (np.zeros((2, 3)), np.zeros(6)), (np.zeros((2, 3)), np.zeros((3, 2)))):
        shapes = f"{np.shape(a)} and {np.shape(b)}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            grid_counts_hyperbolic(a, b, params)
    counts, member = grid_counts_hyperbolic(np.zeros((2, 3)), np.zeros((2, 3)), params)
    assert counts.shape == member.shape == (6,) and member.all()


def _no_step(*args, **kwargs):
    raise AssertionError("the kernel stepped an empty batch")


def test_empty_batches_return_without_iterating(monkeypatch):
    monkeypatch.setattr(dynamics, "_step", _no_step)
    params = IterationParams(3, 100_000)
    results = [
        grid_counts_complex(np.empty(0, complex), params, threads=2),
        grid_counts_real(np.empty(0), params, threads=2),
        grid_counts_hyperbolic(np.empty(0), np.empty(0), params, threads=2),
        grid_counts_hyperbolic(*np.meshgrid(np.empty(0), np.arange(3.0), copy=False),
                               params),
        grid_counts_tricomplex(np.empty((4, 0)), params, threads=2),
        grid_counts_tricomplex(np.empty((2, 0), complex), params),
    ]
    for counts, member in results:
        assert counts.shape == member.shape == (0,)
        assert counts.dtype == np.uint32 and member.dtype == bool


# --- cycle retirement --------------------------------------------------------------
#
# The kernel retires a point whose state equals its last power-of-two snapshot
# as a member.  These tests pin it to the kernel without retirement (the
# kernel_no_retirement fixture), with budgets ending before, at and just after
# the snapshot steps 16 and 32.

# Parameters whose first iterate has an infinite or NaN norm.
_OVERFLOWING = (1e200, -1e155, np.inf, -np.inf, np.nan)


def _kernel_state(kind):
    """A kernel input of each state shape, with overflowing points appended."""
    edge4 = np.zeros((4, 2 * len(_OVERFLOWING)))
    for k, v in enumerate(_OVERFLOWING):
        edge4[k % 4, k] = v
        edge4[:, len(_OVERFLOWING) + k] = v
    if kind == "complex":  # multibrot window
        x, y = _plane(((-1.5, 1.5), (-1.5, 1.5)), 96)
        edge = [complex(v, w) for v in _OVERFLOWING for w in (0.0, v)]
        return np.concatenate([x + 1j * y, edge, [1e300j]])
    if kind == "real":  # the hyperbrot window's component parameters
        a, b = _plane(((-0.4, 0.4), (-0.4, 0.4)), 96)
        return np.concatenate([np.unique(np.concatenate([a - b, a + b])), _OVERFLOWING])
    if kind == "real4":  # Perplexbric
        w = to_complex4(_slice_batch("1,j1,j2", ((-0.5, 0.5),) * 3, 24))
        assert not w.imag.any()
        return np.concatenate([w.real, edge4], axis=1)
    w = to_complex4(_slice_batch("1,i1,i2", ((-1.5, 1.5),) * 3, 24))  # Tetrabric
    cedge4 = edge4.astype(np.complex128)
    cedge4.imag = edge4[::-1]
    return np.concatenate([w, cedge4], axis=1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_cycle_retirement_matches_kernel_without_it(kind, p, kernel_no_retirement,
                                                    monkeypatch):
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    c = _kernel_state(kind)
    assert c.ndim == (2 if kind.endswith("4") else 1)
    assert np.iscomplexobj(c) == kind.startswith("complex")
    for max_iter in (10, 16, 17, 33, 300):
        params = IterationParams(p, max_iter)
        ref_counts, ref_member = kernel_no_retirement(c, params)
        runs = {threads: dynamics._run_blocks(c, params, threads)
                for threads in (1, 2, 3)}
        assert ref_member.any() and not ref_member.all()
        assert (ref_counts[-len(_OVERFLOWING):] == 1).all()
        for threads, (counts, member) in runs.items():
            assert counts.dtype == ref_counts.dtype
            assert np.array_equal(counts, ref_counts), (max_iter, threads)
            assert np.array_equal(member, ref_member), (max_iter, threads)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_escape_radius_beyond_the_overflow_guard(kind, kernel_no_retirement):
    # The squared radius 1e300 exceeds the squared guard, which then decides
    # every escape.
    c = _kernel_state(kind)
    params = IterationParams(3, 100, 1e150)
    assert params.escape_radius ** 2 > OVERFLOW_NORM ** 2
    ref_counts, ref_member = kernel_no_retirement(c, params)
    assert ref_member.any() and (ref_counts[-len(_OVERFLOWING):] == 1).all()
    assert not np.array_equal(ref_counts,
                              kernel_no_retirement(c, IterationParams(3, 100))[0])
    counts, member = dynamics._counts_kernel(c, params)
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)


@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_slow_escapes_near_parabolic_points_are_not_retired(kind, kernel_no_retirement):
    # Just outside the cusp of each real interval the orbit creeps past the
    # parabolic fixed point, moving less than 1e-5 per step for hundreds of
    # steps before it escapes: nearly, but never exactly, periodic.
    for p, cusp in ((2, 0.25), (3, MANDELBRIC_REAL_BOUND)):
        params = IterationParams(p, 3500)
        c = np.array([cusp + eps for eps in (1e-6, 2e-6, 5e-6)])
        if kind.endswith("4"):
            c = np.tile(c, (4, 1))
        if kind.startswith("complex"):
            c = c.astype(np.complex128)
        ref_counts, ref_member = kernel_no_retirement(c, params)
        assert not ref_member.any() and ref_counts.min() > 1000
        counts, member = dynamics._counts_kernel(c, params)
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)


# --- deferred compaction ---------------------------------------------------------
#
# The kernel records a done point at its step and compacts it away only once
# done points are 1 / _COMPACT_FRACTION of the arrays.  These tests run it with
# the fraction at 1 (no compaction until every point is done), at its default
# and at 2^30, more than any batch here holds (a compaction at every step
# with a done point).

_FRACTIONS = (1, dynamics._COMPACT_FRACTION, 1 << 30)


def _trickle(p):
    """Real parameters just beyond the cusp, each escaping at its own step
    between the snapshots 16 and 512."""
    cusp = 0.25 if p == 2 else MANDELBRIC_REAL_BOUND
    return cusp + np.geomspace(2e-5, 2e-2, 24)


def _as_kind(c, kind):
    c = np.tile(c, (4, 1)) if kind.endswith("4") else c
    return c.astype(np.complex128) if kind.startswith("complex") else c


def _assert_fractions_and_threads_match(c, params, kernel_no_retirement, monkeypatch):
    ref_counts, ref_member = kernel_no_retirement(c, params)
    for fraction in _FRACTIONS:
        monkeypatch.setattr(dynamics, "_COMPACT_FRACTION", fraction)
        for threads in (1, 2, 3):
            counts, member = dynamics._run_blocks(c, params, threads)
            assert np.array_equal(counts, ref_counts), (fraction, threads)
            assert np.array_equal(member, ref_member), (fraction, threads)
    return ref_counts, ref_member


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_trickling_escapes_wait_across_snapshots(kind, p, kernel_no_retirement,
                                                 monkeypatch):
    # Members, which fall into exact cycles, interleaved with escapes that
    # come one distinct step at a time, so done points wait across several
    # snapshots; the budgets end before, between and after the escapes.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    trickle = _trickle(p)
    members = np.linspace(-0.2, 0.2, 4 * len(trickle))
    c = np.concatenate([members.reshape(len(trickle), 4), trickle[:, None]], axis=1)
    c = _as_kind(c.ravel(), kind)
    for max_iter in (12, 100, 1000):
        counts, member = _assert_fractions_and_threads_match(
            c, IterationParams(p, max_iter), kernel_no_retirement, monkeypatch)
        assert member.reshape(-1, 5)[:, :4].all()
    escaped = counts[~member]
    assert len(escaped) == len(trickle) == len(np.unique(escaped))
    assert len(np.unique(np.log2(escaped).astype(int))) >= 4


@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_every_point_escapes(kind, kernel_no_retirement, monkeypatch):
    # Nothing stays live: the kernel stops at the last escape, whether or not
    # the done points ever reached the compaction threshold before it.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    c = _as_kind(_trickle(3), kind)
    params = IterationParams(3, 1000)
    counts, member = _assert_fractions_and_threads_match(
        c, params, kernel_no_retirement, monkeypatch)
    assert not member.any() and counts.max() < params.max_iter


@pytest.mark.parametrize("fraction", _FRACTIONS)
@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_waiting_overflows_raise_no_warning(kind, fraction, kernel_no_retirement,
                                            monkeypatch):
    # The overflowing points are done at step 1 and, unless the fraction
    # compacts at every step, keep iterating through inf and NaN.
    monkeypatch.setattr(dynamics, "_COMPACT_FRACTION", fraction)
    c = _kernel_state(kind)
    params = IterationParams(3, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref_counts, ref_member = kernel_no_retirement(c, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, member = dynamics._counts_kernel(c, params)
    assert (counts[-len(_OVERFLOWING):] == 1).all()
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)


# --- two distinct components -----------------------------------------------------
#
# Parameters in a bicomplex subalgebra have four components that repeat in
# pairs, and the kernel then iterates the two distinct rows.  These tests pin
# a (2, n) batch to the four-row batch that repeats its rows, in the three
# pairings of hypercomplex.distinct_components: (0, 2)(1, 3), (0, 3)(1, 2)
# and (0, 1)(2, 3).

_PAIRINGS = ((0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))


def _assert_two_rows_match_the_repeated_four(c2, params, kernel_no_retirement):
    ref_counts, ref_member = kernel_no_retirement(c2[list(_PAIRINGS[0])], params)
    for pairing in _PAIRINGS:
        c4 = c2[list(pairing)]
        counts, member = kernel_no_retirement(c4, params)
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
        counts, member = dynamics._counts_kernel(c4, params)
        assert np.array_equal(counts, ref_counts), pairing
        assert np.array_equal(member, ref_member), pairing
    for threads in (1, 2, 3):
        counts, member = dynamics._run_blocks(c2, params, threads)
        assert counts.dtype == ref_counts.dtype
        assert np.array_equal(counts, ref_counts), threads
        assert np.array_equal(member, ref_member), threads
    return ref_counts, ref_member


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["real4", "complex4"])
def test_two_distinct_components_match_the_four_repeated(kind, kernel_no_retirement,
                                                        monkeypatch):
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    # The first two rows: Tetrabric's distinct components, whose rows 2 and
    # 3 repeat them, and two of Perplexbric's real ones; the overflowing
    # points have inf or NaN first iterates.
    c2 = np.ascontiguousarray(_kernel_state(kind)[:2])
    assert np.iscomplexobj(c2) == (kind == "complex4")
    budgets = [IterationParams(p, max_iter) for p in (2, 3)
               for max_iter in (16, 17, 33, 300)]
    # A squared radius beyond the squared guard: the guard decides escapes.
    budgets.append(IterationParams(3, 100, 1e150))
    for params in budgets:
        counts, member = _assert_two_rows_match_the_repeated_four(
            c2, params, kernel_no_retirement)
        assert member.any() and not member.all()
        assert (counts[-len(_OVERFLOWING):] == 1).all()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_two_distinct_components_slow_escapes(kind, kernel_no_retirement, monkeypatch):
    # The near-parabolic points of the retirement test, in one row and in
    # both, next to a member in each row.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    for p, cusp in ((2, 0.25), (3, MANDELBRIC_REAL_BOUND)):
        slow = [cusp + eps for eps in (1e-6, 2e-6, 5e-6)]
        c2 = np.array([slow + slow + [0.0, 0.0, 0.1],
                       slow + [0.0, 0.0, 0.0] + [0.1, 0.2, 0.0]])
        if kind == "complex":
            c2 = c2.astype(np.complex128)
        counts, member = _assert_two_rows_match_the_repeated_four(
            c2, IterationParams(p, 3500), kernel_no_retirement)
        assert not member[:6].any() and counts[:6].min() > 1000
        assert member[6:].all()


def test_exact_cycles_retire_early(tricomplex_components):
    # Orbits of 0 falling into exact float cycles at p = 2: the fixed point 0
    # (c = 0), 0 -> -1 -> 0 (c = -1) and i -> -1+i -> -i -> -1+i (c = i).
    # Running the whole budget would take about ten seconds per call.
    params = IterationParams(2, 10 ** 6)
    x8 = np.zeros((8, 3))
    x8[0, 1] = -1.0
    y8 = x8.copy()
    y8[1, 2] = 1.0  # i1 gives complex idempotent components
    start = time.perf_counter()
    runs = [grid_counts_complex(np.array([0.0, -1.0, 1j]), params),
            grid_counts_real(np.array([0.0, -1.0]), params),
            grid_counts_tricomplex(tricomplex_components(x8), params),
            grid_counts_tricomplex(tricomplex_components(y8), params)]
    elapsed = time.perf_counter() - start
    for counts, member in runs:
        assert member.all() and (counts == params.max_iter).all()
    assert elapsed < 5.0


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
