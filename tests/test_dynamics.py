import inspect
import math
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbkit import dynamics
from mbkit.dynamics import (
    OVERFLOW_NORM,
    EscapeResult,
    MAX_ITER_LIMIT,
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
    complex4_rows,
    hyp_diamond,
    to_complex4,
    to_idempotent,
)
from mbkit.roots import MANDELBRIC_REAL_BOUND, real_extent_closed_form
from mbkit.slices import SliceSpec, cell_centers
from mbkit.suites import _bicomplex_lanes


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
    # The radius is the sharp bound of p, and nothing else can set it.
    with pytest.raises(TypeError):
        IterationParams(3, 100, 2.0)


def test_iterate_complex_examples():
    assert iterate_complex(0j, IterationParams(3, 200)) == EscapeResult(False, 200)
    r = iterate_complex(2 + 0j, IterationParams(2, 100))
    # Orbit 0, 2, 6: |2| is not above the radius, |6| is.
    assert r.escaped and r.iterations == 2


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
    # Outside the sharp bound: the first iterate, 3, already escapes.
    assert not member_multibrot(3 + 0j, IterationParams(3, 2000))


def test_overflow_guard():
    r = iterate_complex(1e60 + 0j, IterationParams(2, 1000))
    assert r.escaped and r.iterations == 1


def test_real_axis_extent_quick():
    lo, hi = real_axis_extent(IterationParams(3, 1000), 1e-3)
    assert abs(hi - MANDELBRIC_REAL_BOUND) <= 2e-3
    assert abs(lo + MANDELBRIC_REAL_BOUND) <= 2e-3
    lo, hi = real_axis_extent(IterationParams(2, 1000), 1e-3)
    assert abs(lo + 2.0) <= 2e-3 and abs(hi - 0.25) <= 2e-3


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("-inf")])
def test_real_axis_extent_rejects_a_tolerance_that_is_not_positive(tol):
    # A NaN tolerance would end the bisection at once, at the midpoint of
    # the unbisected bracket.
    with pytest.raises(ValueError, match="^tol must be positive$"):
        real_axis_extent(IterationParams(3, 200), tol)


def test_real_orbit_monotone():
    orbit = orbit_real(0.2, 3, 50)
    assert all(b >= a for a, b in zip(orbit, orbit[1:]))
    orbit = orbit_real(-0.2, 3, 50)
    assert all(b <= a for a, b in zip(orbit, orbit[1:]))


def test_orbits_stop_at_the_first_value_past_the_overflow_guard():
    # The fourth value is still below OVERFLOW_NORM and its 7th power
    # overflows.  The real orbit keeps the sign and magnitude, inf; complex
    # multiplication turns it into NaN, so the real orbit is not the real
    # part of the complex one.
    c = 1.8228087745839163
    orbit = orbit_real(c, 7, 50)
    assert len(orbit) == 5 and orbit[3] < OVERFLOW_NORM and orbit[-1] == math.inf
    orbit = orbit_complex(complex(c), 7, 50)
    assert len(orbit) == 5
    assert math.isnan(orbit[-1].real) and math.isnan(orbit[-1].imag)


def test_mandelbric_symmetries_exact(rng):
    params = IterationParams(3, 400)
    for _ in range(250):
        c = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        base = iterate_complex(c, params)
        for mirrored in (c.conjugate(), -c, -c.conjugate()):
            assert iterate_complex(mirrored, params) == base


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
    # c's squared norm is r * r left to right (r * r absorbs each 1e-16),
    # exactly the squared radius, so c stays inside at step 1 and escapes
    # at step 2; a compensated sum (r * r + 7e-16) would escape at step 1.
    params = IterationParams(3, 10)
    c = Tricomplex((params.escape_radius,) + (1e-8,) * 7)
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
    eta = Tricomplex.zero()
    for m in range(1, params.max_iter + 1):
        ep = eta
        for _ in range(params.p - 1):
            ep = Tricomplex(table_mul(ep.x, eta.x))
        eta = ep + c
        n2 = 0.0
        for v in eta.x:  # left to right: sum() compensates from Python 3.12
            n2 += v * v
        if n2 > r2 or not math.isfinite(n2):
            return EscapeResult(True, m)
    return EscapeResult(False, params.max_iter)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_direct_tricomplex_matches_dataclass_loop(p, rng, table_mul):
    params = IterationParams(p, 120)
    bound = escape_bound(p)
    cs = []
    # Perplexbric and Tetrabric: the latest escapes (the boundary band) and
    # a few members; then full 8-coefficient parameters, mostly escaping.
    for units in ("1,j1,j2", "1,i1,i2"):
        x8 = _slice_batch(units, ((-bound, bound),) * 3, 24)
        counts, member = grid_counts_tricomplex(_rows(x8), params)
        outside = np.flatnonzero(~member)
        picks = outside[np.argsort(-counts[outside], kind="stable")[:10]]
        picks = np.concatenate([picks, np.flatnonzero(member)[:3]])
        cs += [x8[:, k] for k in picks]
    cs += list(rng.uniform(-0.3 * bound, 0.3 * bound, (20, 8)))
    escaped = 0
    for x in cs:
        c = Tricomplex(tuple(x))
        got = iterate_tricomplex(c, params, "direct")
        assert got == _direct_reference(c, params, table_mul), c.x
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


def _bicomplex_lane_members(values, params):
    """Membership of each Bicomplex value through the suites' bicomplex lanes."""
    columns = [np.array([c.z[k] for c in values]) for k in range(4)]
    return (_bicomplex_lanes(columns, params) == 0).tolist()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_bicomplex_member_matches_dataclass_loop(p, rng):
    params = IterationParams(p, 200)
    half = 0.45 * escape_bound(p)
    values = [Bicomplex(tuple(rng.uniform(-half, half, 4))) for _ in range(300)]
    got = _bicomplex_lane_members(values, params)
    for c, member in zip(values, got):
        assert member == _bicomplex_member_reference(c, params), c.z
    assert 10 <= sum(got) <= 290


# --- scalar escape-time driver ----------------------------------------------------
#
# Every scalar engine runs on dynamics._escape_time, which ends a run as a
# member once a state repeats a snapshot.  These tests pin each engine to
# a plain loop that runs every step, with each engine's arithmetic written
# out on the algebra's own types (Hyperbolic, Bicomplex).


def _every_step(step, z0, params):
    """The scalar escape-time loop without cycle retirement."""
    r2 = params.escape_radius * params.escape_radius
    z = z0
    for m in range(1, params.max_iter + 1):
        z, n2 = step(z)
        if n2 > r2 or not math.isfinite(n2):
            return EscapeResult(True, m)
    return EscapeResult(False, params.max_iter)


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
            assert engine(c, params) == ref, (c, max_iter)
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
        for c, member in zip(values, _bicomplex_lane_members(values, params)):
            assert member == _bicomplex_member_reference(c, params), (c, max_iter)


def test_escape_time_skips_whole_periods():
    # 0 -> -1 -> 0 -> ... (z^2 - 1): the run ends at the first repeat, a
    # few steps in, whatever the budget.
    calls = []

    def step(z):
        calls.append(z)
        z = z * z - 1.0
        return z, z * z

    for max_iter in (10 ** 9, 10 ** 9 + 1, 2 ** 32 - 1):
        calls.clear()
        r = dynamics._escape_time(step, 0.0, IterationParams(2, max_iter))
        assert r == EscapeResult(False, max_iter)
        assert len(calls) <= 5


# --- real line ---------------------------------------------------------------------
#
# iterate_real runs the real step on _escape_time, which also ends a run once
# _trapped finds a float y >= |x| with F(y) <= y, y >= -c and y*y <= lim (at
# odd p with c < 0 it iterates -c, the orbit negated).  These tests pin it
# to a plain every-step loop and the bisection to the complex oracle, and
# check the proof itself on states that need not lie on an orbit of 0.


def _real_reference(c, params):
    def step(x):
        xp = x
        for _ in range(params.p - 1):
            xp = xp * x
        x = xp + c
        return x, x * x
    return _every_step(step, 0.0, params)


def _ulps_around(x, most, every):
    """x and the floats every, 2 * every, ... most ulps below and above it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        v = x
        for k in range(1, most + 1):
            v = math.nextafter(v, direction)
            if k % every == 0:
                out.append(v)
    return out


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_real_member_matches_every_step(p, rng):
    # Random parameters, slow escapes past both ends of the real interval,
    # parameters within 1000 ulps of both ends, where members creep toward
    # a parabolic fixed point (or wander chaotically below 0 at even p), and
    # the edge values.
    lo, hi = real_extent_closed_form(p)
    values = [float(c) for c in rng.uniform(lo - 0.3, hi + 0.3, 120)]
    values += [end + s * 10.0 ** -k for end, s in ((lo, -1.0), (hi, 1.0))
               for k in range(2, 7)]
    values += _ulps_around(lo, 1000, 50) + _ulps_around(hi, 1000, 50)
    values += [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200]
    params = IterationParams(p, 2000)
    results = []
    for c in values:
        got = dynamics.iterate_real(c, params)
        assert got == _real_reference(c, params), c
        assert got == iterate_complex(complex(c), params), c
        results.append(got)
    assert any(r.escaped and r.iterations > 100 for r in results)
    assert sum(not r.escaped for r in results) > 50


def _bisect_by_complex_oracle(params, tol):
    def member(c):
        return member_multibrot(complex(c), params)

    outside = params.escape_radius + 0.5
    return (dynamics._bisect_boundary(member, 0.0, -outside, tol),
            dynamics._bisect_boundary(member, 0.0, outside, tol))


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_real_axis_extent_matches_the_complex_oracle_bisection(p, tol):
    params = IterationParams(p, 2000)
    got = real_axis_extent(params, tol)
    want = _bisect_by_complex_oracle(params, tol)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _chain(x, p):
    xp = x * x
    for _ in range(p - 2):
        xp = xp * x
    return xp


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_trapped_states_never_escape(p, rng):
    # States anywhere around the escape radius, increments of every scale,
    # parameters past both ends of the real interval (c >= 0 at odd p, as
    # _trapped takes it), and infinite or NaN states and increments.  Each
    # state proven trapped keeps x*x <= lim for 400 plain steps; some of the
    # others escape, so a false proof among them would show.
    r = escape_bound(p)
    lim = r * r
    n = 6000
    x = rng.uniform(-1.5 * r, 1.5 * r, n)
    d = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 1, n)
    c = rng.uniform(-1.5 * r, 1.5 * r, n)
    special = [math.inf, -math.inf, math.nan]
    x[:30], d[30:60], c[60:90] = (rng.choice(special, 30) for _ in range(3))
    if p % 2:
        c = np.abs(c)
    trapped = dynamics._trapped(x, d, c, p, lim)
    assert trapped.dtype == bool and trapped.shape == (n,)
    floats = [bool(dynamics._trapped(float(a), float(b), float(e), p, lim))
              for a, b, e in zip(x, d, c)]
    assert floats == trapped.tolist()
    z, inside = x.copy(), x * x <= lim
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(400):
            z = _chain(z, p) + c
            inside &= z * z <= lim
    assert inside[trapped].all(), np.flatnonzero(trapped & ~inside)[:5]
    assert trapped.sum() > n // 50 and (~inside).sum() > n // 10
    # An infinite or NaN state or parameter is never trapped; a state with
    # such an increment may still be, by the candidate -c.
    assert not trapped[:30].any() and not trapped[60:90].any()


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


def _rows(x8):
    """The coefficient rows of an (8, n) batch, None for a row of zeros: the
    components are real exactly when every i-unit row is None."""
    return [r if r.any() else None for r in x8]


def _lattice_rows(units, half, res):
    """The flat coefficient rows of a res^3 window of half-width half over
    a slice, None outside the slice."""
    axes = [cell_centers(-half, half, res)] * 3
    x = [None] * 8
    for u, g in zip(SliceSpec.parse(units).units, np.meshgrid(*axes, indexing="ij")):
        x[u] = g.ravel()
    return x


def _rows_for(w):
    """Coefficient rows, None for the units they leave out, whose components
    (complex4_rows) are about the (4, m) or (2, m) component batch w: real
    parts from the units 1, j1, j2, j3 (1, j1 for two rows), imaginary ones
    from i1-i4 (i1, i2).  Exactly w where each column is constant or has one
    nonzero row: the inverse then only scales by powers of two."""
    x = [None] * 8
    parts = [(w.real, (0, 7, 5, 6))]
    if np.iscomplexobj(w):
        parts.append((w.imag[[1, 0, 3, 2]] if len(w) == 4 else w.imag[[1, 0]],
                      (1, 4, 2, 3)))
    for r, (a, b, c, d) in parts:
        if len(r) == 2:  # the rows of a bicomplex subalgebra: (a + c), (a - c)
            x[a], x[c] = (r[0] + r[1]) / 2, (r[0] - r[1]) / 2
            continue
        sums, diffs = (r[0] + r[1]) / 2, (r[0] - r[1]) / 2
        sums2, diffs2 = (r[2] + r[3]) / 2, (r[2] - r[3]) / 2
        x[a], x[b] = (sums + sums2) / 2, (sums - sums2) / 2
        x[c], x[d] = (diffs2 + diffs) / 2, (diffs2 - diffs) / 2
    return x


def _concat_rows(*parts):
    """The cells of several coefficient row sets side by side: a unit absent
    from a set is zero there, and None where every set leaves it out."""
    sizes = [next(r.size for r in x if r is not None) for x in parts]
    return [None if all(x[u] is None for x in parts) else
            np.concatenate([np.zeros(m) if x[u] is None else x[u]
                            for x, m in zip(parts, sizes)])
            for u in range(8)]


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
        assert (tricomplex_components(x8).dtype == np.float64) == real
        assert (complex4_rows(_rows(x8)).dtype == np.float64) == real
        counts, member = grid_counts_tricomplex(_rows(x8), BAND_PARAMS)
        _assert_band_matches(
            counts, member,
            lambda k: iterate_tricomplex(Tricomplex(tuple(x8[:, k])), BAND_PARAMS,
                                         "direct"),
            rng)


def test_grid_threads_do_not_change_output(rng, monkeypatch):
    # Workers are capped at the CPU count; pretend to have 8, and let every
    # worker take a block of any size, so every requested count below gives
    # its own partition.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)
    monkeypatch.setattr(dynamics, "_CHUNK", 97)
    params = IterationParams(3, 150)
    x8 = rng.uniform(-1.5, 1.5, (8, 500))
    cs = x8[0] + 1j * x8[1]
    # A lattice window shares its row values and takes the distinct-value
    # path; the random batch does not.
    lattice = _lattice_rows("i1,i2,i3", 1.5, 12)
    w = complex4_rows(lattice)
    assert np.unique(w).size * dynamics._MIN_SHARING <= w.size
    runs = {
        threads: (grid_counts_tricomplex(x8, params, threads=threads),
                  grid_counts_tricomplex(lattice, params, threads=threads),
                  grid_counts_complex(cs, params, threads=threads),
                  grid_counts_hyperbolic(x8[2], x8[3], params, threads=threads))
        for threads in (1, 2, 3, 8)
    }
    for threads in (2, 3, 8):
        for (c, m), (c1, m1) in zip(runs[threads], runs[1]):
            assert np.array_equal(c, c1) and np.array_equal(m, m1)


def test_grid_workers_capped_at_cpu_count(rng, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor and runs the work in this thread."""

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
    # Below two minimum blocks the kernel runs on the calling thread.
    assert 400 < 2 * dynamics._MIN_BLOCK
    ref_counts, ref_member = grid_counts_complex(cs, params, threads=10_000)
    assert pools == []
    # With smaller blocks, each worker takes at least _MIN_BLOCK points.
    for block, workers in ((150, 2), (100, 4), (1, 4)):
        monkeypatch.setattr(dynamics, "_MIN_BLOCK", block)
        pools.clear()
        counts, member = grid_counts_complex(cs, params, threads=10_000)
        assert pools == [workers], block
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    # The hyperbolic and tricomplex paths' passes over the input use the
    # same cap.
    pools.clear()
    counts, member = grid_counts_hyperbolic(cs.real, cs.imag, params, threads=10_000)
    assert len(pools) >= 2 and all(w <= os.cpu_count() for w in pools)
    ref_counts, ref_member = grid_counts_hyperbolic(cs.real, cs.imag, params)
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    # The distinct-value path settles the cells in one pass, the four
    # workers sharing chunks of 100.  The joint kernel, which this lattice
    # takes under the default sharing rule, splits its 1000 cells into
    # blocks of at least 250.
    lattice = _lattice_rows("1,i1,i2", 1.5, 10)
    w = complex4_rows(lattice)
    assert np.unique(w).size * dynamics._MIN_SHARING > w.size
    ref_counts, ref_member = dynamics._counts_kernel(w, params)
    monkeypatch.setattr(dynamics, "_CHUNK", 100)
    for sharing, block in ((0, 1 << 17), (dynamics._MIN_SHARING, 250)):
        monkeypatch.setattr(dynamics, "_MIN_SHARING", sharing)
        monkeypatch.setattr(dynamics, "_MIN_BLOCK", block)
        pools.clear()
        counts, member = grid_counts_tricomplex(lattice, params, threads=10_000)
        assert pools == [4], sharing
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)


# --- streamed hyperbolic path ----------------------------------------------------
#
# grid_counts_hyperbolic splits its inputs into one range per worker and
# reads each range in chunks of _CHUNK // workers points.  These tests pin it
# to the whole-grid body (the hyperbolic_whole_grid fixture) with ranges and
# chunks that split rows and leave a partial last chunk.


def _hyperbolic_inputs(case, rng):
    # Asymmetric in both axes, so a flipped or transposed read shows.
    xs = cell_centers(-0.41, 0.43, 103)
    ys = cell_centers(-0.37, 0.42, 97)
    # Square windows whose grids transpose at odd p (a == b.T or a == -b.T):
    # on asymmetric axes, which mirror neither way, and on render2d's
    # symmetric hyperbrot window, whose quarter transposes.
    if case == "square, equal axes":
        return np.meshgrid(xs, xs, copy=False)
    if case == "square, negated axes":  # render2d, y window the negated x window
        xs = cell_centers(-0.41, 0.43, 100)
        return np.meshgrid(xs, cell_centers(-0.43, 0.41, 100)[::-1], copy=False)
    if case == "square, symmetric view":
        xs = cell_centers(-0.42, 0.42, 101)
        return np.meshgrid(xs, xs[::-1], copy=False)
    if case == "square, symmetric copies":
        xs = cell_centers(-0.42, 0.42, 101)
        return [g.copy() for g in np.meshgrid(xs, xs, copy=False)]
    if case == "meshgrid view":
        return np.meshgrid(xs, ys, copy=False)
    if case == "reversed-y view":  # as render2d builds it
        return np.meshgrid(xs, ys[::-1], copy=False)
    if case == "3-D view":  # its own representative block
        zs = cell_centers(-0.3, 0.5, 5)
        return np.meshgrid(xs, ys, zs, copy=False, indexing="ij")[:2]
    if case == "contiguous":
        return rng.uniform(-0.6, 0.6, 4001), rng.uniform(-0.6, 0.6, 4001)
    if case == "strided columns":
        pts = rng.uniform(-0.6, 0.6, (4001, 2))
        return pts[:, 0], pts[:, 1]
    # Signed zeros (a - b and a + b of +-0.0 give both signs) and exact
    # duplicates, within a chunk and across chunks.
    values = np.array([0.0, -0.0, 0.1, -0.1, 0.25, 0.3849, -0.3849, 0.5])
    return rng.choice(values, 4001), rng.choice(values, 4001)


_SQUARE_CASES = ["square, equal axes", "square, negated axes", "square, symmetric view",
                 "square, symmetric copies"]
_HYPERBOLIC_CASES = ["meshgrid view", "reversed-y view", "3-D view", "contiguous",
                     "strided columns", "signed zeros and duplicates"] + _SQUARE_CASES


def _recording_passes(monkeypatch):
    """The (shape, square) of each block grid_counts_hyperbolic hands its
    passes, recorded in the list returned."""
    blocks = []
    passes = dynamics._hyperbolic_counts

    def recording(a, *args):
        blocks.append((a.shape, args[-1]))
        return passes(a, *args)

    monkeypatch.setattr(dynamics, "_hyperbolic_counts", recording)
    return blocks


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("chunk", [37, 1000])
@pytest.mark.parametrize("case, p", [pytest.param(case, 3, id=case)
                                     for case in _HYPERBOLIC_CASES]
                         + [pytest.param(case, p, id=f"{case}, p={p}")
                            for case in _SQUARE_CASES for p in (2, 5)])
def test_streamed_hyperbolic_matches_whole_grid(case, p, chunk, threads, rng, monkeypatch,
                                                hyperbolic_whole_grid):
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)  # split small batches too
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    # Outputs start at count 0, which no cell has, so a cell left unwritten
    # shows whatever memory np.empty would have reused.
    monkeypatch.setattr(np, "empty", np.zeros)
    blocks = _recording_passes(monkeypatch)
    a, b = _hyperbolic_inputs(case, rng)
    params = IterationParams(p, 300)
    counts, member = grid_counts_hyperbolic(a, b, params, threads=threads)
    ref_counts, ref_member = hyperbolic_whole_grid(a, b, params, threads=threads)
    assert counts.shape == member.shape == (a.size,)
    assert counts.dtype == np.uint32 and member.dtype == bool
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    assert member.any() and not member.all()
    assert [square for _, square in blocks] == [case in _SQUARE_CASES and p % 2 == 1]


@pytest.mark.parametrize("chunk, sizes", [(None, (1000, 2000)), (1 << 12, (500, 1000))])
def test_streamed_hyperbolic_memory_is_flat_in_grid_size(chunk, sizes, monkeypatch):
    # Beyond the 5 B/cell outputs the path holds a few chunk-sized arrays
    # and the distinct components (7,359 at 1000^2, 14,547 at 2000^2).  The
    # whole-grid body took about 64 B/cell: 192 MB more at 2000^2.  With
    # small chunks, holding every chunk's distinct values until the end
    # would add about 12 MB from 500^2 to 1000^2, at any worker count.  Two
    # workers share one _CHUNK between them: a full chunk each would add
    # about 2 MB.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    if chunk is not None:
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    params = IterationParams(3, 8)
    extra = {}
    for threads in (1, 2):
        for n in sizes:
            xs = cell_centers(-0.4, 0.4, n)
            a, b = np.meshgrid(xs, xs[::-1], copy=False)
            tracemalloc.start()
            try:
                grid_counts_hyperbolic(a, b, params, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[threads, n] = peak - 5 * n * n
        assert extra[threads, sizes[1]] <= extra[threads, sizes[0]] + 2_000_000, threads
    assert extra[2, sizes[1]] <= extra[1, sizes[1]] + 2_000_000


def test_streamed_hyperbolic_memory_is_flat_on_a_shifted_window(monkeypatch):
    # A window shifted by a fraction of a cell mirrors neither way, so the
    # whole grid takes the two passes: the same bound as above holds there.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    params = IterationParams(3, 8)
    extra = {}
    for threads in (1, 2):
        for n in (1000, 2000):
            xs = cell_centers(-0.4, 0.4, n) + 0.37 * 0.8 / n
            a, b = np.meshgrid(xs, xs[::-1], copy=False)
            tracemalloc.start()
            try:
                grid_counts_hyperbolic(a, b, params, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[threads, n] = peak - 5 * n * n
        assert extra[threads, 2000] <= extra[threads, 1000] + 2_000_000, threads
    assert extra[2, 2000] <= extra[1, 2000] + 2_000_000


def test_transposed_hyperbolic_memory_is_flat_on_contiguous_inputs(monkeypatch):
    # Contiguous copies have no zero strides to cut, so the mirror and
    # transpose tests compare them in blocks: comparing the 1000^2 quarter
    # whole would hold 8 MB more at 2000^2 than at 1000^2.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    blocks = _recording_passes(monkeypatch)
    params = IterationParams(3, 8)
    extra = {}
    for threads in (1, 2):
        for n in (1000, 2000):
            xs = cell_centers(-0.4, 0.4, n)
            a, b = (g.copy() for g in np.meshgrid(xs, xs, copy=False))
            blocks.clear()
            tracemalloc.start()
            try:
                grid_counts_hyperbolic(a, b, params, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert blocks == [((n // 2, n // 2), True)]
            extra[threads, n] = peak - 5 * n * n
        assert extra[threads, 2000] <= extra[threads, 1000] + 2_000_000, threads


@pytest.mark.parametrize("threads", [1, 2])
def test_hyperbric_area_passes_read_an_eighth_of_the_window(threads, monkeypatch):
    # The default estimate --kind hyperbric-area window mirrors both ways
    # at p = 3 and its quarter transposes, so each pass reads each row
    # block's columns from its first row onward: about n^2/8 cells, where
    # the quarter alone would be n^2/4.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    n = 2000
    lo, hi = real_extent_closed_form(3)
    half = max(abs(lo), abs(hi)) * 1.1
    xs = cell_centers(-half, half, n)
    a, b = np.meshgrid(xs, xs, copy=False)
    read = {"distinct": 0, "gather": 0}
    concatenate, searchsorted = np.concatenate, np.searchsorted

    def joining(arrays, axis=0, **kwargs):
        if axis is None:  # a block's two components, in the distinct pass
            read["distinct"] += sum(x.size for x in arrays) // 2
        return concatenate(arrays, axis=axis, **kwargs)

    def searching(haystack, needles, *args, **kwargs):
        read["gather"] += np.size(needles) / 2  # each component once
        return searchsorted(haystack, needles, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", joining)
    monkeypatch.setattr(np, "searchsorted", searching)
    grid_counts_hyperbolic(a, b, IterationParams(3, 2000), threads=threads)
    assert read["distinct"] == read["gather"]
    assert n * n / 8 < read["gather"] < 1.1 * n * n / 8


# --- mirrored hyperbolic path ----------------------------------------------------
#
# A 2-D input whose rows mirror (a[::-1] == a, b[::-1] == -b), or at odd p
# whose columns mirror (a[:, ::-1] == -a, b[:, ::-1] == b), is iterated on
# one block and the outputs filled by flipping it.  At odd p a square block
# that transposes (a == b.T or a == -b.T) is read from each row block's
# first row onward and the rest filled from the transposes.  These tests pin
# it to the whole-grid body.


def _mirror_axis(n, case):
    """n cell centres of a window axis: symmetric about the origin, with a
    -0.0 centre, with infinite or NaN ends, or shifted by a fraction of a
    cell."""
    xs = cell_centers(-0.45, 0.45, n)
    if case == "shifted":
        return xs + 0.37 * 0.9 / n
    if case == "-0.0 centre" and n % 2:
        xs[n // 2] = -0.0
    if case == "inf ends":
        xs[0], xs[-1] = -np.inf, np.inf
    if case == "nan ends":
        xs[0] = xs[-1] = np.nan
    return xs


_MIRROR_WINDOWS = [("symmetric", "symmetric"), ("shifted", "shifted"),
                   ("symmetric", "shifted"), ("shifted", "symmetric"),
                   ("-0.0 centre", "-0.0 centre"), ("inf ends", "symmetric"),
                   ("inf ends", "inf ends"), ("symmetric", "nan ends"),
                   ("nan ends", "inf ends")]


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_mirrored_hyperbolic_matches_whole_grid(p, chunk, monkeypatch,
                                                hyperbolic_whole_grid):
    # Each window is read as a meshgrid view and as contiguous copies; at
    # chunk 7 the mirror tests and the fill walk several blocks of rows.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    if chunk is not None:
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    monkeypatch.setattr(np, "empty", np.zeros)  # no cell holds count 0
    blocks = _recording_passes(monkeypatch)
    params = IterationParams(p, 200)
    mirrors = {"symmetric", "-0.0 centre", "inf ends"}
    for xcase, ycase in _MIRROR_WINDOWS:
        for H in (1, 2, 7, 8):
            for W in (1, 2, 7, 8):
                xs = _mirror_axis(W, xcase)
                # The y axis as render2d reads it (top row first) and, on a
                # square window, as hyperbric-area does: the block transposes
                # to b.T = -a or to b.T = a where the axes agree.
                for ys in [_mirror_axis(H, ycase)[::-1]] + [_mirror_axis(H, ycase)] * (H == W):
                    a, b = np.meshgrid(xs, ys, copy=False)
                    with np.errstate(all="ignore"):
                        ref = hyperbolic_whole_grid(a, b, params)
                    # A NaN anywhere fails every equality test.
                    nan = "nan ends" in (xcase, ycase)
                    h = (H + 1) // 2 if ycase in mirrors and not nan else H
                    w = (W + 1) // 2 if xcase in mirrors and p % 2 and not nan else W
                    square = bool(p % 2 and h == w and (np.array_equal(xs[:w], ys[:h])
                                                        or np.array_equal(xs[:w], -ys[:h])))
                    for x, y, threads in ((a, b, 1), (a, b, 2), (a.copy(), b.copy(), 2)):
                        blocks.clear()
                        counts, member = grid_counts_hyperbolic(x, y, params,
                                                                threads=threads)
                        case = (xcase, ycase, H, W, ys[0], threads)
                        assert blocks == [((h, w), square)], case
                        assert np.array_equal(counts, ref[0]), case
                        assert np.array_equal(member, ref[1]), case


def test_transpose_test_reads_every_cell_where_one_input_repeats(monkeypatch,
                                                                hyperbolic_whole_grid):
    # a repeats one row (a zero stride) and b is a copy of a.T but for one
    # cell, which escapes at once: the test may cut an axis to one entry
    # only where both inputs repeat it.  Row blocks of two rows make the
    # passes read part of the grid, so a wrong test shows in the output.
    monkeypatch.setattr(dynamics, "_CHUNK", 18)
    blocks = _recording_passes(monkeypatch)
    params = IterationParams(3, 300)
    a = np.broadcast_to(cell_centers(-0.42, 0.43, 9), (9, 9))
    b = a.T.copy()
    b[3, 5] = 5.0
    counts, member = grid_counts_hyperbolic(a, b, params)
    ref_counts, ref_member = hyperbolic_whole_grid(a, b, params)
    assert blocks == [((9, 9), False)]
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    b[3, 5] = a[5, 3]
    blocks.clear()
    counts, member = grid_counts_hyperbolic(a, b, params)
    assert blocks == [((9, 9), True)]
    assert np.array_equal(counts, hyperbolic_whole_grid(a, b, params)[0])


def test_hyperbolic_grid_too_large_for_memory_fails_at_once():
    # 10^14 cells of zero-memory views: the outputs are allocated before
    # either pass, which used to stream over every cell first.
    a = np.broadcast_to(0.1, (10 ** 7, 10 ** 7))
    for b in (a, np.broadcast_to(0.0, a.shape)):
        t0 = time.perf_counter()
        with pytest.raises(MemoryError):
            grid_counts_hyperbolic(a, b, IterationParams(3, 50), threads=2)
        assert time.perf_counter() - t0 < 5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=4).flatmap(
    lambda shape: st.tuples(st.just(tuple(shape)),
                            st.integers(0, shape[0]), st.integers(0, shape[0]),
                            st.integers(1, 50))))
def test_blocks_walk_the_rows_in_c_order(case):
    # The blocks of rows lo:hi cover their flat range once, in C order, in
    # blocks of at most most cells, and each index selects its range.
    shape, lo, hi, most = case
    lo, hi = min(lo, hi), max(lo, hi)
    grid = np.arange(math.prod(shape)).reshape(shape)
    inner = math.prod(shape[1:])
    at = lo * inner
    for index, a, b in dynamics._blocks(shape, lo, hi, most):
        assert a == at and a < b <= a + most
        assert np.array_equal(grid[index].ravel(), np.arange(a, b))
        at = b
    assert at == hi * inner


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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_hyperbolic_overflow_warns_at_no_worker_count(threads, monkeypatch,
                                                      hyperbolic_whole_grid):
    # a - b and a + b of these overflow or are NaN; on a worker thread the
    # caller's np.errstate does not hold, so the path silences them itself,
    # at every worker count.  Such cells escape at step 1.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)
    monkeypatch.setattr(dynamics, "_CHUNK", 6)
    edge = [np.inf, -np.inf, np.nan, 1e308, -1e308]
    pairs = [(x, y) for x in edge + [0.0, 0.1] for y in edge + [0.0, -0.2]]
    a, b = np.array(pairs).T
    params = IterationParams(3, 300)
    counts, member = grid_counts_hyperbolic(a, b, params, threads=threads)
    with np.errstate(all="ignore"):
        ref_counts, ref_member = hyperbolic_whole_grid(a, b, params, threads=threads)
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    finite = np.isin(a, [0.0, 0.1]) & np.isin(b, [0.0, -0.2])
    assert (counts[~finite] == 1).all() and not member[~finite].any()
    assert member[finite].any()


def _synthetic_outcomes(scheme, n, max_iter):
    """Outcomes by position in the sorted distinct values: each value its
    own run, runs that break on the count or the flag alone and recur, or
    one run."""
    i = np.arange(n)
    if scheme == "own":
        return (i + 1).astype(np.uint32), i % 3 == 0
    if scheme == "alternating":
        return (7 + (i // 5) % 2).astype(np.uint32), (i // 7) % 2 == 1
    return np.full(n, max_iter, dtype=np.uint32), np.ones(n, dtype=bool)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("chunk", [37, 1000])
@pytest.mark.parametrize("scheme", ["own", "alternating", "one"])
def test_hyperbolic_gathers_each_value_its_runs_outcome(scheme, chunk, threads, rng,
                                                        monkeypatch):
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    params = IterationParams(3, 300)
    outcome = {}

    def fake_run_blocks(uniq, params_, threads_):
        counts_u, member_u = _synthetic_outcomes(scheme, uniq.size, params_.max_iter)
        outcome.update(zip(uniq.tolist(), zip(counts_u.tolist(), member_u.tolist())))
        return counts_u, member_u

    monkeypatch.setattr(dynamics, "_run_blocks", fake_run_blocks)
    for case in ("reversed-y view", "signed zeros and duplicates"):
        outcome.clear()
        a, b = _hyperbolic_inputs(case, rng)
        counts, member = grid_counts_hyperbolic(a, b, params, threads=threads)
        # The outcome of each cell's two component values, looked up by
        # value (0.0 and -0.0 are one key).
        a, b = np.ravel(a), np.ravel(b)
        cm = [outcome[v] for v in (a - b).tolist()]
        cp = [outcome[v] for v in (a + b).tolist()]
        assert counts.tolist() == [min(x[0], y[0]) for x, y in zip(cm, cp)], case
        assert member.tolist() == [x[1] and y[1] for x, y in zip(cm, cp)], case


def test_hyperbolic_gather_searches_one_entry_per_run(monkeypatch):
    # On a hyperbrot window the outcomes over the sorted component values
    # change at few places (membership is the real-axis interval), and the
    # gather searches a table with one entry per run of equal outcomes.  A
    # window shifted by a fraction of a cell is iterated whole; at p = 3 a
    # symmetric one is iterated on its top-left quarter.
    params = IterationParams(3, 300)
    haystacks = []
    searchsorted = np.searchsorted

    def recording(haystack, *args, **kwargs):
        haystacks.append(len(haystack))
        return searchsorted(haystack, *args, **kwargs)

    for shift, block in ((0.37, 60), (0.0, 30)):
        xs = cell_centers(-0.4, 0.4, 60) + shift * 0.8 / 60
        a, b = np.meshgrid(xs, xs[::-1], copy=False)
        qa, qb = a[:block, :block], b[:block, :block]
        uniq = np.unique(np.concatenate([(qa - qb).ravel(), (qa + qb).ravel()]))
        counts_u, member_u = dynamics._run_blocks(uniq, params, 1)
        runs = 1 + np.count_nonzero((counts_u[1:] != counts_u[:-1])
                                    | (member_u[1:] != member_u[:-1]))
        assert runs * 5 < uniq.size
        haystacks.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "searchsorted", recording)
            grid_counts_hyperbolic(a, b, params)
        assert haystacks == [runs, runs], shift


# --- distinct values by sorting ----------------------------------------------------
#
# The hyperbolic engine collects its distinct values with _sorted_distinct,
# which np.unique (the oracle here) pins bit for bit: the same sort, the
# first of each run of equal values, and one NaN.


def _lattice_components():
    xs = cell_centers(-0.4, 0.4, 60)
    a, b = np.meshgrid(xs, xs[::-1])
    return np.concatenate([(a - b).ravel(), (a + b).ravel()])


_NAN = np.float64(np.nan)
_NEG_NAN = -_NAN  # the sign bit set: a NaN with another bit pattern
_DISTINCT_CASES = {
    "empty": np.empty(0),
    "one value": np.array([0.25]),
    "one NaN": np.array([np.nan]),
    "all equal": np.full(50, -0.125),
    "all NaN": np.array([np.nan, _NEG_NAN, np.nan, np.nan]),
    "several NaNs": np.array([1.0, np.nan, -2.0, _NEG_NAN, 1.0, np.nan, 0.5]),
    "infinities": np.array([np.inf, -np.inf, 3.0, np.inf, -np.inf, -3.0]),
    "infinities and NaNs": np.array([np.nan, np.inf, -np.inf, np.nan, np.inf, 0.0]),
    "zeros": np.array([0.0, -0.0]),
    "negative zero first": np.array([-0.0, 0.0]),
    "zeros among values": np.array([0.1, -0.0, 0.0, -0.1, -0.0, 0.0, 0.1, -0.0]),
    "sorted": np.repeat(np.arange(-20, 20) / 8, 3),
    "reversed": np.repeat(np.arange(-20, 20) / 8, 3)[::-1].copy(),
    "lattice": _lattice_components(),
    "lattice reversed": _lattice_components()[::-1].copy(),
}


@pytest.mark.parametrize("case", list(_DISTINCT_CASES))
def test_sorted_distinct_matches_unique_bit_for_bit(case):
    v = _DISTINCT_CASES[case]
    want = np.unique(v)
    got = dynamics._sorted_distinct(v.copy())
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.count_nonzero(np.isnan(got)) == (np.isnan(v).any())
    assert np.count_nonzero(got == 0.0) == (v == 0.0).any()
    assert got.size == len(set(v[~np.isnan(v)].tolist())) + np.isnan(v).any()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, 2.0, np.inf, -np.inf,
                                 float(np.nan), float(_NEG_NAN)]), max_size=40),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
def test_sorted_distinct_matches_unique_on_drawn_values(pool, drawn):
    v = np.array(pool + drawn, dtype=np.float64)
    assert dynamics._sorted_distinct(v.copy()).tobytes() == np.unique(v).tobytes()


def _edge_axis(n, case):
    """n cell centres of a shifted window axis with NaN, infinite or
    signed-zero entries, so whole rows or columns hold them."""
    xs = cell_centers(-0.45, 0.45, n) + 0.3 * 0.9 / n
    if case == "nan":
        xs[1::4] = np.nan
    elif case == "inf":
        xs[::3] = np.inf
        xs[1::3] = -np.inf
    elif case == "zeros":
        xs[::2] = 0.0
        xs[1::4] = -0.0
    return xs


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("xcase, ycase", [("nan", "plain"), ("plain", "nan"),
                                          ("inf", "plain"), ("plain", "inf"),
                                          ("zeros", "zeros"), ("nan", "inf"),
                                          ("zeros", "nan"), ("inf", "zeros")])
def test_hyperbolic_rows_of_nan_inf_and_signed_zeros_match_whole_grid(
        xcase, ycase, threads, monkeypatch, hyperbolic_whole_grid):
    # Blocks of a few rows hold several NaNs, infinities of both signs and
    # zeros of both signs, each block's distinct values and their merges
    # alike; every cell must come out as the whole-grid body gives it.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)
    monkeypatch.setattr(dynamics, "_CHUNK", 40)
    monkeypatch.setattr(np, "empty", np.zeros)  # no cell holds count 0
    params = IterationParams(3, 300)
    xs, ys = _edge_axis(23, xcase), _edge_axis(19, ycase)[::-1]
    for a, b in (np.meshgrid(xs, ys, copy=False), np.meshgrid(xs, ys)):
        counts, member = grid_counts_hyperbolic(a, b, params, threads=threads)
        with np.errstate(all="ignore"):
            ref_counts, ref_member = hyperbolic_whole_grid(a, b, params, threads=threads)
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
        assert member.any() and not member.all()


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
def test_grid_engines_check_threads(threads, monkeypatch):
    # A bad worker count is refused before any work: 0 used to divide by
    # zero, and -1 left the hyperbolic outputs uninitialised.
    monkeypatch.setattr(dynamics, "_step", _no_step)
    params = IterationParams(3, 50)
    xs = np.linspace(-0.3, 0.3, 5)
    calls = [
        lambda: grid_counts_complex(xs + 0.1j, params, threads=threads),
        lambda: grid_counts_real(xs, params, threads=threads),
        lambda: grid_counts_hyperbolic(xs, xs[::-1], params, threads=threads),
        lambda: grid_counts_tricomplex([xs] + [None] * 7, params, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"threads must be a positive integer, "
                                             f"got {re.escape(repr(threads))}"):
            call()


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
        grid_counts_tricomplex(np.empty((8, 0)), params, threads=2),
        grid_counts_tricomplex([np.empty(0), None, np.empty(0)] + [None] * 5, params),
        grid_counts_tricomplex([None] * 5 + [np.empty((3, 0)), np.empty((1, 0)), None],
                               params, threads=3),
        # The flat rows of a window at none of its cells.
        grid_counts_tricomplex([np.arange(3.0)[np.empty(0, dtype=np.intp)]] + [None] * 7,
                               params, threads=3),
    ]
    for counts, member in results:
        assert counts.shape == member.shape == (0,)
        assert counts.dtype == np.uint32 and member.dtype == bool


# --- cycle retirement --------------------------------------------------------------
#
# The kernel retires a point as a member when, on a step that is a multiple of
# _CYCLE_TEST_EVERY, its state equals its last power-of-two snapshot (Brent's)
# or its trailing snapshot, re-taken every _TRAILING_EVERY steps that are not
# powers of two.  A state equal to an earlier live state repeats forever, and
# a member found on a later test step gets the same count and flag, so the
# schedule changes no output.  These tests pin the kernel to the kernel
# without retirement (the kernel_no_retirement fixture), with budgets ending
# before, at and just after each step where the schedule changes (_budgets).

# Parameters whose first iterate has an infinite or NaN norm.
_OVERFLOWING = (1e200, -1e155, np.inf, -np.inf, np.nan)


def _budgets(*extra):
    """Budgets ending one step before, at and one step after the first two
    snapshots, the first test step, the first two trailing re-takes and the
    first test steps after them, computed from the kernel's constants."""
    first, every = dynamics._FIRST_SNAPSHOT, dynamics._CYCLE_TEST_EVERY
    retakes = [m for m in range(0, 6 * dynamics._TRAILING_EVERY, dynamics._TRAILING_EVERY)
               if m > first and m & (m - 1)][:2]
    assert len(retakes) == 2
    steps = [first, 2 * first, first + every - first % every]
    steps += retakes + [m + every for m in retakes]
    return sorted({m + d for m in steps for d in (-1, 0, 1)} | set(extra))


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
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)  # split small batches too
    c = _kernel_state(kind)
    assert c.ndim == (2 if kind.endswith("4") else 1)
    assert np.iscomplexobj(c) == kind.startswith("complex")
    for max_iter in _budgets(10, 300):
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


def test_repeats_needs_every_row_of_one_snapshot():
    snap, trail = np.zeros((4, 3)), np.ones((4, 3))
    z = np.array(trail)
    z[0, 0] = 0.0  # row 0 equals snap, rows 1-3 equal trail
    z[:, 1] = 0.0  # all rows equal snap
    z[3, 2] = 2.0  # rows 0-2 equal trail, row 3 neither
    assert dynamics._repeats(z, snap, trail).tolist() == [False, True, False]
    assert dynamics._repeats(z, snap, None).tolist() == [False, True, False]
    assert dynamics._repeats(z, trail, None).tolist() == [False, False, False]
    assert dynamics._repeats(z, z, trail).all()
    w = np.array([0.0, 1.0, 2.0, np.nan])
    assert dynamics._repeats(w, np.zeros(4), np.full(4, 2.0)).tolist() == [
        True, False, True, False]
    assert dynamics._repeats(w, w, None).tolist() == [True, True, True, False]


def test_trailing_snapshot_retires_members_sooner(monkeypatch):
    # Point-steps through a wrapped _step, with the trailing snapshot as it is
    # and with its first re-take past the budget: the same outputs, fewer steps.
    c = _kernel_state("complex")
    params = IterationParams(3, 1000)
    step, steps = dynamics._step, []

    def counting(z, cc, p):
        steps[-1] += z.shape[-1]
        return step(z, cc, p)

    monkeypatch.setattr(dynamics, "_step", counting)
    runs = []
    for trailing in (dynamics._TRAILING_EVERY, 2 * params.max_iter):
        monkeypatch.setattr(dynamics, "_TRAILING_EVERY", trailing)
        steps.append(0)
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append(dynamics._counts_kernel(c, params))
    (counts, member), (ref_counts, ref_member) = runs
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    assert member.sum() > c.size // 8
    assert steps[0] < steps[1], steps


@pytest.mark.parametrize("kind", ["real", "complex", "real4", "complex4"])
def test_slow_escapes_near_parabolic_points_are_not_retired(kind, kernel_no_retirement):
    # Just outside the cusp of each real interval the orbit creeps past the
    # parabolic fixed point, moving less than 1e-5 per step for hundreds of
    # steps before it escapes: nearly, but never exactly, periodic.  At odd
    # p the same happens below the negative end, the orbit negated, which a
    # real batch iterates as |c|.  Just inside both ends the orbits are
    # members, creeping toward the fixed point or wandering below 0, and
    # real ones retire once _trapped proves them bounded.  Every budget of
    # _budgets, and one past the slowest escape.
    eps = np.array([1e-6, 2e-6, 5e-6])
    for p in (2, 3):
        lo, hi = real_extent_closed_form(p)
        slow = np.concatenate([hi + eps] + ([lo - eps] if p % 2 else []))
        c = _as_kind(np.concatenate([slow, hi - eps, lo + eps]), kind)
        for max_iter in _budgets(3500):
            params = IterationParams(p, max_iter)
            ref_counts, ref_member = kernel_no_retirement(c, params)
            counts, member = dynamics._counts_kernel(c, params)
            assert np.array_equal(counts, ref_counts), (p, max_iter)
            assert np.array_equal(member, ref_member), (p, max_iter)
        assert not ref_member[:slow.size].any() and ref_counts[:slow.size].min() > 1000
        assert ref_member[slow.size:].all()


def test_real_batches_alone_are_proven_bounded(monkeypatch):
    # _trapped runs on the cycle-test steps of 1-D real batches only: a
    # complex batch or a batch of several rows runs the kernel as it was.
    trapped, calls = dynamics._trapped, []

    def recording(x, d, c, p, lim):
        calls.append((x.shape, x.dtype, c.shape))
        return trapped(x, d, c, p, lim)

    monkeypatch.setattr(dynamics, "_trapped", recording)
    params = IterationParams(3, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        for kind in ("real", "complex", "real4", "complex4"):
            calls.clear()
            dynamics._counts_kernel(_kernel_state(kind), params)
            assert bool(calls) == (kind == "real"), kind
            assert all(len(x) == 1 and len(c) == 1 and dtype == np.float64
                       for x, dtype, c in calls)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_proof_retires_real_members_sooner(p, monkeypatch):
    # Point-steps through a wrapped _step (the proof's own steps included)
    # on the hyperbrot window's component values, with _trapped as it is
    # and proving nothing: the same outputs, far fewer steps.
    c = _kernel_state("real")
    params = IterationParams(p, 1000)
    step, steps = dynamics._step, []

    def counting(z, cc, p):
        steps[-1] += np.size(z)
        return step(z, cc, p)

    monkeypatch.setattr(dynamics, "_step", counting)
    runs = []
    for proof in (dynamics._trapped, lambda x, d, c, p, lim: np.zeros(x.shape, bool)):
        monkeypatch.setattr(dynamics, "_trapped", proof)
        steps.append(0)
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append(dynamics._counts_kernel(c, params))
    (counts, member), (ref_counts, ref_member) = runs
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
    assert member.sum() > c.size // 8
    assert 5 * steps[0] < 4 * steps[1], steps


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
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)  # split small batches too
    trickle = _trickle(p)
    members = np.linspace(-0.2, 0.2, 4 * len(trickle))
    c = np.concatenate([members.reshape(len(trickle), 4), trickle[:, None]], axis=1)
    c = _as_kind(c.ravel(), kind)
    for max_iter in _budgets(12, 100, 1000):
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
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)  # split small batches too
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
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)  # split small batches too
    # The first two rows: Tetrabric's distinct components, whose rows 2 and
    # 3 repeat them, and two of Perplexbric's real ones; the overflowing
    # points have inf or NaN first iterates.
    c2 = np.ascontiguousarray(_kernel_state(kind)[:2])
    assert np.iscomplexobj(c2) == (kind == "complex4")
    budgets = [IterationParams(p, max_iter) for p in (2, 3)
               for max_iter in (16, 17, 33, 300)]
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
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)  # split small batches too
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


# --- distinct-value tricomplex path ----------------------------------------------
#
# grid_counts_tricomplex iterates each distinct row value of a batch once,
# settles each cell from its rows' first steps past lim and 4 lim, sums the
# ring norm of the cells in between from a table of the values' squared
# norms, and runs the joint kernel on cells still open past the table.
# These tests pin it bit for bit to the joint kernel (_counts_kernel on the
# whole batch), with _MIN_SHARING at 0 so that every batch takes the path.

_K = dynamics._TABLE_STEPS
# Budgets ending at the first steps, on both sides of the table's end, and
# past every tabulated step.
_TABLE_BUDGETS = (1, 2, _K - 2, _K - 1, _K, _K + 1, _K + 2, 1000)
# A slice of each layout: real and complex, four rows and two.  The real
# two-row lattice takes the first two rows of the real four-row one.
_LAYOUTS = {"real4": "1,j1,j2", "real2": "1,j1,j2", "complex4": "i1,i2,i3",
            "complex2": "1,i1,i2"}


_KERNEL = dynamics._counts_kernel


def _recorded_kernel_calls(monkeypatch, batches=None):
    """The shapes of the batches _counts_kernel iterates from now on, and
    the batches themselves appended to batches if given.  A call passing
    more than the batch and the parameters raises TypeError."""
    shapes = []

    def recording(c, params):
        shapes.append(c.shape)
        if batches is not None:
            batches.append(c.copy())
        return _KERNEL(c, params)

    monkeypatch.setattr(dynamics, "_counts_kernel", recording)
    return shapes


def _pairing_sensitive_cells(p):
    """Coefficient rows of four-row cells whose ring norm at step 1 is
    within lim when summed as (s0 + s1) + (s2 + s3), the kernel's order,
    but not as (s0 + s2) + (s1 + s3), or the reverse; row 0 alone is past
    lim there, and no row past 4 lim.  Each is found by stepping the 1
    coefficient of an about-right cell one float at a time."""
    rng = np.random.default_rng(p)
    lim = escape_bound(p) ** 2
    cells = []
    while len(cells) < 8:
        c = rng.uniform(0.05, 0.9 * math.sqrt(lim), 3)
        c0 = math.sqrt(4.0 * lim - (c * c).sum())
        x = _rows_for(np.array([[c0], *c[:, None]]))
        steps = x[0][0] + np.arange(-256, 257) * np.spacing(x[0][0])
        x = [None if r is None else np.full(steps.size, r[0]) for r in x]
        x[0] = steps
        s0, s1, s2, s3 = complex4_rows(x) ** 2
        split = (((s0 + s1) + (s2 + s3)) * 0.25 <= lim) != (((s0 + s2) + (s1 + s3))
                                                            * 0.25 <= lim)
        if split.any():
            k = int(np.argmax(split))
            assert lim < s0[k] < 4.0 * lim and max(s1[k], s2[k], s3[k]) <= lim
            cells.append([None if r is None else r[k:k + 1] for r in x])
    return _concat_rows(*cells)


def _two_row_mean_cells(p, dtype):
    """Coefficient rows of two-row cells with one row's squared norm s in
    (lim, 2 lim] at step 1, on both sides of 1.5 lim, in row 0 or row 1,
    while the ring norm 0.5 * (s0 + s1) stays within lim there: the cell
    has not escaped at step 1, though a value leaving the table pass at a
    threshold below 2 lim would say it had."""
    lim = escape_bound(p) ** 2
    big = lim * np.array([1.02, 1.3, 1.49, 1.51, 1.7, 1.9, 1.98])
    small = 0.5 * (2.0 * lim - big)
    w = np.sqrt(np.stack([big, small]))
    if dtype is complex:
        w = w * np.exp(1j * np.array([[0.3], [2.0]]))
    w = np.concatenate([w, w[::-1]], axis=1)
    x = _rows_for(w)
    s = np.abs(complex4_rows(x)) ** 2
    high = s.max(axis=0)
    assert ((high > lim) & (high <= 2.0 * lim)).all()
    assert (0.5 * (s[0] + s[1]) <= lim).all()
    assert (high <= 1.5 * lim).any() and (high > 1.5 * lim).any()
    return x


def _distinct_path_input(kind, p):
    """Coefficient rows of a lattice reaching past the slice's set at
    exponent p, plus cells with rows just beyond the real cusp, which
    escape slowly, each step from about 10 to past 1000, next to the member
    row 0, to each other or in every row, four-row cells that escape or
    not at step 1 by the order of the sum, two-row cells with a row past
    lim but within 2 lim that do not escape at step 1, and points whose
    first iterates overflow or are NaN in one row or in all."""
    x = _lattice_rows(_LAYOUTS[kind], 0.75 * escape_bound(p), 14)
    rows = 4
    if kind == "real2":
        # The 1 and j1 coefficients that give the first two Perplexbric rows.
        x = [x[0], None, None, None, None, x[5] - x[6], None, None]
        rows = 2
    elif kind == "complex2":
        rows = 2
    parts = [x, _pairing_sensitive_cells(p) if rows == 4 else
             _two_row_mean_cells(p, complex if kind == "complex2" else float)]
    slow = real_extent_closed_form(p)[1] + np.geomspace(1e-7, 2e-2, 24)
    pairs = np.zeros((rows, 3 * slow.size))
    pairs[0, :slow.size] = slow
    pairs[0, slow.size:2 * slow.size] = slow
    pairs[rows - 1, slow.size:2 * slow.size] = np.roll(slow, 1)
    pairs[:, 2 * slow.size:] = slow
    edge = np.zeros((rows, 2 * len(_OVERFLOWING)))
    for k, v in enumerate(_OVERFLOWING):
        edge[k % rows, k] = v
        edge[:, len(_OVERFLOWING) + k] = v
    with np.errstate(invalid="ignore"):
        return _concat_rows(*parts, _rows_for(pairs), _rows_for(edge))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", list(_LAYOUTS))
def test_distinct_values_match_the_joint_kernel(kind, p, monkeypatch):
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    x = _distinct_path_input(kind, p)
    with np.errstate(invalid="ignore"):  # inf - inf in the rows
        w = complex4_rows(x)
    assert w.dtype == (np.float64 if kind.startswith("real") else np.complex128)
    assert len(w) == int(kind[-1])
    for max_iter in _TABLE_BUDGETS:
        params = IterationParams(p, max_iter)
        ref_counts, ref_member = dynamics._counts_kernel(w, params)
        # Split the value kernels and the cell passes when several threads
        # run, into chunks that do not divide the ranges.
        for threads in ((1, 2, 3) if max_iter > _K else (1,)):
            monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1 if threads > 1 else 1 << 17)
            monkeypatch.setattr(dynamics, "_CHUNK", 333 if threads > 1 else 1 << 16)
            shapes = _recorded_kernel_calls(monkeypatch)
            counts, member = grid_counts_tricomplex(x, params, threads=threads)
            assert counts.dtype == np.uint32 and member.dtype == bool
            assert np.array_equal(counts, ref_counts), (max_iter, threads)
            assert np.array_equal(member, ref_member), (max_iter, threads)
            # The path first iterates the distinct values as a flat batch;
            # at the full budget, cells still open past the table run the
            # joint kernel.
            assert len(shapes[0]) == 1
            assert len(shapes[-1]) == 2 or max_iter < 1000
        assert (ref_counts[-2 * len(_OVERFLOWING):] == 1).all()
    # At the full budget: members and a boundary band.
    escaped = ref_counts[~ref_member]
    assert ref_member.any() and ((escaped > 8) & (escaped < 1000)).sum() >= 20


def _escaping_near_the_table_end(p):
    """Real parameters just past the real set's cusp that escape at each
    step from _K - 1 to _K + 2, by the scalar engine."""
    found = {}
    for c in real_extent_closed_form(p)[1] + np.geomspace(1e-5, 1e-1, 1500):
        r = iterate_complex(complex(c), IterationParams(p, _K + 2))
        if r.escaped and r.iterations >= _K - 1:
            found.setdefault(r.iterations, c)
    assert sorted(found) == list(range(_K - 1, _K + 3))
    return np.array(list(found.values()))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", list(_LAYOUTS))
def test_value_kernel_takes_the_values_inside_the_table(kind, p, monkeypatch):
    # e_v and E_v are read off the step table, and the kernel runs once on
    # a 1-D batch: the distinct row values still <= lim at every tabulated
    # step, found here by iterating each distinct value of the joint
    # kernel's batch with the scalar engine, on an input with values
    # escaping on each side of the table's end.  No kernel call takes a
    # limit.
    assert list(inspect.signature(dynamics._counts_kernel).parameters) == ["c", "params"]
    assert list(inspect.signature(dynamics._run_blocks).parameters) == [
        "c", "params", "threads"]
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    x = _distinct_path_input(kind, p)
    edge = np.zeros((2 if kind.endswith("2") else 4, 4))
    edge[0] = _escaping_near_the_table_end(p)
    with np.errstate(invalid="ignore"):  # inf - inf in the rows
        x = _concat_rows(x, _rows_for(edge))
        values = np.unique(complex4_rows(x))
    # The first step outside lim within the table's longest run, or None.
    escapes = [iterate_complex(complex(v), IterationParams(p, _K)) for v in values]
    first = [r.iterations if r.escaped else None for r in escapes]
    for max_iter in _TABLE_BUDGETS:
        steps = min(_K, max_iter)
        inside = values[[m is None or m > steps for m in first]]
        assert 0 < inside.size < values.size
        batches = []
        _recorded_kernel_calls(monkeypatch, batches)
        grid_counts_tricomplex(x, IterationParams(p, max_iter))
        assert [b.ndim for b in batches].count(1) == 1 and batches[0].ndim == 1
        assert batches[0].dtype == values.dtype
        assert np.array_equal(batches[0], inside), max_iter


def _table_end_rows(p, rows, dtype):
    """Coefficient rows of cells whose component rows take every
    arrangement of values escaping at each step from _K - 1 to _K + 2, two
    members and two values past 4 lim after a step or two, and the
    distinct component values they give."""
    hi = real_extent_closed_form(p)[1]
    values = np.concatenate([_escaping_near_the_table_end(p), [0.5 * hi, -0.5 * hi],
                             [hi + 0.5, 3.0 * escape_bound(p)]])
    w = np.stack(np.meshgrid(*[values] * rows, indexing="ij")).reshape(rows, -1)
    x = _rows_for(w.astype(dtype))
    return x, np.unique(complex4_rows(x))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("rows, dtype", [(4, float), (2, float), (4, complex),
                                         (2, complex)])
def test_cells_at_the_table_end_match_the_joint_kernel(rows, dtype, p, monkeypatch):
    # A row's s_v is held at steps 1..min(E_v - 1, _K) only.  Cells mixing
    # rows whose e_v and E_v fall on each side of the table's end, and
    # members, settle as the joint kernel does at every budget around it.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    x, values = _table_end_rows(p, rows, dtype)
    w = complex4_rows(x)
    assert len(w) == rows and w.dtype == dtype
    # Rounding through the coefficients moves the values a little; they
    # still escape at each step around the table's end, and some stay.
    found = [iterate_complex(complex(v), IterationParams(p, 1000)) for v in values]
    steps = {r.iterations for r in found if r.escaped}
    assert set(range(_K - 1, _K + 3)) <= steps and 1 in steps
    assert any(not r.escaped for r in found)
    for max_iter in _TABLE_BUDGETS:
        params = IterationParams(p, max_iter)
        ref_counts, ref_member = dynamics._counts_kernel(w, params)
        for threads in (1, 2):
            monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1 if threads > 1 else 1 << 17)
            monkeypatch.setattr(dynamics, "_CHUNK", 333 if threads > 1 else 1 << 16)
            counts, member = grid_counts_tricomplex(x, params, threads=threads)
            assert np.array_equal(counts, ref_counts), (max_iter, threads)
            assert np.array_equal(member, ref_member), (max_iter, threads)
        if max_iter == 1000:
            escaped = ref_counts[~ref_member]
            assert ref_member.any() and ((escaped >= _K - 1) & (escaped <= _K + 2)).any()


def test_early_escapes_hold_no_step_table(monkeypatch):
    # A window reaching far past the Tetrabric slice's set, where all but
    # 1% of the escapes come at steps 1 and 2: a value is held at steps
    # before its E_v only, so the path holds far less than a table of every
    # value at _K steps, 8 * _K * U bytes (8.3 MB here).  Measured with
    # tracemalloc: 13.9 MB with that table, 3.2 MB holding only the steps
    # before each E_v.
    monkeypatch.setattr(dynamics, "_CHUNK", 1 << 10)
    params = IterationParams(3, 1000)
    axis = cell_centers(-1.0, 6.0, 64)
    x = [None] * 8
    for k, u in enumerate((0, 1, 2)):  # 1, i1, i2
        x[u] = axis.reshape([-1 if d == k else 1 for d in range(3)])
    tracemalloc.start()
    try:
        counts, member = grid_counts_tricomplex(x, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    flat = [None if r is None else np.broadcast_to(r, (64,) * 3).ravel() for r in x]
    uniq = np.unique(complex4_rows(flat)).size
    assert uniq * dynamics._MIN_SHARING <= 4 * counts.size  # the distinct-value path
    assert member.any() and (counts[~member] <= 2).mean() > 0.98
    assert peak < 8 * _K * uniq / 2


@pytest.mark.parametrize("rows, dtype", [(4, float), (2, float), (4, complex),
                                         (2, complex)])
def test_unshared_batches_match_on_both_paths(rows, dtype, rng, monkeypatch):
    # Random rows share no values: the joint kernel takes the whole batch,
    # and the distinct-value path, made to run, gives the same bits.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    params = IterationParams(3, 300)
    c = rng.uniform(-0.6, 0.6, (rows, 3000)).astype(dtype)
    if dtype is complex:
        c.imag = rng.uniform(-0.6, 0.6, c.shape)
    x = _rows_for(c)
    w = complex4_rows(x)
    assert w.shape == c.shape and w.dtype == c.dtype
    ref_counts, ref_member = dynamics._counts_kernel(w, params)
    assert ref_member.any() and not ref_member.all()
    for sharing, threads in ((dynamics._MIN_SHARING, 1), (0, 1), (0, 3)):
        monkeypatch.setattr(dynamics, "_MIN_SHARING", sharing)
        shapes = _recorded_kernel_calls(monkeypatch)
        counts, member = grid_counts_tricomplex(x, params, threads=threads)
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
        assert (shapes == [w.shape]) == (sharing > 0)


def test_sharing_rule_counts_the_batch_distinct_values(monkeypatch):
    # Four rows of 40 cells hold 160 entries: 10 distinct values share
    # enough at _MIN_SHARING 16, 11 do not.  With the j1 and j2 rows alone,
    # x5 = v and x6 = 0 give the rows v, -v, v, -v.
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 16)
    params = IterationParams(3, 200)
    for distinct, joint in ((10, False), (11, True)):
        values = np.linspace(0.05, 0.45, 5)
        if distinct == 11:
            values = np.append(values, 0.0)
        x = [None] * 5 + [np.resize(values, 40), np.zeros(40), None]
        w = complex4_rows(x)
        assert w.shape == (4, 40) and np.unique(w).size == distinct
        shapes = _recorded_kernel_calls(monkeypatch)
        counts, member = grid_counts_tricomplex(x, params)
        assert (shapes[0] == w.shape) == joint
        ref_counts, ref_member = dynamics._counts_kernel(w, params)
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
        assert member.any() and not member.all()


@pytest.mark.parametrize("sharing", [0, 16])
def test_broadcast_rows_match_their_flat_cells(sharing, rng, monkeypatch):
    # Per-axis rows of asymmetric windows, as sample_slice passes them, and
    # meshgrid views of them, with zero strides, against the flat rows of
    # the same cells; whole grids, and the flat rows of sorted subsets of
    # cells, split into chunks that do not divide the worker ranges.  At
    # sharing 16 these windows share too little, and the joint kernel takes
    # their cells.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_SHARING", sharing)
    monkeypatch.setattr(dynamics, "_CHUNK", 211)
    params = IterationParams(3, 300)
    dims = (13, 9, 11)
    for units, window in (("1,j1,j2", ((-0.62, 0.68), (-0.43, 0.47), (-0.52, 0.58))),
                          ("1,i1,i2", ((-1.5, 1.1), (-1.2, 1.5), (-1.4, 1.3))),
                          ("i1,j2,j3", ((-1.2, 1.0), (-0.9, 1.2), (-1.1, 1.1)))):
        axes = [cell_centers(lo, hi, n) for (lo, hi), n in zip(window, dims)]
        spec = SliceSpec.parse(units)
        per_axis, views, flat = [None] * 8, [None] * 8, [None] * 8
        for k, (u, g) in enumerate(zip(spec.units,
                                       np.meshgrid(*axes, indexing="ij", copy=False))):
            per_axis[u] = axes[k].reshape([-1 if d == k else 1 for d in range(3)])
            views[u] = g
            flat[u] = np.ascontiguousarray(g).ravel()
        ref_counts, ref_member = grid_counts_tricomplex(flat, params)
        assert ref_member.any() and not ref_member.all()
        if sharing:
            # Each row needs a table with more entries than a sixteenth of
            # the batch's row entries, which is not built.
            rows, _ = dynamics._check_rows(per_axis)
            entries = complex4_rows(flat).size
            with pytest.raises(dynamics._Unshared):
                dynamics._row_terms(rows, ref_counts.size, entries)
        cells = np.sort(rng.choice(ref_counts.size, 500, replace=False))
        subset = [None if r is None else r[cells] for r in flat]
        for x in (per_axis, views):
            for threads in (1, 3):
                shapes = _recorded_kernel_calls(monkeypatch)
                counts, member = grid_counts_tricomplex(x, params, threads=threads)
                assert (len(shapes[0]) == 1) == (sharing == 0)
                assert np.array_equal(counts, ref_counts), (units, threads)
                assert np.array_equal(member, ref_member), (units, threads)
                counts, member = grid_counts_tricomplex(subset, params, threads=threads)
                assert np.array_equal(counts, ref_counts[cells]), (units, threads)
                assert np.array_equal(member, ref_member[cells]), (units, threads)


# Spans of each kind of entry spaces, by the space each component row reads:
# the all-j spans and the i-unit ones whose pair tables of rows (0, 1) and
# (2, 3) have the same parts, Tetrabric's two rows with different parts, and
# four rows each with its own.
_SPACES = {"1,j1,j2": (0, 0, 1, 1), "j1,j2,j3": (0, 0, 1, 1),
           "i1,i2,i3": (0, 0, 1, 1), "1,i1,i2": (0, 1), "1,i2,i3": (0, 1, 2, 3)}


def _space_pattern(x, cells):
    """The entry space each row of the per-axis rows x reads, numbered in
    order of first use."""
    rows, _ = dynamics._check_rows(x)
    terms = dynamics._row_terms(rows, cells, 4 * cells)
    keys = [tuple(map(id, t.parts)) for t in terms]
    assert all(keys)  # every row is a pair table on these windows
    return tuple(list(dict.fromkeys(keys)).index(k) for k in keys)


def _windows(units, p, dims):
    """Per-axis rows of a window past the span's set at exponent p:
    symmetric, shifted by fractions of a cell, and asymmetric."""
    half = 1.2 * escape_bound(p) / (2.0 if "j" in units and "i" not in units else 1.0)
    cell = [2.0 * half / n for n in dims]
    for name, window in (
            ("symmetric", [(-half, half)] * 3),
            ("shifted", [(-half + f * c, half + f * c)
                         for f, c in zip((0.37, -0.21, 0.43), cell)]),
            ("asymmetric", [(-0.9 * half, 1.1 * half), (-1.05 * half, 0.8 * half),
                            (-0.7 * half, 1.0 * half)])):
        x = [None] * 8
        for k, (u, (lo, hi), n) in enumerate(zip(SliceSpec.parse(units).units, window, dims)):
            x[u] = cell_centers(lo, hi, n).reshape([-1 if d == k else 1 for d in range(3)])
        yield name, x


def _pairing_sensitive_window(p):
    """Per-axis rows of a 1,j1,j2 window with cells whose ring norm at step
    1 is within lim summed as (s0 + s1) + (s2 + s3), the kernel's order, but
    not as (s0 + s2) + (s1 + s3), and the reverse, and where they are.  Its
    1 and j2 axes step one float at a time across a cell whose four rows sum
    about 4 lim."""
    rng = np.random.default_rng(p)
    lim = escape_bound(p) ** 2
    while True:
        x5, x6 = rng.uniform(0.05, 0.35 * math.sqrt(lim), 2)
        u, v = x5 - x6, x5 + x6  # rows x0 + u, x0 - u, x0 + v, x0 - v
        x0 = math.sqrt(lim - (u * u + v * v) / 2.0)
        x = [None] * 8
        x[0] = (x0 + np.arange(-128, 129) * np.spacing(x0))[:, None, None]
        x[5] = np.array([[[x5]]])
        x[6] = (x6 + np.arange(-32, 32) * np.spacing(x6))[None, None, :]
        flat = [None if r is None else np.broadcast_to(r, (257, 1, 64)).ravel() for r in x]
        s0, s1, s2, s3 = complex4_rows(flat) ** 2
        kernel = ((s0 + s1) + (s2 + s3)) * 0.25 <= lim
        other = ((s0 + s2) + (s1 + s3)) * 0.25 <= lim
        if (kernel & ~other).any() and (other & ~kernel).any():
            return x, kernel != other


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("units", list(_SPACES))
def test_shared_entry_spaces_match_the_joint_kernel(units, p, rng, monkeypatch):
    # Rows whose pair tables have the same parts read e and E off one entry
    # space, and open cells sum their rows' s in _ring_mean's order.  Each
    # kind of spaces, on three windows, as per-axis rows, their flat cells
    # (each row a plain term with its own space) and the flat rows of a
    # sorted third of the cells, at 1 and 2 workers in blocks that split the
    # planes, against the joint kernel.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    monkeypatch.setattr(dynamics, "_MIN_BLOCK", 1)
    dims = (11, 9, 13)
    windows = list(_windows(units, p, dims))
    if units == "1,j1,j2":
        x, split = _pairing_sensitive_window(p)
        windows.append(("pairing-sensitive", x))
    for name, x in windows:
        shape = np.broadcast_shapes(*(r.shape for r in x if r is not None))
        size = math.prod(shape)
        assert _space_pattern(x, size) == _SPACES[units]
        flat = [None if r is None else np.broadcast_to(r, shape).ravel() for r in x]
        params = IterationParams(p, 300)
        with np.errstate(over="ignore", invalid="ignore"):
            ref_counts, ref_member = dynamics._counts_kernel(complex4_rows(flat), params)
        # Members and a boundary band, except across the 4 lim crossing.
        assert ref_member.any() == (name != "pairing-sensitive")
        assert (ref_counts[~ref_member] > 1).any()
        cells = np.sort(rng.choice(size, size // 3, replace=False))
        subset = [None if r is None else r[cells] for r in flat]
        for threads, chunk in ((1, 1 << 16), (1, 50), (2, 97)):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            for rows in (x, flat):
                counts, member = grid_counts_tricomplex(rows, params, threads=threads)
                assert np.array_equal(counts, ref_counts), (name, threads, chunk)
                assert np.array_equal(member, ref_member), (name, threads, chunk)
            counts, member = grid_counts_tricomplex(subset, params, threads=threads)
            assert np.array_equal(counts, ref_counts[cells]), (name, threads, chunk)
            assert np.array_equal(member, ref_member[cells]), (name, threads, chunk)
    if units == "1,j1,j2":
        # The kernel's order decides these cells: some escape at step 1.
        assert ref_counts[split].min() == 1 and (ref_counts[split] > 1).any()


@pytest.mark.parametrize("max_iter", [32767, 32768, 2 ** 31, MAX_ITER_LIMIT])
def test_step_tables_hold_any_budget(max_iter, monkeypatch):
    # The steps e_v and E_v, and the step past the budget that marks a
    # member, are held in the narrowest signed type that holds that step.
    # Members in exact cycles (c = 0 and -1 at p = 2) and cells mixing a
    # member row with an escaping one, at budgets on each side of a type's
    # range; the largest used to settle such cells at count 0.
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    x0 = np.array([-1.0, 0.0, 0.3, 1.0, 0.26, 0.2501])
    x = [x0[:, None], None, None, None, None, np.array([0.0, 3.0, -3.0])[None, :],
         None, None]
    flat = [None if r is None else np.broadcast_to(r, (6, 3)).ravel() for r in x]
    params = IterationParams(2, max_iter)
    ref_counts, ref_member = dynamics._counts_kernel(complex4_rows(flat), params)
    assert ref_member.sum() == 2 and ref_counts[~ref_member].min() == 1
    counts, member = grid_counts_tricomplex(x, params)
    assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)


def test_tables_meeting_a_shared_axis_run_the_joint_kernel(rng, monkeypatch):
    # x0 + x7 is a table over both axes, and the row adds x5, which spans
    # the first axis again: no table is expanded per cell, and the batch
    # runs the joint kernel, as a batch whose rows share too few values
    # does.  The flat rows of a sorted subset of its cells span one axis
    # together, and run the distinct-value path to the same counts.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_SHARING", 0)
    params = IterationParams(3, 300)
    xs, ys = cell_centers(-0.6, 0.5, 7), cell_centers(-0.45, 0.55, 9)
    x = [None] * 8
    x[0], x[5], x[7] = xs[:, None], 0.5 * xs[:, None], ys[None, :]
    flat = [None if r is None else np.broadcast_to(r, (7, 9)).ravel() for r in x]
    w = complex4_rows(flat)
    rows, _ = dynamics._check_rows(x)
    with pytest.raises(dynamics._Unshared):
        dynamics._row_terms(rows, 63, w.size)
    ref_counts, ref_member = grid_counts_tricomplex(flat, params)
    assert ref_member.any() and not ref_member.all()
    cells = np.sort(rng.choice(63, 20, replace=False))
    subset = [None if r is None else r[cells] for r in flat]
    for threads in (1, 3):
        shapes = _recorded_kernel_calls(monkeypatch)
        counts, member = grid_counts_tricomplex(x, params, threads=threads)
        assert shapes == [w.shape], threads
        assert np.array_equal(counts, ref_counts) and np.array_equal(member, ref_member)
        shapes = _recorded_kernel_calls(monkeypatch)
        counts, member = grid_counts_tricomplex(subset, params, threads=threads)
        assert len(shapes) == 1 and len(shapes[0]) == 1, threads
        assert np.array_equal(counts, ref_counts[cells])
        assert np.array_equal(member, ref_member[cells])


@pytest.mark.parametrize("sharing", [0, 16])
def test_zero_dimensional_inputs_are_one_cell(sharing, monkeypatch):
    # Scalar coefficient rows and scalar hyperbolic coordinates make a grid
    # of one cell, on both tricomplex paths and at any worker count.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_MIN_SHARING", sharing)
    params = IterationParams(3, 200)
    escaped = set()
    for coeffs in ((0.1, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.05),
                   (0.1, 0.0, 0.0, 0.0, 0.0, 0.2, 0.15, 0.0),
                   (0.3, 0.2, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0)):
        ref = iterate_tricomplex(Tricomplex(coeffs), params, "direct")
        escaped.add(ref.escaped)
        expected = ([ref.iterations], [not ref.escaped])
        x = [None if v == 0.0 else v for v in coeffs]
        for threads in (1, 2):
            for rows in (x, [None if v is None else np.float64(v) for v in x]):
                counts, member = grid_counts_tricomplex(rows, params, threads=threads)
                assert (counts.tolist(), member.tolist()) == expected, (coeffs, threads)
            cell = [None if v is None else np.array([v]) for v in x]
            counts, member = grid_counts_tricomplex(cell, params, threads=threads)
            assert (counts.tolist(), member.tolist()) == expected
    for a, b in ((0.1, 0.2), (0.3, 0.2), (-0.25, 0.05)):
        ref = iterate_hyperbolic(Hyperbolic(a, b), params, "direct")
        escaped.add(ref.escaped)
        for threads in (1, 2):
            counts, member = grid_counts_hyperbolic(np.float64(a), b, params, threads=threads)
            assert (counts.tolist(), member.tolist()) == ([ref.iterations],
                                                          [not ref.escaped])
    assert escaped == {False, True}


def test_tricomplex_rows_are_checked():
    params = IterationParams(3, 50)
    rows = [np.zeros((3, 1)), None, None, None, None, np.zeros(4), None, None]
    for x, message in (
            (np.zeros((4, 5)), "eight coefficient rows, got (4, 5)"),
            (rows[:7], "eight coefficient rows, got 7 rows"),
            ([None] * 8, "all eight coefficient rows are None"),
            ([np.zeros((3, 2))] + rows[1:],
             "do not broadcast together: shapes (3, 2), (4,)"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            grid_counts_tricomplex(x, params)
    # The flat rows of cells 0, 0 and 11 of the (3, 4) grid of rows.
    flat = [None if r is None else np.broadcast_to(r, (3, 4)).ravel()[[0, 0, 11]]
            for r in rows]
    counts, member = grid_counts_tricomplex(flat, params)
    assert counts.shape == member.shape == (3,) and member.all()


def test_exact_cycles_retire_early():
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
            grid_counts_tricomplex(_rows(x8), params),
            grid_counts_tricomplex(_rows(y8), params)]
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
