"""The verify suites' numpy lanes against the scalar code they replay.

Every lane must end each parameter with the scalar result bit for bit:
escape flags and steps, products down to the sign of zero, residuals and
witnesses.  Most parameters come from boundary bands, where an orbit lives
more than 8 steps and still escapes within the budget.
"""

import numpy as np
import pytest

from mbkit import dynamics, suites
from mbkit.dynamics import IterationParams, iterate_complex, iterate_hyperbolic, orbit_real
from mbkit.hypercomplex import (
    PRODUCT_TABLE,
    Bicomplex,
    Hyperbolic,
    Tricomplex,
    hyp_pow,
    hyp_T,
    norm3,
)
from mbkit.roots import escape_bound, real_extent_closed_form

_BUDGETS = (1, 2, 3, 17, 1000)


def _stop(result):
    """A scalar EscapeResult as a lane's stop step: 0 for a member."""
    return result.iterations if result.escaped else 0


def _band(stops, max_iter):
    return int(np.count_nonzero((stops > 8) & (stops < max_iter)))


def _pins(p):
    """Signed zeros, an exact cycle (c = -1 at p = 2), a preperiodic point,
    slow escapers just past the real extent, and one that overflows."""
    lo, hi = real_extent_closed_form(p)
    return [0.0, -0.0, complex(-0.0, -0.0), -1.0, 1j, hi + 1e-3, hi + 1e-5,
            lo - 1e-6, complex(1e200, -1e200)]


# --- complex ---------------------------------------------------------------------


@pytest.mark.parametrize("pool", [None, 16])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_complex_lanes_match_iterate_complex(p, pool, rng, monkeypatch):
    # A small pool takes in new lanes beside old ones at every step.
    if pool is not None:
        monkeypatch.setattr(suites, "_POOL", pool)
    params = IterationParams(p, 300)
    r = escape_bound(p)
    cr, ci = rng.uniform(-r, r, (2, 4000))
    want = [_stop(iterate_complex(complex(a, b), params)) for a, b in zip(cr, ci)]
    assert suites._complex_lanes(cr, ci, params).tolist() == want
    assert _band(np.array(want), 300) >= 100 and want.count(0) >= 100


@pytest.mark.parametrize("p", [2, 3, 5])
def test_complex_lanes_match_every_step(p):
    cs = [complex(c) for c in _pins(p)]
    cr, ci = np.array([c.real for c in cs]), np.array([c.imag for c in cs])
    for max_iter in _BUDGETS:
        params = IterationParams(p, max_iter)
        want = [_stop(iterate_complex(c, params)) for c in cs]
        assert suites._complex_lanes(cr, ci, params).tolist() == want, max_iter


# --- hyperbolic ------------------------------------------------------------------


def _hyperbolic_band(rng, p, n):
    """Parameters u + v*j by their T components (u - v, u + v): one inside
    the real extent, the other mostly just past one of its ends."""
    lo, hi = real_extent_closed_form(p)
    xm, inside = rng.uniform(lo, hi, (2, n))
    gap = 10.0 ** rng.uniform(-6.0, -1.5, n)
    past = np.where(rng.random(n) < 0.5, hi + gap, lo - gap)
    xp = np.where(rng.random(n) < 0.8, past, inside)
    return (xm + xp) / 2, (xp - xm) / 2


@pytest.mark.parametrize("mode", ["decomposed", "direct"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_hyperbolic_lanes_match_iterate_hyperbolic(p, mode, rng):
    params = IterationParams(p, 300)
    u, v = _hyperbolic_band(rng, p, 1000)
    want = [_stop(iterate_hyperbolic(Hyperbolic(a, b), params, mode)) for a, b in zip(u, v)]
    assert suites._hyperbolic_lanes(u, v, params, mode).tolist() == want
    assert _band(np.array(want), 300) >= 100 and want.count(0) >= 50


@pytest.mark.parametrize("mode", ["decomposed", "direct"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_hyperbolic_lanes_match_every_step(p, mode):
    pins = [complex(c) for c in _pins(p)]
    u = np.array([c.real for c in pins] + [c.real / 2 for c in pins])
    v = np.array([c.imag for c in pins] + [-c.real / 2 for c in pins])
    for max_iter in _BUDGETS:
        params = IterationParams(p, max_iter)
        want = [_stop(iterate_hyperbolic(Hyperbolic(a, b), params, mode))
                for a, b in zip(u.tolist(), v.tolist())]
        assert suites._hyperbolic_lanes(u, v, params, mode).tolist() == want, max_iter


def test_hyperbolic_lanes_reject_an_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        suites._hyperbolic_lanes(np.zeros(1), np.zeros(1), IterationParams(3), "split")


# --- bicomplex -------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bicomplex_lanes_match_the_scalar_step(p, rng):
    params = IterationParams(p, 300)
    half = 0.45 * escape_bound(p)
    x = rng.uniform(-half, half, (4, 2000))
    want = [_stop(dynamics._escape_time(dynamics._bicomplex_step(Bicomplex(tuple(c)), p),
                                        (0j, 0j), params)) for c in x.T]
    assert suites._bicomplex_lanes(list(x), params).tolist() == want
    assert _band(np.array(want), 300) >= 80 and want.count(0) >= 80


# --- real orbits -----------------------------------------------------------------


def _unsettled_reference(c, p, n):
    """The scalar monotone test: sign * steps positive, then exactly zero."""
    sign = 1.0 if c >= 0.0 else -1.0
    diffs = sign * np.diff(np.asarray(orbit_real(c, p, n)))
    settled = np.flatnonzero(diffs <= 0.0)
    return not (settled.size == 0 or (
        (diffs[settled[0]:] == 0.0).all() and (diffs[: settled[0]] > 0.0).all()))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_real_orbit_lanes_match_the_scalar_test(p, rng):
    # Negative c at even p and c past the extent give orbits that
    # oscillate or overflow, so both outcomes occur.
    c = rng.uniform(-1.0, 1.0, 300)
    got = suites._unsettled_real_orbits(np.abs(c), (1.0, -1.0), p, 400)
    want = [_unsettled_reference(s * abs(v), p, 400) for v in c.tolist() for s in (1.0, -1.0)]
    assert got.tolist() == want
    if p == 2:
        assert 0 < sum(want) < len(want)


# --- hyperbolic decomposition ------------------------------------------------------


def _decomposition_reference(rng, n):
    """The scalar six-step sweep over n random hyperbolic orbits."""
    worst = 0.0
    for _ in range(n):
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        p = int(rng.integers(2, 5))
        limit = dynamics.OVERFLOW_NORM ** (1.0 / p) * 1e-3
        z = Hyperbolic(0.0, 0.0)
        xm = xp_ = 0.0
        for _m in range(6):
            z = hyp_pow(z, p) + Hyperbolic(a, b)
            xm = xm ** p + (a - b)
            xp_ = xp_ ** p + (a + b)
            t = hyp_T(z)
            scale = max(1.0, abs(xm), abs(xp_))
            worst = max(worst, abs(t[0] - xm) / scale, abs(t[1] - xp_) / scale)
            if scale > limit:
                break
    return worst


@pytest.mark.parametrize("seed, n", [(0, 3000), (2, 430), (7, 3000), (11, 5)])
def test_decomposition_residual_matches_the_scalar_sweep(seed, n):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert suites._hyperbolic_decomposition_residual(got_rng, n) == \
        _decomposition_reference(want_rng, n)
    # Both consumed the stream alike.
    assert got_rng.uniform() == want_rng.uniform()


# --- algebra -----------------------------------------------------------------------


def _mul_with_table_reference(a, b, table):
    """The scalar table loop on 8-coefficient sequences."""
    out = [0.0] * 8
    for i in range(8):
        ai = a[i]
        if ai == 0.0:
            continue
        for j, (s, k) in enumerate(table[i]):
            out[k] += s * ai * b[j]
    return out


def _corrupted(table):
    rows = [list(row) for row in table]
    rows[1][2] = (-1, 5)  # flip the sign of i1 * i2
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("corrupt", [False, True])
def test_mul_with_table_lanes_match_the_scalar_loop(corrupt, rng):
    table = _corrupted(PRODUCT_TABLE) if corrupt else PRODUCT_TABLE
    a, b = rng.uniform(-3.0, 3.0, (2, 8, 400))
    for x in (a, b):
        x[rng.random(x.shape) < 0.15] = 0.0
        x[rng.random(x.shape) < 0.15] = -0.0
    # A zero a_i skips its terms, which only an infinite b_j can tell:
    # 0 * inf would be NaN.
    a[:, 0], b[:, 0] = (1.0,) + (0.0,) * 7, (np.inf,) + (1.0,) * 7
    got = np.array(suites._mul_with_table(list(a), list(b), table))
    want = np.array([_mul_with_table_reference(a[:, k].tolist(), b[:, k].tolist(), table)
                     for k in range(a.shape[1])]).T
    assert got.tobytes() == want.tobytes()
    assert np.isinf(want[:, 0]).any() and not np.isnan(want[:, 0]).any()


def test_pair_product_lanes_match_the_recursive_product(pair_mul, rng):
    a, b = rng.uniform(-3.0, 3.0, (2, 8, 400))
    a[rng.random(a.shape) < 0.1] = -0.0
    got = np.array(suites._pair_product(list(a), list(b)))
    want = np.array([pair_mul(Tricomplex(tuple(x)), Tricomplex(tuple(y))).x
                     for x, y in zip(a.T, b.T)]).T
    assert got.tobytes() == want.tobytes()


def _algebra_table_checks_reference(seed, table, pair_mul):
    """The scalar table_vs_pair_product and ring_axioms sweeps: (worst,
    witness) of each."""
    rng = np.random.default_rng(seed)

    def draw():
        return Tricomplex(tuple(rng.uniform(-3.0, 3.0, 8)))

    def mul(x, y):
        return Tricomplex(tuple(_mul_with_table_reference(x.x, y.x, table)))

    out = []
    worst, witness = 0.0, None
    for _ in range(2000):
        a, b = draw(), draw()
        res = norm3(mul(a, b) - pair_mul(a, b)) \
            / max(1.0, norm3(a) * norm3(b))
        if res > worst:
            worst = res
            if res > 1e-12:
                witness = f"a={a.to_text()} b={b.to_text()}"
    out.append((worst, witness))
    worst, witness = 0.0, None
    for _ in range(2000):
        a, b, c = draw(), draw(), draw()
        scale = max(1.0, norm3(a) * norm3(b) * norm3(c))
        res = max(
            norm3(mul(mul(a, b), c) - mul(a, mul(b, c))) / scale,
            norm3(mul(a, b) - mul(b, a)) / max(1.0, norm3(a) * norm3(b)),
            norm3(mul(a, b + c) - (mul(a, b) + mul(a, c)))
            / max(1.0, norm3(a) * (norm3(b) + norm3(c))),
        )
        if res > worst:
            worst = res
            if res > 1e-12:
                witness = f"a={a.to_text()} b={b.to_text()} c={c.to_text()}"
    out.append((worst, witness))
    return out


@pytest.mark.parametrize("corrupt", [False, True])
def test_algebra_table_checks_match_the_scalar_sweeps(corrupt, pair_mul):
    table = _corrupted(PRODUCT_TABLE) if corrupt else PRODUCT_TABLE
    rng = np.random.default_rng(3)
    got = [(r.max_residual, r.witness) for r in (suites._table_vs_pair_product(rng, table),
                                                 suites._ring_axioms(rng, table))]
    assert got == _algebra_table_checks_reference(3, table, pair_mul)
    # The corrupted table fails both checks, each with a witness.
    assert all((w is not None) == corrupt for _, w in got)


# --- sweeps: draws, variants and witnesses -------------------------------------------


def test_worst_matches_the_scalar_running_maximum():
    res = np.array([0.0, 3e-12, 2e-12, 3e-12, np.nan, 5e-13, 4e-12, 4e-12, 1e-13])
    worst, witness = 0.0, None
    for k, r in enumerate(res.tolist()):
        if r > worst:
            worst = r
            if r > 1e-12:
                witness = k
    assert suites._worst(res, 1e-12) == (worst, witness) == (4e-12, 6)
    assert suites._worst(np.array([1e-13, np.nan]), 1e-12) == (1e-13, None)


def test_symmetry_sweep_fails_with_the_scalar_witness(monkeypatch):
    # An engine that is not symmetric under conjugation: the check must
    # iterate each c and its three mirrors, and fail with the witness the
    # scalar sweep over (c, c2) names.
    params = IterationParams(3, 40)

    def engine(c):
        return _stop(iterate_complex(complex(c.real, c.imag + 0.05), params))

    lanes = []

    def fake(cr, ci, params):
        lanes.extend(complex(a, b) for a, b in zip(cr.tolist(), ci.tolist()))
        return np.array([engine(c) for c in lanes])

    monkeypatch.setattr(suites, "_complex_lanes", fake)
    got = suites._mandelbric_symmetries(np.random.default_rng(3))
    rng, mirrors, witness = np.random.default_rng(3), [], None
    for _ in range(2000):
        c = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        mirrors += [c, c.conjugate(), -c, -c.conjugate()]
        for c2 in mirrors[-3:]:
            if engine(c) != engine(c2):
                witness = f"c={c} vs {c2}"
    # The lanes hold every mirror, to the sign of zero.
    assert list(map(repr, lanes)) == list(map(repr, mirrors))
    assert witness is not None and (got.passed, got.witness) == (False, witness)


def test_monotone_sweep_fails_with_the_scalar_witness(monkeypatch):
    # Lanes that flag every orbit with sign * c above 0.9: the witness is
    # the last flagged (p, c, sign) in the scalar sweep's order.
    def flag(c, signs, p, n):
        return np.array([s * v > 0.9 for v in c.tolist() for s in signs])

    monkeypatch.setattr(suites, "_unsettled_real_orbits", flag)
    got = suites._monotone_real_orbits(np.random.default_rng(3))
    rng, witness = np.random.default_rng(3), None
    for p in (2, 3, 5):
        for _ in range(300):
            c = float(rng.uniform(1e-6, 1.0))
            for sign in (1.0, -1.0) if p % 2 == 1 else (1.0,):
                if sign * c > 0.9:
                    witness = f"p={p} c={sign * c}"
    assert witness is not None and (got.passed, got.witness) == (False, witness)


def test_bicomplex_inclusion_fails_with_the_scalar_witness(monkeypatch):
    # Against a bound too small for the members, every member fails: the
    # witness is the last member the scalar sweep draws.
    tp = IterationParams(3, 400)
    monkeypatch.setattr(dynamics, "escape_bound", lambda p: 0.5)
    got = suites._bicomplex_inclusion(np.random.default_rng(3), tp)
    rng, members, witness = np.random.default_rng(3), 0, None
    for _ in range(4000):
        c = Bicomplex(tuple(rng.uniform(-0.9, 0.9, 4)))
        if not dynamics._escape_time(dynamics._bicomplex_step(c, 3), (0j, 0j), tp).escaped:
            members += 1
            z1, z2 = c.complex_pair()
            if max(abs(z1 - z2 * 1j), abs(z1 + z2 * 1j), c.norm()) > 0.5 + 1e-12:
                witness = str(c.z)
    assert witness is not None
    assert (got.passed, got.witness, got.detail) == \
        (False, witness, f"{members} sampled members")
