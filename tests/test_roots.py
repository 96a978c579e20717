import math

import numpy as np
import pytest

from mbkit.roots import (
    MANDELBRIC_REAL_BOUND,
    ONE_REAL_TWO_COMPLEX,
    THREE_DISTINCT_REAL,
    THREE_REAL_ONE_DOUBLE,
    CubicCoeffs,
    cubic_discriminant,
    cubic_roots,
    depressed_reduce,
    mandelbric_attracting_root,
)

SQRT3 = math.sqrt(3.0)


def test_depressed_reduce_examples():
    assert depressed_reduce(CubicCoeffs(0.0, -2.5, 0.75)) == (-2.5, 0.75)
    p, q = depressed_reduce(CubicCoeffs(3.0, 3.0, 1.0))  # (x+1)^3
    assert abs(p) < 1e-15 and abs(q) < 1e-15
    assert depressed_reduce(CubicCoeffs(0.0, -1.0, 0.2)) == (-1.0, 0.2)


def test_discriminant_anchors():
    assert cubic_discriminant(CubicCoeffs(0, 0, -1)) == 27.0
    assert cubic_discriminant(CubicCoeffs(0, -1, 0)) == -4.0
    # D = -4 + 27 c^2 vanishes at the interval endpoint.
    assert abs(cubic_discriminant(CubicCoeffs(0, -1, MANDELBRIC_REAL_BOUND))) <= 1e-9


def test_roots_of_unity_cubic():
    rs = cubic_roots(CubicCoeffs(0, 0, -1))  # x^3 = 1
    assert rs.kind == ONE_REAL_TWO_COMPLEX
    reals = [r.real for r, mult in rs.roots if r.imag == 0.0 for _ in range(mult)]
    assert len(reals) == 1 and abs(reals[0] - 1.0) <= 1e-12
    pair = sorted((r for r, _ in rs.roots if r.imag != 0.0), key=lambda z: z.imag)
    assert abs(pair[0] - complex(-0.5, -SQRT3 / 2)) <= 1e-12
    assert abs(pair[1] - complex(-0.5, SQRT3 / 2)) <= 1e-12


def test_three_distinct_real_roots():
    rs = cubic_roots(CubicCoeffs(0, -1, 0))  # x(x-1)(x+1)
    assert rs.kind == THREE_DISTINCT_REAL
    got = sorted(r.real for r, mult in rs.roots if r.imag == 0.0 for _ in range(mult))
    assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-12, rtol=0)


def test_double_root_case():
    rs = cubic_roots(CubicCoeffs(0, -1, MANDELBRIC_REAL_BOUND))
    assert rs.kind == THREE_REAL_ONE_DOUBLE
    by_mult = {m: r.real for r, m in rs.roots}
    assert abs(by_mult[1] + 2.0 / SQRT3) <= 1e-9
    assert abs(by_mult[2] - 1.0 / SQRT3) <= 1e-9


def test_triple_root_collapse():
    rs = cubic_roots(CubicCoeffs(3.0, 3.0, 1.0))  # (x+1)^3
    assert rs.kind == THREE_REAL_ONE_DOUBLE
    assert sum(m for _, m in rs.roots) == 3
    assert all(abs(r + 1.0) <= 1e-9 for r, _ in rs.roots)


def _numpy_root_oracle(cc):
    """Independent classification through the companion-matrix solver."""
    roots = np.roots([1.0, cc.b, cc.c, cc.d])
    scale = max(1.0, abs(cc.b), abs(cc.c), abs(cc.d))
    n_real = int(np.count_nonzero(np.abs(roots.imag) <= 1e-7 * scale))
    return roots, n_real


def test_random_cubics_against_companion_matrix(rng):
    for _ in range(1500):
        cc = CubicCoeffs(*rng.uniform(-10, 10, 3))
        rs = cubic_roots(cc)
        ref, n_real = _numpy_root_oracle(cc)
        scale = max(1.0, abs(cc.b), abs(cc.c), abs(cc.d))
        # Residuals, Vieta, multiplicity budget.
        flat = [r for r, m in rs.roots for _ in range(m)]
        assert len(flat) == 3
        for r, _m in rs.roots:
            assert abs(cc(r)) <= 1e-9 * scale
        assert abs(sum(flat) + cc.b) <= 1e-8 * max(1.0, abs(cc.b))
        prod = flat[0] * flat[1] * flat[2]
        assert abs(prod + cc.d) <= 1e-8 * max(1.0, abs(cc.d))
        # Roots match the companion-matrix oracle as multisets.
        got = np.sort_complex(np.asarray(flat))
        assert np.allclose(got, np.sort_complex(ref), atol=1e-6 * scale, rtol=1e-6)
        # Real-root count matches unless the oracle sits on its own tie band.
        if rs.kind == ONE_REAL_TWO_COMPLEX:
            assert n_real == 1
        else:
            assert n_real == 3


def test_discriminant_matches_depressed_form(rng):
    for _ in range(2000):
        cc = CubicCoeffs(*rng.uniform(-10, 10, 3))
        p, q = depressed_reduce(cc)
        d1 = cubic_discriminant(cc)
        d2 = 27.0 * q * q + 4.0 * p ** 3
        assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1), abs(d2))


def test_attracting_root_endpoint():
    a = mandelbric_attracting_root(MANDELBRIC_REAL_BOUND)
    assert abs(a - 1.0 / SQRT3) <= 1e-12


def test_attracting_root_limit_at_zero():
    assert abs(mandelbric_attracting_root(1e-9) - 1.0) <= 1e-8


def test_attracting_root_defining_equation():
    for c in np.linspace(1e-7, MANDELBRIC_REAL_BOUND, 113):
        a = mandelbric_attracting_root(float(c))
        assert abs(a ** 3 - a + c) <= 1e-9
        assert 1.0 / SQRT3 - 1e-12 <= a < 1.0


def test_attracting_root_domain():
    for bad in (0.0, -0.1, MANDELBRIC_REAL_BOUND + 1e-6, 1.0):
        with pytest.raises(ValueError):
            mandelbric_attracting_root(bad)
