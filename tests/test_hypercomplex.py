import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbkit.hypercomplex import (
    CLOSED_SUBALGEBRA,
    ODD_POWER_CLOSED,
    Bicomplex,
    Hyperbolic,
    IdempotentPair,
    Tricomplex,
    UnitIndex,
    from_idempotent,
    hyp_T,
    hyp_diamond,
    hyp_pow,
    in_discus,
    iteration_span_units,
    mul_batch,
    norm3,
    norm_sq_batch,
    parse_unit,
    span_closure_kind,
    tc_mul,
    tc_pow,
    to_complex4,
    to_idempotent,
    unit_product,
)

U = UnitIndex


def t(**coeffs):
    c = [0.0] * 8
    for label, v in coeffs.items():
        c[parse_unit(label.lstrip("u"))] = float(v)
    return Tricomplex(tuple(c))


coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
tricomplexes = st.tuples(*[coeff] * 8).map(Tricomplex)


# --- unit product table --------------------------------------------------------


def test_unit_product_anchors():
    assert unit_product(U.I1, U.I2) == (1, U.J1)
    assert unit_product(U.ONE, U.J3) == (1, U.J3)
    assert unit_product(U.I4, U.I4) == (-1, U.ONE)


def test_unit_product_commutative_all_64():
    for a in U:
        for b in U:
            assert unit_product(a, b) == unit_product(b, a)


def test_unit_product_identity_row():
    for b in U:
        assert unit_product(U.ONE, b) == (1, b)


def test_i_units_square_to_minus_one_j_units_to_one():
    for a in (U.I1, U.I2, U.I3, U.I4):
        assert unit_product(a, a) == (-1, U.ONE)
    for a in (U.J1, U.J2, U.J3):
        assert unit_product(a, a) == (1, U.ONE)


# --- add / mul / pow ------------------------------------------------------------


def test_add_examples(rng):
    eta = Tricomplex(tuple(rng.uniform(-2, 2, 8)))
    assert Tricomplex.zero() + eta == eta
    assert t(u1=1, i1=1) + t(i1=1, j3=1) == t(u1=1, i1=2, j3=1)
    assert eta + -eta == Tricomplex.zero()


def test_mul_examples():
    i1, i2 = Tricomplex.unit(U.I1), Tricomplex.unit(U.I2)
    assert tc_mul(i1, i2) == Tricomplex.unit(U.J1)
    gamma = t(u1=0.5, j3=0.5)
    gamma_bar = t(u1=0.5, j3=-0.5)
    assert tc_mul(gamma, gamma) == gamma
    # Zero divisor: the two idempotents annihilate each other.
    assert tc_mul(gamma, gamma_bar) == Tricomplex.zero()


def _mixed_coeffs(rng):
    """8 coefficients over several magnitudes, about a third of them +-0.0 or +-1.0."""
    x = rng.uniform(-3, 3, 8) * 10.0 ** rng.integers(-4, 5, 8)
    special = rng.random(8) < 0.35
    x[special] = rng.choice([0.0, -0.0, 1.0, -1.0], int(special.sum()))
    return tuple(float(v) for v in x)


def test_tc_mul_equals_table_loop_bitwise(rng, table_mul):
    # Every sign pattern of zeros against constant +-0.0 and +-1.0 tuples.
    zeros = [tuple(-0.0 if m >> i & 1 else 0.0 for i in range(8)) for m in range(256)]
    edges = [(v,) * 8 for v in (0.0, -0.0, 1.0, -1.0)]
    pairs = [(a, b) for a in zeros for b in edges]
    pairs += [(_mixed_coeffs(rng), _mixed_coeffs(rng)) for _ in range(3000)]
    for xa, xb in pairs:
        got = tc_mul(Tricomplex(xa), Tricomplex(xb)).x
        assert [v.hex() for v in got] == [v.hex() for v in table_mul(xa, xb)], (xa, xb)


def test_pow_examples():
    j1, i3 = Tricomplex.unit(U.J1), Tricomplex.unit(U.I3)
    assert tc_pow(t(i1=0.3, j2=-1.2), 0) == Tricomplex.one()
    assert tc_pow(j1, 3) == j1
    assert tc_pow(i3, 3) == -i3
    with pytest.raises(ValueError):
        tc_pow(j1, -1)


@settings(max_examples=150, deadline=None)
@given(tricomplexes, tricomplexes, tricomplexes)
def test_ring_axioms(a, b, c):
    s2 = max(1.0, norm3(a) * norm3(b))
    assert norm3(tc_mul(a, b) - tc_mul(b, a)) <= 1e-12 * s2
    s3 = max(1.0, norm3(a) * norm3(b) * norm3(c))
    assert norm3(tc_mul(tc_mul(a, b), c) - tc_mul(a, tc_mul(b, c))) <= 1e-12 * s3
    sd = max(1.0, norm3(a) * (norm3(b) + norm3(c)))
    assert norm3(tc_mul(a, b + c) - (tc_mul(a, b) + tc_mul(a, c))) <= 1e-12 * sd


@settings(max_examples=150, deadline=None)
@given(tricomplexes, tricomplexes)
def test_mul_matches_pair_recursion_oracle(pair_mul, a, b):
    scale = max(1.0, norm3(a) * norm3(b))
    assert norm3(tc_mul(a, b) - pair_mul(a, b)) <= 1e-12 * scale


def test_pow_matches_idempotent_componentwise(rng):
    for m in range(17):
        a = Tricomplex(tuple(rng.uniform(-1.2, 1.2, 8)))
        pa = to_idempotent(a)
        ref = from_idempotent(IdempotentPair(pa.u1 ** m, pa.u2 ** m))
        got = tc_pow(a, m)
        assert norm3(got - ref) <= 1e-12 * max(1.0, norm3(got))


# --- idempotent representation -----------------------------------------------


def test_to_idempotent_anchors():
    p = to_idempotent(Tricomplex.unit(U.I3))
    assert p.u1.z == (0, 0, -1, 0) and p.u2.z == (0, 0, 1, 0)
    p = to_idempotent(Tricomplex.one())
    assert p.u1.z == (1, 0, 0, 0) and p.u2.z == (1, 0, 0, 0)
    p = to_idempotent(Tricomplex.unit(U.J3))
    assert p.u1.z == (1, 0, 0, 0) and p.u2.z == (-1, 0, 0, 0)
    # gamma3 itself maps to (1, 0).
    p = to_idempotent(t(u1=0.5, j3=0.5))
    assert p.u1.z == (1, 0, 0, 0) and p.u2.z == (0, 0, 0, 0)


def test_from_idempotent_anchors():
    one = Bicomplex.real(1.0)
    assert from_idempotent(IdempotentPair(one, one)) == Tricomplex.one()
    i2 = Bicomplex((0, 0, 1, 0))
    assert from_idempotent(IdempotentPair(-i2, i2)) == Tricomplex.unit(U.I3)
    z = Bicomplex.zero()
    assert from_idempotent(IdempotentPair(z, z)) == Tricomplex.zero()


@settings(max_examples=150, deadline=None)
@given(tricomplexes)
def test_idempotent_round_trip(a):
    assert norm3(from_idempotent(to_idempotent(a)) - a) <= 4e-16 * max(1.0, norm3(a))


@settings(max_examples=150, deadline=None)
@given(tricomplexes, tricomplexes)
def test_idempotent_multiplicativity(a, b):
    pa, pb = to_idempotent(a), to_idempotent(b)
    pab = to_idempotent(tc_mul(a, b))
    scale = max(1.0, norm3(a) * norm3(b))
    assert (pa.u1 * pb.u1 - pab.u1).norm() <= 1e-12 * scale
    assert (pa.u2 * pb.u2 - pab.u2).norm() <= 1e-12 * scale


# --- norm and discus -----------------------------------------------------------


def test_norm_examples():
    assert norm3(Tricomplex.zero()) == 0.0
    assert norm3(t(u1=1, i1=1, i2=1, j1=1)) == 2.0


def test_norm3_sums_squares_left_to_right():
    # Left to right, 1e16 absorbs each of the seven 1s (1e16 + 1 rounds to
    # even); a compensated sum such as math.fsum keeps them.
    x = (1e8,) + (1.0,) * 7
    squares = [v * v for v in x]
    assert math.fsum(squares) > 1e16
    assert norm3(Tricomplex(x)) == 1e8
    assert math.sqrt(math.fsum(squares)) > 1e8


@settings(max_examples=150, deadline=None)
@given(tricomplexes)
def test_norm_matches_component_form(a):
    p = to_idempotent(a)
    lhs = norm3(a) ** 2
    rhs = (p.u1.norm_sq() + p.u2.norm_sq()) / 2.0
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def _discus_reference(x, radius):
    # The larger of the two idempotent component norms, each a Bicomplex
    # norm, against the radius; None when either norm lies within 1e-12 of
    # it, where rounding may decide.
    pair = to_idempotent(Tricomplex(tuple(x)))
    norms = (pair.u1.norm(), pair.u2.norm())
    if any(abs(n - radius) <= 1e-12 for n in norms):
        return None
    return max(norms) <= radius


@pytest.mark.parametrize("radius", [1.0, math.sqrt(2.0), 2.0])
def test_in_discus_matches_the_idempotent_norms(radius, rng):
    # Single points, as floats.
    points = rng.uniform(-0.6 * radius, 0.6 * radius, (400, 8))
    want = [_discus_reference(x, radius) for x in points]
    assert True in want and False in want
    for x, w in zip(points, want):
        if w is not None:
            assert in_discus(tuple(x), radius) == w, x
    # A broadcast batch: rows 0-3 vary along the first axis, rows 4-7
    # along the second, and two rows are None, standing for zero rows.
    a = rng.uniform(-0.6 * radius, 0.6 * radius, (4, 20))
    b = rng.uniform(-0.6 * radius, 0.6 * radius, (4, 25))
    rows = [r[:, None] for r in a] + [r[None, :] for r in b]
    rows[2] = rows[6] = None
    got = in_discus(rows, radius)
    assert got.shape == (20, 25)
    seen = set()
    for i in range(20):
        for j in range(25):
            x = [0.0 if r is None else float(r[min(i, r.shape[0] - 1),
                                               min(j, r.shape[1] - 1)])
                 for r in rows]
            w = _discus_reference(x, radius)
            if w is not None:
                assert got[i, j] == w, x
                seen.add(w)
    assert seen == {True, False}


def test_discus_membership():
    # The discus is closed: both component norms of the real 1 are exactly 1.
    assert in_discus(Tricomplex.real(1.0).x, 1.0)
    assert not in_discus(Tricomplex.real(math.nextafter(1.0, 2.0)).x, 1.0)
    assert in_discus(Tricomplex.zero().x, math.sqrt(2.0))
    assert not in_discus(Tricomplex.real(3.0).x, math.sqrt(2.0))


# --- hyperbolic plane ------------------------------------------------------------


def test_hyperbolic_products():
    one = Hyperbolic(1.0, 0.0)
    z = Hyperbolic(0.7, -0.3)
    assert hyp_diamond(one, z) == z
    a, b = Hyperbolic(2.0, 3.0), Hyperbolic(-1.0, 4.0)
    assert hyp_diamond(a, b) == Hyperbolic(2 * -1 + 3 * 4, 3 * -1 + 2 * 4)


def test_hyperbolic_T_homomorphism_anchor():
    j = Hyperbolic(0.0, 1.0)
    assert hyp_T(j) == (-1.0, 1.0)
    jj = hyp_diamond(j, j)
    assert (jj.u, jj.v) == (1.0, 0.0)
    assert hyp_T(jj) == (1.0, 1.0)
    ta = hyp_T(j)
    assert (ta[0] * ta[0], ta[1] * ta[1]) == hyp_T(jj)


def test_hyperbolic_T_isomorphism_exact_on_integers():
    vals = range(-3, 4)
    for ua in vals:
        for va in vals:
            a = Hyperbolic(float(ua), float(va))
            for ub in vals:
                for vb in vals:
                    b = Hyperbolic(float(ub), float(vb))
                    ta, tb = hyp_T(a), hyp_T(b)
                    assert hyp_T(hyp_diamond(a, b)) == (ta[0] * tb[0], ta[1] * tb[1])


def test_hyp_pow_chain():
    z = Hyperbolic(0.5, 0.25)
    assert hyp_pow(z, 0) == Hyperbolic(1.0, 0.0)
    assert hyp_pow(z, 3) == hyp_diamond(hyp_diamond(z, z), z)


def test_hyperbolic_embeds_into_tricomplex():
    z = Hyperbolic(0.25, -0.5)
    for ju in (U.J1, U.J2, U.J3):
        emb = z.to_tricomplex(ju)
        sq = tc_mul(emb, emb)
        zz = hyp_diamond(z, z)
        assert sq == zz.to_tricomplex(ju)
    with pytest.raises(ValueError):
        z.to_tricomplex(U.I1)


# --- span structure ---------------------------------------------------------------


def test_span_closure_kinds():
    assert span_closure_kind((U.ONE, U.I1, U.I2)) == CLOSED_SUBALGEBRA
    assert span_closure_kind((U.I1, U.I2, U.J1)) == CLOSED_SUBALGEBRA
    # j1 * j2 = -j3, so the all-j triple also spans a closed subalgebra.
    assert span_closure_kind((U.J1, U.J2, U.J3)) == CLOSED_SUBALGEBRA
    assert span_closure_kind((U.I1, U.I2, U.J2)) == ODD_POWER_CLOSED
    assert span_closure_kind((U.I1, U.I2, U.I3)) == ODD_POWER_CLOSED


def test_span_closure_predicts_power_behaviour(rng):
    from itertools import combinations

    for units in combinations(U, 3):
        span = set(iteration_span_units(units))
        eta = Tricomplex.zero()
        for u, v in zip(units, rng.uniform(-2, 2, 3)):
            eta = eta + float(v) * Tricomplex.unit(u)
        kind = span_closure_kind(units)
        saw_even_escape = False
        for m in range(1, 7):
            powm = tc_pow(eta, m)
            outside = math.sqrt(
                sum(v * v for k, v in enumerate(powm.x) if U(k) not in span)
            )
            stays = outside <= 1e-9 * max(1.0, norm3(powm))
            if m % 2 == 1 or kind == CLOSED_SUBALGEBRA:
                assert stays, (units, m)
            elif not stays:
                saw_even_escape = True
        if kind == ODD_POWER_CLOSED:
            assert saw_even_escape, units


def test_iteration_span_units_examples():
    assert iteration_span_units((U.ONE, U.I1, U.I2)) == (U.ONE, U.I1, U.I2, U.J1)
    assert iteration_span_units((U.I1, U.I2, U.J1)) == (U.ONE, U.I1, U.I2, U.J1)
    assert iteration_span_units((U.I1, U.I2, U.I3)) == (U.I1, U.I2, U.I3, U.I4)
    assert iteration_span_units((U.J1, U.J2, U.J3)) == (U.ONE, U.J1, U.J2, U.J3)


# --- serialization and batch helpers -------------------------------------------


def test_bicomplex_embedding_commutes_with_ring_ops(rng):
    for _ in range(200):
        a = Bicomplex(tuple(rng.uniform(-3, 3, 4)))
        b = Bicomplex(tuple(rng.uniform(-3, 3, 4)))
        scale = max(1.0, a.norm() * b.norm())
        assert (a + b).to_tricomplex() == a.to_tricomplex() + b.to_tricomplex()
        emb = tc_mul(a.to_tricomplex(), b.to_tricomplex())
        assert norm3(emb - (a * b).to_tricomplex()) <= 1e-12 * scale


def test_pair_split_round_trips_losslessly(rng):
    from mbkit.hypercomplex import join_pair, split_pair

    for _ in range(100):
        a = Tricomplex(tuple(rng.uniform(-5, 5, 8)))
        assert join_pair(*split_pair(a)) == a
    z1 = Bicomplex(tuple(rng.uniform(-5, 5, 4)))
    z2 = Bicomplex(tuple(rng.uniform(-5, 5, 4)))
    got1, got2 = split_pair(join_pair(z1, z2))
    assert got1 == z1 and got2 == z2


def test_text_round_trip(rng):
    a = Tricomplex(tuple(rng.uniform(-5, 5, 8)))
    assert Tricomplex(tuple(map(float, a.to_text().split()))) == a
    assert len(a.to_text().split()) == 8


def _float_bits(x):
    # Bit patterns with every NaN made one: signed zeros and infinities are
    # compared exactly, NaN payloads and signs are not.
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def test_mul_batch_matches_scalar(rng, table_mul):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    A = rng.uniform(-3, 3, (8, 200))
    B = rng.uniform(-3, 3, (8, 200))
    for X in (A, B):
        # No special values in the first columns, nine in ten in the last.
        pick = rng.random((8, 200)) < np.linspace(0.0, 0.9, 200)
        X[pick] = rng.choice(special, pick.sum())
    A[:, :2] = -0.0
    B[:, 0], B[:, 1] = -0.0, 0.0
    with np.errstate(invalid="ignore"):
        C = mul_batch(A, B)
        assert (_float_bits(C) == _float_bits(np.array(table_mul(A, B)))).all()
        assert (C == 0.0).any() and np.isinf(C).any() and np.isnan(C).any()
        # An (8, 1) operand broadcasts over the other's columns, on either side.
        for x, y in ((A, B[:, 7:8]), (B[:, 7:8], A)):
            want = _float_bits(np.array(table_mul(x, y)))
            assert (_float_bits(mul_batch(x, y)) == want).all()
    with pytest.raises(ValueError):
        mul_batch(A, B[:, :3])


def test_complex4_components_multiplicative(rng):
    A = rng.uniform(-3, 3, (8, 64))
    B = rng.uniform(-3, 3, (8, 64))
    wa, wb = to_complex4(A), to_complex4(B)
    wab = to_complex4(mul_batch(A, B))
    assert np.max(np.abs(wa * wb - wab)) <= 1e-10
    n2 = (np.abs(wa) ** 2).sum(axis=0) / 4.0
    assert np.max(np.abs(n2 - norm_sq_batch(A))) <= 1e-9
