"""Arithmetic for the four number systems underlying the multibrot engines.

Tricomplex numbers form an 8-dimensional commutative ring over the reals
with basis (1, i1, i2, i3, i4, j1, j2, j3), where the i-units square to -1,
the j-units square to +1 and all products follow the unit table below.
Bicomplex numbers are the 4-dimensional subring spanned by (1, i1, i2, j1),
and hyperbolic (split-complex) numbers are the plane a + b*j with j*j = 1.

The idempotent pair decomposition splits a tricomplex number into two
bicomplex components on which addition, multiplication and powers act
componentwise; it is the workhorse behind the fast iteration engines.

All types are immutable values and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np


class UnitIndex(IntEnum):
    """Canonical basis order; fixes the coefficient layout everywhere."""

    ONE = 0
    I1 = 1
    I2 = 2
    I3 = 3
    I4 = 4
    J1 = 5
    J2 = 6
    J3 = 7

    @property
    def label(self) -> str:
        return _UNIT_LABELS[self]


_UNIT_LABELS = ("1", "i1", "i2", "i3", "i4", "j1", "j2", "j3")
_LABEL_TO_UNIT = {lbl: UnitIndex(k) for k, lbl in enumerate(_UNIT_LABELS)}


def parse_unit(text: str) -> UnitIndex:
    """Parse a unit label such as "1", "i3" or "j2"."""
    try:
        return _LABEL_TO_UNIT[text.strip()]
    except KeyError:
        raise ValueError(f"unknown unit label {text!r}") from None


# Product of two basis units as (sign, resulting unit index), row by row in
# canonical order.  This table is the normative definition of the ring; the
# recursive pair product below is kept only as an independent cross-check.
PRODUCT_TABLE: tuple[tuple[tuple[int, int], ...], ...] = (
    # 1
    ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)),
    # i1
    ((1, 1), (-1, 0), (1, 5), (1, 6), (-1, 7), (-1, 2), (-1, 3), (1, 4)),
    # i2
    ((1, 2), (1, 5), (-1, 0), (1, 7), (-1, 6), (-1, 1), (1, 4), (-1, 3)),
    # i3
    ((1, 3), (1, 6), (1, 7), (-1, 0), (-1, 5), (1, 4), (-1, 1), (-1, 2)),
    # i4
    ((1, 4), (-1, 7), (-1, 6), (-1, 5), (-1, 0), (1, 3), (1, 2), (1, 1)),
    # j1
    ((1, 5), (-1, 2), (-1, 1), (1, 4), (1, 3), (1, 0), (-1, 7), (-1, 6)),
    # j2
    ((1, 6), (-1, 3), (1, 4), (-1, 1), (1, 2), (-1, 7), (1, 0), (-1, 5)),
    # j3
    ((1, 7), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 6), (-1, 5), (1, 0)),
)

def unit_product(a: UnitIndex, b: UnitIndex) -> tuple[int, UnitIndex]:
    """Product of two basis units as (sign, unit)."""
    s, k = PRODUCT_TABLE[a][b]
    return s, UnitIndex(k)


@dataclass(frozen=True)
class Tricomplex:
    """Tricomplex number as 8 real coefficients in canonical basis order."""

    x: tuple[float, float, float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.x) != 8:
            raise ValueError(f"need 8 coefficients, got {len(self.x)}")
        if any(type(v) is not float for v in self.x):
            object.__setattr__(self, "x", tuple(float(v) for v in self.x))

    @staticmethod
    def zero() -> "Tricomplex":
        return _ZERO

    @staticmethod
    def one() -> "Tricomplex":
        return _ONE

    @staticmethod
    def unit(u: UnitIndex) -> "Tricomplex":
        c = [0.0] * 8
        c[u] = 1.0
        return Tricomplex(tuple(c))

    @staticmethod
    def real(v: float) -> "Tricomplex":
        return Tricomplex((float(v), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    def __add__(self, other: "Tricomplex") -> "Tricomplex":
        a, b = self.x, other.x
        return Tricomplex(tuple(a[k] + b[k] for k in range(8)))

    def __sub__(self, other: "Tricomplex") -> "Tricomplex":
        a, b = self.x, other.x
        return Tricomplex(tuple(a[k] - b[k] for k in range(8)))

    def __neg__(self) -> "Tricomplex":
        return Tricomplex(tuple(-v for v in self.x))

    def __mul__(self, other):
        if isinstance(other, Tricomplex):
            return tc_mul(self, other)
        if isinstance(other, (int, float)):
            return Tricomplex(tuple(v * other for v in self.x))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "Tricomplex":
        return tc_pow(self, m)

    def norm(self) -> float:
        return norm3(self)

    def to_text(self) -> str:
        """8 whitespace-separated decimals in canonical order."""
        return " ".join(repr(v) for v in self.x)

    def __str__(self) -> str:
        terms = [f"{v:g}*{_UNIT_LABELS[k]}" for k, v in enumerate(self.x) if v != 0.0]
        return " + ".join(terms) if terms else "0"


_ZERO = Tricomplex((0.0,) * 8)
_ONE = Tricomplex((1.0,) + (0.0,) * 7)


def tc_mul(a: Tricomplex, b: Tricomplex) -> Tricomplex:
    """Product via the 8x8 unit table; commutative, distributes over +."""
    return Tricomplex(_mul_coeffs(a.x, b.x))


def _mul_coeffs(xa: Sequence, xb: Sequence) -> tuple:
    """Unit-table product of two 8-coefficient sequences, written out.

    Coefficients are floats or broadcasting numpy rows (mul_batch).  Row k
    sums the terms a_i * b_j with PRODUCT_TABLE[i][j] = (sign, k) in increasing
    i, starting from 0.0, so the floats, signed zeros included, equal those of
    accumulating the table term by term.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = xa
    b0, b1, b2, b3, b4, b5, b6, b7 = xb
    return (
        0.0 + a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4 + a5 * b5 + a6 * b6 + a7 * b7,
        0.0 + a0 * b1 + a1 * b0 - a2 * b5 - a3 * b6 + a4 * b7 - a5 * b2 - a6 * b3 + a7 * b4,
        0.0 + a0 * b2 - a1 * b5 + a2 * b0 - a3 * b7 + a4 * b6 - a5 * b1 + a6 * b4 - a7 * b3,
        0.0 + a0 * b3 - a1 * b6 - a2 * b7 + a3 * b0 + a4 * b5 + a5 * b4 - a6 * b1 - a7 * b2,
        0.0 + a0 * b4 + a1 * b7 + a2 * b6 + a3 * b5 + a4 * b0 + a5 * b3 + a6 * b2 + a7 * b1,
        0.0 + a0 * b5 + a1 * b2 + a2 * b1 - a3 * b4 - a4 * b3 + a5 * b0 - a6 * b7 - a7 * b6,
        0.0 + a0 * b6 + a1 * b3 - a2 * b4 + a3 * b1 - a4 * b2 - a5 * b7 + a6 * b0 - a7 * b5,
        0.0 + a0 * b7 - a1 * b4 + a2 * b3 + a3 * b2 - a4 * b1 - a5 * b6 - a6 * b5 + a7 * b0,
    )


def tc_pow(a: Tricomplex, m: int) -> Tricomplex:
    """m-fold product, m >= 0, evaluated as a left-to-right chain."""
    return _chain_pow(a, m, _ONE, tc_mul)


def _chain_pow(a, m: int, one, mul):
    """a**m, m >= 0, as the left-to-right chain mul(...mul(a, a)..., a); one at m = 0."""
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return one
    r = a
    for _ in range(m - 1):
        r = mul(r, a)
    return r


@dataclass(frozen=True)
class Bicomplex:
    """Bicomplex number as 4 real coefficients on (1, i1, i2, j1)."""

    z: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.z) != 4:
            raise ValueError(f"need 4 coefficients, got {len(self.z)}")
        if any(type(v) is not float for v in self.z):
            object.__setattr__(self, "z", tuple(float(v) for v in self.z))

    @staticmethod
    def zero() -> "Bicomplex":
        return Bicomplex((0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def real(v: float) -> "Bicomplex":
        return Bicomplex((float(v), 0.0, 0.0, 0.0))

    @staticmethod
    def from_complex_pair(z1: complex, z2: complex) -> "Bicomplex":
        return Bicomplex((z1.real, z1.imag, z2.real, z2.imag))

    def complex_pair(self) -> tuple[complex, complex]:
        a, b, c, d = self.z
        return complex(a, b), complex(c, d)

    def __add__(self, other: "Bicomplex") -> "Bicomplex":
        a, b = self.z, other.z
        return Bicomplex((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def __sub__(self, other: "Bicomplex") -> "Bicomplex":
        a, b = self.z, other.z
        return Bicomplex((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __neg__(self) -> "Bicomplex":
        return Bicomplex(tuple(-v for v in self.z))

    def __mul__(self, other):
        if isinstance(other, Bicomplex):
            z1, z2 = self.complex_pair()
            z3, z4 = other.complex_pair()
            return Bicomplex.from_complex_pair(z1 * z3 - z2 * z4, z1 * z4 + z2 * z3)
        if isinstance(other, (int, float)):
            return Bicomplex(tuple(v * other for v in self.z))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "Bicomplex":
        return _chain_pow(self, m, _BICOMPLEX_ONE, Bicomplex.__mul__)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def norm_sq(self) -> float:
        a, b, c, d = self.z
        return a * a + b * b + c * c + d * d

    def to_tricomplex(self) -> Tricomplex:
        a, b, c, d = self.z
        return Tricomplex((a, b, c, 0.0, 0.0, d, 0.0, 0.0))


_BICOMPLEX_ONE = Bicomplex((1.0, 0.0, 0.0, 0.0))


def split_pair(t: Tricomplex) -> tuple[Bicomplex, Bicomplex]:
    """Write eta = zeta1 + zeta2*i3 and return (zeta1, zeta2)."""
    x = t.x
    return Bicomplex((x[0], x[1], x[2], x[5])), Bicomplex((x[3], x[6], x[7], x[4]))


def join_pair(z1: Bicomplex, z2: Bicomplex) -> Tricomplex:
    """Inverse of split_pair."""
    a = z1.z
    b = z2.z
    return Tricomplex((a[0], a[1], a[2], b[0], b[3], a[3], b[1], b[2]))


@dataclass(frozen=True)
class IdempotentPair:
    """Bicomplex components of a tricomplex number w.r.t. (1 +- j3)/2."""

    u1: Bicomplex
    u2: Bicomplex


def to_idempotent(t: Tricomplex) -> IdempotentPair:
    """Components (zeta1 - zeta2*i2, zeta1 + zeta2*i2) for eta = zeta1 + zeta2*i3."""
    x = t.x
    u1 = Bicomplex((x[0] + x[7], x[1] + x[4], x[2] - x[3], x[5] - x[6]))
    u2 = Bicomplex((x[0] - x[7], x[1] - x[4], x[2] + x[3], x[5] + x[6]))
    return IdempotentPair(u1, u2)


def from_idempotent(p: IdempotentPair) -> Tricomplex:
    """Exact inverse of to_idempotent."""
    a = p.u1.z
    b = p.u2.z
    return Tricomplex(
        (
            (a[0] + b[0]) / 2,
            (a[1] + b[1]) / 2,
            (a[2] + b[2]) / 2,
            (b[2] - a[2]) / 2,
            (a[1] - b[1]) / 2,
            (a[3] + b[3]) / 2,
            (b[3] - a[3]) / 2,
            (a[0] - b[0]) / 2,
        )
    )


def norm3(t: Tricomplex) -> float:
    """Euclidean norm of the 8 coefficients, squares summed left to right."""
    x0, x1, x2, x3, x4, x5, x6, x7 = t.x
    return math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
                     + x4 * x4 + x5 * x5 + x6 * x6 + x7 * x7)


@dataclass(frozen=True)
class Hyperbolic:
    """Hyperbolic (duplex) number u + v*j with j*j = 1, stored as (u, v)."""

    u: float
    v: float

    def __add__(self, other: "Hyperbolic") -> "Hyperbolic":
        return Hyperbolic(self.u + other.u, self.v + other.v)

    def __neg__(self) -> "Hyperbolic":
        return Hyperbolic(-self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, Hyperbolic):
            return hyp_diamond(self, other)
        return NotImplemented

    def to_tricomplex(self, j_unit: UnitIndex = UnitIndex.J1) -> Tricomplex:
        if j_unit not in (UnitIndex.J1, UnitIndex.J2, UnitIndex.J3):
            raise ValueError("j_unit must be one of j1, j2, j3")
        c = [0.0] * 8
        c[UnitIndex.ONE] = self.u
        c[j_unit] = self.v
        return Tricomplex(tuple(c))


_HYPERBOLIC_ONE = Hyperbolic(1.0, 0.0)


def hyp_diamond(a: Hyperbolic, b: Hyperbolic) -> Hyperbolic:
    """Hyperbolic product: (u,v) diamond (x,y) = (ux + vy, vx + uy)."""
    return Hyperbolic(a.u * b.u + a.v * b.v, a.v * b.u + a.u * b.v)


def hyp_T(a: Hyperbolic) -> tuple[float, float]:
    """Ring isomorphism (+, diamond) -> (+, componentwise): (u, v) -> (u - v, u + v)."""
    return (a.u - a.v, a.u + a.v)


def hyp_pow(a: Hyperbolic, m: int) -> Hyperbolic:
    return _chain_pow(a, m, _HYPERBOLIC_ONE, hyp_diamond)


# --- span structure of unit triples -----------------------------------------

CLOSED_SUBALGEBRA = "closed-subalgebra"
ODD_POWER_CLOSED = "odd-power-closed"


def span_closure_kind(units: Sequence[UnitIndex]) -> str:
    """How products behave on the span of three distinct units.

    CLOSED_SUBALGEBRA: the span of {1} and the units, together with the missing
    pairwise product, is closed under multiplication (one unit is 1 or some
    pairwise product is +-the third unit).  ODD_POWER_CLOSED: only odd powers
    stay inside the 4-dimensional span with the triple product appended.
    """
    us = _distinct_units(units)
    if UnitIndex.ONE in us:
        return CLOSED_SUBALGEBRA
    for a in range(3):
        for b in range(a + 1, 3):
            _, k = unit_product(us[a], us[b])
            if k == us[3 - a - b]:
                return CLOSED_SUBALGEBRA
    return ODD_POWER_CLOSED


def iteration_span_units(units: Sequence[UnitIndex]) -> tuple[UnitIndex, ...]:
    """The 4 basis units spanning every odd power of the 3-unit span.

    The fourth unit is the (sign-stripped) product of the three; when one of
    the units is 1 this is the product of the other two and the span is a
    closed subalgebra.
    """
    us = _distinct_units(units)
    s, k = unit_product(us[0], us[1])
    s2, k2 = unit_product(k, us[2])
    fourth = k2
    if fourth in us:
        raise ValueError("degenerate unit triple " + ",".join(u.label for u in us))
    return tuple(sorted((*us, fourth)))


def _distinct_units(units: Sequence[UnitIndex]) -> tuple[UnitIndex, UnitIndex, UnitIndex]:
    us = tuple(UnitIndex(u) for u in units)
    if len(us) != 3 or len(set(us)) != 3:
        raise ValueError("need three distinct units, got "
                         + ",".join(u.label for u in us))
    return us


# --- vectorized batch helpers -------------------------------------------------
#
# Batches are (8, n) float arrays of coefficients in canonical order.  These
# back the grid engines and the bulk verification sweeps.


def mul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise tricomplex product of two (8, n) coefficient batches."""
    return np.array(_mul_coeffs(a, b))


def pow_batch(a: np.ndarray, m: int) -> np.ndarray:
    one = np.zeros_like(a)
    one[0] = 1.0
    return _chain_pow(a, m, one, mul_batch)


def norm_sq_batch(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, a)


def to_complex4(batch: np.ndarray) -> np.ndarray:
    """(8, n) coefficients -> (4, n) complex idempotent-of-idempotent components.

    The tricomplex ring splits into two bicomplex components, each of which
    splits into two complex ones; multiplication is componentwise on the
    result and the squared ring norm is the mean of the 4 squared moduli.
    """
    return complex4_rows(list(batch))


# The bicomplex subalgebras on which to_complex4 rows repeat in pairs, with
# the rows that stay distinct.  Rows 0 and 2 differ by 2(x7 - x6) + 2(x4 + x3)i
# and rows 1 and 3 by 2(x7 + x6) + 2(x4 - x3)i, so both pairs are equal for
# every parameter with no i3, i4, j2 or j3 part; likewise rows (0, 3)(1, 2)
# without i2, i4, j1, j3 and rows (0, 1)(2, 3) without i2, i3, j1, j2.
_REPEATING_ROWS = (
    ((0, 1, 2, 5), (0, 1)),  # 1, i1, i2, j1: rows 2, 3 repeat rows 0, 1
    ((0, 1, 3, 6), (0, 1)),  # 1, i1, i3, j2: rows 3, 2 repeat rows 0, 1
    ((0, 1, 4, 7), (0, 2)),  # 1, i1, i4, j3: rows 1, 3 repeat rows 0, 2
)


def distinct_components(units) -> tuple[int, ...]:
    """The to_complex4 rows that can differ for parameters spanned by units.

    Two rows when the units lie in a bicomplex subalgebra above, where the
    other two rows repeat them; all four otherwise.
    """
    present = {int(u) for u in units}
    for algebra, rows in _REPEATING_ROWS:
        if present <= set(algebra):
            return rows
    return (0, 1, 2, 3)


# Bicomplex idempotent component k of coefficient rows x has the rows
# x[a] op x[b] for the (op, a, b) of IDEMPOTENT_TERMS[k]: (x0+x7, x1+x4,
# x2-x3, x5-x6) and (x0-x7, x1-x4, x2+x3, x5+x6).  to_complex4 row r is
# re + im*i, with re and im formed by the (op, a, b) of COMPONENT_TERMS[r % 2]
# from the rows of component r // 2.
IDEMPOTENT_TERMS = (
    ((np.add, 0, 7), (np.add, 1, 4), (np.subtract, 2, 3), (np.subtract, 5, 6)),
    ((np.subtract, 0, 7), (np.subtract, 1, 4), (np.add, 2, 3), (np.add, 5, 6)),
)
COMPONENT_TERMS = (
    ((np.add, 0, 3), (np.subtract, 1, 2)),
    ((np.subtract, 0, 3), (np.add, 1, 2)),
)


def component_layout(x) -> tuple[tuple[int, ...], bool]:
    """The to_complex4 rows that complex4_rows keeps for 8 coefficient rows
    x, None where a row is zero (distinct_components of the rows present),
    and whether they are real: no i-unit row (1-4), the only source of an
    imaginary part, is present."""
    present = [k for k, r in enumerate(x) if r is not None]
    return distinct_components(present), all(r is None for r in x[1:5])


def idempotent_rows(x, combine=None):
    """The rows of the two bicomplex idempotent components of 8 coefficient
    rows x (IDEMPOTENT_TERMS), each combine(op, a, b) of two rows of x.

    A row of x may be None, standing for a zero row.  The default combine
    drops terms with it (x + 0 -> x, 0 - x -> -x), which changes no value
    beyond the sign of a zero, and gives None for two absent rows.
    """
    combine = combine or _combine
    return tuple(tuple(combine(op, x[a], x[b]) for op, a, b in terms)
                 for terms in IDEMPOTENT_TERMS)


def in_discus(x, radius: float):
    """Whether 8 coefficient rows x lie in the closed discus of the given
    radius about 0: both idempotent component norms are <= radius.

    A row of x is a float or an array, the rows broadcast, and None stands
    for a zero row (idempotent_rows).  Each component's squares are summed
    ((a0² + a1²) + a2²) + a3² elementwise, so a point's answer does not
    depend on the batch it comes in.
    """
    r2 = radius * radius
    n1, n2 = (reduce(add, [r * r for r in rows if r is not None])
              for rows in idempotent_rows(x))
    return (n1 <= r2) & (n2 <= r2)


def complex4_rows(x):
    """to_complex4's components of 8 coefficient rows x, in a fresh array.

    A row of x may be None, standing for a zero row, as in idempotent_rows.
    The array holds the rows of component_layout: the distinct_components
    rows of the units whose rows are present, two when they lie in a
    bicomplex subalgebra and four otherwise, as float64 when they are real
    and complex128 otherwise.
    """
    rows, real = component_layout(x)
    present = [r for r in x if r is not None]
    w = np.empty((len(rows),) + np.broadcast(*present).shape,
                 dtype=np.float64 if real else np.complex128)
    u = idempotent_rows(x)
    for k, row in enumerate(rows):
        v = u[row // 2]
        (re_op, a, b), (im_op, c, d) = COMPONENT_TERMS[row % 2]
        _combine(re_op, v[a], v[b], out=w[k].real)  # w[k] itself when w is real
        if not real:
            _combine(im_op, v[c], v[d], out=w[k].imag)
    return w


def _combine(op, a, b, out=None):
    # op(a, b) with None a zero row; with out given, the result lands there.
    if a is not None and b is not None:
        return op(a, b, out=out)
    if a is None and b is not None and op is np.subtract:
        return np.negative(b, out=out)
    r = a if b is None else b
    if out is None:
        return r
    if r is None:
        out.fill(0.0)
    else:
        np.copyto(out, r)
    return out
