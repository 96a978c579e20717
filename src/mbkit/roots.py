"""Monic cubic root solving, discriminant classification and closed forms.

Backs the real-axis interval analysis of the degree-3 multibrot set: the
boundary point of the real cross-section is the attracting real root of
x^3 - x + c, extracted here in closed trigonometric form.  The closed-form
values that estimates and checks compare against also live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Real-axis bound of the degree-3 multibrot set, 2 / (3*sqrt(3)).
MANDELBRIC_REAL_BOUND = 2.0 / (3.0 * math.sqrt(3.0))

# Volume of the degree-3 Perplexbric octahedron |c1| + |c4| + |c6| <= 2/(3*sqrt(3)).
OCTAHEDRON_VOLUME_P3 = 32.0 / (243.0 * math.sqrt(3.0))

ONE_REAL_TWO_COMPLEX = "one-real-two-complex"
THREE_REAL_ONE_DOUBLE = "three-real-one-double"
THREE_DISTINCT_REAL = "three-distinct-real"

# Relative band below which a discriminant counts as zero.
_ZERO_BAND = 1e-9

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity


def escape_bound(p: int) -> float:
    """Sharp escape radius 2^(1/(p-1)) for exponent p >= 2."""
    if p < 2:
        raise ValueError("exponent p must be >= 2")
    return 2.0 ** (1.0 / (p - 1))


def real_extent_closed_form(p: int) -> tuple[float, float]:
    """Real-axis cross-section (lo, hi) of the degree-p multibrot set.

    hi = (p-1) * p^(-p/(p-1)); lo = -2^(1/(p-1)) for even p, -hi for odd p.

    Why this holds for every p >= 2, with f(x) = x^p + c and the orbit of 0
    under it (c = 0 is a fixed point):
    - For c > 0, f is increasing on [0, inf) and f(0) = c > 0, so the
      orbit rises.  It is bounded exactly when it converges, that is when
      x - x^p = c has a root x >= 0 (below the least such root the orbit
      stays, as f is increasing).  x - x^p peaks at x = p^(-1/(p-1)) with
      value hi, so the orbit is bounded exactly when c <= hi.
    - For odd p, c -> -c negates the orbit, so lo = -hi.
    - For even p and -2^(1/(p-1)) <= c < 0, f maps [c, -c] into itself: on
      it f >= c, and f <= |c|^p + c = |c| * (|c|^(p-1) - 1) <= |c|, because
      |c|^(p-1) <= 2.  Below that bound x1 = c is already past the escape
      radius 2^(1/(p-1)), and for |x| >= |c| the step gives
      |f(x)| >= |x| * (|x|^(p-1) - 1) > |x|, so the orbit escapes and
      lo = -2^(1/(p-1)).
    The estimate and verify reports still label the extent proven for
    p in {2, 3} only, and conjectured for higher degrees.
    """
    hi = (p - 1) * p ** (-p / (p - 1))
    lo = -escape_bound(p) if p % 2 == 0 else -hi
    return lo, hi


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of P(x) = x^3 + b*x^2 + c*x + d."""

    b: float
    c: float
    d: float

    def __call__(self, x) -> complex:
        return ((x + self.b) * x + self.c) * x + self.d


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities; multiplicities sum to 3."""

    kind: str
    roots: tuple[tuple[complex, int], ...]


def depressed_reduce(cc: CubicCoeffs) -> tuple[float, float]:
    """Shift x = y - b/3: returns (p, q) with y^3 + p*y + q sharing the roots."""
    b, c, d = cc.b, cc.c, cc.d
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - c * b / 3.0 + d
    return p, q


def cubic_discriminant(cc: CubicCoeffs) -> float:
    """D = 4c^3 + 27d^2 + 4db^3 - b^2c^2 - 18bcd; sign classifies the roots."""
    b, c, d = cc.b, cc.c, cc.d
    return (
        4.0 * c ** 3
        + 27.0 * d * d
        + 4.0 * d * b ** 3
        - b * b * c * c
        - 18.0 * b * c * d
    )


def _cbrt(x: float) -> float:
    """Sign-preserving real cube root."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def cubic_roots(cc: CubicCoeffs) -> RootSet:
    """Solve P(x) = 0, classifying by the sign of the discriminant.

    D > 0: one real root plus a conjugate complex pair (real cube roots of the
    two real roots of the resolvent quadratic).  D = 0: all real, one double.
    D < 0: three distinct real roots in trigonometric form.  |D| within a
    relative band of zero is treated as D = 0.
    """
    p, q = depressed_reduce(cc)
    d_val = cubic_discriminant(cc)
    shift = -cc.b / 3.0
    band = _ZERO_BAND * max(1.0, abs(p) ** 3, q * q)

    if abs(d_val) <= band:
        t = -q / 2.0
        y = _cbrt(t)
        roots = ((complex(2.0 * y + shift), 1), (complex(-y + shift), 2))
        return RootSet(THREE_REAL_ONE_DOUBLE, roots)

    if d_val > 0.0:
        delta = d_val / 27.0
        s = math.sqrt(delta)
        # Resolvent t^2 + q*t - p^3/27: take the root free of cancellation,
        # recover the other from the product -p^3/27.
        if q >= 0.0:
            t2 = (-q - s) / 2.0
            t1 = (-(p ** 3) / 27.0) / t2
        else:
            t1 = (-q + s) / 2.0
            t2 = (-(p ** 3) / 27.0) / t1
        y1, y2 = _cbrt(t1), _cbrt(t2)
        z1 = y1 + y2
        z2 = _OMEGA * y1 + _OMEGA.conjugate() * y2
        roots = (
            (complex(z1 + shift), 1),
            (z2 + shift, 1),
            (z2.conjugate() + shift, 1),
        )
        return RootSet(ONE_REAL_TWO_COMPLEX, roots)

    # D < 0: resolvent roots are conjugate complex t, tbar with |t| = (-p/3)^(3/2).
    r13 = math.sqrt(-p / 3.0)
    theta = math.atan2(math.sqrt(-d_val / 27.0) / 2.0, -q / 2.0)
    zs = sorted(
        2.0 * r13 * math.cos((theta + 2.0 * math.pi * k) / 3.0) for k in range(3)
    )
    return RootSet(THREE_DISTINCT_REAL, tuple((complex(z + shift), 1) for z in zs))


def mandelbric_attracting_root(c: float) -> float:
    """Attracting real root a of x^3 - x + c for 0 < c <= 2/(3*sqrt(3)).

    a = (2/sqrt(3)) * cos(theta/3) with theta = arctan(sqrt(-D)/(-3c*sqrt(3))) + pi,
    which lies in (pi/2, pi], so a runs over [1/sqrt(3), 1).
    """
    if not 0.0 < c <= MANDELBRIC_REAL_BOUND:
        raise ValueError(f"c must lie in (0, {MANDELBRIC_REAL_BOUND}], got {c}")
    d_val = -4.0 + 27.0 * c * c
    s = math.sqrt(max(0.0, -d_val))
    theta = math.atan(s / (-3.0 * c * math.sqrt(3.0))) + math.pi
    return (2.0 / math.sqrt(3.0)) * math.cos(theta / 3.0)
