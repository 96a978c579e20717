"""Escape-time iteration of z -> z^p + c over the four number systems.

Scalar engines iterate a single parameter and report an EscapeResult; grid
engines iterate flat numpy batches and report iteration-count arrays with a
member mask.  Scalar and grid paths share primitive operation order (powers
as left-to-right multiply chains, squared-norm comparisons), so counts agree
bitwise wherever the same orbit values arise.

Escape uses the sharp bound 2^(1/(p-1)): an orbit that ever exceeds it
diverges, so a point is a member exactly when the whole orbit stays inside.
A point not escaped after max_iter counts as a member.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hypercomplex import (
    Bicomplex,
    Hyperbolic,
    Tricomplex,
    _mul_coeffs,
    hyp_diamond,
    to_complex4,
    to_idempotent,
)
from .roots import MANDELBRIC_REAL_BOUND, escape_bound

# Iteration aborts as escaped once the norm exceeds this, well before
# float overflow can corrupt counts.
OVERFLOW_NORM = 1e100


@dataclass(frozen=True)
class IterationParams:
    """Exponent, iteration budget and escape radius for one engine run."""

    p: int
    max_iter: int = 1000
    escape_radius: float | None = None

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)):
            raise ValueError("p must be an integer >= 2")
        object.__setattr__(self, "p", int(self.p))
        if self.p < 2:
            raise ValueError("p must be an integer >= 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        bound = escape_bound(self.p)
        if self.escape_radius is None:
            object.__setattr__(self, "escape_radius", bound)
        elif self.escape_radius < bound * (1.0 - 1e-12):
            raise ValueError(
                f"escape_radius {self.escape_radius} below the sharp bound {bound}"
            )


@dataclass(frozen=True)
class EscapeResult:
    """Escape flag, first escaping iteration (or max_iter), final norm."""

    escaped: bool
    iterations: int
    final_norm: float


# --- complex engine -----------------------------------------------------------


def iterate_complex(c: complex, params: IterationParams) -> EscapeResult:
    """Iterate z -> z^p + c from 0; stop at the first norm above the radius."""
    p, max_iter = params.p, params.max_iter
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    z = complex(0.0, 0.0)
    n2 = 0.0
    for m in range(1, max_iter + 1):
        zp = z
        for _ in range(p - 1):
            zp = zp * z
        z = zp + c
        n2 = z.real * z.real + z.imag * z.imag
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, max_iter, math.sqrt(n2))


def orbit_complex(c: complex, p: int, n: int, guard: float = OVERFLOW_NORM) -> list[complex]:
    """First n orbit values of z -> z^p + c from 0, truncated at the guard norm."""
    out = []
    z = complex(0.0, 0.0)
    for _ in range(n):
        zp = z
        for _ in range(p - 1):
            zp = zp * z
        z = zp + c
        out.append(z)
        if not (abs(z.real) < guard and abs(z.imag) < guard):
            break
    return out


def member_multibrot(c: complex, params: IterationParams) -> bool:
    """True iff the orbit of 0 stays bounded through max_iter iterations."""
    bound = escape_bound(params.p)
    if c.real * c.real + c.imag * c.imag > bound * bound:
        return False
    return not iterate_complex(c, params).escaped


# --- real axis ----------------------------------------------------------------


def orbit_real(c: float, p: int, n: int, guard: float = OVERFLOW_NORM) -> list[float]:
    out = []
    x = 0.0
    for _ in range(n):
        xp = x
        for _ in range(p - 1):
            xp = xp * x
        x = xp + c
        out.append(x)
        if not abs(x) < guard:
            break
    return out


def real_axis_extent(p: int, params: IterationParams, tol: float) -> tuple[float, float]:
    """Bisect the real-line membership boundary on each side of 0.

    Returns (lo, hi) with each endpoint resolved to a bracket of width <= tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if params.p != p:
        params = IterationParams(p, params.max_iter, None)

    def member(c: float) -> bool:
        if abs(c) > params.escape_radius:
            return False
        return not iterate_complex(complex(c), params).escaped

    outside = escape_bound(p) + 0.5
    hi = _bisect_boundary(member, 0.0, outside, tol)
    lo = _bisect_boundary(member, 0.0, -outside, tol)
    return lo, hi


def _bisect_boundary(member, inside: float, outside: float, tol: float) -> float:
    if not member(inside) or member(outside):
        raise ValueError("bisection bracket does not straddle the boundary")
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if member(mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


# --- hyperbolic engine --------------------------------------------------------
#
# The linear map T(u, v) = (u - v, u + v) turns the hyperbolic product into the
# componentwise one, so the orbit of 0 under z -> z^p + c decomposes into the
# two real orbits with parameters a - b and a + b.  Escape is judged on the
# largest absolute T-component in both modes so they share one criterion.


def iterate_hyperbolic(
    c: Hyperbolic, params: IterationParams, mode: str = "decomposed"
) -> EscapeResult:
    if mode == "decomposed":
        return _iterate_hyperbolic_decomposed(c, params)
    if mode == "direct":
        return _iterate_hyperbolic_direct(c, params)
    raise ValueError(f"unknown mode {mode!r}")


def _iterate_hyperbolic_decomposed(c: Hyperbolic, params: IterationParams) -> EscapeResult:
    p, max_iter = params.p, params.max_iter
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    cm, cp = c.u - c.v, c.u + c.v
    xm = xp_ = 0.0
    n2 = 0.0
    for m in range(1, max_iter + 1):
        t = xm
        for _ in range(p - 1):
            t = t * xm
        xm = t + cm
        t = xp_
        for _ in range(p - 1):
            t = t * xp_
        xp_ = t + cp
        n2 = max(xm * xm, xp_ * xp_)
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, max_iter, math.sqrt(n2))


def _iterate_hyperbolic_direct(c: Hyperbolic, params: IterationParams) -> EscapeResult:
    p, max_iter = params.p, params.max_iter
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    z = Hyperbolic(0.0, 0.0)
    n2 = 0.0
    for m in range(1, max_iter + 1):
        zp = z
        for _ in range(p - 1):
            zp = hyp_diamond(zp, z)
        z = zp + c
        tm, tp = z.u - z.v, z.u + z.v
        n2 = max(tm * tm, tp * tp)
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, max_iter, math.sqrt(n2))


def member_hyperbric_analytic(a: float, b: float) -> bool:
    """Closed-form degree-3 hyperbolic membership: |a| + |b| <= 2/(3*sqrt(3))."""
    return abs(a) + abs(b) <= MANDELBRIC_REAL_BOUND


# --- tricomplex engine --------------------------------------------------------


def iterate_tricomplex(
    c: Tricomplex, params: IterationParams, mode: str = "direct"
) -> EscapeResult:
    if mode == "direct":
        return _iterate_tricomplex_direct(c, params)
    if mode == "idempotent":
        return _iterate_tricomplex_idempotent(c, params)
    raise ValueError(f"unknown mode {mode!r}")


def _iterate_tricomplex_direct(c: Tricomplex, params: IterationParams) -> EscapeResult:
    p, max_iter = params.p, params.max_iter
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    # Plain 8-tuples with the tc_mul product and the Tricomplex add.
    c0, c1, c2, c3, c4, c5, c6, c7 = c.x
    eta = (0.0,) * 8
    n2 = 0.0
    for m in range(1, max_iter + 1):
        ep = eta
        for _ in range(p - 1):
            ep = _mul_coeffs(ep, eta)
        e0, e1, e2, e3, e4, e5, e6, e7 = ep
        eta = (e0 + c0, e1 + c1, e2 + c2, e3 + c3, e4 + c4, e5 + c5, e6 + c6, e7 + c7)
        n2 = sum(v * v for v in eta)
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, max_iter, math.sqrt(n2))


def _iterate_tricomplex_idempotent(c: Tricomplex, params: IterationParams) -> EscapeResult:
    p, max_iter = params.p, params.max_iter
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    cpair = to_idempotent(c)
    u1 = Bicomplex.zero()
    u2 = Bicomplex.zero()
    n2 = 0.0
    for m in range(1, max_iter + 1):
        t = u1
        for _ in range(p - 1):
            t = t * u1
        u1 = t + cpair.u1
        t = u2
        for _ in range(p - 1):
            t = t * u2
        u2 = t + cpair.u2
        # Combined ring norm: ||eta||^2 = (||u1||^2 + ||u2||^2) / 2.
        n2 = (u1.norm_sq() + u2.norm_sq()) / 2.0
        if n2 > r2 or n2 > guard2 or not math.isfinite(n2):
            return EscapeResult(True, m, math.sqrt(n2))
    return EscapeResult(False, max_iter, math.sqrt(n2))


def member_perplexbric_analytic(c1: float, c4: float, c6: float) -> bool:
    """Closed-form membership of the all-j degree-3 slice: the l1 ball.

    Equivalent to requiring both translated hyperbolic squares to contain
    c1 + c4*j1, i.e. |c1| + |c4 - c6| and |c1| + |c4 + c6| within the bound.
    """
    return abs(c1) + abs(c4) + abs(c6) <= MANDELBRIC_REAL_BOUND


def member_perplexbric_union_form(c1: float, c4: float, c6: float) -> bool:
    """Membership via the union-of-intersected-squares characterization."""
    r = MANDELBRIC_REAL_BOUND
    return abs(c1) + abs(c4 - c6) <= r and abs(c1) + abs(c4 + c6) <= r


# --- vectorized grid engines ----------------------------------------------------
#
# Each engine takes flat batches, returns (counts uint32, member bool).  All
# four share one masked loop, which compacts the active set as points escape;
# per-point results depend only on that point's value, so any partition of
# the input yields identical output.


def _counts_kernel(c: np.ndarray, params: IterationParams):
    # c: (n,) parameters, or (4, n) tricomplex components escaping on their
    # combined RMS norm (the ring norm); real or complex either way.
    p, max_iter = params.p, params.max_iter
    r2 = params.escape_radius * params.escape_radius
    guard2 = OVERFLOW_NORM * OVERFLOW_NORM
    is_complex = np.iscomplexobj(c)
    n = c.shape[-1]
    counts = np.full(n, max_iter, dtype=np.uint32)
    member = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    z = np.zeros_like(c)
    cc = c
    for m in range(1, max_iter + 1):
        zp = z
        for _ in range(p - 1):
            zp = zp * z
        z = zp + cc
        sq = z.real * z.real + z.imag * z.imag if is_complex else z * z
        n2 = ((sq[0] + sq[1]) + (sq[2] + sq[3])) * 0.25 if z.ndim == 2 else sq
        esc = (n2 > r2) | (n2 > guard2) | ~np.isfinite(n2)
        if esc.any():
            counts[idx[esc]] = m
            # take() on positions keeps numpy's fast 1-D path for both shapes;
            # a boolean mask on the last axis of a 2-D array is much slower.
            pos = np.flatnonzero(~esc)
            z = z.take(pos, axis=-1)
            cc = cc.take(pos, axis=-1)
            idx = idx[pos]
            if idx.size == 0:
                break
    member[idx] = True
    return counts, member


def _run_blocks(c: np.ndarray, params: IterationParams, threads: int):
    n = c.shape[-1]
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or n < 2 * workers:
        return _counts_kernel(c, params)
    bounds = [(k * n) // workers for k in range(workers + 1)]
    blocks = [c[..., lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        parts = list(pool.map(lambda blk: _counts_kernel(blk, params), blocks))
    counts = np.concatenate([p_[0] for p_ in parts])
    member = np.concatenate([p_[1] for p_ in parts])
    return counts, member


def grid_counts_complex(c: np.ndarray, params: IterationParams, threads: int = 1):
    """Escape counts and member mask for a flat complex parameter batch."""
    c = np.ascontiguousarray(c, dtype=np.complex128).ravel()
    return _run_blocks(c, params, threads)


def grid_counts_real(c: np.ndarray, params: IterationParams, threads: int = 1):
    c = np.ascontiguousarray(c, dtype=np.float64).ravel()
    return _run_blocks(c, params, threads)


def grid_counts_hyperbolic(
    a: np.ndarray, b: np.ndarray, params: IterationParams, threads: int = 1
):
    """Counts/member for hyperbolic parameters via the two real component orbits.

    The component parameters a - b and a + b repeat heavily on lattice
    windows, so each distinct value is iterated once and results gathered
    back; this is exact (identical floats share identical orbits).
    """
    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    b = np.ascontiguousarray(b, dtype=np.float64).ravel()
    cm = a - b
    cp = a + b
    uniq, inverse = np.unique(np.concatenate([cm, cp]), return_inverse=True)
    counts_u, member_u = _run_blocks(uniq, params, threads)
    n = a.size
    counts = np.minimum(counts_u[inverse[:n]], counts_u[inverse[n:]])
    member = member_u[inverse[:n]] & member_u[inverse[n:]]
    return counts, member


def grid_counts_tricomplex(x8: np.ndarray, params: IterationParams, threads: int = 1):
    """Counts/member for an (8, n) tricomplex coefficient batch.

    Iterates the four complex components (multiplication is componentwise
    there) and escapes on the combined ring norm, which matches the direct
    engine's criterion.
    """
    x8 = np.ascontiguousarray(x8, dtype=np.float64)
    if x8.ndim != 2 or x8.shape[0] != 8:
        raise ValueError("expected an (8, n) coefficient batch")
    w = to_complex4(x8)
    if not w.imag.any():
        return _run_blocks(w.real.copy(), params, threads)
    return _run_blocks(w, params, threads)
