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
        elif not math.isfinite(self.escape_radius):
            raise ValueError(f"escape_radius must be finite, got {self.escape_radius}")
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
        eta = e0, e1, e2, e3, e4, e5, e6, e7 = (
            e0 + c0, e1 + c1, e2 + c2, e3 + c3, e4 + c4, e5 + c5, e6 + c6, e7 + c7)
        # Left to right on every Python version (sum() compensates from 3.12).
        n2 = (e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3
              + e4 * e4 + e5 * e5 + e6 * e6 + e7 * e7)
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
# four share one masked loop.  A point is done when it escapes or falls into
# an exact cycle; its outcome is recorded at that step and a live mask keeps
# it from being recorded again.  Done points keep iterating (harmlessly, to
# inf or NaN) until there are enough of them to compact the active set, so a
# late run of few escapes per step does not copy the whole surviving state
# at every step.  Per-point results depend only on that point's value, so
# any partition of the input yields identical output.

# First step at which the kernel snapshots the active state for cycle
# detection.  An earlier snapshot would copy the whole batch before the
# escapes of the first steps have shrunk it, raising peak memory.
_FIRST_SNAPSHOT = 16
# The active arrays are compacted once done points make up at least
# 1 / _COMPACT_FRACTION of them: waiting points cost at most that share of
# extra arithmetic, and each compaction copy drops at least that share.
_COMPACT_FRACTION = 8


def _counts_kernel(c: np.ndarray, params: IterationParams):
    # c: (n,) parameters, or (4, n) tricomplex components escaping on their
    # combined RMS norm (the ring norm); real or complex either way.  A
    # (2, n) batch holds the distinct rows of components that repeat in
    # pairs: 0.5 * (s0 + s1) is the four-row 0.25 * ((s0 + s1) + (s2 + s3))
    # bit for bit then (x + x = 2x and power-of-two scaling are exact, and
    # the sum commutes), and repeated rows stay equal at every step.
    p, max_iter = params.p, params.max_iter
    # n2 > r2, n2 > guard2 or n2 NaN, in one comparison: a sum of squares
    # is never -inf, and NaN fails every <=.
    lim = min(params.escape_radius * params.escape_radius,
              OVERFLOW_NORM * OVERFLOW_NORM)
    n = c.shape[-1]
    counts = np.full(n, max_iter, dtype=np.uint32)
    member = np.zeros(n, dtype=bool)
    if n == 0:
        return counts, member
    idx = np.arange(n)
    live = np.ones(n, dtype=bool)
    dead = 0
    z = np.zeros_like(c)
    cc = c
    snap = None
    # Done points waiting for the next compaction overflow freely.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, max_iter + 1):
            # The helpers hold their temporaries only while they run, so no
            # array of an earlier step outlives a compaction.
            z = _step(z, cc, p)
            esc = _norm2(z) <= lim
            np.greater(live, esc, out=esc)  # live and not inside
            done = esc
            if snap is not None:
                # A state equal to an earlier non-escaped one repeats forever,
                # so the point is a member (count max_iter) without running
                # out the budget.  The step is a fixed sequence of IEEE * and
                # +, so equal states stay equal up to the sign of zeros, which
                # no norm sees; NaN never compares equal.  A point live now
                # was live at the snapshot, so its snapshot did not escape.
                cyc = z == snap
                if z.ndim == 2:
                    cyc = cyc.all(axis=0)
                cyc &= live
                done = esc | cyc
            k = np.count_nonzero(done)
            if k:
                counts[idx[esc]] = m
                if snap is not None:
                    member[idx[cyc]] = True
                live ^= done
                dead += k
                if dead * _COMPACT_FRACTION >= idx.size:
                    # take() on positions keeps numpy's fast 1-D path for both
                    # shapes; a boolean mask on the last axis of a 2-D array
                    # is much slower.
                    pos = np.flatnonzero(live)
                    if pos.size == 0:
                        break
                    if snap is not None:
                        snap = snap.take(pos, axis=-1)
                    z = z.take(pos, axis=-1)
                    cc = cc.take(pos, axis=-1)
                    idx = idx[pos]
                    live = np.ones(pos.size, dtype=bool)
                    dead = 0
            # Brent's cycle finder: re-take the snapshot at each power of
            # two.  z is rebound, never written in place, so no copy is
            # needed.
            if m >= _FIRST_SNAPSHOT and m & (m - 1) == 0:
                snap = z
    member[idx[live]] = True
    return counts, member


def _step(z: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """z^p + c by the scalar engines' multiply chain, formed in place in a
    fresh array: z itself is never written, because the cycle snapshot may
    be the same array."""
    zp = z * z
    for _ in range(p - 2):
        zp *= z
    zp += c
    return zp


def _norm2(z: np.ndarray) -> np.ndarray:
    """Squared norm of each point of a kernel state: the ring norm of a
    (4, n) or (2, n) batch."""
    if np.iscomplexobj(z):
        sq = z.real * z.real
        sq += z.imag * z.imag
    else:
        sq = z * z
    if z.ndim == 1:
        return sq
    n2 = sq[0] + sq[1]
    if len(sq) == 4:
        n2 += sq[2] + sq[3]
        n2 *= 0.25
    else:
        n2 *= 0.5
    return n2


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


# Points per chunk of the streamed hyperbolic path: beyond its flat outputs
# it holds a few arrays of this length at a time, whatever the grid size.
_CHUNK = 1 << 18


def grid_counts_hyperbolic(
    a: np.ndarray, b: np.ndarray, params: IterationParams, threads: int = 1
):
    """Counts/member for hyperbolic parameters via the two real component orbits.

    a and b must have equal shapes.  They may have any strides, broadcast
    views such as np.meshgrid(..., copy=False) included, and are read in C
    order; counts and member are flat in that order.

    The component parameters a - b and a + b repeat heavily on lattice
    windows, so each distinct value is iterated once and results gathered
    back; this is exact (identical floats share identical orbits).  The
    inputs are read in chunks of at most _CHUNK points, twice: once to
    collect the distinct components, once to gather their results.  Beyond
    the 5 B/cell outputs, only the distinct components grow with the grid,
    and a lattice window has few of them.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"a and b must have equal shapes, got {a.shape} and {b.shape}")

    def components():
        for ca, cb in np.nditer([a, b], flags=["external_loop", "buffered", "zerosize_ok"],
                                buffersize=_CHUNK, order="C"):
            yield ca - cb, ca + cb

    # Sorting the values and searching them is much faster than the argsort
    # behind return_inverse.  np.unique keeps one of 0.0 and -0.0; both find
    # it, and their orbits are the same.  Each chunk's distinct values wait
    # until they outnumber the merged set, so the merges sort each value
    # O(log n) times even when few values repeat, and the waiting values
    # never outgrow the distinct set.
    uniq, pieces, held = np.empty(0), [], 0
    for cm, cp in components():
        pieces.append(np.unique(np.concatenate([cm, cp])))
        held += pieces[-1].size
        if held >= uniq.size:
            uniq = np.unique(np.concatenate([uniq] + pieces))
            pieces, held = [], 0
    uniq = np.unique(np.concatenate([uniq] + pieces))
    counts_u, member_u = _run_blocks(uniq, params, threads)
    counts = np.empty(a.size, dtype=np.uint32)
    member = np.empty(a.size, dtype=bool)
    start = 0
    for cm, cp in components():
        im, ip = np.searchsorted(uniq, cm), np.searchsorted(uniq, cp)
        stop = start + cm.size
        np.minimum(counts_u[im], counts_u[ip], out=counts[start:stop])
        np.logical_and(member_u[im], member_u[ip], out=member[start:stop])
        start = stop
    return counts, member


def grid_counts_tricomplex(w: np.ndarray, params: IterationParams, threads: int = 1):
    """Counts/member for a (4, n) batch of tricomplex idempotent components.

    w holds the four complex components of hypercomplex.to_complex4, as a
    float64 batch when they are real (the parameters have no i-unit) and
    complex128 otherwise.  Multiplication is componentwise there, and the
    escape test uses the combined ring norm, the direct engine's criterion.
    A (2, n) batch holds only the two distinct components of parameters in
    a bicomplex subalgebra (hypercomplex.distinct_components), whose other
    two repeat them; it gives the counts of the four-row batch.
    """
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] not in (2, 4):
        raise ValueError("expected a (4, n) or (2, n) component batch")
    dtype = np.complex128 if np.iscomplexobj(w) else np.float64
    return _run_blocks(np.ascontiguousarray(w, dtype=dtype), params, threads)
