"""Escape-time iteration of z -> z^p + c over the four number systems.

Scalar engines iterate a single parameter and report an EscapeResult; grid
engines iterate flat numpy batches and report iteration-count arrays with a
member mask.  Scalar and grid paths share primitive operation order (powers
as left-to-right multiply chains, squared-norm comparisons), so counts agree
bitwise wherever the same orbit values arise.  Each is one loop, the scalar
_escape_time driving a per-system step and the grid _counts_kernel, and both
stop an orbit whose state repeats exactly, which changes no result.

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
# The largest iteration budget: the most a uint32 count can hold.
MAX_ITER_LIMIT = 2 ** 32 - 1


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
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, (int, np.integer))
                or not 1 <= self.max_iter <= MAX_ITER_LIMIT):
            raise ValueError(f"max_iter must be an integer in [1, {MAX_ITER_LIMIT}], "
                             f"got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
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


def _escape_time(step, z0, params: IterationParams) -> EscapeResult:
    """The escape-time loop of every scalar engine; step(z) returns the
    next state and its squared norm.

    A state equal to the snapshot of step s (Brent: snapshots at steps 1,
    2, 4, 8, ...) repeats with period m - s, so whole periods are skipped.
    Equal states stay equal up to the sign of zeros, which no norm sees, and
    a live state is finite, so the result is that of running every step.
    """
    max_iter = params.max_iter
    # n2 > r2, n2 > guard2 or n2 NaN, in one comparison.
    lim = min(params.escape_radius * params.escape_radius,
              OVERFLOW_NORM * OVERFLOW_NORM)
    z, n2 = z0, 0.0
    snap, s, nxt = None, 0, 1
    for m in range(1, max_iter + 1):
        z, n2 = step(z)
        if not n2 <= lim:
            return EscapeResult(True, m, math.sqrt(n2))
        if z == snap:
            for _ in range((max_iter - m) % (m - s)):
                z, n2 = step(z)
            break
        if m == nxt:
            snap, s, nxt = z, m, 2 * m
    return EscapeResult(False, max_iter, math.sqrt(n2))


# --- complex engine -----------------------------------------------------------


def iterate_complex(c: complex, params: IterationParams) -> EscapeResult:
    """Iterate z -> z^p + c from 0; stop at the first norm above the radius."""
    chain = range(params.p - 1)

    def step(z):
        zp = z
        for _ in chain:
            zp = zp * z
        z = zp + c
        return z, z.real * z.real + z.imag * z.imag

    return _escape_time(step, complex(0.0, 0.0), params)


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

    Returns (lo, hi) with each endpoint resolved to a bracket of width <= tol,
    or to two adjacent floats when tol is finer than their spacing.
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
        if mid == inside or mid == outside:  # adjacent floats: no narrower bracket
            break
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
    chain = range(params.p - 1)
    if mode == "decomposed":
        cm, cp = c.u - c.v, c.u + c.v

        def step(x):
            xm, xp_ = x
            t = xm
            for _ in chain:
                t = t * xm
            xm = t + cm
            t = xp_
            for _ in chain:
                t = t * xp_
            xp_ = t + cp
            return (xm, xp_), max(xm * xm, xp_ * xp_)

        return _escape_time(step, (0.0, 0.0), params)
    if mode == "direct":
        def step(z):
            zp = z
            for _ in chain:
                zp = hyp_diamond(zp, z)
            z = zp + c
            tm, tp = z.u - z.v, z.u + z.v
            return z, max(tm * tm, tp * tp)

        return _escape_time(step, Hyperbolic(0.0, 0.0), params)
    raise ValueError(f"unknown mode {mode!r}")


def member_hyperbric_analytic(a: float, b: float) -> bool:
    """Closed-form degree-3 hyperbolic membership: |a| + |b| <= 2/(3*sqrt(3))."""
    return abs(a) + abs(b) <= MANDELBRIC_REAL_BOUND


# --- tricomplex engine --------------------------------------------------------


def iterate_tricomplex(
    c: Tricomplex, params: IterationParams, mode: str = "direct"
) -> EscapeResult:
    chain = range(params.p - 1)
    if mode == "direct":
        # Plain 8-tuples with the tc_mul product and the Tricomplex add.
        c0, c1, c2, c3, c4, c5, c6, c7 = c.x

        def step(eta):
            ep = eta
            for _ in chain:
                ep = _mul_coeffs(ep, eta)
            e0, e1, e2, e3, e4, e5, e6, e7 = ep
            eta = e0, e1, e2, e3, e4, e5, e6, e7 = (
                e0 + c0, e1 + c1, e2 + c2, e3 + c3, e4 + c4, e5 + c5, e6 + c6, e7 + c7)
            # Left to right on every Python version (sum() compensates from 3.12).
            return eta, (e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3
                         + e4 * e4 + e5 * e5 + e6 * e6 + e7 * e7)

        return _escape_time(step, (0.0,) * 8, params)
    if mode == "idempotent":
        pair = to_idempotent(c)
        step1, step2 = (_bicomplex_step(u, params.p) for u in (pair.u1, pair.u2))

        def step(u):
            u1, n1 = step1(u[0])
            u2, n2 = step2(u[1])
            # Combined ring norm: ||eta||^2 = (||u1||^2 + ||u2||^2) / 2.
            return (u1, u2), (n1 + n2) / 2.0

        return _escape_time(step, ((0j, 0j), (0j, 0j)), params)
    raise ValueError(f"unknown mode {mode!r}")


def _bicomplex_step(c: Bicomplex, p: int):
    """The step z -> z^p + c of a bicomplex state held as its complex pair
    (z1, z2), with the Bicomplex product, add and norm_sq."""
    c1, c2 = c.complex_pair()
    chain = range(p - 1)

    def step(z):
        z1, z2 = t1, t2 = z
        for _ in chain:
            t1, t2 = t1 * z1 - t2 * z2, t1 * z2 + t2 * z1
        z1, z2 = t1 + c1, t2 + c2
        return (z1, z2), (z1.real * z1.real + z1.imag * z1.imag
                          + z2.real * z2.real + z2.imag * z2.imag)

    return step


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
    hypercomplex.complex4_rows builds the batch in this layout from the
    coefficient rows that are present.
    """
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] not in (2, 4):
        raise ValueError("expected a (4, n) or (2, n) component batch")
    dtype = np.complex128 if np.iscomplexobj(w) else np.float64
    return _run_blocks(np.ascontiguousarray(w, dtype=dtype), params, threads)
