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

The hyperbolic and tricomplex grid engines iterate each distinct component
value of a batch once and derive every point's count from those orbits.
This is exact, not an approximation: identical floats have identical
orbits, a hyperbolic point escapes with its first component, and a
tricomplex cell's rounded ring norm cannot pass the limit before one of its
rows does, and has once a row passes four times the limit.  The hyperbolic
engine gathers from the few runs of equal outcome over the sorted values and
iterates one block of a grid that mirrors.  The tricomplex one reads each
cell's two steps off tables per entry of its rows' pair terms, and the ring
norm between them off a table of the row values' squared norms, so beyond
its 4 B counts and 1 B member flags per cell it holds nothing that grows
with the cell count; a cell open past the table runs the joint kernel.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .hypercomplex import (
    COMPONENT_TERMS,
    Bicomplex,
    Hyperbolic,
    Tricomplex,
    _mul_coeffs,
    complex4_rows,
    component_layout,
    hyp_diamond,
    idempotent_rows,
    to_idempotent,
)
from .roots import MANDELBRIC_REAL_BOUND, escape_bound

# Orbit listings (orbit_complex, orbit_real) stop at the first value whose
# component magnitude is not below this, before float overflow.
OVERFLOW_NORM = 1e100
# The largest iteration budget: the most a uint32 count can hold.
MAX_ITER_LIMIT = 2 ** 32 - 1


@dataclass(frozen=True)
class IterationParams:
    """Exponent and iteration budget for one engine run; escape_radius is
    the sharp bound 2^(1/(p-1)), set from p."""

    p: int
    max_iter: int = 1000
    escape_radius: float = field(init=False)

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
        object.__setattr__(self, "escape_radius", escape_bound(self.p))


def _escape_limit(params: IterationParams) -> float:
    """The squared norm an orbit may reach without escaping: not n2 <= lim
    is n2 > r2 or n2 NaN in one comparison (a sum of squares is never -inf,
    and NaN fails every <=)."""
    return params.escape_radius * params.escape_radius


@dataclass(frozen=True)
class EscapeResult:
    """Escape flag and first escaping iteration (max_iter for a member)."""

    escaped: bool
    iterations: int


def _escape_time(step, z0, params: IterationParams) -> EscapeResult:
    """The escape-time loop of every scalar engine; step(z) returns the
    next state and its squared norm.

    A state equal to the snapshot of step s (Brent: snapshots at steps 1,
    2, 4, 8, ...) repeats with period m - s, so the orbit never escapes and
    the run ends as a member.  Equal states stay equal up to the sign of
    zeros, which no norm sees, and a live state is finite, so the result is
    that of running every step.
    """
    max_iter = params.max_iter
    lim = _escape_limit(params)
    z = z0
    snap, nxt = None, 1
    for m in range(1, max_iter + 1):
        z, n2 = step(z)
        if not n2 <= lim:
            return EscapeResult(True, m)
        if z == snap:
            break
        if m == nxt:
            snap, nxt = z, 2 * m
    return EscapeResult(False, max_iter)


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


def orbit_complex(c: complex, p: int, n: int) -> list[complex]:
    """First n orbit values of z -> z^p + c from 0, truncated at OVERFLOW_NORM."""
    out = []
    z = complex(0.0, 0.0)
    for _ in range(n):
        zp = z
        for _ in range(p - 1):
            zp = zp * z
        z = zp + c
        out.append(z)
        if not (abs(z.real) < OVERFLOW_NORM and abs(z.imag) < OVERFLOW_NORM):
            break
    return out


def member_multibrot(c: complex, params: IterationParams) -> bool:
    """True iff the orbit of 0 stays bounded through max_iter iterations."""
    return not iterate_complex(c, params).escaped


# --- real axis ----------------------------------------------------------------


def orbit_real(c: float, p: int, n: int) -> list[float]:
    out = []
    x = 0.0
    for _ in range(n):
        xp = x
        for _ in range(p - 1):
            xp = xp * x
        x = xp + c
        out.append(x)
        if not abs(x) < OVERFLOW_NORM:
            break
    return out


def real_axis_extent(params: IterationParams, tol: float) -> tuple[float, float]:
    """Bisect the real-line membership boundary on each side of 0.

    Returns (lo, hi) with each endpoint resolved to a bracket of width <= tol,
    or to two adjacent floats when tol is finer than their spacing.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")

    def member(c: float) -> bool:
        return member_multibrot(complex(c), params)

    outside = params.escape_radius + 0.5
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
# The kernel tests for cycles on every _CYCLE_TEST_EVERY-th step only: the
# compare costs about a fifth of a step, and a member retired a few steps
# later keeps its count and flag.  A trailing snapshot, re-taken every
# _TRAILING_EVERY steps that are not powers of two, catches an orbit that
# settles into a short cycle long before Brent's next power of two does.
_CYCLE_TEST_EVERY = 8
_TRAILING_EVERY = 64
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
    lim = _escape_limit(params)
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
    snap = trail = None
    # Done points waiting for the next compaction overflow freely.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, max_iter + 1):
            # The helpers hold their temporaries only while they run, so no
            # array of an earlier step outlives a compaction.
            z = _step(z, cc, p)
            esc = _norm2(z) <= lim
            np.greater(live, esc, out=esc)  # live and not inside
            done = esc
            cyc = None
            if snap is not None and m % _CYCLE_TEST_EVERY == 0:
                # A state equal to an earlier non-escaped one repeats forever,
                # so the point is a member (count max_iter) without running
                # out the budget.  The step is a fixed sequence of IEEE * and
                # +, so equal states stay equal up to the sign of zeros, which
                # no norm sees; NaN never compares equal.  A point live now
                # was live at both snapshots, so neither escaped.  A cycle
                # found on a later test step than the one it closed on gives
                # the same count and flag, so testing on every step is waste.
                cyc = _repeats(z, snap, trail)
                cyc &= live
                done = esc | cyc
            k = np.count_nonzero(done)
            if k:
                counts[idx[esc]] = m
                if cyc is not None:
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
                    snap, trail = (s if s is None else s.take(pos, axis=-1)
                                   for s in (snap, trail))
                    z = z.take(pos, axis=-1)
                    cc = cc.take(pos, axis=-1)
                    idx = idx[pos]
                    live = np.ones(pos.size, dtype=bool)
                    dead = 0
            # Brent's cycle finder: re-take the snapshot at each power of
            # two, and the trailing one every _TRAILING_EVERY other steps.
            # z is rebound, never written in place, so no copy is needed.
            if m >= _FIRST_SNAPSHOT and m & (m - 1) == 0:
                snap = z
            elif m >= _FIRST_SNAPSHOT and m % _TRAILING_EVERY == 0:
                trail = z
    member[idx[live]] = True
    return counts, member


def _repeats(z: np.ndarray, snap: np.ndarray, trail) -> np.ndarray:
    """Which points of a kernel state equal their Brent snapshot or their
    trailing snapshot (None before the first): all rows of a (4, n) or
    (2, n) state equal to the rows of one snapshot."""
    rep = np.zeros(z.shape[-1], dtype=bool)
    for s in (snap, trail):
        if s is not None:
            eq = z == s
            rep |= eq.all(axis=0) if z.ndim == 2 else eq
    return rep


def _step(z: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """z^p + c by the scalar engines' multiply chain, formed in place in a
    fresh array: z itself is never written, because a cycle snapshot may
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
    return sq if z.ndim == 1 else _ring_mean(sq)


def _ring_mean(sq: np.ndarray) -> np.ndarray:
    """The ring norm from the squared moduli of a (4, n) or (2, n) state's
    rows, in one fixed order: 0.25 * ((s0 + s1) + (s2 + s3)), or
    0.5 * (s0 + s1)."""
    n2 = sq[0] + sq[1]
    if len(sq) == 4:
        n2 += sq[2] + sq[3]
        n2 *= 0.25
    else:
        n2 *= 0.5
    return n2


def _check_threads(threads) -> int:
    """The worker count a grid engine was given, as an int >= 1."""
    if (isinstance(threads, bool) or not isinstance(threads, (int, np.integer))
            or threads < 1):
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    return int(threads)


def _ranges(n: int, threads: int, least: int = 1) -> list[tuple[int, int]]:
    """The nonempty (lo, hi) ranges that split range(n) between the workers:
    min(threads, os.cpu_count()) of them, fewer when n is smaller, and no
    more than leave each worker least points."""
    workers = min(threads, os.cpu_count() or 1, max(n // least, 1))
    bounds = [(k * n) // workers for k in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _each_range(fn, ranges: list[tuple[int, int]]) -> list:
    """fn(lo, hi) for each range, each on its own worker thread, or on this
    one for a single range.  A worker's exception is raised here once every
    worker has stopped."""
    if len(ranges) <= 1:
        return [fn(*r) for r in ranges]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


# The fewest points a worker of _run_blocks iterates.  Each worker runs the
# kernel's whole per-step loop for its block, and a small block's steps are
# mostly interpreter time, which threads cannot share.
_MIN_BLOCK = 1 << 17


def _run_blocks(c: np.ndarray, params: IterationParams, threads: int):
    """_counts_kernel over a batch split into one block per worker, with
    at least _MIN_BLOCK points each."""
    n = c.shape[-1]
    ranges = _ranges(n, threads, _MIN_BLOCK)
    if len(ranges) <= 1:
        return _counts_kernel(c, params)
    parts = _each_range(lambda lo, hi: _counts_kernel(c[..., lo:hi], params), ranges)
    counts = np.concatenate([p_[0] for p_ in parts])
    member = np.concatenate([p_[1] for p_ in parts])
    return counts, member


def grid_counts_complex(c: np.ndarray, params: IterationParams, threads: int = 1):
    """Escape counts and member mask for a flat complex parameter batch."""
    threads = _check_threads(threads)
    c = np.ascontiguousarray(c, dtype=np.complex128).ravel()
    return _run_blocks(c, params, threads)


def grid_counts_real(c: np.ndarray, params: IterationParams, threads: int = 1):
    threads = _check_threads(threads)
    c = np.ascontiguousarray(c, dtype=np.float64).ravel()
    return _run_blocks(c, params, threads)


# Cells read at a time by the distinct-value paths of grid_counts_hyperbolic
# and grid_counts_tricomplex, shared between their workers: each worker walks
# its rows in blocks of at most _CHUNK // workers cells (_blocks), so beyond
# their flat outputs the paths hold a few arrays of this total length,
# whatever the grid size and the worker count.  Each pass over a block makes
# a few arrays of its size, which small blocks take from the memory the last
# block freed; fresh pages for each cost more than the arithmetic on them.
_CHUNK = 1 << 16


def _blocks(shape: tuple[int, ...], lo: int, hi: int, most: int):
    """The cells of the rows lo:hi along the first axis of a C-order grid
    of this shape, in C order, as (index, a, b) per block: index slices the
    leading axes to the block, and a:b is its flat range.  A block holds
    whole rows while a row fits in most cells; a larger row is split by
    recursing into it."""
    inner = math.prod(shape[1:])
    if not inner:
        return
    if inner <= most or len(shape) == 1:
        rows = max(most // inner, 1)
        for r in range(lo, hi, rows):
            s = min(r + rows, hi)
            yield (slice(r, s),), r * inner, s * inner
        return
    for r in range(lo, hi):
        for index, a, b in _blocks(shape[1:], 0, shape[1], most):
            yield (slice(r, r + 1),) + index, r * inner + a, r * inner + b


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
    inputs are read twice: once to collect the distinct components, once to
    gather their results.  Each pass splits the rows along the first axis
    into one range per worker (min(threads, os.cpu_count()) of them, as in
    _ranges), so an input with a single such row runs on one worker, and
    each worker walks its rows in C-order blocks of at most _CHUNK //
    workers cells (_blocks), so together they hold one _CHUNK.  Beyond the
    5 B/cell outputs, only the distinct components grow with the grid, and
    a lattice window has few of them.

    The gather looks results up in runs of equal (count, member) over the
    sorted distinct values, one entry per run.  The runs are few: real-axis
    membership is one interval ([-2/(3*sqrt(3)), 2/(3*sqrt(3))] for p = 3),
    and the escape counts outside it change in few steps.  Over the whole
    window, the default 2000^2 hyperbric-area one (1.1 times that bound on
    each side, max_iter 2000) has 13,903 distinct values in 85 runs, and
    hyperbrot at 1000^2 on [-0.4, 0.4]^2 (max_iter 1000) 7,359 in 65.

    A 2-D input that mirrors is computed on one representative block and
    the rest of the outputs is filled by flipping it.  Rows mirror, at any
    p, when a[::-1] == a and b[::-1] == -b: the two components swap, and a
    cell's outcome is symmetric in them.  Columns mirror, at odd p, when
    a[:, ::-1] == -a and b[:, ::-1] == b: the components negate, and at
    odd p the orbit of -c is the negated orbit of c.  Both are exact, as
    rounding commutes with negation; NaN fails the tests.  They compare
    the values the inputs' zero strides do not repeat, a meshgrid view's
    axes, so a window that does not mirror costs O(H + W) to test.
    """
    threads = _check_threads(threads)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"a and b must have equal shapes, got {a.shape} and {b.shape}")
    a, b = np.atleast_1d(a, b)
    # Allocated first, so a grid too large for memory fails at once.
    counts = np.empty(a.size, dtype=np.uint32)
    member = np.empty(a.size, dtype=bool)
    if a.ndim != 2:
        _hyperbolic_counts(a, b, params, threads, counts, member)
        return counts, member
    (H, W), (h, w) = a.shape, a.shape
    if _mirrors(a, 0, 1.0) and _mirrors(b, 0, -1.0):
        h = (H + 1) // 2
    if params.p % 2 and _mirrors(a, 1, -1.0) and _mirrors(b, 1, 1.0):
        w = (W + 1) // 2
    _hyperbolic_counts(a[:h, :w], b[:h, :w], params, threads, counts, member)
    for out in (counts, member):
        full = out.reshape(H, W)
        if w < W:
            # Each block row moves to its own row, the last first, so no
            # row is overwritten before it has moved; a few rows at a time
            # keep numpy's copies of overlapping rows to one chunk.
            step = max(_CHUNK // W, 1)
            for hi in range(h, 0, -step):
                lo = max(hi - step, 0)
                full[lo:hi, :w] = out[lo * w:hi * w].reshape(hi - lo, w)
                full[lo:hi, w:] = full[lo:hi, :W - w][:, ::-1]
        full[h:] = full[:H - h][::-1]
    return counts, member


def _mirrors(x: np.ndarray, axis: int, sign: float) -> bool:
    """Whether x read backwards along axis equals sign * x.  Each axis with
    a zero stride is cut to one entry first, since it only repeats them;
    the rest is compared in blocks, stopping at the first that differs."""
    x = x[tuple(slice(None) if s else slice(0, 1) for s in x.strides)]
    back = np.flip(x, axis)
    return all(np.array_equal(back[index], sign * x[index])
               for index, _, _ in _blocks(x.shape, 0, x.shape[0], _CHUNK))


def _hyperbolic_counts(a, b, params: IterationParams, threads: int, counts, member):
    """grid_counts_hyperbolic's two passes over a and b, writing the results
    to the first a.size entries of counts and member."""
    ranges = _ranges(a.shape[0], threads)
    chunk = _CHUNK // max(len(ranges), 1)

    def components(lo, hi):
        for index, start, _ in _blocks(a.shape, lo, hi, chunk):
            ca, cb = a[index], b[index]
            # On a worker thread the caller's np.errstate does not apply;
            # an infinite or NaN component escapes at step 1.
            with np.errstate(over="ignore", invalid="ignore"):
                cm, cp = (ca - cb).ravel(), (ca + cb).ravel()
            yield start, cm, cp

    # Sorting the values and searching them is much faster than the argsort
    # behind return_inverse.  np.unique keeps one of 0.0 and -0.0; both find
    # it, and their orbits are the same.  Each block's distinct values wait
    # until they outnumber the range's merged set, so the merges sort each
    # value O(log n) times even when few values repeat, and the waiting
    # values never outgrow the distinct set.
    def distinct(lo, hi):
        uniq, pieces, held = np.empty(0), [], 0
        for _, cm, cp in components(lo, hi):
            pieces.append(np.unique(np.concatenate([cm, cp])))
            held += pieces[-1].size
            if held >= uniq.size:
                uniq = np.unique(np.concatenate([uniq] + pieces))
                pieces, held = [], 0
        return np.unique(np.concatenate([uniq] + pieces))

    uniq = np.unique(np.concatenate([np.empty(0)] + _each_range(distinct, ranges)))
    counts_u, member_u = _run_blocks(uniq, params, threads)
    # Each run of equal outcomes over the sorted values is looked up by its
    # largest value: a component is one of uniq, so the first run end not
    # below it ends its run (a NaN, sorted last, finds the last run).
    last = np.ones(uniq.size, dtype=bool)
    np.not_equal(counts_u[1:], counts_u[:-1], out=last[:-1])
    last[:-1] |= member_u[1:] != member_u[:-1]
    ends, counts_r, member_r = uniq[last], counts_u[last], member_u[last]

    def gather(lo, hi):
        for start, cm, cp in components(lo, hi):
            im, ip = np.searchsorted(ends, cm), np.searchsorted(ends, cp)
            stop = start + cm.size
            np.minimum(counts_r[im], counts_r[ip], out=counts[start:stop])
            np.logical_and(member_r[im], member_r[ip], out=member[start:stop])

    _each_range(gather, ranges)


# Steps of the distinct values' squared norms that grid_counts_tricomplex
# tabulates.  A cell whose escape step is still open past them (a few
# boundary cells) goes through the joint kernel.
_TABLE_STEPS = 64
# grid_counts_tricomplex iterates the distinct row values of a batch only
# when it holds at least this many row entries per distinct value; lattice
# windows of 64^3 cells hold 25 to 1,200, more at larger dims.  With fewer
# repeats the lookups cost more than they save, and the step table would
# approach the joint kernel's state: it holds each value at the steps before
# its E_v, at most _TABLE_STEPS, so up to _TABLE_STEPS / _MIN_SHARING floats
# per row entry, though on lattice windows most values leave it within a few
# steps.
_MIN_SHARING = 16
# Cells the joint kernel of grid_counts_tricomplex takes at a time, formed
# from the coefficient rows at those cells: its state, about 300 B per cell
# of four complex rows, stays bounded whatever the grid size.
_JOINT_CELLS = 1 << 18


class _Unshared(Exception):
    """The rows of a batch take too many distinct values to share them, or
    would share them only through a table expanded per cell."""


@dataclass(eq=False)
class _Distinct:
    """The distinct values u of a term over a broadcast grid, and where each
    cell's value sits in them: ids[k] for the cell at C-order position k of
    the term's own shape (1 on the axes it does not span), or, with parts
    (a, b), ids[i * b.u.size + j] for the cell whose value of a sits at i
    and of b at j."""

    u: np.ndarray | None
    ids: np.ndarray
    shape: tuple[int, ...]
    parts: tuple = ()


def _entries(t: _Distinct, index: tuple) -> np.ndarray:
    """The entries of t at the cells of the block that index slices from the
    grid (_blocks), shaped to broadcast to it: i * b.u.size + j where parts
    (a, b) take their values i and j, else t.ids there."""
    if t.parts:
        a, b = (p.ids[_entries(p, index)] if p.parts else _entries(p, index)
                for p in t.parts)
        return a * t.parts[1].u.size + b
    return t.ids.reshape(t.shape)[tuple(s if n > 1 else slice(None)
                                        for s, n in zip(index, t.shape))]


def _complex(re, im):
    """re + im*i formed without arithmetic, so no inf turns into NaN."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), np.complex128)
    out.real, out.imag = re, im
    return out


def _distinct(t, memo: dict) -> _Distinct:
    """t as a _Distinct: an array's values deduplicated over its own shape,
    once per array."""
    if isinstance(t, _Distinct):
        return t
    if id(t) not in memo:
        u, ids = np.unique(t.ravel(), return_inverse=True)
        memo[id(t)] = t, _Distinct(u, ids, t.shape)  # t stays alive, and so its id
    return memo[id(t)][1]


def _row_terms(x: list, size: int, entries: int):
    """The distinct values of each component row of the coefficient rows x,
    which broadcast to size cells, in the layout of component_layout.

    A row is formed from x as complex4_rows forms it, term by term.  Two
    arrays that share an axis, or span fewer than all cells together, are
    combined elementwise over their broadcast shape.  Two terms that span
    disjoint axes and all cells together are combined through a table of
    their distinct values, one entry per pair, so no per-cell array is
    formed.  Raises _Unshared rather than build a table with more entries
    than entries / _MIN_SHARING, or combine a table with a term sharing
    one of its axes.
    """
    memo: dict = {}

    def combine(op, a, b):
        if a is None or b is None:
            # A zero term: x + 0 and x - 0 are x, 0 - x is -x, and a zero
            # real or imaginary part is filled in.
            if a is b:
                return None
            if op is _complex:
                f = (lambda v: _complex(v, 0.0)) if b is None else (lambda v: _complex(0.0, v))
            elif a is None and op is np.subtract:
                f = np.negative
            else:
                return b if a is None else a
            t = a if b is None else b
            return _Distinct(f(t.u), t.ids, t.shape, t.parts) if isinstance(t, _Distinct) else f(t)
        shape = np.broadcast_shapes(a.shape, b.shape)
        if (math.prod(shape) < size
                or any(i > 1 and j > 1 for i, j in zip(a.shape, b.shape))):
            if isinstance(a, _Distinct) or isinstance(b, _Distinct):
                raise _Unshared  # a table would have to be expanded per cell
            return op(a, b)
        a, b = _distinct(a, memo), _distinct(b, memo)
        if a.u.size * b.u.size * _MIN_SHARING > entries:
            raise _Unshared
        u, ids = np.unique(op(a.u[:, None], b.u[None, :]).ravel(), return_inverse=True)
        return _Distinct(u, ids, shape, (a, b))

    rows, real = component_layout(x)
    u = idempotent_rows(x, combine)
    terms = []
    for row in rows:
        v = u[row // 2]
        (re_op, a, b), (im_op, c, d) = COMPONENT_TERMS[row % 2]
        t = combine(re_op, v[a], v[b])
        if not real:
            t = combine(_complex, t, combine(im_op, v[c], v[d]))
        terms.append(_distinct(t, memo))
    return terms


def _check_rows(x):
    """The coefficient rows x as float64 arrays of one dimension count, None
    where absent, with their broadcast shape, at least one axis."""
    shape_of = x.shape if isinstance(x, np.ndarray) else f"{len(x)} rows"
    if len(x) != 8:
        raise ValueError(f"expected eight coefficient rows, got {shape_of}")
    rows = [None if r is None else np.asarray(r, dtype=np.float64) for r in x]
    shapes = [r.shape for r in rows if r is not None]
    if not shapes:
        raise ValueError("all eight coefficient rows are None: no shape to sample")
    try:
        shape = np.broadcast_shapes(*shapes) or (1,)  # a 0-d grid is one cell
    except ValueError:
        raise ValueError("coefficient rows do not broadcast together: shapes "
                         + ", ".join(map(str, shapes))) from None
    # A broadcast row repeats its values along zero strides; one copy of
    # them is the row.
    for k, r in enumerate(rows):
        if r is not None:
            r = r.reshape((1,) * (len(shape) - r.ndim) + r.shape)
            r = r[tuple(slice(0, 1) if st == 0 else slice(None) for st in r.strides)]
            rows[k] = np.ascontiguousarray(r)
    return rows, shape


def grid_counts_tricomplex(x, params: IterationParams, threads: int = 1):
    """Counts/member for the tricomplex parameters of 8 coefficient rows.

    x holds the eight coefficient rows, arrays that broadcast together,
    with None for a zero row.  Counts and member are flat in C order over
    the broadcast shape, so flat 1-D rows give the counts of just the
    cells they list.  Each cell iterates its to_complex4 components, the
    rows of hypercomplex.complex4_rows: two when the rows present lie in a
    bicomplex subalgebra, all four otherwise, real when no i-unit row is
    present.  Multiplication is componentwise there, and the escape test
    uses the combined ring norm, the direct engine's criterion.

    Each row of a cell iterates on its own, and on lattice windows the rows
    take few distinct values, so each distinct value v is iterated once.
    With lim = _escape_limit(params), let e_v be the first step at which
    its squared norm s_v is not <= lim, E_v the first tabulated step at
    which it is not <= 4 lim (past the budget if none), and e, E the least
    of them over a cell's rows.  Both are read off a table of s_v at steps
    1 to min(_TABLE_STEPS, max_iter), made in one pass over the values that
    drops each at its E_v; the kernel runs only on the values still <= lim
    through it, as one 1-D batch, for their e_v.  Then:

    - before e the cell cannot escape: every s <= lim, so the rounded sum
      (s0 + s1) + (s2 + s3) is at most 4 lim (rounding is monotone, and
      2 lim, 4 lim are exact), and scaling it by 0.25 is exact;
    - at E it has escaped: a rounded sum of nonnegative terms is at least
      each term, here one above 4 lim, or it is NaN;
    - so a cell with no e within max_iter is a member, and one with e == E
      escapes at e;
    - any other cell's ring norm is summed from the tabulated s values of
      its rows at the steps from e on (_ring_mean, the kernel's sum
      order), until it escapes or reaches E; a cell whose e lies past the
      table, or still open past it, runs the joint kernel.

    The counts and member mask are bit for bit those of the joint kernel
    (_counts_kernel on all of a cell's complex4_rows together).  A value
    formed from a representative of 0.0 and -0.0 differs from the cell's
    own only in the sign of a zero, which no step or norm sees.

    The distinct values come from per-axis tables, not from the cells.  A
    row is a sum of pair terms such as x0 + x7 and x5 - x6, each spanning
    the axes of its two coefficient rows; a slice window's rows each span
    one axis.  Each pair term is deduplicated over its own axes, and two
    terms spanning disjoint axes combine through a table of their distinct
    values (_row_terms).  Flat rows span one axis together, and their
    distinct values are those of their entries.  A batch with fewer than
    _MIN_SHARING row entries per distinct value runs the joint kernel
    instead, as does one whose table would meet another term on a shared
    axis, and as do cells open past the step table, on components formed
    from the rows at those cells only, at most _JOINT_CELLS at a time.

    The cells are settled in C-order blocks of at most _CHUNK // workers
    cells (_blocks), the workers splitting the rows along the first axis
    (as in _ranges, each taking a chunk of cells at least), so a grid of a
    single such row settles on one worker.  Rows whose pair tables have the
    same two parts share one space of entries, as rows (0, 1) and (2, 3) of
    an all-j slice do, and a plain term's entries are its value ids.  Per
    entry, a space holds the least e_v and E_v over its rows, and each row
    its table start.  A block finds its cells' entries from the parts' ids
    on the axes they span (_entries), reads e and E with one gather per
    space, and sums an open cell's ring norm from table[start_r[entry] + m]
    in _ring_mean's order.  Per cell, the path holds the 4 B counts and 1 B
    member flags it returns.  Beyond them it holds the distinct values with
    their e_v, E_v and their s_v at steps 1 to min(E_v - 1, _TABLE_STEPS)
    only, the entry tables, and per worker a block's entries and lookups.
    No cell reads a row at or past its E_v: a cell reads step m only while
    m < E, and E is at most each of its rows' E_v.  On lattice windows most
    values pass 4 lim within a few steps, so the table holds a small share
    of _TABLE_STEPS values each (12.6% on the Tetrabric 96^3 window shifted
    by a fraction of a cell, 29.5% on the Perplexbric 128^3 one).
    """
    threads = _check_threads(threads)
    x, shape = _check_rows(x)
    n = math.prod(shape)
    counts = np.empty(n, dtype=np.uint32)
    member = np.empty(n, dtype=bool)
    if not n:
        return counts, member
    rows = len(component_layout(x)[0])

    def joint(pos):
        # The joint kernel on the cells at output positions pos, whose
        # components are formed from the coefficient rows at those cells,
        # each row indexed on the axes it spans.
        for k in range(0, pos.size, _JOINT_CELLS):
            part = pos[k:k + _JOINT_CELLS]
            at = np.unravel_index(part, shape)
            with np.errstate(over="ignore", invalid="ignore"):  # inf rows escape at once
                w = complex4_rows([
                    None if r is None else
                    r[tuple(i if d > 1 else slice(None) for i, d in zip(at, r.shape))].ravel()
                    for r in x])
            counts[part], member[part] = _run_blocks(w, params, threads)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _row_terms(x, n, rows * n)
        uniq, where = np.unique(np.concatenate([t.u for t in terms]), return_inverse=True)
        if uniq.size * _MIN_SHARING > rows * n:
            raise _Unshared
    except _Unshared:
        joint(np.arange(n))
        return counts, member
    # Each row's ids, and so each cell's, index uniq from here on.
    bounds = np.cumsum([0] + [t.u.size for t in terms])
    terms = [_Distinct(None, where[lo:hi].take(t.ids), t.shape, t.parts)
             for t, lo, hi in zip(terms, bounds, bounds[1:])]

    max_iter, lim = params.max_iter, _escape_limit(params)
    never = max_iter + 1  # no such step within the budget, or in the table
    steps = min(_TABLE_STEPS, max_iter)
    # One pass records e_v and E_v, the first steps outside lim and 4 lim,
    # and s_v at steps 1..min(E_v - 1, steps), the only ones a cell reads:
    # a cell reads step m only while m < E <= E_v.  A value leaves the pass
    # at its E_v.  Steps are held in the narrowest signed type that holds never.
    first, last = np.full((2, uniq.size), never, np.min_scalar_type(-2 * never))
    live, z, c, kept = np.arange(uniq.size), np.zeros_like(uniq), uniq, []
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, steps + 1):
            z = _step(z, c, params.p)
            s = _norm2(z)
            out = live[~(s <= lim)]
            first[out] = np.minimum(first[out], m)
            ok = s <= 4.0 * lim
            if not ok.all():
                last[live[~ok]] = m
                live, z, c, s = live[ok], z[ok], c[ok], s[ok]
            kept.append(s)
    inside = np.flatnonzero(first == never)
    counts_i, member_i = _run_blocks(uniq[inside], params, threads)
    first[inside[~member_i]] = counts_i[~member_i]
    # The table holds each value's entries together: s_v at step m is at
    # start[v] + m.
    held = np.minimum(last - 1, steps, dtype=np.intp)
    start = np.cumsum(held) - held - 1
    table = np.empty(int(held.sum()))
    while kept:
        m = len(kept)
        table[start[held >= m] + m] = kept.pop()

    # The entry spaces, with each space's e and E tables and each row's
    # starts, in row order.
    keys = [tuple(map(id, t.parts)) or r for r, t in enumerate(terms)]
    spaces = list(dict.fromkeys(keys))
    ids = [t.ids if t.parts else np.arange(uniq.size) for t in terms]
    heads = [terms[keys.index(w)] for w in spaces]
    firsts, lasts = ([reduce(np.minimum, [v.take(i) for i, k in zip(ids, keys) if k == w])
                      for w in spaces] for v in (first, last))
    reads = [(start.take(i), spaces.index(k)) for i, k in zip(ids, keys)]

    # The workers split the rows along the first axis, each taking a chunk
    # of cells at least.
    least = -(-(_CHUNK // min(threads, os.cpu_count() or 1)) // (n // shape[0]))
    ranges = _ranges(shape[0], threads, least)
    chunk = _CHUNK // len(ranges)

    def settle(lo, hi):
        late = []
        for index, a, b in _blocks(shape, lo, hi, chunk):
            block = tuple(k.stop - k.start for k in index) + shape[len(index):]
            ks = [np.broadcast_to(_entries(t, index), block).ravel() for t in heads]
            # A cell escapes at a step from e to end, a member if end is
            # past max_iter; e == end settles it.  The cells still open go
            # on a step at a time from e, summing their rows' s in the
            # kernel's order, the few past the table to the joint kernel.
            e, end = (reduce(np.minimum, [v.take(k) for v, k in zip(vs, ks)])
                      for vs in (firsts, lasts))
            cur = np.flatnonzero(e < end)
            m = e[cur]
            while cur.size:
                past = m > steps
                if past.any():
                    late.append(a + cur[past])
                    cur, m = cur[~past], m[~past]
                at = [k.take(cur) for k in ks]
                esc = ~(_ring_mean([table.take(v.take(at[w]) + m) for v, w in reads]) <= lim)
                end[cur[esc]] = m[esc]
                m += 1
                go = ~esc & (m < end[cur])
                cur, m = cur[go], m[go]
            np.minimum(end, max_iter, out=e)
            counts[a:b] = e
            np.greater(end, max_iter, out=member[a:b])
        return late

    late = [k for part in _each_range(settle, ranges) for k in part]
    joint(np.concatenate([np.empty(0, dtype=np.intp)] + late))
    return counts, member

