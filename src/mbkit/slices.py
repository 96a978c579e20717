"""Principal 3D slices of the tricomplex degree-p multibrot set.

A slice confines the parameter c to the span of three distinct basis units.
There are 56 such spans.  Slices whose dynamics are conjugate under a signed
coefficient permutation render identically; for p = 3 the conjugacy catalog
connects all 56 into exactly four classes (Tetrabric, Perplexbric,
Hourglassbric, Metabric).

Four catalog maps are fixed explicit permutations bridging the slice
families; the rest map each family's first slice to each other member and
are found by a bounded deterministic search over signed unit permutations.
The classes are the slices closed over the catalog's maps.  Every catalog
map is proved a conjugacy once, exactly, by _is_conjugacy; verify_conjugacy
stays as the independent numeric check on random (eta, c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from .dynamics import IterationParams, grid_counts_tricomplex
from .hypercomplex import (
    Tricomplex,
    UnitIndex,
    iteration_span_units,
    parse_unit,
    pow_batch,
    unit_product,
)

U = UnitIndex


@dataclass(frozen=True)
class SliceSpec:
    """Ordered triple of distinct basis units defining a 3D parameter span."""

    units: tuple[UnitIndex, UnitIndex, UnitIndex]

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(UnitIndex(u) for u in self.units))
        if len(set(self.units)) != 3:
            raise ValueError(f"slice units must be distinct, got {self.label()}")

    @staticmethod
    def of(*units: UnitIndex) -> "SliceSpec":
        return SliceSpec(tuple(units))

    @staticmethod
    def parse(text: str) -> "SliceSpec":
        parts = [parse_unit(tok) for tok in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated units, got {text!r}")
        return SliceSpec(tuple(parts))

    @property
    def canonical_key(self) -> tuple[int, int, int]:
        return tuple(sorted(int(u) for u in self.units))

    @property
    def span4(self) -> tuple[UnitIndex, ...]:
        """The 4 units spanning the iteration space of this slice."""
        return iteration_span_units(self.units)

    def label(self) -> str:
        return ",".join(u.label for u in self.units)

    def __str__(self) -> str:
        return f"T({self.label()})"


def enumerate_slices() -> list[SliceSpec]:
    """All 56 three-unit spans in ascending canonical order."""
    return [SliceSpec(tuple(c)) for c in combinations(UnitIndex, 3)]


def embed_slice_point(spec: SliceSpec, coords) -> Tricomplex:
    """Tricomplex number with exactly the slice's three coefficients set."""
    c = [0.0] * 8
    vals = tuple(coords)
    if len(vals) != 3:
        raise ValueError("need exactly three coordinates")
    for u, v in zip(spec.units, vals):
        c[u] = float(v)
    return Tricomplex(tuple(c))


# The four principal degree-3 slices and their conventional names.
PRINCIPAL_SLICES: dict[str, SliceSpec] = {
    "Tetrabric": SliceSpec.of(U.ONE, U.I1, U.I2),
    "Perplexbric": SliceSpec.of(U.ONE, U.J1, U.J2),
    "Hourglassbric": SliceSpec.of(U.ONE, U.I1, U.J1),
    "Metabric": SliceSpec.of(U.I1, U.I2, U.I3),
}


@dataclass(frozen=True)
class ConjugacyMap:
    """Signed coefficient permutation conjugating one slice's map into another's.

    phi maps each source iteration-span unit u to (sign, target unit); the
    parameter map is its restriction to the slice units.  Validity means
    phi(Q_{p,c}(phi^{-1}(eta))) = Q_{p,phi(c)}(eta) on the whole target span.
    """

    source: SliceSpec
    target: SliceSpec
    phi: tuple[tuple[UnitIndex, int, UnitIndex], ...]

    def __post_init__(self):
        src_units = set(self.source.span4)
        tgt_units = set(self.target.span4)
        dom = [e[0] for e in self.phi]
        img = [e[2] for e in self.phi]
        if set(dom) != src_units or len(dom) != 4:
            raise ValueError("phi domain must be the source iteration span")
        if set(img) != tgt_units or len(set(img)) != 4:
            raise ValueError("phi image must be the target iteration span")
        if any(s not in (-1, 1) for _, s, _ in self.phi):
            raise ValueError("phi signs must be +-1")
        moved = {u: v for u, _, v in self.phi}
        if {moved[u] for u in self.source.units} != set(self.target.units):
            raise ValueError("phi must map slice units onto slice units")
        object.__setattr__(self, "phi", tuple(sorted(self.phi)))

    def inverse(self) -> "ConjugacyMap":
        inv = tuple((v, s, u) for u, s, v in self.phi)
        return ConjugacyMap(self.target, self.source, inv)

    def apply_batch(self, x8: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x8)
        for u, s, v in self.phi:
            out[v] = s * x8[u]
        return out


@dataclass(frozen=True)
class ConjugacyReport:
    """Residual summary of a numeric conjugacy check."""

    max_residual: float
    passed: bool
    witness: tuple[Tricomplex, Tricomplex, float] | None = None


def verify_conjugacy(
    m: ConjugacyMap,
    p: int,
    n_samples: int = 10_000,
    tol: float = 1e-9,
    seed: int = 0,
) -> ConjugacyReport:
    """Check the conjugacy identity on random (eta, c) pairs in [-2, 2] coords.

    Residual is the ring norm of phi(Q_{p,c}(phi^-1(eta))) - Q_{p,phi(c)}(eta);
    on failure the worst offending pair is reported as a witness.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples < 1: need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    eta = np.zeros((8, n_samples))
    for u in m.target.span4:
        eta[u] = rng.uniform(-2.0, 2.0, n_samples)
    c = np.zeros((8, n_samples))
    for u in m.source.units:
        c[u] = rng.uniform(-2.0, 2.0, n_samples)
    res = _conjugacy_residuals(m, p, eta, c)
    k = int(np.argmax(res))
    max_res = float(res[k])
    passed = max_res <= tol
    witness = None
    if not passed:
        witness = (
            Tricomplex(tuple(eta[:, k])),
            Tricomplex(tuple(c[:, k])),
            max_res,
        )
    return ConjugacyReport(max_res, passed, witness)


def _conjugacy_residuals(m: ConjugacyMap, p: int, eta: np.ndarray, c: np.ndarray):
    pre = m.inverse().apply_batch(eta)
    lhs = m.apply_batch(pow_batch(pre, p) + c)
    rhs = pow_batch(eta, p) + m.apply_batch(c)
    diff = lhs - rhs
    return np.sqrt(np.einsum("ij,ij->j", diff, diff))


def _is_conjugacy(m: ConjugacyMap, p: int) -> bool:
    """Exact proof that m conjugates eta**p + c, with no sampling and no tolerance.

    phi is linear, so c cancels and the identity is
    phi(phi^-1(eta)**p) = eta**p.  It is checked at the (p+1)**4 points
    whose coordinates on the target's four span units lie in 0..p, with
    c = 0, and m is accepted only when every residual is exactly 0.0:
    - Each coefficient of the difference is a polynomial of degree <= p in
      each span coordinate, so vanishing on that grid makes it zero
      everywhere (the grid lemma of Alon's Combinatorial Nullstellensatz).
    - On these small integers every float product and sum is exact: at
      p = 3 no coefficient exceeds 1,728.
    - Odd powers of a span stay inside it (algebra.span_power_closure), so
      apply_batch drops no term of phi^-1(eta)**p.
    """
    eta = np.zeros((8, (p + 1) ** 4))
    eta[list(m.target.span4)] = np.indices((p + 1,) * 4).reshape(4, -1)
    return not _conjugacy_residuals(m, p, eta, np.zeros_like(eta)).any()


def _fixed_bridge_maps() -> list[ConjugacyMap]:
    # Explicit conjugacies linking the slice families; plain-coefficient form.
    return [
        # T(1,i1,i2) ~ T(i1,i2,j1): swap the 1 and j1 coefficients.
        ConjugacyMap(
            SliceSpec.of(U.ONE, U.I1, U.I2),
            SliceSpec.of(U.I1, U.I2, U.J1),
            ((U.ONE, 1, U.J1), (U.I1, 1, U.I1), (U.I2, 1, U.I2), (U.J1, 1, U.ONE)),
        ),
        # T(1,i1,i2) ~ T(i1,i2,j2): 1 -> j2, j1 -> -j3.
        ConjugacyMap(
            SliceSpec.of(U.ONE, U.I1, U.I2),
            SliceSpec.of(U.I1, U.I2, U.J2),
            ((U.ONE, 1, U.J2), (U.I1, 1, U.I1), (U.I2, 1, U.I2), (U.J1, -1, U.J3)),
        ),
        # T(1,i1,j1) ~ T(i1,j1,j2): 1 -> j2, i2 -> i4.
        ConjugacyMap(
            SliceSpec.of(U.ONE, U.I1, U.J1),
            SliceSpec.of(U.I1, U.J1, U.J2),
            ((U.ONE, 1, U.J2), (U.I1, 1, U.I1), (U.I2, 1, U.I4), (U.J1, 1, U.J1)),
        ),
        # T(1,j1,j2) ~ T(j1,j2,j3): cyclic shift 1 -> j1 -> j2 -> j3 -> 1.
        ConjugacyMap(
            SliceSpec.of(U.ONE, U.J1, U.J2),
            SliceSpec.of(U.J1, U.J2, U.J3),
            ((U.ONE, 1, U.J1), (U.J1, 1, U.J2), (U.J2, 1, U.J3), (U.J3, 1, U.ONE)),
        ),
    ]


_I_UNITS = (U.I1, U.I2, U.I3, U.I4)
_J_UNITS = (U.J1, U.J2, U.J3)


def _slice_families() -> list[list[SliceSpec]]:
    """Slice families whose members share dynamics, each to be connected."""
    fams: list[list[SliceSpec]] = []
    # 1 with two i-units.
    fams.append([SliceSpec.of(U.ONE, a, b) for a, b in combinations(_I_UNITS, 2)])
    # 1 with two j-units.
    fams.append([SliceSpec.of(U.ONE, a, b) for a, b in combinations(_J_UNITS, 2)])
    # Two i-units with their product unit.
    fams.append(
        [SliceSpec.of(a, b, unit_product(a, b)[1]) for a, b in combinations(_I_UNITS, 2)]
    )
    # 1, one i-unit, one j-unit.
    fams.append([SliceSpec.of(U.ONE, a, b) for a in _I_UNITS for b in _J_UNITS])
    # Three i-units.
    fams.append([SliceSpec(tuple(c)) for c in combinations(_I_UNITS, 3)])
    # Two i-units with a j-unit that is not their product.
    mixed = []
    for a, b in combinations(_I_UNITS, 2):
        prod = unit_product(a, b)[1]
        for j in _J_UNITS:
            if j != prod:
                mixed.append(SliceSpec.of(a, b, j))
    fams.append(mixed)
    # One i-unit with two j-units.
    fams.append(
        [SliceSpec.of(a, b, c) for a in _I_UNITS for b, c in combinations(_J_UNITS, 2)]
    )
    # T(j1,j2,j3) stands alone and is reached through a bridge map.
    return fams


def _search_phi(source: SliceSpec, target: SliceSpec, p: int) -> ConjugacyMap | None:
    """Deterministic bounded search for a signed-permutation conjugacy.

    Candidates map slice units onto slice units (so parameters stay valid)
    and the fourth span unit onto the fourth.  The first candidate that
    _is_conjugacy proves exact is returned.
    """
    src4 = [u for u in source.span4 if u not in source.units][0]
    tgt4 = [u for u in target.span4 if u not in target.units][0]
    for perm in permutations(target.units):
        for signs in product((1, -1), repeat=4):
            pairs = [
                (source.units[k], signs[k], perm[k]) for k in range(3)
            ] + [(src4, signs[3], tgt4)]
            cand = ConjugacyMap(source, target, tuple(pairs))
            if _is_conjugacy(cand, p):
                return cand
    return None


@lru_cache(maxsize=None)
def conjugacy_catalog(p: int = 3) -> tuple[ConjugacyMap, ...]:
    """Conjugacy maps sufficient to connect the 56 slices into their classes.

    Holds the four fixed bridge maps, then one searched map from each
    family's first slice to each other member, every one proved exact by
    _is_conjugacy.  A bridge map that fails the proof, or a family member
    that no signed-permutation map reaches, is an error: the stated
    symmetry does not hold.
    """
    if p != 3:
        raise ValueError("the conjugacy catalog is established for p = 3 only")
    maps = list(_fixed_bridge_maps())
    for m in maps:
        if not _is_conjugacy(m, p):
            raise RuntimeError(f"bridge map {m.source} -> {m.target} is not a conjugacy")
    for first, *rest in _slice_families():
        for member in rest:
            found = _search_phi(first, member, p)
            if found is None:
                raise RuntimeError(f"no conjugacy found from {first} to {member}")
            maps.append(found)
    return tuple(maps)


@dataclass(frozen=True)
class SliceClassification:
    """Partition of the 56 slices into dynamics classes with named reps."""

    classes: tuple[tuple[SliceSpec, ...], ...]
    representatives: dict[str, SliceSpec]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of(self, spec: SliceSpec) -> tuple[SliceSpec, ...]:
        key = spec.canonical_key
        for cls in self.classes:
            if any(s.canonical_key == key for s in cls):
                return cls
        raise KeyError(f"{spec} not classified")

    def name_of(self, spec: SliceSpec) -> str | None:
        cls = self.class_of(spec)
        keys = {s.canonical_key for s in cls}
        for name, rep in self.representatives.items():
            if rep.canonical_key in keys:
                return name
        return None


def classify_principal(p: int = 3) -> SliceClassification:
    """The 56 slices closed over the conjugacy catalog, whose maps are proved
    exact: each map merges the classes of its source and target.  Slices are
    sorted by canonical_key in a class, classes by their first key."""
    merged = {s.canonical_key: [s] for s in enumerate_slices()}
    for m in conjugacy_catalog(p):
        a, b = merged[m.source.canonical_key], merged[m.target.canonical_key]
        if a is not b:
            a += b
            merged.update((s.canonical_key, a) for s in b)
    classes = {tuple(sorted(c, key=lambda s: s.canonical_key)) for c in merged.values()}
    return SliceClassification(
        tuple(sorted(classes, key=lambda c: c[0].canonical_key)), dict(PRINCIPAL_SLICES))


# --- voxel sampling -------------------------------------------------------------


@dataclass(frozen=True)
class VoxelGrid:
    """Iteration-count lattice over a slice window; max_iter marks members.

    The count alone decides: member_mask, member_count, volume_estimate and
    the MBV1 and .xyz writers take a cell with count == max_iter as a
    member, even one the engine flagged as escaping at step max_iter.  The
    PGM render and the hyperbolic and real-axis estimates use the engine's
    member flags instead, so the two conventions differ on such cells.
    """

    spec: SliceSpec
    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    dims: tuple[int, int, int]
    max_iter: int
    cells: np.ndarray = field(compare=False)

    def member_mask(self) -> np.ndarray:
        return self.cells == self.max_iter

    def member_count(self) -> int:
        # One x-plane at a time: no full-grid mask is built.
        return sum(int(np.count_nonzero(plane == self.max_iter)) for plane in self.cells)

    def cell_volume(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]

    def volume_of(self, members: int) -> float:
        """The volume of this many member cells: 0.0 for none, though the
        cell volume of a huge window overflows to inf.  A cell volume that
        underflows gives 0.0 for any count, the float nearest the volume."""
        return members * self.cell_volume() if members else 0.0

    def volume_estimate(self) -> float:
        return self.volume_of(self.member_count())

    def write_mbv1(self, path) -> None:
        """Header line, then row-major 32-bit little-endian iteration counts."""
        header = (
            "MBV1 dims {} {} {} origin {} {} {} spacing {} {} {} max_iter {}\n".format(
                *self.dims, *map(repr, self.origin), *map(repr, self.spacing),
                self.max_iter,
            )
        )
        cells = np.ascontiguousarray(self.cells, dtype="<u4")
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(memoryview(cells).cast("B"))

    def write_pointcloud(self, path) -> None:
        """One "x y z" text line per member cell center.

        The "y z" line tails of an x-plane are formatted once, for all of
        its ny * nz cells: O(ny * nz) strings whatever the member count,
        about 23 MB at 512 x 512.  Beyond them the writer holds one
        plane's members and text at a time.
        """
        # Each axis coordinate is formatted once: entry i is
        # repr(origin + i * spacing), the float a per-line format would give.
        xr, yr, zr = (
            [repr(o + i * s) for i in range(n)]
            for o, s, n in zip(self.origin, self.spacing, self.cells.shape)
        )
        # Row-major like a plane: entry j * nz + k ends the line of cell (j, k).
        tails = np.array([f"{y} {z}\n" for y in yr for z in zr], dtype=object)
        with open(path, "w", encoding="ascii") as fh:
            for x, plane in zip(xr, self.cells):
                sel = np.flatnonzero(plane == self.max_iter)
                if sel.size:
                    head = x + " "
                    fh.write(head + head.join(tails[sel].tolist()))


def cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell-center coordinates; symmetric windows mirror bitwise exactly."""
    if n < 1:
        raise ValueError("need at least one cell")
    mid = (hi + lo) / 2.0
    width = hi - lo
    if not (np.isfinite(mid) and np.isfinite(width)):
        raise ValueError(f"window [{lo!r}, {hi!r}] overflows: hi - lo and hi + lo "
                         "must be finite")
    frac = (2.0 * np.arange(n) + 1.0 - n) / (2.0 * n)
    return frac * width + mid


def sample_slice(
    spec: SliceSpec,
    window,
    dims,
    params: IterationParams,
    threads: int = 1,
) -> VoxelGrid:
    """Escape counts at every cell center of a 3D window over a slice.

    The slice's three coefficient rows are the window's axes, each shaped
    to vary along its own axis, and grid_counts_tricomplex takes them as
    they are: it finds the rows' distinct values from tables over one or
    two axes, and builds no per-cell component batch.  Beyond the 4 B/cell
    counts it returns, which become the grid's cells, sampling holds
    1 B/cell of member flags.
    """
    (x0, x1), (y0, y1), (z0, z1) = window
    nx, ny, nz = (int(d) for d in dims)
    if min(nx, ny, nz) < 1:
        raise ValueError("dims must be >= 1")
    if not (x1 > x0 and y1 > y0 and z1 > z0):
        raise ValueError("window must be nonempty")
    xs = cell_centers(x0, x1, nx)
    ys = cell_centers(y0, y1, ny)
    zs = cell_centers(z0, z1, nz)
    # Each cell reads the cell_centers entries a meshgrid would copy, so
    # symmetric windows still mirror exactly.
    x = [None] * 8  # the five coefficients outside the slice are zero
    for u, axis, shape in zip(spec.units, (xs, ys, zs),
                              ((nx, 1, 1), (1, ny, 1), (1, 1, nz))):
        x[u] = axis.reshape(shape)
    counts, _ = grid_counts_tricomplex(x, params, threads=threads)

    origin = (float(xs[0]), float(ys[0]), float(zs[0]))
    spacing = (
        float((x1 - x0) / nx),
        float((y1 - y0) / ny),
        float((z1 - z0) / nz),
    )
    return VoxelGrid(
        spec=spec,
        origin=origin,
        spacing=spacing,
        dims=(nx, ny, nz),
        max_iter=params.max_iter,
        cells=counts.reshape(nx, ny, nz),
    )

