import numpy as np
import pytest

from mbkit.hypercomplex import PRODUCT_TABLE, join_pair, split_pair


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def table_mul():
    """Term-by-term unit-table product of two 8-coefficient sequences, floats
    or numpy rows, read off PRODUCT_TABLE row by row.  The reference for
    tc_mul and mul_batch."""
    def mul(xa, xb):
        out = [0.0] * 8
        for i, row in enumerate(PRODUCT_TABLE):
            for j, (s, k) in enumerate(row):
                out[k] += s * xa[i] * xb[j]
        return tuple(out)
    return mul


@pytest.fixture(scope="session")
def pair_mul():
    """Pair-form product (zeta1*zeta3 - zeta2*zeta4) + (zeta1*zeta4 +
    zeta2*zeta3)*i3 of two Tricomplex values, multiplied through the
    Bicomplex dataclass instead of the flat table.  The reference for tc_mul
    and for the verify suites' pair-product lanes."""
    def mul(a, b):
        a1, a2 = split_pair(a)
        b1, b2 = split_pair(b)
        return join_pair(a1 * b1 - a2 * b2, a1 * b2 + a2 * b1)
    return mul


@pytest.fixture
def kernel_no_retirement():
    """The escape-time kernel without cycle retirement: every non-escaping
    point runs the full budget.  The reference for dynamics._counts_kernel."""
    def kernel(c, params):
        p, max_iter = params.p, params.max_iter
        r2 = params.escape_radius * params.escape_radius
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
            esc = (n2 > r2) | ~np.isfinite(n2)
            if esc.any():
                counts[idx[esc]] = m
                pos = np.flatnonzero(~esc)
                z = z.take(pos, axis=-1)
                cc = cc.take(pos, axis=-1)
                idx = idx[pos]
                if idx.size == 0:
                    break
        member[idx] = True
        return counts, member
    return kernel


@pytest.fixture
def hyperbolic_whole_grid():
    """dynamics.grid_counts_hyperbolic building every array over the whole
    grid: one np.unique over both components of every point, and two
    searchsorted into it.  The reference for the chunk-streamed path."""
    from mbkit.dynamics import _run_blocks

    def counts(a, b, params, threads=1):
        a = np.ascontiguousarray(a, dtype=np.float64).ravel()
        b = np.ascontiguousarray(b, dtype=np.float64).ravel()
        cm = a - b
        cp = a + b
        uniq = np.unique(np.concatenate([cm, cp]))
        im, ip = np.searchsorted(uniq, cm), np.searchsorted(uniq, cp)
        counts_u, member_u = _run_blocks(uniq, params, threads)
        return np.minimum(counts_u[im], counts_u[ip]), member_u[im] & member_u[ip]
    return counts


def complex4_reference(x8):
    """The idempotent components of an (8, n) batch as to_complex4 first
    formed them: all eight rows summed, then re + 1j * im."""
    x = x8
    re1 = (x[0] + x[7]) + (x[5] - x[6])
    im1 = (x[1] + x[4]) - (x[2] - x[3])
    re2 = (x[0] + x[7]) - (x[5] - x[6])
    im2 = (x[1] + x[4]) + (x[2] - x[3])
    re3 = (x[0] - x[7]) + (x[5] + x[6])
    im3 = (x[1] - x[4]) - (x[2] + x[3])
    re4 = (x[0] - x[7]) - (x[5] + x[6])
    im4 = (x[1] - x[4]) + (x[2] + x[3])
    out = np.empty((4,) + x.shape[1:], dtype=np.complex128)
    out[0] = re1 + 1j * im1
    out[1] = re2 + 1j * im2
    out[2] = re3 + 1j * im3
    out[3] = re4 + 1j * im4
    return out


def components_by_scan(x8):
    """The (4, n) batch grid_counts_tricomplex takes for an (8, n) batch,
    real exactly when a scan finds no imaginary part."""
    w = complex4_reference(np.asarray(x8, dtype=np.float64))
    return w if w.imag.any() else w.real.copy()


def inside_discus_reference(x8, radius):
    """Closed-discus membership of an (8, n) batch from all eight rows."""
    x = x8
    u1 = np.stack([x[0] + x[7], x[1] + x[4], x[2] - x[3], x[5] - x[6]])
    u2 = np.stack([x[0] - x[7], x[1] - x[4], x[2] + x[3], x[5] + x[6]])
    r2 = radius * radius
    n1 = ((u1[0] * u1[0] + u1[1] * u1[1]) + u1[2] * u1[2]) + u1[3] * u1[3]
    n2 = ((u2[0] * u2[0] + u2[1] * u2[1]) + u2[2] * u2[2]) + u2[3] * u2[3]
    return (n1 <= r2) & (n2 <= r2)


@pytest.fixture
def tricomplex_components():
    return components_by_scan


@pytest.fixture
def discus_reference():
    return inside_discus_reference


@pytest.fixture
def sample_slice_whole_window():
    """slices.sample_slice building the whole window's batch in one piece:
    meshgrid coordinates, an (8, n) coefficient batch, the components of
    all eight rows with a scan for realness, and one call of the joint
    kernel, which iterates every cell's rows together.  The reference for
    the per-axis, slice-native sampling and for the distinct-value
    tricomplex path."""
    from mbkit.dynamics import _run_blocks
    from mbkit.slices import VoxelGrid, cell_centers

    def sample(spec, window, dims, params, threads=1):
        (x0, x1), (y0, y1), (z0, z1) = window
        nx, ny, nz = (int(d) for d in dims)
        xs = cell_centers(x0, x1, nx)
        ys = cell_centers(y0, y1, ny)
        zs = cell_centers(z0, z1, nz)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        coords = (gx.ravel(), gy.ravel(), gz.ravel())
        x8 = np.zeros((8, nx * ny * nz))
        for u, vals in zip(spec.units, coords):
            x8[u] = vals
        counts, _ = _run_blocks(components_by_scan(x8), params, threads)
        origin = (float(xs[0]), float(ys[0]), float(zs[0]))
        spacing = (float((x1 - x0) / nx), float((y1 - y0) / ny),
                   float((z1 - z0) / nz))
        return VoxelGrid(spec, origin, spacing, (nx, ny, nz), params.max_iter,
                         counts.reshape(nx, ny, nz))
    return sample
