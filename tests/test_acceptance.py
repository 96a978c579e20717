"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np

from mbkit.cli import cmd_render2d
from mbkit.dynamics import (
    IterationParams,
    escape_bound,
    grid_counts_hyperbolic,
    iterate_complex,
    iterate_tricomplex,
    member_perplexbric_analytic,
    member_perplexbric_union_form,
    orbit_complex,
    real_axis_extent,
)
from mbkit.hypercomplex import Tricomplex
from mbkit.roots import (
    MANDELBRIC_REAL_BOUND,
    ONE_REAL_TWO_COMPLEX,
    THREE_DISTINCT_REAL,
    THREE_REAL_ONE_DOUBLE,
    CubicCoeffs,
    cubic_discriminant,
    cubic_roots,
)
from mbkit.slices import (
    PRINCIPAL_SLICES,
    cell_centers,
    classify_principal,
    conjugacy_catalog,
    sample_slice,
    verify_conjugacy,
)

OCTAHEDRON_VOLUME = 32.0 / (243.0 * math.sqrt(3.0))


def _report(num, title, passed, detail):
    line = f"ACCEPTANCE {num:02d} {title}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_acceptance_01_mandelbric_real_interval():
    t0 = time.perf_counter()
    lo, hi = real_axis_extent(IterationParams(3, 2000), 1e-4)
    elapsed = time.perf_counter() - t0
    err = max(abs(hi - MANDELBRIC_REAL_BOUND), abs(lo + MANDELBRIC_REAL_BOUND))
    _report(1, "real-axis interval p=3",
            err <= 1e-3 and elapsed <= 10.0,
            f"[{lo:.6f}, {hi:.6f}] vs +-{MANDELBRIC_REAL_BOUND:.6f}, "
            f"err={err:.2e}, {elapsed:.2f}s")


def test_acceptance_02_mandelbrot_interval_sanity():
    lo, hi = real_axis_extent(IterationParams(2, 2000), 1e-4)
    err = max(abs(lo + 2.0), abs(hi - 0.25))
    _report(2, "real-axis interval p=2", err <= 1e-3,
            f"[{lo:.6f}, {hi:.6f}] vs [-2, 0.25], err={err:.2e}")


def test_acceptance_03_hyperbric_square():
    rng = np.random.default_rng(303)
    params = IterationParams(3, 2000)
    pts = rng.uniform(-0.5, 0.5, (10_000, 2))
    _, member = grid_counts_hyperbolic(pts[:, 0], pts[:, 1], params)
    l1 = np.abs(pts[:, 0]) + np.abs(pts[:, 1])
    analytic = l1 <= MANDELBRIC_REAL_BOUND
    away = np.abs(l1 - MANDELBRIC_REAL_BOUND) > 1e-2
    clear_ok = np.array_equal(member[away], analytic[away])
    band_disagreements = int((member != analytic).sum())

    n = 2000
    xs = cell_centers(-0.5, 0.5, n)
    ga, gb = np.meshgrid(xs, xs)
    _, gmember = grid_counts_hyperbolic(ga.ravel(), gb.ravel(), params)
    area = float(gmember.sum()) / (n * n)  # window area is 1
    area_err = abs(area - 8.0 / 27.0) / (8.0 / 27.0)
    _report(3, "hyperbric square",
            clear_ok and area_err <= 0.02,
            f"clear-zone agreement={clear_ok}, in-band diffs={band_disagreements}, "
            f"area={area:.5f} vs {8/27:.5f} (rel err {area_err:.3%})")


def test_acceptance_04_perplexbric_octahedron():
    # The l1-ball closed form must first agree with the union-of-squares
    # characterization before the voxel estimate leans on it.
    rng = np.random.default_rng(404)
    for _ in range(20_000):
        c1, c4, c6 = rng.uniform(-0.7, 0.7, 3)
        assert member_perplexbric_analytic(c1, c4, c6) == \
            member_perplexbric_union_form(c1, c4, c6)
    t0 = time.perf_counter()
    grid = sample_slice(PRINCIPAL_SLICES["Perplexbric"], ((-0.5, 0.5),) * 3,
                        (128, 128, 128), IterationParams(3, 1000))
    elapsed = time.perf_counter() - t0
    vol = grid.volume_estimate()
    rel = abs(vol - OCTAHEDRON_VOLUME) / OCTAHEDRON_VOLUME
    _report(4, "perplexbric octahedron volume",
            rel <= 0.05 and elapsed <= 120.0,
            f"volume={vol:.6f} vs {OCTAHEDRON_VOLUME:.6f} "
            f"(rel err {rel:.3%}), 128^3 in {elapsed:.1f}s")


def test_acceptance_05_escape_bound_sharpness():
    rng = np.random.default_rng(505)
    violations = 0
    checked = 0
    for p in range(2, 7):
        bound = escape_bound(p)
        params = IterationParams(p, 1000)
        for _ in range(1000):
            radius = rng.uniform(bound * (1 + 1e-9), bound + 1.0)
            angle = rng.uniform(0, 2 * math.pi)
            c = complex(radius * math.cos(angle), radius * math.sin(angle))
            checked += 1
            if not iterate_complex(c, params).escaped:
                violations += 1
                continue
            base = abs(c) ** (p - 1) - 1.0
            log_c = math.log(abs(c))
            for m, z in enumerate(orbit_complex(c, p, 80), start=1):
                if math.log(abs(z)) < log_c + (m - 1) * math.log(base) - 1e-9:
                    violations += 1
                    break
    _report(5, "escape-bound sharpness",
            violations == 0,
            f"{checked} parameters across p=2..6, {violations} violations")


def test_acceptance_06_idempotent_dynamics_equivalence():
    rng = np.random.default_rng(606)
    disagreements = 0
    for p in (2, 3):
        params = IterationParams(p, 1000)
        for _ in range(10_000):
            c = Tricomplex(tuple(rng.uniform(-1.5, 1.5, 8)))
            a = iterate_tricomplex(c, params, "direct")
            b = iterate_tricomplex(c, params, "idempotent")
            if (a.escaped, a.iterations) != (b.escaped, b.iterations):
                disagreements += 1
    _report(6, "direct vs idempotent tricomplex iteration",
            disagreements == 0,
            f"2 x 10000 parameters, {disagreements} disagreements")


def test_acceptance_07_conjugacy_residuals_and_classes():
    catalog = conjugacy_catalog(3)
    worst = 0.0
    for m in catalog:
        report = verify_conjugacy(m, 3, n_samples=10_000, tol=1e-9, seed=707)
        worst = max(worst, report.max_residual)
    cl = classify_principal(3)
    names_ok = all(cl.name_of(rep) == name
                   for name, rep in PRINCIPAL_SLICES.items())
    _report(7, "conjugacy catalog and principal classes",
            worst <= 1e-9 and cl.class_count == 4 and names_ok,
            f"{len(catalog)} maps, max residual {worst:.2e}, "
            f"{cl.class_count} classes, named reps={'ok' if names_ok else 'BAD'}")


def _sign_change_oracle(cc):
    b, c, d = cc.b, cc.c, cc.d
    disc = 4.0 * b * b - 12.0 * c
    scale = max(1.0, abs(b) ** 3, abs(c) ** 1.5, abs(d))
    if disc <= 0.0:
        return 1, False
    s = math.sqrt(disc)
    crit = ((-2.0 * b - s) / 6.0, (-2.0 * b + s) / 6.0)
    f1, f2 = cc(crit[0]).real, cc(crit[1]).real
    if min(abs(f1), abs(f2)) <= 1e-9 * scale:
        return 3, True
    if f1 * f2 < 0.0:
        return 3, False
    bound = 1.0 + max(abs(b), abs(c), abs(d))
    xs = np.linspace(-bound, bound, 4001)
    vals = ((xs + b) * xs + c) * xs + d
    changes = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
    return (3 if changes >= 3 else 1), False


def test_acceptance_08_cubic_solver():
    anchors = (
        cubic_discriminant(CubicCoeffs(0, 0, -1)) == 27.0
        and cubic_discriminant(CubicCoeffs(0, -1, 0)) == -4.0
        and abs(cubic_discriminant(CubicCoeffs(0, -1, MANDELBRIC_REAL_BOUND))) <= 1e-9
        and cubic_roots(CubicCoeffs(0, 0, -1)).kind == ONE_REAL_TWO_COMPLEX
        and cubic_roots(CubicCoeffs(0, -1, 0)).kind == THREE_DISTINCT_REAL
        and cubic_roots(CubicCoeffs(0, -1, MANDELBRIC_REAL_BOUND)).kind
        == THREE_REAL_ONE_DOUBLE
    )
    rng = np.random.default_rng(808)
    mismatches = 0
    residual_bad = 0
    for _ in range(10_000):
        cc = CubicCoeffs(*rng.uniform(-10, 10, 3))
        rs = cubic_roots(cc)
        scale = max(1.0, abs(cc.b), abs(cc.c), abs(cc.d))
        if any(abs(cc(r)) > 1e-9 * scale for r, _ in rs.roots):
            residual_bad += 1
        nreal, dbl = _sign_change_oracle(cc)
        expected = (THREE_REAL_ONE_DOUBLE if dbl
                    else {1: ONE_REAL_TWO_COMPLEX, 3: THREE_DISTINCT_REAL}[nreal])
        if rs.kind != expected:
            mismatches += 1
    _report(8, "cubic solver",
            anchors and mismatches == 0 and residual_bad == 0,
            f"anchors={'ok' if anchors else 'BAD'}, 10000 cubics, "
            f"{mismatches} class mismatches, {residual_bad} residual failures")


def test_acceptance_09_conjecture_checks():
    lines = []
    consistent = True
    for p in (4, 5, 6):
        lo, hi = real_axis_extent(IterationParams(p, 2000), 1e-4)
        hi_ref = (p - 1) * p ** (-p / (p - 1))
        lo_ref = -escape_bound(p) if p % 2 == 0 else -hi_ref
        ok = abs(hi - hi_ref) <= 1e-3 and abs(lo - lo_ref) <= 1e-3
        consistent &= ok
        # Agreement supports the conjectured formulas; this is explicitly
        # not a theorem reproduction.
        lines.append(f"p={p} {'conjecture consistent' if ok else 'INCONSISTENT'}")
    _report(9, "real-axis conjecture checks", consistent, "; ".join(lines))


def test_acceptance_10_render_determinism(tmp_path, monkeypatch):
    blobs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("MBK_THREADS", threads)
        out = tmp_path / f"det{threads}.pgm"
        cmd_render2d("multibrot", 3, ((-1.5, 1.5), (-1.5, 1.5)), 256, 1000, out)
        blobs.append(out.read_bytes())
    _report(10, "render byte-determinism across worker counts",
            blobs[0] == blobs[1],
            f"256^2 p=3, MBK_THREADS=1 vs 8, {len(blobs[0])} bytes")
