"""Numeric verification suites behind the `verify` command.

Each check re-derives one of the library's structural guarantees from
scratch (oracle recomputation, independent formulas, exhaustive small cases)
and reports a pass/fail with the worst residual and a witness when it fails.
All sampling is seeded, so a suite run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, hypercomplex, roots, slices
from .hypercomplex import (
    Bicomplex,
    Hyperbolic,
    PRODUCT_TABLE,
    Tricomplex,
    UnitIndex,
    from_idempotent,
    hyp_T,
    hyp_diamond,
    hyp_pow,
    norm3,
    to_idempotent,
)

SUITE_NAMES = ("algebra", "roots", "dynamics", "slices")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float | None = None
    detail: str = ""
    witness: str | None = None


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "algebra":
        return algebra_suite(seed)
    if name == "roots":
        return roots_suite(seed)
    if name == "dynamics":
        return dynamics_suite(seed)
    if name == "slices":
        return slices_suite(seed)
    raise ValueError(f"unknown suite {name!r}")


def run_suites(names, seed: int = 0) -> dict[str, list[CheckResult]]:
    return {name: run_suite(name, seed) for name in names}


# --- algebra -------------------------------------------------------------------


def _random_tricomplex(rng, scale=3.0) -> Tricomplex:
    return Tricomplex(tuple(rng.uniform(-scale, scale, 8)))


def algebra_suite(seed: int = 0, product_table=None) -> list[CheckResult]:
    """Ring structure, idempotent calculus and the hyperbolic isomorphism.

    product_table overrides the unit table for the table-integrity checks;
    a corrupted table must surface as a failing check with a witness.
    """
    table = PRODUCT_TABLE if product_table is None else product_table
    rng = np.random.default_rng(seed)
    n = 10_000
    out = []

    # Table symmetry over all 64 ordered pairs.
    witness = None
    for a in UnitIndex:
        for b in UnitIndex:
            if table[a][b] != table[b][a]:
                witness = f"units ({a.label},{b.label}): {table[a][b]} vs {table[b][a]}"
                break
        if witness:
            break
    out.append(
        CheckResult("algebra.unit_table_symmetry", witness is None, None,
                    "64 ordered pairs", witness)
    )

    out.append(_table_vs_pair_product(rng, table))
    out.append(_ring_axioms(rng, table))

    # Idempotent homomorphism for +, *, and powers up to 16.
    A = rng.uniform(-3.0, 3.0, (8, n))
    B = rng.uniform(-3.0, 3.0, (8, n))
    wa, wb = hypercomplex.to_complex4(A), hypercomplex.to_complex4(B)
    scale = np.maximum(
        1.0, np.sqrt(hypercomplex.norm_sq_batch(A) * hypercomplex.norm_sq_batch(B))
    )
    res_mul = np.abs(hypercomplex.to_complex4(hypercomplex.mul_batch(A, B)) - wa * wb).max(
        axis=0
    ) / scale
    res_add = np.abs(hypercomplex.to_complex4(A + B) - (wa + wb)).max(axis=0)
    worst = float(max(res_mul.max(), res_add.max()))
    pow_worst = 0.0
    P = rng.uniform(-1.2, 1.2, (8, 512))
    wp = hypercomplex.to_complex4(P)
    for m in range(17):
        lhs = hypercomplex.to_complex4(hypercomplex.pow_batch(P, m))
        rhs = wp ** m
        denom = np.maximum(1.0, np.abs(rhs).max(axis=0))
        pow_worst = max(pow_worst, float((np.abs(lhs - rhs).max(axis=0) / denom).max()))
    worst = max(worst, pow_worst)
    out.append(
        CheckResult("algebra.idempotent_homomorphism", worst <= 1e-12, worst,
                    f"{n} pairs, powers to 16")
    )

    # Round trip through the idempotent representation.
    worst = 0.0
    for _ in range(2000):
        a = _random_tricomplex(rng)
        worst = max(
            worst,
            norm3(from_idempotent(to_idempotent(a)) - a) / max(1.0, norm3(a)),
        )
    out.append(
        CheckResult("algebra.idempotent_round_trip", worst <= 1e-15, worst,
                    "2000 random values")
    )

    # T(a diamond b) == T(a) star T(b), exact on integer coefficients.
    ok = True
    witness = None
    for ua in range(-3, 4):
        for va in range(-3, 4):
            a = Hyperbolic(float(ua), float(va))
            for ub in range(-3, 4):
                for vb in range(-3, 4):
                    b = Hyperbolic(float(ub), float(vb))
                    lhs = hyp_T(hyp_diamond(a, b))
                    ta, tb = hyp_T(a), hyp_T(b)
                    rhs = (ta[0] * tb[0], ta[1] * tb[1])
                    if lhs != rhs:
                        ok, witness = False, f"a=({ua},{va}) b=({ub},{vb})"
    out.append(
        CheckResult("algebra.hyperbolic_T_isomorphism", ok, None,
                    "integer grid [-3,3]^4", witness)
    )

    # Norm consistency: 8-coefficient form vs idempotent component form.
    n1 = hypercomplex.norm_sq_batch(A)
    w = hypercomplex.to_complex4(A)
    n2 = (np.abs(w) ** 2).sum(axis=0) / 4.0
    worst = float((np.abs(n1 - n2) / np.maximum(1.0, n1)).max())
    out.append(
        CheckResult("algebra.norm_component_form", worst <= 1e-12, worst, f"{n} values")
    )

    # Power-closure behaviour of every 3-unit span matches the predicate.
    ok, witness = True, None
    for spec in slices.enumerate_slices():
        kind = hypercomplex.span_closure_kind(spec.units)
        span = set(spec.span4)
        coeffs = rng.uniform(-2.0, 2.0, 3)
        eta = slices.embed_slice_point(spec, coeffs)
        even_escapes = False
        for m in range(1, 7):
            powm = hypercomplex.tc_pow(eta, m)
            outside = math.sqrt(
                sum(v * v for k, v in enumerate(powm.x) if UnitIndex(k) not in span)
            )
            inside_only = outside <= 1e-9 * max(1.0, norm3(powm))
            if m % 2 == 1 or kind == hypercomplex.CLOSED_SUBALGEBRA:
                if not inside_only:
                    ok, witness = False, f"{spec} power {m} leaves its span"
            elif not inside_only:
                even_escapes = True
        if kind == hypercomplex.ODD_POWER_CLOSED and not even_escapes:
            ok, witness = False, f"{spec} expected even powers outside the span"
    out.append(
        CheckResult("algebra.span_power_closure", ok, None,
                    "56 spans, powers to 6", witness)
    )
    return out


def _table_vs_pair_product(rng, table) -> CheckResult:
    """Table-driven product against the recursive pair product."""
    x = _uniform_columns(rng, -3.0, 3.0, 2000, 16)
    a, b = x[:8], x[8:]
    got, ref = _mul_with_table(a, b, table), _pair_product(a, b)
    res = _norm3([g - r for g, r in zip(got, ref)]) / _max(1.0, _norm3(a) * _norm3(b))
    worst, at = _worst(res, 1e-12)
    witness = None if at is None else \
        f"a={_tricomplex_at(a, at).to_text()} b={_tricomplex_at(b, at).to_text()}"
    return CheckResult("algebra.table_vs_pair_product", worst <= 1e-12, worst,
                       "2000 random pairs", witness)


def _ring_axioms(rng, table) -> CheckResult:
    """Ring axioms through the (possibly injected) table."""
    x = _uniform_columns(rng, -3.0, 3.0, 2000, 24)
    a, b, c = x[:8], x[8:16], x[16:]
    na, nb, nc = _norm3(a), _norm3(b), _norm3(c)
    ab = _mul_with_table(a, b, table)
    assoc = [v - w for v, w in zip(_mul_with_table(ab, c, table),
                                   _mul_with_table(a, _mul_with_table(b, c, table), table))]
    comm = [v - w for v, w in zip(ab, _mul_with_table(b, a, table))]
    dist = [v - (w + y) for v, w, y in zip(
        _mul_with_table(a, [v + w for v, w in zip(b, c)], table), ab,
        _mul_with_table(a, c, table))]
    res = _max(_norm3(assoc) / _max(1.0, na * nb * nc),
               _norm3(comm) / _max(1.0, na * nb),
               _norm3(dist) / _max(1.0, na * (nb + nc)))
    worst, at = _worst(res, 1e-12)
    witness = None if at is None else (f"a={_tricomplex_at(a, at).to_text()} "
                                       f"b={_tricomplex_at(b, at).to_text()} "
                                       f"c={_tricomplex_at(c, at).to_text()}")
    return CheckResult("algebra.ring_axioms", worst <= 1e-12, worst,
                       "2000 random triples", witness)


def _mul_with_table(a, b, table) -> list:
    """Unit-table product of two tricomplex lanes (8 coefficient arrays each).

    Each lane gets the floats of the scalar table loop, signed zeros
    included: out[k] += (s * a_i) * b_j over the table in row order, from
    0.0, skipping the terms of a zero a_i.
    """
    out = [np.zeros_like(a[0]) for _ in range(8)]
    with np.errstate(over="ignore", invalid="ignore"):  # float arithmetic never raises
        for i in range(8):
            ai, keep = a[i], a[i] != 0.0
            for j, (s, k) in enumerate(table[i]):
                np.add(out[k], s * ai * b[j], out=out[k], where=keep)
    return out


def _pair_product(a, b) -> list:
    """Pair-form product of tricomplex lanes, the independent check on the
    table: (zeta1*zeta3 - zeta2*zeta4) + (zeta1*zeta4 + zeta2*zeta3)*i3 for
    eta = zeta1 + zeta2*i3, with the Bicomplex product and add."""
    a1, a2 = (a[0], a[1], a[2], a[5]), (a[3], a[6], a[7], a[4])
    b1, b2 = (b[0], b[1], b[2], b[5]), (b[3], b[6], b[7], b[4])
    z1 = [x - y for x, y in zip(_bicomplex_mul(a1, b1), _bicomplex_mul(a2, b2))]
    z2 = [x + y for x, y in zip(_bicomplex_mul(a1, b2), _bicomplex_mul(a2, b1))]
    return [z1[0], z1[1], z1[2], z2[0], z2[3], z1[3], z2[1], z2[2]]


def _norm3(x):
    """hypercomplex.norm3 on tricomplex lanes: squares summed left to right."""
    acc = x[0] * x[0]
    for v in x[1:]:
        acc = acc + v * v
    return np.sqrt(acc)


def _worst(res: np.ndarray, tol: float):
    """The scalar sweep `if res > worst: worst = res; if res > tol: witness`
    from worst = 0.0, over res in order: (worst, index of the witness or None)."""
    run = np.fmax.accumulate(np.fmax(res, 0.0))
    prior = np.concatenate(([0.0], run[:-1]))
    hits = np.flatnonzero((res > prior) & (res > tol))
    return float(run[-1]), (int(hits[-1]) if hits.size else None)


def _tricomplex_at(x, k: int) -> Tricomplex:
    return Tricomplex(tuple(v[k] for v in x))


# --- roots -----------------------------------------------------------------------


def _root_count_oracle(cc: roots.CubicCoeffs) -> tuple[int, bool]:
    """(number of real roots, has a multiple root) via critical-point analysis
    plus a coarse sign-change scan."""
    b, c, d = cc.b, cc.c, cc.d
    disc = 4.0 * b * b - 12.0 * c
    scale = max(1.0, abs(b) ** 3, abs(c) ** 1.5, abs(d))
    if disc <= 0.0:
        return 1, False
    s = math.sqrt(disc)
    x1, x2 = (-2.0 * b - s) / 6.0, (-2.0 * b + s) / 6.0
    f1, f2 = cc(x1).real, cc(x2).real
    if min(abs(f1), abs(f2)) <= 1e-9 * scale:
        return 3, True
    if f1 * f2 < 0.0:
        return 3, False
    # Belt: sign changes on a grid bracketing all roots.
    bound = 1.0 + max(abs(b), abs(c), abs(d))
    xs = np.linspace(-bound, bound, 2001)
    vals = ((xs + b) * xs + c) * xs + d
    changes = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
    return (3 if changes >= 3 else 1), False


def roots_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n = 10_000
    out = []

    anchors_ok = (
        roots.cubic_discriminant(roots.CubicCoeffs(0, 0, -1)) == 27.0
        and roots.cubic_discriminant(roots.CubicCoeffs(0, -1, 0)) == -4.0
        and abs(roots.cubic_discriminant(
            roots.CubicCoeffs(0, -1, roots.MANDELBRIC_REAL_BOUND))) <= 1e-9
    )
    out.append(CheckResult("roots.discriminant_anchors", anchors_ok, None,
                           "D = 27, -4, 0 cases"))

    worst_d = worst_res = worst_vieta = 0.0
    cls_bad = 0
    witness = None
    for _ in range(n):
        cc = roots.CubicCoeffs(*rng.uniform(-10.0, 10.0, 3))
        p, q = roots.depressed_reduce(cc)
        d1 = roots.cubic_discriminant(cc)
        d2 = 27.0 * q * q + 4.0 * p ** 3
        worst_d = max(worst_d, abs(d1 - d2) / max(1.0, abs(d1), abs(d2)))
        rs = roots.cubic_roots(cc)
        scale = max(1.0, abs(cc.b), abs(cc.c), abs(cc.d))
        for r, _mult in rs.roots:
            worst_res = max(worst_res, abs(cc(r)) / scale)
        flat = [r for r, mult in rs.roots for _ in range(mult)]
        worst_vieta = max(
            worst_vieta,
            abs(flat[0] + flat[1] + flat[2] + cc.b) / max(1.0, abs(cc.b)),
            abs(flat[0] * flat[1] * flat[2] + cc.d) / max(1.0, abs(cc.d)),
        )
        nreal, dbl = _root_count_oracle(cc)
        expected = (
            roots.THREE_REAL_ONE_DOUBLE
            if dbl
            else {1: roots.ONE_REAL_TWO_COMPLEX, 3: roots.THREE_DISTINCT_REAL}[nreal]
        )
        if rs.kind != expected:
            cls_bad += 1
            witness = witness or f"b,c,d={cc.b},{cc.c},{cc.d} got {rs.kind} vs {expected}"
    out.append(CheckResult("roots.discriminant_consistency", worst_d <= 1e-9, worst_d,
                           f"{n} random cubics"))
    out.append(CheckResult("roots.residuals", worst_res <= 1e-9, worst_res,
                           f"{n} random cubics"))
    out.append(CheckResult("roots.vieta", worst_vieta <= 1e-8, worst_vieta,
                           f"{n} random cubics"))
    out.append(CheckResult("roots.classification_vs_oracle", cls_bad == 0,
                           float(cls_bad), f"{n} random cubics", witness))

    worst = 0.0
    for c in np.linspace(1e-8, roots.MANDELBRIC_REAL_BOUND, 211):
        a = roots.mandelbric_attracting_root(float(c))
        worst = max(worst, abs(a ** 3 - a + c))
        if not (1.0 / math.sqrt(3.0) - 1e-9 <= a < 1.0):
            worst = math.inf
    at_bound = roots.mandelbric_attracting_root(roots.MANDELBRIC_REAL_BOUND)
    worst = max(worst, abs(at_bound - 1.0 / math.sqrt(3.0)))
    out.append(CheckResult("roots.attracting_root", worst <= 1e-9, worst,
                           "211 points of (0, bound]"))
    return out


# --- dynamics ----------------------------------------------------------------------


def real_extent_check(p: int, tol: float = 1e-4):
    """The bisected real-axis extent of the degree-p set against its closed form.

    Returns (lo, hi), the closed form (lo_ref, hi_ref), whether both
    endpoints agree to 1e-3, and whether the closed form is proven (p in
    {2, 3}) rather than conjectured.
    """
    lo, hi = dynamics.real_axis_extent(dynamics.IterationParams(p, 2000), tol)
    lo_ref, hi_ref = roots.real_extent_closed_form(p)
    agrees = abs(hi - hi_ref) <= 1e-3 and abs(lo - lo_ref) <= 1e-3
    return (lo, hi), (lo_ref, hi_ref), agrees, p in (2, 3)


def dynamics_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # Orbit magnitude dominates |c| (|c|^(p-1) - 1)^(m-1) once |c|^(p-1) > 2.
    ok, witness, samples = True, None, 0
    for p in range(2, 7):
        bound = dynamics.escape_bound(p)
        for _ in range(100):
            c = _random_annulus_complex(rng, bound * 1.001, bound + 1.0)
            base = abs(c) ** (p - 1) - 1.0
            logs = math.log(abs(c))
            for m, z in enumerate(dynamics.orbit_complex(c, p, 60), start=1):
                lower = logs + (m - 1) * math.log(base)
                if math.log(abs(z)) < lower - 1e-9:
                    ok, witness = False, f"p={p} c={c} m={m}"
                    break
            samples += 1
    out.append(CheckResult("dynamics.escape_lower_bound", ok, None,
                           f"{samples} parameters, p in 2..6", witness))

    # Once an orbit passes the bound by delta, growth dominates (2p)^m delta.
    ok, witness, confirmed = True, None, 0
    for p in range(2, 7):
        bound = dynamics.escape_bound(p)
        found = attempts = 0
        while found < 40 and attempts < 4000:
            attempts += 1
            c = _random_annulus_complex(rng, bound * 0.9, bound)
            orbit = dynamics.orbit_complex(c, p, 200)
            cross = next((k for k, z in enumerate(orbit) if abs(z) > bound), None)
            if cross is None:
                continue
            found += 1
            delta = abs(orbit[cross]) - bound
            for m, z in enumerate(orbit[cross + 1:], start=1):
                lower = bound + (2 * p) ** m * delta
                if lower > dynamics.OVERFLOW_NORM:
                    break
                if abs(z) < lower * (1.0 - 1e-12):
                    ok, witness = False, f"p={p} c={c} m={m}"
                    break
            confirmed += 1
    out.append(CheckResult("dynamics.divergence_amplification", ok, None,
                           f"{confirmed} escaping orbits", witness))

    out.append(_mandelbric_symmetries(rng))
    out.append(_monotone_real_orbits(rng))

    # T of the hyperbolic orbit equals the two real component orbits.
    worst = _hyperbolic_decomposition_residual(rng, 10_000)
    exact_ok = True
    # Integer-coefficient orbits match exactly while values fit in 53 bits
    # (three cubing steps from |c| <= 4).
    for a in range(-2, 3):
        for b in range(-2, 3):
            z = Hyperbolic(0.0, 0.0)
            xm = xp_ = 0.0
            for _m in range(3):
                z = hyp_pow(z, 3) + Hyperbolic(float(a), float(b))
                xm = xm ** 3 + (a - b)
                xp_ = xp_ ** 3 + (a + b)
                if hyp_T(z) != (xm, xp_):
                    exact_ok = False
    out.append(CheckResult("dynamics.hyperbolic_decomposition",
                           worst <= 1e-12 and exact_ok, worst,
                           "10000 random + integer-exact orbits"))

    out.append(_hyperbolic_mode_agreement(rng))
    tp = dynamics.IterationParams(3, 400)
    out.append(_cartesian_membership(rng, tp))

    # Sampled members stay in the closed discus / closed ball of the bound.
    ok, witness, members = True, None, 0
    for _ in range(4000):
        c = Tricomplex(tuple(rng.uniform(-0.35, 0.35, 8)))
        if dynamics.iterate_tricomplex(c, tp, "direct").escaped:
            continue
        members += 1
        if not hypercomplex.in_discus(c.x, dynamics.escape_bound(3)):
            ok, witness = False, c.to_text()
    out.append(CheckResult("dynamics.discus_bound", ok and members > 50,
                           None, f"{members} sampled members", witness))

    out.append(_bicomplex_inclusion(rng, tp))

    # Real-axis extents against the closed forms; theorem for p in {2,3},
    # conjecture consistency for p in {4,5,6}.
    ok, details = True, []
    for p in range(2, 7):
        _, _, good, proven = real_extent_check(p)
        ok = ok and good
        tag = "theorem" if proven else "conjecture consistent"
        details.append(f"p={p}:{tag if good else 'MISMATCH'}")
    out.append(CheckResult("dynamics.real_axis_extents", ok, None, " ".join(details)))

    # l1-ball form of the all-j slice membership equals the two-square form
    # and matches escape-time membership away from the boundary band.
    ok, witness = True, None
    for _ in range(10_000):
        c1, c4, c6 = rng.uniform(-0.6, 0.6, 3)
        if dynamics.member_perplexbric_analytic(c1, c4, c6) != \
                dynamics.member_perplexbric_union_form(c1, c4, c6):
            ok, witness = False, f"{c1},{c4},{c6}"
    checked = 0
    pp = dynamics.IterationParams(3, 2000)
    while checked < 400:
        c1, c4, c6 = rng.uniform(-0.5, 0.5, 3)
        margin = abs(c1) + abs(c4) + abs(c6) - roots.MANDELBRIC_REAL_BOUND
        if abs(margin) <= 1e-2:
            continue
        checked += 1
        c = slices.embed_slice_point(slices.PRINCIPAL_SLICES["Perplexbric"],
                                     (c1, c4, c6))
        member = not dynamics.iterate_tricomplex(c, pp, "direct").escaped
        if member != (margin <= 0):
            ok, witness = False, f"{c1},{c4},{c6}"
    out.append(CheckResult("dynamics.perplexbric_reduction", ok, None,
                           "10000 algebraic + 400 escape-time samples", witness))
    return out


def _mandelbric_symmetries(rng) -> CheckResult:
    """Membership invariant under conjugation, negation and their composition."""
    params = dynamics.IterationParams(3, 500)
    re, im = _uniform_columns(rng, -1.6, 1.6, 2000, 2)
    # Per parameter c: c, c.conjugate(), -c, -c.conjugate().
    stop = _complex_lanes(np.stack([re, re, -re, -re], axis=1).ravel(),
                          np.stack([im, -im, -im, im], axis=1).ravel(), params)
    stop = stop.reshape(-1, 4)
    bad = np.flatnonzero(stop[:, 1:] != stop[:, :1])
    witness = None
    if bad.size:
        k, j = divmod(int(bad[-1]), 3)
        c = complex(re[k], im[k])
        witness = f"c={c} vs {(c.conjugate(), -c, -c.conjugate())[j]}"
    return CheckResult("dynamics.mandelbric_symmetries", witness is None, None,
                       "2000 parameters, p=3", witness)


def _monotone_real_orbits(rng) -> CheckResult:
    """Real orbits are strictly monotone: ascending for c>0, descending for
    c<0 with odd p.  In floats a bounded orbit eventually lands exactly on
    its limit, so zero steps are allowed only once the orbit has settled."""
    witness = None
    for p in (2, 3, 5):
        c = rng.uniform(1e-6, 1.0, 300)
        signs = (1.0, -1.0) if p % 2 == 1 else (1.0,)
        bad = np.flatnonzero(_unsettled_real_orbits(c, signs, p, 400))
        if bad.size:
            k, j = divmod(int(bad[-1]), len(signs))
            witness = f"p={p} c={signs[j] * float(c[k])}"
    return CheckResult("dynamics.monotone_real_orbits", witness is None, None,
                       "p in {2,3,5}", witness)


def _hyperbolic_mode_agreement(rng) -> CheckResult:
    """Hyperbolic direct and decomposed engines agree."""
    hp = dynamics.IterationParams(3, 500)
    u, v = _uniform_columns(rng, -2.0, 2.0, 10_000, 2)
    bad = np.count_nonzero(_hyperbolic_lanes(u, v, hp, "decomposed")
                           != _hyperbolic_lanes(u, v, hp, "direct"))
    return CheckResult("dynamics.hyperbolic_mode_agreement", bad == 0, float(bad),
                       "10000 parameters")


def _cartesian_membership(rng, tp: dynamics.IterationParams) -> CheckResult:
    """Tricomplex membership is the cartesian product of the two bicomplex
    component memberships."""
    x = _uniform_columns(rng, -1.5, 1.5, 10_000, 8)
    direct_member = np.fromiter(
        (not dynamics.iterate_tricomplex(Tricomplex(c), tp, "direct").escaped
         for c in zip(*x)), bool, count=10_000)
    # Both idempotent components of hypercomplex.to_idempotent are members;
    # the second is iterated only where the first is one.
    both = _bicomplex_lanes((x[0] + x[7], x[1] + x[4], x[2] - x[3], x[5] - x[6]), tp) == 0
    x = [v[both] for v in x]
    both[both] = _bicomplex_lanes((x[0] - x[7], x[1] - x[4], x[2] + x[3], x[5] + x[6]), tp) == 0
    bad = np.count_nonzero(direct_member != both)
    return CheckResult("dynamics.cartesian_membership", bad == 0, float(bad),
                       "10000 parameters, p=3")


def _bicomplex_inclusion(rng, tp: dynamics.IterationParams) -> CheckResult:
    """Sampled bicomplex members stay in the closed ball of the bound, and so
    do their idempotent components."""
    ok, witness = True, None
    bound = dynamics.escape_bound(3)
    x = _uniform_columns(rng, -0.9, 0.9, 4000, 4)
    members = np.flatnonzero(_bicomplex_lanes(x, tp) == 0)
    for k in members:
        c = Bicomplex(tuple(v[k] for v in x))
        z1, z2 = c.complex_pair()
        w1, w2 = z1 - z2 * 1j, z1 + z2 * 1j
        if max(abs(w1), abs(w2), c.norm()) > bound + 1e-12:
            ok, witness = False, str(c.z)
    return CheckResult("dynamics.bicomplex_inclusion", ok and members.size > 50,
                       None, f"{members.size} sampled members", witness)


def _hyperbolic_decomposition_residual(rng, n: int) -> float:
    """Worst relative gap between T of n random hyperbolic orbits and the
    two real component orbits, over six steps each.

    An orbit stops once its components pass OVERFLOW_NORM^(1/p) / 1000, so
    the next float ** p cannot overflow.
    """
    a, b = np.empty(n), np.empty(n)
    ps = np.empty(n, dtype=np.int64)
    # One sample at a time: integers() takes half words from the generator,
    # so block draws would consume the stream in another order.
    for k in range(n):
        a[k], b[k] = rng.uniform(-1.0, 1.0, 2)
        ps[k] = rng.integers(2, 5)
    worst = 0.0
    for p in range(2, 5):
        at = ps == p
        limit = dynamics.OVERFLOW_NORM ** (1.0 / p) * 1e-3
        chain = range(p - 1)

        def step(s):
            u, v, xm, xp_, a, b, cm, cp, worst = s
            tu, tv = u, v
            for _ in chain:  # hyp_pow, then + Hyperbolic(a, b)
                tu, tv = tu * u + tv * v, tv * u + tu * v
            u, v = tu + a, tv + b
            # Python's float ** (libm pow), which np.power does not match.
            xm = np.array([x ** p for x in xm.tolist()]) + cm
            xp_ = np.array([x ** p for x in xp_.tolist()]) + cp
            scale = _max(1.0, np.abs(xm), np.abs(xp_))
            worst = _max(worst, np.abs((u - v) - xm) / scale, np.abs((u + v) - xp_) / scale)
            return (u, v, xm, xp_, a, b, cm, cp, worst), ~(scale > limit)

        zero = np.zeros(np.count_nonzero(at))
        a_p, b_p = a[at], b[at]
        _, lane_worst = _lanes(step, (zero, zero, zero, zero, a_p, b_p,
                                      a_p - b_p, a_p + b_p, zero), 6)
        worst = max(worst, float(lane_worst.max(initial=0.0)))
    return worst


def _random_annulus_complex(rng, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


# --- lanes -------------------------------------------------------------------------
#
# The sweeps above run their per-parameter iterations as numpy lanes: one
# array per state component, one element per parameter.  Each lane step
# replays the scalar engine's IEEE operations in the scalar order, complex
# products written out in real arithmetic (numpy's complex multiply rounds
# differently under some CPU dispatch), so every lane ends with the scalar
# engine's floats bit for bit.  The scalar engines are the tests' oracles.

# Rows of a staging draw: 8192 floats (64 KB), below glibc's 128 KB mmap
# threshold, which a freed larger array would raise for the whole process.
_DRAW_FLOATS = 1 << 13
# Live lanes at most: 16 KB per state array.  Arrays the size of a whole
# sweep, made at every step, leave the heap holding their pages afterwards.
_POOL = 1 << 11


def _uniform_columns(rng, lo: float, hi: float, n: int, width: int) -> list:
    """n successive rng.uniform(lo, hi, width) draws, as width arrays of n."""
    cols = [np.empty(n) for _ in range(width)]
    rows = max(1, _DRAW_FLOATS // width)
    for start in range(0, n, rows):
        block = rng.uniform(lo, hi, (min(rows, n - start), width))
        for col, values in zip(cols, block.T):
            col[start:start + values.size] = values
    return cols


def _lanes(step, state: tuple, steps: int):
    """Run step on every lane of state until the lane stops or has run
    steps steps.

    state is a tuple of equal-length arrays, per-lane constants included;
    step(state) returns the next state and whether each lane goes on.  At
    most _POOL lanes are live at once, the next lanes in order joining as
    others stop, so every array a step makes stays small (see _DRAW_FLOATS)
    and a few long-lived lanes share their steps with the rest.  Returns
    (stop, last): the step at which each lane stopped (0 if it never did),
    and the last array of each lane's final state.
    """
    n = state[0].size
    stop = np.zeros(n, dtype=np.uint32)
    last = np.empty_like(state[-1])
    live, lane, age = tuple(x[:0] for x in state), np.arange(0), np.zeros(0, np.uint32)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n or lane.size:
            if start < n and lane.size <= _POOL // 2:
                end = min(n, start + _POOL - lane.size)
                live = tuple(np.concatenate((x, y[start:end])) for x, y in zip(live, state))
                lane = np.concatenate((lane, np.arange(start, end)))
                age = np.concatenate((age, np.zeros(end - start, np.uint32)))
                start = end
            live, go = step(live)
            age += 1
            done = ~go | (age == steps)
            if done.any():
                stop[lane[~go]] = age[~go]
                last[lane[done]] = live[-1][done]
                live = tuple(x[~done] for x in live)
                lane, age = lane[~done], age[~done]
    return stop, last


def _escape_lanes(step, state: tuple, params: dynamics.IterationParams) -> np.ndarray:
    """dynamics._escape_time on lanes, step(state) returning the next state
    and its squared norm: each lane's escape step, 0 for a member."""
    lim = dynamics._escape_limit(params)

    def go(s):
        s, n2 = step(s)
        return s, n2 <= lim

    return _lanes(go, state, params.max_iter)[0]


def _max(x, *rest):
    """Python's max(x, *rest) elementwise: a later value wins only if greater."""
    for y in rest:
        x = np.where(y > x, y, x)
    return x


def _complex_mul(ar, ai, br, bi):
    """Python's complex product (ar + ai*i) * (br + bi*i) in real arithmetic."""
    return ar * br - ai * bi, ar * bi + ai * br


def _bicomplex_mul(p, q):
    """The bicomplex product of complex pairs (z1, z2) * (z3, z4) =
    (z1*z3 - z2*z4, z1*z4 + z2*z3), each as (re1, im1, re2, im2)."""
    r13, i13 = _complex_mul(p[0], p[1], q[0], q[1])
    r24, i24 = _complex_mul(p[2], p[3], q[2], q[3])
    r14, i14 = _complex_mul(p[0], p[1], q[2], q[3])
    r23, i23 = _complex_mul(p[2], p[3], q[0], q[1])
    return r13 - r24, i13 - i24, r14 + r23, i14 + i23


def _complex_lanes(cr, ci, params: dynamics.IterationParams) -> np.ndarray:
    """dynamics.iterate_complex per lane c = cr + ci*i: the escape step, 0
    for a member."""
    chain = range(params.p - 1)

    def step(s):
        zr, zi, cr, ci = s
        tr, ti = zr, zi
        for _ in chain:
            tr, ti = _complex_mul(tr, ti, zr, zi)
        zr, zi = tr + cr, ti + ci
        return (zr, zi, cr, ci), zr * zr + zi * zi

    zero = np.zeros_like(cr)
    return _escape_lanes(step, (zero, zero, cr, ci), params)


def _hyperbolic_lanes(u, v, params: dynamics.IterationParams, mode: str) -> np.ndarray:
    """dynamics.iterate_hyperbolic per lane c = u + v*j in either mode: the
    escape step, 0 for a member."""
    chain = range(params.p - 1)

    if mode == "decomposed":
        def step(s):
            xm, xp_, cm, cp = s
            t = xm
            for _ in chain:
                t = t * xm
            xm = t + cm
            t = xp_
            for _ in chain:
                t = t * xp_
            xp_ = t + cp
            return (xm, xp_, cm, cp), _max(xm * xm, xp_ * xp_)

        state = (u - v, u + v)
    elif mode == "direct":
        def step(s):
            zu, zv, cu, cv = s
            tu, tv = zu, zv
            for _ in chain:  # hyp_diamond
                tu, tv = tu * zu + tv * zv, tv * zu + tu * zv
            zu, zv = tu + cu, tv + cv
            tm, tp = zu - zv, zu + zv
            return (zu, zv, cu, cv), _max(tm * tm, tp * tp)

        state = (u, v)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    zero = np.zeros_like(u)
    return _escape_lanes(step, (zero, zero) + state, params)


def _bicomplex_lanes(c, params: dynamics.IterationParams) -> np.ndarray:
    """dynamics._escape_time on dynamics._bicomplex_step per lane, c the
    four coefficient arrays of Bicomplex.z: the escape step, 0 for a member."""
    chain = range(params.p - 1)

    def step(s):
        z, c = s[:4], s[4:]
        t = z
        for _ in chain:
            t = _bicomplex_mul(t, z)
        z = tuple(x + y for x, y in zip(t, c))
        return z + c, z[0] * z[0] + z[1] * z[1] + z[2] * z[2] + z[3] * z[3]

    zero = np.zeros_like(c[0])
    return _escape_lanes(step, (zero,) * 4 + tuple(c), params)


def _unsettled_real_orbits(c, signs, p: int, n: int) -> np.ndarray:
    """For each c and sign (sign fastest), whether the steps of
    sign * orbit_real(sign * c, p, n) fail to be positive until the first
    one that is not, and exactly zero from there on."""
    signs = np.array(signs)
    c = (c[:, None] * signs).ravel()
    sign = np.resize(signs, c.size)
    chain = range(p - 1)

    def step(s):
        x, c, sign, settled, bad = s
        t = x
        for _ in chain:
            t = t * x
        y = t + c
        # A live x is finite, so the step y - x is never NaN.
        d = sign * (y - x)
        settled = settled | (d <= 0.0)
        bad = bad | (settled & (d != 0.0))
        return (y, c, sign, settled, bad), np.abs(y) < dynamics.OVERFLOW_NORM

    flag = np.zeros(c.size, dtype=bool)
    # The orbit's first value is 0.0**p + c = c; the lanes take its n - 1 steps.
    return _lanes(step, (c, c, sign, flag, flag), n - 1)[1]


# --- slices ------------------------------------------------------------------------


def slices_suite(seed: int = 0) -> list[CheckResult]:
    n_samples = 2000
    out = []
    specs = slices.enumerate_slices()
    out.append(CheckResult("slices.enumeration", len(specs) == 56, None,
                           f"{len(specs)} slice spans"))

    catalog = slices.conjugacy_catalog(3)
    worst, witness = 0.0, None
    for m in catalog:
        rep = slices.verify_conjugacy(m, 3, n_samples=n_samples, tol=1e-9, seed=seed)
        if rep.max_residual > worst:
            worst = rep.max_residual
            if not rep.passed and rep.witness is not None:
                witness = f"{m.source}->{m.target} eta={rep.witness[0].to_text()}"
    out.append(CheckResult("slices.catalog_residuals", worst <= 1e-9, worst,
                           f"{len(catalog)} maps x {n_samples} samples", witness))

    # Inverses and a bridge composition verify too (relation symmetry and
    # transitivity, checked numerically).
    worst = 0.0
    for m in catalog[:8]:
        worst = max(worst, slices.verify_conjugacy(m.inverse(), 3, 500,
                                                   seed=seed).max_residual)
    # The catalog holds the family maps out of catalog[0]'s target.
    key = catalog[0].target.canonical_key
    second = next(m for m in catalog if m.source.canonical_key == key)
    comp = _compose_maps(catalog[0], second)
    worst = max(worst, slices.verify_conjugacy(comp, 3, 500, seed=seed).max_residual)
    out.append(CheckResult("slices.relation_closure", worst <= 1e-9, worst,
                           "inverses and a composition"))

    cl = slices.classify_principal(3)
    names = {name: cl.name_of(rep) for name, rep in slices.PRINCIPAL_SLICES.items()}
    ok = cl.class_count == 4 and all(v == k for k, v in names.items())
    meta = cl.class_of(slices.PRINCIPAL_SLICES["Metabric"])
    all_i = {s.canonical_key for s in specs
             if all(u in (UnitIndex.I1, UnitIndex.I2, UnitIndex.I3, UnitIndex.I4)
                    for u in s.units)}
    ok = ok and all_i <= {s.canonical_key for s in meta}
    perp = cl.class_of(slices.PRINCIPAL_SLICES["Perplexbric"])
    ok = ok and slices.SliceSpec.of(UnitIndex.J1, UnitIndex.J2, UnitIndex.J3
                                    ).canonical_key in {s.canonical_key for s in perp}
    out.append(CheckResult("slices.four_principal_classes", ok, None,
                           f"{cl.class_count} classes, sizes "
                           f"{sorted(len(c) for c in cl.classes)}"))

    # Voxel grids are deterministic and identical under any worker count.
    spec = slices.PRINCIPAL_SLICES["Perplexbric"]
    params = dynamics.IterationParams(3, 120)
    window = ((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5))
    g1 = slices.sample_slice(spec, window, (20, 20, 20), params)
    g2 = slices.sample_slice(spec, window, (20, 20, 20), params)
    g3 = slices.sample_slice(spec, window, (20, 20, 20), params, threads=3)
    same = (g1.cells.tobytes() == g2.cells.tobytes() == g3.cells.tobytes())
    out.append(CheckResult("slices.voxel_determinism", same, None,
                           "20^3 grid, 1 and 3 workers"))

    # The closed discus of the bound holds every member: no cell outside it
    # is a member, and the engine counts the flat rows of the cells inside
    # it as the whole window does.  On the all-j slice the two component
    # norms differ, so the discus excludes cells that the combined-norm
    # escape test would not kill at iteration 1.
    wide = ((-1.9, 1.9), (-1.9, 1.9), (-1.9, 1.9))
    g = slices.sample_slice(spec, wide, (22, 22, 22), params)
    axes = [slices.cell_centers(lo, hi, 22) for lo, hi in wide]
    x, flat = [None] * 8, [None] * 8
    for k, u in enumerate(spec.units):
        x[u] = axes[k].reshape([-1 if d == k else 1 for d in range(3)])
    inside = hypercomplex.in_discus(x, dynamics.escape_bound(3))
    for u, axis, at in zip(spec.units, axes, np.nonzero(inside)):
        flat[u] = axis[at]
    counts, _ = dynamics.grid_counts_tricomplex(flat, params)
    pruned = ~inside & (g.cells != 1)
    sound = pruned.any() and not g.member_mask()[~inside].any() and \
        np.array_equal(counts, g.cells[inside])
    out.append(CheckResult("slices.prune_soundness", sound, None,
                           f"{g.cells.size} cells audited, "
                           f"{int(pruned.sum())} pruned"))
    return out


def _compose_maps(first: slices.ConjugacyMap,
                  second: slices.ConjugacyMap) -> slices.ConjugacyMap:
    table2 = {u: (s, v) for u, s, v in second.phi}
    combined = []
    for u, s, v in first.phi:
        s2, w = table2[v]
        combined.append((u, s * s2, w))
    return slices.ConjugacyMap(first.source, second.target, tuple(combined))
