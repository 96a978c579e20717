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


def _mul_with_table(a: Tricomplex, b: Tricomplex, table) -> Tricomplex:
    out = [0.0] * 8
    for i in range(8):
        ai = a.x[i]
        if ai == 0.0:
            continue
        row = table[i]
        for j in range(8):
            s, k = row[j]
            out[k] += s * ai * b.x[j]
    return Tricomplex(tuple(out))


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

    # Table-driven product against the recursive pair product.
    worst, witness = 0.0, None
    for _ in range(2000):
        a, b = _random_tricomplex(rng), _random_tricomplex(rng)
        ref = hypercomplex._mul_recursive(a, b)
        got = _mul_with_table(a, b, table)
        res = norm3(got - ref) / max(1.0, norm3(a) * norm3(b))
        if res > worst:
            worst = res
            if res > 1e-12:
                witness = f"a={a.to_text()} b={b.to_text()}"
    out.append(
        CheckResult("algebra.table_vs_pair_product", worst <= 1e-12, worst,
                    "2000 random pairs", witness)
    )

    # Ring axioms through the (possibly injected) table.
    worst, witness = 0.0, None
    for _ in range(2000):
        a, b, c = (_random_tricomplex(rng) for _ in range(3))
        scale = max(1.0, norm3(a) * norm3(b) * norm3(c))
        res = max(
            norm3(_mul_with_table(_mul_with_table(a, b, table), c, table)
                  - _mul_with_table(a, _mul_with_table(b, c, table), table)) / scale,
            norm3(_mul_with_table(a, b, table) - _mul_with_table(b, a, table))
            / max(1.0, norm3(a) * norm3(b)),
            norm3(_mul_with_table(a, b + c, table)
                  - (_mul_with_table(a, b, table) + _mul_with_table(a, c, table)))
            / max(1.0, norm3(a) * (norm3(b) + norm3(c))),
        )
        if res > worst:
            worst = res
            if res > 1e-12:
                witness = f"a={a.to_text()} b={b.to_text()} c={c.to_text()}"
    out.append(
        CheckResult("algebra.ring_axioms", worst <= 1e-12, worst,
                    "2000 random triples", witness)
    )

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

    # Membership invariant under conjugation, negation and their composition.
    params = dynamics.IterationParams(3, 500)
    ok, witness = True, None
    for _ in range(2000):
        c = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        r = dynamics.iterate_complex(c, params)
        for c2 in (c.conjugate(), -c, -c.conjugate()):
            r2 = dynamics.iterate_complex(c2, params)
            if (r.escaped, r.iterations) != (r2.escaped, r2.iterations):
                ok, witness = False, f"c={c} vs {c2}"
    out.append(CheckResult("dynamics.mandelbric_symmetries", ok, None,
                           "2000 parameters, p=3", witness))

    # Real orbits are strictly monotone: ascending for c>0, descending for
    # c<0 with odd p.  In floats a bounded orbit eventually lands exactly on
    # its limit, so zero steps are allowed only once the orbit has settled.
    ok, witness = True, None
    for p in (2, 3, 5):
        for _ in range(300):
            c = float(rng.uniform(1e-6, 1.0))
            for sign in (1.0, -1.0) if p % 2 == 1 else (1.0,):
                diffs = sign * np.diff(np.asarray(dynamics.orbit_real(sign * c, p, 400)))
                settled = np.flatnonzero(diffs <= 0.0)
                strict_then_fixed = settled.size == 0 or (
                    (diffs[settled[0]:] == 0.0).all() and (diffs[: settled[0]] > 0.0).all()
                )
                if not strict_then_fixed:
                    ok, witness = False, f"p={p} c={sign*c}"
    out.append(CheckResult("dynamics.monotone_real_orbits", ok, None,
                           "p in {2,3,5}", witness))

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

    # Hyperbolic direct and decomposed engines agree.
    hp = dynamics.IterationParams(3, 500)
    bad = 0
    for _ in range(10_000):
        c = Hyperbolic(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ra = dynamics.iterate_hyperbolic(c, hp, "decomposed")
        rb = dynamics.iterate_hyperbolic(c, hp, "direct")
        if (ra.escaped, ra.iterations) != (rb.escaped, rb.iterations):
            bad += 1
    out.append(CheckResult("dynamics.hyperbolic_mode_agreement", bad == 0, float(bad),
                           "10000 parameters"))

    # Tricomplex membership is the cartesian product of the two bicomplex
    # component memberships.
    tp = dynamics.IterationParams(3, 400)
    bad = 0
    for _ in range(10_000):
        c = Tricomplex(tuple(rng.uniform(-1.5, 1.5, 8)))
        direct_member = not dynamics.iterate_tricomplex(c, tp, "direct").escaped
        pair = to_idempotent(c)
        both = _bicomplex_member(pair.u1, tp) and _bicomplex_member(pair.u2, tp)
        if direct_member != both:
            bad += 1
    out.append(CheckResult("dynamics.cartesian_membership", bad == 0, float(bad),
                           "10000 parameters, p=3"))

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

    ok, witness, members = True, None, 0
    bound = dynamics.escape_bound(3)
    for _ in range(4000):
        c = Bicomplex(tuple(rng.uniform(-0.9, 0.9, 4)))
        if not _bicomplex_member(c, tp):
            continue
        members += 1
        z1, z2 = c.complex_pair()
        w1, w2 = z1 - z2 * 1j, z1 + z2 * 1j
        if max(abs(w1), abs(w2), c.norm()) > bound + 1e-12:
            ok, witness = False, str(c.z)
    out.append(CheckResult("dynamics.bicomplex_inclusion", ok and members > 50,
                           None, f"{members} sampled members", witness))

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


def _hyperbolic_decomposition_residual(rng, n: int) -> float:
    """Worst relative gap between T of n random hyperbolic orbits and the
    two real component orbits, over six steps each.

    An orbit stops once its components pass OVERFLOW_NORM^(1/p) / 1000, so
    the next float ** p cannot overflow.
    """
    worst = 0.0
    for _ in range(n):
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        p = int(rng.integers(2, 5))
        limit = dynamics.OVERFLOW_NORM ** (1.0 / p) * 1e-3
        z = Hyperbolic(0.0, 0.0)
        cm, cp = a - b, a + b
        xm = xp_ = 0.0
        for _m in range(6):
            z = hyp_pow(z, p) + Hyperbolic(a, b)
            xm = xm ** p + cm
            xp_ = xp_ ** p + cp
            t = hyp_T(z)
            scale = max(1.0, abs(xm), abs(xp_))
            worst = max(worst, abs(t[0] - xm) / scale, abs(t[1] - xp_) / scale)
            if scale > limit:
                break
    return worst


def _random_annulus_complex(rng, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def _bicomplex_member(c: Bicomplex, params: dynamics.IterationParams) -> bool:
    step = dynamics._bicomplex_step(c, params.p)
    return not dynamics._escape_time(step, (0j, 0j), params).escaped


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
