"""Command-line surface: 2D renders, 3D exports, verification, estimates.

Every run writes a manifest recording the command, parameters, tool version
and sha256 digests of the outputs; `mbkit rerun` re-executes a
manifest and checks the digests match.  Output bytes depend only on the
command parameters, never on the worker count (MBK_THREADS).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    IterationParams,
    grid_counts_complex,
    grid_counts_hyperbolic,
    real_axis_extent,
)
from .roots import OCTAHEDRON_VOLUME_P3, real_extent_closed_form
from .slices import SliceSpec, cell_centers, sample_slice
from .suites import SUITE_NAMES, run_suites


def _threads() -> int:
    text = os.environ.get("MBK_THREADS", "1")
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        print(f"mbkit: warning: MBK_THREADS={text!r} is not a positive integer; "
              "using 1 worker", file=sys.stderr)
        return 1
    return value


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_base: Path, command: str, parameters: dict,
                    wall: float, outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "wall_time_s": wall,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = Path(f"{out_base}.manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def shade(counts: np.ndarray, member: np.ndarray, max_iter: int) -> np.ndarray:
    """Monotone grayscale ramp: members black, fast escape bright."""
    counts = counts.astype(np.int64)
    if max_iter > 1:
        vals = 255 - ((counts - 1) * 254) // (max_iter - 1)
    else:
        vals = np.full_like(counts, 255)
    vals[member] = 0
    return vals.astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary netpbm graymap (P5), rows top to bottom."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("image must be a 2D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image).tobytes())


# --- commands -----------------------------------------------------------------


def cmd_render2d(set_name: str, p: int, window, res, max_iter: int,
                 escape_radius, out, threads: int | None = None) -> Path:
    """Render a 2D escape-time set to a P5 graymap and write its manifest."""
    threads = _threads() if threads is None else threads
    (x0, x1), (y0, y1) = window
    w, h = res if isinstance(res, tuple) else (int(res), int(res))
    if w < 1 or h < 1:
        raise ValueError("resolution must be >= 1")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("window must be nonempty")
    params = IterationParams(p, max_iter, escape_radius)
    xs = cell_centers(x0, x1, w)
    ys = cell_centers(y0, y1, h)[::-1]  # top row holds the largest ordinate
    t0 = time.perf_counter()
    if set_name == "multibrot":
        grid = xs[None, :] + 1j * ys[:, None]
        counts, member = grid_counts_complex(grid.ravel(), params, threads=threads)
    elif set_name == "hyperbrot":
        ga, gb = np.meshgrid(xs, ys)
        counts, member = grid_counts_hyperbolic(ga.ravel(), gb.ravel(), params,
                                                threads=threads)
    else:
        raise ValueError(f"unknown set {set_name!r}")
    image = shade(counts, member, max_iter).reshape(h, w)
    out = Path(out)
    write_pgm(out, image)
    wall = time.perf_counter() - t0
    _write_manifest(
        out, "render2d",
        {"set": set_name, "p": p, "window": [list(window[0]), list(window[1])],
         "res": [w, h], "max_iter": max_iter,
         "escape_radius": params.escape_radius},
        wall, [out],
    )
    return out


def cmd_render3d(slice_spec, p: int, window, dims, max_iter: int, out,
                 prune: bool = False, threads: int | None = None):
    """Sample a 3D slice, write the voxel grid and member point cloud."""
    threads = _threads() if threads is None else threads
    spec = slice_spec if isinstance(slice_spec, SliceSpec) else SliceSpec.parse(slice_spec)
    params = IterationParams(p, max_iter)
    t0 = time.perf_counter()
    grid = sample_slice(spec, window, dims, params, prune=prune, threads=threads)
    out = Path(out)
    vox_path = out.with_suffix(".mbv1")
    cloud_path = out.with_suffix(".xyz")
    grid.write_mbv1(vox_path)
    grid.write_pointcloud(cloud_path)
    wall = time.perf_counter() - t0
    _write_manifest(
        out, "render3d",
        {"slice": spec.label(), "p": p,
         "window": [list(ax) for ax in window], "dims": list(grid.dims),
         "max_iter": max_iter, "prune": prune},
        wall, [vox_path, cloud_path],
    )
    print(f"member_cells={grid.member_count()}")
    print(f"volume_estimate={grid.volume_estimate()!r}")
    return grid, vox_path, cloud_path


def cmd_verify(suite: str, seed: int = 0, out=None) -> int:
    """Run the module property suites; exit 0 iff every check passes."""
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    t0 = time.perf_counter()
    results = run_suites(names, seed=seed)
    wall = time.perf_counter() - t0
    lines = [f"suite={suite}", f"seed={seed}", f"version={__version__}"]
    checks_json = []
    overall = True
    for name, checks in results.items():
        for c in checks:
            passed = bool(c.passed)
            overall &= passed
            lines.append(f"{c.name}.status={'pass' if passed else 'fail'}")
            if c.max_residual is not None:
                lines.append(f"{c.name}.max_residual={float(c.max_residual)!r}")
            if c.detail:
                lines.append(f"{c.name}.detail={c.detail}")
            if c.witness:
                lines.append(f"{c.name}.witness={c.witness}")
            checks_json.append(
                {"name": c.name, "passed": passed,
                 "max_residual": None if c.max_residual is None
                 else float(c.max_residual),
                 "detail": c.detail, "witness": c.witness}
            )
    lines.append(f"overall={'pass' if overall else 'fail'}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out is not None:
        out = Path(out)
        txt_path = out.with_suffix(".txt")
        json_path = out.with_suffix(".json")
        txt_path.write_text(text)
        json_path.write_text(json.dumps(
            {"suite": suite, "seed": seed, "version": __version__,
             "overall": overall, "checks": checks_json}, indent=2) + "\n")
        _write_manifest(out, "verify", {"suite": suite, "seed": seed}, wall,
                        [txt_path, json_path])
    return 0 if overall else 1


def cmd_estimate(kind: str, p: int, precision=None, out=None,
                 threads: int | None = None) -> dict:
    """Numeric estimate next to the closed-form value and relative error."""
    threads = _threads() if threads is None else threads
    t0 = time.perf_counter()
    if kind == "real-extent":
        tol = float(precision) if precision else 1e-4
        lo, hi = real_axis_extent(p, IterationParams(p, 2000), tol)
        lo_ref, hi_ref = real_extent_closed_form(p)
        status = "theorem" if p in (2, 3) else _conjecture_status(
            abs(hi - hi_ref) <= 1e-3 and abs(lo - lo_ref) <= 1e-3)
        report = {
            "kind": kind, "p": p,
            "measured_lo": lo, "measured_hi": hi,
            "closed_form_lo": lo_ref, "closed_form_hi": hi_ref,
            "rel_error": max(abs(hi - hi_ref) / abs(hi_ref),
                             abs(lo - lo_ref) / abs(lo_ref)),
            "status": status,
        }
    elif kind == "hyperbric-area":
        n = int(precision) if precision else 2000
        lo_ref, hi_ref = real_extent_closed_form(p)
        area_ref = (hi_ref - lo_ref) ** 2 / 2.0
        half = max(abs(lo_ref), abs(hi_ref)) * 1.1
        xs = cell_centers(-half, half, n)
        ga, gb = np.meshgrid(xs, xs)
        params = IterationParams(p, 2000)
        _, member = grid_counts_hyperbolic(ga.ravel(), gb.ravel(), params,
                                           threads=threads)
        cell = (2.0 * half / n) ** 2
        area = float(member.sum()) * cell
        status = "theorem" if p == 3 else _conjecture_status(
            abs(area - area_ref) / area_ref <= 0.02)
        report = {
            "kind": kind, "p": p, "samples": n * n,
            "measured_area": area, "closed_form_area": area_ref,
            "rel_error": abs(area - area_ref) / area_ref, "status": status,
        }
    elif kind == "perplexbric-volume":
        if p != 3:
            raise ValueError("the octahedron volume closed form holds for p = 3")
        n = int(precision) if precision else 128
        spec = SliceSpec.parse("1,j1,j2")
        grid = sample_slice(spec, ((-0.5, 0.5),) * 3, (n, n, n),
                            IterationParams(3, 1000), threads=threads)
        vol = grid.volume_estimate()
        report = {
            "kind": kind, "p": p, "dims": [n, n, n],
            "measured_volume": vol, "closed_form_volume": OCTAHEDRON_VOLUME_P3,
            "rel_error": abs(vol - OCTAHEDRON_VOLUME_P3) / OCTAHEDRON_VOLUME_P3,
            "status": "theorem",
        }
    else:
        raise ValueError(f"unknown estimate kind {kind!r}")
    wall = time.perf_counter() - t0
    text = "".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n"
                   for k, v in report.items())
    print(text, end="")
    if out is not None:
        out = Path(out)
        out.with_suffix(".txt").write_text(text)
        out.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
        parameters = {"kind": kind, "p": p}
        if precision is not None:
            parameters["precision"] = precision
        _write_manifest(out, "estimate", parameters, wall,
                        [out.with_suffix(".txt"), out.with_suffix(".json")])
    return report


def _conjecture_status(agrees: bool) -> str:
    # Agreement supports the conjectured formula; it is not a theorem check.
    return "conjecture consistent" if agrees else "conjecture inconsistent"


def cmd_rerun(manifest_path, out_dir=None) -> int:
    """Re-execute a manifest's command and compare output digests."""
    manifest = json.loads(Path(manifest_path).read_text())
    params = manifest["parameters"]
    if manifest.get("version") != __version__:
        print(f"mbkit: warning: manifest written by mbkit {manifest.get('version')}, "
              f"rerunning with {__version__}", file=sys.stderr)
    out_dir = Path(out_dir) if out_dir else Path(manifest_path).parent / "rerun"
    out_dir.mkdir(parents=True, exist_ok=True)
    command = manifest["command"]
    produced: dict[str, Path] = {}
    if command == "render2d":
        out = out_dir / next(iter(manifest["outputs"]))
        cmd_render2d(params["set"], params["p"],
                     tuple(tuple(ax) for ax in params["window"]),
                     tuple(params["res"]), params["max_iter"],
                     params["escape_radius"], out)
        produced = {out.name: out}
    elif command == "render3d":
        stem = Path(next(iter(manifest["outputs"]))).stem
        _, vox, cloud = cmd_render3d(
            params["slice"], params["p"],
            tuple(tuple(ax) for ax in params["window"]), tuple(params["dims"]),
            params["max_iter"], out_dir / stem, prune=params["prune"])
        produced = {p.name: p for p in (vox, cloud)}
    elif command in ("verify", "estimate"):
        out = out_dir / Path(next(iter(manifest["outputs"]))).stem
        if command == "verify":
            cmd_verify(params["suite"], seed=params["seed"], out=out)
        else:
            cmd_estimate(params["kind"], params["p"],
                         precision=params.get("precision"), out=out)
        produced = {p.name: p
                    for p in (out.with_suffix(".txt"), out.with_suffix(".json"))}
    else:
        raise ValueError(f"cannot rerun command {command!r}")
    ok = True
    for name, digest in manifest["outputs"].items():
        got = _sha256(produced[name]) if name in produced else "missing"
        match = got == digest
        ok &= match
        print(f"{name}: {'match' if match else 'MISMATCH'}")
    return 0 if ok else 1


# --- argument parsing -----------------------------------------------------------


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return parse


_exponent = _int_at_least(2)
_positive_int = _int_at_least(1)


def _parse_window(text: str, axes: int):
    parts = text.split(",")
    if len(parts) != axes:
        raise argparse.ArgumentTypeError(
            f"expected {axes} comma-separated lo:hi ranges, got {text!r}")
    window = []
    for part in parts:
        lo, _, hi = part.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range {part!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise argparse.ArgumentTypeError(
                f"range {part!r} must be finite with lo < hi")
        window.append((lo, hi))
    return tuple(window)


def _window2(text: str):
    return _parse_window(text, 2)


def _window3(text: str):
    return _parse_window(text, 3)


def _parse_dims(text: str):
    parts = [_positive_int(v) for v in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("dims must be N or NX,NY,NZ")
    return tuple(parts)


def _slice_spec(text: str) -> SliceSpec:
    try:
        return SliceSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _precision(kind: str, text: str):
    """Bisection tolerance (real-extent) or grid size (others); None if invalid."""
    try:
        value = float(text) if kind == "real-extent" else int(text)
    except ValueError:
        return None
    return value if math.isfinite(value) and value > 0 else None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mbkit",
        description="Multibrot renders, 3D slice exports and numeric verification.",
    )
    ap.add_argument("--version", action="version", version=f"mbkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    r2 = sub.add_parser("render2d", help="render a 2D set to a P5 graymap")
    r2.add_argument("--set", choices=("multibrot", "hyperbrot"), default="multibrot")
    r2.add_argument("--p", type=_exponent, default=3)
    r2.add_argument("--window", type=_window2, default=((-1.5, 1.5), (-1.5, 1.5)),
                    help="x0:x1,y0:y1 (default -1.5:1.5 squared)")
    r2.add_argument("--res", type=_positive_int, default=1000, help="pixels per side")
    r2.add_argument("--max-iter", type=_positive_int, default=1000)
    r2.add_argument("--escape-radius", type=float, default=None)
    r2.add_argument("--out", required=True)

    r3 = sub.add_parser("render3d", help="export a 3D slice voxel grid + point cloud")
    r3.add_argument("--slice", type=_slice_spec, default="1,j1,j2",
                    help="three units, e.g. 1,i1,i2")
    r3.add_argument("--p", type=_exponent, default=3)
    r3.add_argument("--window", type=_window3,
                    default=((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)))
    r3.add_argument("--dims", type=_parse_dims, default=(128, 128, 128))
    r3.add_argument("--max-iter", type=_positive_int, default=1000)
    r3.add_argument("--prune", action="store_true",
                    help="mark cells outside the bounding discus escaped at 1")
    r3.add_argument("--out", required=True)

    vf = sub.add_parser("verify", help="run numeric verification suites")
    vf.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    vf.add_argument("--seed", type=_int_at_least(0), default=0)
    vf.add_argument("--out", default=None)

    es = sub.add_parser("estimate", help="estimate a quantity with its closed form")
    es.add_argument("--kind", required=True,
                    choices=("real-extent", "hyperbric-area", "perplexbric-volume"))
    es.add_argument("--p", type=_exponent, default=3)
    es.add_argument("--precision", default=None,
                    help="bisection tolerance (real-extent) or grid size (others)")
    es.add_argument("--out", default=None)

    rr = sub.add_parser("rerun", help="re-execute a manifest and compare digests")
    rr.add_argument("--manifest", required=True)
    rr.add_argument("--out-dir", default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "render2d":
        try:
            IterationParams(args.p, args.max_iter, args.escape_radius)
        except ValueError as exc:
            ap.error(f"argument --escape-radius: {exc}")
        cmd_render2d(args.set, args.p, args.window, args.res,
                     args.max_iter, args.escape_radius, args.out)
        return 0
    if args.command == "render3d":
        cmd_render3d(args.slice, args.p, args.window, args.dims,
                     args.max_iter, args.out, prune=args.prune)
        return 0
    if args.command == "verify":
        return cmd_verify(args.suite, seed=args.seed, out=args.out)
    if args.command == "estimate":
        precision = None
        if args.precision is not None:
            precision = _precision(args.kind, args.precision)
            if precision is None:
                ap.error(f"argument --precision: invalid value {args.precision!r} "
                         f"for --kind {args.kind}")
        if args.kind == "perplexbric-volume" and args.p != 3:
            ap.error("argument --p: the perplexbric-volume closed form holds for p = 3")
        cmd_estimate(args.kind, args.p, precision=precision, out=args.out)
        return 0
    if args.command == "rerun":
        return cmd_rerun(args.manifest, args.out_dir)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
