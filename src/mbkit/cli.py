"""Command-line surface: 2D renders, 3D exports, verification, estimates.

Every command line run with --out writes a manifest recording the command,
its parsed options, tool version and sha256 digests of the outputs;
`mbkit rerun` parses the recorded options back into that command line,
re-executes it and checks the digests match.  Output bytes depend only on the
command parameters, never on the worker count (MBK_THREADS).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import mmap
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    MAX_ITER_LIMIT,
    IterationParams,
    grid_counts_complex,
    grid_counts_hyperbolic,
)
from .roots import OCTAHEDRON_VOLUME_P3, escape_bound, real_extent_closed_form
from .slices import SliceSpec, cell_centers, sample_slice
from .suites import SUITE_NAMES, real_extent_check, run_suites


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


def _named(out_base, suffix: str) -> Path:
    # Appended, not Path.with_suffix: a dotted base such as run.1 keeps its
    # whole name, so run.1 and run.2 write different files.
    return Path(f"{out_base}{suffix}")


# The files each command writes from its --out name, besides the manifest.
_OUTPUT_SUFFIXES = {"render2d": ("",), "render3d": (".mbv1", ".xyz"),
                    "verify": (".txt", ".json"), "estimate": (".txt", ".json")}


def _outputs(command: str, out_base) -> list[Path]:
    return [_named(out_base, suffix) for suffix in _OUTPUT_SUFFIXES[command]]


def _manifest_path(out_base) -> Path:
    return _named(out_base, ".manifest.json")


def _recorded(value):
    """An option's parsed value as a manifest records it."""
    if isinstance(value, tuple):
        return [_recorded(v) for v in value]
    return value.label() if isinstance(value, SliceSpec) else value


def _parameters(args: argparse.Namespace) -> dict:
    """The options a parsed command line sets, as its manifest records them."""
    return {key: _recorded(value) for key, value in vars(args).items()
            if key not in ("command", "out") and value is not None}


def _write_manifest(args: argparse.Namespace, wall: float) -> None:
    manifest = {
        "command": args.command,
        "parameters": _parameters(args),
        "version": __version__,
        "wall_time_s": wall,
        "outputs": {p.name: _sha256(p) for p in _outputs(args.command, args.out)},
    }
    path = _manifest_path(args.out)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def shade(counts: np.ndarray, member: np.ndarray, max_iter: int) -> np.ndarray:
    """Monotone grayscale ramp: members black, fast escape bright."""
    if max_iter > 1:
        # 255 - ((counts - 1) * 254) // (max_iter - 1), in one int64 array.
        ramp = counts.astype(np.int64)
        ramp -= 1
        ramp *= 254
        ramp //= max_iter - 1
        np.subtract(255, ramp, out=ramp)
        image = ramp.astype(np.uint8)
    else:
        image = np.full(counts.shape, 255, dtype=np.uint8)
    image[member] = 0
    return image


def write_pgm(path, image: np.ndarray) -> None:
    """Binary netpbm graymap (P5), rows top to bottom."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("image must be a 2D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image).tobytes())


# --- commands -----------------------------------------------------------------


def cmd_render2d(set_name: str, p: int, window, res, max_iter: int, out) -> Path:
    """Render a 2D escape-time set to a P5 graymap."""
    threads = _threads()
    (x0, x1), (y0, y1) = window
    w, h = res if isinstance(res, tuple) else (int(res), int(res))
    if w < 1 or h < 1:
        raise ValueError("resolution must be >= 1")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("window must be nonempty")
    params = IterationParams(p, max_iter)
    xs = cell_centers(x0, x1, w)
    ys = cell_centers(y0, y1, h)[::-1]  # top row holds the largest ordinate
    if set_name == "multibrot":
        grid = xs[None, :] + 1j * ys[:, None]
        counts, member = grid_counts_complex(grid.ravel(), params, threads=threads)
    elif set_name == "hyperbrot":
        ga, gb = np.meshgrid(xs, ys, copy=False)
        counts, member = grid_counts_hyperbolic(ga, gb, params, threads=threads)
    else:
        raise ValueError(f"unknown set {set_name!r}")
    image = shade(counts, member, max_iter).reshape(h, w)
    [out] = _outputs("render2d", out)
    write_pgm(out, image)
    return out


def cmd_render3d(slice_spec, p: int, window, dims, max_iter: int, out):
    """Sample a 3D slice, write the voxel grid and member point cloud."""
    threads = _threads()
    spec = slice_spec if isinstance(slice_spec, SliceSpec) else SliceSpec.parse(slice_spec)
    params = IterationParams(p, max_iter)
    grid = sample_slice(spec, window, dims, params, threads=threads)
    vox_path, cloud_path = _outputs("render3d", out)
    grid.write_mbv1(vox_path)
    grid.write_pointcloud(cloud_path)
    # Counted once; volume_estimate() would count the members again.
    members = grid.member_count()
    print(f"member_cells={members}")
    print(f"volume_estimate={members * grid.cell_volume()!r}")
    return grid, vox_path, cloud_path


def cmd_verify(suite: str, seed: int = 0, out=None) -> int:
    """Run the module property suites; exit 0 iff every check passes."""
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    results = run_suites(names, seed=seed)
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
        txt_path, json_path = _outputs("verify", out)
        txt_path.write_text(text)
        json_path.write_text(json.dumps(
            {"suite": suite, "seed": seed, "version": __version__,
             "overall": overall, "checks": checks_json}, indent=2) + "\n")
    return 0 if overall else 1


def cmd_estimate(kind: str, p: int, precision=None, out=None) -> dict:
    """Numeric estimate next to the closed-form value and relative error."""
    threads = _threads()
    if kind == "real-extent":
        tol = float(precision) if precision else 1e-4
        (lo, hi), (lo_ref, hi_ref), agrees, proven = real_extent_check(p, tol)
        report = {
            "kind": kind, "p": p,
            "measured_lo": lo, "measured_hi": hi,
            "closed_form_lo": lo_ref, "closed_form_hi": hi_ref,
            "rel_error": max(abs(hi - hi_ref) / abs(hi_ref),
                             abs(lo - lo_ref) / abs(lo_ref)),
        }
    elif kind == "hyperbric-area":
        n = int(precision) if precision else 2000
        lo_ref, hi_ref = real_extent_closed_form(p)
        area_ref = (hi_ref - lo_ref) ** 2 / 2.0
        half = max(abs(lo_ref), abs(hi_ref)) * 1.1
        xs = cell_centers(-half, half, n)
        ga, gb = np.meshgrid(xs, xs, copy=False)
        params = IterationParams(p, 2000)
        _, member = grid_counts_hyperbolic(ga, gb, params, threads=threads)
        cell = (2.0 * half / n) ** 2
        area = float(member.sum()) * cell
        report = {
            "kind": kind, "p": p, "samples": n * n,
            "measured_area": area, "closed_form_area": area_ref,
            "rel_error": abs(area - area_ref) / area_ref,
        }
        agrees, proven = report["rel_error"] <= 0.02, p == 3
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
        }
        agrees, proven = report["rel_error"] <= 0.05, True
    else:
        raise ValueError(f"unknown estimate kind {kind!r}")
    # Whether the closed form is proven, and whether the measurement agrees
    # with it, are reported separately: a proven form can still be missed.
    report["status"] = (("theorem" if agrees else "theorem inconsistent") if proven
                        else "conjecture consistent" if agrees
                        else "conjecture inconsistent")
    text = "".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n"
                   for k, v in report.items())
    print(text, end="")
    if out is not None:
        txt_path, json_path = _outputs("estimate", out)
        txt_path.write_text(text)
        json_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


class ManifestError(ValueError):
    """A manifest that cannot be read or does not describe a rerunnable command."""


class _Parser(argparse.ArgumentParser):
    """Reports every error, a subcommand's too, under the one prefix
    `mbkit: error:` (argparse would name the subcommand in it)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"mbkit: error: {message}\n")


class _ManifestParser(argparse.ArgumentParser):
    def error(self, message):
        raise ManifestError(message)


def _load_manifest(manifest_path) -> dict:
    """Read a manifest, raising ManifestError unless it names a command to rerun."""
    try:
        manifest = json.loads(Path(manifest_path).read_text())
    except OSError as exc:
        raise ManifestError(f"cannot read: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"not JSON: {exc}") from None
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("parameters"), dict)
            and isinstance(manifest.get("outputs"), dict) and manifest["outputs"]):
        raise ManifestError("needs a command, parameters and outputs")
    command = manifest.get("command")
    if not (isinstance(command, str) and command in _OUTPUT_SUFFIXES):
        raise ManifestError(f"cannot rerun command {command!r}")
    for name in manifest["outputs"]:
        # A path would let the digest check read outside the output directory.
        if Path(name).name != name or name in ("", ".."):
            raise ManifestError(f"output {name!r} is not a bare file name")
    return manifest


def _option_text(value, sep: str = ",") -> str:
    """A recorded value as its option's text: a list joined by commas, a
    pair within it as lo:hi."""
    if isinstance(value, list):
        return sep.join(_option_text(v, ":") for v in value)
    return str(value)


def _rerun_argv(manifest: dict, out_dir: Path) -> list[str]:
    """The command line that wrote a manifest, with its outputs going to out_dir."""
    command = manifest["command"]
    first = Path(next(iter(manifest["outputs"])))
    # render2d writes --out itself, the others --out plus one suffix.
    out = out_dir / (first.name if command == "render2d" else first.stem)
    # Attached with '=', as a window such as -1.5:1.5 starts with '-'.
    return [command] + [f"--{key.replace('_', '-')}={_option_text(value)}"
                        for key, value in manifest["parameters"].items()
                        if key not in _RETIRED.get(command, {})] + [f"--out={out}"]


def _check_round_trip(manifest: dict, args: argparse.Namespace) -> None:
    """Refuse a manifest unless each recorded parameter is what its option
    parses back to, and every option the parse sets is recorded."""
    recorded = {key: value for key, value in manifest["parameters"].items()
                if key not in _RETIRED.get(args.command, {})}
    parsed = _parameters(args)
    for key in sorted(recorded.keys() | parsed.keys()):
        if key not in recorded:
            raise ManifestError(f"lacks {args.command} parameter {key}")
        if key not in parsed:
            raise ManifestError(f"parameter {key}: not an option {args.command} records")
        if recorded[key] != parsed[key]:
            raise ManifestError(f"parameter {key}: {json.dumps(recorded[key])} "
                                f"reads back as {json.dumps(parsed[key])}")


# Parameters that older manifests record but no option sets any more, each
# with the value every run now uses, as a function of the parsed arguments:
# the escape radius is always the sharp bound of p, and render3d no longer
# prunes.  Such a manifest reruns only if it records that value.
_RETIRED = {
    "render2d": {"escape_radius": lambda args: escape_bound(args.p)},
    "render3d": {"prune": lambda args: False},
}


def _check_retired(manifest: dict, args: argparse.Namespace) -> None:
    params = manifest["parameters"]
    for key, now in _RETIRED.get(args.command, {}).items():
        if key in params:
            value, fixed = params[key], now(args)
            # A bool only matches a bool: JSON's 0 is not false.
            if isinstance(value, bool) != isinstance(fixed, bool) or value != fixed:
                raise ManifestError(f"parameter {key}: {json.dumps(value)} is not "
                                    f"{json.dumps(fixed)}, the value every "
                                    f"{args.command} run now uses")


def cmd_rerun(manifest_path, out_dir=None) -> int:
    """Re-execute a manifest's command line and compare output digests."""
    out_dir = Path(out_dir) if out_dir else Path(manifest_path).parent / "rerun"
    try:
        manifest = _load_manifest(manifest_path)
        # The command line's own parser and checks, so a rerun accepts
        # exactly what the command line accepts.
        args = _parse_args(_ManifestParser, _rerun_argv(manifest, out_dir))
        _check_round_trip(manifest, args)
        _check_retired(manifest, args)
    except ManifestError as exc:
        raise ManifestError(f"manifest {str(manifest_path)!r}: {exc}") from None
    if manifest.get("version") != __version__:
        print(f"mbkit: warning: manifest written by mbkit {manifest.get('version')}, "
              f"rerunning with {__version__}", file=sys.stderr)
    # The command line's grid guard too, before the directory is made.
    _reserve(_grid(args))
    out_dir.mkdir(parents=True, exist_ok=True)
    _run(args)  # a failing verify still writes the reports compared below
    ok = True
    for name, digest in manifest["outputs"].items():
        path = out_dir / name
        got = _sha256(path) if path.is_file() else "missing"
        match = got == digest
        ok &= match
        print(f"{name}: {'match' if match else 'MISMATCH'}")
    return 0 if ok else 1


# --- argument parsing -----------------------------------------------------------


def _int_between(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value
    return parse


_exponent = _int_between(2)
_positive_int = _int_between(1)
_max_iter = _int_between(1, MAX_ITER_LIMIT)


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
        if not (math.isfinite(hi - lo) and math.isfinite(hi + lo)):
            raise argparse.ArgumentTypeError(
                f"range {part!r} overflows: hi - lo and hi + lo must be finite")
        window.append((lo, hi))
    return tuple(window)


def _window2(text: str):
    return _parse_window(text, 2)


def _window3(text: str):
    return _parse_window(text, 3)


def _sizes(count: int):
    """N, meaning N per axis, or exactly `count` comma-separated sizes."""
    def parse(text: str):
        parts = [_positive_int(v) for v in text.split(",")]
        if len(parts) == 1:
            parts *= count
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"expected N or {count} comma-separated sizes, got {text!r}")
        return tuple(parts)
    return parse


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


_SETS = ("multibrot", "hyperbrot")
_ESTIMATE_KINDS = ("real-extent", "hyperbric-area", "perplexbric-volume")

def build_parser(parser_class=_Parser) -> argparse.ArgumentParser:
    ap = parser_class(
        prog="mbkit",
        description="Multibrot renders, 3D slice exports and numeric verification.",
    )
    ap.add_argument("--version", action="version", version=f"mbkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    r2 = sub.add_parser("render2d", help="render a 2D set to a P5 graymap")
    r2.add_argument("--set", choices=_SETS, default="multibrot")
    r2.add_argument("--p", type=_exponent, default=3)
    r2.add_argument("--window", type=_window2, default=((-1.5, 1.5), (-1.5, 1.5)),
                    help="x0:x1,y0:y1 (default -1.5:1.5 squared)")
    r2.add_argument("--res", type=_sizes(2), default=(1000, 1000),
                    help="N or W,H pixels (default 1000)")
    r2.add_argument("--max-iter", type=_max_iter, default=1000)
    r2.add_argument("--out", required=True)

    r3 = sub.add_parser("render3d", help="export a 3D slice voxel grid + point cloud")
    r3.add_argument("--slice", type=_slice_spec, default="1,j1,j2",
                    help="three units, e.g. 1,i1,i2")
    r3.add_argument("--p", type=_exponent, default=3)
    r3.add_argument("--window", type=_window3,
                    default=((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)))
    r3.add_argument("--dims", type=_sizes(3), default=(128, 128, 128))
    r3.add_argument("--max-iter", type=_max_iter, default=1000)
    r3.add_argument("--out", required=True)

    vf = sub.add_parser("verify", help="run numeric verification suites")
    vf.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    vf.add_argument("--seed", type=_int_between(0), default=0)
    vf.add_argument("--out", default=None)

    es = sub.add_parser("estimate", help="estimate a quantity with its closed form")
    es.add_argument("--kind", required=True, choices=_ESTIMATE_KINDS)
    es.add_argument("--p", type=_exponent, default=3)
    es.add_argument("--precision", default=None,
                    help="bisection tolerance (real-extent) or grid size (others)")
    es.add_argument("--out", default=None)

    rr = sub.add_parser("rerun", help="re-execute a manifest and compare digests")
    rr.add_argument("--manifest", required=True)
    rr.add_argument("--out-dir", default=None)
    return ap


def _parse_args(parser_class, argv) -> argparse.Namespace:
    """Parse a command line and make the checks that span several options."""
    ap = build_parser(parser_class)
    args = ap.parse_args(argv)
    if args.command == "estimate":
        if args.precision is not None:
            precision = _precision(args.kind, args.precision)
            if precision is None:
                ap.error(f"argument --precision: invalid value {args.precision!r} "
                         f"for --kind {args.kind}")
            args.precision = precision
        if args.kind == "perplexbric-volume" and args.p != 3:
            ap.error("argument --p: the perplexbric-volume closed form holds for p = 3")
    grid = _grid(args)
    if grid is not None:
        option, sizes, itemsize = grid
        # An array numpy cannot even describe: rejected before any allocation.
        if math.prod(sizes) * itemsize > np.iinfo(np.intp).max:
            ap.error(f"argument {option}: {'x'.join(map(str, sizes))} cells exceed "
                     "numpy's maximum array size")
    return args


def _grid(args: argparse.Namespace):
    """The option giving a command's grid size, the sizes, and the bytes per
    cell of its largest array: render2d's complex128 parameters, and the
    uint32 counts of hyperbric-area, render3d and perplexbric-volume."""
    if args.command == "render2d":
        return "--res", args.res, 16
    if args.command == "render3d":
        return "--dims", args.dims, 4
    if args.command == "estimate" and args.precision is not None:
        if args.kind == "hyperbric-area":
            return "--precision", (args.precision,) * 2, 4
        if args.kind == "perplexbric-volume":
            return "--precision", (args.precision,) * 3, 4
    return None


def _reserve(grid) -> None:
    """Map the bytes of the largest array of a command's grid (_grid) and
    unmap them untouched, so a grid the machine cannot hold is refused with
    a MemoryError before any axis or output exists.  An np.empty freed at
    once would do the same through malloc, but raise its threshold for
    mapping arrays of their own, so the command's later arrays would stay
    in the heap and its peak resident memory grow."""
    if grid is not None:
        _, sizes, itemsize = grid
        nbytes = math.prod(sizes) * itemsize
        try:
            mmap.mmap(-1, nbytes).close()
        except OSError:
            raise MemoryError(f"Unable to allocate {nbytes:,} bytes for "
                              f"{'x'.join(map(str, sizes))} cells") from None


def _run(args: argparse.Namespace) -> int:
    """Run the command that parsed arguments name, writing its manifest when
    it has an --out; return its exit code."""
    if args.command == "rerun":
        try:
            return cmd_rerun(args.manifest, args.out_dir)
        except ManifestError as exc:
            print(f"mbkit: error: {exc}", file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    code = 0
    if args.command == "render2d":
        cmd_render2d(args.set, args.p, args.window, args.res,
                     args.max_iter, args.out)
    elif args.command == "render3d":
        cmd_render3d(args.slice, args.p, args.window, args.dims,
                     args.max_iter, args.out)
    elif args.command == "verify":
        code = cmd_verify(args.suite, seed=args.seed, out=args.out)
    else:
        cmd_estimate(args.kind, args.p, precision=args.precision, out=args.out)
    if args.out is not None:
        _write_manifest(args, time.perf_counter() - t0)
    return code


def main(argv=None) -> int:
    args = _parse_args(_Parser, argv)
    # Checked here, not by the parser: rerun parses its command line before
    # it makes the output directory.
    out = getattr(args, "out", None)
    if out is not None:
        if not Path(out).parent.is_dir():
            print(f"mbkit: error: argument --out: no directory {str(Path(out).parent)!r}",
                  file=sys.stderr)
            return 2
        for path in _outputs(args.command, out) + [_manifest_path(out)]:
            if path.is_dir():
                print(f"mbkit: error: argument --out: {str(path)!r} is a directory",
                      file=sys.stderr)
                return 2
    try:
        _reserve(_grid(args))
        return _run(args)
    except MemoryError as exc:
        print(f"mbkit: error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        # An output path that cannot be written: a directory, or a file
        # where a directory should be.
        where = f": {str(exc.filename)!r}" if exc.filename else ""
        print(f"mbkit: error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
