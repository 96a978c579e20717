import argparse
import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mbkit
from mbkit import __version__, cli, dynamics
from mbkit.cli import (
    _RERUN_OPTIONS,
    _threads,
    build_parser,
    cmd_estimate,
    cmd_render2d,
    cmd_render3d,
    cmd_rerun,
    cmd_verify,
    main,
    shade,
    write_pgm,
)
from mbkit.hypercomplex import PRODUCT_TABLE
from mbkit.roots import MANDELBRIC_REAL_BOUND
from mbkit.suites import algebra_suite


def _read_pgm(path):
    blob = path.read_bytes()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def test_shade_ramp_monotone():
    counts = np.arange(1, 101, dtype=np.uint32)
    member = np.zeros(100, dtype=bool)
    vals = shade(counts, member, 100)
    assert vals[0] == 255 and vals[-1] == 1
    assert (np.diff(vals.astype(int)) <= 0).all()
    member[-1] = True
    assert shade(counts, member, 100)[-1] == 0


def _shade_whole_array(counts, member, max_iter):
    """The ramp formula on whole-array int64 temporaries: the reference
    for shade."""
    counts = counts.astype(np.int64)
    if max_iter > 1:
        vals = 255 - ((counts - 1) * 254) // (max_iter - 1)
    else:
        vals = np.full_like(counts, 255)
    vals[member] = 0
    return vals.astype(np.uint8)


@pytest.mark.parametrize("max_iter", [1, 2, 1000, 2 ** 32 - 1])
def test_shade_matches_the_whole_array_formula(max_iter, rng):
    counts = rng.integers(1, max_iter, 20_000, endpoint=True).astype(np.uint32)
    counts[:2] = 1, max_iter
    member = rng.random(counts.size) < 0.3
    image = shade(counts, member, max_iter)
    assert image.dtype == np.uint8
    assert image.tobytes() == _shade_whole_array(counts, member, max_iter).tobytes()


def test_shade_holds_one_int64_array_and_the_image(rng):
    # 8 B/cell of int64 ramp plus the 1 B/cell image; the whole-array
    # formula peaked at 24 B/cell.
    n = 1000 * 1000
    counts = rng.integers(1, 1000, n, endpoint=True).astype(np.uint32)
    member = counts == 1000
    tracemalloc.start()
    try:
        shade(counts, member, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n


def test_render2d_single_pixel(tmp_path):
    out = tmp_path / "one.pgm"
    cmd_render2d("multibrot", 3, ((-0.2, 0.2), (-0.2, 0.2)), 1, 50, out)
    img = _read_pgm(out)
    assert img.shape == (1, 1)
    assert img[0, 0] == 0  # c = 0 is a member


def test_render2d_symmetries(tmp_path):
    out = tmp_path / "m3.pgm"
    cmd_render2d("multibrot", 3, ((-1.5, 1.5), (-1.5, 1.5)), 64, 120, out)
    img = _read_pgm(out)
    assert np.array_equal(img, img[::-1, :])  # conjugation
    assert np.array_equal(img, img[:, ::-1])  # negation of the real part


def test_render2d_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("MBK_THREADS", threads)
        out = tmp_path / f"t{threads}.pgm"
        cmd_render2d("multibrot", 3, ((-1.5, 1.5), (-1.5, 1.5)), 96, 150, out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_render2d_hyperbrot_square(tmp_path):
    from mbkit.slices import cell_centers

    out = tmp_path / "h3.pgm"
    cmd_render2d("hyperbrot", 3, ((-0.4, 0.4), (-0.4, 0.4)), 80, 400, out)
    img = _read_pgm(out)
    xs = cell_centers(-0.4, 0.4, 80)
    l1 = np.abs(xs[None, :]) + np.abs(xs[::-1][:, None])
    away = np.abs(l1 - MANDELBRIC_REAL_BOUND) > 2 * 0.8 / 80
    assert np.array_equal((img == 0)[away], (l1 <= MANDELBRIC_REAL_BOUND)[away])


def test_render3d_outputs_and_rerun(tmp_path, capsys):
    base = tmp_path / "perp"
    grid, vox, cloud = cmd_render3d("1,j1,j2", 3, ((-0.5, 0.5),) * 3, (16, 16, 16),
                                    120, base)
    printed = capsys.readouterr().out
    assert f"member_cells={grid.member_count()}" in printed
    assert f"volume_estimate={grid.volume_estimate()!r}" in printed
    assert vox.exists() and cloud.exists()
    manifest_path = tmp_path / "perp.manifest.json"
    assert manifest_path.exists()
    assert cmd_rerun(manifest_path, tmp_path / "redo") == 0
    # A tampered digest must be caught.
    manifest = json.loads(manifest_path.read_text())
    key = next(iter(manifest["outputs"]))
    manifest["outputs"][key] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    assert cmd_rerun(manifest_path, tmp_path / "redo2") == 1


def test_render2d_manifest_digest_matches(tmp_path):
    import hashlib

    out = tmp_path / "img.pgm"
    cmd_render2d("multibrot", 2, ((-2.2, 0.8), (-1.5, 1.5)), 32, 80, out)
    manifest = json.loads((tmp_path / "img.pgm.manifest.json").read_text())
    assert manifest["command"] == "render2d"
    assert manifest["outputs"]["img.pgm"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert "seed" not in manifest
    # Older manifests still carry the render seed, which had no effect.
    manifest["seed"] = 7
    old = tmp_path / "old.manifest.json"
    old.write_text(json.dumps(manifest))
    assert cmd_rerun(old, tmp_path / "redo") == 0


def test_verify_exit_codes(tmp_path, capsys):
    assert cmd_verify("roots", seed=5, out=tmp_path / "r") == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["overall"] is True
    assert all(c["passed"] for c in report["checks"])
    text = (tmp_path / "r.txt").read_text()
    assert "overall=pass" in text


# The report commands of the benchmark's check workload at seed 0, by label.
_PINNED_REPORTS = {
    **{f"verify_{suite}": ["verify", "--suite", suite, "--seed", "0"]
       for suite in ("algebra", "roots", "dynamics", "slices")},
    **{f"real_extent_p{p}": ["estimate", "--kind", "real-extent", "--p", str(p)]
       for p in range(2, 7)},
    "hyperbric_area_p3": ["estimate", "--kind", "hyperbric-area", "--p", "3"],
}


@pytest.mark.parametrize("label", list(_PINNED_REPORTS))
def test_reports_and_oracle_steps_are_pinned(label, tmp_path, monkeypatch, capsys):
    # The digests the benchmark checks (read, never written here), and the
    # iterations the direct oracle reports, summed over the command.
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    iterate = dynamics.iterate_tricomplex
    steps = []

    def counted(*args, **kwargs):
        result = iterate(*args, **kwargs)
        steps.append(result.iterations)
        return result

    monkeypatch.setattr(dynamics, "iterate_tricomplex", counted)
    assert main(_PINNED_REPORTS[label] + ["--out", str(tmp_path / label)]) == 0
    capsys.readouterr()
    for name in (f"{label}.json", f"{label}.txt"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == reference["digests"][name], name
    # Only the dynamics suite calls the direct oracle: 481,929 at the time
    # of writing, the whole of the verify commands' count.
    want = reference["counts"]["check"]["verify"]["iterate_tricomplex_steps"]
    assert sum(steps) == (want if label == "verify_dynamics" else 0)


# The slices report at seeds the benchmark does not run, by seed: (txt, json).
_SLICES_REPORTS = {
    3: ("659efde49634abf99f4921c4437289063c67ba4c85ca94b84c964f9c55865f19",
        "a0b266a869fc743e6927ed5ee430a58f311d52f648e392607b89ae1e23e0447b"),
    7: ("99738cea094161fedb08e25a8b5dcc2441d2563964d528d7b982cb08f19b15bf",
        "42cc904825a683c71e143020544b5d1c054d43f4016df86abc68a366d7def9a1"),
}


@pytest.mark.parametrize("seed", list(_SLICES_REPORTS))
def test_slices_report_is_pinned_at_other_seeds(seed, tmp_path, capsys):
    out = tmp_path / "slices"
    assert main(["verify", "--suite", "slices", "--seed", str(seed),
                 "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"slices.{ext}").read_bytes()).hexdigest()
                    for ext in ("txt", "json"))
    assert digests == _SLICES_REPORTS[seed]
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(tmp_path / "slices.manifest.json"),
                 "--out-dir", str(tmp_path / "redo")]) == 0
    assert capsys.readouterr().out.count(": match") == 2


# The render3d outputs at a seed whose windows are shifted by fractions of a
# cell, which reference.json does not pin: Perplexbric 128^3 and Tetrabric
# 96^3 as perfbench/run.py renders them at seed 3.
_RENDER3D_SEED3 = {
    "perplexbric.mbv1": "868a5262eb0971e8f265497a3b2a8e79e64de99aadf24e2aeff7385778212f10",
    "perplexbric.xyz": "e6fee9283f1d7980752b2391c94e3466acdbe4a33b025d2cc9d228643c7cfb1e",
    "tetrabric.mbv1": "30f72f554ece46f6e9191cdf20298dbb29ebf69fb9984583e60fa6d42297f972",
    "tetrabric.xyz": "89b81cf376d10d8b9d24914c172a127fc2dc7e8f4c18919234fd88ffd8819edc",
}


def _benchmark_runner():
    """perfbench/run.py as a module, for its workload command lines."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 3])
def test_render3d_benchmark_outputs_are_pinned(seed, tmp_path, monkeypatch, capsys):
    # The benchmark's render3d commands, run as it runs them: at seed 0
    # against the digests it checks (read, never written here), at seed 3
    # against those pinned above.
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())["digests"]
    monkeypatch.setenv("MBK_THREADS", "2")
    digests = {}
    for command in _benchmark_runner().workload_commands("render3d", seed, tmp_path):
        assert main(command["argv"]) == 0
        for name in command["outputs"]:
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    capsys.readouterr()
    want = _RENDER3D_SEED3 if seed else {name: reference[name] for name in _RENDER3D_SEED3}
    assert digests == want


def test_estimate_real_extent_below_float_spacing_stops_at_adjacent_floats(
        tmp_path, monkeypatch, capsys):
    # A tolerance finer than the float spacing used to loop forever once the
    # bracket was two adjacent floats; a bisection needs ~60 calls a side.
    iterate = dynamics.iterate_complex
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) < 1000, "the bisection does not stop"
        return iterate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "iterate_complex", counted)
    out = tmp_path / "re"
    assert main(["estimate", "--kind", "real-extent", "--p", "3",
                 "--precision", "1e-300", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "re.json").read_text())
    params = dynamics.IterationParams(3, 2000)

    def member(c):
        return not iterate(complex(c), params).escaped

    for end in (report["measured_lo"], report["measured_hi"]):
        # Each endpoint is one end of a member / escaping pair of adjacent floats.
        near = {member(np.nextafter(end, -1.0)), member(end), member(np.nextafter(end, 1.0))}
        assert near == {True, False}, end
    assert abs(report["measured_hi"] - MANDELBRIC_REAL_BOUND) <= 1e-3


def test_corrupted_unit_table_fails_with_witness():
    table = [list(row) for row in PRODUCT_TABLE]
    table[1][2] = (-1, 5)  # flip the sign of i1 * i2
    table = tuple(tuple(row) for row in table)
    results = algebra_suite(seed=0, product_table=table)
    failing = [r for r in results if not r.passed]
    assert failing
    assert any(r.witness for r in failing)


def test_estimate_real_extent(capsys):
    report = cmd_estimate("real-extent", 3)
    capsys.readouterr()
    assert report["status"] == "theorem"
    assert abs(report["measured_hi"] - MANDELBRIC_REAL_BOUND) <= 1e-3
    report = cmd_estimate("real-extent", 5)
    capsys.readouterr()
    assert report["status"] == "conjecture consistent"
    assert abs(report["measured_hi"] - 4 * 5 ** -1.25) <= 1e-3


@pytest.mark.parametrize("kind, p, precision, status", [
    ("real-extent", 3, "1", "theorem inconsistent"),
    ("hyperbric-area", 3, "3", "theorem inconsistent"),
    ("perplexbric-volume", 3, "4", "theorem inconsistent"),
    ("real-extent", 5, "1", "conjecture inconsistent"),
])
def test_estimate_status_reports_the_measurement(kind, p, precision, status, capsys):
    # A coarse measurement misses even a proven closed form, and says so.
    assert main(["estimate", "--kind", kind, "--p", str(p),
                 "--precision", precision]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"status={status}"
    rel_error = float(next(ln for ln in lines if ln.startswith("rel_error="))[10:])
    assert rel_error > 0.2


def test_estimate_hyperbric_area(capsys):
    report = cmd_estimate("hyperbric-area", 3, precision=300)
    capsys.readouterr()
    assert abs(report["measured_area"] - 8 / 27) / (8 / 27) <= 0.02
    assert report["closed_form_area"] == pytest.approx(8 / 27)


def test_estimate_perplexbric_volume_small(capsys):
    # Lattice discretization bias at 48^3 is ~8%; the 5% target needs the
    # full 128^3 run exercised by the acceptance suite.
    report = cmd_estimate("perplexbric-volume", 3, precision=48)
    capsys.readouterr()
    assert report["rel_error"] <= 0.12
    with pytest.raises(ValueError):
        cmd_estimate("perplexbric-volume", 2)


def test_main_parses_and_runs(tmp_path, capsys):
    out = tmp_path / "cli.pgm"
    rc = main(["render2d", "--set", "multibrot", "--p", "3",
               "--window=-1.5:1.5,-1.5:1.5", "--res", "16",
               "--max-iter", "40", "--out", str(out)])
    assert rc == 0 and out.exists()
    rc = main(["estimate", "--kind", "real-extent", "--p", "2"])
    capsys.readouterr()
    assert rc == 0


def _parser_options() -> set[str]:
    ap = build_parser()
    parsers = [ap] + [sub for action in ap._actions
                      if isinstance(action, argparse._SubParsersAction)
                      for sub in action.choices.values()]
    return {opt for parser in parsers for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")}


def test_readme_names_exactly_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    options = _parser_options()
    assert named - options == {"--no-build-isolation"}  # a pip option
    assert options - named == {"--help", "--version"}


def test_readme_python_examples_run(tmp_path):
    # Each ```python block of README.md, alone in a fresh interpreter.
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(),
                        re.S | re.M)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for block in blocks:
        run = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, block + run.stderr


def test_package_exports_agree():
    # Every name in __all__ resolves, and every public name the package
    # imports is in __all__.
    assert all(hasattr(mbkit, name) for name in mbkit.__all__)
    tree = ast.parse(Path(mbkit.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public and public <= set(mbkit.__all__)


def test_every_private_name_is_used():
    # A private top-level function, class or assigned name that nothing in
    # the package loads, as a name, an attribute or an import, is dead code.
    defined, loaded = set(), set()
    for path in Path(mbkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert private and not private - loaded, sorted(private - loaded)


def test_parser_rejects_bad_window():
    ap = build_parser()
    with pytest.raises(SystemExit):
        ap.parse_args(["render2d", "--window", "0:1", "--out", "x.pgm"])


@pytest.mark.parametrize("argv", [
    ["render2d", "--p", "1"],
    ["render2d", "--res", "0"],
    ["render2d", "--res", "8,0"],
    ["render2d", "--res", "1,2,3"],
    ["render2d", "--res", "abc"],
    ["render2d", "--max-iter", "0"],
    ["render2d", "--max-iter", "5000000000"],
    ["render2d", "--max-iter", "4294967296", "--escape-radius", "2"],
    ["render2d", "--window=1:-1,-1:1"],
    ["render2d", "--window=0:0,-1:1"],
    ["render2d", "--window=-1e308:1e308,-1:1"],
    # The escape radius is no longer an option; argparse rejects it.
    ["render2d", "--escape-radius", "0.5"],
    ["render2d", "--escape-radius", "nan"],
    ["render2d", "--escape-radius", "inf"],
    ["render3d", "--dims", "0"],
    ["render3d", "--dims", "8,0,8"],
    ["render3d", "--dims", "abc"],
    ["render3d", "--p", "1"],
    ["render3d", "--max-iter", "0"],
    ["render3d", "--max-iter", "4294967296"],
    ["render3d", "--slice", "1,1,j1"],
    ["render3d", "--window=-1:1,1:-1,-1:1"],
    ["render3d", "--window=-1:1,1.7e308:1.79e308,-1:1"],
    ["verify", "--seed", "-1"],
    ["verify", "--suite", "nope"],
    ["frobnicate"],
    ["estimate", "--kind", "real-extent", "--precision", "abc"],
    ["estimate", "--kind", "real-extent", "--precision", "0"],
    ["estimate", "--kind", "hyperbric-area", "--precision", "1e-4"],
    ["estimate", "--kind", "perplexbric-volume", "--p", "2"],
    # Output paths that cannot be written: {file} is a file, {dir} a
    # directory holding a directory x.txt.
    ["rerun", "--manifest", "{manifest}", "--out-dir", "{file}"],
    ["rerun", "--manifest", "{manifest}", "--out-dir", "{file}/sub"],
    ["render2d", "--res", "4", "--out", "{dir}"],
    ["verify", "--suite", "roots", "--out", "{dir}/x"],
], ids=" ".join)
def test_bad_cli_input_exits_2_with_one_line_error(argv, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "x.txt").mkdir(parents=True)
    manifest = tmp_path / "ext.manifest.json"
    manifest.write_text(json.dumps({**_GOOD_MANIFEST, "version": __version__}))
    before = sorted(tmp_path.rglob("*"))
    argv = [a.format(file=tmp_path / "file", dir=tmp_path / "dir", manifest=manifest)
            for a in argv]
    if argv[0] in ("render2d", "render3d") and "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "x")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    # Subcommand errors too carry the one documented prefix.
    _assert_one_error_line(capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before  # no output, no manifest


@pytest.mark.parametrize("argv", [
    ["render2d", "--max-iter", "4294967296"],
    ["render2d", "--max-iter", "5000000000", "--escape-radius", "2"],
    ["render3d", "--max-iter", "4294967296"],
], ids=" ".join)
def test_max_iter_beyond_uint32_names_the_option(argv, tmp_path, capsys):
    # The counts are uint32: a larger budget used to reach np.full and raise
    # OverflowError with a traceback.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    line = _assert_one_error_line(capsys.readouterr().err)
    assert line.startswith("mbkit: error: argument --max-iter: must be <= 4294967295")
    args = build_parser().parse_args([argv[0], "--max-iter", "4294967295", "--out", "x"])
    assert args.max_iter == 2 ** 32 - 1


def test_repeated_slice_unit_error_shows_the_labels(tmp_path, capsys):
    # The units used to print as (<UnitIndex.ONE: 0>, <UnitIndex.J1: 5>, ...).
    with pytest.raises(SystemExit) as exc:
        main(["render3d", "--slice", "1,j1,j1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    line = _assert_one_error_line(capsys.readouterr().err)
    assert line == ("mbkit: error: argument --slice: "
                    "slice units must be distinct, got 1,j1,j1")
    path = tmp_path / "m.manifest.json"
    path.write_text(json.dumps({**_GOOD_MANIFEST, "command": "render3d", "parameters": {
        **_GOOD_RENDER3D, "slice": "1,j1,j1"}}))
    assert main(["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "redo")]) == 2
    line = _assert_one_error_line(capsys.readouterr().err)
    assert line.endswith("argument --slice: slice units must be distinct, got 1,j1,j1")
    assert not (tmp_path / "redo").exists()


# Grid sizes whose largest array numpy rejects before allocating, as more
# bytes than its maximum array size: the shape and dtype of that array.
_TOO_LARGE = [
    (["render3d", "--dims", "2000000"], (2000000,) * 3, np.uint32),
    (["render3d", "--dims", "1,4000000000,4000000000"], (1, 4000000000, 4000000000),
     np.uint32),
    (["render2d", "--res", "3000000000"], (3000000000,) * 2, np.complex128),
    (["render2d", "--res", "4,9000000000000000000"], (9000000000000000000, 4),
     np.complex128),
    (["estimate", "--kind", "hyperbric-area", "--precision", "3000000000"],
     (3000000000,) * 2, np.uint32),
    (["estimate", "--kind", "perplexbric-volume", "--precision", "3000000"],
     (3000000,) * 3, np.uint32),
]


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work")


def _forbid_work(monkeypatch):
    for name in ("cell_centers", "sample_slice", "grid_counts_complex",
                 "grid_counts_hyperbolic", "run_suites", "real_extent_check"):
        monkeypatch.setattr(cli, name, _no_work)


def _assert_one_error_line(err):
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(lines) == 1 and lines[0].startswith("mbkit: error: ")
    return lines[0]


@pytest.mark.parametrize("argv, shape, dtype", _TOO_LARGE,
                         ids=[" ".join(case[0]) for case in _TOO_LARGE])
def test_grid_too_large_for_numpy_exits_2_before_allocating(argv, shape, dtype, tmp_path,
                                                            capsys, monkeypatch):
    with pytest.raises(ValueError, match="too big"):
        np.empty(shape, dtype=dtype)
    _forbid_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    line = _assert_one_error_line(capsys.readouterr().err)
    assert "maximum array size" in line
    assert not any(tmp_path.iterdir())


def _run_out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 58.2 TiB for an array")


@pytest.mark.parametrize("argv, allocation", [
    (["render2d", "--res", "8"], "cell_centers"),
    (["render3d", "--dims", "4"], "sample_slice"),
    (["estimate", "--kind", "hyperbric-area", "--precision", "8"], "cell_centers"),
], ids=["render2d", "render3d", "estimate"])
def test_out_of_memory_exits_2_with_one_line_error(argv, allocation, tmp_path, capsys,
                                                   monkeypatch):
    # The grid allocation is made to fail; no grid that large is ever asked for.
    monkeypatch.setattr(cli, allocation, _run_out_of_memory)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert "out of memory" in line and "58.2 TiB" in line
    assert out.out == "" and not any(tmp_path.iterdir())


def test_hyperbric_area_too_large_for_memory_exits_2_at_once(tmp_path, capsys,
                                                            monkeypatch):
    # 10^16 cells pass the array-size check, and the guard's untouched
    # mapping of the outputs' bytes is the first allocation to fail; before
    # it, the engine streamed its distinct pass over every cell.  The axis is
    # a zero-memory view, in case the guard lets the command run.
    monkeypatch.setattr(cli, "cell_centers",
                        lambda lo, hi, n: np.broadcast_to(np.float64(lo), (n,)))
    codes = []
    run = threading.Thread(daemon=True, target=lambda: codes.append(main(
        ["estimate", "--kind", "hyperbric-area", "--precision", "100000000",
         "--out", str(tmp_path / "x")])))
    run.start()
    run.join(timeout=20)
    assert not run.is_alive() and codes == [2]
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert line.startswith("mbkit: error: out of memory: Unable to allocate")
    assert out.out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["estimate", "--kind", "hyperbric-area", "--precision", "100000000"],
    ["estimate", "--kind", "perplexbric-volume", "--precision", "1000000"],
    ["render2d", "--res", "100000000"],
    ["render3d", "--dims", "1000000"],
], ids=lambda argv: " ".join(argv[:3]))
def test_grid_too_large_for_memory_is_refused_before_any_axis(argv, tmp_path, capsys,
                                                              monkeypatch):
    # Grids numpy can describe but no machine holds (35.5 PiB to 3.47 EiB):
    # the guard maps the bytes of the command's largest array without
    # touching them, so the command exits before building an axis.  The
    # hyperbric-area estimate used to spend 2.1 s and 1.56 GB on its axis.
    _forbid_work(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert line.startswith("mbkit: error: out of memory: Unable to allocate")
    assert out.out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["render2d", "--res", "8"],
    ["render3d", "--dims", "4"],
    ["verify", "--suite", "roots"],
    ["estimate", "--kind", "real-extent"],
], ids=lambda argv: argv[0])
def test_missing_output_directory_exits_2_before_the_work(argv, tmp_path, capsys,
                                                          monkeypatch):
    _forbid_work(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "nodir" / "x")]) == 2
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert "nodir" in line and out.out == ""
    assert not any(tmp_path.iterdir())
    # A file where the directory should be is refused the same way.
    (tmp_path / "file").write_text("")
    assert main(argv + ["--out", str(tmp_path / "file" / "x")]) == 2
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv, name", [
    (["render2d", "--res", "8"], "x"),
    (["render2d", "--res", "8"], "x.manifest.json"),
    (["render3d", "--dims", "4"], "x.mbv1"),
    (["render3d", "--dims", "4"], "x.xyz"),
    (["render3d", "--dims", "4"], "x.manifest.json"),
    (["verify", "--suite", "roots"], "x.txt"),
    (["verify", "--suite", "roots"], "x.json"),
    (["verify", "--suite", "roots"], "x.manifest.json"),
    (["estimate", "--kind", "real-extent"], "x.txt"),
    (["estimate", "--kind", "real-extent"], "x.json"),
    (["estimate", "--kind", "real-extent"], "x.manifest.json"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_output_name_taken_by_a_directory_exits_2_before_the_work(argv, name, tmp_path,
                                                                  capsys, monkeypatch):
    _forbid_work(monkeypatch)
    (tmp_path / name).mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert repr(str(tmp_path / name)) in line and "is a directory" in line
    assert out.out == "" and sorted(tmp_path.rglob("*")) == before


def _search_out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 58.2 TiB for an array")


def test_error_in_a_hyperbolic_worker_exits_2_and_stops_the_workers(tmp_path, capsys,
                                                                    monkeypatch):
    # np.searchsorted runs on the worker threads of the hyperbolic path's
    # second pass; as dynamics sees it, it fails there.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("MBK_THREADS", "2")
    monkeypatch.setattr(dynamics, "np", SimpleNamespace(
        **{**vars(np), "searchsorted": _search_out_of_memory}))
    before = threading.active_count()
    codes = []
    run = threading.Thread(target=lambda: codes.append(main(
        ["render2d", "--set", "hyperbrot", "--res", "64", "--max-iter", "50",
         "--window=-0.4:0.4,-0.4:0.4", "--out", str(tmp_path / "h.pgm")])))
    run.start()
    run.join(timeout=60)
    assert not run.is_alive() and codes == [2]
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert line.startswith("mbkit: error: out of memory") and "58.2 TiB" in line
    assert out.out == "" and not any(tmp_path.iterdir())
    assert threading.active_count() == before


def test_dotted_out_names_keep_their_files(tmp_path, capsys):
    # Each suffix is appended to the whole name, so run.1 and run.2 do not
    # both write run.mbv1.
    for name, max_iter in (("run.1", 30), ("run.2", 40)):
        cmd_render3d("1,i1,i2", 3, ((-1.5, 1.5),) * 3, (6, 6, 6), max_iter,
                     tmp_path / name)
    cmd_verify("roots", seed=0, out=tmp_path / "rep.v1")
    cmd_estimate("real-extent", 3, precision=1e-3, out=tmp_path / "ext.v1")
    capsys.readouterr()
    outputs = {"run.1": ["run.1.mbv1", "run.1.xyz"], "run.2": ["run.2.mbv1", "run.2.xyz"],
               "rep.v1": ["rep.v1.json", "rep.v1.txt"],
               "ext.v1": ["ext.v1.json", "ext.v1.txt"]}
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted([f"{name}.manifest.json" for name in outputs]
                             + [f for files in outputs.values() for f in files])
    assert (tmp_path / "run.1.mbv1").read_bytes() != (tmp_path / "run.2.mbv1").read_bytes()
    for name, files in outputs.items():
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == files
        # A rerun writes the same names.
        redo = tmp_path / f"redo_{name}"
        assert main(["rerun", "--manifest", str(tmp_path / f"{name}.manifest.json"),
                     "--out-dir", str(redo)]) == 0
        assert capsys.readouterr().out.count(": match") == 2
        assert sorted(p.name for p in redo.iterdir()) == sorted(
            files + [f"{name}.manifest.json"])


def test_bad_mbk_threads_warns(monkeypatch, capsys):
    for text in ("two", "0"):
        monkeypatch.setenv("MBK_THREADS", text)
        assert _threads() == 1
        assert "MBK_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("MBK_THREADS", "3")
    assert _threads() == 3
    assert capsys.readouterr().err == ""


def test_rerun_verify_and_estimate_manifests(tmp_path, capsys):
    assert cmd_verify("algebra", seed=0, out=tmp_path / "alg") == 0
    cmd_estimate("real-extent", 3, precision=1e-3, out=tmp_path / "ext")
    for name in ("alg", "ext"):
        manifest_path = tmp_path / f"{name}.manifest.json"
        capsys.readouterr()
        assert cmd_rerun(manifest_path, tmp_path / f"redo_{name}") == 0
        out = capsys.readouterr()
        assert out.out.count(": match") == 2 and "warning" not in out.err
    # A manifest from another version still reruns, with a warning.
    manifest_path = tmp_path / "alg.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["version"] == __version__
    manifest["version"] = "0.0.0-other"
    manifest_path.write_text(json.dumps(manifest))
    assert cmd_rerun(manifest_path, tmp_path / "redo_old") == 0
    err = capsys.readouterr().err
    assert "warning" in err and "0.0.0-other" in err
    # Through the command line too.
    assert main(["rerun", "--manifest", str(tmp_path / "ext.manifest.json"),
                 "--out-dir", str(tmp_path / "redo_cli")]) == 0
    assert capsys.readouterr().out.count(": match") == 2


_GOOD_MANIFEST = {"command": "estimate", "parameters": {"kind": "real-extent", "p": 3},
                  "outputs": {"ext.txt": "0" * 64}}
_GOOD_RENDER3D = {"slice": "1,j1,j2", "p": 3, "window": [[-0.5, 0.5]] * 3,
                  "dims": [4, 4, 4], "max_iter": 10, "prune": False}
_GOOD_RENDER2D = {"set": "multibrot", "p": 3, "window": [[-1.5, 1.5], [-1.5, 1.5]],
                  "res": [8, 8], "max_iter": 10}


@pytest.mark.parametrize("content", [
    None,
    b"{not json",
    b"\xff\xfe",
    b"[1, 2]",
    json.dumps({k: v for k, v in _GOOD_MANIFEST.items() if k != "command"}).encode(),
    json.dumps({k: v for k, v in _GOOD_MANIFEST.items() if k != "parameters"}).encode(),
    json.dumps({k: v for k, v in _GOOD_MANIFEST.items() if k != "outputs"}).encode(),
    json.dumps({**_GOOD_MANIFEST, "outputs": {}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": [3]}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render4d"}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": ["estimate"]}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d"}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent", "p": "x"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent", "p": 1}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent", "p": 3,
                                                 "precision": -1.0}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "perplexbric-volume",
                                                 "p": 4}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "dims": [0, 4, 4]}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d", "parameters": {
        **_GOOD_RENDER3D, "window": [[0.5, -0.5], [-0.5, 0.5], [-0.5, 0.5]]}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "slice": "1,j1,k9"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "max_iter": 0}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "prune": "no"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render2d", "parameters": {
        "set": "multibrot", "p": 3, "window": [[-1.5, 1.5], [-1.5, 1.5]],
        "res": [8, 8], "max_iter": 10, "escape_radius": 0.5}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "verify",
                "parameters": {"suite": "algebra", "seed": -1}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent", "p": [3]}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render2d",
                "parameters": {**_GOOD_RENDER2D, "res": [8]}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render2d",
                "parameters": {**_GOOD_RENDER2D, "window": "x"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render2d",
                "parameters": {**_GOOD_RENDER2D, "set": "julia"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "outputs": {"../x.pgm": "0" * 64}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "outputs": {"sub/x.pgm": "0" * 64}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "outputs": {"..": "0" * 64}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render2d", "parameters": _GOOD_RENDER2D,
                "outputs": {"": "0" * 64}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "max_iter": 2 ** 32}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render2d", "parameters": {
        **_GOOD_RENDER2D, "window": [[-1e308, 1e308], [-1.5, 1.5]]}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d", "parameters": {
        **_GOOD_RENDER3D, "window": [[-0.5, 0.5], [1.7e308, 1.79e308], [-0.5, 0.5]]}}).encode(),
], ids=["missing", "bad-json", "not-utf8", "list", "no-command", "no-parameters",
        "no-outputs", "empty-outputs", "list-parameters", "unknown-command",
        "list-command", "estimate-without-p", "render3d-with-estimate-parameters",
        "p-not-a-number", "p-below-2", "bad-precision", "volume-with-p-4",
        "zero-dims", "inverted-window", "bad-slice", "zero-max-iter", "prune-not-bool",
        "radius-below-bound", "negative-seed", "p-a-list", "res-one-entry",
        "window-not-a-list", "unknown-set", "output-in-parent-dir", "output-in-subdir",
        "output-dot-dot", "output-empty-name", "max-iter-beyond-uint32",
        "window-width-overflows", "window-sum-overflows"])
def test_rerun_bad_manifest_exits_2_with_one_line_error(content, tmp_path, capsys):
    path = tmp_path / "m.manifest.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["rerun", "--manifest", str(path),
                 "--out-dir", str(tmp_path / "redo")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert len(out.err.splitlines()) == 1 and out.err.startswith("mbkit: error: ")
    assert not (tmp_path / "redo").exists()


def test_rerun_of_a_manifest_that_records_the_escape_radius(tmp_path, capsys):
    # Manifests written while render2d took --escape-radius record it; every
    # default one records the sharp bound, and reruns as it did.
    out = tmp_path / "m.pgm"
    cmd_render2d("multibrot", 3, ((-1.5, 1.5), (-1.5, 1.5)), 16, 40, out)
    path = tmp_path / "m.pgm.manifest.json"
    manifest = json.loads(path.read_text())
    assert "escape_radius" not in manifest["parameters"]
    manifest["parameters"]["escape_radius"] = 1.4142135623730951
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "redo")]) == 0
    assert capsys.readouterr().out == "m.pgm: match\n"
    # Any other radius gave other bytes: no rerun can reproduce them.
    manifest["parameters"]["escape_radius"] = 2.0
    path.write_text(json.dumps(manifest))
    assert main(["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "redo2")]) == 2
    line = _assert_one_error_line(capsys.readouterr().err)
    assert line.startswith("mbkit: error: manifest ") and "escape_radius" in line
    assert not (tmp_path / "redo2").exists()


def _write_hyperbrot(out):
    cmd_render2d("hyperbrot", 3, ((-0.5, 0.5), (-0.4, 0.4)), (40, 20), 60, out / "h.pgm")
    return out / "h.pgm.manifest.json"


def _write_pruned_tetrabric(out):
    cmd_render3d("1,i1,i2", 3, ((-1.5, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (10, 8, 6), 40,
                 out / "tet", prune=True)
    return out / "tet.manifest.json"


def _write_hyperbric_area(out):
    cmd_estimate("hyperbric-area", 3, precision=60, out=out / "area")
    return out / "area.manifest.json"


def _write_real_extent(out):
    cmd_estimate("real-extent", 3, out=out / "ext")
    return out / "ext.manifest.json"


@pytest.mark.parametrize("write", [_write_hyperbrot, _write_pruned_tetrabric,
                                   _write_hyperbric_area, _write_real_extent],
                         ids=["render2d-hyperbrot-40x20", "render3d-tetrabric-pruned",
                              "estimate-area-int-precision",
                              "estimate-extent-no-precision"])
def test_rerun_replays_every_command_shape(write, tmp_path, capsys):
    manifest_path = write(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(manifest_path),
                 "--out-dir", str(tmp_path / "redo")]) == 0
    assert capsys.readouterr().out.count(": match") == len(manifest["outputs"])
    # The rerun records the same parameters, so none was dropped or converted.
    redo = json.loads((tmp_path / "redo" / manifest_path.name).read_text())
    assert redo["parameters"] == manifest["parameters"]


def test_rerun_table_covers_every_option():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    for command, options in _RERUN_OPTIONS.items():
        dests = {a.dest for a in sub.choices[command]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert set(options) == dests - {"out"}, command


def test_only_verify_takes_a_seed():
    ap = build_parser()
    for argv in (["render2d", "--out", "x.pgm"], ["render3d", "--out", "x"],
                 ["estimate", "--kind", "real-extent"]):
        ap.parse_args(argv)
        with pytest.raises(SystemExit):
            ap.parse_args(argv + ["--seed", "1"])
    assert ap.parse_args(["verify", "--seed", "1"]).seed == 1


def test_write_pgm_validates(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", np.zeros((4, 4), dtype=np.float64))
