import argparse
import ast
import hashlib
import importlib.util
import itertools
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
from mbkit import __version__, cli, dynamics, slices
from mbkit.cli import (
    _threads,
    build_parser,
    main,
    shade,
    write_pgm,
)
from mbkit.hypercomplex import PRODUCT_TABLE
from mbkit.roots import MANDELBRIC_REAL_BOUND, escape_bound
from mbkit.suites import algebra_suite, slices_suite


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


def _render2d(set_name, window, res, max_iter, out):
    assert main(["render2d", "--set", set_name, "--p", "3", f"--window={window}",
                 "--res", str(res), "--max-iter", str(max_iter), "--out", str(out)]) == 0


def _rerun(manifest_path, out_dir):
    return main(["rerun", "--manifest", str(manifest_path), "--out-dir", str(out_dir)])


def test_render2d_single_pixel(tmp_path):
    out = tmp_path / "one.pgm"
    _render2d("multibrot", "-0.2:0.2,-0.2:0.2", 1, 50, out)
    img = _read_pgm(out)
    assert img.shape == (1, 1)
    assert img[0, 0] == 0  # c = 0 is a member


def test_render2d_symmetries(tmp_path):
    out = tmp_path / "m3.pgm"
    _render2d("multibrot", "-1.5:1.5,-1.5:1.5", 64, 120, out)
    img = _read_pgm(out)
    assert np.array_equal(img, img[::-1, :])  # conjugation
    assert np.array_equal(img, img[:, ::-1])  # negation of the real part


def test_render2d_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("MBK_THREADS", threads)
        out = tmp_path / f"t{threads}.pgm"
        _render2d("multibrot", "-1.5:1.5,-1.5:1.5", 96, 150, out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_render2d_hyperbrot_square(tmp_path):
    from mbkit.slices import cell_centers

    out = tmp_path / "h3.pgm"
    _render2d("hyperbrot", "-0.4:0.4,-0.4:0.4", 80, 400, out)
    img = _read_pgm(out)
    xs = cell_centers(-0.4, 0.4, 80)
    l1 = np.abs(xs[None, :]) + np.abs(xs[::-1][:, None])
    away = np.abs(l1 - MANDELBRIC_REAL_BOUND) > 2 * 0.8 / 80
    assert np.array_equal((img == 0)[away], (l1 <= MANDELBRIC_REAL_BOUND)[away])


def test_render3d_outputs_and_rerun(tmp_path, capsys):
    assert main(["render3d", "--slice", "1,j1,j2", "--window=-0.5:0.5,-0.5:0.5,-0.5:0.5",
                 "--dims", "16", "--max-iter", "120", "--out", str(tmp_path / "perp")]) == 0
    printed = capsys.readouterr().out
    grid = slices.sample_slice(slices.SliceSpec.parse("1,j1,j2"), ((-0.5, 0.5),) * 3,
                               (16, 16, 16), dynamics.IterationParams(3, 120))
    assert f"member_cells={grid.member_count()}" in printed
    assert f"volume_estimate={grid.volume_estimate()!r}" in printed
    assert (tmp_path / "perp.mbv1").exists() and (tmp_path / "perp.xyz").exists()
    manifest_path = tmp_path / "perp.manifest.json"
    assert manifest_path.exists()
    assert _rerun(manifest_path, tmp_path / "redo") == 0
    # A tampered digest must be caught.
    manifest = json.loads(manifest_path.read_text())
    key = next(iter(manifest["outputs"]))
    manifest["outputs"][key] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    assert _rerun(manifest_path, tmp_path / "redo2") == 1


@pytest.mark.parametrize("half, members", [(1e300, 0), (1e-120, 8)])
def test_render3d_volume_is_zero_where_the_cell_volume_leaves_range(half, members,
                                                                    tmp_path, capsys):
    # At +-1e300 the cell volume overflows to inf and no cell is a member:
    # 0 * inf is nan, but no members make no volume.  At +-1e-120 it
    # underflows to 0.0, the float nearest the 8 members' true volume.
    window = ",".join([f"{-half!r}:{half!r}"] * 3)
    assert main(["render3d", "--dims", "2", "--slice", "1,i1,j1", f"--window={window}",
                 "--out", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().out == f"member_cells={members}\nvolume_estimate=0.0\n"
    grid = slices.sample_slice(slices.SliceSpec.parse("1,i1,j1"), ((-half, half),) * 3,
                               (2, 2, 2), dynamics.IterationParams(3, 1000))
    assert grid.member_count() == members
    assert grid.volume_estimate() == 0.0 and grid.cell_volume() in (0.0, np.inf)


def test_render2d_manifest_digest_matches(tmp_path):
    import hashlib

    out = tmp_path / "img.pgm"
    assert main(["render2d", "--p", "2", "--window=-2.2:0.8,-1.5:1.5", "--res", "32",
                 "--max-iter", "80", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "img.pgm.manifest.json").read_text())
    assert manifest["command"] == "render2d"
    assert manifest["outputs"]["img.pgm"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert "seed" not in manifest
    # Older manifests still carry the render seed, which had no effect.
    manifest["seed"] = 7
    old = tmp_path / "old.manifest.json"
    old.write_text(json.dumps(manifest))
    assert _rerun(old, tmp_path / "redo") == 0


def test_verify_exit_codes(tmp_path, capsys):
    assert main(["verify", "--suite", "roots", "--seed", "5",
                 "--out", str(tmp_path / "r")]) == 0
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


def test_dynamics_report_does_not_depend_on_cpu_dispatch(tmp_path):
    # The verify lanes write complex products in real arithmetic, so the
    # seed-0 dynamics report keeps its digests with numpy's AVX2 and
    # AVX-512 dispatch switched off.  The variable acts on the child only.
    root = Path(__file__).resolve().parents[1]
    reference = json.loads((root / "perfbench" / "reference.json").read_text())["digests"]
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    script = ("import sys\n"
              "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
              "assert not f['X86_V3'], 'dispatch not disabled'\n"
              "from mbkit.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    run = subprocess.run([sys.executable, "-c", script, "verify", "--suite", "dynamics",
                          "--seed", "0", "--out", str(tmp_path / "verify_dynamics")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for name in ("verify_dynamics.json", "verify_dynamics.txt"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == reference[name], name


def test_slices_suite_grid_work_is_pinned(monkeypatch):
    # The slices suite's calls of grid_counts_tricomplex are the whole of
    # the verify commands' grid work, which a traced benchmark run gates:
    # cells, escape counts summed, member flags times the budget, and the
    # distinct escape counts over all calls, against reference.json (read,
    # never written here).
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    want = reference["counts"]["check"]["verify"]
    grid = dynamics.grid_counts_tricomplex
    calls = []

    def recording(x, params, threads=1):
        counts, member = grid(x, params, threads=threads)
        calls.append((counts.copy(), member.copy(), params.max_iter))
        return counts, member

    monkeypatch.setattr(dynamics, "grid_counts_tricomplex", recording)
    monkeypatch.setattr(slices, "grid_counts_tricomplex", recording)
    assert all(r.passed for r in slices_suite(0))
    cells = sum(c.size for c, _, _ in calls)
    escapes = set().union(*(np.unique(c[~m]).tolist() for c, m, _ in calls))
    assert len(calls) == 5
    assert cells == want["cells"] == want["kernel_points"]
    assert sum(int(c.sum(dtype=np.uint64)) for c, _, _ in calls) == want["point_iters"]
    assert sum(int(m.sum()) * budget for _, m, budget in calls) == want["member_iters"]
    assert len(escapes) == want["compactions"]


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


# The algebra and dynamics reports at seeds the benchmark does not run, by
# (suite, seed): (txt, json).  At seed 7 dynamics.hyperbolic_decomposition
# fails with a six-step residual of 1.67e-12 against its 1e-12 bound, so
# that command exits 1 (a failing verify still writes both reports).
_SWEEP_REPORTS = {
    ("algebra", 3): ("de5ec34015b2db9c4e41a12a9f6865bdf5fab29f9e14b657a032b4facb8c5884",
                     "5431dbff06684a3e6f9a77e4771df417a21463f3fae8e04d3968f4dd71340252"),
    ("algebra", 7): ("034ef4ccca319ec1a6b144d3e256924993797059054537b56f8d4045e7bf3980",
                     "576403c81e49b723b9bde5250ffaacb82279af113daf8fdf0025d731b3aa1b72"),
    ("dynamics", 3): ("5a1a8501c84ae3bc6c377a1237cf853d53c84341e3c1ccdef0d6760fbf97a9f1",
                      "969ae2b6e4b9c4a179921c2275fd625e6243da704183e009e4f68373ffb5d1d9"),
    ("dynamics", 7): ("ad7d1ef991067204ece27fa0f94dc4cee57fb635fa80c65686ca2245c7ef0f02",
                      "822600ab50fc6bd73932bcce5e938488278963625875269d2c4e884a5a6fdf18"),
}


@pytest.mark.parametrize("suite, seed", list(_SWEEP_REPORTS))
def test_sweep_reports_are_pinned_at_other_seeds(suite, seed, tmp_path, capsys):
    failing = (suite, seed) == ("dynamics", 7)
    assert main(["verify", "--suite", suite, "--seed", str(seed),
                 "--out", str(tmp_path / suite)]) == (1 if failing else 0)
    digests = tuple(hashlib.sha256((tmp_path / f"{suite}.{ext}").read_bytes()).hexdigest()
                    for ext in ("txt", "json"))
    assert digests == _SWEEP_REPORTS[(suite, seed)]
    checks = json.loads((tmp_path / f"{suite}.json").read_text())["checks"]
    failed = [(c["name"], c["max_residual"]) for c in checks if not c["passed"]]
    assert failed == ([("dynamics.hyperbolic_decomposition", 1.6699908626074559e-12)]
                      if failing else [])
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(tmp_path / f"{suite}.manifest.json"),
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
    # The endpoints are checked against the complex engine.
    iterate, iterate_real = dynamics.iterate_complex, dynamics.iterate_real
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) < 1000, "the bisection does not stop"
        return iterate_real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "iterate_real", counted)
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
    assert 100 <= len(calls) < 1000


def test_corrupted_unit_table_fails_with_witness():
    table = [list(row) for row in PRODUCT_TABLE]
    table[1][2] = (-1, 5)  # flip the sign of i1 * i2
    table = tuple(tuple(row) for row in table)
    results = algebra_suite(seed=0, product_table=table)
    failing = [r for r in results if not r.passed]
    assert failing
    assert any(r.witness for r in failing)


def _estimate(tmp_path, *options):
    """Run an estimate through main and return its --out JSON report."""
    out = tmp_path / "estimate"
    assert main(["estimate", *options, "--out", str(out)]) == 0
    return json.loads((tmp_path / "estimate.json").read_text())


def test_estimate_real_extent(tmp_path, capsys):
    report = _estimate(tmp_path, "--kind", "real-extent", "--p", "3")
    capsys.readouterr()
    assert report["status"] == "theorem"
    assert abs(report["measured_hi"] - MANDELBRIC_REAL_BOUND) <= 1e-3
    report = _estimate(tmp_path, "--kind", "real-extent", "--p", "5")
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


def test_estimate_hyperbric_area(tmp_path, capsys):
    report = _estimate(tmp_path, "--kind", "hyperbric-area", "--p", "3",
                       "--precision", "300")
    capsys.readouterr()
    assert abs(report["measured_area"] - 8 / 27) / (8 / 27) <= 0.02
    assert report["closed_form_area"] == pytest.approx(8 / 27)


def test_estimate_perplexbric_volume_small(tmp_path, capsys):
    # Lattice discretization bias at 48^3 is ~8%; the 5% target needs the
    # full 128^3 run exercised by the acceptance suite.
    report = _estimate(tmp_path, "--kind", "perplexbric-volume", "--p", "3",
                       "--precision", "48")
    capsys.readouterr()
    assert report["rel_error"] <= 0.12


def test_main_parses_and_runs(tmp_path, capsys):
    out = tmp_path / "cli.pgm"
    rc = main(["render2d", "--set", "multibrot", "--p", "3",
               "--window=-1.5:1.5,-1.5:1.5", "--res", "16",
               "--max-iter", "40", "--out", str(out)])
    assert rc == 0 and out.exists()
    rc = main(["estimate", "--kind", "real-extent", "--p", "2"])
    capsys.readouterr()
    assert rc == 0


def test_one_parser_per_class_survives_parse_errors(tmp_path, capsys, monkeypatch):
    # The command line and rerun each parse with one parser per process; a
    # failed parse leaves it as it was.
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda cls: built.append(cls) or build_parser(cls))
    cli._parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--kind", "real-extent", "--precision", "-1"])
        assert exc.value.code == 2
        assert "mbkit: error: argument --precision" in capsys.readouterr().err
        assert main(["estimate", "--kind", "real-extent", "--p", "2"]) == 0
        assert capsys.readouterr().out.startswith("kind=real-extent\np=2\n")
        path = tmp_path / "m.manifest.json"
        path.write_text(json.dumps({**_GOOD_MANIFEST, "parameters": {
            "kind": "real-extent", "p": 1}}))
        with pytest.raises(cli.ManifestError, match="argument --p"):
            cli.cmd_rerun(argparse.Namespace(manifest=str(path), out_dir=None))
        args = cli._parse_args(cli._ManifestParser, ["estimate", "--kind", "hyperbric-area"])
        assert (args.kind, args.p) == ("hyperbric-area", 3)
    assert built == [cli._Parser, cli._ManifestParser]
    cli._parser.cache_clear()
    assert build_parser() is not build_parser()


def _parser_options() -> set[str]:
    ap = build_parser()
    parsers = [ap] + [sub for action in ap._actions
                      if isinstance(action, argparse._SubParsersAction)
                      for sub in action.choices.values()]
    return {opt for parser in parsers for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")}


def _subcommands() -> dict:
    """The parser's subcommand parsers by name."""
    return dict(next(a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices)


def test_command_tables_name_the_same_commands():
    # Leaving rerun aside, which reruns the others, the parser's
    # subcommands, _run's table and the output suffixes (which
    # _load_manifest also reads as the rerunnable commands) name one set.
    names = set(_subcommands())
    assert "rerun" in names and set(cli._commands()) == names
    assert set(cli._OUTPUT_SUFFIXES) == names - {"rerun"}


def test_every_grid_size_option_is_sized_by_grid():
    # A command line setting --res, --dims or --precision to a small size
    # has _grid name that option for some value of each required choice
    # (estimate's --precision is a tolerance for real-extent), so the
    # parser's array-size check and the memory reservation cover it.
    for name, sub in _subcommands().items():
        options = {o for a in sub._actions for o in a.option_strings}
        required = [[(a.option_strings[0], v) for v in (a.choices or ["x"])]
                    for a in sub._actions if a.required and a.option_strings]
        for option in sorted({"--res", "--dims", "--precision"} & options):
            sized = set()
            for picks in itertools.product(*required):
                argv = [name] + [f"{o}={v}" for o, v in picks] + [f"{option}=4"]
                grid = cli._grid(cli._parse_args(cli._Parser, argv))
                if grid is not None:
                    sized.add(grid[0])
            assert sized == {option}, (name, option)


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
    # Discus pruning is no longer an option; argparse rejects it.
    ["render3d", "--prune"],
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
        assert main(["render3d", "--slice", "1,i1,i2",
                     "--window=-1.5:1.5,-1.5:1.5,-1.5:1.5", "--dims", "6",
                     "--max-iter", str(max_iter), "--out", str(tmp_path / name)]) == 0
    assert main(["verify", "--suite", "roots", "--out", str(tmp_path / "rep.v1")]) == 0
    assert main(["estimate", "--kind", "real-extent", "--precision", "1e-3",
                 "--out", str(tmp_path / "ext.v1")]) == 0
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
    assert main(["verify", "--suite", "algebra", "--out", str(tmp_path / "alg")]) == 0
    assert main(["estimate", "--kind", "real-extent", "--precision", "1e-3",
                 "--out", str(tmp_path / "ext")]) == 0
    for name in ("alg", "ext"):
        manifest_path = tmp_path / f"{name}.manifest.json"
        capsys.readouterr()
        assert _rerun(manifest_path, tmp_path / f"redo_{name}") == 0
        out = capsys.readouterr()
        assert out.out.count(": match") == 2 and "warning" not in out.err
    # A manifest from another version still reruns, with a warning.
    manifest_path = tmp_path / "alg.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["version"] == __version__
    manifest["version"] = "0.0.0-other"
    manifest_path.write_text(json.dumps(manifest))
    assert _rerun(manifest_path, tmp_path / "redo_old") == 0
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
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "prune": True}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "command": "render3d",
                "parameters": {**_GOOD_RENDER3D, "prune": 0}}).encode(),
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
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent", "p": 3,
                                                 "colour": "red"}}).encode(),
    json.dumps({**_GOOD_MANIFEST, "parameters": {"kind": "real-extent", "p": "3"}}).encode(),
], ids=["missing", "bad-json", "not-utf8", "list", "no-command", "no-parameters",
        "no-outputs", "empty-outputs", "list-parameters", "unknown-command",
        "list-command", "estimate-without-p", "render3d-with-estimate-parameters",
        "p-not-a-number", "p-below-2", "bad-precision", "volume-with-p-4",
        "zero-dims", "inverted-window", "bad-slice", "zero-max-iter", "prune-not-bool",
        "pruned", "prune-zero",
        "radius-below-bound", "negative-seed", "p-a-list", "res-one-entry",
        "window-not-a-list", "unknown-set", "output-in-parent-dir", "output-in-subdir",
        "output-dot-dot", "output-empty-name", "max-iter-beyond-uint32",
        "window-width-overflows", "window-sum-overflows", "unknown-key", "p-a-string"])
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


@pytest.mark.parametrize("command, parameters", [
    ("render3d", {**_GOOD_RENDER3D, "dims": [1000000] * 3}),
    ("estimate", {"kind": "hyperbric-area", "p": 3, "precision": 100000000}),
], ids=["render3d", "estimate"])
def test_rerun_refuses_a_grid_too_large_for_memory_before_its_directory(
        command, parameters, tmp_path, capsys, monkeypatch):
    # The command line's guard, made before the output directory: no axis,
    # no directory, one line.
    path = tmp_path / "m.manifest.json"
    path.write_text(json.dumps({**_GOOD_MANIFEST, "command": command,
                                "parameters": parameters, "version": __version__}))
    _forbid_work(monkeypatch)
    assert main(["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "redo")]) == 2
    out = capsys.readouterr()
    line = _assert_one_error_line(out.err)
    assert line.startswith("mbkit: error: out of memory: Unable to allocate")
    assert out.out == "" and not (tmp_path / "redo").exists()


def test_rerun_of_a_manifest_that_records_the_escape_radius(tmp_path, capsys):
    # Manifests written while render2d took --escape-radius record it; every
    # default one records the sharp bound, and reruns as it did.
    out = tmp_path / "m.pgm"
    assert main(["render2d", "--res", "16", "--max-iter", "40", "--out", str(out)]) == 0
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


# Command lines of each manifest shape, by id: the arguments before --out,
# the --out name, and the command, parameters and output digests of the
# manifest that mbkit 0.1.0 wrote for them before manifests were written in
# one place.
_SHAPES = {
    "render2d-hyperbrot-40x20": (
        ["render2d", "--set", "hyperbrot", "--window=-0.5:0.5,-0.4:0.4", "--res", "40,20",
         "--max-iter", "60"], "h.pgm",
        {"command": "render2d",
         "parameters": {"max_iter": 60, "p": 3, "res": [40, 20], "set": "hyperbrot",
                        "window": [[-0.5, 0.5], [-0.4, 0.4]]},
         "outputs": {"h.pgm": "5d2716dd42a4e88bb1692dca48037cbbb95a8d79e3e978ef108483781302d460"}}),
    "render3d-tetrabric": (
        ["render3d", "--slice", "1,i1,i2", "--window=-1.5:1.0,-1.0:1.0,-1.0:1.0",
         "--dims", "10,8,6", "--max-iter", "40"], "tet",
        {"command": "render3d",
         "parameters": {"dims": [10, 8, 6], "max_iter": 40, "p": 3, "slice": "1,i1,i2",
                        "window": [[-1.5, 1.0], [-1.0, 1.0], [-1.0, 1.0]]},
         "outputs": {"tet.mbv1": "6694df66cd9e129a05ef67fb4c67deb5df8e3b9ab59aed6ab78286bcc2b06eeb",
                     "tet.xyz": "da612349978a6e94ae3fff731eb558c7b0b15d410b4c6bb4f8262e929f50f9f1"}}),
    "verify-roots-seed-3": (
        ["verify", "--suite", "roots", "--seed", "3"], "ver",
        {"command": "verify", "parameters": {"seed": 3, "suite": "roots"},
         "outputs": {"ver.json": "61ad774869f89d69f717b2e724cb4c4bc2d0d5816f2ed49dcf58560568815f85",
                     "ver.txt": "5ce33bfb1b837ec25edaaa9459f336cf2c7e823f0d3b79b0855cf9d24577aa0d"}}),
    "estimate-area-int-precision": (
        ["estimate", "--kind", "hyperbric-area", "--precision", "60"], "area",
        {"command": "estimate",
         "parameters": {"kind": "hyperbric-area", "p": 3, "precision": 60},
         "outputs": {"area.json": "0359a6d83f7b2bcfa3d564e6c534047ea2e9d6525eb4161e069267ec33297c91",
                     "area.txt": "fa578d8c78f0036557748a4d259a9e04c67a6ae7128b25485f1fe030b29177ee"}}),
    "estimate-extent-no-precision": (
        ["estimate", "--kind", "real-extent"], "ext",
        {"command": "estimate", "parameters": {"kind": "real-extent", "p": 3},
         "outputs": {"ext.json": "2ccfaff4a172583658957fabc32019f56999b27bc1fe88216a456e7e4e65b2a7",
                     "ext.txt": "535d89d6dab4027d82087864cad68d7faf3d406731483a3debbc9136fa4514f0"}}),
}


def _write_shape(shape, out):
    argv, name, _ = _SHAPES[shape]
    assert main(argv + ["--out", str(out / name)]) == 0
    return out / f"{name}.manifest.json"


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_manifest_layout_is_pinned(shape, tmp_path, capsys):
    # The parameters are the parsed options, the outputs the same bytes as
    # before; only the wall time may differ.
    manifest = json.loads(_write_shape(shape, tmp_path).read_text())
    capsys.readouterr()
    assert sorted(manifest) == ["command", "outputs", "parameters", "version",
                                "wall_time_s"]
    assert manifest["version"] == __version__
    assert {k: manifest[k] for k in ("command", "parameters", "outputs")} == _SHAPES[shape][2]


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_manifests_of_mbkit_0_1_0_rerun_to_match(shape, tmp_path, capsys):
    # Written as 0.1.0 wrote them, and with the retired keys that older
    # versions recorded at the value every run now uses.
    written = {**_SHAPES[shape][2], "version": "0.1.0", "wall_time_s": 0.01}
    retired = {"render2d": {"escape_radius": escape_bound(3)},
               "render3d": {"prune": False}}.get(written["command"])
    variants = [written] + ([{**written, "parameters": {**written["parameters"], **retired}}]
                            if retired else [])
    for k, manifest in enumerate(variants):
        path = tmp_path / f"m{k}.manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        assert main(["rerun", "--manifest", str(path),
                     "--out-dir", str(tmp_path / f"redo{k}")]) == 0
        assert capsys.readouterr().out.count(": match") == len(manifest["outputs"])


@pytest.mark.parametrize("shape", [shape for shape in _SHAPES if shape != "verify-roots-seed-3"])
def test_rerun_replays_every_command_shape(shape, tmp_path, capsys):
    manifest_path = _write_shape(shape, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(manifest_path),
                 "--out-dir", str(tmp_path / "redo")]) == 0
    assert capsys.readouterr().out.count(": match") == len(manifest["outputs"])
    # The rerun records the same parameters, so none was dropped or converted.
    redo = json.loads((tmp_path / "redo" / manifest_path.name).read_text())
    assert redo["parameters"] == manifest["parameters"]


def test_rerun_of_a_manifest_that_records_prune(tmp_path, capsys):
    # Manifests written while render3d took --prune record it; those that
    # did not prune rerun as they did.  A pruned grid wrote count 1 for the
    # cells outside the discus, which no rerun reproduces.
    path = _write_shape("render3d-tetrabric", tmp_path)
    manifest = json.loads(path.read_text())
    assert "prune" not in manifest["parameters"]
    manifest["parameters"]["prune"] = False
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "redo")]) == 0
    assert capsys.readouterr().out.endswith("tet.mbv1: match\ntet.xyz: match\n")
    for k, value in enumerate((True, "no")):
        manifest["parameters"]["prune"] = value
        path.write_text(json.dumps(manifest))
        redo = tmp_path / f"redo{k}"
        assert main(["rerun", "--manifest", str(path), "--out-dir", str(redo)]) == 2
        out = capsys.readouterr()
        line = _assert_one_error_line(out.err)
        assert out.out == "" and line.startswith("mbkit: error: manifest ")
        assert "parameter prune: " in line
        assert not redo.exists()


# Every option of each command at a value that is not its default, and the
# least command line, whose values are the defaults.
_EVERY_OPTION = {
    "render2d": (["render2d", "--set", "hyperbrot", "--p", "4",
                  "--window=-0.5:0.25,-0.25:0.5", "--res", "6,4", "--max-iter", "30"],
                 ["render2d"]),
    "render3d": (["render3d", "--slice", "1,i1,i2", "--p", "2",
                  "--window=-1:0.5,-0.5:0.5,-0.25:0.25", "--dims", "5,4,3",
                  "--max-iter", "20"], ["render3d"]),
    "verify": (["verify", "--suite", "slices", "--seed", "2"], ["verify"]),
    "estimate": (["estimate", "--kind", "hyperbric-area", "--p", "2", "--precision", "20"],
                 ["estimate", "--kind", "real-extent"]),
}


@pytest.mark.parametrize("command", list(_EVERY_OPTION))
def test_manifest_records_every_option_and_reruns_by_round_trip(command, tmp_path, capsys):
    argv, least = _EVERY_OPTION[command]
    out = ["--out", str(tmp_path / "x")]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    options = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
    args = cli._parse_args(cli._Parser, argv + out)
    defaults = cli._parse_args(cli._Parser, least + out)
    assert all(getattr(args, key) != getattr(defaults, key) for key in options - {"out"})
    assert main(argv + out) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "x.manifest.json").read_text())
    assert set(manifest["parameters"]) == options - {"out"}
    redo = tmp_path / "redo"
    reparsed = cli._parse_args(cli._ManifestParser, cli._rerun_argv(manifest, redo))
    assert reparsed.out == str(redo / Path(args.out).name)
    assert {**vars(reparsed), "out": None} == {**vars(args), "out": None}


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
