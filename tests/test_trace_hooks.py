"""The benchmark tracer (perfbench/tracing.py) wraps mbkit functions by name
and binds some of their arguments by name.  These checks fail when a rename
or a signature change would silently break a traced benchmark run."""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from mbkit import dynamics, slices
from mbkit.dynamics import IterationParams
from mbkit.slices import PRINCIPAL_SLICES, cell_centers

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # Executed from its source text, so no bytecode is written next to it.
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _resolve(layer, dotted):
    obj = importlib.import_module(f"mbkit.{layer}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_wrapped_name_resolves(tracing):
    names = [(layer, name) for table in (tracing.SPANS, tracing.COUNTERS)
             for layer, names in table.items() for name in names]
    assert len(names) > 30
    for layer, name in names:
        assert callable(_resolve(layer, name)), f"{layer}.{name}"


def test_hooked_functions_keep_the_parameters_their_hooks_bind(tracing):
    hooked = {name: ("params", "threads") for name in tracing.GRID_KERNELS}
    hooked["dynamics.grid_counts_hyperbolic"] += ("a", "b")
    hooked.update({name: ("path",) for name in tracing.WRITERS})
    assert set(hooked) <= set(tracing._HOOKS)
    for name, needed in hooked.items():
        layer, dotted = name.split(".", 1)
        parameters = inspect.signature(_resolve(layer, dotted)).parameters
        assert set(needed) <= set(parameters), name


def test_hyperbolic_hook_records_a_meshgrid_view_call(tracing, monkeypatch):
    # The commands pass 2-D np.meshgrid(copy=False) views; the hook flattens
    # them in C order, like grid_counts_hyperbolic, to rebuild the counts
    # of the distinct component parameters and check the returned ones.
    # With two threads the path's workers run inside the span, which the
    # tracer times on the calling thread only.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    xs = cell_centers(-0.4, 0.4, 60)
    a, b = np.meshgrid(xs, xs[::-1][:45], copy=False)
    params = dynamics.IterationParams(3, 200)
    name = "dynamics.grid_counts_hyperbolic"
    for threads in (1, 2):
        tracer = tracing.Tracer()
        tracer.command = "hyperbrot"
        spanned = tracer._span(name)(dynamics.grid_counts_hyperbolic)
        spanned(a, b, params, threads=threads)
        assert tracer.spans[("hyperbrot", name)][0] == 1
        [rec] = tracer.grid_calls["hyperbrot"]
        assert rec["consistent"] is True
        assert rec["cells"] == a.size == 60 * 45
        assert rec["kernel_points"] == np.unique(np.concatenate([(a - b).ravel(),
                                                                 (a + b).ravel()])).size
        assert tracer.replay_grid_calls() == []


def test_traced_sample_slice_records_one_tricomplex_call(tracing, monkeypatch):
    # sample_slice passes the whole window to one grid_counts_tricomplex
    # call, which runs its kernels through private helpers: the tracer
    # records that call alone, nests no other grid call in it, and replays
    # it to the same counts at 1 and 2 threads.
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(dynamics, "_CHUNK", 1 << 12)
    tracer = tracing.Tracer()
    tracer.command = "perplexbric"
    for name in tracing.GRID_KERNELS:
        fn = name.split(".")[1]
        spanned = tracer._span(name)(getattr(dynamics, fn))
        for module in (dynamics, slices):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, spanned)
    sample = tracer._span("slices.sample_slice")(slices.sample_slice)
    params = IterationParams(3, 300)
    spec = PRINCIPAL_SLICES["Perplexbric"]
    window = ((-1.2, 1.2),) * 3
    for threads in (1, 2):
        tracer.grid_calls.clear()
        tracer.spans.clear()
        g = sample(spec, window, (32, 32, 32), params, threads=threads)
        [call] = tracer.grid_calls["perplexbric"]
        assert call["kernel"] == "dynamics.grid_counts_tricomplex"
        assert call["cells"] == 32 ** 3
        assert call["member_points"] == g.member_count() > 0
        grid_spans = {name: rec[0] for (cmd, name), rec in tracer.spans.items()
                      if name in tracing.GRID_KERNELS}
        assert grid_spans == {"dynamics.grid_counts_tricomplex": 1}
        assert tracer.replay_grid_calls() == []


def test_traced_hyperbric_area_records_one_hyperbolic_call(tracing, monkeypatch, tmp_path):
    # The hyperbric-area window is symmetric, so grid_counts_hyperbolic
    # iterates one block of it through a private helper (half the rows at
    # even p; a quarter of the grid at odd p, of which the passes read about
    # half, since it is square and transposes): the tracer records one grid
    # call, whose kernel points are the distinct component parameters of
    # the whole grid, and replays it to the same outputs.
    from mbkit import cli
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    blocks = []
    passes = dynamics._hyperbolic_counts

    def recording(a, *args):
        blocks.append((a.shape, args[-1]))
        return passes(a, *args)

    monkeypatch.setattr(dynamics, "_hyperbolic_counts", recording)
    tracer = tracing.Tracer()
    tracer.command = "hyperbric"
    for name in tracing.GRID_KERNELS:
        fn = name.split(".")[1]
        spanned = tracer._span(name)(getattr(dynamics, fn))
        for module in (dynamics, cli):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, spanned)
    name = "dynamics.grid_counts_hyperbolic"
    for p, block in ((2, ((51, 101), False)), (3, ((51, 51), True))):
        for threads in ("1", "2"):
            monkeypatch.setenv("MBK_THREADS", threads)
            tracer.grid_calls.clear()
            tracer.spans.clear()
            blocks.clear()
            assert cli.main(["estimate", "--kind", "hyperbric-area", "--p", str(p),
                             "--precision", "101",
                             "--out", str(tmp_path / f"area_{p}_{threads}")]) == 0
            assert blocks == [block]
            [call] = tracer.grid_calls["hyperbric"]
            assert call["kernel"] == name and call["cells"] == 101 * 101
            a, b = call["args"].arguments["a"], call["args"].arguments["b"]
            assert call["kernel_points"] == np.unique(np.concatenate([(a - b).ravel(),
                                                                      (a + b).ravel()])).size
            grid_spans = {n: rec[0] for (cmd, n), rec in tracer.spans.items()
                          if n in tracing.GRID_KERNELS}
            assert grid_spans == {name: 1}
            assert tracer.replay_grid_calls() == []


@pytest.fixture
def installed(tracing, monkeypatch):
    """A Tracer installed as the benchmark installs it, undone after the test."""
    modules = [importlib.import_module("mbkit")] + [
        importlib.import_module(f"mbkit.{layer}") for layer in tracing.LAYERS]
    for module in modules:
        for attr, value in list(vars(module).items()):
            monkeypatch.setattr(module, attr, value)  # restored at teardown
    for layer, names in tracing.SPANS.items():
        for dotted in names:
            if "." in dotted:
                cls_name, meth = dotted.split(".")
                cls = _resolve(layer, cls_name)
                monkeypatch.setattr(cls, meth, vars(cls)[meth])
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


@pytest.mark.parametrize("argv", [
    ["render2d", "--res", "8", "--max-iter", "20"],
    ["render3d", "--dims", "6", "--max-iter", "20"],
    ["verify", "--suite", "algebra"],
    ["estimate", "--kind", "hyperbric-area", "--precision", "16"],
])
def test_traced_command_records_its_span(installed, argv, tmp_path, capsys):
    # The tracer rebinds cli.cmd_* after import, so the dispatch must look
    # the commands up when it runs them, or it would call the unwrapped ones.
    from mbkit import cli
    command = argv[0]
    installed.command = command
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    spans = {name: rec[0] for (cmd, name), rec in installed.spans.items()
             if name.startswith("cli.cmd_")}
    assert spans == {f"cli.cmd_{command}": 1}
