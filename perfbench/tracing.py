"""Spans and counters that the benchmark installs around mbkit's public functions.

Nothing here changes mbkit's source: `install` replaces each listed function
with a wrapper in every mbkit module namespace that binds it, so calls made
through `from .x import y` names and through `module.y` attribute access are
both seen.  Hot scalar arithmetic (`tc_mul`) gets a call counter, not a span.

A span's self time is its duration minus the time covered by its child spans
and by the tracer's own bookkeeping, so per-layer self times add up to the
command time without counting the cost of measuring.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "dynamics", "hypercomplex", "slices", "suites", "roots")

# Functions wrapped in a span, by the module that defines them.  `roots` is
# reached only through the `suites.roots` attribute calls.
SPANS = {
    "cli": ("cmd_render2d", "cmd_render3d", "cmd_verify", "cmd_estimate",
            "shade", "write_pgm"),
    "dynamics": ("grid_counts_complex", "grid_counts_hyperbolic",
                 "grid_counts_tricomplex", "iterate_complex", "iterate_hyperbolic",
                 "iterate_tricomplex", "real_axis_extent", "orbit_complex",
                 "orbit_real"),
    "hypercomplex": ("to_complex4", "mul_batch", "pow_batch", "norm_sq_batch"),
    "slices": ("sample_slice", "cell_centers", "classify_principal",
               "conjugacy_catalog", "verify_conjugacy", "enumerate_slices",
               "VoxelGrid.write_mbv1", "VoxelGrid.write_pointcloud"),
    "suites": ("algebra_suite", "roots_suite", "dynamics_suite", "slices_suite"),
    "roots": ("cubic_roots", "cubic_discriminant", "depressed_reduce",
              "mandelbric_attracting_root"),
}
COUNTERS = {"hypercomplex": ("tc_mul",)}

GRID_KERNELS = ("dynamics.grid_counts_complex", "dynamics.grid_counts_hyperbolic",
                "dynamics.grid_counts_tricomplex")
WRITERS = ("cli.write_pgm", "slices.VoxelGrid.write_mbv1",
           "slices.VoxelGrid.write_pointcloud")


class Tracer:
    """Per-command span totals, counters and recorded grid-kernel calls."""

    def __init__(self):
        self.command = None
        self.enabled = True
        self.bookkeeping_s = 0.0
        self._main = threading.get_ident()
        self._stack: list[list[float]] = []
        # (command, span) -> [calls, total_s, self_s]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (command, counter) -> int
        self.counts: dict = defaultdict(int)
        # command -> list of grid-kernel call records
        self.grid_calls: dict = defaultdict(list)
        self.sample_peaks: dict = defaultdict(list)
        self.sample_peak = 0

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("mbkit")] + [
            importlib.import_module(f"mbkit.{layer}") for layer in LAYERS]
        for layer, names in SPANS.items():
            owner = importlib.import_module(f"mbkit.{layer}")
            for name in names:
                self._replace(modules, owner, name, self._span(f"{layer}.{name}"))
        for layer, names in COUNTERS.items():
            owner = importlib.import_module(f"mbkit.{layer}")
            for name in names:
                self._replace(modules, owner, name, self._counter(f"{layer}.{name}"))

    @staticmethod
    def _replace(modules, owner, dotted: str, make) -> None:
        if "." in dotted:  # a method: replace it on its class
            cls_name, meth = dotted.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(owner, dotted)
        wrapped = make(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    # --- wrappers ---------------------------------------------------------------

    def _counter(self, name: str):
        def make(fn):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[(self.command, name)] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _span(self, name: str):
        def make(fn):
            sig = inspect.signature(fn)
            before, after = _HOOKS.get(name, (None, None))

            def spanned(*args, **kwargs):
                if not self.enabled or threading.get_ident() != self._main:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs) if before or after else None
                if before is not None:
                    self._bookkeep(before, self, bound)
                frame = [0.0]
                self._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    self._stack.pop()
                    rec = self.spans[(self.command, name)]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                    if self._stack:
                        self._stack[-1][0] += dur
                if after is not None:
                    self._bookkeep(after, self, fn, bound, result, dur)
                return result
            return spanned
        return make

    def _bookkeep(self, hook, *args) -> None:
        # Bookkeeping time is charged to no layer: the enclosing span treats
        # it as child time and the total is reported as tracer overhead.
        # Its allocations are kept out of a running tracemalloc peak.
        tracing = tracemalloc.is_tracing()
        if tracing:
            self.sample_peak = max(self.sample_peak,
                                   tracemalloc.get_traced_memory()[1])
        t0 = time.perf_counter()
        hook(*args)
        dur = time.perf_counter() - t0
        if tracing and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self.bookkeeping_s += dur
        if self._stack:
            self._stack[-1][0] += dur

    # --- replay -------------------------------------------------------------------

    def replay_grid_calls(self) -> list[str]:
        """Re-run the current command's grid-kernel calls at 1 and 2 threads.

        Both timings go into the call record, and the returned list names
        every call whose counts or member mask differ from the traced call.
        Spans are off meanwhile, so the replays are charged to no command.
        """
        problems = []
        self.enabled = False
        try:
            for rec in self.grid_calls[self.command]:
                if not rec.get("consistent", True):
                    problems.append(f"{rec['kernel']} per-parameter counts do "
                                    "not reproduce the returned counts")
                fn, bound = rec.pop("fn"), rec.pop("args")
                counts_ref, member_ref = rec.pop("counts"), rec.pop("member")
                for threads in (1, 2):
                    bound.arguments["threads"] = threads
                    t0 = time.perf_counter()
                    counts, member = fn(*bound.args, **bound.kwargs)
                    rec[f"replay_t{threads}_s"] = time.perf_counter() - t0
                    if not (np.array_equal(counts, counts_ref)
                            and np.array_equal(member, member_ref)):
                        problems.append(f"{rec['kernel']} counts differ at "
                                        f"{threads} thread(s)")
        finally:
            self.enabled = True
        return problems


# --- hooks ----------------------------------------------------------------------


def _record_grid(name):
    def after(tracer: Tracer, fn, bound, result, dur):
        counts, member = result
        params = bound.arguments["params"]
        rec = {"kernel": name, "cells": int(counts.size), "max_iter": params.max_iter}
        if name == "dynamics.grid_counts_hyperbolic":
            # The kernel iterates each distinct component parameter a - b,
            # a + b once; rebuild those per-parameter counts with the same
            # real kernel and check they reproduce the returned ones.
            from mbkit import dynamics
            a = np.ascontiguousarray(bound.arguments["a"], dtype=np.float64).ravel()
            b = np.ascontiguousarray(bound.arguments["b"], dtype=np.float64).ravel()
            uniq, inverse = np.unique(np.concatenate([a - b, a + b]),
                                      return_inverse=True)
            k_counts, k_member = dynamics.grid_counts_real(uniq, params)
            n = a.size
            rec["component_params"] = 2 * n
            rec["consistent"] = bool(np.array_equal(
                counts, np.minimum(k_counts[inverse[:n]], k_counts[inverse[n:]])))
        else:
            k_counts, k_member = counts, member
        rec.update({
            "kernel_points": int(k_counts.size),
            "point_iters": int(k_counts.sum(dtype=np.uint64)),
            "member_points": int(k_member.sum()),
            "escape_counts": np.unique(k_counts[~k_member]).tolist(),
            "span_s": dur,
            "fn": fn, "args": bound, "counts": counts.copy(), "member": member.copy(),
        })
        tracer.grid_calls[tracer.command].append(rec)
    return after


def _record_steps(tracer: Tracer, fn, bound, result, dur):
    tracer.counts[(tracer.command, "dynamics.iterate_tricomplex_steps")] += \
        int(result.iterations)


def _start_sample_trace(tracer: Tracer, bound):
    tracer.sample_peak = 0
    tracemalloc.start()


def _stop_sample_trace(tracer: Tracer, fn, bound, result, dur):
    tracemalloc.stop()
    tracer.sample_peaks[tracer.command].append(tracer.sample_peak)


def _record_bytes(name):
    key = name.split(".")[0] + ".bytes_out"

    def after(tracer: Tracer, fn, bound, result, dur):
        tracer.counts[(tracer.command, key)] += os.path.getsize(bound.arguments["path"])
    return after


_HOOKS = {name: (None, _record_grid(name)) for name in GRID_KERNELS}
_HOOKS["dynamics.iterate_tricomplex"] = (None, _record_steps)
_HOOKS["slices.sample_slice"] = (_start_sample_trace, _stop_sample_trace)
_HOOKS.update({name: (None, _record_bytes(name)) for name in WRITERS})
