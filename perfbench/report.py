"""Per-layer metrics of a traced pass, printed by name and returned for JSON.

Every span total and self time is printed per command group (slot) under
the names `<slot>.<layer>.<function>_s` and `..._self_s`; the metrics that
go into the benchmark's JSON line are the ones every workload has, named by
slot position (`cmd1.`, `cmd2.`), so all workloads report the same keys.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import GRID_KERNELS, LAYERS

# Names used in the benchmark's documentation for some span totals.
ALIASES = {
    "slices.classify_s": "slices.classify_principal",
    "suites.algebra_s": "suites.algebra_suite",
    "suites.roots_s": "suites.roots_suite",
    "suites.dynamics_s": "suites.dynamics_suite",
    "suites.slices_s": "suites.slices_suite",
}
# Exact counts that must equal reference.json at seed 0.  tc_mul_calls is
# printed next to its reference but not gated: it counts an implementation
# detail of the scalar oracle, not a result.
GATED_COUNTS = ("cells", "kernel_points", "point_iters", "member_iters", "compactions",
                "iterate_tricomplex_steps")


def slot_counts(calls, counts) -> dict:
    """Exact work counts of one slot's grid-kernel calls and counters."""
    escape = set()
    for c in calls:
        escape.update(c["escape_counts"])
    return {
        "cells": sum(c["cells"] for c in calls),
        "kernel_points": sum(c["kernel_points"] for c in calls),
        "point_iters": sum(c["point_iters"] for c in calls),
        "member_iters": sum(c["member_points"] * c["max_iter"] for c in calls),
        "compactions": len(escape),
        "iterate_tricomplex_steps": counts.get("dynamics.iterate_tricomplex_steps", 0),
        "tc_mul_calls": counts.get("hypercomplex.tc_mul", 0),
    }


def per_layer(cmds, slot_names, traced, untraced_pass_s, workload, seed, refs):
    """Print every per-layer metric; return the JSON metrics and count mismatches."""
    wall, res = traced
    trace = res["trace"]
    slot_of = {c["label"]: c["slot"] for c in cmds}
    spans = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for cmd, name, calls, total, self_s in trace["spans"]:
        rec = spans[slot_of[cmd]][name]
        rec[0] += calls
        rec[1] += total
        rec[2] += self_s
    counters = defaultdict(lambda: defaultdict(int))
    for cmd, name, n in trace["counts"]:
        counters[slot_of[cmd]][name] += n
    grid = defaultdict(list)
    peaks = defaultdict(list)
    for cmd, calls in trace["grid_calls"].items():
        grid[slot_of[cmd]] += calls
    for cmd, vals in trace["sample_peaks"].items():
        peaks[slot_of[cmd]] += vals

    metrics = {}
    mismatches = {}
    for k, sn in enumerate(slot_names, start=1):
        table = spans[sn]
        for name in sorted(table):
            calls, total, self_s = table[name]
            print(f"{sn}.{name}_s {total:.6f} s  {sn}.{name}_self_s {self_s:.6f} s  "
                f"calls {calls}")
        for alias, name in ALIASES.items():
            if name in table:
                print(f"{sn}.{alias} {table[name][1]:.6f} s")
        layer_self = {layer: sum(r[2] for n, r in table.items()
                                 if n.startswith(layer + "."))
                      for layer in LAYERS}
        for layer, val in layer_self.items():
            print(f"{sn}.{layer}.layer_self_s {val:.6f} s")
        cli_self = sum(r[2] for n, r in table.items() if n.startswith("cli.cmd_"))
        print(f"{sn}.cli.self_s {cli_self:.6f} s (command spans minus children)")

        calls = grid[sn]
        cnt = slot_counts(calls, counters[sn])
        grid_self = sum(table[n][2] for n in GRID_KERNELS if n in table)
        grid_total = sum(c["span_s"] for c in calls)
        share = cnt["member_iters"] / cnt["point_iters"] if cnt["point_iters"] else 0.0
        rate = cnt["point_iters"] / grid_total / 1e6 if grid_total else 0.0
        print(f"{sn}.dynamics.point_iters {cnt['point_iters']} count "
            f"(kernel points {cnt['kernel_points']}, cells {cnt['cells']}, "
            f"grid calls {len(calls)})")
        print(f"{sn}.dynamics.member_iter_share {share:.6f} "
            f"(member iterations {cnt['member_iters']} / point_iters "
            f"{cnt['point_iters']})")
        print(f"{sn}.dynamics.compactions {cnt['compactions']} count "
            "(distinct escape counts)")
        print(f"{sn}.dynamics.mpoint_iters_per_s {rate:.6g} Mit/s "
            f"(point_iters / {grid_total:.6f} s in grid kernels)")
        if calls:
            print(f"{sn}.dynamics.replay_1thread_s "
                f"{sum(c['replay_t1_s'] for c in calls):.6f} s  "
                f"{sn}.dynamics.replay_2thread_s "
                f"{sum(c['replay_t2_s'] for c in calls):.6f} s")
        hyp = [c for c in calls if "component_params" in c]
        if hyp:
            uniq = sum(c["kernel_points"] for c in hyp)
            base = sum(c["component_params"] for c in hyp)
            print(f"{sn}.dynamics.hyperbolic_unique_ratio {uniq / base:.6g} "
                f"(unique component params {uniq} / component params {base})")
        if "dynamics.iterate_tricomplex" in table:
            print(f"{sn}.dynamics.iterate_tricomplex_steps "
                f"{cnt['iterate_tricomplex_steps']} count (calls "
                f"{table['dynamics.iterate_tricomplex'][0]})")
        if cnt["tc_mul_calls"]:
            print(f"{sn}.hypercomplex.tc_mul_calls {cnt['tc_mul_calls']} count")
        for layer in ("cli", "slices"):
            if counters[sn].get(f"{layer}.bytes_out"):
                print(f"{sn}.{layer}.bytes_out {counters[sn][layer + '.bytes_out']} B")
        if peaks[sn]:
            print(f"{sn}.slices.sample_peak_mb {max(peaks[sn]) / 2**20:.3f} MB "
                f"(tracemalloc peak inside sample_slice, max of {len(peaks[sn])})")

        ref = refs["counts"].get(workload, {}).get(sn)
        if seed == 0 and ref is not None:
            bad = [f"{key} {cnt[key]} != reference {ref[key]}"
                   for key in GATED_COUNTS if cnt[key] != ref[key]]
            if cnt["tc_mul_calls"] != ref["tc_mul_calls"]:
                print(f"note: {sn} tc_mul_calls {cnt['tc_mul_calls']} differs from "
                    f"reference {ref['tc_mul_calls']} (not gated)")
            print(f"{sn} exact counts vs reference.json: "
                f"{'match' if not bad else 'MISMATCH ' + '; '.join(bad)}")
            if bad:
                mismatches[sn] = bad

        p = f"cmd{k}."
        metrics[p + "cli.self_s"] = {"value": cli_self, "unit": "s"}
        metrics[p + "dynamics.self_s"] = {"value": layer_self["dynamics"], "unit": "s"}
        metrics[p + "dynamics.grid_self_s"] = {"value": grid_self, "unit": "s"}
        metrics[p + "dynamics.point_iters"] = {"value": cnt["point_iters"],
                                               "unit": "count"}
        metrics[p + "dynamics.member_iter_share"] = {"value": share, "unit": "ratio"}
        metrics[p + "dynamics.compactions"] = {"value": cnt["compactions"],
                                               "unit": "count"}
        metrics[p + "dynamics.mpoint_iters_per_s"] = {"value": rate, "unit": "Mit/s"}

    all_calls = [c for calls in grid.values() for c in calls]
    t1 = sum(c["replay_t1_s"] for c in all_calls)
    t2 = sum(c["replay_t2_s"] for c in all_calls)
    eff = t1 / (2.0 * t2) if t2 else 0.0
    print(f"dynamics.parallel_eff {eff:.6f} (1-thread {t1:.6f} s / "
        f"(2 x 2-thread {t2:.6f} s), grid calls replayed after each command)")
    overhead = wall - trace["replay_s"] - untraced_pass_s
    print(f"trace_overhead_s {overhead:.6f} s (traced pass {wall:.6f} s - replays "
        f"{trace['replay_s']:.6f} s - untraced median {untraced_pass_s:.6f} s; "
        f"bookkeeping {trace['bookkeeping_s']:.6f} s)")
    metrics["dynamics.parallel_eff"] = {"value": eff, "unit": "ratio"}
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, mismatches
