"""mbkit benchmark: end-to-end command timings and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload render2d|render3d|check \
        [--seed N] [--seconds S] [--trace 0|1]

Each pass is a fresh interpreter (`pass_runner.py`) that imports mbkit.cli
cold and drives the workload's commands through `mbkit.cli.main(argv)`, as a
CLI user pays on every call.  Passes repeat for --seconds; medians are
reported.  With --trace 1 one more pass runs with the spans and counters of
`tracing.py` installed, and the per-layer metrics come from it.  Every output
digest is checked against the manifests, against the first pass of the run
and, where the seed allows, against `reference.json`.  Human-readable lines
go first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNNER = HERE / "pass_runner.py"
THREADS = 2
PASS_TIMEOUT_S = 170
PASS_BUDGET_S = 110  # no new untraced pass starts after this much of the run
MIN_SETUP_SAMPLES = 9
ESTIMATE_OK = ("theorem", "conjecture consistent")

# Slot names per workload: end-to-end metric cmd1_s / cmd2_s is the time of
# the first / second named command group.
SLOTS = {
    "render2d": ("multibrot", "hyperbrot"),
    "render3d": ("perplexbric", "tetrabric"),
    "check": ("verify", "estimate"),
}


# --- workloads ------------------------------------------------------------------


def _shifted(window, cells, rng):
    """Shift each axis of a window by a seeded fraction of one cell."""
    out = []
    for (lo, hi), n in zip(window, cells):
        off = 0.0 if rng is None else (rng.random() - 0.5) * (hi - lo) / n
        out.append((lo + off, hi + off))
    return out


def _window_arg(window) -> str:
    return "--window=" + ",".join(f"{lo!r}:{hi!r}" for lo, hi in window)


def _render(label, slot, argv, outputs, out_name):
    return {"label": label, "slot": slot, "argv": argv, "outputs": outputs,
            "manifest": f"{out_name}.manifest.json", "seeded": True, "check": None}


def workload_commands(workload: str, seed: int, work: Path) -> list[dict]:
    """The workload's commands; seed 0 gives the documented default windows."""
    rng = None if seed == 0 else random.Random(seed)
    if workload == "render2d":
        cmds = []
        for label, window in (("multibrot", ((-1.5, 1.5), (-1.5, 1.5))),
                              ("hyperbrot", ((-0.4, 0.4), (-0.4, 0.4)))):
            out = f"{label}.pgm"
            argv = ["render2d", "--set", label, "--p", "3", "--max-iter", "1000",
                    "--res", "1000", _window_arg(_shifted(window, (1000, 1000), rng)),
                    "--out", str(work / out)]
            cmds.append(_render(label, label, argv, [out], out))
        return cmds
    if workload == "render3d":
        cmds = []
        for label, units, half, dims in (("perplexbric", "1,j1,j2", 0.5, 128),
                                         ("tetrabric", "1,i1,i2", 1.5, 96)):
            window = _shifted(((-half, half),) * 3, (dims,) * 3, rng)
            argv = ["render3d", "--slice", units, "--p", "3", "--max-iter", "1000",
                    "--dims", str(dims), _window_arg(window), "--out", str(work / label)]
            cmds.append(_render(label, label, argv,
                                [f"{label}.mbv1", f"{label}.xyz"], label))
        return cmds
    if workload == "check":
        cmds = []
        for suite in ("algebra", "roots", "dynamics", "slices"):
            # The dynamics suite raises OverflowError for most seeds (its
            # hyperbolic_decomposition check cubes escaping orbits with float
            # `**`), so it runs at its documented seed 0; the other suites
            # take the workload seed.
            suite_seed = 0 if suite == "dynamics" else seed
            label = f"verify_{suite}"
            cmds.append({
                "label": label, "slot": "verify",
                "argv": ["verify", "--suite", suite, "--seed", str(suite_seed),
                         "--out", str(work / label)],
                "outputs": [f"{label}.txt", f"{label}.json"],
                "manifest": f"{label}.manifest.json",
                "seeded": suite_seed != 0, "check": "verify"})
        kinds = [("real-extent", p) for p in range(2, 7)] + [("hyperbric-area", 3)]
        for kind, p in kinds:
            label = f"{kind.replace('-', '_')}_p{p}"
            cmds.append({
                "label": label, "slot": "estimate",
                "argv": ["estimate", "--kind", kind, "--p", str(p),
                         "--out", str(work / label)],
                "outputs": [f"{label}.txt", f"{label}.json"],
                "manifest": f"{label}.manifest.json",
                "seeded": False, "check": "estimate"})
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


# --- passes ---------------------------------------------------------------------


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pass(spec_path: Path, result_path: Path, env: dict, work: Path,
             trace: bool = False) -> tuple[float, dict | None, str]:
    """Run one pass process; return its wall time, result and stderr tail."""
    argv = [sys.executable, str(RUNNER), str(spec_path), str(result_path)]
    if trace:
        argv.append("--trace")
    result_path.unlink(missing_ok=True)
    err_path = work / "pass.stderr"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=PASS_TIMEOUT_S)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        wall = time.perf_counter() - t0
    tail = err_path.read_text(errors="replace")[-2000:]
    if rc != 0 or not result_path.exists():
        return wall, None, f"pass process exit {rc}: {tail}"
    return wall, json.loads(result_path.read_text()), tail


def check_pass(cmds, result, work: Path, seed: int, refs: dict,
               first: dict | None) -> tuple[dict, dict]:
    """Check every command of a pass; return (problems by label, digests)."""
    problems: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    recs = {r["label"]: r for r in result["commands"]} if result else {}
    for cmd in cmds:
        label = cmd["label"]
        bad = problems.setdefault(label, [])
        rec = recs.get(label)
        if rec is None:
            bad.append("did not run")
            continue
        if rec["error"]:
            bad.append("raised " + rec["error"].strip().splitlines()[-1])
        elif rec["rc"] != 0:
            bad.append(f"exit code {rec['rc']}")
        for name in cmd["outputs"]:
            path = work / name
            if not path.is_file():
                bad.append(f"{name} missing")
                continue
            digest = digests[name] = sha256(path)
            if (seed == 0 or not cmd["seeded"]) and digest != refs["digests"].get(name):
                bad.append(f"{name} digest differs from reference.json")
            if first is not None and name in first and digest != first[name]:
                bad.append(f"{name} digest differs from the run's first pass")
        manifest = work / cmd["manifest"]
        if manifest.is_file():
            recorded = json.loads(manifest.read_text())["outputs"]
            if set(recorded) != set(cmd["outputs"]):
                bad.append(f"manifest lists {sorted(recorded)}")
            for name, digest in recorded.items():
                if name in digests and digests[name] != digest:
                    bad.append(f"manifest digest of {name} differs from the file")
        else:
            bad.append(f"{cmd['manifest']} missing")
        report = work / cmd["outputs"][-1]
        if cmd["check"] and report.is_file():
            data = json.loads(report.read_text())
            if cmd["check"] == "verify" and data.get("overall") is not True:
                bad.append("overall is not pass")
            if cmd["check"] == "estimate" and data.get("status") not in ESTIMATE_OK:
                bad.append(f"status {data.get('status')!r}")
    return {k: v for k, v in problems.items() if v}, digests


# --- statistics and reporting -------------------------------------------------------


def summary(values) -> str:
    vals = sorted(values)
    return (f"median {statistics.median(vals):.6g} min {vals[0]:.6g} "
            f"max {vals[-1]:.6g} n={len(vals)}")


def slot_times(cmds, result) -> tuple[float, float]:
    slot_of = {c["label"]: c["slot"] for c in cmds}
    order = list(dict.fromkeys(c["slot"] for c in cmds))
    sums = dict.fromkeys(order, 0.0)
    for rec in result["commands"]:
        sums[slot_of[rec["label"]]] += rec["wall_s"]
    return sums[order[0]], sums[order[1]]


def environment(root: Path, env_child: dict) -> dict:
    """nproc, threads, versions, git commit (when a git checkout) and src digest."""
    commit = "unavailable (not a git checkout)"
    if (root / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return {
        "nproc": env_child["nproc"], "MBK_THREADS": env_child["MBK_THREADS"],
        "python": env_child["python"], "numpy": env_child["numpy"],
        "git_commit": commit, "src_sha256": h.hexdigest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(SLOTS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mbkit" / "cli.py").is_file():
        print(f"error: {root}/src/mbkit/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "reference.json").read_text())
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench(args, root, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, root: Path, work: Path, refs: dict) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), MBK_THREADS=str(THREADS))
    # Cold imports read the bytecode cache that an installed CLI has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmds = workload_commands(args.workload, args.seed, work)
    (work / "logs").mkdir()
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({"commands": cmds, "log_dir": str(work / "logs")}))
    probe_path = work / "probe.json"
    probe_path.write_text(json.dumps({"commands": [], "log_dir": str(work / "logs")}))
    result_path = work / "result.json"
    slot_names = SLOTS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for c in cmds:
        print(f"command {c['label']}: mbkit {' '.join(c['argv'])}")

    # Warm-up: the first import writes the bytecode cache.  Its time is not
    # reported.
    _, res, err = run_pass(probe_path, result_path, env, work)
    if res is None:
        print(f"error: mbkit.cli does not import: {err}", file=sys.stderr)
        return 1
    if res["env"]["mbkit_file"] != str(root / "src" / "mbkit" / "cli.py"):
        print(f"error: imported {res['env']['mbkit_file']}, not this checkout's "
              "src/", file=sys.stderr)
        return 1
    env_info = environment(root, res["env"])
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    if THREADS > env_info["nproc"]:
        warning = (f"WARNING: MBK_THREADS={THREADS} exceeds nproc={env_info['nproc']}; "
                   "the machine is oversubscribed and these numbers must not be compared")
        print(warning)
        print(warning, file=sys.stderr)

    attempted = failed = 0
    first_digests = None
    passes = []  # (wall_s, result)
    setups = []
    t_start = time.perf_counter()
    while True:
        wall, res, err = run_pass(spec_path, result_path, env, work)
        problems, digests = check_pass(cmds, res, work, args.seed, refs, first_digests)
        attempted += len(cmds)
        failed += len(problems)
        for label, bad in problems.items():
            print(f"FAIL pass {len(passes) + 1} {label}: {'; '.join(bad)}")
        if res is None:
            print(f"FAIL pass {len(passes) + 1}: {err.strip()}")
            break
        first_digests = first_digests or digests
        passes.append((wall, res))
        setups.append(res["setup_s"])
        c1, c2 = slot_times(cmds, res)
        print(f"pass {len(passes)}: {wall:.4f} s  setup {res['setup_s']:.4f} s  "
              f"{slot_names[0]} {c1:.4f} s  {slot_names[1]} {c2:.4f} s  "
              f"peak_rss {res['peak_rss_mb']:.1f} MB"
              f"{'  FAILED' if problems else ''}")
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds or elapsed + wall > PASS_BUDGET_S:
            break
    if first_digests:
        for name, digest in sorted(first_digests.items()):
            print(f"digest {name} {digest}")
    while passes and len(setups) < MIN_SETUP_SAMPLES:
        _, res, _ = run_pass(probe_path, result_path, env, work)
        if res is not None:
            setups.append(res["setup_s"])

    traced = None
    if args.trace and passes:
        wall, res, err = run_pass(spec_path, result_path, env, work, trace=True)
        problems, _ = check_pass(cmds, res, work, args.seed, refs, first_digests)
        if res is None:
            print(f"FAIL traced pass: {err.strip()}")
        else:
            traced = (wall, res)
            for label, bad in res["trace"]["replay_problems"].items():
                problems.setdefault(label, []).extend(bad)
        attempted += len(cmds)
        traced_problems = problems
    if not passes or (args.trace and traced is None):
        print("error: no complete pass", file=sys.stderr)
        return 1

    walls = [w for w, _ in passes]
    slots = [slot_times(cmds, r) for _, r in passes]
    rss = [r["peak_rss_mb"] for _, r in passes]
    e2e = {
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_s": metric(statistics.median(walls), "s"),
        "cmd1_s": metric(statistics.median(s[0] for s in slots), "s"),
        "cmd2_s": metric(statistics.median(s[1] for s in slots), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    print(f"setup_s (import mbkit.cli) {summary(setups)} s")
    print(f"pass_s {summary(walls)} s")
    print(f"{slot_names[0]}_s (cmd1_s) {summary(s[0] for s in slots)} s")
    print(f"{slot_names[1]}_s (cmd2_s) {summary(s[1] for s in slots)} s")
    print(f"peak_rss_mb {summary(rss)} MB")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed / "
          f"{attempted} commands attempted)")

    metrics = e2e
    if args.trace:
        from report import per_layer
        metrics, mismatches = per_layer(cmds, slot_names, traced,
                                        statistics.median(walls), args.workload,
                                        args.seed, refs)
        # A count mismatch is charged to the first command of its slot.
        for slot, bad in mismatches.items():
            label = next(c["label"] for c in cmds if c["slot"] == slot)
            traced_problems.setdefault(label, []).extend(bad)
        failed += len(traced_problems)
        for label, bad in traced_problems.items():
            print(f"FAIL traced pass {label}: {'; '.join(bad)}")
        print(f"error_rate with traced pass {failed / attempted:.6g} ({failed} "
              f"failed / {attempted} commands attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
