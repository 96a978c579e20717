"""One benchmark pass: a fresh interpreter running a workload's commands.

Usage: python3 pass_runner.py SPEC.json RESULT.json [--trace]

SPEC.json holds {"commands": [{"label": ..., "argv": [...]}, ...]}.  Each
command goes through `mbkit.cli.main(argv)` in this one process, as a CLI
user's call would, after a cold `import mbkit.cli` whose time is reported as
the set-up time.  With --trace, the spans and counters of `tracing.py` are
installed after the import and each command's grid-kernel calls are replayed
at 1 and 2 threads once the command has finished.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main(argv) -> int:
    spec_path, result_path = argv[1], argv[2]
    trace = "--trace" in argv[3:]
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import mbkit.cli
    setup_s = time.perf_counter() - t0

    import numpy

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    commands = []
    replay_problems = {}
    replay_s = 0.0
    for cmd in spec["commands"]:
        rec = {"label": cmd["label"], "rc": None, "error": None}
        if tracer is not None:
            tracer.command = cmd["label"]
        log_path = os.path.join(spec["log_dir"], cmd["label"] + ".log")
        with open(log_path, "w") as log, contextlib.redirect_stdout(log):
            t = time.perf_counter()
            try:
                rec["rc"] = mbkit.cli.main(cmd["argv"])
            except SystemExit as exc:  # argparse rejects the argv
                rec["rc"] = exc.code
            except Exception:
                rec["error"] = traceback.format_exc(limit=4)
            rec["wall_s"] = time.perf_counter() - t
        if tracer is not None:
            t = time.perf_counter()
            problems = tracer.replay_grid_calls()
            replay_s += time.perf_counter() - t
            if problems:
                replay_problems[cmd["label"]] = problems
        commands.append(rec)

    result = {
        "setup_s": setup_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mbkit_file": mbkit.cli.__file__,
            "MBK_THREADS": os.environ.get("MBK_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        result["trace"] = {
            "spans": [[cmd, name, *rec] for (cmd, name), rec in tracer.spans.items()],
            "counts": [[cmd, name, n] for (cmd, name), n in tracer.counts.items()],
            "grid_calls": tracer.grid_calls,
            "sample_peaks": tracer.sample_peaks,
            "bookkeeping_s": tracer.bookkeeping_s,
            "replay_problems": replay_problems,
            "replay_s": replay_s,
        }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
