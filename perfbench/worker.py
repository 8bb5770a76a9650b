"""One workload iteration in a fresh process.

Usage: python3 perfbench/worker.py JOB.json SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before the spawn.

The job names the checkout's ``src`` directory, the config, the CLI
commands in order and whether to trace.  The worker imports diracembed
from that ``src`` (not from any installed copy), loads and validates the
config, runs each command through ``diracembed.cli.main`` and writes a
result JSON: set-up time measured from the parent's spawn, each
command's exit code and wall time, the peak resident set, the resolved
module path and, when traced, every span.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main(job_path: str, t_spawn: float) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import diracembed
    from diracembed import cli
    from diracembed.config import RunConfig

    RunConfig.load(job["config"])
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and
    # this one share a time base.
    setup_s = time.monotonic() - t_spawn

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    for cmd in job["commands"]:
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            rc = cli.main(cmd["argv"])
        ops.append({"name": cmd["name"], "rc": rc,
                    "s": time.perf_counter() - t0})

    result = {
        "module": os.path.abspath(diracembed.__file__),
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.records() if tracer else None,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
