"""Benchmark of diracembed's CLI pipelines, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each iteration of a workload is a fresh worker process (worker.py) that
imports diracembed from the checkout's ``src``, loads the generated
config and runs the workload's CLI commands in order, one BLAS/OpenMP
thread.  Iterations repeat until the next one would end past
``--seconds`` (at least one runs); command timings are means over the
iterations, set-up time and memory medians.  With ``--trace 1``
untraced and traced iterations alternate, the traced ones supplying the
per-layer metrics and the difference of the two means of run_s the
tracing overhead.  Every iteration passes the correctness
gate or the run reports ``correct: false``.  The last line of stdout is
the result JSON; README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # the whole run, iterations included
STATE_DIR = ".perfbench"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# synth_s and verify_s are single commands, each half a run or less: on a
# host whose speed drifts over minutes they spread too far to gate, so
# they are reported beside the layers (and in the "# " line of every run).
COMMANDS = (("synth_s", "s"), ("verify_s", "s"))
PER_LAYER = (COMMANDS + tuple(tracer.PER_LAYER)
             + (("trace_overhead_s", "s"), ("failed_ops_frac", "1")))
ARTIFACTS = ("potential.csv", "manifest.json")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest(pkg: str) -> str:
    """Digest of the package sources: same digest, same program."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def machine_line() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "threads": THREAD_ENV}


class Run:
    """One benchmark run: a workload, a seed, a work directory."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, STATE_DIR, f"{workload}-s{seed}")
        self.out = os.path.join(self.work, "out")
        cfg, steps, self.expected_checks = workloads.WORKLOADS[workload](seed)
        inputs = json.dumps([cfg, steps], sort_keys=True).encode()
        self.key = (f"{workload}/seed={seed}/"
                    f"inputs={hashlib.sha256(inputs).hexdigest()[:16]}/"
                    f"src={source_digest(os.path.join(self.src, 'diracembed'))}")
        cfg["out_dir"] = self.out
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        self.commands = workloads.commands(steps, self.config, self.out)
        self.env = dict(os.environ, PYTHONPATH=self.src, **THREAD_ENV)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests = None

    def spawn(self, commands, trace: bool, timeout: float) -> dict:
        if commands:  # outputs are checked fresh on every iteration
            shutil.rmtree(self.out, ignore_errors=True)
        job = os.path.join(self.work, "job.json")
        result = os.path.join(self.work, "result.json")
        if os.path.exists(result):
            os.remove(result)
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"src": self.src, "config": self.config,
                       "commands": commands, "trace": trace,
                       "result": result}, fh)
        with open(os.path.join(self.work, "worker.log"), "w",
                  encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job,
                 repr(time.monotonic())],
                env=self.env, cwd=self.root, stdout=log, stderr=log,
                timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}; see "
                               f"{os.path.join(self.work, 'worker.log')}")
        with open(result, "r", encoding="utf-8") as fh:
            res = json.load(fh)
        expect = os.path.join(self.src, "diracembed", "__init__.py")
        if os.path.realpath(res["module"]) != os.path.realpath(expect):
            raise RuntimeError(f"imported {res['module']}, not {expect}")
        return res

    def gate(self, res: dict) -> None:
        """Correctness gate for one iteration's outputs."""
        for op in res["ops"]:
            self.attempted += 1
            if op["rc"] != 0:
                self.failed += 1
                self.problems.append(f"{op['name']} exited {op['rc']}")
        if any(op["name"] == "verify" for op in res["ops"]):
            path = os.path.join(self.out, "reports.json")
            reports = []
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    reports = json.load(fh)
            passed = sum(1 for r in reports if r.get("passed"))
            self.attempted += max(len(reports), self.expected_checks)
            self.failed += max(len(reports), self.expected_checks) - passed
            if len(reports) != self.expected_checks or passed != len(reports):
                self.problems.append(
                    f"verify passed {passed}/{len(reports)} checks, "
                    f"expected {self.expected_checks}")
        digests = {name: sha256_file(os.path.join(self.out, name))
                   if os.path.exists(os.path.join(self.out, name)) else None
                   for name in ARTIFACTS}
        if None in digests.values():
            self.problems.append("synth wrote no potential.csv or "
                                 "manifest.json")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append("artifact digests differ between "
                                 "iterations of one run")

    def iterate(self, seconds: float, trace: bool):
        """Alternate untraced (and, when tracing, traced) iterations."""
        t_start = time.monotonic()
        modes = (False, True) if trace else (False,)
        runs = {False: [], True: []}
        walls = []
        while True:
            mode = modes[len(walls) % len(modes)]
            left = t_start + RUN_LIMIT_S - time.monotonic()
            t0 = time.monotonic()
            res = self.spawn(self.commands, mode, timeout=left)
            walls.append(time.monotonic() - t0)
            self.gate(res)
            runs[mode].append(res)
            if len(walls) % len(modes):
                continue  # finish the untraced/traced pair
            next_end = time.monotonic() + len(modes) * statistics.median(walls)
            if next_end > t_start + min(seconds, RUN_LIMIT_S - 10.0):
                break
        setups = [r["setup_s"] for r in runs[False] + runs[True]]
        while len(setups) < MIN_SETUPS:
            left = t_start + RUN_LIMIT_S - time.monotonic()
            setups.append(self.spawn([], False, timeout=left)["setup_s"])
        return runs, setups

    def check_record(self, counts: dict | None) -> None:
        """Digests and counts must repeat across runs of the same inputs
        and package sources."""
        path = os.path.join(self.root, STATE_DIR, "record.json")
        key = self.key
        record = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        entry = record.setdefault(key, {})
        for field, value in (("digests", self.digests), ("counts", counts)):
            if value is None:
                continue
            if field in entry and entry[field] != value:
                self.problems.append(f"{field} differ from an earlier run "
                                     f"of the same sources ({key})")
            entry.setdefault(field, value)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def op_seconds(res: dict, name: str) -> float:
    return sum(op["s"] for op in res["ops"] if op["name"] == name)


def run_seconds(res: dict) -> float:
    return sum(op["s"] for op in res["ops"])


def bench(root: str, workload: str, seed: int, seconds: float,
          trace: bool) -> dict:
    run = Run(root, workload, seed)
    runs, setups = run.iterate(seconds, trace)
    plain = runs[False]
    med = statistics.median
    # Command timings are means over the run's iterations: the host's
    # speed switches between levels about 1.6x apart, and a median of a
    # few iterations jumps from one level to the other while the mean
    # moves only with the share of time spent at each.
    mean = statistics.fmean
    wall = {"synth_s": mean(op_seconds(r, "synth") for r in plain),
            "verify_s": mean(op_seconds(r, "verify") for r in plain),
            "run_s": mean(run_seconds(r) for r in plain)}
    info = {"workload": workload, "seed": seed, "trace": trace,
            "iterations": {"untraced": len(plain), "traced": len(runs[True])},
            "module": plain[0]["module"], "machine": machine_line(),
            "wall": wall}
    counts = None
    if trace:
        layers = [tracer.layer_metrics(r["spans"]) for r in runs[True]]
        counts = {k: layers[0][k] for k in tracer.COUNT_METRICS}
        if any({k: m[k] for k in tracer.COUNT_METRICS} != counts
               for m in layers):
            run.problems.append("counts differ between traced iterations")
        metrics = {name: wall[name] for name, _ in COMMANDS}
        metrics.update((name, med(m[name] for m in layers))
                       for name, _ in tracer.PER_LAYER)
        metrics["trace_overhead_s"] = (
            mean(run_seconds(r) for r in runs[True])
            - mean(run_seconds(r) for r in plain))
        metrics["failed_ops_frac"] = run.failed / run.attempted
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": med(setups),
            "run_s": wall["run_s"],
            "peak_rss_mb": med(r["peak_rss_kb"] / 1024.0 for r in plain),
        }
        units = dict(END_TO_END)
    run.check_record(counts)
    info["digests"] = run.digests
    info["problems"] = run.problems
    samples = [{"traced": trace_flag, "setup_s": r["setup_s"],
                "peak_rss_kb": r["peak_rss_kb"],
                "ops": {op["name"]: op["s"] for op in r["ops"]}}
               for trace_flag in (False, True) for r in runs[trace_flag]]
    with open(os.path.join(run.work, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(info, metrics=metrics, samples=samples,
                       setups=setups), fh, indent=1)
    for problem in run.problems:
        print(f"correctness: {problem}", file=sys.stderr)
    return {"info": info,
            "result": {"correct": not run.problems,
                       "attempted": run.attempted, "failed": run.failed,
                       "metrics": {k: {"value": float(v), "unit": units[k]}
                                   for k, v in metrics.items()}}}


def self_test(root: str) -> int:
    """One untraced iteration and one traced pair of free2_finite, which
    is smoke-sized; every metric BENCHMARK.json declares must appear."""
    with open(os.path.join(root, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = bench(root, "free2_finite", 0, 0.0, trace)["result"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if got != want:
            ok = False
            print(f"self-test: {key} metrics differ: missing "
                  f"{sorted(set(want) - set(got))}, extra "
                  f"{sorted(set(got) - set(want))}, units "
                  f"{sorted(k for k in want if k in got and got[k] != want[k])}",
                  file=sys.stderr)
        if not out["correct"] or out["failed"]:
            ok = False
            print("self-test: smoke run failed its correctness gate",
                  file=sys.stderr)
    print(f"self-test: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diracembed",
                                       "__init__.py")):
        print("perfbench: run from a checkout root holding "
              "src/diracembed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        ap.error("--workload is required")
    out = bench(root, args.workload, args.seed, args.seconds,
                bool(args.trace))
    print("# " + json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
