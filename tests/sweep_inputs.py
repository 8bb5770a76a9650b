"""The input contract, swept over seeded valid configs.

Each seed draws one valid config and runs ``synth`` on it through
``diracembed.cli.main`` in this process, in a temporary directory of its
own, then ``verify --manifest`` when ``synth`` exits 0.  The contract:

- ``synth`` exits 0, 1 (a named numerical failure) or 3 (resonance); never
  2 (a usage error, which a valid config must not give) and never with a
  traceback;
- ``synth`` exiting 0 implies ``verify`` exiting 0.

Every exit-1 message is printed; a seed that breaks the contract prints its
config, and the script then exits 1.  pytest does not collect this file
(it is not a test_*.py module); run it from the root of a checkout:

    PYTHONPATH=src python tests/sweep_inputs.py

One seed can be re-run from Python with ``sweep_one(seed)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time
import traceback

import numpy as np

from diracembed.cli import main

FREE_CENTRES = (0.7, 1.3, 1.9, 2.5)
GENERIC_CENTRES = (0.9, 1.7)
# tests/conftest.py's generic_pq
GENERIC_P = {"a0": 0.4, "cos": [0.3], "sin": [0.1]}
GENERIC_Q = {"a0": -0.2, "cos": [0.15, 0.05], "sin": [0.2]}
MASS_NUS = (0.055, 0.075, 0.095)  # lambda = sqrt(25 + nu^2) at p.a0 = 10
JITTER = 2e-3  # relative jitter of an energy about its centre
SEEDS = range(64)


def draw_config(seed: int) -> dict:
    """One valid config: a free frame with 1-3 targets, generic_pq with one,
    or the mass frame with one or two, finite or growing."""
    rng = np.random.default_rng(seed)

    def jitter(centre):
        return float(centre * (1.0 + rng.uniform(-JITTER, JITTER)))

    kind = rng.choice(["free", "free", "generic", "mass"])
    if kind == "mass":
        nus = rng.choice(MASS_NUS, size=rng.integers(1, 3), replace=False)
        doc = {"p": {"a0": 10.0}, "q": {"a0": 0.0},
               "lambdas": [float(np.sqrt(25.0 + v * v)) for v in sorted(nus)],
               "margin": 0.01, "mode": str(rng.choice(["finite", "growing"])),
               "h_name": "log", "a0": 6.2e4}
        ratio = rng.uniform(1.25, 2.6)
    else:
        if kind == "free":
            doc = {"p": {"a0": 0.0}, "q": {"a0": 0.0}}
            centres = rng.choice(FREE_CENTRES, size=rng.integers(1, 4),
                                 replace=False)
        else:
            doc = {"p": GENERIC_P, "q": GENERIC_Q}
            centres = [rng.choice(GENERIC_CENTRES)]
        doc["lambdas"] = [jitter(c) for c in sorted(centres)]
        doc["a0"] = float(rng.uniform(1.5e3, 4e3))
        ratio = rng.uniform(1.25, 1.4)
    doc["x_max"] = float(doc["a0"] * ratio)
    doc["b"] = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.2)
                                                    * doc["a0"])
    return doc


def run(argv) -> tuple[int | None, str]:
    """(exit code, stderr, else stdout) of one command; (None, traceback)
    if it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a traceback breaks the contract: report it, go on
        return None, traceback.format_exc()
    return rc, (err.getvalue() or out.getvalue()).strip()


def sweep_one(seed: int) -> list[str]:
    """Run one seed; return the contract's breaches (empty if it holds)."""
    doc = draw_config(seed)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**doc, "out_dir": os.path.join(tmp, "out")}, fh)
        s_rc, s_err = run(["synth", "--config", path])
        v_rc, v_err = None, ""
        if s_rc == 0:
            v_rc, v_err = run(["verify", "--manifest",
                               os.path.join(tmp, "out", "manifest.json")])
        reports = os.path.join(tmp, "out", "reports.json")
        if v_rc == 1 and os.path.exists(reports):  # name each failed check
            with open(reports, encoding="utf-8") as fh:
                v_err += "".join(f"; {d['name']}: {d.get('error', 'verdict')}"
                                 for d in json.load(fh) if not d["passed"])
    line = (f"seed {seed:3d}: {len(doc['lambdas'])} target(s) "
            f"p.a0={doc['p']['a0']:g} a0={doc['a0']:.6g} "
            f"x_max={doc['x_max']:.6g} b={doc['b']:.4g} "
            f"{doc.get('mode', 'finite')}: synth {s_rc}")
    if s_rc == 0:
        line += f", verify {v_rc}"
    print(f"{line} ({time.perf_counter() - t0:.2f} s)")
    for name, rc, err in (("synth", s_rc, s_err), ("verify", v_rc, v_err)):
        if rc != 0 and err:
            print(f"    {name} exit {rc}: {err}")
    breaches = []
    if s_rc not in (0, 1, 3):
        breaches.append(f"synth exited {s_rc}")
    if s_rc == 0 and v_rc != 0:
        breaches.append(f"synth exited 0, verify {v_rc}")
    if breaches:
        print(f"    CONTRACT BROKEN ({'; '.join(breaches)}); config: "
              f"{json.dumps(doc, sort_keys=True)}")
    return breaches


def sweep() -> int:
    t0 = time.perf_counter()
    broken = [seed for seed in SEEDS if sweep_one(seed)]
    print(f"{len(SEEDS) - len(broken)}/{len(SEEDS)} seeds keep the contract "
          f"in {time.perf_counter() - t0:.1f} s"
          + (f"; broken: {broken}" if broken else ""))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(sweep())
