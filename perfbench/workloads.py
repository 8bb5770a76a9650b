"""Workloads: seed -> RunConfig document, CLI steps, expected checks.

The seed scales the horizon: a0 and x_max are multiplied by one factor
in [1 - JITTER, 1 + JITTER], so every piece of the schedule moves while
its shape (one probe round, the same number of pieces) stays; seed 0
gives the configs below unchanged.  The target energies stay fixed,
because a few 1e-4 away from them ``probe_constants`` can place its
first probe piece one rounding step past ``solve_xi``'s EnvelopeTooLarge
guard, and ``synth`` then exits 1 (README.md, "Known defect").  The
program sees only the generated config file and command lines.
"""

from __future__ import annotations

import random

JITTER = 0.02

FREE = {"a0": 0.0, "cos": [], "sin": []}
# generic_pq from tests/conftest.py: the periodic background.
GENERIC_P = {"a0": 0.4, "cos": [0.3], "sin": [0.1]}
GENERIC_Q = {"a0": -0.2, "cos": [0.15, 0.05], "sin": [0.2]}


def _scale(seed):
    if seed == 0:
        return 1.0
    return 1.0 + JITTER * (2.0 * random.Random(seed).random() - 1.0)


def free2_finite(seed):
    s = _scale(seed)
    cfg = {"p": FREE, "q": FREE, "lambdas": [0.7, 1.3],
           "mode": "finite", "a0": 2.0e3 * s, "x_max": 2.6e3 * s}
    return cfg, ["synth", "verify"], 12


def periodic1_pipeline(seed):
    s = _scale(seed)
    cfg = {"p": GENERIC_P, "q": GENERIC_Q, "lambdas": [0.9],
           "mode": "finite", "a0": 1.2e3 * s, "x_max": 1.56e3 * s}
    return cfg, ["bands", ("floquet", "--lam", "0.9"),
                 ("oscillatory", "--lam", "0.9", "--a", "1.0",
                  "--x-max", "1e5"),
                 "synth", "verify"], 4


WORKLOADS = {f.__name__: f for f in (free2_finite, periodic1_pipeline)}


def commands(steps, config_path, out_dir):
    """Expand workload steps into named cli.main argument lists."""
    cmds = []
    for step in steps:
        step = (step,) if isinstance(step, str) else tuple(step)
        argv = [step[0], "--config", config_path]
        if step[0] == "oscillatory":
            argv += ["--out", out_dir]
        if step[0] == "verify":
            argv += ["--manifest", f"{out_dir}/manifest.json"]
        cmds.append({"name": step[0], "argv": argv + list(step[1:])})
    return cmds
