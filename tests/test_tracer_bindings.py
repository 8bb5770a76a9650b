"""The benchmark tracer still finds and wraps the phase solvers.

``perfbench/tracer.py`` replaces module attributes of ``synth``,
``verify``, ``floquet`` and ``cli`` by name and reads ``a``/``x_end``,
``x0``/``x1`` and ``.nfev`` from the calls.  A rename or a moved binding
breaks the benchmark's per-layer metrics; this runs one short call
through each solver wrapper and puts every attribute back.  The
``floquet.monodromy`` span wraps ``floquet.integrate``, so only a Floquet
frame opens it.
"""

import importlib.util
import os

import numpy as np

from diracembed import cli, floquet, synth, verify

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_solve_xi_and_integrate_R_xi(free_target_07, free_pq):
    tracing = load_tracer()
    modules = (cli, floquet, synth, verify)
    saved = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    t = free_target_07
    frames = []  # floquet.monodromy spans after each call

    def frame_spans():
        frames.append(sum(rec["name"] == "floquet.monodromy"
                          for rec in tracer.records()))

    try:
        tracing.install(tracer)
        traj = synth.solve_xi(t, 700.0, 0.0, 0.3, 720.0)
        run = verify.integrate_R_xi(
            t.data, lambda x: 0.01 * np.cos(np.asarray(x)), 5.0, 25.0, 0.3)
        frame_spans()
        floquet.band_scan(*free_pq, (0.5, 1.5), 0.1)
        frame_spans()
        floquet.floquet_solution(*free_pq, 0.7)  # through floquet.integrate
        frame_spans()
    finally:
        for mod, names in zip(modules, saved):
            for name, value in names.items():
                if getattr(mod, name) is not value:
                    setattr(mod, name, value)
    spans = {rec["name"]: rec for rec in tracer.records()}
    assert spans["synth.solve_xi"]["nfev"] == traj.nfev > 0
    assert spans["synth.solve_xi"]["length"] == 20.0
    assert spans["pruefer.integrate_R_xi"]["nfev"] == run.nfev > 0
    assert spans["pruefer.integrate_R_xi"]["length"] == 20.0
    # The span is the frame's: the bystander flow and the band scan take
    # their Magnus products past floquet.integrate.
    assert frames == [0, 0, 1]
    assert spans["floquet.monodromy"]["length"] == 1.0
    assert spans["floquet.monodromy"]["nfev"] == 2 * floquet.FRAME_INTERVALS
    assert floquet.integrate is saved[1]["integrate"]
    assert synth.solve_xi is saved[2]["solve_xi"]
    assert verify.integrate_R_xi is saved[3]["integrate_R_xi"]
