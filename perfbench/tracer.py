"""Span recorder that wraps diracembed's public functions from outside.

Nothing in the package is edited: each wrapper is installed under the
name the calling module looks up, because the modules import these
names into their own namespaces (``synth.solve_xi`` and
``verify.solve_xi`` are two bindings of one function).  A span records
name, start, end, parent and the counts its call returned (nfev,
integrated length |x1 - x0|, bytes written).  Spans stay in memory until
the traced process writes them out at its end.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# A solver span is split by the code that called it.  Anything under
# probe_constants is probe work, whichever check sits in between;
# otherwise the nearest tagged ancestor names the caller.
_CALLER_TAGS = {
    "verify.stability_check": "stability",
    "verify.track_targets": "track",
    "synth.schedule": "schedule",
    "synth.rebuild_potential": "rebuild",
}
_PROBE = "synth.probe_constants"

_SOLVER = (("calls", "count"), ("s", "s"), ("self_s", "s"),
           ("nfev", "count"), ("nfev_per_len", "count/period"),
           ("us_per_eval", "us"))

# Every per-layer metric the traced run reports, with its unit.  The
# harness emits each one on every workload, 0 where a layer is unused.
PER_LAYER = (
    [(f"synth.solve_xi-{c}.{f}", u)
     for c in ("schedule", "probe", "rebuild") for f, u in _SOLVER]
    + [(f"pruefer.integrate_R_xi-{c}.{f}", u)
       for c in ("schedule", "probe", "stability", "track")
       for f, u in _SOLVER]
    + [("synth.probe_constants.s", "s"),
       ("synth.probe_constants.self_s", "s"),
       ("synth.probe_constants.k_tries", "count"),
       ("synth.slaved_amplitude.calls", "count"),
       ("synth.slaved_amplitude.s", "s"),
       ("synth.piece_potential.calls", "count"),
       ("synth.piece_potential.s", "s"),
       ("synth.rebuild_potential.s", "s"),
       ("synth.rebuild_potential.self_s", "s"),
       ("synth.write.s", "s"),
       ("synth.write.bytes", "bytes"),
       ("verify.stability_check.calls", "count"),
       ("verify.stability_check.s", "s"),
       ("verify.stability_check.self_s", "s"),
       ("verify.track_targets.s", "s"),
       ("verify.track_targets.self_s", "s"),
       ("verify.decay_check.s", "s"),
       ("verify.l2_tail_estimate.s", "s"),
       ("verify.oscillatory.calls", "count"),
       ("verify.oscillatory.s", "s"),
       ("floquet.monodromy.calls", "count"),
       ("floquet.monodromy.s", "s"),
       ("floquet.monodromy.nfev", "count"),
       ("floquet.frame.calls", "count"),
       ("floquet.frame.s", "s"),
       ("cli.self_s", "s")]
)
COUNT_METRICS = tuple(name for name, unit in PER_LAYER
                      if unit == "count" or unit == "bytes")


class Tracer:
    """In-memory span list for one traced process."""

    def __init__(self):
        # [name, start, end, parent index, nfev, length, bytes]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, 0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, counts=None):
        """fn inside a span; counts(args, kwargs, out) -> (nfev, length,
        bytes) fills the span's counters from the call's result."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                rec[4], rec[5], rec[6] = counts(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "nfev": s[4], "length": s[5], "bytes": s[6]}
                for s in self.spans]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _solve_xi_counts(args, kwargs, out):
    a = float(_arg(args, kwargs, 1, "a"))
    x_end = float(_arg(args, kwargs, 4, "x_end"))
    return int(out.nfev), abs(x_end - a), 0


def _r_xi_counts(args, kwargs, out):
    x0 = float(_arg(args, kwargs, 2, "x0"))
    x1 = float(_arg(args, kwargs, 3, "x1"))
    return int(out.nfev), abs(x1 - x0), 0


def _integrate_counts(args, kwargs, out):
    x0 = float(_arg(args, kwargs, 1, "x0"))
    x1 = float(_arg(args, kwargs, 2, "x1"))
    return int(out.nfev), abs(x1 - x0), 0


def _probe_counts(args, kwargs, out):
    # K doubles from env_floor = max 2C/k until accepted, and the
    # returned K is twice the accepted value, so the rounds follow.
    # They ride in the span's nfev slot and surface as k_tries.
    targets = _arg(args, kwargs, 0, "targets")
    env_floor = max(2.0 * t.C / t.k for t in targets)
    return int(round(math.log2(out[1] / (2.0 * env_floor)))) + 1, 0.0, 0


def _write_counts(args, kwargs, out):
    return 0, 0.0, os.path.getsize(_arg(args, kwargs, 1, "path"))


def install(tracer: Tracer) -> None:
    """Wrap every traced binding in the loaded diracembed modules."""
    from diracembed import cli, floquet, synth, verify

    def put(name, counts, owner, attr, *others):
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(fn, name, counts)
        for mod in (owner,) + others:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the "
                                   f"function bound in {owner.__name__}")
            setattr(mod, attr, wrapped)

    put("synth.solve_xi", _solve_xi_counts, synth, "solve_xi", verify)
    put("pruefer.integrate_R_xi", _r_xi_counts, synth, "integrate_R_xi",
        verify)
    put("floquet.monodromy", _integrate_counts, floquet, "integrate")
    put("floquet.frame", None, synth, "floquet_solution", cli)
    put("floquet.frame", None, synth, "derived_data", cli)
    put(_PROBE, _probe_counts, synth, "probe_constants")
    put("synth.slaved_amplitude", None, synth, "slaved_amplitude", verify)
    put("synth.piece_potential", None, synth, "piece_potential", verify)
    put("synth.schedule", None, cli, "schedule")
    put("synth.rebuild_potential", None, cli, "rebuild_potential")
    put("synth.write", _write_counts, cli, "write_potential_csv")
    put("synth.write", _write_counts, cli, "write_manifest")
    # probe_constants imports these two from verify at call time, so the
    # verify binding and the cli binding share one wrapper.
    put("verify.stability_check", None, verify, "stability_check", cli)
    put("verify.decay_check", None, verify, "decay_check", cli)
    put("verify.track_targets", None, cli, "track_targets")
    put("verify.l2_tail_estimate", None, cli, "l2_tail_estimate")
    put("verify.oscillatory", None, cli, "oscillatory_check_41")
    put("verify.oscillatory", None, cli, "oscillatory_check_42")


def layer_metrics(spans: list[dict]) -> dict:
    """Aggregate span records into the PER_LAYER metrics.

    Self time is a span's duration minus its children's; calls nest
    without overlap in one thread, so the children's sum is the time
    they cover.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield spans[p]["name"]
            p = spans[p]["parent"]

    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "nfev": 0, "len": 0.0, "bytes": 0})
    for i, s in enumerate(spans):
        up = list(ancestors(i))
        under_probe = _PROBE in up
        key = s["name"]
        if key in ("synth.solve_xi", "pruefer.integrate_R_xi"):
            tag = "probe" if under_probe else next(
                (_CALLER_TAGS[n] for n in up if n in _CALLER_TAGS), "other")
            key = f"{key}-{tag}"
        elif key in ("verify.stability_check", "verify.decay_check") \
                and under_probe:
            key += "-probe"  # counted within probe_constants, not verify
        a = agg[key]
        a["calls"] += 1
        a["s"] += dur[i]
        a["self_s"] += dur[i] - child[i]
        a["nfev"] += s["nfev"]
        a["len"] += s["length"]
        a["bytes"] += s["bytes"]

    out = {}
    for name, _unit in PER_LAYER:
        layer, field = name.rsplit(".", 1)
        if name == "synth.probe_constants.k_tries":
            out[name] = agg[layer]["nfev"]
            continue
        a = agg[layer]
        if field == "nfev_per_len":
            out[name] = a["nfev"] / a["len"] if a["len"] else 0.0
        elif field == "us_per_eval":
            out[name] = a["s"] * 1e6 / a["nfev"] if a["nfev"] else 0.0
        else:
            out[name] = a[field]
    return out
