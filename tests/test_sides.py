"""The two half-lines side by side: _util.both_sides, and synth and verify
split over two processes with every output bit and every error of one."""

import inspect
import json
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from diracembed import RunConfig, _util, errors, schedule, synth
from diracembed.cli import main
from diracembed.errors import DiracEmbedError, NonFiniteState

forks = pytest.mark.skipif(not _util.FORK_SIDES,
                           reason="both_sides forks on Linux only")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_process(monkeypatch):
    monkeypatch.setattr(_util, "FORK_SIDES", False)


# ---------------------------------------------------------------------------
# errors cross the pipe whole


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, DiracEmbedError)]


def test_every_error_survives_a_pickle_round_trip():
    special = {"ResonantPair": (0, 1, "k_i - k_j", 0.01),
               "DecayTooSlow": (-90.0, -95.0)}
    classes = _error_classes()
    assert set(special) <= {cls.__name__ for cls in classes}
    for cls in classes:
        exc = cls(*special.get(cls.__name__, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


# ---------------------------------------------------------------------------
# the helper


@forks
def test_the_plus_side_runs_in_a_child():
    parent = os.getpid()
    plus, minus = _util.both_sides(lambda side: (side, os.getpid()))
    assert plus[0] == 1 and plus[1] != parent
    assert minus == (-1, parent)
    _no_child_left()


def _raise_on(sides):
    def fn(side):
        if side > 0:
            time.sleep(0.2)  # the plus side ends last
        if side in sides:
            raise errors.ResonantPair(side, 0, f"side {side}", 0.5)
        return side
    return fn


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "one-process"])
@pytest.mark.parametrize("sides,raised", [((1,), 1), ((-1,), -1),
                                          ((1, -1), 1)],
                         ids=["plus", "minus", "both"])
def test_an_error_is_the_one_process_error(monkeypatch, fork, sides, raised):
    if not fork:
        _one_process(monkeypatch)
    elif not _util.FORK_SIDES:
        pytest.skip("both_sides forks on Linux only")
    # A minus error in hand first still yields to the plus side's.
    with pytest.raises(errors.ResonantPair) as info:
        _util.both_sides(_raise_on(sides))
    assert (info.value.i, info.value.condition) == (raised, f"side {raised}")
    _no_child_left()


@forks
def test_an_interrupt_kills_the_child():
    def fn(side):
        if side > 0:
            time.sleep(60.0)
        raise KeyboardInterrupt

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _util.both_sides(fn)
    assert time.monotonic() - t0 < 30.0
    _no_child_left()


@forks
def test_an_unpicklable_plus_value_is_an_error():
    with pytest.raises(RuntimeError, match="ended without an outcome"):
        _util.both_sides(lambda side: (lambda: side))
    _no_child_left()


@forks
def test_the_child_flushes_no_inherited_buffer(tmp_path):
    src = os.path.dirname(os.path.dirname(_util.__file__))
    code = ("import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from diracembed import _util\n"
            "sys.stdout.write('unflushed ')\n"
            "print(_util.both_sides(lambda side: side))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path)
    assert run.stdout == "unflushed (1, -1)\n"


# ---------------------------------------------------------------------------
# the split changes no bit


def _schedule_bytes(sched):
    pieces = [(pc.lam, pc.side, pc.a, pc.x_end, pc.xi0, pc.nfev,
               pc.target is not None, pc.x_grid.tobytes(),
               pc.xi_grid.tobytes(), pc.V_grid.tobytes(), pc.zeta.x.tobytes(),
               pc.zeta.c.tobytes()) for pc in sched.pieces]
    return pieces, sched.activations, sched.metadata


def _schedule_kw(mode, targets):
    if mode == "finite":
        return {"a0": 2.0e3, "x_max": 2.6e3}
    # Grows past twice the larger envelope within the horizon, so the
    # second target joins after the first cycle.
    top = max(t.envelope for t in targets)
    return {"a0": 2.0e3, "x_max": 2.8e3,
            "h": lambda x: 1.5 * top * (np.abs(x) / 2.0e3) ** 20}


@forks
@pytest.mark.parametrize("mode", ["finite", "growing"])
def test_schedule_is_the_one_process_schedule(monkeypatch, free_target_07,
                                              free_target_13, mode):
    targets = [free_target_07, free_target_13]
    kw = _schedule_kw(mode, targets)
    split = schedule(targets, mode=mode, **kw)
    _no_child_left()
    _one_process(monkeypatch)
    whole = schedule(targets, mode=mode, **kw)
    assert _schedule_bytes(split) == _schedule_bytes(whole)
    assert all(pc.target is t for pc, t in zip(split.pieces,
                                               [p.target for p in whole.pieces]))
    if mode == "growing":
        assert [i for i, _ in split.activations] == [0, 1]


@pytest.mark.parametrize("mode", ["finite", "growing"])
def test_the_plan_round_trips_through_the_manifest(tmp_path, free_pq,
                                                   free_target_07,
                                                   free_target_13, mode):
    # The layout both sides follow, recomputed from a written manifest's own
    # inputs as verify does, is the schedule's.
    targets = [free_target_07, free_target_13]
    kw = _schedule_kw(mode, targets)
    sched = schedule(targets, mode=mode, **kw)
    path = str(tmp_path / "manifest.json")
    synth.write_manifest(synth.assemble(sched), path, *free_pq)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    T, N, owners, activations = synth.plan(
        doc["C_bound"], [abs(t["omega"]) * t["C"] for t in doc["targets"]],
        doc["mode"], doc["a0"], doc["x_max"], doc["b"], kw.get("h"))
    assert (T, N, activations) == (sched.metadata["T"], sched.metadata["N"],
                                   sched.activations)
    assert (T, N) == (doc["T"], doc["N"])
    assert [targets[c].lam for c in owners] \
        == [pc.lam for pc in sched.pieces[::2]]
    assert len(activations) == 2


@forks
def test_verify_reports_are_the_one_process_reports(tmp_path, monkeypatch,
                                                    small_run):
    cfg_path, out = small_run
    manifest = os.path.join(out, "manifest.json")
    for name in ("split", "whole"):
        if name == "whole":
            _one_process(monkeypatch)
        assert main(["verify", "--config", cfg_path, "--manifest", manifest,
                     "--out", str(tmp_path / name)]) == 0
        _no_child_left()
    assert (tmp_path / "split" / "reports.json").read_bytes() \
        == (tmp_path / "whole" / "reports.json").read_bytes()


# ---------------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize("command", ["synth", "verify"])
@pytest.mark.parametrize("sides", [(1,), (-1,), (1, -1)],
                         ids=["plus", "minus", "both"])
def test_a_failing_side_fails_as_one_process(tmp_path, monkeypatch, capsys,
                                             small_run, command, sides):
    # Every lock of a failing side past a0 raises, naming its side: the
    # probe's locks (all below a0) pass, and so does the parent's synth of
    # small_run.  When both sides fail the plus side's error is the one.
    cfg_path, out = small_run
    a0 = RunConfig.load(cfg_path).a0
    real = synth.solve_xi

    def solve_xi(target, a, b, xi0, x_end, side=1, **kw):
        if side in sides and a >= a0:
            raise NonFiniteState(f"side {side} lock at {a:g}")
        return real(target, a, b, xi0, x_end, side=side, **kw)

    monkeypatch.setattr(synth, "solve_xi", solve_xi)
    argv = [command, "--config", cfg_path, "--out", str(tmp_path)]
    if command == "verify":
        argv += ["--manifest", os.path.join(out, "manifest.json")]
    seen = []
    for fork in (True, False):
        if not fork:
            _one_process(monkeypatch)
        rc = main(argv)
        _no_child_left()
        seen.append((rc, capsys.readouterr().err))
    assert seen[0] == seen[1]
    assert seen[0][0] == 1
    assert seen[0][1].startswith(
        f"check failed: NonFiniteState: side {sides[0]} lock at ")
    assert not (tmp_path / ("manifest.json" if command == "synth"
                            else "reports.json")).exists()
