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
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from diracembed import (ENVELOPES, PeriodicCoefficient, RunConfig, _util,
                        errors, schedule, synth)
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
               pc.omega, pc.x_grid.tobytes(),
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


@forks
@pytest.mark.parametrize("mode", ["finite", "growing"])
def test_cli_synth_is_the_one_process_synth(tmp_path, monkeypatch,
                                            free_target_07, free_target_13,
                                            mode):
    kw = _schedule_kw(mode, [free_target_07, free_target_13])
    if mode == "growing":
        monkeypatch.setitem(ENVELOPES, "steep", kw.pop("h"))
        kw.update(mode="growing", h_name="steep")
    cfg_path = str(tmp_path / "config.json")
    RunConfig(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
              lambdas=[0.7, 1.3], out_dir=str(tmp_path / "split"),
              **kw).save(cfg_path)
    assert main(["synth", "--config", cfg_path]) == 0
    _no_child_left()
    _one_process(monkeypatch)
    assert main(["synth", "--config", cfg_path,
                 "--out", str(tmp_path / "whole")]) == 0
    for name in ("potential.csv", "manifest.json"):
        assert (tmp_path / "split" / name).read_bytes() \
            == (tmp_path / "whole" / name).read_bytes()


@forks
def test_each_side_formats_its_own_rows(tmp_path, monkeypatch, small_run):
    # Every call of the row formatter logs its process and its piece's side:
    # the plus pieces' rows are made in the child, and the parent makes only
    # the minus pieces' rows, so none after the join.
    cfg_path, _ = small_run
    log = tmp_path / "formatted.txt"
    real = synth.csv_blocks

    def csv_blocks(cols, block=512):
        side = "plus" if cols[0][0] > 0 else "minus"
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {side}\n")
        return real(cols, block)

    monkeypatch.setattr(synth, "csv_blocks", csv_blocks)
    assert main(["synth", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 0
    _no_child_left()
    calls = [line.split() for line in log.read_text().splitlines()]
    with open(tmp_path / "out" / "manifest.json", encoding="utf-8") as fh:
        n_pieces = len(json.load(fh)["pieces"])
    plus = {int(pid) for pid, side in calls if side == "plus"}
    assert len(calls) == n_pieces
    assert [side for _, side in calls].count("plus") == n_pieces // 2
    assert len(plus) == 1 and os.getpid() not in plus
    assert {int(pid) for pid, side in calls if side == "minus"} \
        == {os.getpid()}


# Any float64, with the edge values drawn often: nan, both infinities, -0.0,
# the smallest subnormals and the largest finite values.
_VALUES = st.one_of(st.floats(), st.sampled_from(
    [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 2.225e-308,
     1.7976931348623157e308, -1.7976931348623157e308]))


@given(data=st.data(), n_cols=st.integers(1, 4), block=st.integers(1, 40),
       full=st.integers(0, 4))
def test_csv_blocks_are_the_per_value_text(data, n_cols, block, full):
    # A row count that is not a multiple of the block (but for block 1), so
    # a short last block is always formatted too.
    n = full * block + data.draw(st.integers(1, max(1, block - 1)))
    cols = [data.draw(arrays(np.float64, n, elements=_VALUES))
            for _ in range(n_cols)]
    blocks = list(_util.csv_blocks(cols, block))
    assert len(blocks) == -(-n // block)
    assert "".join(blocks) == "".join(
        ",".join("%.17g" % float(col[i]) for col in cols) + "\n"
        for i in range(n))


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
