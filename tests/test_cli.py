"""Command line: artifacts, the config file, exit codes, determinism."""

import json
import os
import re
import shutil

import numpy as np
import pytest

from diracembed import ENVELOPES, PeriodicCoefficient, RunConfig, cli
from diracembed.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_RESONANCE,
    EXIT_USAGE,
    main,
)
from diracembed.synth import Manifest, SynthesizedPotential, rebuild_potential


# ---------------------------------------------------------------------------
# artifacts


def _save_config(tmp_path, p=None, **kw) -> str:
    """A RunConfig on p (free by default) and q = 0, saved in tmp_path."""
    kw.setdefault("lambdas", [0.7])
    cfg = RunConfig(p=p or PeriodicCoefficient(), q=PeriodicCoefficient(),
                    out_dir=str(tmp_path), **kw)
    cfg.save(str(tmp_path / "config.json"))
    return str(tmp_path / "config.json")


def test_bands_writes_nan_in_gaps(tmp_path):
    cfg_path = _save_config(tmp_path, PeriodicCoefficient(a0=3.0),
                            lambdas=[2.0], scan_lo=0.5, scan_hi=2.0,
                            scan_resolution=0.05)
    rc = main(["bands", "--config", cfg_path])
    assert rc == EXIT_OK
    rows = (tmp_path / "bands.csv").read_text().splitlines()
    assert rows[0] == "lambda,trace,k"
    parsed = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
    for lam, tr, k in parsed:
        if abs(tr) > 2.0:
            assert np.isnan(k)          # spectral gap
        else:
            assert 0.0 <= k <= np.pi
    assert any(np.isnan(k) for _, _, k in parsed)       # gap below m
    assert any(np.isfinite(k) for _, _, k in parsed)    # band above m
    doc = json.loads((tmp_path / "band_edges.json").read_text())
    assert doc["scan_range"] == [0.5, 2.0]
    assert doc["edges"] == pytest.approx([1.5], abs=1e-4)


def test_bands_in_a_deep_gap_finds_no_band(tmp_path):
    # Mass 40: |trace| ~ 1e17 over [0, 3], where det(M) = 1 is lost to
    # cancellation; that is a valid gap, not a configuration error.
    cfg_path = _save_config(tmp_path, PeriodicCoefficient(a0=80.0),
                            scan_resolution=0.1)
    assert main(["bands", "--config", cfg_path]) == EXIT_OK
    doc = json.loads((tmp_path / "band_edges.json").read_text())
    assert doc["bands"] == [] and doc["edges"] == []


def test_bands_with_an_overflowing_monodromy_is_a_failed_check(tmp_path):
    # Mass 1000: the period map overflows the float range, a numerical
    # failure (exit 1), not a configuration error.
    cfg_path = _save_config(tmp_path, PeriodicCoefficient(a0=2000.0),
                            scan_resolution=0.1)
    assert main(["bands", "--config", cfg_path]) == EXIT_CHECK


def test_floquet_exports_period_frame(tmp_path, small_run):
    cfg_path, _ = small_run
    rc = main(["floquet", "--config", cfg_path, "--lam", "0.7",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    head = (tmp_path / "floquet.csv").read_text().splitlines()[0]
    assert head.startswith("x,re_g1,im_g1,re_g2,im_g2")


def test_verify_passes_on_clean_manifest(tmp_path, small_run):
    cfg_path, out = small_run
    rc = main(["verify", "--config", cfg_path,
               "--manifest", os.path.join(out, "manifest.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    docs = json.loads((tmp_path / "reports.json").read_text())
    assert docs and all(d["passed"] for d in docs)
    names = {d["name"] for d in docs}
    assert {"decay", "stability", "l2-tail"} <= names


def test_verify_writes_reports_json_alone(tmp_path, small_run):
    # reports.json is verify's one report: no summary.csv beside it.
    cfg_path, out = small_run
    assert main(["verify", "--config", cfg_path,
                 "--manifest", os.path.join(out, "manifest.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["reports.json"]


def test_verify_catches_tampered_manifest(tmp_path, small_run):
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    first = min((e for e in doc["pieces"]
                 if e["side"] == "plus" and e["lambda"] == 0.7),
                key=lambda e: e["a"])
    first["C"] = first["C"] / 2.0      # halves the decay exponent
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tampered), "--out", str(tmp_path)])
    assert rc == EXIT_CHECK
    docs = json.loads((tmp_path / "reports.json").read_text())
    bad = [d for d in docs if not d["passed"]]
    assert any(d["name"] == "decay" and d.get("side") == 1 for d in bad)


def _by_a(doc, side):
    return sorted((e for e in doc["pieces"] if e["side"] == side),
                  key=lambda e: e["a"])


def _drop(doc, entries):
    doc["pieces"] = [e for e in doc["pieces"] if e not in entries]


def _halve_last_plus(doc):
    last = _by_a(doc, "plus")[-1]
    last["x_end"] = last["a"] + (last["x_end"] - last["a"]) / 2.0


# Each tamper of small_run's manifest (11 cycles of two targets), and the
# first cycle and side that leave the plan: a cycle's two plus pieces, one
# plus piece, every minus piece, T and N cut by three cycles, a piece cut
# to half its length, and a piece the manifest lists twice.
TAMPERS = {
    "first_plus_cycle": (lambda doc: _drop(doc, _by_a(doc, "plus")[:2]),
                         "cycle 0, side plus"),
    "last_plus_cycle": (lambda doc: _drop(doc, _by_a(doc, "plus")[-2:]),
                        "cycle 9, side plus"),
    "first_plus_piece": (lambda doc: _drop(doc, _by_a(doc, "plus")[:1]),
                         "cycle 0, side plus"),
    "every_minus_piece": (lambda doc: _drop(doc, _by_a(doc, "minus")),
                          "cycle 0, side minus"),
    "T_and_N_cut": (lambda doc: doc.update(T=doc["T"][:-3], N=doc["N"][:-3]),
                    "cycle 8, both sides"),
    "half_last_plus_piece": (_halve_last_plus, "cycle 10, side plus"),
    "duplicated_minus_piece": (
        lambda doc: doc["pieces"].append(dict(_by_a(doc, "minus")[-1])),
        "cycle 11, side minus"),
}


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_verify_rejects_a_manifest_off_its_plan(tmp_path, small_run, capsys,
                                                monkeypatch, tamper):
    # verify recomputes the plan from the manifest's own inputs, and a piece
    # or breakpoint off it is a failed check before any phase lock runs.
    from diracembed import synth

    def no_lock(*args, **kwargs):
        raise AssertionError("a phase lock ran")

    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert len(doc["T"]) == 12
    change, where = TAMPERS[tamper]
    change(doc)
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    monkeypatch.setattr(synth, "solve_xi", no_lock)
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tampered), "--out", str(tmp_path)])
    assert rc == EXIT_CHECK
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: PlanMismatch: {where}: "), err
    assert "in the plan" in err
    assert not (tmp_path / "reports.json").exists()


@pytest.mark.parametrize("key,val", [("C_bound", 1e-3), ("x_max", np.inf),
                                     ("b", 2.0e3)])
def test_manifest_the_plan_cannot_lay_out_is_usage_error(tmp_path, small_run,
                                                         capsys, key, val):
    # Breakpoints that would shrink or never pass x_max: the plan refuses
    # them rather than loop.
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = {**json.load(fh), key: val}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["verify", "--config", cfg_path, "--manifest",
                 str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "C_bound >= 2 and 0 <= b < a0 < x_max < inf" in err
    assert f"{key} = {val:g}" in err


def test_verify_refuses_a_horizon_too_short_for_the_tail(tmp_path, small_run,
                                                         capsys, monkeypatch):
    # A manifest whose x_max leaves a target fewer than TAIL_CYCLES + 1 own
    # pieces (one a synth without the rule would have written) is refused by
    # the plan, before any phase lock runs and with no report written.
    from diracembed import synth

    def no_lock(*args, **kwargs):
        raise AssertionError("a phase lock ran")

    _, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = {**json.load(fh), "x_max": 2.2e3}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    monkeypatch.setattr(synth, "solve_xi", no_lock)
    assert main(["verify", "--manifest",
                 str(tmp_path / "manifest.json")]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert err.startswith("check failed: HorizonTooShort: x_max = 2200 "), err
    assert not (tmp_path / "reports.json").exists()


def test_verify_catches_a_broken_chain_of_own_pieces(tmp_path, small_run):
    # Four later plus-side seeds of lam = 0.7 leave the phase the track
    # brings to them.  Each shifted piece still decays, but the pieces no
    # longer chain into one solution: the seam check fails both plus-side
    # tails (lam = 1.3 crosses the shifted pieces as a bystander).
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    own = sorted((e for e in doc["pieces"]
                  if e["side"] == "plus" and e["lambda"] == 0.7),
                 key=lambda e: e["a"])
    for entry in own[-4:]:
        entry["xi0"] += 1.5
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tampered), "--out", str(tmp_path)])
    assert rc == EXIT_CHECK
    docs = json.loads((tmp_path / "reports.json").read_text())
    bad = [d for d in docs if not d["passed"]]
    assert [(d["name"], d["side"]) for d in bad] == [("l2-tail", 1)] * 2
    assert "side 1" in bad[0]["error"]
    assert f"|x| = {own[-4]['a']:.6g} " in bad[0]["error"]


def _verify_growing_manifest(tmp_path, monkeypatch, metadata, V0,
                             **cfg_kw):
    # verify on a one-sample growing-mode potential at x = 0, with h = 0.
    p = q = PeriodicCoefficient()
    cfg = RunConfig(p=p, q=q, lambdas=[], out_dir=str(tmp_path), **cfg_kw)
    cfg.save(str(tmp_path / "config.json"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(metadata))
    pot = SynthesizedPotential(pieces=[], x_grid=np.array([0.0]),
                               V_grid=np.array([V0]), metadata=metadata)
    # Both sides rebuild to this one sample, so the merged excess is V0.
    monkeypatch.setattr(cli, "read_manifest",
                        lambda path: Manifest([], metadata, [], np.zeros_like,
                                              p, q))
    monkeypatch.setattr(cli, "rebuild_potential", lambda manifest, side: pot)
    return main(["verify", "--config", str(tmp_path / "config.json"),
                 "--manifest", str(manifest)])


# The run keys of a growing-mode manifest whose config is RunConfig's
# defaults in growing mode with the log envelope.
GROWING_META = {"mode": "growing", "h_name": "log", "a0": 1.0e4,
                "x_max": 2.0e4, "b": 0.0, "targets": []}


@pytest.mark.parametrize("V0,rc", [(1e-10, EXIT_CHECK), (1e-12, EXIT_OK)],
                         ids=["1e-10-1", "1e-12-0"])
def test_verify_envelope_verdict_is_the_schedule_rule(tmp_path, monkeypatch,
                                                      V0, rc):
    # The sample exceeds the envelope by exactly V0; verify passes it up to
    # the tolerance schedule uses, 1e-12.
    assert _verify_growing_manifest(tmp_path, monkeypatch, GROWING_META, V0,
                                    mode="growing", h_name="log") == rc
    docs = json.loads((tmp_path / "reports.json").read_text())
    assert [(d["name"], d["max_excess"]) for d in docs] == [("envelope", V0)]


def test_verify_with_another_envelope_is_usage_error(tmp_path, monkeypatch,
                                                     capsys):
    # A growing-mode config must name the manifest's envelope.
    monkeypatch.setitem(ENVELOPES, "flat", np.ones_like)
    assert _verify_growing_manifest(tmp_path, monkeypatch, GROWING_META, 0.0,
                                    mode="growing", h_name="flat") \
        == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error: h_name: ")
    assert not (tmp_path / "reports.json").exists()


@pytest.mark.parametrize("extra", [{}, {"h_name": ["log"]}],
                         ids=["missing", "not_a_name"])
def test_growing_manifest_without_h_name_is_usage_error(tmp_path, small_run,
                                                        capsys, extra):
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = {**json.load(fh), "mode": "growing", **extra}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["verify", "--config", cfg_path, "--manifest",
                 str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert "h_name" in capsys.readouterr().err


def test_verify_without_config_writes_beside_the_manifest(tmp_path,
                                                          small_run):
    # The manifest alone is the run: the same reports as with its config.
    cfg_path, out = small_run
    manifest = tmp_path / "alone" / "manifest.json"
    manifest.parent.mkdir()
    shutil.copy(os.path.join(out, "manifest.json"), manifest)
    assert main(["verify", "--manifest", str(manifest)]) == EXIT_OK
    assert main(["verify", "--config", cfg_path, "--manifest", str(manifest),
                 "--out", str(tmp_path / "with_config")]) == EXIT_OK
    assert (manifest.parent / "reports.json").read_bytes() \
        == (tmp_path / "with_config" / "reports.json").read_bytes()


@pytest.mark.parametrize("key", ["p", "q", "lambdas", "mode", "a0", "x_max",
                                 "b"])
def test_verify_with_another_run_config_is_usage_error(tmp_path, small_run,
                                                       generic_pq, capsys,
                                                       key):
    # A config that is not the manifest's run names the key and writes
    # nothing: periodic1's p, q and lambda = 0.9 against a free manifest at
    # 0.7 and 1.3, or another plan (finite, a0 = 2e3, x_max = 2.6e3, b = 0).
    cfg_path, out = small_run
    other = {"p": {"p": generic_pq[0]}, "q": {"q": generic_pq[1]},
             "lambdas": {"lambdas": [0.9]},
             "mode": {"mode": "growing", "h_name": "log"},
             "a0": {"a0": 2.1e3}, "x_max": {"x_max": 2.7e3}, "b": {"b": 1.0}}
    cfg = RunConfig.load(cfg_path)
    for name, val in other[key].items():
        setattr(cfg, name, val)
    cfg.out_dir = str(tmp_path)
    cfg.save(str(tmp_path / "config.json"))
    assert main(["verify", "--config", str(tmp_path / "config.json"),
                 "--manifest", os.path.join(out, "manifest.json")]) \
        == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_periodic_background_synth_then_verify(tmp_path, generic_pq):
    # Non-constant p and q, the paper's setting, through both commands.
    p, q = generic_pq
    cfg = RunConfig(p=p, q=q, lambdas=[0.9, 1.7], mode="finite",
                    a0=1.2e3, x_max=1.56e3, out_dir=str(tmp_path))
    cfg_path = str(tmp_path / "config.json")
    cfg.save(cfg_path)
    assert main(["synth", "--config", cfg_path]) == EXIT_OK
    assert main(["verify", "--config", cfg_path,
                 "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    docs = json.loads((tmp_path / "reports.json").read_text())
    assert len(docs) == 12 and all(d["passed"] for d in docs)


def test_growing_mode_synth_then_verify_from_the_manifest(tmp_path):
    # Criterion 10's mass frame at two energies through both commands: synth
    # records the envelope's name, and verify rebuilds the growing run from
    # the manifest alone, envelope check included, as it does with the config.
    lams = [float(np.sqrt(25.0 + nu ** 2)) for nu in (0.055, 0.075)]
    run = tmp_path / "run"
    run.mkdir()
    cfg_path = _save_config(run, PeriodicCoefficient(a0=10.0), lambdas=lams,
                            margin=0.01, mode="growing", h_name="log",
                            a0=6.2e4, x_max=1.6e5)
    manifest = run / "manifest.json"
    assert main(["synth", "--config", cfg_path]) == EXIT_OK
    assert json.loads(manifest.read_text())["h_name"] == "log"
    assert main(["verify", "--manifest", str(manifest)]) == EXIT_OK
    docs = json.loads((run / "reports.json").read_text())
    assert len(docs) == 13 and all(d["passed"] for d in docs)
    assert [d["name"] for d in docs].count("envelope") == 1
    assert main(["verify", "--config", cfg_path, "--manifest", str(manifest),
                 "--out", str(tmp_path / "with_config")]) == EXIT_OK
    assert (tmp_path / "with_config" / "reports.json").read_bytes() \
        == (run / "reports.json").read_bytes()


def test_oscillatory_powerlaw_path(tmp_path):
    rc = main(["oscillatory", "--a", "1.0", "--beta1", "1.0",
               "--beta2", "1.0", "--x0", "10", "--x0", "100",
               "--x-max", "10000", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    docs = json.loads((tmp_path / "oscillatory.json").read_text())
    assert docs[0]["passed"] and docs[0]["beta"] == 1.0


def test_oscillatory_periodic_path(tmp_path, small_run):
    cfg_path, _ = small_run
    rc = main(["oscillatory", "--config", cfg_path, "--lam", "0.7",
               "--a", "1.0", "--x0", "10", "--x0", "100",
               "--x-max", "10000", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    docs = json.loads((tmp_path / "oscillatory.json").read_text())
    assert docs[0]["passed"]


# ---------------------------------------------------------------------------
# the config file is the run


def test_resonant_energies_exit_3(tmp_path):
    # k = 1 and k = pi - 1 on the free background: k_1 + k_2 = pi.
    cfg_path = _save_config(tmp_path, lambdas=[1.0, np.pi - 1.0])
    assert main(["synth", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == EXIT_RESONANCE
    assert not (tmp_path / "out").exists()  # a refused run writes nothing


@pytest.mark.parametrize("key", ["band_edge_margin", "rho_margin",
                                 "taper_width", "safety", "xi0"])
def test_removed_config_key_is_usage_error(tmp_path, small_run, capsys, key):
    # The method's own choices are constants (synth.RHO_MARGIN, TAPER_WIDTH,
    # SAFETY, XI0), so a config naming one is an unknown key.
    cfg_path, _ = small_run
    doc = {**RunConfig.load(cfg_path).to_dict(), key: 1.0,
           "out_dir": str(tmp_path)}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["synth", "--config", str(tmp_path / "config.json")]) \
        == EXIT_USAGE
    assert f"{key}: unknown config key" in capsys.readouterr().err


# Each flag that overrode a key, with a value small_run's config would take.
REMOVED_FLAGS = {
    "--lambda": "0.7", "--mode": "finite", "--h-name": "log", "--a0": "2000",
    "--x-max": "2600", "--b": "0", "--margin": "0.05",
    "--band-edge-margin": "0", "--rho-margin": "5", "--taper-width": "1",
    "--safety": "1", "--xi0": "1.5", "--scan-lo": "0", "--scan-hi": "3",
    "--scan-resolution": "0.01", "--max-product-ratio": "4",
    "--use-cos": None, "--c": "2"}


@pytest.mark.parametrize("flag", list(REMOVED_FLAGS))
def test_removed_flag_is_usage_error(tmp_path, small_run, capsys, flag):
    # No flag but --out overrides a config key, the oscillatory bound is
    # verify.PRODUCT_RATIO_MAX, and the power-law scan has no cos form and
    # no constant c.  argparse must name the flag itself: with prefixes
    # allowed, --c 2 read as --config 2 and failed on the missing file.
    cfg_path, out = small_run
    commands = [["bands"], ["floquet", "--lam", "0.7"], ["synth"],
                ["verify", "--manifest", os.path.join(out, "manifest.json")]]
    if flag in ("--max-product-ratio", "--use-cos", "--c"):
        commands = [["oscillatory", "--a", "1", "--beta1", "1", "--beta2",
                     "1", "--x0", "10", "--x-max", "100"]]
    value = [] if REMOVED_FLAGS[flag] is None else [REMOVED_FLAGS[flag]]
    for argv in commands:
        assert main(argv + ["--config", cfg_path, "--out", str(tmp_path),
                            flag] + value) == EXIT_USAGE, argv[0]
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# A prefix of a flag that stays, on a command line that ran while argparse
# took prefixes: --c and --conf loaded the config (exit 0), and --allow
# waived the resonance guard (exit 1 where the guard gives 3).
FLAG_PREFIXES = {
    "--c": ["oscillatory", "--a", "1", "--beta1", "1", "--beta2", "1",
            "--x0", "10", "--x-max", "100", "--c", "CONFIG"],
    "--conf": ["synth", "--config", "CONFIG", "--conf", "CONFIG"],
    "--allow": ["oscillatory", "--config", "CONFIG", "--lam", "0.7", "--a",
                "0", "--x0", "10", "--x-max", "100", "--allow"]}


@pytest.mark.parametrize("flag", list(FLAG_PREFIXES))
def test_flag_prefix_is_usage_error(tmp_path, small_run, capsys, flag):
    cfg_path, _ = small_run
    argv = [cfg_path if a == "CONFIG" else a for a in FLAG_PREFIXES[flag]]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# exit codes


def test_missing_manifest_is_usage_error(tmp_path, small_run):
    cfg_path, _ = small_run
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


MISSING = object()


@pytest.mark.parametrize("key,val", [
    ("n_grid", 2048), ("rel_tol", 1e-8), ("abs_tol", 1e-14),
    ("method", "dop853"), ("integrator.rel_tol", 1e-9),
    ("integrator.abs_tol", 1e-12),
    pytest.param("integrator.step_cap_per_rate",
                 {"constant": 0.5, "periodic": 0.5},
                 id="integrator.step_cap_per_rate-other"),
    pytest.param("integrator.step_cap_per_rate", MISSING,
                 id="integrator.step_cap_per_rate-missing"),
    pytest.param("integrator.step_cap_per_rate",
                 {"constant": True, "periodic": 0.5},
                 id="integrator.step_cap_per_rate-bool")])
def test_manifest_with_another_frame_recipe_is_usage_error(
        tmp_path, small_run, capsys, key, val):
    # Frames and phase locks are built by one recipe each; a manifest naming
    # another would otherwise rebuild a different potential without a word.
    # A key the recipe lacks (an older frame's tolerance) counts too, and so
    # does one it has but the manifest lacks (an older lock's step cap).
    block, _, name = key.rpartition(".")
    block = block or "floquet_integrator"  # a bare key is the frame's
    path = f"{block}.{name}"
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if val is MISSING:
        del doc[block][name]
    else:
        doc[block][name] = val
    with pytest.raises(ValueError, match=re.escape(path)):
        rebuild_potential(doc)
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tampered), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("key,tamper", [
    ("targets[0].lambda",
     lambda doc: doc["targets"][0].update({"lambda": [0.7]})),
    ("floquet_integrator", lambda doc: doc.update(
        floquet_integrator=list(doc["floquet_integrator"].values()))),
    ("pieces[0].side", lambda doc: doc["pieces"][0].update(side="PLUS")),
    ("T[0]", lambda doc: doc["T"].__setitem__(0, str(doc["T"][0]))),
    ("N[1]", lambda doc: doc["N"].__setitem__(1, None)),
    ("coefficients.p.coss",
     lambda doc: doc["coefficients"]["p"].update(coss=[0.3])),
    ("coefficients.q.sin",
     lambda doc: doc["coefficients"]["q"].update(sin=[float("nan")])),
], ids=["lambda_list", "floquet_integrator_list", "side_unknown", "T_str",
        "N_null", "coefficient_key_unknown", "q_sin_nan"])
def test_mistyped_manifest_is_usage_error(tmp_path, small_run, capsys, key,
                                          tamper):
    # A manifest value of the wrong JSON type, or a side other than
    # plus/minus, is a configuration error that names its key, not a
    # traceback or a failed check.
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    tamper(doc)
    with pytest.raises(ValueError, match=re.escape(key)):
        rebuild_potential(doc)
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tampered), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,tamper", [
    ("C_bound", lambda doc: doc.update(C_bound=True)),
    ("b", lambda doc: doc.update(b=False)),
    ("N[0]", lambda doc: doc["N"].__setitem__(0, True)),
    ("coefficients.q.a0",
     lambda doc: doc["coefficients"]["q"].update(a0=False)),
], ids=["C_bound_true", "b_false", "N_true", "q_a0_false"])
def test_json_boolean_in_manifest_is_usage_error(tmp_path, small_run, capsys,
                                                 key, tamper):
    # A JSON true or false where the manifest holds a number is mistyped, not
    # read as 1.0 or 0.0.
    _, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    tamper(doc)
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(tampered)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {key}: expected ")
    assert list(tmp_path.iterdir()) == [tampered]


@pytest.mark.parametrize("message,tamper", [
    ("safety: 7.0, but every run is built with 1.0",
     lambda doc: doc.update(safety=7.0)),
    ("taper_width: 9.0, but every run is built with 1.0",
     lambda doc: doc.update(taper_width=9.0)),
    ("xi0_default: 0.1, but every run is built with 1.57",
     lambda doc: doc.update(xi0_default=0.1)),
    ("h_name: 'log', but every finite run is built without an envelope",
     lambda doc: doc.update(h_name="log")),
    ("extra: unknown manifest key", lambda doc: doc.update(extra=1)),
    ("coefficients.r: unknown manifest key",
     lambda doc: doc["coefficients"].update(r={})),
    ("pieces[0].extra: unknown manifest key",
     lambda doc: doc["pieces"][0].update(extra=1)),
    ("targets[1].extra: unknown manifest key",
     lambda doc: doc["targets"][1].update(extra=1)),
], ids=["safety", "taper_width", "xi0_default", "finite_h_name",
        "top_level_key", "coefficients_key", "pieces_key", "targets_key"])
def test_unknown_manifest_key_or_method_constant_is_usage_error(
        tmp_path, small_run, capsys, message, tamper):
    # A manifest holds the keys a run writes, and the method constants it
    # records are the ones every run is built with: anything else would
    # verify a run no synth made.
    _, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    tamper(doc)
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(tampered)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert list(tmp_path.iterdir()) == [tampered]


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bands", "--config", str(bad)]) == EXIT_USAGE
    bad2 = tmp_path / "bad2.json"
    doc = RunConfig(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
                    lambdas=[0.7]).to_dict()
    doc["mode"] = "sideways"
    bad2.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(bad2)]) == EXIT_USAGE


@pytest.mark.parametrize("change", [
    {"p": {"a0": None}},
    {"p": 5},
    {"a0": "2000"},
    {"lambdas": ["x"]},
    None,  # a JSON array, not an object
], ids=["p_a0_null", "p_int", "a0_str", "lambdas_str", "top_level_array"])
def test_mistyped_config_is_usage_error(tmp_path, change):
    doc = RunConfig(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
                    lambdas=[0.7], out_dir=str(tmp_path)).to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2] if change is None else {**doc, **change}))
    assert main(["bands", "--config", str(bad)]) == EXIT_USAGE


@pytest.mark.parametrize("change,key", [
    ({"lambdas": [True]}, "lambdas[0]"),
    ({"margin": True}, "margin"),
    ({"b": False}, "b"),
    ({"p": {"a0": True}}, "p: a0"),
    ({"p": {"a0": 0.4, "coss": [0.3]}}, "p: coss"),
], ids=["lambdas_true", "margin_true", "b_false", "p_a0_true",
        "p_coefficient_key_unknown"])
def test_json_boolean_or_unknown_coefficient_key_is_usage_error(tmp_path,
                                                               capsys,
                                                               change, key):
    # true/false are not numbers, and a misspelt series key is not ignored:
    # each names its key before any command runs.
    doc = RunConfig(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
                    lambdas=[0.7], out_dir=str(tmp_path)).to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, **change}))
    assert main(["bands", "--config", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert list(tmp_path.iterdir()) == [bad]


def test_unknown_flag_is_usage_error(small_run):
    cfg_path, _ = small_run
    assert main(["bands", "--config", cfg_path, "--bogus", "1"]) \
        == EXIT_USAGE


def test_gap_energy_is_check_failure(tmp_path):
    cfg_path = _save_config(tmp_path, PeriodicCoefficient(a0=3.0),
                            lambdas=[0.5], a0=2000.0, x_max=2100.0)
    assert main(["synth", "--config", cfg_path]) == EXIT_CHECK


def test_step_size_underflow_is_check_failure(tmp_path, small_run,
                                              monkeypatch, capsys):
    """A phase lock whose coupling turns NaN ends as StepSizeUnderflow:
    exit 1.  A NaN taper stands in for the window past the lock's first
    unit, and a width of the whole piece leaves it no plateau."""
    from diracembed import pruefer, synth

    real = synth.phase_flow

    def nan_past_start(data, two_c, b_s, window, x0, x1, xi0):
        def taper(x, lo, hi, width):
            return np.nan if abs(x) > abs(x0) + 1.0 else 1.0

        monkeypatch.setattr(pruefer, "taper_window", taper)
        lo, hi, _ = window
        return real(data, two_c, b_s, (lo, hi, hi - lo), x0, x1, xi0)

    monkeypatch.setattr(synth, "phase_flow", nan_past_start)
    cfg_path, _ = small_run
    with np.errstate(all="ignore"):
        rc = main(["synth", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == EXIT_CHECK
    assert "check failed: StepSizeUnderflow: Required step size" \
        in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_resonant_oscillatory_frequency(tmp_path, small_run):
    cfg_path, _ = small_run
    rc = main(["oscillatory", "--config", cfg_path, "--lam", "0.7",
               "--a", str(2 * np.pi), "--x0", "10",
               "--x-max", "1000", "--out", str(tmp_path)])
    assert rc == EXIT_RESONANCE


def test_oscillatory_resonance_waiver_runs_the_divergent_control(tmp_path,
                                                                 capsys):
    # a = 0 is resonant: the guard refuses it (exit 3) before the scan, and
    # --allow-resonant runs the scan, whose products grow with x0 (exit 1).
    argv = ["oscillatory", "--config", _save_config(tmp_path), "--lam", "0.7",
            "--a", "0", "--x0", "10", "--x0", "100", "--x0", "1000",
            "--x-max", "1e4", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_RESONANCE
    assert capsys.readouterr().err.startswith("resonance: ")
    assert not (tmp_path / "out").exists()  # a refused run writes nothing
    assert main(argv + ["--allow-resonant"]) == EXIT_CHECK
    [doc] = json.loads((tmp_path / "out" / "oscillatory.json").read_text())
    assert doc["passed"] is False
    assert doc["max_product_ratio"] > 4.0


def test_oscillatory_requires_betas_without_config(tmp_path):
    rc = main(["oscillatory", "--a", "1.0", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


def test_oscillatory_envelope_form_reads_the_config(tmp_path, small_run,
                                                    monkeypatch):
    # Run from an empty directory: with --config but no --lam or --out the
    # envelope-only scan writes to the config's out_dir, and a config that
    # does not validate is a usage error.
    cfg_path, _ = small_run
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    doc = {**RunConfig.load(cfg_path).to_dict(),
           "out_dir": str(tmp_path / "out")}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    argv = ["oscillatory", "--config", str(tmp_path / "config.json"),
            "--a", "1", "--beta1", "1", "--beta2", "1", "--x0", "10",
            "--x-max", "100"]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "out" / "oscillatory.json").exists()
    assert list(cwd.iterdir()) == []
    (tmp_path / "config.json").write_text(json.dumps({**doc, "xi0": 1.0}))
    assert main(argv) == EXIT_USAGE
    assert main(["oscillatory", "--lam", "0.7", "--a", "1", "--beta1", "1",
                 "--beta2", "1"]) == EXIT_USAGE
    assert list(cwd.iterdir()) == []


def test_oscillatory_checkpoint_at_x_max_is_usage_error(tmp_path):
    # The default checkpoints end at 1e4, so nothing lies past the last one.
    rc = main(["oscillatory", "--a", "1", "--beta1", "0.5", "--beta2", "1",
               "--x-max", "1e4", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "oscillatory.json").exists()


# ---------------------------------------------------------------------------
# determinism


def test_synth_artifacts_are_byte_identical(tmp_path, small_run):
    cfg_path, out = small_run
    rc = main(["synth", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    for name in ("potential.csv", "manifest.json"):
        with open(os.path.join(out, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
