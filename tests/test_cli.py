"""Command line: artifacts, the config file, exit codes, determinism."""

import json
import os
import re

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
from diracembed.synth import SynthesizedPotential, rebuild_potential


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
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == len(docs) + 1
    # Each row names its check, subject and side, and no two rows share them.
    assert lines[0] == "name,subject,side,metric,value"
    rows = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert len(set(rows)) == len(rows)
    assert all(subject for _, subject, _ in rows)
    assert ("stability", "0.7/1.3", "-1") in rows


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


def test_verify_rejects_a_duplicated_piece(tmp_path, small_run, capsys):
    # Two copies of one piece overlap on all of it: rebuilding the potential
    # fails (OverlapDetected), which is a failed check, and the message
    # names both intervals.
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    piece = max((e for e in doc["pieces"] if e["side"] == "minus"),
                key=lambda e: e["a"])
    doc["pieces"].append(dict(piece))
    tampered = tmp_path / "manifest.json"
    tampered.write_text(json.dumps(doc))
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tampered), "--out", str(tmp_path)])
    assert rc == EXIT_CHECK
    err = capsys.readouterr().err
    span = f"[{-piece['x_end']:.6g}, {-piece['a']:.6g}]"
    assert "pieces overlap" in err and err.count(span) == 2, err


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
    cfg = RunConfig(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
                    lambdas=[0.7], out_dir=str(tmp_path), **cfg_kw)
    cfg.save(str(tmp_path / "config.json"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(metadata))
    pot = SynthesizedPotential(pieces=[], x_grid=np.array([0.0]),
                               V_grid=np.array([V0]), metadata=metadata)
    monkeypatch.setattr(cli, "rebuild_potential", lambda manifest: pot)
    monkeypatch.setitem(ENVELOPES, "log", np.zeros_like)
    return main(["verify", "--config", str(tmp_path / "config.json"),
                 "--manifest", str(manifest)])


@pytest.mark.parametrize("V0,rc,cfg_kw", [
    (1e-10, EXIT_CHECK, {"mode": "growing", "h_name": "log"}),
    (1e-12, EXIT_OK, {"mode": "growing", "h_name": "log"}),
    (1e-10, EXIT_CHECK, {}),
], ids=["1e-10-1", "1e-12-0", "finite-config"])
def test_verify_envelope_verdict_is_the_schedule_rule(tmp_path, monkeypatch,
                                                      V0, rc, cfg_kw):
    # The sample exceeds the envelope by exactly V0; verify passes it up to
    # the tolerance schedule uses, 1e-12.  h comes from the manifest, so a
    # finite config verifies a growing-mode manifest all the same.
    meta = {"mode": "growing", "h_name": "log", "targets": []}
    assert _verify_growing_manifest(tmp_path, monkeypatch, meta, V0,
                                    **cfg_kw) == rc
    docs = json.loads((tmp_path / "reports.json").read_text())
    assert [(d["name"], d["max_excess"]) for d in docs] == [("envelope", V0)]


@pytest.mark.parametrize("extra", [{}, {"h_name": ["log"]}],
                         ids=["missing", "not_a_name"])
def test_growing_manifest_without_h_name_is_usage_error(tmp_path, monkeypatch,
                                                        capsys, extra):
    meta = {"mode": "growing", "targets": [], **extra}
    assert _verify_growing_manifest(tmp_path, monkeypatch, meta, 0.0,
                                    mode="growing",
                                    h_name="log") == EXIT_USAGE
    assert "h_name" in capsys.readouterr().err


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
    assert main(["synth", "--config", cfg_path]) == EXIT_RESONANCE


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
    "--use-cos": None}


@pytest.mark.parametrize("flag", list(REMOVED_FLAGS))
def test_removed_flag_is_usage_error(tmp_path, small_run, flag):
    # No flag but --out overrides a config key, the oscillatory bound is
    # verify.PRODUCT_RATIO_MAX, and the power-law scan has no cos form.
    cfg_path, out = small_run
    commands = [["bands"], ["floquet", "--lam", "0.7"], ["synth"],
                ["verify", "--manifest", os.path.join(out, "manifest.json")]]
    if flag in ("--max-product-ratio", "--use-cos"):
        commands = [["oscillatory", "--a", "1", "--beta1", "1", "--beta2",
                     "1", "--x0", "10", "--x-max", "100"]]
    value = [] if REMOVED_FLAGS[flag] is None else [REMOVED_FLAGS[flag]]
    for argv in commands:
        assert main(argv + ["--config", cfg_path, "--out", str(tmp_path),
                            flag] + value) == EXIT_USAGE, argv[0]


# ---------------------------------------------------------------------------
# exit codes


def test_missing_manifest_is_usage_error(tmp_path, small_run):
    cfg_path, _ = small_run
    rc = main(["verify", "--config", cfg_path,
               "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("key,val", [("n_grid", 2048), ("rel_tol", 1e-8),
                                     ("abs_tol", 1e-14), ("method", "dop853"),
                                     ("integrator.rel_tol", 1e-9),
                                     ("integrator.abs_tol", 1e-12)])
def test_manifest_with_another_frame_recipe_is_usage_error(
        tmp_path, small_run, capsys, key, val):
    # Frames and phase locks are built by one recipe each; a manifest naming
    # another would otherwise rebuild a different potential without a word.
    # A key the recipe lacks (an older frame's tolerance) counts too.
    block, _, name = key.rpartition(".")
    block = block or "floquet_integrator"  # a bare key is the frame's
    path = f"{block}.{name}"
    cfg_path, out = small_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
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
], ids=["lambda_list", "floquet_integrator_list", "side_unknown"])
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
    assert "check failed: Required step size" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_resonant_oscillatory_frequency(tmp_path, small_run):
    cfg_path, _ = small_run
    rc = main(["oscillatory", "--config", cfg_path, "--lam", "0.7",
               "--a", str(2 * np.pi), "--x0", "10",
               "--x-max", "1000", "--out", str(tmp_path)])
    assert rc == EXIT_RESONANCE


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
