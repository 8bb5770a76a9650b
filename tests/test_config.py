"""Run configuration: validation, round trips, derived objects."""

import numpy as np
import pytest

from diracembed import ENVELOPES, PeriodicCoefficient, RunConfig


def _cfg(**kw):
    base = dict(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
                lambdas=[0.7, 1.3])
    base.update(kw)
    return RunConfig(**base)


def test_defaults_are_valid():
    cfg = _cfg()
    assert cfg.mode == "finite"
    assert cfg.a0 == 1.0e4 and cfg.x_max == 2.0e4
    assert cfg.envelope() is None


@pytest.mark.parametrize("kw,key", [
    (dict(mode="sideways"), "mode"),
    (dict(mode="growing"), "h_name"),
    (dict(h_name="cubic"), "h_name"),
    (dict(a0=-1.0), "a0"),
    (dict(x_max=5.0e3), "x_max"),
    (dict(b=-0.5), "b"),
    (dict(b=1.0e4), "b"),
    (dict(x_max=1.0e4), "x_max"),  # x_max = a0
    (dict(a0="2000"), "a0"),
    (dict(margin=0.0), "margin"),
    (dict(scan_resolution=-0.01), "scan_resolution"),
    (dict(scan_lo=2.0, scan_hi=1.0), "scan_hi"),
    (dict(lambdas=[0.7, np.nan]), "lambdas[1]"),
    (dict(scan_lo=1.0, scan_hi=1.0), "scan_hi"),
    (dict(h_name=["log"]), "h_name"),
    (dict(out_dir=3), "out_dir"),
    (dict(lambdas=["x"]), "lambdas[0]"),
    (dict(lambdas=0.7), "lambdas"),
])
def test_validation_names_the_offending_key(kw, key):
    import re
    with pytest.raises(ValueError, match="^" + re.escape(key)):
        _cfg(**kw)


def test_round_trip_through_file(tmp_path):
    cfg = _cfg(p=PeriodicCoefficient(a0=0.4, cos=(0.3,), sin=(0.1,)),
               mode="growing", h_name="log", a0=10.0, x_max=1e3,
               lambdas=[5.1, 5.3], out_dir=str(tmp_path))
    path = tmp_path / "config.json"
    cfg.save(str(path))
    back = RunConfig.load(str(path))
    assert back == cfg
    assert back.p.cos == (0.3,)


def test_from_dict_rejects_unknown_keys():
    doc = _cfg().to_dict()
    doc["x_mx"] = 1.0
    doc["zeta"] = 2.0
    with pytest.raises(ValueError, match="^x_mx"):
        RunConfig.from_dict(doc)
    # The phase lock's tolerances are constants, not config keys.
    for key in ("rel_tol", "abs_tol"):
        with pytest.raises(ValueError, match=f"^{key}: unknown config key"):
            RunConfig.from_dict({**_cfg().to_dict(), key: 1e-8})


def test_from_dict_requires_coefficients():
    doc = _cfg().to_dict()
    del doc["q"]
    with pytest.raises(ValueError, match="^q"):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("key,block,name", [
    ("p", {"a0": None}, "^p: a0"),
    ("q", 5, "^q"),
    ("p", {"cos": "0.3"}, "^p: cos"),
    ("q", {"sin": [0.1, None]}, "^q: sin"),
])
def test_from_dict_names_a_mistyped_coefficient(key, block, name):
    doc = _cfg().to_dict()
    doc[key] = block
    with pytest.raises(ValueError, match=name):
        RunConfig.from_dict(doc)


def test_from_dict_requires_an_object():
    with pytest.raises(ValueError, match="^config"):
        RunConfig.from_dict([1, 2])


def test_log_envelope():
    h = ENVELOPES["log"]
    assert h(0.0) == 1.0
    assert h(-100.0) == h(100.0) > 1.0
    cfg = _cfg(mode="growing", h_name="log")
    assert cfg.envelope() is h
