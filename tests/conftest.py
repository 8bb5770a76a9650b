"""Shared fixtures: canonical Floquet frames and one small assembled run.

Session scope amortizes the ODE work; everything downstream treats these
objects as immutable.
"""

import os

import numpy as np
import pytest
from scipy.interpolate import PPoly

from diracembed import (
    EmbeddingTarget,
    PeriodicCoefficient,
    RunConfig,
    derived_data,
    floquet_solution,
)
from diracembed._util import frac
from diracembed.cli import main as cli_main

FREE_LAM = np.pi / 3.0


def make_target(p, q, lam):
    return EmbeddingTarget.at(p, q, lam)


def field_derivative(f):
    """x -> f'(x) of a PeriodicField: its slope plus scipy's
    PPoly.derivative of its cubic at frac(x) % 1.0, as the field's value
    wraps x (a constant field's f' is its slope)."""
    if f._sp is None:
        return lambda x: np.full(np.shape(x), f.slope) if np.ndim(x) \
            else f.slope
    ds = PPoly(f._sp.c, f._sp.x).derivative()
    return lambda x: f.slope + ds(frac(x) % 1.0)


@pytest.fixture(scope="session")
def free_pq():
    return PeriodicCoefficient(), PeriodicCoefficient()


@pytest.fixture(scope="session")
def free_solution(free_pq):
    p, q = free_pq
    return floquet_solution(p, q, FREE_LAM)


@pytest.fixture(scope="session")
def free_data(free_solution):
    return derived_data(free_solution)


@pytest.fixture(scope="session")
def free_target_07(free_pq):
    p, q = free_pq
    return make_target(p, q, 0.7)


@pytest.fixture(scope="session")
def free_target_13(free_pq):
    p, q = free_pq
    return make_target(p, q, 1.3)


@pytest.fixture(scope="session")
def mass_pq():
    # Constant mass m = 1.5 placed in p (series value is a0/2).
    return PeriodicCoefficient(a0=3.0), PeriodicCoefficient()


@pytest.fixture(scope="session")
def generic_pq():
    p = PeriodicCoefficient(a0=0.4, cos=(0.3,), sin=(0.1,))
    q = PeriodicCoefficient(a0=-0.2, cos=(0.15, 0.05), sin=(0.2,))
    return p, q


@pytest.fixture(scope="session")
def generic_data(generic_pq):
    p, q = generic_pq
    return derived_data(floquet_solution(p, q, 2.0))


@pytest.fixture(scope="session")
def small_sched(free_target_07, free_target_13):
    from diracembed import schedule
    return schedule([free_target_07, free_target_13], mode="finite",
                    a0=2.0e3, x_max=2.6e3)


@pytest.fixture(scope="session")
def small_pot(small_sched):
    from diracembed import assemble
    return assemble(small_sched)


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """A short two-target synthesis, run through the CLI once.

    Returns (config_path, out_dir) with potential.csv and manifest.json
    inside out_dir.  Small horizon: enough pieces to exercise rebuild,
    tracking and tampering tests without the acceptance-scale cost.
    """
    root = tmp_path_factory.mktemp("small_run")
    out = root / "out"
    cfg = RunConfig(p=PeriodicCoefficient(), q=PeriodicCoefficient(),
                    lambdas=[0.7, 1.3], a0=2.0e3, x_max=2.6e3,
                    out_dir=str(out))
    cfg_path = root / "config.json"
    cfg.save(str(cfg_path))
    rc = cli_main(["synth", "--config", str(cfg_path)])
    assert rc == 0
    assert os.path.exists(out / "potential.csv")
    assert os.path.exists(out / "manifest.json")
    return str(cfg_path), str(out)
