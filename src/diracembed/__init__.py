"""Spectral toolkit for 1-periodic Dirac operators.

Band structure and Floquet frames for H = J d/dx + Q(x) with periodic
coefficients, a modified Pruefer transformation adapted to the Floquet
frame, synthesis of decaying potentials that embed prescribed
non-resonant eigenvalues into the essential spectrum, and numerical
verification of every quantitative bound the construction relies on.
"""

from .config import ENVELOPES, RunConfig
from .errors import DiracEmbedError, ResonantFrequency, ResonantPair, ScanTooCoarse
from .floquet import (
    band_scan,
    derived_data,
    floquet_solution,
    in_band_samples,
    monodromy,
    write_period_csv,
)
from .periodic_core import PeriodicCoefficient, eval_coefficient
from .pruefer import R_xi_system, from_prufer, prufer_system, to_prufer
from .synth import (
    EmbeddingTarget,
    assemble,
    check_nonresonance,
    piece_potential,
    rebuild_potential,
    schedule,
    solve_xi,
    write_manifest,
    write_potential_csv,
)
from .verify import (
    adversarial_potential,
    decay_check,
    l2_tail_estimate,
    nonembedding_check,
    oscillatory_check_41,
    oscillatory_check_42,
    stability_check,
    track_targets,
)

__version__ = "0.1.0"
