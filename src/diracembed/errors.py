"""Exception types shared across the package.

Every guard that aborts a computation raises one of these, so callers
(and the CLI exit-code mapping) can tell configuration mistakes apart
from genuine numerical check failures.
"""

from __future__ import annotations


class DiracEmbedError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- integration


class StepSizeUnderflow(DiracEmbedError):
    """Adaptive step controller stalled below the minimum step size."""


class NonFiniteState(DiracEmbedError):
    """State vector left the finite floating-point range during integration."""


# ---------------------------------------------------------------- floquet


class ScanTooCoarse(DiracEmbedError):
    """Band scan grid too coarse: a band or gap narrower than two strides."""


class BandEdge(DiracEmbedError):
    """Spectral parameter at (or too close to) a band edge, or inside a gap."""


class DegenerateEigenvector(DiracEmbedError):
    """Monodromy eigenproblem is numerically degenerate."""


class UnwrapJump(DiracEmbedError):
    """Phase unwrapping saw a jump >= pi/2 between adjacent grid points."""


class InvariantDrift(DiracEmbedError):
    """A conserved or periodic quantity drifted past its tolerance."""


class ZeroSolution(DiracEmbedError):
    """Pruefer variables are undefined for the identically-zero solution."""


# ---------------------------------------------------------------- synthesis


class ResonantPair(DiracEmbedError):
    """Two quasimomenta violate the non-resonance margins.

    Attributes i, j index the offending targets; ``condition`` names the
    failed margin: "k_i - k_j" (i != j) or "k_i + k_j - pi" (i == j too).
    """

    def __init__(self, i: int, j: int, condition: str, value: float):
        self.i, self.j, self.condition, self.value = i, j, condition, value
        super().__init__(
            f"targets {i} and {j} violate the {condition} margin (value {value:.6g})"
        )

    def __reduce__(self):  # the default passes the message as the only argument
        return type(self), (self.i, self.j, self.condition, self.value), vars(self)


class EnvelopeTooLarge(DiracEmbedError):
    """Coupling envelope 2C/(a-b) is not small next to the rotation rate 2k."""


class PieceTooShort(DiracEmbedError):
    """Piece is too short to carry the requested taper windows."""


class HorizonTooShort(DiracEmbedError):
    """x_max reached before every target owned the pieces of the complete
    cycles the l2-tail check needs (synth.TAIL_CYCLES)."""


class EnvelopeViolation(DiracEmbedError):
    """Growing-N envelope |V|(1+|x|) <= |h| failed at a sample."""


class PlanMismatch(DiracEmbedError):
    """A manifest's breakpoints or pieces are not the plan its inputs give."""


# ---------------------------------------------------------------- verification


class HypothesisViolated(DiracEmbedError):
    """Inputs to an oscillatory check violate the exponent hypotheses."""


class ResonantFrequency(DiracEmbedError):
    """Mean frequency within 1e-3 of 2*pi*Z in a periodic-factor check."""


class DecayTooSlow(DiracEmbedError):
    """Fitted decay slope above the acceptance threshold."""

    def __init__(self, slope: float, threshold: float):
        self.slope, self.threshold = slope, threshold
        super().__init__(f"fitted slope {slope:.3f} above threshold {threshold:.3f}")

    def __reduce__(self):  # as ResonantPair's
        return type(self), (self.slope, self.threshold), vars(self)


class StabilityViolated(DiracEmbedError):
    """Bystander amplitude grew past the allowed factor during a piece."""


class BoundViolated(DiracEmbedError):
    """A certified lower/upper bound failed at a sample point."""


class InconclusiveTail(DiracEmbedError):
    """Fewer than three complete cycles available for the tail estimate."""
