"""Exception hierarchy for zzkit.

Every failure mode that callers are expected to handle gets its own class so
that sweep drivers can record per-point failures and keep going.
"""


class ZZKitError(Exception):
    """Base class for all zzkit errors."""


class FitDivergedError(ZZKitError):
    """Vector-fit pole relocation failed to reduce the residual."""


class IllConditionedError(ZZKitError):
    """Least-squares system in the rational fit is rank deficient."""


class NonPhysicalModeError(ZZKitError):
    """Foster reconstruction produced a non-positive inductance or capacitance."""


class DimensionMismatchError(ZZKitError):
    """Participation matrix does not match the mode/junction counts."""


class TruncationError(ZZKitError):
    """Requested Hilbert-space truncation is too small to be meaningful."""


class AmbiguousLabelError(ZZKitError):
    """A bare-state label has squared overlap at or below 1/2 with its eigenstate."""


class DomainError(ZZKitError):
    """Input outside the validity region of a series expansion."""


class UnsupportedError(ZZKitError):
    """Operation not defined for this combination of inputs."""


class StiffnessError(ZZKitError):
    """Integrator step size underflowed (carrier likely under-resolved)."""


class PositivityError(ZZKitError):
    """Density matrix developed a significantly negative eigenvalue."""


class FitError(ZZKitError):
    """Fringe fit failed (too few samples, contrast too low or no oscillation found)."""


class StochasticityError(ZZKitError):
    """Readout fidelity matrix is not row stochastic."""


class NoCrossingError(ZZKitError):
    """Flux sweep does not bracket an avoided crossing."""


class NoFeasibleCandidateError(ZZKitError):
    """Optimizer finished without finding any feasible candidate."""


class ConfigError(ZZKitError):
    """Malformed configuration or data file; message carries field context."""
