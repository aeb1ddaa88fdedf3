"""zzkit: design and simulation of the engineered ZZ interaction between
capacitively coupled transmon qubits.

The package covers the full chain from circuit parameters to driven
dynamics: SQUID/transmon spectra and Foster-network quantization
(`zzkit.circuit`, `zzkit.vectorfit`), dressed two-mode spectra with exact and
perturbative ZZ extraction (`zzkit.spectrum`), pulse-level time evolution
including the dynamical-blockade, Ramsey and echo protocols
(`zzkit.dynamics`), and a constrained differential-evolution design search
(`zzkit.optimize`).  `zzkit.fixtures` ships the two characterized devices and
`zzkit.cli` exposes the sweep commands.
"""

from .circuit import (
    Coupling,
    FosterMode,
    JunctionParticipation,
    KerrParams,
    SquidSpec,
    TransmonSpec,
    effective_josephson_energy,
    kerr_from_foster,
    participation_from_foster,
    transmon_levels,
    transmon_pair,
    transmon_spectrum,
)
from .dynamics import (
    DissipationSpec,
    ProtocolSpec,
    PulseSpec,
    SimulationResult,
    TwoQubitSystem,
    calibrated_pulse,
    evolve_lindblad,
    evolve_schrodinger,
    make_blockade_protocol,
    pi_pulse,
    pulse_spectral_power,
    run_blockade_grid,
    run_blockade_protocol,
    run_conditional_ramsey,
    run_echo_conditional_phase,
)
from .fixtures import DeviceFixture, load_fixture
from .optimize import (
    Candidate,
    ConstraintSet,
    DEParams,
    OptimizationProblem,
    evaluate_population,
    optimize,
)
from .spectrum import (
    LabeledSpectrum,
    PauliDecomposition,
    conditional_frequencies,
    diagonalize_and_label,
    dressed_blocks,
    pauli_decomposition,
    schrieffer_wolff_shifts,
    zeta_exact,
    zeta_perturbative,
    zeta_resonant,
    zeta_series_high_detuning,
)
from .vectorfit import RationalFit, foster_from_fit, vector_fit

__version__ = "0.1.0"
