"""Ancilla-filtered eigenstate preparation on small Pauli-string chains.

The package simulates a measurement-based filtering protocol: repeated
rounds of conditional time evolution, post-selected on an ancilla, that
steer a register toward an energy eigenstate of a Pauli-string
Hamiltonian. It ships exact and split-step propagators, analytic
spectra for the built-in chains, an adiabatic ramp, shot-noise
emulation, and a scenario runner driven by JSON manifests.
"""

__version__ = "0.1.0"

from .adiabatic import (
    AdiabaticSchedule,
    adiabatic_prepare,
    staggered_start,
)
from .manifest import (
    Manifest,
    ManifestError,
    TargetSpec,
    bundled_names,
    load_manifest,
    parse_manifest,
    validate_manifest,
)
from .pauli import (
    PauliSum,
    PauliTerm,
    dense_matrix,
    expectation,
    hamiltonian_by_name,
    named_observable,
    observable_zbar,
    schwinger_hamiltonian,
    single_z,
)
from .shots import PostSelectionError, sample_shots, stream_starts
from .spectral import (
    SpectralDecomposition,
    closed_form_spectrum,
    eigendecompose,
    evolve_exact,
    overlap_weights,
)
from .state import StateVector
from .trotter import evolve_trotter, trotter_error
from .twirl import (
    Backend,
    RoundRecord,
    RoundSpec,
    TauMode,
    TwirlConfig,
    ZeroEnergyError,
    choose_tau,
    keep_probability,
    run_protocol,
    twirl_round,
)

__all__ = [
    "__version__",
    "AdiabaticSchedule",
    "Backend",
    "Manifest",
    "ManifestError",
    "PauliSum",
    "PauliTerm",
    "PostSelectionError",
    "RoundRecord",
    "RoundSpec",
    "SpectralDecomposition",
    "StateVector",
    "TargetSpec",
    "TauMode",
    "TwirlConfig",
    "ZeroEnergyError",
    "adiabatic_prepare",
    "bundled_names",
    "choose_tau",
    "closed_form_spectrum",
    "dense_matrix",
    "eigendecompose",
    "evolve_exact",
    "evolve_trotter",
    "expectation",
    "hamiltonian_by_name",
    "keep_probability",
    "load_manifest",
    "named_observable",
    "observable_zbar",
    "overlap_weights",
    "parse_manifest",
    "run_protocol",
    "sample_shots",
    "schwinger_hamiltonian",
    "single_z",
    "staggered_start",
    "stream_starts",
    "trotter_error",
    "twirl_round",
    "validate_manifest",
]
