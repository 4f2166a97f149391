"""Sign and phase elimination for local Hamiltonians, with the clock
constructions and decision protocols built on top of them.

The package turns Hermitian local Hamiltonians into stoquastic or
(doubly) stochastic matrices on an enlarged space while preserving an
identifiable spectral sector, builds frustration-free circuit
Hamiltonians with tunable clock weighting, and wires both into small
decision problems whose answers can be checked exactly at a few qubits.
"""

from .errors import ContractError, ConvergenceError, ResourceError
from .pauli import (
    MAX_QUBITS,
    LocalHamiltonian,
    build_matrix,
    embed,
    pauli_decompose,
    random_instance,
    remap_qubits,
)
from .classify import (
    DEFAULT_TOL,
    DENSE_CAP,
    MatrixClassFlags,
    classify,
    kernel_projector_complement,
)
from .spectra import (
    SpectralReport,
    Spectrum,
    eig_dense,
    eig_extremal,
    spectral_report,
)
from .mapping import (
    MappedHamiltonian,
    add_ancilla_penalty,
    add_penalty_complex,
    sector_spectrum,
    sector_vector_z4,
    stochastize,
    stochastize_complex,
    stochastize_ff,
    stoquastize,
)
from .clock import (
    BlockMatrix,
    FFHamiltonian,
    Gate,
    QuantumCircuit,
    block_matrix,
    build_ff,
    build_stochastic_ff,
    clock_state_index,
    cnot,
    custom,
    ff_term_hamiltonians,
    gap_formulas,
    gap_scan,
    history_state,
    identity_gate,
    output_distribution,
    rot,
)
from .adiabatic import (
    AdiabaticTrace,
    HamiltonianPath,
    MeasurementReport,
    PathPiece,
    evolve,
    ff_schedule_path,
    measure_and_decode,
    sector_leakage,
    stoquastic_interpolation_path,
)
from .protocols import (
    AcceptanceReport,
    ExcitedEnergyProblem,
    SatDecision,
    SatInstance,
    acceptance_operator,
    antisym_projector,
    build_Hc,
    decide_sat,
    direct_sum,
    lemma1_value,
    reduce_qsat,
    slater_witness,
)
from .io import (
    FORMAT_VERSION,
    circuit_from_data,
    circuit_to_data,
    gap_scan_csv,
    hamiltonian_from_data,
    hamiltonian_to_data,
    load_circuit,
    load_hamiltonian,
    load_sat_instance,
    make_report,
    report_to_json,
    sat_instance_from_data,
    sat_instance_to_data,
    save_circuit,
    save_hamiltonian,
    save_sat_instance,
    spectral_report_to_data,
    write_report,
)
from .cli import main, run_command

__version__ = "0.1.0"
