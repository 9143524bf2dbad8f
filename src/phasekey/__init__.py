"""Phase-keyed encryption of coherent-state codewords.

Bit strings are encoded on tensor products of coherent states, encrypted
by a secret uniform phase-space rotation, processed homomorphically by
photon-number-preserving circuits, and analyzed through trace-distance
and pretty-good-measurement quantities with closed forms cross-checked
against brute-force density-matrix oracles.
"""

from .encoding import (
    AmplitudeVector,
    BitString,
    PartitionBlock,
    PhaseKey,
    apply_sign_flips,
    block_decomposition,
    codeword_fock,
    encode,
    encryption_channel_density,
    keygen,
    phase_rotate,
    phase_rotate_fock,
)
from .evaluation import (
    Interferometer,
    NonlinearPhaseSpec,
    apply_interferometer,
    cat_state_target,
    haar_random_unitary,
    interferometer_fock,
    kerr_cat_reference,
    nonlinear_phase_evolve,
)
from .fock import (
    CapacityError,
    DensityOperator,
    FockVector,
    coherent_coefficients,
    coherent_fock,
    density_from_fock,
    occupation_array,
    overlap,
    poisson_terms,
    total_photon_numbers,
    trace_distance_numeric,
    truncation_bound,
)
from .protocol import (
    CipherText,
    CircuitDescription,
    Transcript,
    UndecodableError,
    ciphertext_from_json,
    ciphertext_to_json,
    circuit_from_json,
    circuit_to_json,
    client_decrypt,
    client_decrypt_decode,
    client_encrypt,
    evaluator_apply,
    run_protocol,
)
from .security import (
    PgmResult,
    SecurityParams,
    SuppressionRatio,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    encrypted_trace_distance_limit,
    pgm_closed_form,
    pgm_numeric_oracle,
    qk_ak_enumeration,
    qk_ak_finite,
    rank2_eigenvalues,
    suppression_ratio,
    unencrypted_trace_distance,
)

__version__ = "0.1.0"

# every public name imported above, then the version string
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and type(value).__name__ != "module")
__all__.append("__version__")
