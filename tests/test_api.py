import types

import qbmgeo

# The package's public names. A change that grows or shrinks the public API
# has to edit this list, so the change shows in its diff.
PUBLIC_API = [
    "AdditivityReport", "CramerRaoReport", "EUCLIDEAN", "EstimatorReport",
    "FISHER_BURES", "GroundEnergyLoss", "InfoMatrix", "KUBO_MORI", "MLEResult",
    "NumericConsistencyError", "OrderReport", "ParamHamiltonian",
    "RelativeEntropyLoss", "SLDMeasurement", "ShotConfig", "ShotMatrixResult",
    "SpectralDecomposition", "TentSampler", "ThermalState", "TrainConfig",
    "TrainTrace", "additivity_check", "anticommutator", "apply_channel",
    "assemble", "build_tent_sampler", "check_order", "classical_fisher_info",
    "cr_bound", "default_sampler", "estimate_fb_first_term",
    "estimate_km_first_term", "estimate_matrix", "estimate_product_term",
    "exact_first_term", "exact_product_term", "expectation", "expm_hermitian",
    "fb_exact", "fb_spectral_oracle", "filter_value", "grad_ground_energy",
    "grad_rel_entropy", "hadamard_test_prob", "hermitize", "km_exact",
    "km_spectral_oracle", "mle_single_param", "natgrad_step", "pauli_decompose",
    "pauli_to_matrix", "pseudo_inverse", "random_hamiltonian",
    "relative_entropy", "sample_t", "sld_measurement", "sld_operator",
    "spectral", "stream_rng", "tensor_product", "tent_density",
    "thermal_derivative", "thermal_state", "thermal_state_from_matrix", "train",
    "validate_terms",
]


def test_public_api_is_pinned():
    # submodules (qbmgeo.cli once imported, ...) are not part of the name list
    exported = sorted(
        name for name, value in vars(qbmgeo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC_API)
