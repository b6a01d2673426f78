"""The public names of the package, pinned so that changing them is deliberate."""

import importlib
import types

import pytest

import qprospect

PUBLIC = [
    "AmplitudeMatrix",
    "CohortReport",
    "CompositeState",
    "DensityOperator",
    "DimensionMismatchError",
    "EntanglementReport",
    "GameResult",
    "GameSpec",
    "GeneralizedProposition",
    "HamiltonianSpec",
    "InterferenceDistribution",
    "MeasurementOutcome",
    "MeasurerSpec",
    "MultimodeState",
    "NumericContractError",
    "Observable",
    "PipelineStage",
    "PipelineTrace",
    "PovmFamily",
    "PovmReport",
    "Projector",
    "Prospect",
    "ProspectOperator",
    "ProspectProbability",
    "ProtocolError",
    "QProspectError",
    "ScenarioError",
    "SizeLimitError",
    "ValidationError",
    "WaveState",
    "ZeroProbabilityError",
    "amplitude_matrix",
    "apply_measurement",
    "basis_change",
    "bayes_conditional",
    "bell_state",
    "born_distribution",
    "born_probability",
    "broken_symmetry_probabilities",
    "classical_prospects",
    "compose",
    "conditional_under_uncertainty",
    "disjoint_union_probability",
    "entanglement_production",
    "evolve",
    "evolve_state",
    "expected_value",
    "hermiticity_defect",
    "identity_chain_residual",
    "joint_probability",
    "joint_table",
    "kirkwood_form",
    "kirkwood_table",
    "luders_reduce",
    "luders_transition",
    "marginals",
    "matrix_exponential",
    "monte_carlo_cohort",
    "most_probable",
    "multimode_probability",
    "occupation_residual",
    "partial_trace",
    "pointer_measurer",
    "projector_of",
    "propagator",
    "prospect_lattice",
    "prospect_operator",
    "prospect_probability",
    "quarter_law",
    "readout",
    "run_pipeline",
    "set_tolerance",
    "spectral_norm",
    "tensor_product",
    "tolerance",
    "tolerance_scope",
    "transform_basis",
    "transition_matrix",
    "two_time_joint",
    "two_time_prospect",
    "validate_povm",
    "wigner_distribution",
    "wigner_table",
]


def test_public_names_are_pinned():
    # the package loads its names lazily, so they are read through the
    # package's own table and getattr rather than from vars(qprospect)
    assert sorted(qprospect.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(qprospect, name)
        assert not isinstance(value, types.ModuleType), name
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
    # once every name is loaded, the package holds those and no others
    exported = sorted(
        name for name, value in vars(qprospect).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC
    assert set(PUBLIC) <= set(dir(qprospect))
    with pytest.raises(AttributeError):
        qprospect.no_such_name
