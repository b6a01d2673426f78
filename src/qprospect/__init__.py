"""Quantum event probabilities for separate, consecutive, and composite measurements.

The package is organized by what it computes:

* :mod:`qprospect.qcore` -- dense tensor/trace/propagator kernel
* :mod:`qprospect.events` -- observables, states, multimode propositions
* :mod:`qprospect.measure` -- Born rule, state reduction, sequential forms
* :mod:`qprospect.composite` -- joint events and interference prospects
* :mod:`qprospect.channels` -- staged measurement pipelines
* :mod:`qprospect.entangle` -- entanglement-production measure
* :mod:`qprospect.game` -- prisoner dilemma under uncertainty
* :mod:`qprospect.dynamics` -- multimode evolution and two-time amplitudes
* :mod:`qprospect.cli` -- scenario-driven command line

The public names load on first use (PEP 562): ``import qprospect`` imports
no submodule and no numpy, and reading ``qprospect.born_distribution``
imports :mod:`qprospect.measure` and what it needs, nothing more.
"""

import importlib

_EXPORTS = {
    "composite": (
        "CompositeState", "Prospect", "ProspectOperator", "ProspectProbability",
        "bayes_conditional", "conditional_under_uncertainty", "joint_probability",
        "joint_table", "marginals", "prospect_lattice", "prospect_operator",
        "prospect_probability",
    ),
    "channels": (
        "MeasurerSpec", "PipelineStage", "PipelineTrace", "compose", "evolve",
        "pointer_measurer", "readout", "run_pipeline", "transform_basis",
    ),
    "dynamics": (
        "AmplitudeMatrix", "HamiltonianSpec", "WaveState", "amplitude_matrix",
        "evolve_state", "occupation_residual", "propagator", "two_time_joint",
        "two_time_prospect",
    ),
    "entangle": ("EntanglementReport", "bell_state", "entanglement_production"),
    "errors": (
        "DimensionMismatchError", "NumericContractError", "ProtocolError",
        "QProspectError", "ScenarioError", "SizeLimitError", "ValidationError",
        "ZeroProbabilityError",
    ),
    "events": (
        "DensityOperator", "GeneralizedProposition", "MultimodeState", "Observable",
        "PovmFamily", "PovmReport", "Projector", "basis_change", "multimode_probability",
        "projector_of", "validate_povm",
    ),
    "game": (
        "CohortReport", "GameResult", "GameSpec", "InterferenceDistribution",
        "broken_symmetry_probabilities", "classical_prospects", "monte_carlo_cohort",
        "quarter_law",
    ),
    "policy": ("set_tolerance", "tolerance", "tolerance_scope"),
    "qcore": (
        "hermiticity_defect", "matrix_exponential", "partial_trace", "spectral_norm",
        "tensor_product",
    ),
    "measure": (
        "MeasurementOutcome", "apply_measurement", "born_distribution",
        "born_probability", "disjoint_union_probability", "expected_value",
        "identity_chain_residual", "kirkwood_form", "kirkwood_table", "luders_reduce",
        "luders_transition", "most_probable", "transition_matrix",
        "wigner_distribution", "wigner_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # a name outside the table (a submodule such as ``events``) is left to
    # the import system
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
