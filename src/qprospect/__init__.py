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
"""

from .composite import (
    ClassicalLimitReport,
    CompositeState,
    Prospect,
    ProspectOperator,
    ProspectProbability,
    bayes_conditional,
    classical_limit_check,
    conditional_under_uncertainty,
    joint_probability,
    joint_table,
    marginals,
    prospect_lattice,
    prospect_operator,
    prospect_probability,
    resolution_residuals,
)
from .channels import (
    MeasurerSpec,
    PipelineStage,
    PipelineTrace,
    basis_change,
    compose,
    evolve,
    pointer_measurer,
    readout,
    run_pipeline,
    transform_basis,
)
from .dynamics import (
    AmplitudeMatrix,
    HamiltonianSpec,
    WaveState,
    amplitude_matrix,
    evolve_state,
    occupation_residual,
    propagator,
    two_time_joint,
    two_time_prospect,
)
from .entangle import EntanglementReport, bell_state, entanglement_production
from .errors import (
    DimensionMismatchError,
    NumericContractError,
    ProtocolError,
    QProspectError,
    ScenarioError,
    SizeLimitError,
    ValidationError,
    ZeroProbabilityError,
)
from .events import (
    DensityOperator,
    GeneralizedProposition,
    MultimodeState,
    Observable,
    PovmFamily,
    PovmReport,
    Projector,
    multimode_probability,
    projector_of,
    validate_povm,
)
from .game import (
    CohortReport,
    GameResult,
    GameSpec,
    InterferenceDistribution,
    broken_symmetry_probabilities,
    classical_prospects,
    monte_carlo_cohort,
    quarter_law,
)
from .policy import set_tolerance, tolerance, tolerance_scope
from .qcore import (
    hermiticity_defect,
    matrix_exponential,
    partial_trace,
    spectral_norm,
    tensor_product,
)
from .measure import (
    MeasurementOutcome,
    apply_measurement,
    born_distribution,
    born_probability,
    disjoint_union_probability,
    expected_value,
    identity_chain_residual,
    kirkwood_form,
    kirkwood_table,
    luders_reduce,
    luders_transition,
    most_probable,
    transition_matrix,
    wigner_distribution,
    wigner_table,
)

__version__ = "0.1.0"
