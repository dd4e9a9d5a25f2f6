"""paulimeter: unified Pauli measurement schemes with an exact oracle."""

from .errors import (
    CoverageError,
    DegenerateObservable,
    DimensionMismatch,
    EmptyInput,
    FeasibilityError,
    ForeignRecord,
    FormatError,
    InvalidBasis,
    PaulimeterError,
    PlanMismatch,
)
from .paulis import (
    PauliString,
    PhasedPauli,
    WeightedPauliSum,
    compatible,
    hits,
    multiply,
    square,
)
from .states import (
    DensityMatrix,
    SubsystemMask,
    admix_white_noise,
    born_distribution,
    exact_expectation,
    exact_pt_moment,
    exact_subsystem_purity,
    ghz,
    noise_from_fidelity,
    noisy_ghz,
    partial_trace,
    partial_transpose,
    random_mixed_state,
    sample_outcomes,
    sample_settings,
)
from .schemes import (
    BasisDistribution,
    MeasurementPlan,
    derandomization_cost,
    draw_bases,
    draw_basis,
    plan_derandomized,
    plan_l1,
    plan_lbcs,
    plan_ldf,
    plan_uniform_cs,
)
from .estimators import (
    EstimateReport,
    ShotBatch,
    estimate,
    estimate_derandomized,
    per_shot_estimates,
    per_term_expectations,
    sample_size_linear,
    sample_size_nonlinear,
    variance_generic,
    variance_grouping,
    variance_l1,
    variance_product_scheme,
)
from .shadows import (
    ShadowSet,
    collect_shadows,
    p3_ppt_certificate,
    pt_moment_ustat,
    purity_certificate,
    purity_ustat,
    reconstruct_mean,
)
from .formats import (
    builtin_hamiltonian,
    load_hamiltonian,
    parse_hamiltonian,
    parse_records,
    read_plan,
    write_hamiltonian,
    write_plan,
    write_records,
)
from .experiments import (
    ExperimentSpec,
    RunResult,
    default_observable_pool,
    run_energy_experiment,
    run_entanglement_experiment,
    run_observables_experiment,
    split_identity,
)

__version__ = "0.1.0"
