"""Three-way decomposition of entropy production for degenerate open quantum
systems: vertical coherences, horizontal coherences, population convergence.
"""

from .exceptions import (
    AmbiguousClustering,
    CohentropyError,
    ConfigError,
    DiagonalizationFailure,
    HorizonExceeded,
    IdentityViolation,
    InvariantViolation,
    MissingRate,
    NonConvergence,
    NumericalFailure,
    RatioUndefined,
    ShapeMismatch,
    WitnessNotFound,
)
from .qcore import (
    DensityMatrix,
    HermitianObservable,
    matrix_log_on_support,
    partial_trace,
    relative_entropy,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
    coherence_measures,
    dephase_block_diagonal,
    dephase_diagonal,
    state_functionals,
    thermal_state_of,
)
from .lindblad import (
    BathSpectrum,
    JumpOperatorSet,
    LindbladGenerator,
    asymptotic_state,
    build_generator,
    eigenoperators,
    evolve,
    flat_bath,
)
from .thermo import (
    ComplementarityReport,
    HeatFlowReport,
    OttoCycleReport,
    ThermoSeries,
    ThermoSnapshot,
    complementarity_report,
    decompose_series,
    heat_flow,
    instantaneous_rates,
    otto_cycle,
)
from .collective import (
    AngularMomentumTable,
    SpinEnsembleSpec,
    analytic_steady_state,
    collective_coupling,
    coupled_basis,
    degeneracy_table,
    delta_C_h_limit,
    entropy_production_ratio,
    local_couplings,
)
from .thermalops import (
    BipartiteSystem,
    ConservationReport,
    EnergyConservingUnitary,
    apply_operation,
    conservation_report,
    divergence_witness,
    sample_energy_conserving_unitary,
)

__version__ = "0.1.0"
