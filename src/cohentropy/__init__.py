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
    trace_distance,
)
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
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
    degeneracy_table,
    delta_C_h_limit,
    entropy_production_ratio,
    local_couplings,
)
from .thermalops import (
    BipartiteSystem,
    conservation_report,
    divergence_witness,
    operation_rows,
    sample_energy_conserving_unitaries,
)

__version__ = "0.1.0"
