"""Transport efficiency of continuous-time quantum walks on tree networks."""

__version__ = "0.1.0"

from .efficiency import (
    EfficiencyReport,
    KappaFit,
    TimeSeries,
    avg_f_sft,
    chi_dendrimer_inf,
    chi_exact,
    chi_lb_dendrimer_inf,
    chi_lb_vicsek_inf,
    chi_lower_from_density,
    chi_sft_finite,
    chi_sft_infinite,
    chi_structural,
    chi_vicsek_inf,
    default_time_grid,
    efficiency_report,
    kappa_fit,
    rho_star_structural,
    time_average,
    time_series,
    zeta,
)
from .ensemble import (
    ESTIMATORS,
    EnsembleConfig,
    EnsembleResult,
    SweepRow,
    realization_seed,
    run_ensemble,
    sweep,
)
from .errors import (
    DegenerateAverageError,
    GeneratorLayoutError,
    IncompletePotentialError,
    InvalidParameterError,
    NoParentsError,
    OutOfDomainError,
    QtreeError,
    SizeLimitError,
    UnsupportedExactModeError,
)
from .graphs import (
    StructuralStats,
    TreeGraph,
    edge_list_text,
    generate_chain,
    generate_dendrimer,
    generate_sft,
    generate_star,
    generate_vicsek,
    parse_edge_list_text,
    read_edge_list,
    structural_stats,
)
from .spectral import (
    ADJACENCY,
    CONNECTIVITY,
    DENSE_SOLVER_LIMIT,
    Hamiltonian,
    Potential,
    ReturnWeights,
    Spectrum,
    build_hamiltonian,
    custom_potential,
    multiplicity_exact,
    return_weights,
    spectrum,
)
