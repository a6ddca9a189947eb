"""Simulation and verification toolkit for stochastic calculus under a
signed reference measure: decomposition classes over density zero
sets, the restart operator, integral and occupation calculus against
zero sets, and Monte Carlo checks of the associated identities."""

from .paths import (
    TimeGrid,
    Path,
    SeedSpec,
    make_grid,
    make_stream,
    bm_increments,
    sample_bm,
    sample_independent_pair,
    SUBSTREAM_PRIMARY,
    SUBSTREAM_DENSITY,
    SUBSTREAM_SECONDARY,
)
from .errors import (
    SigmaLabError,
    ConfigurationError,
    ContractError,
    DegenerateShiftError,
    DegenerateMeasureError,
)
from .density import (
    StoppedBM,
    ErfSign,
    ZeroSetInfo,
    density_path,
    density_driver_path,
    zero_set,
    driver_zero_set,
    zero_set_from_level_series,
    ensemble_weights,
)
from .balayage import (
    PathFunctional,
    running_sup,
    quadratic_variation,
    net_change,
    constant,
    integral_against,
    linear_combination,
    product_of,
    occupation_kernel,
    assert_adapted,
    rho,
    shift,
    q_integral,
    q_bracket,
    q_local_time,
    tanaka_residual,
    TanakaResidual,
    ito_residual,
)
from .sigma_classes import (
    CLASSICAL,
    SIGMA_H,
    SIGMA_SH,
    Decomposition,
    SupportCheck,
    assemble,
    abs_martingale,
    pm_combination,
    drawdown,
    lifted_reflected,
    retag,
    product,
    scaled_by_f,
    characterization,
    MembershipReport,
    verify_membership,
)
from .estimates import (
    McEstimate,
    weighted_mean,
    effective_sample_size,
    TargetCheck,
    mean_check,
    flatness_check,
    ks_check,
    exact_check,
    count_check,
    ratio_check,
    TableBoundary,
    exponential_cdf,
)
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ExperimentRun,
    ReportRow,
    CurveSeries,
    config_digest,
    experiment_names,
    paper_anchor,
    report_rows,
    resolve_settings,
    run_experiment,
    run_suite,
)
from .reporting import write_report, matrix_lines

__version__ = "0.1.0"
