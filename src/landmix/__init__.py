"""Bayesian longitudinal mixed models for country-level landings panels."""

__version__ = "0.1.0"

from .data import DEFAULT_SPAN, load_landings, simulate_dataset, write_landings
from .diagnostics import (
    ConvergenceEntry,
    ParamSummary,
    compute_convergence,
    ess,
    pool_chains,
    render_summary_table,
    split_rhat,
    summarize,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateCovarianceError,
    DegenerateDataError,
    LandmixError,
)
from .model import (
    Dataset,
    JointEffects,
    JointParams,
    ModelState,
    PriorSpec,
    SECTORS,
    Sector,
    StreamStats,
    TotalEffects,
    TotalParams,
    build_covariance,
    log_density,
)
from .oracle import (
    GridSpec,
    SBCConfig,
    conjugate_posterior_beta0,
    grid_log_posterior,
    sbc_run,
)
from .sampler import (
    ChainConfig,
    ChainDraws,
    chain_rng,
    initial_state,
    run_chain,
    run_chains,
)
