"""Regional return-value estimation for cyclone-induced significant wave
height using space-time maxima and per-location exposures."""

__version__ = "0.1.0"

from .catalog import (
    CatalogError,
    CycloneCatalog,
    ExposureMatrix,
    Location,
    RegionSpec,
    StmSeries,
    extract_exposures,
    extract_stm,
    load_catalog,
    select_region,
    top_n_events,
)
from .evd import (
    EvdError,
    FitReport,
    GpdParams,
    fit_gpd,
    fit_gpd_mle,
    fit_gpd_pwm,
    fit_gpd_rows,
    gpd_cdf,
    gpd_pdf,
    gpd_quantile,
)
from .returns import (
    ExposureEcdf,
    ReturnValueEstimate,
    exposure_ecdf,
    return_value,
    return_values,
    run_stme,
    swh_cdf,
    target_probability,
)
from .baselines import (
    LocationSeries,
    empirical_rv,
    location_series,
    single_location_rv,
)
from .diagnostics import (
    DiagnosticsError,
    KlResult,
    TauResult,
    exposure_kl_test,
    ks_uniformity,
    tau_map,
    trend_permutation_test,
)
from .experiments import (
    CellStats,
    CellTable,
    ExperimentConfig,
    PerformanceMetrics,
    SummaryStats,
    SynthWorldConfig,
    performance_metrics,
    run_experiment,
    sample_period,
    summarize,
    synth_catalog,
)
