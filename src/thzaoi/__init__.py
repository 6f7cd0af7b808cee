"""Peak-age analytics, tandem-queue simulation, and THz link-budget sweeps."""

__version__ = "0.1.0"

from .aoi_analytic import (  # noqa: F401
    AvgMode, CdfSource, ComputeQueueLaw, Discipline, FlaggedValue,
    InstabilityError, PsiMode, StageLaw, SystemLaw, Validity,
    avg_paoi_compute, avg_paoi_e2e, avg_paoi_stage, cdf_paoi, pdf_paoi,
    severity_both_modes, system_cdf,
)
from .queue_sim import (  # noqa: F401
    ComputeFeed, EmptyDataError, PaoiSamples, QueueConfig, Stage,
    empirical_cdf, estimate_avg, excursion_severity, ks_distance, run, stage_series,
)
from .scenario import (  # noqa: F401
    ArrivalRateMode, ConfigError, Room, Scenario, Sweep, SweepVariable,
    associate, place_users, realize_rates, run_sweep,
)
from .thz_link import (  # noqa: F401
    LinkGeometry, LinkParams, channel_gain, noise_plus_interference,
    rate_bps, ris_array_gain, update_rate,
)
