"""Self-normalized Wilcoxon change-point test for long-range dependent series.

The test statistic compares, at every admissible split point, the
Wilcoxon rank deviation against a normalizer built from within-segment
partial sums of the same ranks, which removes every unknown scale and
dependence constant from the rejection rule.  The package provides the
statistic, exact fractional Gaussian noise sampling, simulation of the
limit distribution and its critical values, and a Monte Carlo harness
for size, power, consistency, and local-alternative studies.
"""

from .fgn import (
    FgnParams,
    FgnSampler,
    build_sampler,
    fgn_autocovariance,
    sample_fgn,
    sample_fgn_block,
)
from .rankstat import RankProfile, TimeSeries, build_profile
from .sntest import TestResult, TestWindow, sn_cusum_statistic, tn_statistic
from .limitdist import (
    CriticalValueTable,
    LimitSimSpec,
    critical_values,
    simulate_limit_values,
    upper_quantile,
)
from .montecarlo import (
    CSV_COLUMNS,
    ExperimentResult,
    ExperimentSpec,
    reproduce_tables,
    run_experiment,
    run_experiments,
    simulate_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "FgnParams",
    "FgnSampler",
    "build_sampler",
    "fgn_autocovariance",
    "sample_fgn",
    "sample_fgn_block",
    "RankProfile",
    "TimeSeries",
    "build_profile",
    "TestResult",
    "TestWindow",
    "sn_cusum_statistic",
    "tn_statistic",
    "CriticalValueTable",
    "LimitSimSpec",
    "critical_values",
    "simulate_limit_values",
    "upper_quantile",
    "CSV_COLUMNS",
    "ExperimentResult",
    "ExperimentSpec",
    "reproduce_tables",
    "run_experiment",
    "run_experiments",
    "simulate_statistics",
    "__version__",
]
