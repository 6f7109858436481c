"""Risk-aware operating-point design for covert quantum links.

The pipeline: sample channel realizations once (`samples`), reduce them to
sorted covertness/rate arrays, then answer design questions against the
cache — hard-budget optima and sweeps (`risk_constrained`), closed-form
validation (`benchmark`), soft-penalty exploration (`risk_adjusted`), and
budget sensitivities (`sensitivity`).  `covertq.cli` exposes the same
pipelines as a command-line tool.
"""

from .distributions import (
    ExponentialSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    sample_exponential,
    sample_truncated_gaussian,
    sample_truncated_lognormal,
)
from .physics import (
    achievable_rate,
    covertness_constant,
    depolarizing_probability,
)
from .quantiles import RiskBudgets, order_index, strict_cdf, strict_outage_quantile
from .samples import (
    BenchmarkChannelSpec,
    ChannelSpec,
    SampleSet,
    StochasticChannelSpec,
    channel_digest,
    generate_sample_set,
    load_sample_set,
    save_sample_set,
)
from .risk_constrained import (
    OptimumReport,
    ProtocolParams,
    decade_gains,
    frontier_sweep,
    n_scaling_sweep,
    optimize,
    surface_sweep,
)
from .benchmark import (
    benchmark_ccov_cdf,
    benchmark_ccov_density,
    benchmark_ccov_quantile,
    benchmark_qmax,
    benchmark_rmax,
    validate,
)
from .risk_adjusted import (
    GridSpec,
    HeatmapResult,
    RiskWeights,
    Strategy,
    foc_residual,
    grid_maximize,
    heatmap_sweep,
    objective,
)
from .sensitivity import (
    SensitivityPoint,
    SingularSensitivityError,
    sensitivities_symmetric,
    sensitivity_formula,
)

__version__ = "0.1.0"
