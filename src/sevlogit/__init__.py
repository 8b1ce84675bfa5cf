"""Multinomial-logit models of accident injury severity.

Estimation by maximum likelihood with analytic derivatives, elasticities of
outcome probabilities, and likelihood-ratio tests for splitting data by
segment or pooling across periods. The hot kernels are vectorized numpy.
"""

__version__ = "0.1.0"

from ._kernels import active_backend
from .chi2 import chi_square_sf
from .data import (
    Dataset,
    Observation,
    OutcomeSet,
    SegmentKey,
    SummaryTable,
    concatenate,
    partition,
    summarize,
)
from .errors import (
    ConfigError,
    EmptyPartitionError,
    InconsistencyError,
    IngestionError,
    ModelSpecError,
    NonConvergenceError,
    NonIdentificationError,
    NumericError,
    SchemaError,
    SevlogitError,
    UndefinedStatisticError,
)
from .estimate import (
    EstimateOptions,
    EstimationResult,
    FitStatistics,
    estimate,
    fit_statistics,
    null_log_likelihood,
)
from .inference import (
    ElasticityCell,
    ElasticityReport,
    LRTestResult,
    PartitionReport,
    elasticity_point,
    elasticity_report,
    evaluate_partition,
    finite_difference_elasticity,
    lr_split_test,
    lr_temporal_test,
)
from .likelihood import (
    LikelihoodEvaluation,
    gradient_hessian,
    log_likelihood,
    probabilities,
    probabilities_from_utilities,
    probability_matrix,
)
from .modelspec import (
    CONSTANT,
    ModelSpec,
    ParameterLayout,
    ParameterVector,
    TermSpec,
    build_layout,
    utility,
)
from .io import ingest_csv, load_generator_config, load_model_spec, write_csv
from .simulate import (
    CategoricalDist,
    ConstantDist,
    GeneratorConfig,
    IndicatorDist,
    SegmentComponent,
    UniformDist,
    simulate,
    theta_for_target_shares,
)

__all__ = [
    "__version__",
    "active_backend",
    "chi_square_sf",
    "CONSTANT",
    "Dataset",
    "Observation",
    "OutcomeSet",
    "SegmentKey",
    "SummaryTable",
    "concatenate",
    "partition",
    "summarize",
    "ModelSpec",
    "TermSpec",
    "ParameterLayout",
    "ParameterVector",
    "build_layout",
    "utility",
    "LikelihoodEvaluation",
    "probabilities",
    "probabilities_from_utilities",
    "probability_matrix",
    "log_likelihood",
    "gradient_hessian",
    "EstimateOptions",
    "EstimationResult",
    "FitStatistics",
    "estimate",
    "fit_statistics",
    "null_log_likelihood",
    "ElasticityCell",
    "ElasticityReport",
    "LRTestResult",
    "PartitionReport",
    "elasticity_point",
    "elasticity_report",
    "finite_difference_elasticity",
    "evaluate_partition",
    "lr_split_test",
    "lr_temporal_test",
    "GeneratorConfig",
    "SegmentComponent",
    "ConstantDist",
    "UniformDist",
    "CategoricalDist",
    "IndicatorDist",
    "simulate",
    "theta_for_target_shares",
    "ingest_csv",
    "write_csv",
    "load_model_spec",
    "load_generator_config",
    "SevlogitError",
    "ConfigError",
    "ModelSpecError",
    "IngestionError",
    "SchemaError",
    "NumericError",
    "NonConvergenceError",
    "NonIdentificationError",
    "InconsistencyError",
    "UndefinedStatisticError",
    "EmptyPartitionError",
]
