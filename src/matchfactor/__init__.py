"""matchfactor: behavioral pattern mining on match telemetry tensors.

Pipeline: ingest match records into a players x features x matches tensor,
fit a non-negative CP decomposition by alternating non-negative least
squares (block principal pivoting inner solver), pick the rank from the
core-consistency curve, then interpret the factors: feature signatures,
player clusters, temporal modulation, and win-rate statistics.
"""

__version__ = "0.1.0"

from .data import (
    CSV_HEADER,
    FEATURES,
    Dataset,
    IngestResult,
    NormalizedTensor,
    denormalize,
    ingest,
    normalize_minmax,
)
from .decompose import (
    DecomposeConfig,
    FactorModel,
    RankScanResult,
    RestartRecord,
    align_components,
    core_consistency,
    decompose,
    fit_restarts,
    load_factor_model,
    model_from_doc,
    model_to_doc,
    permute_components,
    rank_scan,
    save_factor_model,
    select_best_model,
)
from .errors import (
    ConstantColumn,
    DegenerateTensor,
    DuplicateKey,
    EmptyClusterUnrecoverable,
    MalformedRecord,
    MatchFactorError,
    MaxIterationsExceeded,
    NoPlayersRetained,
    NumericallySingular,
)
from .nnls import NnlsProblem, NnlsSolution, kkt_residual, solve_nnls_bpp
from .patterns import (
    Analysis,
    ClusterAssignment,
    ClusterTrajectories,
    FeatureSignature,
    WinRateStats,
    analyze,
    cluster_feature_trajectories,
    feature_membership,
    intra_component_membership,
    kde_gaussian,
    kde_grid,
    kmeans,
    silhouette,
    silverman_bandwidth,
    temporal_modulation,
    welch_t_test,
    win_rate_stats,
)
from .synthetic import (
    DEFAULT_GROUP_SIZES,
    DEFAULT_SIGNATURES,
    SyntheticResult,
    SyntheticSpec,
    apply_relative_noise,
    as_factor_model,
    generate_synthetic,
    planted_factors,
)
from .tensor import (
    as_matrix,
    as_tensor3,
    fold,
    frobenius_norm,
    khatri_rao,
    kruskal_tensor,
    load_tensor3,
    save_tensor3,
    unfold,
)
