"""Watch-time labels for short-video ranking.

Turns raw (user, video, duration, watch time) records into training
labels that rank watch time within duration strata instead of across
them, so that long videos do not automatically outrank short ones.
Ships with a synthetic data generator with tunable duration
confounding, exact and sketch-based quantile summaries, a small
multi-task learner over the labels, and an evaluation suite.
"""

from __future__ import annotations

from .core import (
    ABLATION_LABELS,
    BINARY_LABELS,
    STANDARD_LABELS,
    DurationBins,
    Interaction,
    InteractionTable,
    PartitionScheme,
    make_duration_bins,
    make_partition,
    validate_interaction,
)
from .datagen import SyntheticConfig, SyntheticTruth, generate, oracle_rank_quality
from .errors import (
    ConfigInvalid,
    DegenerateLabels,
    EmptyDataset,
    EmptyGroup,
    EmptyInput,
    EmptySummary,
    InvalidRatios,
    LabelOutOfRange,
    MissingField,
    MissingGroupSummary,
    MissingInverseMap,
    MissingLabelColumn,
    MissingTruthFile,
    NegativeValue,
    NegativeWatchTime,
    NoEligibleUsers,
    NonFiniteLoss,
    NonMonotoneCurve,
    NonPositiveDuration,
    PercentileOutOfRange,
    PipelineError,
    SerializationError,
)
from .labeling import (
    EV_PERCENTILE,
    LV_PERCENTILE,
    GroupedSummaries,
    GroupKey,
    LabelConfig,
    LabelTable,
    build_grouped_summaries,
    label_all,
    label_all_detailed,
    label_binary,
    label_equal_width_wpr,
    label_playing_rate,
    label_wpr_debiased,
    label_wpr_global,
    load_grouped_summaries,
    save_grouped_summaries,
)
from .learner import (
    Model,
    ModelArch,
    OptimizerConfig,
    TaskConfig,
    WprInverse,
    fit,
    gradient_check,
    load_model,
    predict_watch_time,
    save_model,
    score_and_predict,
    score_records,
    train,
)
from .metrics import (
    EvalReport,
    GaucDetail,
    RegressionMetrics,
    auc,
    gauc,
    gauc_detail,
    ks_distance,
    regression_metrics,
)
from .quantile import (
    DEFAULT_EPS,
    ExactSummary,
    QuantileSummary,
    SketchSummary,
    make_summary,
    summary_from_bytes,
)

__version__ = "0.1.0"
