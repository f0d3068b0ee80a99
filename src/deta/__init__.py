"""Noise-robust few-shot task adaptation on pre-extracted features.

Support regions and images are weighted by contrastive relevance, two
weighted contrastive losses adapt a residual feature adapter plus projection
head at test time, and inference uses a weighted nearest-centroid classifier
built from the adapted features.
"""

from .adaptation import AblationFlags, AdaptationConfig, AdaptedState, adapt_task
from .classifier import (
    build_classifier,
    classify,
    evaluate,
    plain_ncc_accuracy,
    predict,
)
from .episodes import (
    QuerySample,
    SupportSample,
    SyntheticNoiseConfig,
    TaskEpisode,
    corrupt_labels,
    generate_synthetic_episode,
    load_episode_file,
    resample_regions,
    save_episode_file,
)
from .errors import (
    DegenerateVectorError,
    DetaError,
    DivergenceError,
    EmptyClassError,
    InvalidParameterError,
    MissingWeightError,
    OracleFailure,
    ParseError,
    SchemaError,
)
from .harness import (
    ABLATION_PRESETS,
    AggregateReport,
    BenchmarkConfig,
    EpisodeReport,
    emit_report,
    load_report_json,
    run_benchmark,
)
from .losses import (
    EmbeddingBatch,
    LossHyperparams,
    LossValue,
    combined_loss,
    global_dispersion_loss,
    local_compactness_loss,
)
from .relevance import (
    ImageWeightAccumulator,
    RegionWeightTable,
    accumulate_image_weights,
    region_weights,
    uniform_weight_table,
)

__all__ = [
    # adaptation
    "AblationFlags", "AdaptationConfig", "AdaptedState", "adapt_task",
    # inference
    "build_classifier", "classify", "evaluate", "plain_ncc_accuracy", "predict",
    # episodes
    "QuerySample", "SupportSample", "SyntheticNoiseConfig", "TaskEpisode", "corrupt_labels",
    "generate_synthetic_episode", "load_episode_file", "resample_regions", "save_episode_file",
    # errors
    "DegenerateVectorError", "DetaError", "DivergenceError", "EmptyClassError",
    "InvalidParameterError", "MissingWeightError", "OracleFailure", "ParseError", "SchemaError",
    # benchmark harness
    "ABLATION_PRESETS", "AggregateReport", "BenchmarkConfig", "EpisodeReport", "emit_report",
    "load_report_json", "run_benchmark",
    # losses
    "EmbeddingBatch", "LossHyperparams", "LossValue", "combined_loss", "global_dispersion_loss",
    "local_compactness_loss",
    # relevance
    "ImageWeightAccumulator", "RegionWeightTable", "accumulate_image_weights", "region_weights",
    "uniform_weight_table",
]
