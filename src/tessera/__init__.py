"""Mixture-of-experts regression with conformally calibrated intervals.

The pipeline: train a softmax-gated mixture density model, read two
uncertainty signals off its forward pass (expert disagreement and
gate-weighted data noise), then size per-sample prediction intervals by
split-conformal calibration of scale-normalized residuals. Baselines
(classical conformal, raw z-intervals, MC dropout) and the evaluation
suite live alongside.
"""

from .conformal import (
    CalibrationResult,
    PredictionIntervals,
    ScaleKind,
    build_intervals,
    calibrate,
    conformal_quantile,
    nonconformity_scores,
)
from .datagen import (
    Dataset,
    gen_clustered_shift,
    gen_heteroscedastic,
    load_csv,
    save_csv,
    split_dataset,
)
from .errors import (
    CalibrationError,
    ConfigError,
    CsvFormatError,
    DimensionError,
    MetricError,
    ModelError,
    TesseraError,
    TrainingError,
)
from .experiment import ExperimentConfig, build_report, load_config, run_experiment
from .mc_dropout import DropoutMlp, McDropoutSpec, mc_intervals, mc_predict, train_dropout
from .metrics import (
    CwcConfig,
    MetricsReport,
    cwc,
    disentangle_stats,
    groupwise_picp,
    mpiw_nmpiw,
    picp,
    point_metrics,
    report_nll,
    sparsification,
    ssc,
    ssc_detail,
)
from .moe import (
    MixturePrediction,
    MoeModel,
    TrainHistory,
    TrainSpec,
    mixture_log_pdf,
    mixture_nll,
    mixture_nll_loss,
    train_moe,
)
from .nn import (
    AdamState,
    Mlp,
    adam_step,
    make_rng,
    softmax,
    softplus,
)

__version__ = "0.1.0"
