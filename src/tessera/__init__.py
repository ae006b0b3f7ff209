"""Mixture-of-experts regression with conformally calibrated intervals.

The pipeline: train a softmax-gated mixture density model, read two
uncertainty signals off its forward pass (expert disagreement and
gate-weighted data noise), then size per-sample prediction intervals by
split-conformal calibration of scale-normalized residuals. Baselines
(classical conformal, raw z-intervals, MC dropout) and the evaluation
suite live in the submodules; the top level re-exports only the names the
README's Python API example uses.
"""

from .conformal import build_intervals, calibrate
from .datagen import DataSpec, SplitSpec, gen_heteroscedastic, split_dataset
from .metrics import picp
from .moe import ModelSpec, MoeModel, TrainSpec, train_moe

__version__ = "0.1.0"
