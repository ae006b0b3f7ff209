"""Split-conformal calibration over (prediction, difficulty scale) pairs.

Nonconformity is the absolute residual divided by a per-sample scale plus
a small epsilon. The calibration quantile uses the finite-sample index
k = ceil((1 - alpha) * (n_cal + 1)) over the sorted scores and becomes
+inf when k exceeds n_cal, in which case every interval is the whole line.
A constant scale of one recovers the classical unnormalized baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CalibrationError, DimensionError
from .nn import Array
from . import serialize

# Slack for the quantile index: binary float products like 0.82 * 500 land a
# hair above the exact integer and must not bump the order statistic.
_CEIL_SLACK = 1e-9


class ScaleKind(str, Enum):
    EPISTEMIC = "epistemic"
    ALEATORIC = "aleatoric"
    CONSTANT = "constant"


def _as_vector(x, name: str) -> Array:
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise DimensionError(f"{name} must be nonempty")
    return v


def nonconformity_scores(y: Array, mu_hat: Array, scale: Array, epsilon: float) -> Array:
    """Scaled absolute residuals |y - mu| / (scale + epsilon)."""
    yv = _as_vector(y, "y")
    mv = _as_vector(mu_hat, "mu_hat")
    sv = _as_vector(scale, "scale")
    if not (yv.shape == mv.shape == sv.shape):
        raise DimensionError("y, mu_hat, scale must have equal lengths")
    if epsilon < 0:
        raise CalibrationError("epsilon must be nonnegative")
    if np.any(sv < 0):
        raise CalibrationError("scales must be nonnegative")
    denom = sv + epsilon
    if np.any(denom == 0.0):
        raise CalibrationError("scale + epsilon must be positive everywhere")
    return np.abs(yv - mv) / denom


def _rank(alpha: float, n: int) -> int:
    """The finite-sample order statistic k = ceil((1 - alpha) * (n + 1))."""
    return math.ceil((1.0 - alpha) * (n + 1) - _CEIL_SLACK)


def conformal_quantile(scores: Array, alpha: float) -> float:
    """Finite-sample calibration quantile of the scores.

    Returns the k-th smallest score with k = ceil((1 - alpha) * (n + 1)),
    or +inf when k > n.
    """
    s = _as_vector(scores, "scores")
    if not (0.0 < alpha < 1.0):
        raise CalibrationError("alpha must lie strictly between 0 and 1")
    if not np.all(np.isfinite(s)):
        raise CalibrationError("scores must be finite")
    if np.any(s < 0):
        raise CalibrationError("scores must be nonnegative")
    n = s.size
    k = _rank(alpha, n)
    if k > n:
        return math.inf
    return float(np.partition(s, k - 1)[k - 1])


@dataclass(frozen=True)
class CalibrationResult:
    """Everything needed to build intervals later: the scale family that was
    calibrated, the miscoverage level, and the resulting quantile."""

    kind: ScaleKind
    alpha: float
    epsilon: float
    n_cal: int
    q_hat: float

    def __post_init__(self):
        object.__setattr__(self, "kind", ScaleKind(self.kind))
        if not (0.0 < self.alpha < 1.0):
            raise CalibrationError("alpha must lie strictly between 0 and 1")
        if not (0.0 <= self.epsilon < math.inf):
            raise CalibrationError("epsilon must be nonnegative and finite")
        if self.n_cal < 1:
            raise CalibrationError("n_cal must be >= 1")
        if math.isnan(self.q_hat) or self.q_hat < 0:
            raise CalibrationError("q_hat must be nonnegative")
        if math.isinf(self.q_hat) != (_rank(self.alpha, self.n_cal) > self.n_cal):
            raise CalibrationError("q_hat finiteness is inconsistent with alpha and n_cal")

    def save(self, path) -> None:
        serialize.save_checkpoint(path, self.kind.value, {
            "alpha": self.alpha, "epsilon": self.epsilon, "n_cal": self.n_cal, "q_hat": self.q_hat})

    @classmethod
    def load(cls, path, kind: ScaleKind | str) -> "CalibrationResult":
        """Read a file written by :meth:`save`, refusing any other format
        version or scale family."""
        kind = ScaleKind(kind)
        d = serialize.load_checkpoint(path, kind.value)
        return cls(kind=kind, alpha=float(d["alpha"]), epsilon=float(d["epsilon"]),
                   n_cal=int(d["n_cal"]), q_hat=serialize.from_jsonable_float(d["q_hat"]))


def calibrate(y_cal: Array, mu_cal: Array, scale_cal: Array, kind: ScaleKind | str,
              alpha: float, epsilon: float) -> CalibrationResult:
    """Split-conformal calibration on held-out residuals, each divided by
    its scale plus epsilon; the constant family's scale is a vector of ones."""
    kind = ScaleKind(kind)
    yv = _as_vector(y_cal, "y_cal")
    scores = nonconformity_scores(yv, mu_cal, scale_cal, epsilon)
    q_hat = conformal_quantile(scores, alpha)
    return CalibrationResult(kind=kind, alpha=alpha, epsilon=epsilon,
                             n_cal=yv.size, q_hat=q_hat)


@dataclass
class PredictionIntervals:
    """Per-sample intervals center +/- half.

    Widths derive from ``half``, so a constant-scale family has
    bitwise-identical widths even when the rounded bounds differ in the
    last ulp across centers.
    """

    center: Array
    half: Array

    def __post_init__(self):
        self.center = _as_vector(self.center, "center")
        self.half = _as_vector(self.half, "half")
        if self.half.shape != self.center.shape:
            raise DimensionError("half must have one entry per interval")
        # an infinite center would make center -/+ an infinite half NaN
        if not np.all(np.isfinite(self.center)):
            raise DimensionError("interval centers must be finite")
        if np.any(np.isnan(self.half)) or np.any(self.half < 0):
            raise DimensionError("half-widths must be nonnegative")

    @property
    def n(self) -> int:
        return self.center.size

    @property
    def lower(self) -> Array:
        return self.center - self.half

    @property
    def upper(self) -> Array:
        return self.center + self.half

    @property
    def width(self) -> Array:
        return 2.0 * self.half

    def covers(self, y: Array) -> Array:
        """Boolean per-sample coverage; endpoints count as covered."""
        yv = _as_vector(y, "y")
        if yv.shape != self.center.shape:
            raise DimensionError("y must have one entry per interval")
        return (self.lower <= yv) & (yv <= self.upper)


def build_intervals(center: Array, factor: float, scale: Array) -> PredictionIntervals:
    """Intervals center +/- factor * scale.

    Every method's interval has this shape: the factor is a conformal q_hat
    or a Gaussian z. An infinite factor yields the whole real line for every
    sample, zero scales included.
    """
    c = _as_vector(center, "center")
    s = _as_vector(scale, "scale")
    if s.shape != c.shape:
        raise DimensionError("center and scale must have equal lengths")
    if not (factor >= 0.0 and np.all(s >= 0.0)):
        raise CalibrationError("the factor and the scales must be nonnegative")
    # inf * 0 would be NaN where a scale is zero
    half = np.full_like(c, np.inf) if math.isinf(factor) else factor * s
    return PredictionIntervals(center=c, half=half)


def gaussian_z(alpha: float) -> float:
    """z_{1-alpha/2}, the Gaussian interval's factor; +inf where 1 - alpha/2 rounds to 1."""
    if not (0.0 < alpha < 1.0):
        raise CalibrationError("alpha must lie strictly between 0 and 1")
    from statistics import NormalDist  # here, so that importing the package skips it

    p = 1.0 - alpha / 2.0
    return math.inf if p == 1.0 else NormalDist().inv_cdf(p)
