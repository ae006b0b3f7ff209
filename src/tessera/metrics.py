"""Interval and point metrics: validity (coverage), efficiency (width),
adaptivity (sparsification, size-stratified and per-group coverage), point
accuracy, and the statistics used to compare two uncertainty signals.

All reductions run in a fixed order, so repeated calls on the same arrays
return bit-identical results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conformal import PredictionIntervals
from .errors import MetricError
from .moe import MixturePrediction, mixture_log_pdf
from .nn import Array

DEFAULT_SPARSIFICATION_GRID = tuple(np.arange(20) * 0.05)  # 0.00, 0.05, ..., 0.95

# Indexing slack: grid values like 0.3 are stored as binary floats a hair
# below the exact decimal, and floor(f * n) must not lose a whole point.
_FLOOR_SLACK = 1e-9


def _vector(x, name: str) -> Array:
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise MetricError(f"{name} must be nonempty")
    return v


def _paired(intervals: PredictionIntervals, y, name: str = "y") -> Array:
    yv = _vector(y, name)
    if yv.size != intervals.n:
        raise MetricError(f"{name} must have one entry per interval")
    return yv


def picp(intervals: PredictionIntervals, y) -> float:
    """Fraction of labels inside their interval; endpoints count."""
    yv = _paired(intervals, y)
    return float(np.mean(intervals.covers(yv)))


def mpiw_nmpiw(intervals: PredictionIntervals, y) -> tuple[float, float]:
    """Mean interval width, raw and normalized by the test label range.

    Infinite intervals make both values +inf so they stay visible instead
    of silently averaging.
    """
    yv = _paired(intervals, y)
    lo, hi = float(np.min(yv)), float(np.max(yv))
    if not hi > lo:
        raise MetricError("label range is degenerate; widths cannot be normalized")
    widths = intervals.width
    if not np.all(np.isfinite(widths)):
        return np.inf, np.inf
    mpiw = float(np.mean(widths))
    return mpiw, mpiw / (hi - lo)


@dataclass(frozen=True)
class CwcConfig:
    eta: float = 50.0
    mu: float = 0.9

    def __post_init__(self):
        if not (self.eta > 0):
            raise MetricError("eta must be positive")
        if not (0.0 < self.mu < 1.0):
            raise MetricError("mu must lie strictly between 0 and 1")


def cwc(picp_value: float, nmpiw_value: float, config: CwcConfig | None = None) -> float:
    """Coverage-width criterion: width scaled up when coverage misses mu.

    The penalty gate closes exactly at picp >= mu; an infinite width passes
    through as +inf.
    """
    config = config or CwcConfig()
    if not (0.0 <= picp_value <= 1.0):
        raise MetricError("picp must lie in [0, 1]")
    if np.isnan(nmpiw_value) or nmpiw_value < 0:
        raise MetricError("nmpiw must be nonnegative")
    gamma = 0.0 if picp_value >= config.mu else 1.0
    return float(nmpiw_value * (1.0 + gamma * np.exp(-config.eta * (picp_value - config.mu))))


@dataclass
class SparsificationCurve:
    """Remaining-set RMSE after discarding the most uncertain fractions,
    for the model's ordering and for the oracle ordering by true error."""

    fractions: Array
    model_rmse: Array
    oracle_rmse: Array

    @property
    def ause(self) -> float:
        """Area between the curves (trapezoid over the fraction grid)."""
        gap = self.model_rmse - self.oracle_rmse
        return float(max(np.trapezoid(gap, self.fractions), 0.0))


def check_grid(grid: Sequence[float]) -> Array:
    """The sparsification fraction grid as an array; it must rise strictly
    from 0 and stay below 1."""
    g = np.asarray(grid, dtype=np.float64)
    if g.size == 0 or not np.all(np.diff(g) > 0):
        raise MetricError("grid must be strictly increasing")
    if g[0] != 0.0 or g[-1] >= 1.0:
        raise MetricError("grid must start at 0 and stay below 1")
    return g


def sparsification(uncertainty: Array, errors: Array,
                   grid: Sequence[float] | None = None) -> SparsificationCurve:
    """Sparsification curves for an uncertainty signal.

    At each grid fraction f, the floor(f * n) samples with the largest
    uncertainty are dropped (stable ties) and the RMSE of the remainder is
    recorded; the oracle instead drops by true absolute error.
    """
    u = _vector(uncertainty, "uncertainty")
    e = np.abs(_vector(errors, "errors"))
    if u.size != e.size:
        raise MetricError("uncertainty and errors must have equal lengths")
    g = check_grid(DEFAULT_SPARSIFICATION_GRID if grid is None else grid)
    n = u.size

    def curve(keys: Array) -> Array:
        order = np.argsort(-keys, kind="stable")  # most uncertain first
        sq = e[order] ** 2
        suffix = np.cumsum(sq[::-1])[::-1]  # suffix[i] = sum of sq[i:]
        out = np.empty(g.size)
        for i, f in enumerate(g):
            drop = int(np.floor(f * n + _FLOOR_SLACK))
            out[i] = np.sqrt(suffix[drop] / (n - drop))
        return out

    return SparsificationCurve(fractions=g, model_rmse=curve(u), oracle_rmse=curve(e))


@dataclass(frozen=True)
class SscBin:
    n: int
    mean_width: float
    coverage: float


def check_ssc_bins(n_bins: int) -> None:
    if n_bins < 2:
        raise MetricError("need at least two bins")


def ssc_detail(intervals: PredictionIntervals, y, n_bins: int) -> list[SscBin]:
    """Size-stratified coverage: equal-count bins of ascending width.

    When n is not divisible by n_bins the spare samples go to the last
    bins. Refuses constant or infinite widths, for which the stratification
    carries no information.
    """
    yv = _paired(intervals, y)
    check_ssc_bins(n_bins)
    n = intervals.n
    if n < n_bins:
        raise MetricError("need at least one sample per bin")
    widths = intervals.width
    if not np.all(np.isfinite(widths)):
        raise MetricError("interval widths are infinite; size-stratified "
                          "coverage is undefined")
    if float(np.min(widths)) == float(np.max(widths)):
        raise MetricError("interval widths are constant; size-stratified "
                          "coverage is uninformative for constant-width intervals")
    order = np.argsort(widths, kind="stable")
    base, rem = divmod(n, n_bins)
    sizes = [base] * (n_bins - rem) + [base + 1] * rem
    covered = intervals.covers(yv)
    bins = []
    pos = 0
    for size in sizes:
        idx = order[pos:pos + size]
        pos += size
        bins.append(SscBin(n=size,
                           mean_width=float(np.mean(widths[idx])),
                           coverage=float(np.mean(covered[idx]))))
    return bins


def ssc(intervals: PredictionIntervals, y, n_bins: int) -> list[float]:
    """Per-bin coverage of ``ssc_detail``."""
    return [b.coverage for b in ssc_detail(intervals, y, n_bins)]


@dataclass(frozen=True)
class GroupCoverageEntry:
    group: str
    n: int
    picp: float


@dataclass
class GroupCoverage:
    """Per-group coverage table, most frequent group first."""

    entries: list[GroupCoverageEntry] = field(default_factory=list)
    min_n: int = 10
    top_k: int = 15

    @property
    def most_frequent(self) -> list[GroupCoverageEntry]:
        return self.entries[:self.top_k]

    @property
    def least_frequent(self) -> list[GroupCoverageEntry]:
        tail = self.entries[-self.top_k:] if self.entries else []
        return list(reversed(tail))


def check_group_limits(min_n: int, top_k: int) -> None:
    for name, value in (("min_n", min_n), ("top_k", top_k)):
        if value < 1:
            raise MetricError(f"{name} must be >= 1")


def groupwise_picp(intervals: PredictionIntervals, y, groups,
                   min_n: int = 10, top_k: int = 15) -> GroupCoverage:
    """Coverage per group label, skipping groups with fewer than min_n
    samples. Entries are ordered by descending size, ties by name."""
    yv = _paired(intervals, y)
    if groups is None:
        raise MetricError("group labels are required")
    garr = np.asarray(groups)
    if garr.shape != yv.shape:
        raise MetricError("groups must have one label per interval")
    check_group_limits(min_n, top_k)
    covered = intervals.covers(yv)
    names, counts = np.unique(garr, return_counts=True)
    order = np.lexsort((names, -counts))
    entries = []
    for i in order:
        if counts[i] < min_n:
            continue
        mask = garr == names[i]
        entries.append(GroupCoverageEntry(group=str(names[i]), n=int(counts[i]),
                                          picp=float(np.mean(covered[mask]))))
    if not entries:
        warnings.warn("no group reaches min_n samples; coverage table is empty",
                      stacklevel=2)
    return GroupCoverage(entries=entries, min_n=min_n, top_k=top_k)


@dataclass(frozen=True)
class PointMetrics:
    rmse: float
    mae: float
    pearson: float
    spearman: float


def point_metrics(preds: Array, y) -> PointMetrics:
    """RMSE, MAE, and both correlations of predictions against labels.

    A constant input makes the correlations undefined; they come back as
    NaN rather than raising.
    """
    p = _vector(preds, "preds")
    yv = _vector(y, "y")
    if p.size != yv.size:
        raise MetricError("preds and y must have equal lengths")
    if p.size < 2:
        raise MetricError("need at least two samples")
    resid = p - yv
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    mae = float(np.mean(np.abs(resid)))
    if np.std(p) == 0.0 or np.std(yv) == 0.0:
        return PointMetrics(rmse, mae, np.nan, np.nan)
    from scipy import stats  # ~1 s to import, so only the stages that need it pay
    pearson = float(stats.pearsonr(p, yv).statistic)
    spearman = float(stats.spearmanr(p, yv).statistic)
    return PointMetrics(rmse, mae, pearson, spearman)


@dataclass(frozen=True)
class DisentangleStats:
    pearson: float
    spearman: float
    kendall: float
    welch_t_p: float
    mann_whitney_p: float


def disentangle_stats(sig_a: Array, sig_e: Array) -> DisentangleStats:
    """How related two uncertainty signals are.

    Correlations (Pearson, Spearman, Kendall tau-b) quantify association;
    Welch's t and the normal-approximation Mann-Whitney U compare the two
    samples' locations. Constant inputs make the correlations NaN.
    """
    a = _vector(sig_a, "sig_a")
    e = _vector(sig_e, "sig_e")
    if a.size != e.size:
        raise MetricError("signals must have equal lengths")
    if a.size < 3:
        raise MetricError("need at least three samples")
    from scipy import stats  # see point_metrics
    if np.std(a) == 0.0 or np.std(e) == 0.0:
        pearson = spearman = kendall = np.nan
    else:
        pearson = float(stats.pearsonr(a, e).statistic)
        spearman = float(stats.spearmanr(a, e).statistic)
        kendall = float(stats.kendalltau(a, e).statistic)
    welch = float(stats.ttest_ind(a, e, equal_var=False).pvalue)
    mwu = float(stats.mannwhitneyu(a, e, method="asymptotic").pvalue)
    return DisentangleStats(pearson=pearson, spearman=spearman, kendall=kendall,
                            welch_t_p=welch, mann_whitney_p=mwu)


def report_nll(pred: MixturePrediction, y) -> float:
    """Mean negative log likelihood of labels under the mixture."""
    yv = _vector(y, "y")
    if yv.size != pred.n:
        raise MetricError("y must have one entry per prediction row")
    return float(-np.mean(mixture_log_pdf(pred, yv)))


@dataclass
class MetricsReport:
    """One method's full evaluation on a test split."""

    n_test: int
    picp: float
    mpiw: float
    nmpiw: float
    cwc: dict[str, float]
    ause: float
    ssc: dict[str, list[float]] | None
    ssc_note: str | None
    rmse: float
    mae: float
    pearson: float
    spearman: float
    nll: float

    def to_dict(self) -> dict:
        return {
            "n_test": self.n_test,
            "picp": self.picp,
            "mpiw": self.mpiw,
            "nmpiw": self.nmpiw,
            "cwc": dict(self.cwc),
            "ause": self.ause,
            "ssc": None if self.ssc is None else {k: list(v) for k, v in self.ssc.items()},
            "ssc_note": self.ssc_note,
            "rmse": self.rmse,
            "mae": self.mae,
            "pearson": self.pearson,
            "spearman": self.spearman,
            "nll": self.nll,
        }
