"""Interval and point metrics: validity (coverage), efficiency (width),
adaptivity (sparsification, size-stratified and per-group coverage), point
accuracy, and the statistics used to compare two uncertainty signals.

All reductions run in a fixed order, so repeated calls on the same arrays
return bit-identical results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
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


def check_cwc(eta: float, mu: float) -> None:
    """The ranges :func:`cwc` accepts: eta > 0 and 0 < mu < 1."""
    if not (eta > 0):
        raise MetricError("eta must be positive")
    if not (0.0 < mu < 1.0):
        raise MetricError("mu must lie strictly between 0 and 1")


def cwc(picp_value: float, nmpiw_value: float, eta: float, mu: float) -> float:
    """Coverage-width criterion: width scaled up when coverage misses mu.

    The penalty gate closes exactly at picp >= mu; an infinite width passes
    through as +inf, and so does a positive width whose penalty factor
    exp(eta (mu - picp)) passes the float range. A zero width stays 0.
    """
    check_cwc(eta, mu)
    if not (0.0 <= picp_value <= 1.0):
        raise MetricError("picp must lie in [0, 1]")
    if np.isnan(nmpiw_value) or nmpiw_value < 0:
        raise MetricError("nmpiw must be nonnegative")
    if picp_value >= mu or nmpiw_value == 0.0:
        return float(nmpiw_value)
    with np.errstate(over="ignore"):  # e^710 is inf, and so is the criterion
        return float(nmpiw_value * (1.0 + np.exp(-eta * (picp_value - mu))))


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


def _remaining_rmse(keys: Array, e: Array, g: Array) -> Array:
    """RMSE of the absolute errors ``e`` left at each grid fraction f once
    the floor(f * n) samples with the largest keys are dropped (stable ties)."""
    n = e.size
    order = np.argsort(-keys, kind="stable")  # most uncertain first
    sq = e[order] ** 2
    suffix = np.cumsum(sq[::-1])[::-1]  # suffix[i] = sum of sq[i:]
    out = np.empty(g.size)
    for i, f in enumerate(g):
        # the slack must not round a fraction below 1 up to every sample
        drop = min(int(np.floor(f * n + _FLOOR_SLACK)), n - 1)
        out[i] = np.sqrt(suffix[drop] / (n - drop))
    return out


def oracle_rmse(errors: Array, grid: Sequence[float] | None = None) -> Array:
    """The oracle curve of :func:`sparsification`, which drops by true
    absolute error; it depends on the errors and the grid alone."""
    e = np.abs(_vector(errors, "errors"))
    return _remaining_rmse(e, e, check_grid(DEFAULT_SPARSIFICATION_GRID if grid is None else grid))


def sparsification(uncertainty: Array, errors: Array, grid: Sequence[float] | None = None,
                   oracle: Array | None = None) -> SparsificationCurve:
    """Sparsification curves for an uncertainty signal.

    At each grid fraction f, the floor(f * n) samples with the largest
    uncertainty are dropped (stable ties) and the RMSE of the remainder is
    recorded; the oracle instead drops by true absolute error. Signals
    scored against the same errors and grid can share one ``oracle``, the
    :func:`oracle_rmse` of those errors and that grid, in place of
    computing it again.
    """
    u = _vector(uncertainty, "uncertainty")
    e = np.abs(_vector(errors, "errors"))
    if u.size != e.size:
        raise MetricError("uncertainty and errors must have equal lengths")
    g = check_grid(DEFAULT_SPARSIFICATION_GRID if grid is None else grid)
    if oracle is None:
        oracle = _remaining_rmse(e, e, g)
    elif np.shape(oracle) != g.shape:
        raise MetricError("oracle must hold one RMSE per grid fraction")
    return SparsificationCurve(fractions=g, model_rmse=_remaining_rmse(u, e, g),
                               oracle_rmse=oracle)


@dataclass(frozen=True)
class SscBin:
    n: int
    mean_width: float
    coverage: float


def check_ssc_bins(n_bins: int) -> None:
    if n_bins < 2:
        raise MetricError("need at least two bins")


def ssc_detail(intervals: PredictionIntervals, y,
               bin_counts: Sequence[int]) -> dict[int, list[SscBin]]:
    """Size-stratified coverage at each bin count J of ``bin_counts``: J
    equal-count bins of ascending width, all cut from one stable sort of
    the widths and one coverage vector.

    When n is not divisible by J the spare samples go to the last bins.
    Refuses constant or infinite widths, for which the stratification
    carries no information. The bin counts are taken in order, and the
    first that cannot be binned raises what a call on it alone would.
    """
    yv = _paired(intervals, y)
    n = intervals.n
    widths = intervals.width
    out: dict[int, list[SscBin]] = {}
    for n_bins in bin_counts:
        check_ssc_bins(n_bins)
        if n < n_bins:
            raise MetricError("need at least one sample per bin")
        if not out:  # the first bin count: check the widths, then sort them once
            if not np.all(np.isfinite(widths)):
                raise MetricError("interval widths are infinite; size-stratified "
                                  "coverage is undefined")
            if float(np.min(widths)) == float(np.max(widths)):
                raise MetricError("interval widths are constant; size-stratified "
                                  "coverage is uninformative for constant-width intervals")
            order = np.argsort(widths, kind="stable")
            sorted_widths, sorted_covered = widths[order], intervals.covers(yv)[order]
        base, rem = divmod(n, n_bins)
        bins = []
        pos = 0
        for size in [base] * (n_bins - rem) + [base + 1] * rem:
            rows = slice(pos, pos + size)
            pos += size
            bins.append(SscBin(n=size, mean_width=float(np.mean(sorted_widths[rows])),
                               coverage=float(np.mean(sorted_covered[rows]))))
        out[n_bins] = bins
    return out


@dataclass(frozen=True)
class GroupCoverageEntry:
    group: str
    n: int
    picp: float


def check_group_min_n(min_n: int) -> None:
    if min_n < 1:
        raise MetricError("min_n must be >= 1")


@dataclass(frozen=True)
class GroupPartition:
    """Group labels split once, for any number of coverage tables: the
    distinct names by descending size, ties by name, each one's size, and
    each row's index into them."""

    names: Array
    counts: Array
    index: Array


def partition_groups(groups) -> GroupPartition:
    """The partition of a label array that :func:`groupwise_picp` reads."""
    if groups is None:
        raise MetricError("group labels are required")
    names, index, counts = np.unique(np.asarray(groups), return_inverse=True,
                                     return_counts=True)
    order = np.lexsort((names, -counts))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return GroupPartition(names=names[order], counts=counts[order], index=rank[index])


def groupwise_picp(intervals: PredictionIntervals, y, groups: GroupPartition,
                   min_n: int) -> list[GroupCoverageEntry]:
    """Coverage per group of ``groups``, skipping groups with fewer than
    min_n samples. Entries are ordered by descending size, ties by name.

    A group's coverage is its count of covered rows over its size, the
    value ``np.mean`` gives over its rows' 0/1 coverage.
    """
    yv = _paired(intervals, y)
    if groups.index.shape != yv.shape:
        raise MetricError("groups must have one label per interval")
    check_group_min_n(min_n)
    hits = np.bincount(groups.index[intervals.covers(yv)], minlength=groups.names.size)
    entries = [GroupCoverageEntry(group=str(name), n=int(count), picp=float(hit / count))
               for name, count, hit in zip(groups.names, groups.counts, hits)
               if count >= min_n]
    if not entries:
        warnings.warn("no group reaches min_n samples; coverage table is empty",
                      stacklevel=2)
    return entries


def _unit(v: Array) -> Array:
    """v centred and divided by its norm. The norm is taken of v scaled by
    its largest magnitude, so the squares cannot overflow or underflow."""
    vm = v - np.mean(v)
    vmax = np.max(np.abs(vm))
    return vm / (vmax * np.sqrt(np.sum((vm / vmax) ** 2)))


def _pearson(x: Array, y: Array) -> float:
    """Pearson's r of two non-constant samples, in the float order of
    scipy 1.17's ``pearsonr``."""
    return float(np.clip(np.dot(_unit(x), _unit(y)), -1.0, 1.0))


def _runs(x: Array) -> tuple[Array, Array, Array]:
    """An argsort of x, and the start and length of each run of equal
    values in sorted order. Callers give every member of a run the same
    rank, so the order within a run does not matter."""
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    return order, starts, np.diff(np.r_[starts, x.size])


def _ranks(x: Array) -> tuple[Array, Array]:
    """1-based ranks, ties sharing the mean of their positions, and the
    length of each run of ties."""
    order, starts, counts = _runs(x)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks, counts


def _dense_ranks(x: Array) -> tuple[Array, Array]:
    """0-based ranks of the distinct values, and the length of each run of ties."""
    order, _, counts = _runs(x)
    dense = np.empty(x.size, dtype=np.int64)
    dense[order] = np.repeat(np.arange(counts.size), counts)
    return dense, counts


def _spearman(x: Array, y: Array) -> float:
    return _pearson(_ranks(x)[0], _ranks(y)[0])


def _tied_pairs(counts: Array) -> int:
    return int(np.sum(counts * (counts - 1) // 2))


def _inversions(v: Array) -> int:
    """Pairs i < j with v[i] > v[j], for integers 0 <= v < v.size, by a
    bottom-up merge sort: at width w, each element of an odd w-block counts
    the elements of the even block before it that exceed it. Keys offset by
    block * v.size keep the array globally sorted, so one searchsorted per
    level counts every block at once; O(n log^2 n), no pair matrix."""
    n = v.size
    pos = np.arange(n)
    s = v.astype(np.int64)
    total = 0
    w = 1
    while w < n:
        block = pos // w
        keys = block * n + s  # sorted: s is sorted within each w-block
        right = block % 2 == 1
        left_block = block[right] - 1
        not_above = np.searchsorted(keys, left_block * n + s[right], side="right") - left_block * w
        total += int(np.sum(w - not_above))
        block = pos // (2 * w)
        s = np.sort(block * n + s, kind="stable") - block * n  # merges sorted runs
        w *= 2
    return total


def _kendall_tau_b(x: Array, y: Array) -> float:
    """Kendall's tau-b (Knight 1966): discordant pairs are the inversions
    of y's ranks once the pairs are sorted by (x, y). The tie counts and
    the final float order follow scipy 1.17's ``kendalltau``."""
    n = x.size
    xd, xcounts = _dense_ranks(x)
    yd, ycounts = _dense_ranks(y)
    pairs = np.sort(xd * ycounts.size + yd)
    joint = np.diff(np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1], True]))
    tot = n * (n - 1) // 2
    xtie, ytie = _tied_pairs(xcounts), _tied_pairs(ycounts)
    if xtie == tot or ytie == tot:
        return np.nan
    con_minus_dis = (tot - xtie - ytie + _tied_pairs(joint)
                     - 2 * _inversions(pairs % ycounts.size))
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))


# Stirling series of lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2):
# B_2k / (2k (2k - 1) z^(2k - 1)), k = 1..7, as a polynomial in 1/z^2 (highest
# degree first). The first omitted term is below 1e-16 at z >= 10.
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_STIRLING_MIN = 10.0
_CF_EPS = 1e-16
_CF_MAX_TERMS = 1000


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, coefficients highest degree first (Cephes' polevl)."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _stirling_tail(z: float) -> float:
    return _polevl(1.0 / (z * z), _STIRLING) / z


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2). At large a, lgamma(a) - lgamma(a + 1/2) cancels to
    O(log a) from terms of size a log a, so it is rewritten with the
    Stirling tails and log1p, in which no large terms cancel."""
    if a < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    diff = (0.5 - (a - 0.5) * math.log1p(0.5 / a) - 0.5 * math.log(a + 0.5)
            + _stirling_tail(a) - _stirling_tail(a + 0.5))
    return math.lgamma(0.5) + diff


def _beta_cf(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)) by the continued fraction of
    DiDonato & Morris (1992, BFRAC), for lam = (a + b) y - b >= 0; y = 1 - x
    and lam come in formed by the caller without cancellation."""
    c, c0, c1, yp1 = 1.0 + lam, b / a, 1.0 + 1.0 / a, y + 1.0
    n, p, s = 0.0, 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for _ in range(_CF_MAX_TERMS):
        n += 1.0
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = (p * (p + c0) * e * e) * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _CF_EPS * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0  # rescale
    raise MetricError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _student_t_p(t: float, df: float) -> float:
    """Two-sided p of Student's t: I_x(df/2, 1/2) at x = df / (df + t^2),
    with the complement y = t^2 / (df + t^2) formed directly, not as 1 - x."""
    if math.isnan(t) or math.isnan(df):
        return np.nan
    tt = t * t
    if math.isinf(tt):  # below 1e-300 for df >= 2
        return 0.0
    a = 0.5 * df
    x, y = df / (df + tt), tt / (df + tt)
    if y == 0.0:  # |t| < 1e-150: p is 1 to double precision
        return 1.0
    # log(x^a y^(1/2) / B(a, 1/2)), with a log x as -a log1p(t^2 / df): a
    # one-ulp error in x itself would cost a relative a * 2^-53 in p
    front = math.exp(-a * math.log1p(tt / df) + 0.5 * math.log(y) - _log_beta_half(a))
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        p = front * _beta_cf(a, 0.5, x, y, lam)
    else:  # I_x(a, 1/2) = 1 - I_y(1/2, a)
        p = 1.0 - front * _beta_cf(0.5, a, y, x, -lam)
    return min(p, 1.0)


def _welch_p(a: Array, e: Array) -> float:
    """Two-sided p of Welch's unequal-variance t-test."""
    n1, n2 = a.size, e.size
    vn1, vn2 = float(np.var(a, ddof=1)) / n1, float(np.var(e, ddof=1)) / n2
    d = float(np.mean(a) - np.mean(e))
    s = vn1 + vn2
    if s == 0.0:  # both samples constant: t is 0/0 or +-inf
        return np.nan if d == 0.0 else 0.0
    # Welch-Satterthwaite df, with the variances scaled to sum to 1 so the
    # squares neither overflow nor underflow
    df = 1.0 / ((vn1 / s) ** 2 / (n1 - 1) + (vn2 / s) ** 2 / (n2 - 1))
    return _student_t_p(d / math.sqrt(s), df)


def _mann_whitney_p(a: Array, e: Array) -> float:
    """Two-sided asymptotic p of the Mann-Whitney U test: average ranks,
    tie-corrected variance and a 0.5 continuity correction, as scipy 1.17's
    ``mannwhitneyu(method="asymptotic")``."""
    both = np.concatenate([a, e])
    if np.isnan(both).any():
        return np.nan
    ranks, counts = _ranks(both)
    n1, n2 = a.size, e.size
    n = n1 + n2
    u1 = float(np.sum(ranks[:n1])) - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    c = counts.astype(np.float64)
    tie_term = float(np.sum(c ** 3 - c))
    sd = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    num = u - n1 * n2 / 2 - 0.5
    z = num / sd if sd > 0.0 else math.copysign(math.inf, num)  # sd is 0 when all tie
    return min(math.erfc(z * math.sqrt(0.5)), 1.0)


@dataclass(frozen=True)
class PointMetrics:
    rmse: float
    mae: float
    pearson: float
    spearman: float


def point_metrics(preds: Array, y) -> PointMetrics:
    """RMSE, MAE, and both correlations of predictions against labels.

    A constant input makes the correlations undefined; they come back as
    NaN rather than raising, as they do for an input that holds a NaN.
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
    if not (np.std(p) > 0.0 and np.std(yv) > 0.0):
        return PointMetrics(rmse, mae, np.nan, np.nan)
    return PointMetrics(rmse, mae, _pearson(p, yv), _spearman(p, yv))


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
    samples' locations. Constant inputs make the correlations NaN; an input
    that holds a NaN makes every statistic NaN.
    """
    a = _vector(sig_a, "sig_a")
    e = _vector(sig_e, "sig_e")
    if a.size != e.size:
        raise MetricError("signals must have equal lengths")
    if a.size < 3:
        raise MetricError("need at least three samples")
    if not (np.std(a) > 0.0 and np.std(e) > 0.0):
        pearson = spearman = kendall = np.nan
    else:
        pearson, spearman, kendall = _pearson(a, e), _spearman(a, e), _kendall_tau_b(a, e)
    return DisentangleStats(pearson=pearson, spearman=spearman, kendall=kendall,
                            welch_t_p=_welch_p(a, e), mann_whitney_p=_mann_whitney_p(a, e))


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
        return asdict(self)
