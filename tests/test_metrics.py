import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from conftest import ssc
from tessera.conformal import PredictionIntervals
from tessera.errors import MetricError
from tessera.metrics import (
    MetricsReport,
    cwc,
    disentangle_stats,
    groupwise_picp,
    mpiw_nmpiw,
    oracle_rmse,
    partition_groups,
    picp,
    point_metrics,
    report_nll,
    sparsification,
    ssc_detail,
    _student_t_p,
)
from tessera.moe import MixturePrediction
from tessera.nn import make_rng
from tessera import serialize


def _bits(a):
    """The float64 bit patterns of ``a``, as Python ints, so -0.0 and NaNs compare exactly."""
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def intervals_from_bounds(lower, upper):
    """[lower, upper] as center +/- half. The bounds used here are small
    integers or infinite, so the derived bounds equal them exactly."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    center = np.zeros_like(lower)
    finite = np.isfinite(lower) & np.isfinite(upper)
    center[finite] = (lower[finite] + upper[finite]) / 2.0
    iv = PredictionIntervals(center=center, half=(upper - lower) / 2.0)
    assert np.array_equal(iv.lower, lower) and np.array_equal(iv.upper, upper)
    return iv


# ----------------------------------------------------------------- picp

def test_picp_hand_case():
    iv = intervals_from_bounds([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
    assert picp(iv, [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)


def test_picp_counts_endpoints():
    iv = intervals_from_bounds([-1.0], [1.0])
    assert picp(iv, [1.0]) == 1.0
    assert picp(iv, [-1.0]) == 1.0


def test_picp_infinite_intervals_cover():
    iv = intervals_from_bounds([-np.inf, 0.0], [np.inf, 1.0])
    assert picp(iv, [1e18, 2.0]) == 0.5


# ---------------------------------------------------------------- width

def test_mpiw_nmpiw_hand_case():
    iv = intervals_from_bounds([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    y = [0.0, 5.0, 10.0]
    m, nm = mpiw_nmpiw(iv, y)
    assert m == pytest.approx(2.0)
    assert nm == pytest.approx(0.2)


def test_mpiw_degenerate_range_rejected():
    iv = intervals_from_bounds([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(MetricError):
        mpiw_nmpiw(iv, [3.0, 3.0])


def test_mpiw_infinite_width_propagates():
    iv = intervals_from_bounds([-np.inf, 0.0], [np.inf, 1.0])
    m, nm = mpiw_nmpiw(iv, [0.0, 1.0])
    assert m == np.inf and nm == np.inf


# ------------------------------------------------------------------ cwc

def test_cwc_gate_closes_at_target_coverage():
    assert cwc(0.90, 0.25, 50.0, 0.9) == 0.25
    assert cwc(0.95, 0.25, 50.0, 0.9) == 0.25


def test_cwc_penalty_hand_value():
    want = 0.25 * (1.0 + np.exp(-50.0 * (0.85 - 0.9)))
    assert cwc(0.85, 0.25, 50.0, 0.9) == pytest.approx(want, rel=1e-12)


def test_cwc_monotone_in_coverage_below_target():
    vals = [cwc(p, 0.2, 10.0, 0.9) for p in (0.5, 0.7, 0.85, 0.89)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cwc_eta_variants():
    for eta in (10.0, 50.0, 100.0):
        got = cwc(0.8, 0.3, eta, 0.9)
        assert got == pytest.approx(0.3 * (1 + np.exp(eta * 0.1)), rel=1e-12)


def test_cwc_passes_through_infinite_width():
    assert cwc(0.95, np.inf, 50.0, 0.9) == np.inf


def test_cwc_past_the_float_range_is_inf_without_a_warning():
    # eta (mu - picp) = 1200: the penalty factor is e^1200, past the float
    # range; pyproject turns the overflow warning into a failure
    assert cwc(0.3, 0.2, 2000.0, 0.9) == np.inf
    assert cwc(0.3, np.inf, 2000.0, 0.9) == np.inf
    assert cwc(0.3, 0.0, 2000.0, 0.9) == 0.0
    assert cwc(0.3, 0.2, 1000.0, 0.9) == pytest.approx(0.2 * (1.0 + math.exp(600.0)), rel=1e-12)


# -------------------------------------------------------- sparsification

def naive_sparsification(u, err, grid):
    err = np.abs(np.asarray(err, dtype=float))
    out = []
    for f in grid:
        drop = int(np.floor(f * len(err) + 1e-9))
        order = np.argsort(-np.asarray(u), kind="stable")
        keep = order[drop:]
        out.append(np.sqrt(np.mean(err[keep] ** 2)))
    return np.array(out)


def test_sparsification_matches_naive_route():
    rng = make_rng(0)
    u = rng.random(57)
    err = rng.standard_normal(57)
    grid = np.arange(20) * 0.05
    curve = sparsification(u, err)
    assert_allclose(curve.fractions, grid, rtol=0)
    assert_allclose(curve.model_rmse, naive_sparsification(u, err, grid), rtol=1e-12)
    assert_allclose(curve.oracle_rmse,
                    naive_sparsification(np.abs(err), err, grid), rtol=1e-12)


def test_perfect_uncertainty_gives_zero_ause():
    rng = make_rng(1)
    err = rng.standard_normal(100)
    curve = sparsification(np.abs(err), err)
    assert curve.ause == 0.0
    assert_allclose(curve.model_rmse, curve.oracle_rmse, rtol=0)


def test_oracle_curve_never_above_model_curve():
    rng = make_rng(2)
    for _ in range(5):
        u = rng.random(40)
        err = rng.standard_normal(40)
        curve = sparsification(u, err)
        assert np.all(curve.oracle_rmse <= curve.model_rmse + 1e-12)
        assert curve.ause >= 0.0
        # dropping by true error can only shrink the remaining RMSE
        assert np.all(np.diff(curve.oracle_rmse) <= 1e-12)


def test_sparsification_hand_case():
    # errors 1..4, uncertainty reversed: model drops the *smallest* error first
    u = np.array([4.0, 3.0, 2.0, 1.0])
    err = np.array([1.0, 2.0, 3.0, 4.0])
    curve = sparsification(u, err, grid=[0.0, 0.25, 0.5, 0.75])
    assert_allclose(curve.model_rmse,
                    [np.sqrt(np.mean([1, 4, 9, 16])),
                     np.sqrt(np.mean([4, 9, 16])),
                     np.sqrt(np.mean([9, 16])),
                     np.sqrt(16.0)], rtol=1e-12)
    assert_allclose(curve.oracle_rmse,
                    [np.sqrt(np.mean([1, 4, 9, 16])),
                     np.sqrt(np.mean([1, 4, 9])),
                     np.sqrt(np.mean([1, 4])),
                     np.sqrt(1.0)], rtol=1e-12)
    # AUSE via explicit trapezoid on the four-point grid
    gap = curve.model_rmse - curve.oracle_rmse
    want = np.trapezoid(gap, curve.fractions)
    assert curve.ause == pytest.approx(want, rel=1e-12)


FLOATS_WITH_TIES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-1e3, 1e3),
                            min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), err=FLOATS_WITH_TIES,
       grid=st.sampled_from([None, (0.0, 0.25, 0.5, 0.75), (0.0, 0.3, 0.9)]))
def test_shared_oracle_equals_a_fresh_one(data, err, grid):
    # the methods that share one mean share one oracle curve
    u = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3),
                           min_size=len(err), max_size=len(err)), label="uncertainty")
    oracle = oracle_rmse(err, grid)
    shared, fresh = sparsification(u, err, grid, oracle=oracle), sparsification(u, err, grid)
    for name in ("fractions", "model_rmse", "oracle_rmse", "ause"):
        assert _bits(getattr(shared, name)) == _bits(getattr(fresh, name)), name


def test_sparsification_refuses_an_oracle_for_another_grid():
    with pytest.raises(MetricError, match="one RMSE per grid fraction"):
        sparsification([1.0, 2.0], [1.0, 2.0], oracle=oracle_rmse([1.0, 2.0], (0.0, 0.5)))


def test_sparsification_grid_validation():
    with pytest.raises(MetricError):
        sparsification([1.0], [1.0], grid=[0.0, 0.5, 0.5])
    with pytest.raises(MetricError):
        sparsification([1.0], [1.0], grid=[0.1, 0.5])
    with pytest.raises(MetricError):
        sparsification([1.0], [1.0], grid=[0.0, 1.0])
    with pytest.raises(MetricError):
        sparsification([1.0], [1.0], grid=[0.0, float("nan"), 0.5])


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_sparsification_grid_next_to_one_keeps_a_sample(n):
    # the largest float below 1 passes check_grid, and floor(f * n + slack)
    # reaches n; the curve must still keep the least uncertain sample
    f = np.nextafter(1.0, 0.0)
    u = np.arange(float(n))
    err = u + 1.0  # the least uncertain sample has error 1
    curve = sparsification(u, err, grid=[0.0, f])
    assert np.all(np.isfinite(curve.model_rmse)) and np.all(np.isfinite(curve.oracle_rmse))
    assert curve.model_rmse[-1] == 1.0 and curve.oracle_rmse[-1] == 1.0
    assert np.isfinite(curve.ause)


# ------------------------------------------------------------------ ssc

def test_ssc_hand_case():
    # widths ascending 1..4; labels cover only the two widest intervals
    iv = intervals_from_bounds([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])
    y = [5.0, 5.0, 2.5, 3.5]
    assert ssc(iv, y, 2) == [0.0, 1.0]


def test_ssc_remainder_goes_to_last_bins():
    iv = intervals_from_bounds(np.zeros(10), np.arange(1.0, 11.0))
    detail = ssc_detail(iv, np.zeros(10), (3,))[3]
    assert [b.n for b in detail] == [3, 3, 4]
    # ascending width bins
    assert detail[0].mean_width == pytest.approx(np.mean([1, 2, 3]))
    assert detail[2].mean_width == pytest.approx(np.mean([7, 8, 9, 10]))


def test_ssc_refuses_constant_widths():
    iv = intervals_from_bounds(np.zeros(10), np.ones(10))
    with pytest.raises(MetricError, match="constant"):
        ssc(iv, np.zeros(10), 2)


def test_ssc_refuses_infinite_widths():
    iv = intervals_from_bounds([-np.inf, 0.0, 0.0], [np.inf, 1.0, 2.0])
    with pytest.raises(MetricError, match="infinite"):
        ssc(iv, np.zeros(3), 2)


def test_ssc_stable_under_ties():
    lower = np.zeros(6)
    upper = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    iv = intervals_from_bounds(lower, upper)
    y = np.array([0.5, 5.0, 0.5, 1.5, 5.0, 1.5])
    out1 = ssc(iv, y, 2)
    out2 = ssc(iv, y, 2)
    assert out1 == out2 == [pytest.approx(2 / 3), pytest.approx(2 / 3)]


def test_ssc_needs_enough_samples():
    iv = intervals_from_bounds([0.0], [1.0])
    with pytest.raises(MetricError):
        ssc(iv, [0.5], 2)


def ssc_one_j(iv, y, n_bins):
    """One bin count's bins as computed before the sort was shared: a sort
    per call and a fancy-indexed mean per bin."""
    widths, covered = iv.width, iv.covers(np.asarray(y, dtype=float))
    order = np.argsort(widths, kind="stable")
    base, rem = divmod(iv.n, n_bins)
    bins, pos = [], 0
    for size in [base] * (n_bins - rem) + [base + 1] * rem:
        idx = order[pos:pos + size]
        pos += size
        bins.append((size, float(np.mean(widths[idx])), float(np.mean(covered[idx]))))
    return bins


def ssc_outcome(iv, y, bin_counts):
    """ssc_detail's bins per bin count, or the message it raised."""
    try:
        return {j: [(b.n, b.mean_width, b.coverage) for b in bins]
                for j, bins in ssc_detail(iv, y, bin_counts).items()}
    except MetricError as e:
        return str(e)


def separate_outcome(iv, y, bin_counts):
    """What the evaluate stage made of one ssc_detail call per bin count:
    each one's bins, or the message of the first that raised."""
    out = {}
    for j in bin_counts:
        got = ssc_outcome(iv, y, (j,))
        if isinstance(got, str):
            return got
        out[j] = got[j]
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(2, 40),
       bin_counts=st.lists(st.integers(2, 45), min_size=1, max_size=4))
def test_one_ssc_sort_equals_a_call_per_bin_count(data, n, bin_counts):
    # widths from a small set, so ties and constant widths both turn up
    halves = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, np.inf]),
                                min_size=n, max_size=n), label="half widths")
    iv = PredictionIntervals(center=np.zeros(n), half=np.asarray(halves))
    y = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), label="y")
    shared = ssc_outcome(iv, y, bin_counts)
    assert shared == separate_outcome(iv, y, bin_counts)
    if not isinstance(shared, str):
        assert_bins_match_a_sort_per_bin_count(shared, iv, y)


def assert_bins_match_a_sort_per_bin_count(shared, iv, y):
    for j, bins in shared.items():
        want = ssc_one_j(iv, y, j)
        assert [b[0] for b in bins] == [w[0] for w in want]
        assert _bits([b[1:] for b in bins]) == _bits([w[1:] for w in want])


def test_one_ssc_sort_keeps_tied_widths_in_row_order():
    # enough tied rows that an unstable sort would reorder them
    rng = make_rng(5)
    iv = PredictionIntervals(center=np.zeros(300), half=rng.choice([0.5, 1.0, 1.5], 300))
    y = rng.uniform(-2.0, 2.0, 300)
    assert_bins_match_a_sort_per_bin_count(ssc_outcome(iv, y, (3, 7, 10)), iv, y)


@pytest.mark.parametrize("half, bin_counts, message", [
    # n_test between two bin counts: the first bins, the second cannot
    (np.arange(1.0, 8.0), (3, 10, 5), "need at least one sample per bin"),
    (np.ones(7), (3, 10), "constant"),
    (np.ones(2), (3, 2), "need at least one sample per bin"),
    (np.r_[np.arange(1.0, 7.0), np.inf], (3, 10), "infinite"),
])
def test_ssc_refusal_is_the_first_a_call_per_bin_count_meets(half, bin_counts, message):
    iv = PredictionIntervals(center=np.zeros(half.size), half=half)
    y = np.full(half.size, 0.5)
    shared = ssc_outcome(iv, y, bin_counts)
    assert message in shared
    assert shared == separate_outcome(iv, y, bin_counts)


# ------------------------------------------------------------ groupwise

def test_groupwise_hand_case():
    n_a, n_b, n_c = 12, 15, 5
    lower = np.zeros(n_a + n_b + n_c)
    upper = np.ones(n_a + n_b + n_c)
    groups = np.array(["a"] * n_a + ["b"] * n_b + ["c"] * n_c)
    y = np.concatenate([
        np.where(np.arange(n_a) < 6, 0.5, 2.0),   # a: 6/12 covered
        np.where(np.arange(n_b) < 15, 0.5, 2.0),  # b: all covered
        np.full(n_c, 0.5),
    ])
    iv = intervals_from_bounds(lower, upper)
    entries = groupwise_picp(iv, y, partition_groups(groups), min_n=10)
    assert [(e.group, e.n) for e in entries] == [("b", 15), ("a", 12)]
    assert entries[0].picp == 1.0
    assert entries[1].picp == pytest.approx(0.5)


def test_groupwise_single_group_equals_overall():
    iv = intervals_from_bounds(np.zeros(20), np.ones(20))
    y = np.where(np.arange(20) < 15, 0.5, 2.0)
    groups = np.full(20, "only")
    entries = groupwise_picp(iv, y, partition_groups(groups), min_n=10)
    assert len(entries) == 1
    assert entries[0].picp == pytest.approx(picp(iv, y))


def test_groupwise_ties_break_by_name():
    iv = intervals_from_bounds(np.zeros(20), np.ones(20))
    groups = np.array(["z"] * 10 + ["a"] * 10)
    entries = groupwise_picp(iv, np.full(20, 0.5), partition_groups(groups), min_n=10)
    assert [e.group for e in entries] == ["a", "z"]


def test_groupwise_warns_when_all_groups_too_small():
    iv = intervals_from_bounds(np.zeros(4), np.ones(4))
    groups = np.array(["a", "b", "c", "d"])
    with pytest.warns(UserWarning, match="min_n"):
        entries = groupwise_picp(iv, np.full(4, 0.5), partition_groups(groups), min_n=10)
    assert entries == []


def masked_group_coverage(iv, y, groups, min_n):
    """Per-group coverage as computed before the partition was shared: a
    string compare and a masked np.mean per group."""
    covered = iv.covers(y)
    names, counts = np.unique(groups, return_counts=True)
    return [(str(names[i]), int(counts[i]), float(np.mean(covered[groups == names[i]])))
            for i in np.lexsort((names, -counts)) if counts[i] >= min_n]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), min_n=st.integers(1, 12))
def test_group_coverage_from_counts_equals_the_masked_mean(data, n, min_n):
    labels = data.draw(st.lists(st.sampled_from(["a", "bb", "c", "zz", "cluster_10", "é"]),
                                min_size=n, max_size=n), label="labels")
    covered = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="covered")
    groups = np.asarray(labels)
    iv = intervals_from_bounds(np.zeros(n), np.ones(n))
    y = np.where(covered, 0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no group may reach min_n
        got = groupwise_picp(iv, y, partition_groups(groups), min_n)
    want = masked_group_coverage(iv, y, groups, min_n)
    assert [(e.group, e.n) for e in got] == [w[:2] for w in want]
    assert _bits([e.picp for e in got]) == _bits([w[2] for w in want])


def test_group_partition_is_checked_against_the_intervals():
    iv = intervals_from_bounds(np.zeros(4), np.ones(4))
    with pytest.raises(MetricError, match="one label per interval"):
        groupwise_picp(iv, np.full(4, 0.5), partition_groups(np.array(["a"] * 5)), min_n=1)
    with pytest.raises(MetricError, match="group labels are required"):
        partition_groups(None)


# --------------------------------------------------------- point metrics

def test_point_metrics_hand_values():
    preds = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, 1.0, 5.0])
    pm = point_metrics(preds, y)
    assert pm.rmse == pytest.approx(np.sqrt((0 + 1 + 4) / 3))
    assert pm.mae == pytest.approx(1.0)


def naive_ranks(x):
    # average ranks for ties, 1-based
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_correlations_match_hand_formulas():
    rng = make_rng(3)
    x = rng.standard_normal(40)
    y = 0.5 * x + 0.3 * rng.standard_normal(40)
    y[3] = y[7]  # inject a tie
    pm = point_metrics(x, y)
    pearson_hand = (np.mean(x * y) - x.mean() * y.mean()) / (np.std(x) * np.std(y))
    assert pm.pearson == pytest.approx(pearson_hand, rel=1e-10)
    rx, ry = naive_ranks(x), naive_ranks(y)
    spearman_hand = ((np.mean(rx * ry) - rx.mean() * ry.mean())
                     / (np.std(rx) * np.std(ry)))
    assert pm.spearman == pytest.approx(spearman_hand, rel=1e-10)


def test_point_metrics_constant_input_gives_nan():
    pm = point_metrics([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    assert np.isnan(pm.pearson) and np.isnan(pm.spearman)
    assert pm.rmse > 0


# ----------------------------------------------------------- disentangle

def naive_kendall_tau_b(x, y):
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = np.sign(x[i] - x[j])
            b = np.sign(y[i] - y[j])
            if a * b > 0:
                concordant += 1
            elif a * b < 0:
                discordant += 1
    n0 = n * (n - 1) / 2

    def tie_term(v):
        _, counts = np.unique(v, return_counts=True)
        return np.sum(counts * (counts - 1) / 2)

    denom = np.sqrt((n0 - tie_term(x)) * (n0 - tie_term(y)))
    return (concordant - discordant) / denom


def test_kendall_matches_brute_force():
    rng = make_rng(4)
    a = rng.standard_normal(30)
    e = 0.4 * a + rng.standard_normal(30)
    a[5] = a[9]  # ties on both sides
    e[2] = e[11]
    out = disentangle_stats(a, e)
    assert out.kendall == pytest.approx(naive_kendall_tau_b(a, e), rel=1e-10)


def tied_pair(n, levels):
    """Strategy for two length-n samples drawn from `levels` distinct values."""
    values = st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)
    return st.tuples(values, values).map(lambda p: (np.array(p[0], float), np.array(p[1], float)))


# n around the merge's block widths 2^k; few levels make heavy ties
MERGE_SIZES = sorted({2 ** k + d for k in range(1, 9) for d in (-1, 0, 1)} - {1, 2})


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MERGE_SIZES).flatmap(
    lambda n: st.integers(2, 6).flatmap(lambda levels: tied_pair(n, levels))))
def test_kendall_matches_brute_force_with_ties(pair):
    a, e = pair
    assume(np.ptp(a) > 0 and np.ptp(e) > 0)
    assert disentangle_stats(a, e).kendall == pytest.approx(naive_kendall_tau_b(a, e),
                                                             rel=1e-12, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 300).flatmap(
    lambda n: st.integers(2, 12).flatmap(lambda levels: tied_pair(n, levels))),
       st.floats(-3.0, 3.0))
def test_spearman_and_mann_whitney_match_scipy_with_ties(pair, shift):
    a, e = pair
    e = e + shift  # moves the locations apart; a whole shift keeps cross-sample ties
    out = disentangle_stats(a, e)
    assert out.mann_whitney_p == pytest.approx(
        stats.mannwhitneyu(a, e, method="asymptotic").pvalue, rel=1e-12)
    if np.ptp(a) > 0 and np.ptp(e) > 0:
        assert out.spearman == pytest.approx(stats.spearmanr(a, e).statistic, rel=1e-12)
        assert point_metrics(a, e).spearman == out.spearman


def test_kendall_at_large_n_allocates_linear_memory():
    # a pair matrix or a bincount over pair codes would need n^2 = 2.5e9 cells
    n = 50_000
    rng = make_rng(11)
    a = rng.integers(0, 100, n).astype(float)
    e = a + rng.integers(0, 300, n)
    tracemalloc.start()
    try:
        tau = disentangle_stats(a, e).kendall
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * n  # a few dozen float64 vectors of length n
    assert tau == pytest.approx(stats.kendalltau(a, e).statistic, rel=1e-12)


def test_identical_samples_give_p_one():
    x = make_rng(5).standard_normal(50)
    out = disentangle_stats(x, x.copy())
    assert out.pearson == pytest.approx(1.0)
    assert out.spearman == pytest.approx(1.0)
    assert out.kendall == pytest.approx(1.0)
    assert out.welch_t_p == 1.0
    assert out.mann_whitney_p == 1.0


def test_shifted_samples_give_tiny_p():
    rng = make_rng(6)
    a = rng.standard_normal(200)
    e = rng.standard_normal(200) + 2.0
    out = disentangle_stats(a, e)
    assert out.welch_t_p < 1e-6
    assert out.mann_whitney_p < 1e-6


def test_welch_statistic_matches_hand_formula():
    rng = make_rng(7)
    a = rng.standard_normal(40)
    e = 0.5 * rng.standard_normal(40) + 0.3
    t_hand = ((a.mean() - e.mean())
              / np.sqrt(a.var(ddof=1) / len(a) + e.var(ddof=1) / len(e)))
    t_scipy = stats.ttest_ind(a, e, equal_var=False).statistic
    assert t_scipy == pytest.approx(t_hand, rel=1e-12)
    out = disentangle_stats(a, e)
    vn1, vn2 = a.var(ddof=1) / len(a), e.var(ddof=1) / len(e)
    df_hand = (vn1 + vn2) ** 2 / (vn1 ** 2 / (len(a) - 1) + vn2 ** 2 / (len(e) - 1))
    assert out.welch_t_p == pytest.approx(student_t_tail(t_hand, df_hand), rel=T_TAIL_REL)
    assert out.welch_t_p == pytest.approx(stats.ttest_ind(a, e, equal_var=False).pvalue,
                                          rel=T_TAIL_REL)


def student_t_tail(t, df):
    """Two-sided P(|T| >= |t|) of Student's t with df degrees of freedom,
    to 40 digits: I_x(df/2, 1/2) at x = df / (df + t^2), in mpmath."""
    with mpmath.workdps(40):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return float(mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True))


# Relative error bound of the Student-t tail, in units of u = 2^-53. For
# |t| >= 1 the kernel returns p = exp(L) * cf, L = -a log1p(t^2/df) +
# log(y)/2 - log B(a, 1/2), a = df/2, y = t^2/(df + t^2). The term
# a log1p(t^2/df) carries four roundings (t^2, the division, log1p, the
# product), and where p >= 1e-290 it is below 700 in size (|log p| <= 668;
# log(y)/2 and log B lie within [-6, 6], and log cf within [-7, 2]), so exp
# turns it into at most 4 * 700 u of relative error. log B, log y, exp and
# the continued fraction (at most 160 terms, rescaled every term) add under
# 200 u. For |t| < 1 (the other branch), p = 1 - I_y(1/2, a) >= 0.31 and
# a log1p(t^2/df) < t^2/2 < 1/2, so the error is a few u. Hence 3000 u,
# about 3.3e-13.
T_TAIL_REL = 3000 * 2.0 ** -53


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda k: min(max(10.0 ** k, lo), hi))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(1.0, 1e5), log_uniform(1.0, 1e5)),
       st.one_of(st.floats(0.0, 40.0, exclude_min=True), log_uniform(1e-8, 40.0)),
       st.booleans())
@example(1.0, 40.0, False)
@example(1e5, 1e-300, True)
@example(2.0, 1.0, False)  # the boundary between the two branches
@example(99999.0, 1.0000000000000002, False)
@example(99859.0, 3.132873113257828, False)  # a*log(x) in place of the log1p form errs 4.9e-12
def test_student_t_tail_matches_mpmath(df, t, negative):
    exact = student_t_tail(t, df)
    assume(exact >= 1e-290)
    assert _student_t_p(-t if negative else t, df) == pytest.approx(exact, rel=T_TAIL_REL)


def test_mann_whitney_u_matches_brute_force():
    rng = make_rng(8)
    a = rng.standard_normal(25)
    e = rng.standard_normal(30) + 0.5
    e[3] = a[4]  # a cross-sample tie
    u_brute = sum(float(ai > ej) + 0.5 * float(ai == ej) for ai in a for ej in e)
    assert stats.mannwhitneyu(a, e, method="asymptotic").statistic == u_brute


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, e, welch_p, mwu_p", [
    # scipy 1.17's p values: Welch's t is 0/0 or +-inf between constant
    # samples, and U's tie-corrected variance is 0 when every value ties
    (np.ones(10), np.arange(10.0), 0.00527118606698135, 0.004307399841485677),
    (np.ones(10), np.ones(10), np.nan, 1.0),
    (np.ones(10), np.zeros(10), 0.0, 1.5937911688066244e-05),
    (np.r_[np.arange(9.0), np.nan], np.arange(10.0), np.nan, np.nan),
])
def test_disentangle_constant_input(a, e, welch_p, mwu_p):
    out = disentangle_stats(a, e)
    assert np.isnan(out.pearson) and np.isnan(out.spearman) and np.isnan(out.kendall)
    assert out.welch_t_p == pytest.approx(welch_p, rel=1e-12, nan_ok=True)
    assert out.mann_whitney_p == pytest.approx(mwu_p, rel=1e-12, nan_ok=True)


def test_disentangle_length_checks():
    with pytest.raises(MetricError):
        disentangle_stats([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(MetricError):
        disentangle_stats([1.0, 2.0, 3.0], [1.0, 2.0])


# ------------------------------------------------------------------ nll

def test_report_nll_single_gaussian():
    pred = MixturePrediction(w=[[1.0], [1.0]], mu=[[0.0], [1.0]],
                             sigma2=[[1.0], [4.0]])
    y = np.array([0.5, 0.0])
    want = -np.mean([stats.norm.logpdf(0.5, 0, 1), stats.norm.logpdf(0.0, 1, 2)])
    assert report_nll(pred, y) == pytest.approx(want, rel=1e-12)


def test_report_nll_mixture_hand_case():
    pred = MixturePrediction(w=[[0.5, 0.5]], mu=[[-1.0, 1.0]], sigma2=[[1.0, 1.0]])
    want = -np.log(0.5 * stats.norm.pdf(0, -1, 1) + 0.5 * stats.norm.pdf(0, 1, 1))
    assert report_nll(pred, [0.0]) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- report

def test_metrics_report_serialization_round_trip():
    rep = MetricsReport(n_test=100, picp=0.9, mpiw=np.inf, nmpiw=np.inf,
                        cwc={"50": np.inf}, ause=0.01,
                        ssc=None, ssc_note="interval widths are constant",
                        rmse=1.0, mae=0.8, pearson=np.nan, spearman=0.7, nll=1.2)
    text = serialize.dumps(rep.to_dict())
    assert '"inf"' in text and '"nan"' in text
    import json
    back = json.loads(text)
    assert serialize.from_jsonable_float(back["mpiw"]) == np.inf
    assert np.isnan(serialize.from_jsonable_float(back["pearson"]))
    assert back["ssc"] is None
