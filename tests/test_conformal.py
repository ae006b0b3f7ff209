import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tessera.conformal import (
    CalibrationResult,
    PredictionIntervals,
    ScaleKind,
    build_intervals,
    calibrate,
    conformal_quantile,
    gaussian_z,
    nonconformity_scores,
)
from tessera.errors import CalibrationError, DimensionError
from tessera.nn import make_rng


# -------------------------------------------------------------- scores

def test_scores_hand_case():
    s = nonconformity_scores(y=[1.0, -2.0], mu_hat=[0.0, 0.0],
                             scale=[1.0, 3.0], epsilon=0.0)
    assert_allclose(s, [1.0, 2.0 / 3.0], rtol=1e-12)


def test_scores_epsilon_guards_zero_scale():
    s = nonconformity_scores(y=[1.0], mu_hat=[0.0], scale=[0.0], epsilon=1e-8)
    assert_allclose(s, [1e8], rtol=1e-12)
    with pytest.raises(CalibrationError):
        nonconformity_scores(y=[1.0], mu_hat=[0.0], scale=[0.0], epsilon=0.0)


def test_scores_reject_negative_scale():
    with pytest.raises(CalibrationError):
        nonconformity_scores(y=[1.0], mu_hat=[0.0], scale=[-0.5], epsilon=1e-8)


def test_scores_reject_length_mismatch():
    with pytest.raises(DimensionError):
        nonconformity_scores(y=[1.0, 2.0], mu_hat=[0.0], scale=[1.0], epsilon=1e-8)


# ------------------------------------------------------------ quantile

def test_quantile_known_finite_case():
    scores = np.arange(1.0, 10.0)  # 1..9
    assert conformal_quantile(scores, alpha=0.1) == 9.0


def test_quantile_becomes_infinite_for_small_n():
    scores = np.arange(1.0, 6.0)  # 1..5: k = ceil(0.9 * 6) = 6 > 5
    assert conformal_quantile(scores, alpha=0.1) == math.inf


def test_quantile_unsorted_input():
    scores = np.array([9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0])
    assert conformal_quantile(scores, alpha=0.1) == 9.0


def test_quantile_matches_exact_rational_arithmetic():
    # independent oracle: the order-statistic index computed in exact
    # rational arithmetic from the decimal alpha
    for alpha in (0.05, 0.1, 0.18, 0.2, 0.25, 0.5, 0.82, 0.9):
        frac = Fraction(str(alpha))
        for n in list(range(1, 61)) + [149, 500, 999]:
            scores = np.arange(1.0, n + 1.0)
            k = math.ceil((1 - frac) * (n + 1))
            want = math.inf if k > n else float(k)
            got = conformal_quantile(scores, alpha=alpha)
            assert got == want, (alpha, n, got, want)


def test_quantile_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        conformal_quantile(np.array([]), alpha=0.1)
    with pytest.raises(CalibrationError):
        conformal_quantile(np.array([1.0]), alpha=0.0)
    with pytest.raises(CalibrationError):
        conformal_quantile(np.array([1.0]), alpha=1.0)
    with pytest.raises(CalibrationError):
        conformal_quantile(np.array([np.inf]), alpha=0.5)
    with pytest.raises(CalibrationError):
        conformal_quantile(np.array([-1.0]), alpha=0.5)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=80),
       st.integers(min_value=1, max_value=2 ** 31 - 1),
       st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]))
def test_quantile_is_an_observed_score_or_inf(n, seed, alpha):
    scores = make_rng(seed).exponential(size=n)
    q = conformal_quantile(scores, alpha=alpha)
    if math.isfinite(q):
        assert q in scores
        # at least (1-alpha)(n+1) scores sit at or below q
        k = math.ceil(Fraction(str(alpha)).__rsub__(1) * (n + 1))
        assert np.sum(scores <= q) >= k
    else:
        assert math.ceil((1 - Fraction(str(alpha))) * (n + 1)) > n


# ----------------------------------------------------------- calibrate

def test_calibrate_constant_matches_raw_residual_quantile():
    rng = make_rng(0)
    y = rng.standard_normal(99)
    mu = np.zeros(99)
    res = calibrate(y, mu, np.ones(99), ScaleKind.CONSTANT, alpha=0.1, epsilon=0.0)
    want = conformal_quantile(np.abs(y), alpha=0.1)
    assert res.q_hat == want
    assert res.n_cal == 99
    assert math.isfinite(res.q_hat)
    # the default epsilon only rescales the unit denominator by 1 + 1e-8
    res_eps = calibrate(y, mu, np.ones(99), ScaleKind.CONSTANT, alpha=0.1, epsilon=1e-8)
    assert_allclose(res_eps.q_hat, want, rtol=1e-7)


def test_calibrate_accepts_kind_strings():
    res = calibrate([1.0] * 20, [0.0] * 20, [1.0] * 20, "aleatoric", alpha=0.2, epsilon=1e-8)
    assert res.kind is ScaleKind.ALEATORIC


def test_marginal_coverage_hits_finite_sample_level():
    # MC oracle: with n_cal = 19, alpha = 0.1 the index is k = 18 and the
    # coverage of a fresh exchangeable point is exactly 18/20 = 0.9
    rng = make_rng(314)
    trials = 4000
    hits_const = 0
    hits_scaled = 0
    for _ in range(trials):
        resid = rng.standard_normal(20)
        res = calibrate(resid[:19], np.zeros(19), np.ones(19), ScaleKind.CONSTANT,
                        alpha=0.1, epsilon=1e-8)
        iv = build_intervals(np.zeros(1), res.q_hat, np.ones(1))
        hits_const += int(iv.covers(resid[19:])[0])
        scale = 0.5 + rng.random(20)
        obs = scale * rng.standard_normal(20)
        res = calibrate(obs[:19], np.zeros(19), scale[:19],
                        ScaleKind.EPISTEMIC, alpha=0.1, epsilon=1e-8)
        iv = build_intervals(np.zeros(1), res.q_hat, scale[19:])
        hits_scaled += int(iv.covers(obs[19:])[0])
    se = np.sqrt(0.9 * 0.1 / trials)  # ~0.0047
    assert abs(hits_const / trials - 0.9) < 5 * se
    assert abs(hits_scaled / trials - 0.9) < 5 * se


# ------------------------------------------------------------ intervals

def test_build_intervals_hand_case():
    iv = build_intervals([0.0, 0.0], 2.0, [1.0, 3.0])
    assert_allclose(iv.lower, [-2.0, -6.0], rtol=1e-12)
    assert_allclose(iv.upper, [2.0, 6.0], rtol=1e-12)
    assert_allclose(iv.width, 2.0 * 2.0 * np.array([1.0, 3.0]), rtol=1e-12)


# the factors of the methods' rows: conformal q_hats, Gaussian z values, zero,
# and the infinite factor that a tiny alpha gives both q_hat and z
_FACTORS = [0.0, 2.0, 0.7316, math.pi * 1e3, gaussian_z(0.01), gaussian_z(0.1),
            gaussian_z(0.3), math.inf]
# (center, scale) rows, zero scales among them
_ROWS = st.lists(st.tuples(st.floats(-1e12, 1e12), st.just(0.0) | st.floats(0.0, 1e12)),
                 min_size=1, max_size=40)


@pytest.mark.parametrize("factor", _FACTORS, ids=repr)
@settings(deadline=None, max_examples=40)
@given(rows=_ROWS, unit=st.booleans(),
       bad=st.none() | st.tuples(st.sampled_from([-1e-300, -2.0, math.nan]), st.integers(0)))
def test_build_intervals_is_center_plus_minus_factor_times_scale(factor, rows, unit, bad):
    center, scale = (np.array(c) for c in zip(*rows))
    if bad is not None and not unit:  # a negative or NaN scale, at any factor
        scale[bad[1] % scale.size] = bad[0]
        with pytest.raises(CalibrationError, match="nonnegative"):
            build_intervals(center, factor, scale)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 would be NaN, and a RuntimeWarning
        iv = build_intervals(center, factor, np.ones_like(center) if unit else scale)
    s = np.ones_like(center) if unit else scale
    if math.isinf(factor):  # the whole line on every row, zero scales included
        assert np.array_equal(iv.half, np.full(center.size, np.inf))
        assert np.all(iv.lower == -np.inf) and np.all(iv.upper == np.inf)
        assert np.all(iv.covers(np.full(center.size, -1e300)))
    else:
        assert np.array_equal(iv.lower, center - factor * s)
        assert np.array_equal(iv.upper, center + factor * s)
        assert np.array_equal(iv.width, 2.0 * (factor * s))
        assert np.array_equal(iv.half[s == 0.0], np.zeros(np.sum(s == 0.0)))


def test_build_intervals_refuses_bad_inputs():
    with pytest.raises(DimensionError, match="nonempty"):
        build_intervals([], 1.0, [])
    with pytest.raises(DimensionError, match="equal lengths"):
        build_intervals([0.0, 1.0], 1.0, [1.0])
    for factor in (-1.0, -math.inf, math.nan):
        with pytest.raises(CalibrationError, match="nonnegative"):
            build_intervals([0.0], factor, [1.0])


def test_zero_scale_gives_zero_width():
    iv = build_intervals([1.5], 2.5, [0.0])
    assert iv.width[0] == 0.0
    assert iv.covers([1.5])[0]  # endpoint convention: closed interval


def test_interval_ordering_enforced():
    # lower <= center <= upper holds exactly when every half-width is >= 0
    for half in ([-1.0], [1.0, -1e-300], [np.nan], [np.inf, np.nan]):
        with pytest.raises(DimensionError, match="half-widths"):
            PredictionIntervals(center=np.zeros(len(half)), half=half)
    for center in ([np.nan], [np.inf], [0.0, -np.inf]):
        with pytest.raises(DimensionError, match="centers"):
            PredictionIntervals(center=center, half=np.ones(len(center)))
    with pytest.raises(DimensionError, match="one entry per interval"):
        PredictionIntervals(center=[0.0, 1.0], half=[1.0])


def test_covers_endpoints():
    iv = PredictionIntervals(center=[0.0], half=[1.0])
    assert iv.covers([-1.0])[0]
    assert iv.covers([1.0])[0]
    assert not iv.covers([1.0 + 1e-12])[0]


# -------------------------------------------------------- serialization

def test_calibration_result_round_trip(tmp_path):
    res = calibrate(make_rng(0).standard_normal(50), np.zeros(50),
                    np.ones(50) * 0.5, ScaleKind.EPISTEMIC, alpha=0.1, epsilon=1e-8)
    path = tmp_path / "calib.json"
    res.save(path)
    back = CalibrationResult.load(path, ScaleKind.EPISTEMIC)
    assert back == res


def test_infinite_quantile_serializes_as_string(tmp_path):
    res = calibrate([1.0, 2.0, 3.0], [0.0] * 3, np.ones(3), ScaleKind.CONSTANT,
                    alpha=0.1, epsilon=1e-8)
    assert res.q_hat == math.inf
    path = tmp_path / "calib.json"
    res.save(path)
    assert '"inf"' in path.read_text()
    back = CalibrationResult.load(path, ScaleKind.CONSTANT)
    assert back.q_hat == math.inf
    assert back == res


def test_calibration_load_refuses_another_family_or_version(tmp_path):
    res = calibrate([1.0] * 20, [0.0] * 20, [1.0] * 20, ScaleKind.EPISTEMIC,
                    alpha=0.1, epsilon=1e-8)
    path = tmp_path / "calibration_aleatoric.json"
    res.save(path)
    with pytest.raises(DimensionError, match=r"calibration_aleatoric\.json: checkpoint "
                                             r"kind 'epistemic' is not 'aleatoric'"):
        CalibrationResult.load(path, ScaleKind.ALEATORIC)
    path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 2'))
    with pytest.raises(DimensionError, match=r"calibration_aleatoric\.json: unsupported "
                                             r"checkpoint version 2"):
        CalibrationResult.load(path, ScaleKind.EPISTEMIC)


def test_result_consistency_validation():
    # n_cal = 99 at alpha = 0.1 must have a finite quantile
    with pytest.raises(CalibrationError):
        CalibrationResult(kind=ScaleKind.CONSTANT, alpha=0.1, epsilon=1e-8,
                          n_cal=99, q_hat=math.inf)
    # and n_cal = 5 cannot
    with pytest.raises(CalibrationError):
        CalibrationResult(kind=ScaleKind.CONSTANT, alpha=0.1, epsilon=1e-8,
                          n_cal=5, q_hat=1.0)
