import math
import warnings
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from tessera.datagen import DataSpec, gen_heteroscedastic
from tessera.errors import ConfigError, DimensionError, TrainingError
from tessera.mc_dropout import (
    DropoutMlp,
    McDropoutSpec,
    mc_intervals,
    mc_predict,
    train_dropout,
)
from tessera.nn import ACTIVATIONS, BLOCK_ROWS, Mlp, make_rng


def hand_identity_net(d=2, hidden=16):
    # all-ones weights, zero biases, identity activation: the stochastic
    # output is d * sum of the hidden masks, which has a closed-form
    # mean and variance under inverted dropout
    net = Mlp([np.ones((d, hidden)), np.ones((hidden, 1))],
              [np.zeros(hidden), np.zeros(1)], ["identity"])
    return DropoutMlp(net, dropout=0.5)


def test_masks_are_inverted_dropout():
    model = hand_identity_net()
    masks = model.sample_masks(1000, make_rng(0))
    m = masks[0]
    vals = np.unique(m)
    assert_allclose(vals, [0.0, 2.0], rtol=0)          # 1/(1-p) = 2 at p = 0.5
    assert abs(m.mean() - 1.0) < 0.02                  # unbiased scaling


def test_mc_variance_matches_closed_form():
    d, hidden, p = 2, 16, 0.5
    model = hand_identity_net(d, hidden)
    x = np.ones((1, d))
    mean, var = mc_predict(model, x, passes=8000, rng=make_rng(42))
    want_mean = d * hidden                      # E[sum of masks] = hidden
    want_var = d ** 2 * hidden * p / (1 - p)    # per-unit mask variance p/(1-p)
    assert_allclose(mean[0], want_mean, rtol=0.02)
    assert_allclose(var[0], want_var, rtol=0.08)


def test_zero_dropout_rate_collapses_variance():
    net = Mlp.init((2, 8, 1), "tanh", rng=make_rng(0))
    model = DropoutMlp(net, dropout=0.0)
    x = make_rng(1).standard_normal((5, 2))
    mean, var = mc_predict(model, x, passes=10, rng=make_rng(2))
    # identical passes; only the mean-of-T-copies rounding is left over
    assert_allclose(var, np.zeros(5), atol=1e-30)
    assert_allclose(mean, model.deterministic_forward(x), rtol=1e-12)


def test_mc_predict_deterministic_given_seed():
    model = DropoutMlp.init(3, McDropoutSpec(hidden=8, dropout=0.5), make_rng(0))
    x = make_rng(1).standard_normal((4, 3))
    m1, v1 = mc_predict(model, x, passes=20, rng=make_rng(9))
    m2, v2 = mc_predict(model, x, passes=20, rng=make_rng(9))
    assert_allclose(m1, m2, rtol=0)
    assert_allclose(v1, v2, rtol=0)


def full_forward_per_pass(model, x, passes, rng):
    """mc_predict as one full forward pass of the net per draw of masks."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    draws = np.empty((passes, X.shape[0]))
    for t in range(passes):
        draws[t] = model.net.forward(X, hidden_masks=model.sample_masks(X.shape[0], rng))[:, 0]
    return draws.mean(axis=0), draws.var(axis=0, ddof=1)


def assert_mc_predict_matches_a_full_forward_per_pass(activation, widths, dropout, rows):
    net = Mlp.init(widths, activation, rng=make_rng(len(widths)))
    net.params += 0.1 * make_rng(3).standard_normal(net.n_params)  # nonzero biases
    model = DropoutMlp(net, dropout)
    x = make_rng(1).standard_normal((rows, 3))
    got_rng, want_rng = make_rng(2), make_rng(2)
    got = mc_predict(model, x, passes=7, rng=got_rng)
    want = full_forward_per_pass(model, x, 7, want_rng)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    # both drew the same number of uniforms
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("widths", [(3, 1), (3, 16, 1), (3, 16, 8, 1)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mc_predict_matches_a_full_forward_per_pass_bitwise(activation, widths, dropout):
    assert_mc_predict_matches_a_full_forward_per_pass(activation, widths, dropout, 37)


# mc_predict runs its masked layers in blocks of BLOCK_ROWS rows; 1/keep is a
# power of two at dropout 0.5 but not at 0.3
@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 7])
@pytest.mark.parametrize("dropout", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("widths", [(3, 16, 1), (3, 16, 8, 1)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mc_predict_matches_a_full_forward_per_pass_across_blocks(activation, widths,
                                                                  dropout, rows):
    assert_mc_predict_matches_a_full_forward_per_pass(activation, widths, dropout, rows)


@pytest.mark.parametrize("rows", [5, 2 * BLOCK_ROWS + 7])
def test_mc_predict_keeps_a_buffered_uint32(rows):
    # a generator that drew one uint32 holds the other half of its 64-bit
    # output; PCG64.advance drops that half, and mc_predict must restore it
    model = DropoutMlp.init(3, McDropoutSpec(hidden=6, dropout=0.3), make_rng(0))
    x = make_rng(1).standard_normal((rows, 3))
    got_rng, want_rng = make_rng(2), make_rng(2)
    for rng in (got_rng, want_rng):
        rng.integers(0, 2 ** 32, dtype=np.uint32)
    assert got_rng.bit_generator.state["has_uint32"] == 1
    got = mc_predict(model, x, passes=4, rng=got_rng)
    want = full_forward_per_pass(model, x, 4, want_rng)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.integers(0, 2 ** 32, dtype=np.uint32) == \
        want_rng.integers(0, 2 ** 32, dtype=np.uint32)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM,
                                           np.random.Philox, np.random.SFC64])
def test_mc_predict_refuses_a_generator_not_backed_by_pcg64(bit_generator):
    model = DropoutMlp.init(2, McDropoutSpec(hidden=4), make_rng(0))
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(ConfigError, match="make_rng"):
        mc_predict(model, np.zeros((3, 2)), passes=2, rng=rng)


def test_mc_predict_rejects_wrong_input_width():
    model = DropoutMlp.init(3, McDropoutSpec(hidden=8), make_rng(0))
    with pytest.raises(DimensionError):
        mc_predict(model, np.zeros((4, 2)), passes=10, rng=make_rng(0))


def test_mc_predict_rejects_single_pass():
    model = DropoutMlp.init(2, McDropoutSpec(hidden=4), make_rng(0))
    with pytest.raises(ConfigError):
        mc_predict(model, np.zeros((1, 2)), passes=1, rng=make_rng(0))


@pytest.mark.parametrize("spec", [McDropoutSpec(), McDropoutSpec(hidden=7, dropout=0.25),
                                  McDropoutSpec(hidden=1, dropout=0.0)],
                         ids=["default", "hidden_7", "hidden_1_no_dropout"])
def test_init_builds_the_net_its_spec_describes(spec):
    model = DropoutMlp.init(3, spec, make_rng(0))
    assert model.net.widths == (3, spec.hidden, 1)
    assert model.net.activations == ("relu",)
    assert model.dropout == spec.dropout
    (mask,) = model.sample_masks(20_000, make_rng(1))
    assert abs(np.mean(mask == 0.0) - spec.dropout) < 0.02


def test_dropout_rate_validation():
    net = Mlp.init((2, 4, 1), "relu", make_rng(0))
    with pytest.raises(ConfigError):
        DropoutMlp(net, dropout=1.0)
    with pytest.raises(ConfigError):
        DropoutMlp(net, dropout=-0.1)
    with pytest.raises(DimensionError):
        DropoutMlp(Mlp.init((2, 4, 2), "relu", make_rng(0)), dropout=0.5)


# ------------------------------------------------------------ intervals

def test_intervals_use_normal_quantile():
    mean = np.array([0.0, 10.0])
    var = np.array([1.0, 4.0])
    iv = mc_intervals(mean, var, alpha=0.1)
    z = norm.ppf(0.95)
    assert_allclose(z, 1.6448536269514722, rtol=1e-12)
    assert_allclose(iv.lower, mean - z * np.sqrt(var), rtol=1e-12)
    assert_allclose(iv.upper, mean + z * np.sqrt(var), rtol=1e-12)
    assert_allclose(iv.width, 2 * z * np.sqrt(var), rtol=1e-12)


def test_interval_bounds_are_bitwise_mean_plus_minus_z_sd():
    rng = make_rng(5)
    mean = rng.standard_normal(300) * 10.0 ** rng.integers(-6, 7, 300)
    var = rng.exponential(size=300) * 10.0 ** rng.integers(-12, 13, 300)
    var[::9] = 0.0
    for alpha in (0.01, 0.1, 0.3):
        iv = mc_intervals(mean, var, alpha=alpha)
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        assert np.array_equal(iv.lower, mean - z * np.sqrt(var))
        assert np.array_equal(iv.upper, mean + z * np.sqrt(var))
        assert np.array_equal(iv.width, 2.0 * (z * np.sqrt(var)))


def assert_interval_z_within_3_eps(alpha):
    # oracle: the 40-digit quantile sqrt(2) erfinv(2p - 1) at the float p the
    # code forms
    z = mc_intervals([0.0], [1.0], alpha=alpha).upper[0]  # 0 + z * sqrt(1)
    with mpmath.workdps(40):
        want = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(1.0 - alpha / 2.0) - 1)
        assert z > 0 and abs(z - want) <= 3 * np.finfo(float).eps * want, alpha


def test_interval_z_is_the_normal_quantile_within_3_eps():
    # statistics.NormalDist (Wichura's AS241) measured 2.4 eps relative at
    # worst on this grid
    for alpha in np.concatenate((np.linspace(0.001, 0.999, 999), [1e-12, 0.05, 0.1, 1 - 1e-12])):
        assert_interval_z_within_3_eps(alpha)


# AS241 switches rational approximation where |p - 0.5| passes 0.425 and where
# sqrt(-log(1 - p)) passes 5; each switch is checked at the float p on it and
# at its two neighbours, beside the two extreme p that keep z finite and > 0
_P_SWITCH = [0.925, 1.0 - math.exp(-25.0)]
_Z_BRANCH_P = sorted(
    [q for p in _P_SWITCH for q in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0))]
    + [math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)])


@pytest.mark.parametrize("p", _Z_BRANCH_P, ids=repr)
def test_interval_z_within_3_eps_at_the_quantile_branch_points(p):
    alpha = 2.0 * (1.0 - p)  # exact for p in [0.5, 1), so 1 - alpha / 2 is p again
    assert 1.0 - alpha / 2.0 == p
    assert_interval_z_within_3_eps(alpha)


def test_intervals_at_an_alpha_that_rounds_p_to_one_are_infinite():
    # 1 - alpha / 2 rounds to 1.0, whose normal quantile is +inf
    iv = mc_intervals([0.0, 1.0], [1.0, 4.0], alpha=2.0 ** -53)
    assert np.all(iv.upper == np.inf) and np.all(iv.lower == -np.inf)
    assert np.isfinite(mc_intervals([0.0], [1.0], alpha=2.0 ** -52).upper).all()


def test_infinite_z_gives_infinite_half_widths_at_zero_variance():
    # inf * 0 would be NaN, and a RuntimeWarning; zero-variance rows are the whole line too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iv = mc_intervals([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], alpha=1e-17)
    assert np.array_equal(iv.half, np.full(3, np.inf))
    assert np.all(iv.lower == -np.inf) and np.all(iv.upper == np.inf)


def test_intervals_alpha_05_quantile():
    iv = mc_intervals([0.0], [1.0], alpha=0.05)
    assert_allclose(iv.upper[0], 1.959963984540054, rtol=1e-12)


def test_interval_coverage_when_variance_is_exact():
    # oracle: y ~ N(mu, s^2) covered by mu +/- z s with probability 1 - alpha
    rng = make_rng(7)
    n = 20000
    mu = rng.standard_normal(n)
    s = 0.5 + rng.random(n)
    y = mu + s * rng.standard_normal(n)
    iv = mc_intervals(mu, s ** 2, alpha=0.1)
    cover = np.mean(iv.covers(y))
    assert abs(cover - 0.9) < 5 * np.sqrt(0.9 * 0.1 / n)


def test_intervals_reject_bad_inputs():
    with pytest.raises(DimensionError):
        mc_intervals([0.0], [-1.0], alpha=0.1)
    with pytest.raises(ConfigError):
        mc_intervals([0.0], [1.0], alpha=0.0)
    with pytest.raises(DimensionError):
        mc_intervals([0.0, 1.0], [1.0], alpha=0.1)


# ------------------------------------------------------------- training

def test_training_reduces_mse():
    ds = gen_heteroscedastic(DataSpec(n=500, dim=2, noise_profile="constant", noise_level=0.1), 5)
    model = DropoutMlp.init(2, McDropoutSpec(hidden=16, dropout=0.2), make_rng(0))
    before = float(np.mean((model.deterministic_forward(ds.X) - ds.y) ** 2))
    history = train_dropout(model, ds.X, ds.y,
                            McDropoutSpec(epochs=20, batch_size=64, lr=5e-3),
                            seed=0)
    assert history[-1] < before
    assert history[-1] < history[0]
    assert len(history) == 20


def test_training_divergence_reports_epoch():
    ds = gen_heteroscedastic(DataSpec(n=200, dim=2, noise_profile="constant"), 6)
    model = DropoutMlp.init(2, McDropoutSpec(hidden=8, dropout=0.5), make_rng(3))
    # the first step throws the weights so far that the second gradient is inf
    with pytest.raises(TrainingError, match=r"optimizer step \d+ \(epoch 0\)"):
        train_dropout(model, ds.X, ds.y, McDropoutSpec(epochs=3, batch_size=32, lr=1e300),
                      seed=11)


def test_training_deterministic_given_seed():
    ds = gen_heteroscedastic(DataSpec(n=200, dim=2, noise_profile="constant"), 6)

    def run():
        model = DropoutMlp.init(2, McDropoutSpec(hidden=8, dropout=0.5), make_rng(3))
        return train_dropout(model, ds.X, ds.y,
                             McDropoutSpec(epochs=3, batch_size=32, lr=1e-3),
                             seed=11)

    assert run() == run()


def test_checkpoint_round_trip(tmp_path):
    model = DropoutMlp.init(3, McDropoutSpec(hidden=8, dropout=0.35), make_rng(1))
    path = tmp_path / "dropout.json"
    model.save(path)
    clone = DropoutMlp.load(path)
    assert clone.dropout == model.dropout
    x = make_rng(2).standard_normal((6, 3))
    assert_allclose(model.deterministic_forward(x),
                    clone.deterministic_forward(x), rtol=0)
    # stochastic passes agree as well when driven by the same stream
    m1, v1 = mc_predict(model, x, passes=10, rng=make_rng(5))
    m2, v2 = mc_predict(clone, x, passes=10, rng=make_rng(5))
    assert_allclose(m1, m2, rtol=0)
    assert_allclose(v1, v2, rtol=0)
