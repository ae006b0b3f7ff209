import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from tessera.datagen import gen_heteroscedastic
from tessera.errors import ConfigError, DimensionError, TrainingError
from tessera.mc_dropout import (
    DropoutMlp,
    McDropoutSpec,
    mc_intervals,
    mc_predict,
    train_dropout,
)
from tessera.nn import ACTIVATIONS, Mlp, make_rng


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
    model = DropoutMlp.init(3, hidden=8, dropout=0.5, rng=make_rng(0))
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


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("widths", [(3, 1), (3, 16, 1), (3, 16, 8, 1)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mc_predict_matches_a_full_forward_per_pass_bitwise(activation, widths, dropout):
    net = Mlp.init(widths, activation, rng=make_rng(len(widths)))
    net.params += 0.1 * make_rng(3).standard_normal(net.n_params)  # nonzero biases
    model = DropoutMlp(net, dropout)
    x = make_rng(1).standard_normal((37, 3))
    got = mc_predict(model, x, passes=7, rng=make_rng(2))
    want = full_forward_per_pass(model, x, 7, make_rng(2))
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_mc_predict_rejects_wrong_input_width():
    model = DropoutMlp.init(3, hidden=8, rng=make_rng(0))
    with pytest.raises(DimensionError):
        mc_predict(model, np.zeros((4, 2)))


def test_mc_predict_rejects_single_pass():
    model = DropoutMlp.init(2, hidden=4, rng=make_rng(0))
    with pytest.raises(ConfigError):
        mc_predict(model, np.zeros((1, 2)), passes=1)


def test_dropout_rate_validation():
    net = Mlp.init((2, 4, 1), rng=make_rng(0))
    with pytest.raises(ConfigError):
        DropoutMlp(net, dropout=1.0)
    with pytest.raises(ConfigError):
        DropoutMlp(net, dropout=-0.1)
    with pytest.raises(DimensionError):
        DropoutMlp(Mlp.init((2, 4, 2), rng=make_rng(0)))


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


def test_interval_z_is_the_normal_quantile_bitwise():
    for alpha in np.concatenate((np.linspace(0.001, 0.999, 999), [1e-12, 0.05, 0.1, 1 - 1e-12])):
        z = mc_intervals([0.0], [1.0], alpha=alpha).upper[0]  # 0 + z * sqrt(1)
        assert z == norm.ppf(1.0 - alpha / 2.0) and z > 0, alpha


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
    ds = gen_heteroscedastic(500, 2, "constant", seed=5, noise_level=0.1)
    model = DropoutMlp.init(2, hidden=16, dropout=0.2, rng=make_rng(0))
    before = float(np.mean((model.deterministic_forward(ds.X) - ds.y) ** 2))
    history = train_dropout(model, ds.X, ds.y,
                            McDropoutSpec(epochs=20, batch_size=64, lr=5e-3),
                            seed=0)
    assert history[-1] < before
    assert history[-1] < history[0]
    assert len(history) == 20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_reports_epoch():
    ds = gen_heteroscedastic(200, 2, "constant", seed=6)
    model = DropoutMlp.init(2, hidden=8, dropout=0.5, rng=make_rng(3))
    # the first step throws the weights so far that the second gradient is inf
    with pytest.raises(TrainingError, match=r"optimizer step \d+ \(epoch 0\)"):
        train_dropout(model, ds.X, ds.y, McDropoutSpec(epochs=3, batch_size=32, lr=1e300),
                      seed=11)


def test_training_deterministic_given_seed():
    ds = gen_heteroscedastic(200, 2, "constant", seed=6)

    def run():
        model = DropoutMlp.init(2, hidden=8, dropout=0.5, rng=make_rng(3))
        return train_dropout(model, ds.X, ds.y,
                             McDropoutSpec(epochs=3, batch_size=32, lr=1e-3),
                             seed=11)

    assert run() == run()


def test_checkpoint_round_trip(tmp_path):
    model = DropoutMlp.init(3, hidden=8, dropout=0.35, rng=make_rng(1))
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
