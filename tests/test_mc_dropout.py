import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from gradcheck import finite_difference_gradients
from tessera import serialize
from tessera.conformal import build_intervals, gaussian_z
from tessera.datagen import DataSpec, gen_heteroscedastic
from tessera.errors import CalibrationError, ConfigError, DimensionError, TrainingError
from tessera.mc_dropout import DropoutMlp, McDropoutSpec, mc_predict, train_dropout
from tessera.nn import ACTIVATIONS, BLOCK_ROWS, Mlp, make_rng, row_blocks


def hand_identity_net(d=2, hidden=16, dropout=0.5):
    # all-ones weights, zero biases, identity activation: the stochastic
    # output is d * sum of the hidden masks, which has a closed-form
    # mean and variance under inverted dropout
    net = Mlp([np.ones((d, hidden)), np.ones((hidden, 1))],
              [np.zeros(hidden), np.zeros(1)], ["identity"])
    return DropoutMlp(net, dropout=dropout)


def assert_within_5_sigma(count, trials, prob):
    # oracle: count ~ Binomial(trials, prob); at prob 0 or 1 it is exact
    assert abs(count - trials * prob) <= 5.0 * math.sqrt(trials * prob * (1.0 - prob))


# keep 1/2 takes one random bit per entry, eight to a byte, so horizontally
# adjacent entries share a byte; every other keep thresholds a uniform
@pytest.mark.parametrize("keep", [0.5, 0.7, 0.3, 1.0])
def test_masks_are_independent_bernoulli_draws_of_keep(keep):
    rows, width = 20_000, 64  # 1.28M entries, 640k adjacent pairs
    model = hand_identity_net(hidden=width, dropout=1.0 - keep)
    keep = 1.0 - model.dropout  # as the model forms it: 1 - (1 - 0.3) is not 0.3
    (m,) = model.sample_masks(rows, make_rng(11))
    assert m.shape == (rows, width) and m.dtype == np.float64
    kept = m == 1.0 / keep
    assert np.all(kept | (m == 0.0))
    assert_within_5_sigma(np.count_nonzero(kept), m.size, keep)
    left, right = kept[:, 0::2], kept[:, 1::2]  # disjoint pairs (2j, 2j + 1)
    for a, b, prob in [(True, True, keep * keep), (True, False, keep * (1.0 - keep)),
                       (False, True, (1.0 - keep) * keep),
                       (False, False, (1.0 - keep) ** 2)]:
        assert_within_5_sigma(np.count_nonzero((left == a) & (right == b)), left.size, prob)


# dropout 0.5 draws its masks from random bits, 0.3 from thresholded uniforms
@pytest.mark.parametrize("p", [0.5, 0.3])
def test_mc_variance_matches_closed_form(p):
    d, hidden = 2, 16
    model = hand_identity_net(d, hidden, p)
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
    rng = make_rng(2)
    mean, var = mc_predict(model, x, passes=10, rng=rng)
    # every mask keeps every unit: one deterministic pass, and nothing drawn
    assert np.array_equal(var, np.zeros(5))
    assert np.array_equal(mean.view(np.uint64), model.deterministic_forward(x).view(np.uint64))
    assert rng.bit_generator.state == make_rng(2).bit_generator.state


def test_mc_predict_deterministic_given_seed():
    model = DropoutMlp.init(3, McDropoutSpec(hidden=8, dropout=0.5), make_rng(0))
    x = make_rng(1).standard_normal((4, 3))
    m1, v1 = mc_predict(model, x, passes=20, rng=make_rng(9))
    m2, v2 = mc_predict(model, x, passes=20, rng=make_rng(9))
    assert_allclose(m1, m2, rtol=0)
    assert_allclose(v1, v2, rtol=0)


def full_forward_per_pass(model, x, passes, rng):
    """mc_predict as one forward pass of the net per block and draw of masks:
    for each ``row_blocks`` block, ``passes`` draws of ``sample_masks``."""
    X = np.asarray(x, dtype=np.float64)
    draws = np.empty((passes, X.shape[0]))
    for rows in row_blocks(X.shape[0]):
        b = rows.stop - rows.start
        for t in range(passes):
            draws[t, rows] = model.net.forward(X[rows],
                                               hidden_masks=model.sample_masks(b, rng))[:, 0]
    return draws.mean(axis=0), draws.var(axis=0, ddof=1)


def assert_mc_predict_matches_a_full_forward_per_pass(activation, widths, dropout, rows,
                                                      bit_generator=np.random.PCG64):
    net = Mlp.init(widths, activation, rng=make_rng(len(widths)))
    net.params += 0.1 * make_rng(3).standard_normal(net.n_params)  # nonzero biases
    model = DropoutMlp(net, dropout)
    x = make_rng(1).standard_normal((rows, widths[0]))
    got_rng, want_rng = (np.random.Generator(bit_generator(2)) for _ in range(2))
    got = mc_predict(model, x, passes=7, rng=got_rng)
    if dropout == 0.0:  # all passes are the net's one forward pass, and draw nothing
        want = net.forward(x)[:, 0], np.zeros(rows)
    else:
        want = full_forward_per_pass(model, x, 7, want_rng)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    # both drew the same random numbers; MT19937 keeps its state in an array
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
    return got


# (3, 7, 1): at dropout 0.5 the mask bits do not fill whole bytes; at input
# width 16 the first layer's folded bias rounds differently from a separate
# bias add; (1, 1, 1) draws one mask bit per row; 64 is McDropoutSpec's
# default hidden width
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("widths", [(3, 16, 1), (3, 7, 1), (16, 16, 1), (1, 1, 1),
                                    (3, 64, 1), (16, 7, 1)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mc_predict_matches_a_full_forward_per_pass_bitwise(activation, widths, dropout):
    assert_mc_predict_matches_a_full_forward_per_pass(activation, widths, dropout, 37)


# mc_predict runs its masked layers in blocks of BLOCK_ROWS rows; 1/keep is a
# power of two at dropout 0.5 but not at 0.3
@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 7])
@pytest.mark.parametrize("dropout", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("widths", [(3, 16, 1), (16, 16, 1), (3, 7, 1)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mc_predict_matches_a_full_forward_per_pass_across_blocks(activation, widths,
                                                                  dropout, rows):
    assert_mc_predict_matches_a_full_forward_per_pass(activation, widths, dropout, rows)


@pytest.mark.parametrize("dropout", [0.3, 0.5])
@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
def test_mc_predict_accepts_any_bit_generator(bit_generator, dropout):
    widths = (3, 16, 1)
    first = assert_mc_predict_matches_a_full_forward_per_pass(
        "relu", widths, dropout, BLOCK_ROWS + 9, bit_generator)
    again = assert_mc_predict_matches_a_full_forward_per_pass(
        "relu", widths, dropout, BLOCK_ROWS + 9, bit_generator)
    pcg = assert_mc_predict_matches_a_full_forward_per_pass(
        "relu", widths, dropout, BLOCK_ROWS + 9)
    for f, a, p in zip(first, again, pcg):
        assert np.array_equal(f.view(np.uint64), a.view(np.uint64))
        assert not np.array_equal(f, p)  # the masks come from the generator given


def test_mc_predict_rejects_wrong_input_width():
    model = DropoutMlp.init(3, McDropoutSpec(hidden=8), make_rng(0))
    with pytest.raises(DimensionError):
        mc_predict(model, np.zeros((4, 2)), passes=10, rng=make_rng(0))
    # a single row is (1, 3), not a vector
    with pytest.raises(DimensionError, match=r"input must be \(n, 3\)"):
        mc_predict(model, np.zeros(3), passes=10, rng=make_rng(0))
    with pytest.raises(DimensionError, match=r"input must be \(n, 3\)"):
        model.deterministic_forward(np.zeros(3))


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


# mc_predict serves the one net DropoutMlp.init builds: one hidden layer, one output
@pytest.mark.parametrize("widths", [(2, 7, 4, 1), (3, 1), (2, 4, 2)])
def test_a_net_not_of_one_hidden_layer_is_refused(tmp_path, widths):
    net = Mlp.init(widths, "relu", make_rng(0))
    message = rf"one hidden layer and one output, not widths {re.escape(str(widths))}"
    with pytest.raises(DimensionError, match=message):
        DropoutMlp(net, dropout=0.5)
    # a checkpoint of that net, written as save would, is refused on load
    path = tmp_path / "mc_dropout.json"
    serialize.save_checkpoint(path, "mc_dropout", {"dropout": 0.5, "net": net.to_dict()})
    with pytest.raises(DimensionError, match=message):
        DropoutMlp.load(path)


# ------------------------------------------------------------ intervals

def test_interval_z_is_the_normal_quantile():
    z = gaussian_z(0.1)
    assert_allclose(z, norm.ppf(0.95), rtol=1e-12)
    assert_allclose(z, 1.6448536269514722, rtol=1e-12)


def assert_interval_z_within_3_eps(alpha):
    # oracle: the 40-digit quantile sqrt(2) erfinv(2p - 1) at the float p the
    # code forms
    z = gaussian_z(alpha)
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


def test_interval_z_at_an_alpha_that_rounds_p_to_one_is_infinite():
    # 1 - alpha / 2 rounds to 1.0, whose normal quantile is +inf
    assert gaussian_z(2.0 ** -53) == math.inf
    assert gaussian_z(1e-17) == math.inf
    assert math.isfinite(gaussian_z(2.0 ** -52))


def test_interval_z_alpha_05_quantile():
    assert_allclose(gaussian_z(0.05), 1.959963984540054, rtol=1e-12)


def test_interval_coverage_when_variance_is_exact():
    # oracle: y ~ N(mu, s^2) covered by mu +/- z s with probability 1 - alpha
    rng = make_rng(7)
    n = 20000
    mu = rng.standard_normal(n)
    s = 0.5 + rng.random(n)
    y = mu + s * rng.standard_normal(n)
    iv = build_intervals(mu, gaussian_z(0.1), s)
    cover = np.mean(iv.covers(y))
    assert abs(cover - 0.9) < 5 * np.sqrt(0.9 * 0.1 / n)


def test_interval_z_rejects_alpha_outside_the_unit_interval():
    for alpha in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(CalibrationError, match="alpha"):
            gaussian_z(alpha)


# ------------------------------------------------------------- training

def test_one_row_masked_backward_matches_finite_differences():
    model = DropoutMlp.init(3, McDropoutSpec(hidden=8, dropout=0.3), make_rng(4))
    net = model.net
    x, y = np.array([[0.3, -0.8, 1.2]]), np.array([0.5])
    # the first row of a batch-sized buffer, as train_dropout draws a short last batch
    masks = model.sample_masks(1, make_rng(5), out=[np.empty((4, 8))])
    assert masks[0].shape == (1, 8) and 0 < np.count_nonzero(masks[0]) < 8
    # a central difference that straddles relu's kink is no check
    assert np.abs(x @ net.weights[0] + net.biases[0]).min() >= 1e-3
    out, cache = net.forward_cache(x, hidden_masks=masks)
    grads = net.backward(cache, 2.0 * (out - y[:, None]))

    def loss():
        return float(np.sum((net.forward(x, hidden_masks=masks) - y[:, None]) ** 2))

    fd = finite_difference_gradients(loss, net.params, h=1e-6)
    denom = np.maximum(np.maximum(np.abs(grads), np.abs(fd)), 1e-8)
    assert np.max(np.abs(grads - fd) / denom) < 1e-4


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
