import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from gradcheck import finite_difference_gradients
from tessera import serialize
from tessera.datagen import DataSpec, gen_heteroscedastic
from tessera.errors import CheckpointError, ConfigError, DimensionError, TrainingError
from tessera.mc_dropout import DropoutMlp, McDropoutSpec, mc_predict
from tessera.moe import (
    LOG_2PI,
    MixturePrediction,
    ModelSpec,
    MoeModel,
    TrainSpec,
    mixture_log_pdf,
    mixture_nll,
    mixture_nll_loss,
    train_moe,
)
from tessera.nn import ACTIVATIONS, BLOCK_ROWS, AdamState, Mlp, adam_step, make_rng, \
    row_blocks, softmax_lse, softplus


def two_component():
    return MixturePrediction(w=[[0.5, 0.5]], mu=[[-1.0, 1.0]], sigma2=[[1.0, 1.0]])


# ------------------------------------------------------- decomposition

def test_hand_decomposition():
    pred = two_component()
    assert_allclose(pred.mean, [0.0], atol=1e-15)
    assert_allclose(pred.epistemic, [1.0], rtol=1e-12)
    assert_allclose(pred.aleatoric, [1.0], rtol=1e-12)


def test_weighted_mean_and_aleatoric():
    pred = MixturePrediction(w=[[0.25, 0.75]], mu=[[2.0, -2.0]], sigma2=[[4.0, 1.0]])
    assert_allclose(pred.mean, [0.25 * 2 - 0.75 * 2], rtol=1e-12)
    assert_allclose(pred.aleatoric, [np.sqrt(0.25 * 4 + 0.75 * 1)], rtol=1e-12)


def test_epistemic_ignores_gate_weights():
    mu = [[0.0, 3.0, -3.0]]
    s2 = [[1.0, 1.0, 1.0]]
    a = MixturePrediction(w=[[1 / 3, 1 / 3, 1 / 3]], mu=mu, sigma2=s2)
    b = MixturePrediction(w=[[0.98, 0.01, 0.01]], mu=mu, sigma2=s2)
    assert_allclose(a.epistemic, b.epistemic, rtol=0)
    # explicit RMS deviation of the means
    dev = np.array(mu[0]) - np.mean(mu[0])
    assert_allclose(a.epistemic, [np.sqrt(np.mean(dev ** 2))], rtol=1e-12)


def test_epistemic_zero_iff_means_agree():
    same = MixturePrediction(w=[[0.7, 0.3]], mu=[[1.5, 1.5]], sigma2=[[1.0, 2.0]])
    assert same.epistemic[0] == 0.0
    differ = MixturePrediction(w=[[0.7, 0.3]], mu=[[1.5, 1.500001]], sigma2=[[1.0, 2.0]])
    assert differ.epistemic[0] > 0.0


def test_prediction_validation():
    with pytest.raises(DimensionError):
        MixturePrediction(w=[[0.5, 0.6]], mu=[[0.0, 0.0]], sigma2=[[1.0, 1.0]])
    with pytest.raises(DimensionError):
        MixturePrediction(w=[[0.5, 0.5]], mu=[[0.0, 0.0]], sigma2=[[1.0, 0.0]])
    with pytest.raises(DimensionError):
        MixturePrediction(w=[[1.0]], mu=[[0.0, 0.0]], sigma2=[[1.0, 1.0]])


# ------------------------------------------------------------- density

def at_points(pred, ys):
    """The one-row ``pred`` repeated once per query point in ``ys``."""
    rows = (len(ys), pred.w.shape[1])
    return MixturePrediction(np.broadcast_to(pred.w, rows), np.broadcast_to(pred.mu, rows),
                             np.broadcast_to(pred.sigma2, rows))


def test_single_component_matches_norm_pdf():
    ys = np.linspace(-4, 6, 11)
    pred = at_points(MixturePrediction(w=[[1.0]], mu=[[0.7]], sigma2=[[2.25]]), ys)
    assert_allclose(np.exp(mixture_log_pdf(pred, ys)),
                    norm.pdf(ys, loc=0.7, scale=1.5), rtol=1e-12)


def test_two_component_hand_density():
    pred = two_component()
    want = 0.5 * norm.pdf(0.0, -1.0, 1.0) + 0.5 * norm.pdf(0.0, 1.0, 1.0)
    assert_allclose(np.exp(mixture_log_pdf(pred, 0.0)), want, rtol=1e-12)
    assert_allclose(mixture_log_pdf(pred, 0.0), np.log(want), rtol=1e-12)


def test_density_integrates_to_one():
    ys = np.linspace(-20, 25, 20001)
    pred = at_points(MixturePrediction(w=[[0.2, 0.5, 0.3]], mu=[[-2.0, 0.5, 3.0]],
                                       sigma2=[[0.25, 1.0, 4.0]]), ys)
    mass = np.trapezoid(np.exp(mixture_log_pdf(pred, ys)), ys)
    assert_allclose(mass, 1.0, atol=1e-9)


def test_density_pairs_rows_with_targets():
    pred = MixturePrediction(w=[[1.0], [1.0]], mu=[[0.0], [5.0]], sigma2=[[1.0], [1.0]])
    out = np.exp(mixture_log_pdf(pred, [0.0, 5.0]))
    assert_allclose(out, [norm.pdf(0.0), norm.pdf(0.0)], rtol=1e-12)
    with pytest.raises(DimensionError):
        mixture_log_pdf(pred, [0.0, 1.0, 2.0])
    with pytest.raises(DimensionError):  # a one-row prediction pairs with one target too
        mixture_log_pdf(two_component(), [0.0, 1.0])


def test_log_pdf_survives_tiny_gate_weight():
    pred = MixturePrediction(w=[[1.0, 0.0]], mu=[[0.0, 50.0]], sigma2=[[1.0, 1.0]])
    assert_allclose(mixture_log_pdf(pred, 0.0), norm.logpdf(0.0), rtol=1e-12)


# ------------------------------------------------------------- forward

def test_forward_shapes_and_floor():
    model = MoeModel.init(3, ModelSpec(n_experts=4, expert_hidden=8, var_floor=1e-6), make_rng(0))
    X = make_rng(1).standard_normal((10, 3))
    pred = model.forward(X)
    assert pred.w.shape == (10, 4)
    assert np.all(pred.sigma2 >= 1e-6)
    assert_allclose(pred.w.sum(axis=1), np.ones(10), atol=1e-12)


def test_variance_floor_under_extreme_negative_raw_head():
    model = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=4, var_floor=1e-6), make_rng(0))
    # force every expert's raw-variance head output to a huge negative value
    model.experts.weights[-1][..., 1] = 0.0
    model.experts.biases[-1][:, 1] = -1e4
    pred = model.forward(np.zeros((3, 2)))
    assert_allclose(pred.sigma2, np.full((3, 2), 1e-6), rtol=0, atol=0)


def test_forward_matches_hand_computation_single_expert():
    model = MoeModel.init(2, ModelSpec(n_experts=1, expert_hidden=4), make_rng(5))
    x = np.array([[0.3, -0.7]])
    out = model.experts.forward(x)[0]
    pred = model.forward(x)
    assert_allclose(pred.w, [[1.0]], rtol=0)
    assert_allclose(pred.mu, [[out[0, 0]]], rtol=0)
    assert_allclose(pred.sigma2, [[softplus(out[0, 1]) + model.var_floor]], rtol=1e-15)
    assert pred.epistemic[0] == 0.0


def test_forward_matches_experts_one_by_one_bitwise():
    # K >= 8 engages numpy's pairwise row sums, whose order depends on layout
    k, n = 10, 500
    model = MoeModel.init(3, ModelSpec(n_experts=k, expert_hidden=5), make_rng(29))
    X = make_rng(30).standard_normal((n, 3))
    mu, raw = np.empty((n, k)), np.empty((n, k))
    for j, expert in enumerate(model.experts.unstack()):
        mu[:, j], raw[:, j] = expert.forward(X).T
    ref = MixturePrediction(softmax_lse(model.gate.forward(X))[1], mu,
                            softplus(raw) + model.var_floor)
    pred = model.forward(X)
    for name in ("mean", "aleatoric", "epistemic"):
        assert np.array_equal(getattr(pred, name), getattr(ref, name)), name


@pytest.mark.parametrize("rows", [BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 7])
def test_forward_and_val_loss_match_a_per_block_reference_bitwise(rows):
    model = MoeModel.init(3, ModelSpec(n_experts=4, expert_hidden=16, gate="mlp", gate_hidden=8),
                          make_rng(31))
    rng = make_rng(32)
    X = rng.standard_normal((rows, 3))
    y = rng.standard_normal(rows)
    blocks = row_blocks(rows)
    logits = np.concatenate([model.gate.forward_cache(X[b])[0] for b in blocks])
    out = np.concatenate([model.experts.forward_cache(X[b])[0] for b in blocks], axis=1)
    lse, w = softmax_lse(logits)
    mu, s2 = out[..., 0].T, softplus(out[..., 1].T) + model.var_floor
    pred = model.forward(X)
    for got, want in ((pred.w, w), (pred.mu, mu), (pred.sigma2, s2)):
        assert np.array_equal(got, want)
    # the loss runs on K-major (K, n) heads, so the component formula does too
    mu, s2, resid = mu.T, s2.T, y - mu.T
    z = resid * (1.0 / s2)
    comp = -0.5 * (LOG_2PI + np.log(s2) + resid * z) + (logits.T - lse)
    assert mixture_nll_loss(model, X, y) == float(-softmax_lse(comp.T)[0].mean())


def test_zero_rows_raise_the_softmax_dimension_error():
    model = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=4), make_rng(0))
    with pytest.raises(DimensionError, match="softmax_lse requires a nonempty"):
        model.forward(np.zeros((0, 2)))
    with pytest.raises(DimensionError, match="softmax_lse requires a nonempty"):
        mixture_nll_loss(model, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DimensionError, match="softmax_lse requires a nonempty"):
        mixture_nll(model, np.zeros((0, 2)), np.zeros(0))


def mc_block_bytes(passes, hidden):
    """What mc_predict holds for one block of rows: its (passes, block)
    draws, and its first-layer activation, mask buffer and matmul output."""
    return 8 * (BLOCK_ROWS + 1) * (passes + 3 * hidden)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("hidden", [16, 128])
@pytest.mark.parametrize("call", ["forward", "nll_loss", "deterministic_forward",
                                  "mc_predict"])
def test_inference_at_large_n_allocates_linear_memory(call, hidden):
    # bounds in float64 n-vectors, none growing with the hidden width, plus
    # one block's working set for mc_predict. A pass holding every row's
    # hidden activations at once would need K * hidden vectors, and an
    # mc_predict holding every row's draws or first-layer activation would
    # need passes or hidden vectors.
    n, k, passes = 20_000, 4, 50
    rng = make_rng(33)
    X = rng.standard_normal((n, 3))
    y = rng.standard_normal(n)
    moe = MoeModel.init(3, ModelSpec(n_experts=k, expert_hidden=hidden), make_rng(34))
    dropout = DropoutMlp.init(3, McDropoutSpec(hidden=hidden), make_rng(35))
    run, bound = {
        "forward": (lambda: moe.forward(X), 12 * k * 8 * n),
        "nll_loss": (lambda: mixture_nll_loss(moe, X, y), 12 * k * 8 * n),
        "deterministic_forward": (lambda: dropout.deterministic_forward(X), 12 * 8 * n),
        "mc_predict": (lambda: mc_predict(dropout, X, passes, make_rng(36)),
                       4 * 8 * n + mc_block_bytes(passes, hidden)),
    }[call]
    assert traced_peak(run) < bound


@pytest.mark.parametrize("passes, hidden", [(2, 1), (2, 96), (96, 1), (96, 96)])
def test_mc_predict_peak_does_not_grow_with_passes_or_hidden(passes, hidden):
    # at n = 8 blocks, draws or a first-layer activation held for every row
    # would take 8 times a block's
    n = 8 * BLOCK_ROWS
    X = make_rng(37).standard_normal((n, 3))
    dropout = DropoutMlp.init(3, McDropoutSpec(hidden=hidden), make_rng(38))
    peak = traced_peak(lambda: mc_predict(dropout, X, passes, make_rng(39)))
    assert peak < 4 * 8 * n + mc_block_bytes(passes, hidden)


@pytest.mark.parametrize("spec", [
    ModelSpec(),
    ModelSpec(n_experts=3, expert_hidden=5, gate="mlp", gate_hidden=7, activation="relu",
              var_floor=1e-3),
    ModelSpec(n_experts=1, expert_hidden=9, gate="linear", gate_hidden=2,
              activation="identity", var_floor=0.25),
], ids=["default", "mlp_gate", "linear_gate"])
def test_init_builds_the_model_its_spec_describes(spec):
    model = MoeModel.init(3, spec, make_rng(0))
    k, act = spec.n_experts, spec.activation
    gate_widths = (3, k) if spec.gate == "linear" else (3, spec.gate_hidden, k)
    assert model.gate.widths == gate_widths
    assert model.gate.activations == (act,) * (len(gate_widths) - 2)
    assert model.experts.weights[0].shape[0] == model.n_experts == k
    assert model.experts.widths == (3, spec.expert_hidden, 2)
    assert model.experts.activations == (act,)
    assert model.var_floor == spec.var_floor
    # a raw variance far below zero leaves the floor alone: softplus(-1e3) is 0
    for b in model.experts.biases[-1]:
        b[1] = -1e3
    model.experts.weights[-1][..., 1] = 0.0
    assert np.all(model.forward(np.ones((4, 3))).sigma2 == spec.var_floor)


def test_gate_kinds():
    linear = MoeModel.init(3, ModelSpec(n_experts=2, gate="linear"), make_rng(0))
    assert linear.gate.n_layers == 1
    mlp = MoeModel.init(3, ModelSpec(n_experts=2, gate="mlp", gate_hidden=6), make_rng(0))
    assert mlp.gate.n_layers == 2
    assert mlp.gate.widths[1] == 6
    with pytest.raises(ConfigError, match="gate 'softmax-tree'"):
        ModelSpec(gate="softmax-tree")


# ----------------------------------------------------------------- nll

def brute_force_nll(model, X, y):
    pred = model.forward(X)
    total = 0.0
    for i in range(len(y)):
        mix = 0.0
        for k in range(pred.w.shape[1]):
            mix += pred.w[i, k] * norm.pdf(y[i], pred.mu[i, k],
                                           np.sqrt(pred.sigma2[i, k]))
        total += -np.log(mix)
    return total / len(y)


def test_nll_matches_brute_force():
    model = MoeModel.init(3, ModelSpec(n_experts=3, expert_hidden=6), make_rng(2))
    rng = make_rng(3)
    X = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    loss, _ = mixture_nll(model, X, y)
    assert_allclose(loss, brute_force_nll(model, X, y), rtol=1e-10)
    assert_allclose(mixture_nll_loss(model, X, y), loss, rtol=0)


@pytest.mark.parametrize("gate_kind,n_experts", [("linear", 2), ("mlp", 3), ("linear", 1),
                                                 ("mlp", 10)])
def test_nll_gradients_match_finite_differences(gate_kind, n_experts):
    spec = ModelSpec(n_experts=n_experts, expert_hidden=5, gate=gate_kind, gate_hidden=4)
    model = MoeModel.init(2, spec, make_rng(7))
    rng = make_rng(8)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    _, grads = mixture_nll(model, X, y)

    def loss():
        return mixture_nll_loss(model, X, y)

    fd = finite_difference_gradients(loss, model.params, h=1e-5)
    denom = np.maximum(np.maximum(np.abs(grads), np.abs(fd)), 1e-8)
    assert np.max(np.abs(grads - fd) / denom) < 1e-4


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_one_row_single_expert_nll_gradients_match_finite_differences(activation):
    # every (K, n) head is 1 x 1, and the lone expert's gate weight is exactly 1
    spec = ModelSpec(n_experts=1, expert_hidden=5, gate="mlp", gate_hidden=4,
                     activation=activation)
    model = MoeModel.init(2, spec, make_rng(11))
    model.params += 0.3 * make_rng(12).standard_normal(model.params.size)
    X, y = np.array([[0.4, -1.1]]), np.array([0.7])
    # a central difference that straddles relu's kink is no check
    for net in (model.gate, model.experts):
        assert np.abs(X @ net.weights[0] + net.biases[0][..., None, :]).min() >= 1e-3
    _, grads = mixture_nll(model, X, y)

    def loss():
        return mixture_nll_loss(model, X, y)

    fd = finite_difference_gradients(loss, model.params, h=1e-5)
    assert np.all(grads[:model.gate.n_params] == 0.0) and np.all(fd[:model.gate.n_params] == 0.0)
    denom = np.maximum(np.maximum(np.abs(grads), np.abs(fd)), 1e-8)
    assert np.max(np.abs(grads - fd) / denom) < 1e-4


def test_nll_gate_gradient_sums_to_zero_per_row():
    # softmax invariance: shifting all logits of a row leaves the loss alone
    model = MoeModel.init(2, ModelSpec(n_experts=4, expert_hidden=5), make_rng(9))
    rng = make_rng(10)
    X = rng.standard_normal((8, 2))
    y = rng.standard_normal(8)
    _, grads = mixture_nll(model, X, y)
    # linear gate: [W, b] lead the vector, so its bias ends the gate's part
    gate_bias_grad = grads[model.gate.n_params - model.n_experts:model.gate.n_params]
    assert abs(gate_bias_grad.sum()) < 1e-12


def test_nll_rejects_mismatched_targets():
    model = MoeModel.init(2, ModelSpec(n_experts=2), make_rng(0))
    with pytest.raises(DimensionError):
        mixture_nll(model, np.zeros((3, 2)), np.zeros(4))
    # the targets of a one-row batch would broadcast across the (K, 1) heads
    for loss in (mixture_nll, mixture_nll_loss):
        with pytest.raises(DimensionError, match="one target per row"):
            loss(model, np.zeros((1, 2)), np.zeros(2))


# ------------------------------------------------------------ training

@pytest.fixture(scope="module")
def small_data():
    ds = gen_heteroscedastic(DataSpec(n=600, dim=2, noise_profile="step"), 123)
    return ds.X[:400], ds.y[:400], ds.X[400:], ds.y[400:]


def test_training_reduces_validation_nll(small_data):
    X, y, Xv, yv = small_data
    model = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=8), make_rng(0))
    before = mixture_nll_loss(model, Xv, yv)
    hist = train_moe(model, X, y, Xv, yv,
                     TrainSpec(epochs=15, batch_size=64, lr=5e-3), seed=0)
    after = mixture_nll_loss(model, Xv, yv)
    assert after < before
    assert len(hist.train_nll) == len(hist.val_nll) == 15
    # the restored parameters realize the best validation epoch
    assert_allclose(after, min(hist.val_nll), rtol=1e-12)
    assert hist.best_epoch == int(np.argmin(hist.val_nll))


def test_training_is_seed_deterministic(small_data):
    X, y, Xv, yv = small_data

    def run():
        model = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=8), make_rng(4))
        hist = train_moe(model, X, y, Xv, yv,
                         TrainSpec(epochs=3, batch_size=64, lr=1e-3), seed=5)
        return hist, model.forward(Xv[:5])

    h1, p1 = run()
    h2, p2 = run()
    assert h1.train_nll == h2.train_nll
    assert h1.val_nll == h2.val_nll
    assert_allclose(p1.mu, p2.mu, rtol=0)


@pytest.mark.parametrize("batch_size", [400, 1000])
def test_train_nll_of_one_full_batch_is_the_loss_before_its_step(small_data, batch_size):
    X, y, Xv, yv = small_data
    model = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=8), make_rng(0))
    order = make_rng(7).permutation(len(y))  # train_moe's first shuffle under seed 7
    untrained = mixture_nll_loss(model, X[order], y[order])
    hist = train_moe(model, X, y, Xv, yv,
                     TrainSpec(epochs=2, batch_size=batch_size, lr=1e-3), seed=7)
    assert hist.train_nll[0] == untrained


def test_train_nll_weights_each_minibatch_loss_by_its_rows(small_data):
    X, y, Xv, yv = small_data
    spec = TrainSpec(epochs=2, batch_size=64, lr=5e-3)  # 400 rows: 6 batches of 64, 1 of 16
    hist = train_moe(MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=8), make_rng(1)),
                     X, y, Xv, yv, spec, seed=3)
    replay = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=8), make_rng(1))
    rng, state = make_rng(3), AdamState(replay.params, lr=spec.lr)
    for epoch in range(spec.epochs):
        order = rng.permutation(len(y))
        losses, rows = [], []
        for start in range(0, len(y), spec.batch_size):
            idx = order[start:start + spec.batch_size]
            loss, grads = mixture_nll(replay, X[idx], y[idx])
            losses.append(loss)
            rows.append(len(idx))
            adam_step(state, replay.params, grads)
        assert rows[-1] == 16
        want = np.dot(losses, rows) / len(y)
        assert_allclose(hist.train_nll[epoch], want, rtol=1e-12)
        assert abs(np.mean(losses) - want) > 1e-9 * abs(want)  # the weighting shows


def test_training_divergence_reports_epoch(small_data):
    X, y, Xv, yv = small_data
    model = MoeModel.init(2, ModelSpec(n_experts=2, expert_hidden=8), make_rng(0))
    with pytest.raises(TrainingError, match=r"epoch \d"):
        # squared residuals overflow, so the very first batch loss is inf
        train_moe(model, X, y * 1e200, Xv, yv * 1e200,
                  TrainSpec(epochs=3, batch_size=64, lr=1e-3), seed=0)


def test_empty_sets_rejected(small_data):
    X, y, Xv, yv = small_data
    model = MoeModel.init(2, ModelSpec(n_experts=2), make_rng(0))
    with pytest.raises(DimensionError):
        train_moe(model, X[:0], y[:0], Xv, yv, TrainSpec(epochs=1), seed=0)


# ---------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_bitwise(tmp_path):
    model = MoeModel.init(3, ModelSpec(n_experts=4, expert_hidden=8), make_rng(21))
    path = tmp_path / "model.json"
    model.save(path)
    clone = MoeModel.load(path)
    X = make_rng(22).standard_normal((20, 3))
    a, b = model.forward(X), clone.forward(X)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.sigma2, b.sigma2)
    assert clone.var_floor == model.var_floor


@pytest.mark.parametrize("cls", [MoeModel, DropoutMlp], ids=["moe", "mc_dropout"])
def test_checkpoint_rejects_wrong_kind(tmp_path, cls):
    def fresh(cls):
        return cls.init(2, {MoeModel: ModelSpec, DropoutMlp: McDropoutSpec}[cls](), make_rng(0))

    path = tmp_path / "model.json"
    fresh(cls).save(path)
    saved = json.loads(path.read_text())
    for key, value, message in (("kind", "linear_regression", "kind"),
                                ("format_version", 99, "version")):
        path.write_text(json.dumps({**saved, key: value}))
        with pytest.raises(CheckpointError, match=message):
            cls.load(path)
    other = DropoutMlp if cls is MoeModel else MoeModel
    fresh(other).save(path)
    with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: checkpoint kind")):
        cls.load(path)


def test_checkpoint_bytes_match_per_expert_dicts(tmp_path):
    # the stacked experts are written as the per-expert list they came from
    rng = make_rng(25)
    gate = Mlp.init((3, 5, 4), "relu", rng=rng)
    experts = [Mlp.init((3, 6, 2), "relu", rng=rng) for _ in range(4)]
    for net in [gate, *experts]:
        net.params += rng.standard_normal(net.n_params)
    expected = tmp_path / "expected.json"
    serialize.save_checkpoint(expected, "moe", {
        "var_floor": 1e-5, "gate": gate.to_dict(),
        "experts": [ex.to_dict() for ex in experts]})
    path = tmp_path / "model.json"
    MoeModel(gate, experts, var_floor=1e-5).save(path)
    assert path.read_bytes() == expected.read_bytes()


def test_experts_must_share_one_shape():
    rng = make_rng(26)
    gate = Mlp.init((3, 2), "tanh", rng)
    with pytest.raises(DimensionError, match="differs in shape"):
        MoeModel(gate, [Mlp.init((3, 6, 2), "tanh", rng), Mlp.init((3, 5, 2), "tanh", rng)],
                 1e-6)
    with pytest.raises(DimensionError, match="differs in shape"):
        MoeModel(gate, [Mlp.init((3, 6, 2), "tanh", rng=rng),
                        Mlp.init((3, 6, 2), "relu", rng=rng)], 1e-6)


def test_set_parameters_restores_a_snapshot():
    model = MoeModel.init(2, ModelSpec(n_experts=3, expert_hidden=4), make_rng(27))
    X = make_rng(28).standard_normal((5, 2))
    snapshot, before = model.params.copy(), model.forward(X)
    model.params += 1.0
    assert not np.array_equal(model.forward(X).mu, before.mu)
    model.set_parameters(snapshot)
    assert np.array_equal(model.forward(X).mu, before.mu)
    with pytest.raises(DimensionError):
        model.set_parameters(snapshot[:-1])


def test_checkpoint_compact_format_still_loads(tmp_path):
    # checkpoints were once written as one compact line; they must still load
    model = MoeModel.init(3, ModelSpec(n_experts=3, expert_hidden=6), make_rng(23))
    path = tmp_path / "model.json"
    model.save(path)
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True) + "\n")
    assert compact.read_text() != path.read_text()
    clone = MoeModel.load(compact)
    X = make_rng(24).standard_normal((10, 3))
    a, b = model.forward(X), clone.forward(X)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.sigma2, b.sigma2)


# ------------------------------------------------------------ property

@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_decomposition_invariants_random_models(k, seed):
    rng = make_rng(seed)
    model = MoeModel.init(2, ModelSpec(n_experts=k, expert_hidden=3), rng)
    X = rng.standard_normal((4, 2))
    pred = model.forward(X)
    assert np.all(pred.sigma2 >= model.var_floor)
    assert np.all(pred.aleatoric > 0.0)
    assert np.all(pred.epistemic >= 0.0)
    if k == 1:
        assert_allclose(pred.epistemic, np.zeros(4), atol=0)
    lo = pred.mu.min(axis=1) - 1e-12
    hi = pred.mu.max(axis=1) + 1e-12
    assert np.all((pred.mean >= lo) & (pred.mean <= hi))
