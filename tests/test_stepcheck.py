"""The lean training-step kernels against the plain formulations in
``stepcheck``, bit for bit."""

import numpy as np
import pytest

import stepcheck
from tessera.datagen import DataSpec, gen_heteroscedastic
from tessera.errors import DimensionError
from tessera.mc_dropout import DropoutMlp, McDropoutSpec, train_dropout
from tessera.moe import ModelSpec, MoeModel, TrainSpec, mixture_nll, train_moe
from tessera.nn import ACTIVATIONS, AdamState, Mlp, adam_step, make_rng, softmax_lse

# finite rows whose spread overflows a float64 difference, plus ties
_HUGE = np.array([[1e308, -1e308, 1.5e308], [-1e308, -1.7e308, -1e308],
                  [1.7e308, 1.7e308, -1.7e308], [-1.7e308, 1e-300, 1.7e308],
                  [3.0, 3.0, 3.0], [0.0, -0.0, 1.0]])
# same-sign rows near +-1e308: max subtraction cannot overflow
_LARGE = np.array([[1e308, 1.7e308, 1.5e308], [-1e308, -1.7e308, -1.2e308],
                   [1.7e308, 1.7e308, 1e307], [-3.0, -3.0, -3.0]])
# entries from a small pool: most rows hold a tie beside entries that are not
_TIED = make_rng(1).choice([0.0, 0.5, 1.3, -2.1, 7.7], size=(200, 4))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_model(gate, activation, seed, k=4, dim=3, hidden=16):
    spec = ModelSpec(n_experts=k, expert_hidden=hidden, gate=gate, gate_hidden=8,
                     activation=activation)
    model = MoeModel.init(dim, spec, make_rng(seed))
    model.params += 0.3 * make_rng(seed + 1).standard_normal(model.params.size)
    return model


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [_HUGE, _LARGE, np.asfortranarray(_HUGE), _TIED,
                               make_rng(0).standard_normal((128, 4))])
def test_softmax_lse_matches_reference(a):
    # (n, K) and (K, n), each stored both ways: K = 3, 4, 6, 128 and 200
    for rows in (a, a.T, np.ascontiguousarray(a.T), np.asfortranarray(a)):
        lse, p = softmax_lse(rows)
        want_lse, want_p = stepcheck.softmax_lse(rows)
        assert same_bits(lse, want_lse) and same_bits(p, want_p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gate", ["linear", "mlp"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("n", [1, 5, 128])
def test_mixture_nll_matches_reference(gate, activation, n):
    model = random_model(gate, activation, seed=n)
    rng = make_rng(100 + n)
    x, y = rng.standard_normal((n, 3)), 2.0 * rng.standard_normal(n)
    loss, grad = mixture_nll(model, x, y)
    want_loss, want_grad = stepcheck.mixture_nll(model, x, y)
    assert same_bits(loss, want_loss) and same_bits(grad, want_grad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("all_tied", [True, False])
def test_mixture_nll_with_tied_logits_matches_reference(all_tied):
    # tied logits put several exact e^0 = 1 terms in a row's sum: either
    # every logit of a row ties, or experts 0 and 1 share their gate column
    # and lead each row
    model = random_model("linear", "tanh", seed=4)
    w, b = model.gate.weights[0], model.gate.biases[0]
    if all_tied:
        w[...], b[...] = 0.0, 0.5
    else:
        w[:, 1], b[:] = w[:, 0], [9.0, 9.0, 0.0, -1.0]
    rng = make_rng(5)
    x, y = rng.standard_normal((64, 3)), rng.standard_normal(64)
    logits = model.gate.forward(x)
    assert np.all(logits[:, 0] == logits[:, 1]) and np.all(logits.argmax(axis=1) == 0)
    loss, grad = mixture_nll(model, x, y)
    want_loss, want_grad = stepcheck.mixture_nll(model, x, y)
    assert same_bits(loss, want_loss) and same_bits(grad, want_grad)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("masked", [False, True])
# (3, 6, 1, 1): the delta past each one-unit layer is an outer product
@pytest.mark.parametrize("widths", [(3, 6, 5, 2), (3, 6, 1, 1)])
def test_backward_matches_reference_and_fills_only_its_buffer(activation, stacked, masked,
                                                              widths):
    nets = [Mlp.init(widths, activation, rng=make_rng(s)) for s in range(3)]
    net = Mlp.stack(nets) if stacked else nets[0]
    net.params += 0.2 * make_rng(7).standard_normal(net.n_params)
    rng = make_rng(8)
    lead = (3,) if stacked else ()
    masks = [np.multiply(rng.random(lead + (9, w)) < 0.6, 1.0 / 0.6) for w in widths[1:-1]]
    out, cache = net.forward_cache(rng.standard_normal((9, 3)),
                                   hidden_masks=masks if masked else None)
    upstream = rng.standard_normal(out.shape)
    want = stepcheck.backward(net, cache, upstream)
    assert same_bits(net.backward(cache, upstream), want)
    buf = np.full(net.n_params + 7, np.nan)
    view = buf[3:-4]
    assert net.backward(cache, upstream, out=view) is view
    assert same_bits(view, want)
    assert np.isnan(buf[:3]).all() and np.isnan(buf[-4:]).all()


@pytest.mark.parametrize("stacked", [False, True])
def test_backward_workspace_gives_the_bits_of_fresh_views(stacked):
    # backward keeps the views of the last ``out`` it filled and the ones
    # vector of the last batch size; every call must still give what the
    # reference, which builds both afresh, gives
    nets = [Mlp.init((3, 6, 5, 2), "tanh", rng=make_rng(s)) for s in range(3)]
    net = Mlp.stack(nets) if stacked else nets[0]
    net.params += 0.2 * make_rng(7).standard_normal(net.n_params)
    rng = make_rng(10)

    def step(rows, out):
        got, cache = net.forward_cache(rng.standard_normal((rows, 3)))
        upstream = rng.standard_normal(got.shape)
        want = stepcheck.backward(net, cache, upstream)
        got = net.backward(cache, upstream, out=out)
        assert same_bits(got, want)
        return got

    a, b = np.empty(net.n_params), np.empty(net.n_params)
    for out in (a, b, a, b):  # two vectors alternately
        assert step(9, out) is out
    kept = a.copy()
    step(9, b)
    assert same_bits(a, kept)  # filling b left a alone
    fresh = step(9, None)
    assert fresh is not a and fresh is not b
    assert step(9, None) is not fresh
    net.bind(np.empty(net.n_params))  # new parameter storage, the same values
    net.params += 0.1 * rng.standard_normal(net.n_params)
    for out in (a, a, b):
        step(9, out)
    for rows in (4, 1, 4, 9):  # the ones vector follows the batch size
        step(rows, a)


@pytest.mark.parametrize("gate", ["linear", "mlp"])
def test_mixture_nll_into_out_returns_it_with_the_bits_of_a_fresh_vector(gate):
    model = random_model(gate, "tanh", seed=11)
    rng = make_rng(12)
    g, h = np.empty_like(model.params), np.empty_like(model.params)
    for out, n in ((g, 16), (g, 16), (h, 16), (g, 5), (h, 1), (h, 1)):
        x, y = rng.standard_normal((n, 3)), rng.standard_normal(n)
        loss, grad = mixture_nll(model, x, y, out=out)
        want_loss, want_grad = stepcheck.mixture_nll(model, x, y)
        assert grad is out
        assert same_bits(loss, want_loss) and same_bits(grad, want_grad)
        model.params -= 1e-2 * grad  # the next step sees new parameters
    loss, grad = mixture_nll(model, x, y)
    assert grad is not g and grad is not h
    assert mixture_nll(model, x, y, out=g) == (loss, g)
    assert same_bits(grad, g)
    with pytest.raises(DimensionError, match="out must be a float64 vector"):
        mixture_nll(model, x, y, out=np.empty(model.params.size + 1))


@pytest.mark.parametrize("lr", [1e-3, 0.05, 1e-4])
def test_adam_step_matches_reference(lr):
    rng = make_rng(9)
    params = rng.standard_normal(50)
    want = params.copy()
    state = AdamState(params, lr=lr)
    ref = stepcheck.Adam(want, lr)
    for _ in range(25):
        g = rng.standard_normal(50) * 10.0 ** rng.uniform(-8, 3, 50)
        adam_step(state, params, g)
        ref.step(want, g)
        assert same_bits(params, want)
        assert same_bits(state.m, ref.m) and same_bits(state.v, ref.v)


@pytest.mark.parametrize("dropout", [0.0, 0.1, 0.5, 0.9])
def test_sample_masks_match_reference(dropout):
    net = Mlp.init((2, 7, 1), "relu", rng=make_rng(0))
    model = DropoutMlp(net, dropout=dropout)
    # 13 rows of 7 units: at dropout 0.5 they do not fill whole bytes
    got_rng, want_rng = make_rng(3), make_rng(3)
    got = model.sample_masks(13, got_rng)
    want = stepcheck.sample_masks(model, 13, want_rng)
    assert len(got) == len(want) == 1
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.fixture(scope="module")
def ragged_data():
    # 33 train rows in batches of 8: the last batch holds a single row
    ds = gen_heteroscedastic(DataSpec(n=50, dim=3, noise_profile="step"), 17)
    return ds.X[:33], ds.y[:33], ds.X[33:], ds.y[33:]


@pytest.mark.parametrize("gate,activation", [("linear", "tanh"), ("mlp", "relu"),
                                             ("linear", "identity")])
def test_train_moe_matches_index_per_batch_loop(ragged_data, gate, activation):
    X, y, Xv, yv = ragged_data
    spec = TrainSpec(epochs=4, batch_size=8, lr=1e-2)
    model = random_model(gate, activation, seed=21, k=3, hidden=8)
    replay = random_model(gate, activation, seed=21, k=3, hidden=8)
    hist = train_moe(model, X, y, Xv, yv, spec, seed=5)
    train_nll, val_nll, best_epoch = stepcheck.train_moe(replay, X, y, Xv, yv, spec, seed=5)
    assert same_bits(hist.train_nll, train_nll) and same_bits(hist.val_nll, val_nll)
    assert hist.best_epoch == best_epoch
    assert same_bits(model.params, replay.params)


# dropout 0.5 draws its masks from random bits, 0.3 from thresholded uniforms
@pytest.mark.parametrize("dropout", [0.3, 0.5])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_train_dropout_matches_index_per_batch_loop(ragged_data, activation, dropout):
    X, y, _, _ = ragged_data
    spec = McDropoutSpec(hidden=8, dropout=dropout, epochs=4, batch_size=8, lr=1e-2)

    def fresh():
        # DropoutMlp.init builds a relu net; this is its construction with ``activation``
        return DropoutMlp(Mlp.init((3, 8, 1), activation, make_rng(2)), dropout)

    model, replay = fresh(), fresh()
    history = train_dropout(model, X, y, spec, seed=6)
    assert same_bits(history, stepcheck.train_dropout(replay, X, y, spec, seed=6))
    assert same_bits(model.net.params, replay.net.params)


def test_trainers_release_their_gradient_workspace(ragged_data):
    # each trainer's gradient vector is freed with the trainer's other arrays;
    # kept by the nets' backward caches, it outlived training and moved where
    # later stages' arrays landed in the heap
    X, y, Xv, yv = ragged_data
    model = random_model("mlp", "tanh", seed=21, k=3, hidden=8)
    train_moe(model, X, y, Xv, yv, TrainSpec(epochs=2, batch_size=8, lr=1e-2), seed=5)
    dropout = DropoutMlp(Mlp.init((3, 8, 1), "relu", make_rng(2)), 0.5)
    train_dropout(dropout, X, y, McDropoutSpec(hidden=8, epochs=2, batch_size=8), seed=6)
    assert model._grad[0] is None
    for net in (model.gate, model.experts, dropout.net):
        assert net._grad[0] is None
