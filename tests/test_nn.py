import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp as scipy_logsumexp

from gradcheck import finite_difference_gradients
from tessera.errors import DimensionError, TrainingError
from tessera.nn import (
    ACTIVATIONS,
    AdamState,
    Mlp,
    adam_step,
    logsumexp,
    make_rng,
    softmax,
    softplus,
)


# ---------------------------------------------------------------- softmax

def test_softmax_known_value():
    out = softmax(np.array([np.log(2.0), 0.0]))
    assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_softmax_shift_invariance():
    v = np.array([0.3, -1.2, 2.5])
    assert_allclose(softmax(v), softmax(v + 1000.0), rtol=1e-12)


def test_softmax_rows_independent():
    m = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    out = softmax(m, axis=1)
    assert_allclose(out.sum(axis=1), [1.0, 1.0], rtol=1e-12)
    assert_allclose(out[1], [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=8))
def test_softmax_is_probability_vector(vals):
    out = softmax(np.array(vals))
    assert np.all(out >= 0.0)
    assert np.all(out <= 1.0)
    assert np.isclose(out.sum(), 1.0, atol=1e-9)


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        softmax(np.array([]))


def test_softplus_matches_reference():
    x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
    # reference: log1p(exp(x)) where safe, x where exp overflows the sum
    ref = np.where(x > 30, x, np.log1p(np.exp(np.minimum(x, 30))))
    assert_allclose(softplus(x), ref, rtol=1e-12)
    assert softplus(np.array([800.0]))[0] == 800.0  # no overflow


# -------------------------------------------------------------- logsumexp

# draws from the pool make ties, extremes and the non-finite cases common
_LSE_POOL = (0.0, -0.0, 1.0, -3.5, 709.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan)


@st.composite
def _lse_inputs(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cell = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_LSE_POOL))
    a = np.array(draw(st.lists(cell, min_size=n * k, max_size=n * k))).reshape(n, k)
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        a[row] = -np.inf
    return np.asfortranarray(a) if draw(st.booleans()) else a


@settings(max_examples=400, deadline=None)
@given(_lse_inputs(), st.sampled_from([0, 1, -1]), st.booleans())
def test_logsumexp_matches_scipy_bitwise(a, axis, keepdims):
    with np.errstate(all="ignore"):
        want = np.asarray(scipy_logsumexp(a, axis=axis, keepdims=keepdims))
    got = logsumexp(a, axis=axis, keepdims=keepdims)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_logsumexp_edge_rows():
    a = np.array([[0.0, 0.0], [-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0],
                  [-np.inf, 2.0], [1000.0, 1000.0]])
    out = logsumexp(a, axis=1)
    assert out[0] == np.log(2.0) and out[5] == 1000.0 + np.log(2.0)
    assert out[1] == -np.inf and out[2] == np.inf and np.isnan(out[3]) and out[4] == 2.0
    assert logsumexp(a[:1], axis=1, keepdims=True).shape == (1, 1)
    with pytest.raises(DimensionError):
        logsumexp(np.zeros((0, 3)), axis=1)


# ------------------------------------------------------------------- rng

def test_make_rng_deterministic():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    assert_allclose(a, b, rtol=0)
    c = make_rng(43).standard_normal(5)
    assert not np.allclose(a, c)


# ------------------------------------------------------------------- mlp

def _grads(net, x, upstream, hidden_masks=None):
    _, cache = net.forward_cache(x, hidden_masks)
    return net.backward(cache, upstream)


def _tensors(net, flat):
    """[W0, b0, W1, b1, ...] read out of a vector in the documented
    ``params`` layout: each tensor flattened in C order, one after another."""
    out, pos = [], 0
    for w, b in zip(net.weights, net.biases):
        for t in (w, b):
            out.append(flat[pos:pos + t.size].reshape(t.shape))
            pos += t.size
    assert pos == flat.size
    return out


def test_params_vector_backs_every_tensor():
    net = Mlp.init((3, 5, 2), "tanh", rng=make_rng(4))
    for t, f in zip(_tensors(net, net.params), (net.weights[0], net.biases[0],
                                                net.weights[1], net.biases[1])):
        assert np.shares_memory(t, f) and np.array_equal(t, f)
    net.params[:] = 0.0
    assert_allclose(net.forward(np.ones((2, 3))), np.zeros((2, 2)), rtol=0, atol=0)


def test_zero_network_forward_and_bias_gradient():
    net = Mlp([np.zeros((3, 4)), np.zeros((4, 2))],
              [np.zeros(4), np.zeros(2)], ["tanh"])
    x = np.array([[0.5, -1.0, 2.0]])
    out = net.forward(x)
    assert_allclose(out, np.zeros((1, 2)), rtol=0)
    upstream = np.array([[1.0, -2.0]])
    grads = _tensors(net, _grads(net, x, upstream))
    # all activations are zero, so only the final bias sees the upstream
    assert_allclose(grads[3], [1.0, -2.0], rtol=0)
    assert_allclose(grads[0], np.zeros((3, 4)), rtol=0)
    assert_allclose(grads[2], np.zeros((4, 2)), rtol=0)


def test_single_linear_layer_gradient_is_outer_product():
    w = np.array([[0.5, -1.0], [2.0, 0.25], [1.5, -0.75]])
    net = Mlp([w], [np.zeros(2)], [])
    x = np.array([[1.0, -2.0, 3.0]])
    upstream = np.array([[2.0, -1.0]])
    out, cache = net.forward_cache(x)
    grads = _tensors(net, net.backward(cache, upstream))
    assert_allclose(out, x @ w, rtol=1e-12)
    assert_allclose(grads[0], np.outer(x, upstream), rtol=1e-12)
    assert_allclose(grads[1], upstream[0], rtol=1e-12)


def test_batched_forward_matches_row_by_row():
    net = Mlp.init((3, 8, 2), "tanh", rng=make_rng(1))
    X = make_rng(2).standard_normal((6, 3))
    batched = net.forward(X)
    rows = np.stack([net.forward(X[i]) for i in range(6)])
    assert_allclose(batched, rows, rtol=1e-12)


def _rel_err(a, b, abs_floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), abs_floor)
    return np.max(np.abs(a - b) / denom)


@pytest.mark.parametrize("activation,widths", [
    ("tanh", (3, 5, 2)),
    ("tanh", (2, 4, 4, 1)),
    ("identity", (3, 6, 2)),
    ("relu", (3, 5, 2)),
])
def test_grad_matches_finite_differences(activation, widths):
    rng = make_rng(hash((activation, widths)) % (2 ** 31))
    worst = 0.0
    for draw in range(25):  # 100 draws total across the parametrization
        net = Mlp.init(widths, activation, rng=rng)
        x = rng.standard_normal((3, widths[0]))
        c = rng.standard_normal((3, widths[-1]))

        def loss():
            return float(np.sum(net.forward(x) * c))

        grads = _grads(net, x, c)
        fd = finite_difference_gradients(loss, net.params, h=1e-5)
        worst = max(worst, _rel_err(grads, fd))
    assert worst < 1e-4


def test_dropout_masks_scale_forward_and_backward():
    net = Mlp.init((2, 4, 1), "identity", rng=make_rng(3))
    x = np.array([[1.0, -1.0], [0.5, 2.0]])
    mask = np.array([[2.0, 0.0, 2.0, 0.0], [0.0, 2.0, 0.0, 2.0]])
    out = net.forward(x, hidden_masks=[mask])
    # identity activations let the masked forward be written in closed form
    hidden = (x @ net.weights[0] + net.biases[0]) * mask
    assert_allclose(out, hidden @ net.weights[1] + net.biases[1], rtol=1e-12)
    c = np.ones((2, 1))

    def loss():
        return float(np.sum(net.forward(x, hidden_masks=[mask]) * c))

    grads = _grads(net, x, c, hidden_masks=[mask])
    fd = finite_difference_gradients(loss, net.params, h=1e-6)
    assert _rel_err(grads, fd) < 1e-4


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_stack_matches_members_bitwise(activation, k):
    # the stacked experts reproduce each member exactly, not just closely;
    # byte-identical run artifacts rest on this
    rng = make_rng(1000 * k + ACTIVATIONS.index(activation))
    for draw in range(10):
        widths = [int(v) for v in rng.integers(1, 9, size=int(rng.integers(2, 5)))]
        members = [Mlp.init(widths, activation, rng=rng) for _ in range(k)]
        for net in members:  # nonzero biases
            for b in net.biases:
                b += rng.standard_normal(b.shape)
        stack = Mlp.stack(members)
        x = rng.standard_normal((int(rng.integers(1, 12)), widths[0]))
        out, cache = stack.forward_cache(x)
        assert out.shape == (k, x.shape[0], widths[-1])
        upstream = rng.standard_normal(out.shape)
        grad = _tensors(stack, stack.backward(cache, upstream))
        for j, net in enumerate(members):
            own, own_cache = net.forward_cache(x)
            assert_allclose(out[j], own, rtol=0, atol=0)
            for a, b in zip(cache["inputs"][1:] + cache["hidden"],
                            own_cache["inputs"][1:] + own_cache["hidden"]):
                assert_allclose(a[j], b, rtol=0, atol=0)
            own_grad = net.backward(own_cache, upstream[j])
            assert_allclose(np.concatenate([g[j].ravel() for g in grad]), own_grad,
                            rtol=0, atol=0)


def test_unstack_inverts_stack():
    rng = make_rng(12)
    members = [Mlp.init((3, 4, 2), "tanh", rng=rng) for _ in range(3)]
    for a, b in zip(Mlp.stack(members).unstack(), members):
        assert np.array_equal(a.params, b.params)
        assert a.activations == b.activations
    with pytest.raises(DimensionError):
        Mlp.stack([])


def test_xavier_init_bounds_and_zero_bias():
    net = Mlp.init((10, 20, 5), "tanh", rng=make_rng(0))
    for w in net.weights:
        limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= limit)
    for b in net.biases:
        assert_allclose(b, np.zeros_like(b), rtol=0)


def test_init_is_seed_deterministic():
    a = Mlp.init((3, 7, 2), "tanh", rng=make_rng(11))
    b = Mlp.init((3, 7, 2), "tanh", rng=make_rng(11))
    assert_allclose(a.params, b.params, rtol=0)


def test_shape_validation():
    with pytest.raises(DimensionError):
        Mlp([np.zeros((2, 3)), np.zeros((4, 1))], [np.zeros(3), np.zeros(1)], ["tanh"])
    with pytest.raises(DimensionError):
        Mlp([np.zeros((2, 3))], [np.zeros(2)], [])
    with pytest.raises(DimensionError):
        Mlp.init((3,))
    net = Mlp.init((3, 4, 2))
    with pytest.raises(DimensionError):
        net.forward(np.zeros((5, 7)))
    with pytest.raises(DimensionError):
        _grads(net, np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(DimensionError):
        Mlp.init((2, 2), activation=("sigmoid",) * 0) and Mlp([np.zeros((2, 2))],
                                                              [np.zeros(2)], ["swish"])


def test_round_trip_dict():
    net = Mlp.init((3, 5, 2), "relu", rng=make_rng(9))
    clone = Mlp.from_dict(net.to_dict())
    x = make_rng(1).standard_normal((4, 3))
    assert_allclose(net.forward(x), clone.forward(x), rtol=0)


# ------------------------------------------------------------------ adam

def test_adam_first_step_hand_value():
    p = np.array([0.0])
    state = AdamState(p, lr=1e-3)
    adam_step(state, p, np.array([1.0]))
    # m_hat = v_hat = 1 after bias correction, so the step is lr/(1+eps)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert_allclose(p, [expected], rtol=1e-12)


def test_adam_two_steps_match_reference():
    beta1, beta2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    p = np.array([1.0])
    state = AdamState(p, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    grads = [np.array([0.5]), np.array([-0.25])]
    # transcription of the update rule, scalar case
    m = v = 0.0
    ref = 1.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g[0]
        v = beta2 * v + (1 - beta2) * g[0] ** 2
        ref -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    for g in grads:
        adam_step(state, p, g)
    assert_allclose(p, [ref], rtol=1e-12)


def test_adam_rejects_nonfinite_gradient():
    p = np.zeros(2)
    state = AdamState(p, lr=1e-3)
    with pytest.raises(TrainingError, match="step 1"):
        adam_step(state, p, np.array([np.nan, 0.0]))
    assert state.t == 0 and np.array_equal(p, np.zeros(2))


def test_adam_shape_mismatch():
    p = np.zeros(2)
    state = AdamState(p)
    with pytest.raises(DimensionError):
        adam_step(state, p, np.zeros(3))


# ---------------------------------------------------- finite differences

def test_finite_difference_on_quadratic():
    p = np.array([1.0, -2.0, 3.0])

    def f():
        return float(np.sum(p ** 2))

    g = finite_difference_gradients(f, p, h=1e-5)
    assert_allclose(g, 2.0 * p, rtol=1e-7)
    assert_allclose(p, [1.0, -2.0, 3.0], rtol=0)  # restored in place
