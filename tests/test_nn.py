import math
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from gradcheck import finite_difference_gradients
from tessera.errors import DimensionError, TrainingError
from tessera.nn import (
    ACTIVATIONS,
    BLOCK_ROWS,
    AdamState,
    Mlp,
    activate,
    adam_step,
    make_rng,
    row_blocks,
    sigmoid,
    softmax_lse,
    softplus,
)


# ------------------------------------------------------------ softmax_lse

def test_softmax_known_value():
    lse, p = softmax_lse(np.array([[np.log(2.0), 0.0]]))
    assert_allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-12)
    assert_allclose(lse, [np.log(3.0)], rtol=1e-12)


def test_softmax_shift_invariance():
    v = np.array([[0.3, -1.2, 2.5]])
    lse, p = softmax_lse(v)
    lse_up, p_up = softmax_lse(v + 1000.0)
    assert_allclose(p, p_up, rtol=1e-12)
    assert_allclose(lse_up, lse + 1000.0, rtol=1e-15)


def test_softmax_rows_independent():
    m = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    lse, p = softmax_lse(m)
    assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=1e-12)
    assert_allclose(p[1], [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)
    assert lse[1] == 5.0 + np.log(3.0)
    lse0, p0 = softmax_lse(m[:1])
    assert np.array_equal(p0, p[:1]) and lse0[0] == lse[0]


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=8))
def test_softmax_is_probability_vector(vals):
    _, p = softmax_lse(np.array([vals]))
    assert np.all(p >= 0.0)
    assert np.all(p <= 1.0)
    assert np.isclose(p.sum(), 1.0, atol=1e-9)


def test_softmax_empty_rejected():
    for bad in (np.array([]), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3)):
        with pytest.raises(DimensionError):
            softmax_lse(bad)


# The oracle: log(sum(exp(a))) and exp(a) / sum(exp(a)) in mpmath at 50
# digits, unshifted (mpmath's exponent range is unbounded, so e^1e300 is
# an ordinary number there). Error bound for a row with finite max m,
# with eps = 2**-52 and u = eps / 2:
# - each shifted entry d = fl(a - m) <= 0 is off by at most u|d|, which
#   moves e^d by a factor 1 + u|d|; since e^d |d| <= 1/e, that adds at
#   most K u / e to s = sum(e^d), and s >= 1 (the max contributes e^0 = 1);
# - numpy's exp is within 2 ulp (4u relative), and a sum of K nonnegative
#   terms is within (K - 1) u relative, in any order numpy adds them;
# - so s is within (K + K/e + 3) u relative, log s within that plus 2u
#   log K absolute, and the final rounding of log s + m adds u |lse|.
# That gives |lse - exact| <= eps (|lse| + K + 2): a few ulp of
# max(|m|, log K) plus a term linear in K from the summation bound. Each
# p = e^d / s adds one rounding to those relative errors, and p |d| <= 1/e
# again, so |p - exact| <= eps (K + 5). Rows whose max is not finite have
# an exact lse of -inf, +inf or NaN, and NaN probabilities by definition.
_LSE_POOL = (0.0, -0.0, 1.0, -3.5, 709.0, -745.0, 1e300, -1e300, 1.7e308, -1.7e308, -np.inf)


@st.composite
def _lse_inputs(draw):
    n, k = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 4, 8, 9, 17]))
    cell = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_LSE_POOL))
    a = np.array(draw(st.lists(cell, min_size=n * k, max_size=n * k))).reshape(n, k)
    for row, fill in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.sampled_from([-np.inf, np.inf, np.nan])),
                                   max_size=2)):
        if fill == -np.inf:
            a[row] = fill  # every entry -inf
        else:
            a[row, draw(st.integers(0, k - 1))] = fill
    return np.asfortranarray(a) if draw(st.booleans()) else a


def _exact_row(row):
    with mpmath.workdps(50):
        terms = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(terms)
        return mpmath.log(total), terms, total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_lse_inputs())
def test_softmax_lse_matches_mpmath_oracle(a):
    eps = np.finfo(np.float64).eps
    k = a.shape[1]
    lse, p = softmax_lse(a)
    assert lse.shape == (a.shape[0],) and p.shape == a.shape
    for i, row in enumerate(a):
        exact, terms, total = _exact_row(row)
        if not np.isfinite(row.max()):
            assert np.array_equal(lse[i], float(exact), equal_nan=True)
            assert np.isnan(p[i]).all()
            continue
        with mpmath.workdps(50):
            assert abs(lse[i] - exact) <= eps * (abs(lse[i]) + k + 2)
            for got, term in zip(p[i], terms):
                assert abs(got - term / total) <= eps * (k + 5)
    # the pass runs on one K-major copy, whatever the input layout
    for other in (np.ascontiguousarray(a), np.asfortranarray(a)):
        lse2, p2 = softmax_lse(other)
        assert np.array_equal(lse2.view(np.uint64), lse.view(np.uint64))
        assert np.array_equal(p2.view(np.uint64), p.view(np.uint64))


def test_softplus_matches_reference():
    x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
    # reference: log1p(exp(x)) where safe, x where exp overflows the sum
    ref = np.where(x > 30, x, np.log1p(np.exp(np.minimum(x, 30))))
    assert_allclose(softplus(x), ref, rtol=1e-12)
    assert softplus(np.array([800.0]))[0] == 800.0  # no overflow


# ---------------------------------------------------------------- sigmoid

def _ulps(a, b):
    """Distance in units in the last place between nonnegative float64s."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-800.0, 800.0), st.floats(-40.0, 40.0),
                          st.sampled_from((745.0, -745.0, 746.0, -746.0, -37.0, 1e308,
                                           -1e308, 5e-324))),
                min_size=1, max_size=64))
def test_sigmoid_within_4_ulp_of_expit(vals):
    x = np.array(vals)
    # Both are 1/(1+e^-x), but numpy's vectorised exp and libm's differ in
    # the last bit on a few inputs. Near x = -37, e^-x is about 2^53, so the
    # rounding of 1 + e^-x can turn that bit into opposite errors of up to
    # 2 ulp each: a dense scan of [-745, 745] finds 4 ulp there, 2 elsewhere.
    assert _ulps(sigmoid(x), expit(x)).max() <= 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigmoid_edges():
    x = np.array([0.0, -0.0, -np.inf, np.inf, np.nan, -745.0, -1e308, 1e308])
    before = x.copy()
    out = sigmoid(x)
    assert out[0] == 0.5 and out[1] == 0.5
    assert out[2] == 0.0 and out[3] == 1.0 and np.isnan(out[4])
    assert out[5] == expit(-745.0) and out[6] == 0.0 and out[7] == 1.0
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))  # input untouched
    grid = np.linspace(-745.0, 745.0, 200_001)
    assert _ulps(sigmoid(grid), expit(grid)).max() <= 4


# ------------------------------------------------------------------- rng

def test_make_rng_deterministic():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    assert_allclose(a, b, rtol=0)
    c = make_rng(43).standard_normal(5)
    assert not np.allclose(a, c)


def test_make_rng_is_pcg64_of_the_seed_sequence():
    # every seeded artifact is drawn from this stream; a numpy whose default
    # bit generator moved would change them all
    rng = make_rng(42)
    assert type(rng.bit_generator) is np.random.PCG64
    want = np.random.PCG64(np.random.SeedSequence(42))
    assert rng.bit_generator.state == want.state


# ------------------------------------------------------------------- mlp

def _grads(net, x, upstream, hidden_masks=None):
    _, cache = net.forward_cache(x, hidden_masks)
    return net.backward(cache, upstream)


def _tensors(net, flat):
    """[W0, b0, W1, b1, ...] read out of a vector in the documented
    ``params`` layout: per layer one block [W; b] of shape (..., fan_in + 1,
    fan_out) flattened in C order, one after another; the bias is the
    block's last row."""
    out, pos = [], 0
    for w in net.weights:
        shape = w.shape[:-2] + (w.shape[-2] + 1, w.shape[-1])
        block = flat[pos:pos + math.prod(shape)].reshape(shape)
        out += [block[..., :-1, :], block[..., -1, :]]
        pos += block.size
    assert pos == flat.size
    return out


def test_params_vector_backs_every_tensor():
    net = Mlp.init((3, 5, 2), "tanh", rng=make_rng(4))
    for t, f in zip(_tensors(net, net.params), (net.weights[0], net.biases[0],
                                                net.weights[1], net.biases[1])):
        assert np.shares_memory(t, f) and np.array_equal(t, f)
    # a single net's blocks [W; b] in C order are W then b, tensor by tensor
    assert np.array_equal(net.params, np.concatenate(
        [t.ravel() for w, b in zip(net.weights, net.biases) for t in (w, b)]))
    net.params[:] = 0.0
    assert_allclose(net.forward(np.ones((2, 3))), np.zeros((2, 2)), rtol=0, atol=0)


def test_params_vector_backs_every_member_tensor_of_a_stack():
    rng = make_rng(5)
    members = [Mlp.init((3, 5, 4, 2), "tanh", rng=rng) for _ in range(3)]
    for net in members:
        net.params += rng.standard_normal(net.n_params)  # nonzero biases
    stack = Mlp.stack(members)
    assert [blk.shape for blk in stack.blocks] == [(3, 4, 5), (3, 6, 4), (3, 5, 2)]
    layout = _tensors(stack, stack.params)
    for layer in range(stack.n_layers):
        for k, net in enumerate(members):
            for got, view, want in ((stack.weights[layer][k], layout[2 * layer][k],
                                     net.weights[layer]),
                                    (stack.biases[layer][k], layout[2 * layer + 1][k],
                                     net.biases[layer])):
                assert np.shares_memory(got, stack.params) and np.shares_memory(got, view)
                assert np.array_equal(got, view) and np.array_equal(got, want)
    # a write through the vector shows in every view, and one through a view
    # in the vector
    stack.params[:] = np.arange(stack.n_params)
    assert all(np.array_equal(t, v) for t, v in zip(
        layout, (t for w, b in zip(stack.weights, stack.biases) for t in (w, b))))
    stack.biases[1][2, 3] = -1.0
    assert layout[3][2, 3] == -1.0 and np.count_nonzero(stack.params == -1.0) == 1


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 17])
@pytest.mark.parametrize("k", [None, 3], ids=["net", "stack"])
def test_first_layer_is_x_times_w_plus_b_within_its_rounding_bound(k, dim):
    # each entry is a dot product of dim + 1 terms, the last one 1 * b:
    # within (dim + 1) eps of the sum of their magnitudes of the exact sum
    rng = make_rng(dim)
    nets = [Mlp.init((dim, 6, 2), "tanh", rng=rng) for _ in range(k or 1)]
    net = nets[0] if k is None else Mlp.stack(nets)
    net.params += rng.standard_normal(net.n_params)
    X = rng.standard_normal((7, dim))
    got = net.first_layer(X)
    W, b = net.weights[0], net.biases[0]
    lead = () if k is None else (k,)
    assert got.shape == lead + (7, 6)
    for idx in np.ndindex(got.shape):
        *kk, i, j = idx
        terms = [X[i, t] * W[(*kk, t, j)] for t in range(dim)] + [b[(*kk, j)]]
        bound = (dim + 1) * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
        assert abs(got[idx] - math.fsum(terms)) <= bound


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
    rows = np.concatenate([net.forward(X[i:i + 1]) for i in range(6)])
    assert_allclose(batched, rows, rtol=1e-12)
    with pytest.raises(DimensionError, match=r"input must be \(n, 3\)"):
        net.forward(X[0])  # one row is (1, d), not a vector


def _rel_err(a, b, abs_floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), abs_floor)
    return np.max(np.abs(a - b) / denom)


def _min_abs_pre_activation(net, x):
    """Smallest |pre-activation| over the hidden units of ``net`` on ``x``."""
    h, smallest = x, np.inf
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        h = h @ w + b
        smallest = min(smallest, np.abs(h).min())
        h = activate(h, tag)
    return smallest


@pytest.mark.parametrize("activation,widths", [
    ("tanh", (3, 5, 2)),
    ("tanh", (2, 4, 4, 1)),
    ("identity", (3, 6, 2)),
    ("relu", (3, 5, 2)),
])
def test_grad_matches_finite_differences(activation, widths):
    rng = make_rng(zlib.crc32(repr((activation, widths)).encode()))
    worst = 0.0
    for draw in range(25):  # 100 draws total across the parametrization
        while True:
            net = Mlp.init(widths, activation, rng=rng)
            x = rng.standard_normal((3, widths[0]))
            c = rng.standard_normal((3, widths[-1]))
            # a central difference that straddles relu's kink is no check
            if activation != "relu" or _min_abs_pre_activation(net, x) >= 1e-3:
                break

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


@pytest.mark.parametrize("widths", [(3, 4, 2), (3, 2), (2, 5, 1, 3)])
def test_unstack_inverts_stack_bitwise(widths):
    rng = make_rng(12)
    members = [Mlp.init(widths, "tanh", rng=rng) for _ in range(3)]
    for net in members:  # nonzero biases, and every bit pattern kind
        net.params += rng.standard_normal(net.n_params) * 10.0 ** rng.integers(-300, 300,
                                                                               net.n_params)
    members[0].params[:2] = [-0.0, 5e-324]
    for a, b in zip(Mlp.stack(members).unstack(), members):
        assert np.array_equal(a.params.view(np.uint64), b.params.view(np.uint64))
        assert a.activations == b.activations
    with pytest.raises(DimensionError):
        Mlp.stack([])


@pytest.mark.parametrize("n,edges", [
    (0, [0, 0]),
    (1, [0, 1]),
    (BLOCK_ROWS, [0, BLOCK_ROWS]),
    (BLOCK_ROWS + 1, [0, BLOCK_ROWS + 1]),  # a lone last row joins the block before it
    (2 * BLOCK_ROWS, [0, BLOCK_ROWS, 2 * BLOCK_ROWS]),
    (2 * BLOCK_ROWS + 1, [0, BLOCK_ROWS, 2 * BLOCK_ROWS + 1]),
])
def test_row_blocks_edges(n, edges):
    assert [(b.start, b.stop) for b in row_blocks(n)] == list(zip(edges, edges[1:]))


# at input width 16 the first layer's folded bias rounds differently from a
# separate bias add, so both widths are held to it
@pytest.mark.parametrize("dim", [3, 16])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 7])
@pytest.mark.parametrize("k", [None, 3], ids=["net", "stack"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_is_forward_cache_per_row_block_bitwise(activation, k, rows, masked, dim):
    rng = make_rng(rows + ACTIVATIONS.index(activation))
    nets = [Mlp.init((dim, 16, 8, 2), activation, rng=rng) for _ in range(k or 1)]
    net = nets[0] if k is None else Mlp.stack(nets)
    net.params += 0.1 * rng.standard_normal(net.n_params)  # nonzero biases
    x = rng.standard_normal((rows, dim))
    lead = () if k is None else (k,)
    masks = [2.0 * (rng.random(lead + (rows, w.shape[-1])) < 0.5)
             for w in net.weights[:-1]] if masked else None
    got = net.forward(x, hidden_masks=masks)
    want = np.concatenate([
        net.forward_cache(x[b], None if masks is None else [m[..., b, :] for m in masks])[0]
        for b in row_blocks(rows)], axis=-2)
    assert got.shape == lead + (rows, 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        Mlp.init((3,), "tanh", make_rng(0))
    net = Mlp.init((3, 4, 2), "tanh", make_rng(0))
    with pytest.raises(DimensionError):
        net.forward(np.zeros((5, 7)))
    with pytest.raises(DimensionError):
        _grads(net, np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(DimensionError, match="one activation per hidden layer"):
        Mlp([np.zeros((2, 2))], [np.zeros(2)], ["tanh"])
    with pytest.raises(DimensionError, match="unknown activation 'swish'"):
        Mlp.init((2, 3, 2), "swish", make_rng(0))


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
    state = AdamState(p, lr=lr)
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
    state = AdamState(p, lr=1e-3)
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
