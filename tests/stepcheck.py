"""Reference formulations of one training step, for bitwise checks.

Each function here writes a training-step kernel the plain way: one
numpy expression per formula, a fresh array per intermediate, a gradient
glued together with ``np.concatenate``, and minibatches gathered by index
from the unshuffled data. The kernels in ``tessera`` compute the same
float operations on the same operands in the same order, but in place and
with fewer calls; the tests hold them to these versions bit for bit
(``np.array_equal``), so any reordering of a float operation shows.
"""

import math

import numpy as np

from tessera.moe import LOG_2PI
from tessera.nn import make_rng, softplus


def softmax_lse(a):
    """(row log-sum-exp, row softmax) of an (n, K) array. The max and the
    sum run over axis 0 of a C-ordered (K, n) copy, as in ``tessera.nn``:
    that layout fixes the float order of the sum over the K entries."""
    at = np.ascontiguousarray(np.transpose(a))
    m = np.max(at, axis=0)
    with np.errstate(over="ignore"):  # a spread past the float range gives -inf, and e^-inf = 0
        e = np.exp(at - m)
    s = np.sum(e, axis=0)
    return np.log(s) + m, np.transpose(e / s)


def _views(net, vector):
    views, pos = [], 0
    for shape in net._shapes:
        views.append(vector[pos:pos + math.prod(shape)].reshape(shape))
        pos += math.prod(shape)
    return views[0::2], views[1::2]


def backward(net, cache, upstream):
    """Gradient of sum(upstream * output) of ``net`` in its params layout."""
    grad = np.empty_like(net.params)
    grad_w, grad_b = _views(net, grad)
    delta = np.asarray(upstream, dtype=np.float64)
    for layer in range(net.n_layers - 1, -1, -1):
        grad_w[layer][...] = np.swapaxes(cache["inputs"][layer], -1, -2) @ delta
        grad_b[layer][...] = delta.sum(axis=-2)
        if layer > 0:
            dh = delta @ np.swapaxes(net.weights[layer], -1, -2)
            if cache["masks"] is not None:
                dh = dh * cache["masks"][layer - 1]
            tag, a = net.activations[layer - 1], cache["hidden"][layer - 1]
            if tag == "tanh":
                delta = dh * (1.0 - a * a)
            elif tag == "relu":
                delta = dh * (a > 0)
            else:
                delta = dh
    return grad


def mixture_nll(model, x, y):
    """(mean mixture NLL, gradient in the ``model.params`` layout)."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64).ravel()
    logits, gate_cache = model.gate.forward_cache(X)
    lse, w = softmax_lse(logits)
    out, expert_cache = model.experts.forward_cache(X)
    mu = out[..., 0].T
    raw = out[..., 1].T
    sigma2 = softplus(raw) + model.var_floor
    log_w = logits - lse[:, None]
    resid = yv[:, None] - mu
    comp = log_w + -0.5 * (LOG_2PI + np.log(sigma2) + resid * resid / sigma2)
    log_mix, resp = softmax_lse(comp)
    loss = float(-np.mean(log_mix))
    n = yv.shape[0]
    d_logits = (w - resp) / n
    d_mu = -(resp * resid / sigma2) / n
    d_sigma2 = -(resp * 0.5 * (resid * resid / (sigma2 * sigma2) - 1.0 / sigma2)) / n
    d_raw = d_sigma2 * (1.0 / (1.0 + np.exp(-raw)))
    upstream = np.stack((d_mu.T, d_raw.T), axis=-1)
    return loss, np.concatenate((backward(model.gate, gate_cache, d_logits),
                                 backward(model.experts, expert_cache, upstream)))


class Adam:
    """Bias-corrected Adam whose moments are rebound, not updated, per step."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params, g):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        params -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def sample_masks(model, n, rng):
    """Per hidden layer, keep indicators over 1 - dropout: at keep 1/2 the
    first n * width bits of the layer's whole bytes, most significant bit
    first; otherwise uniforms below keep."""
    keep = 1.0 - model.dropout
    masks = []
    for w in model.net.weights[:-1]:
        shape = (n, w.shape[1])
        if keep == 0.5:
            size = n * w.shape[1]
            raw = np.frombuffer(rng.bytes((size + 7) // 8), dtype=np.uint8)
            kept = (raw[:, None] >> np.arange(7, -1, -1) & 1).ravel()[:size].reshape(shape) == 1
        else:
            kept = rng.random(shape) < keep
        masks.append(kept.astype(np.float64) / keep)
    return masks


def train_moe(model, x_train, y_train, x_val, y_val, config, seed):
    """The minibatch-Adam loop with each batch gathered by index; returns
    (train_nll, val_nll, best_epoch) and leaves the best params in ``model``."""
    n = x_train.shape[0]
    rng = make_rng(seed)
    params = model.params
    adam = Adam(params, config.lr)
    train_nll, val_nll, best_epoch = [], [], -1
    best_val, best_params = np.inf, params.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        tr = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = mixture_nll(model, x_train[idx], y_train[idx])
            tr += loss * (len(idx) / n)
            adam.step(params, grads)
        va = mixture_nll(model, x_val, y_val)[0]
        train_nll.append(tr)
        val_nll.append(va)
        if va < best_val:
            best_val, best_params, best_epoch = va, params.copy(), epoch
    params[...] = best_params
    return train_nll, val_nll, best_epoch


def train_dropout(model, x, y, config, seed):
    """The dropout baseline's loop with each batch gathered by index;
    returns the per-epoch full-data MSE."""
    n = x.shape[0]
    rng = make_rng(seed)
    params = model.net.params
    adam = Adam(params, config.lr)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb, yb = x[idx], y[idx]
            masks = sample_masks(model, Xb.shape[0], rng)
            out, cache = model.net.forward_cache(Xb, hidden_masks=masks)
            resid = out[:, 0] - yb
            upstream = (2.0 * resid / Xb.shape[0])[:, None]
            adam.step(params, backward(model.net, cache, upstream))
        history.append(float(np.mean((model.net.forward_cache(x)[0][:, 0] - y) ** 2)))
    return history
