"""Numeric kernels: seeded RNG streams, the row softmax with its
log-sum-exp, the sigmoid, a small fully connected net (one net or a stack
of K) over one parameter vector of per-layer [W; b] blocks, whose first
layer is one product [X | 1] @ [W0; b0], with hand-written reverse-mode
gradients, a row-blocked inference pass, Adam and the minibatch epoch loop.

Everything is float64. The same seed always yields the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ModelError, TrainingError

Array = np.ndarray

ACTIVATIONS = ("tanh", "relu", "identity")

# Rows per block of an inference pass: small enough that a block's hidden
# activations (and a dropout block's uniforms and mask) stay in cache
# (512-2048 time alike), and that a block's matmul stays on the BLAS kernel
# OpenBLAS leaves for another once a (n, 64) @ (64, 2) product passes 7000-8000
# rows (OpenBLAS 0.3.31), so a row's output bits do not depend on n
BLOCK_ROWS = 1024
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays, denominator term


def make_rng(seed: int) -> np.random.Generator:
    """Generator of numpy's default bit generator, seeded through a
    ``SeedSequence`` of an integer seed."""
    return np.random.default_rng(int(seed))


def derived_seed(seed: int, role: int) -> int:
    """Stable 63-bit integer seed for a numbered sub-stream of ``seed``."""
    state = np.random.SeedSequence([int(seed), int(role)]).generate_state(1, np.uint64)
    return int(state[0] >> 1)


def softplus(x: Array) -> Array:
    """log(1 + e^x) without overflow for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x) in a fresh float64 array; 0 and 1 at the infinities.

    Within 4 ulp of ``scipy.special.expit``, not bit-identical: numpy's
    vectorised ``exp`` rounds differently from libm's on a few inputs.
    """
    out = np.negative(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # e^745 is inf, and 1/inf the right 0
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def softmax_lse(a: Array) -> tuple[Array, Array]:
    """Row log-sum-exp and row softmax of an (n, K) array from one
    max-shifted pass: ``lse`` (n,) and ``p`` (n, K), p = exp(a - lse).

    The pass runs on K-major (K, n) storage, a copy of ``a`` unless ``a``
    is already stored that way (Fortran order), so the row max and the row
    sum are each one numpy reduction over axis 0 rather than n reductions
    of length K; ``p`` is an (n, K) view of that storage. A row whose max
    is not finite gets that max as its lse (-inf for an all -inf row, +inf,
    or NaN for a NaN entry) and NaN probabilities.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError("softmax_lse requires a nonempty (n, K) array")
    at = np.ascontiguousarray(a.T)
    # a spread past the float range shifts to -inf, and e^-inf = 0 is right; a
    # row whose max is not finite makes inf - inf, settled below
    with np.errstate(all="ignore"):
        m = at.max(axis=0)
        e = np.subtract(at, m)
        np.exp(e, out=e)
        s = e.sum(axis=0)
        e /= s
        lse = np.log(s, out=s)
        lse += m
    finite = np.isfinite(m)
    if not finite.all():
        np.copyto(lse, m, where=~finite)
    return lse, e.T


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of at most ``BLOCK_ROWS`` rows covering
    ``range(n)``; n = 0 gives one empty slice.

    A lone last row joins the block before it (which then holds
    ``BLOCK_ROWS + 1`` rows), since numpy runs a one-row matmul through
    another BLAS kernel (dot or gemv), whose float order differs.
    """
    starts = range(0, max(n - 1, 1), BLOCK_ROWS)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def activate(z: Array, tag: str) -> Array:
    """The activation, computed in place."""
    if tag == "tanh":
        return np.tanh(z, out=z)
    if tag == "relu":
        return np.maximum(z, 0.0, out=z)
    return z  # identity


class Mlp:
    """Fully connected net with a linear final layer, or a stack of K nets
    of one shape run side by side.

    Each layer is one block [W; b] of shape (fan_in + 1, fan_out): the
    weight matrix W, (fan_in, fan_out), with the bias b as one more row.
    The blocks, flattened in C order one after another, make up one
    float64 vector ``params``; ``blocks[l]``, ``weights[l]`` and
    ``biases[l]`` are views into it. For a single net that is the layout
    [W0, b0, W1, b1, ...]. A forward pass computes ``x @ W + b`` per layer,
    applying the activation after every layer except the last; the first
    layer runs as the one product [x | 1] @ [W0; b0] (``first_layer``).
    A stack adds a leading axis: blocks (K, fan_in + 1, fan_out), so
    weights (K, fan_in, fan_out) and biases (K, fan_out), and an (n, d)
    input gives a (K, n, out) output whose slice k is what member k
    computes alone. Hidden activations may additionally be multiplied by
    caller-supplied masks (used for dropout); gradients respect the masks.
    """

    def __init__(self, weights: Sequence[Array], biases: Sequence[Array],
                 activations: Sequence[str]):
        if len(weights) == 0:
            raise DimensionError("need at least one layer")
        if len(biases) != len(weights):
            raise DimensionError("weights and biases must pair up")
        if len(activations) != len(weights) - 1:
            raise DimensionError("need one activation per hidden layer")
        for tag in activations:
            if tag not in ACTIVATIONS:
                raise DimensionError(f"unknown activation {tag!r}")
        ws = [np.asarray(w, dtype=np.float64) for w in weights]
        bs = [np.asarray(b, dtype=np.float64) for b in biases]
        lead = ws[0].shape[:-2]
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim not in (2, 3) or w.shape[:-2] != lead:
                raise DimensionError(f"weight {i} must be a matrix, stacked like weight 0")
            if b.shape != lead + (w.shape[-1],):
                raise DimensionError(f"bias {i} must have one entry per output unit")
            if i > 0 and ws[i - 1].shape[-1] != w.shape[-2]:
                raise DimensionError(f"layer {i} input width does not match layer {i - 1} output")
        self.activations = tuple(activations)
        blocks = [np.concatenate((w, b[..., None, :]), axis=-2) for w, b in zip(ws, bs)]
        self._shapes = tuple(block.shape for block in blocks)
        bounds = np.cumsum([0] + [block.size for block in blocks]).tolist()
        self._slices = tuple(map(slice, bounds[:-1], bounds[1:]))
        self.params = np.concatenate([block.ravel() for block in blocks])
        self.blocks, self.weights, self.biases = self._views(self.params)
        # backward's workspace: the gradient views of the last ``out`` it
        # filled, held with that vector so its identity is a safe key, and
        # the ones vector of the last batch size
        self.release_workspace()
        self._ones = np.ones(0)

    @classmethod
    def init(cls, widths: Sequence[int], activation: str, rng: np.random.Generator) -> "Mlp":
        """Xavier-uniform weights, zero biases, and ``activation`` after
        every hidden layer."""
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise DimensionError("widths must list >= 2 positive layer sizes")
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, (activation,) * (len(widths) - 2))

    @classmethod
    def stack(cls, nets: Sequence["Mlp"]) -> "Mlp":
        """A stack whose member k is a copy of ``nets[k]``; the nets must
        share one shape and one activation list."""
        nets = list(nets)
        if not nets:
            raise DimensionError("need at least one net to stack")
        for i, net in enumerate(nets):
            if net._shapes != nets[0]._shapes or net.activations != nets[0].activations:
                raise DimensionError(f"net {i} differs in shape from net 0")
        return cls([np.stack(ws) for ws in zip(*(net.weights for net in nets))],
                   [np.stack(bs) for bs in zip(*(net.biases for net in nets))],
                   nets[0].activations)

    def unstack(self) -> list["Mlp"]:
        """Copies of the members of a stack, as single nets."""
        return [Mlp([w[k] for w in self.weights], [b[k] for b in self.biases], self.activations)
                for k in range(self.weights[0].shape[0])]

    def _views(self, vector: Array) -> tuple[list[Array], list[Array], list[Array]]:
        """Per-layer block, weight and bias views into a vector in
        ``params`` layout: a weight is its block's first fan_in rows, a
        bias its last row."""
        blocks = [vector[sl].reshape(shape) for sl, shape in zip(self._slices, self._shapes)]
        return blocks, [blk[..., :-1, :] for blk in blocks], [blk[..., -1, :] for blk in blocks]

    def bind(self, params: Array) -> None:
        """Copy the parameters into ``params``, a float64 vector of length
        ``n_params``, and keep them there from now on."""
        if params.dtype != np.float64 or params.shape != self.params.shape:
            raise DimensionError(f"need a float64 vector of {self.n_params} parameters")
        params[...] = self.params
        self.params = params
        self.blocks, self.weights, self.biases = self._views(params)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w.shape[-2] for w in self.weights) + (self.output_dim,)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return self.params.size

    def _check_input(self, x: Array) -> Array:
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(f"input must be (n, {self.input_dim})")
        return X

    def _check_masks(self, X: Array, hidden_masks) -> list[Array] | None:
        if hidden_masks is None:
            return None
        masks = [np.asarray(m, dtype=np.float64) for m in hidden_masks]
        if len(masks) != self.n_layers - 1:
            raise DimensionError("need one mask per hidden layer")
        for i, m in enumerate(masks):
            want = self.weights[i].shape[:-2] + (X.shape[0], self.weights[i].shape[-1])
            if m.shape != want:
                raise DimensionError(f"mask {i} must have shape {want}")
        return masks

    def release_workspace(self) -> None:
        """Drop the views ``backward`` keeps into the last ``out`` it filled,
        and with them its reference to that vector. A trainer calls this
        when done, so its gradient vector is freed with the trainer's
        other arrays rather than kept with the net."""
        self._grad = (None, [], [])

    def first_layer(self, X: Array) -> Array:
        """The first layer's pre-activation X @ W0 + b0 of a checked (n,
        input_dim) input, as one product [X | 1] @ [W0; b0]: the bias is
        the last term of each dot product, so no pass over the (n, width)
        output adds it. Training, the row-blocked inference pass and
        ``mc_dropout.mc_predict`` all run the first layer through here."""
        x1 = np.empty((X.shape[0], X.shape[1] + 1))
        x1[:, :-1] = X
        x1[:, -1] = 1.0
        return x1 @ self.blocks[0]

    def forward_cache(self, x: Array, hidden_masks=None, check_finite: bool = False):
        """Forward pass returning (output, cache) for a later ``backward``.

        ``x`` is (n, input_dim); the output is (n, output_dim), with a
        leading K axis for a stack. The cache keys intermediate arrays by
        layer.
        """
        X = self._check_input(x)
        masks = self._check_masks(X, hidden_masks)
        inputs = [X]          # what each layer consumed
        hidden = []           # post-activation, pre-mask, per hidden layer
        h = self.first_layer(X)
        for layer in range(self.n_layers):
            # in place, as a stack's (K, n, width) arrays are large; backward
            # needs only the activation, so the pre-activation is not kept
            if layer > 0:
                h = h @ self.weights[layer]
                h += self.biases[layer][..., None, :]
            if check_finite and not np.all(np.isfinite(h)):
                raise ModelError(f"non-finite values in layer {layer}")
            if layer < self.n_layers - 1:
                hidden.append(activate(h, self.activations[layer]))
                if masks is not None:
                    h = h * masks[layer]
                inputs.append(h)
        cache = {"inputs": inputs, "hidden": hidden, "masks": masks}
        return h, cache

    def forward(self, x: Array, hidden_masks=None, check_finite: bool = False) -> Array:
        """Batched forward pass of an (n, input_dim) input, keeping no cache.

        The rows run in the blocks of ``row_blocks``, each through
        ``forward_cache`` (with its slice of each mask), into one
        preallocated output. So the hidden activations held at once are a
        block's, not n rows' (for a stack, K of them), and every output
        row is bit for bit what ``forward_cache`` gives on its block.
        """
        X = self._check_input(x)
        masks = self._check_masks(X, hidden_masks)
        out = np.empty(self.weights[0].shape[:-2] + (X.shape[0], self.output_dim))
        quiet = "ignore" if check_finite else None  # its ModelError names the layer
        with np.errstate(over=quiet, invalid=quiet):
            for rows in row_blocks(X.shape[0]):
                block_masks = None if masks is None else [m[..., rows, :] for m in masks]
                out[..., rows, :] = self.forward_cache(X[rows], block_masks, check_finite)[0]
        return out

    def backward(self, cache, upstream: Array, out: Array | None = None) -> Array:
        """Gradient of sum(upstream * output) in the ``params`` layout.

        ``upstream`` is d(loss)/d(output), shaped like the output. The
        gradient is written into ``out``, a float64 vector of ``n_params``
        entries (say a slice of a longer gradient vector), and ``out`` is
        returned; every entry is overwritten and no other memory is. With
        ``out=None`` a fresh vector is returned. Each layer's weight
        gradient is ``input^T @ delta`` and its bias gradient the column
        sum ``ones(n) @ delta``, both BLAS products, so the float order of
        a sum over the n rows is BLAS's. (The first layer's bias gradient
        is not folded into ``[X | 1]^T @ delta``, which rounds it
        differently.) The views into the last ``out`` (until
        ``release_workspace``) and the ones vector of the last batch size
        are kept, so a trainer that passes one vector every step builds
        them once.
        """
        G = np.asarray(upstream, dtype=np.float64)
        want = self.weights[0].shape[:-2] + (cache["inputs"][0].shape[0], self.output_dim)
        if G.shape != want:
            raise DimensionError(f"upstream must have shape {want}")
        if out is None:
            out = np.empty_like(self.params)
        elif out.dtype != np.float64 or out.shape != self.params.shape:
            raise DimensionError(f"out must be a float64 vector of {self.n_params} entries")
        if out is not self._grad[0]:
            self._grad = (out, *self._views(out)[1:])
        _, grad_w, grad_b = self._grad
        if self._ones.shape[0] != G.shape[-2]:
            self._ones = np.ones(G.shape[-2])
        ones = self._ones
        delta = G
        for layer in range(self.n_layers - 1, -1, -1):
            np.matmul(cache["inputs"][layer].swapaxes(-1, -2), delta, out=grad_w[layer])
            np.matmul(ones, delta, out=grad_b[layer])
            if layer > 0:
                # dh is a fresh product, so the chain rule runs in place on it.
                # Past a one-unit layer it is an outer product, which numpy
                # runs as a slow rank-1 BLAS product; each entry is one
                # rounded product either way, so broadcasting gives its bits
                w_t = self.weights[layer].swapaxes(-1, -2)
                dh = delta * w_t if w_t.shape[-2] == 1 else delta @ w_t
                if cache["masks"] is not None:
                    dh *= cache["masks"][layer - 1]
                tag, a = self.activations[layer - 1], cache["hidden"][layer - 1]
                if tag == "tanh":
                    slope = np.multiply(a, a)
                    dh *= np.subtract(1.0, slope, out=slope)
                elif tag == "relu":
                    dh *= a > 0  # relu(z) > 0 exactly where z > 0
                delta = dh
        return out

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "activations": list(self.activations),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mlp":
        net = cls(d["weights"], d["biases"], d["activations"])
        if list(net.widths) != list(d["widths"]):
            raise DimensionError("stored widths do not match stored weights")
        return net


class AdamState:
    """First/second moment accumulators for one parameter vector."""

    def __init__(self, params: Array, lr: float):
        params = np.asarray(params, dtype=np.float64)
        if params.size == 0:
            raise DimensionError("no parameters to optimize")
        if not (0.0 < lr):
            raise DimensionError("lr must be positive")
        self.lr, self.t = float(lr), 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.scratch = np.empty_like(params)


@dataclass
class TrainSpec:
    """Minibatch-Adam settings; a refused value's message starts with its field."""

    epochs: int = 50
    batch_size: int = 128
    lr: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0 < self.lr < math.inf):
            raise ConfigError("lr must be positive and finite")


# a diverging run ends in TrainingError; numpy's warnings on the way only repeat it
@np.errstate(all="ignore")
def train_epochs(x: Array, y: Array, spec: TrainSpec, seed: int,
                 step: Callable[[Array, Array, np.random.Generator], float],
                 end_epoch: Callable[[int, float], None]) -> None:
    """``spec.epochs`` minibatch passes over the rows of (x, y), the loop
    both trainers run. Each epoch gathers the rows by one permutation from
    ``make_rng(seed)`` and calls ``step(xb, yb, rng)``, which takes one
    optimizer step and returns the batch's mean loss, on consecutive
    ``spec.batch_size``-row slices; ``end_epoch(epoch, loss)`` then gets their
    row-weighted mean. A ``TrainingError`` from either gains the epoch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    if n == 0 or y.shape[0] != n:
        raise DimensionError("need a nonempty training set with one target per row")
    rng = make_rng(seed)
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        xs, ys = x[order], y[order]  # each batch is a contiguous slice
        loss = 0.0
        try:
            for start in range(0, n, spec.batch_size):
                stop = min(start + spec.batch_size, n)
                # one full batch gives its loss exactly
                loss += step(xs[start:stop], ys[start:stop], rng) * ((stop - start) / n)
            end_epoch(epoch, loss)
        except TrainingError as e:
            raise TrainingError(f"{e} (epoch {epoch})") from e


def adam_step(state: AdamState, params: Array, grads: Array) -> None:
    """One bias-corrected Adam update of the vector ``params``, in place."""
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.shape or params.shape != state.m.shape:
        raise DimensionError("params, gradient and optimizer state must share one shape")
    if not np.isfinite(g).all():
        raise TrainingError(f"non-finite gradient at optimizer step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    # m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*(g*g) and
    # params -= lr * (m/c1) / (sqrt(v/c2) + eps), in place, in that float order
    m, v, tmp = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, g, out=tmp), 1.0 - ADAM_BETA2, out=tmp)
    denom = np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
    denom += ADAM_EPS
    step = np.divide(m, c1)
    step *= state.lr
    params -= np.divide(step, denom, out=step)
