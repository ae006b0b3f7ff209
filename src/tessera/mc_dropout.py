"""Monte Carlo dropout baseline.

A small MLP trained on squared error with inverted dropout on its hidden
layers. Dropout stays on at prediction time: T stochastic passes give a
per-sample mean and an unbiased variance, for the Gaussian interval
mean +/- z_{1-alpha/2} * std that ``conformal.build_intervals`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import ConfigError, DimensionError, TrainingError
from .nn import BLOCK_ROWS, AdamState, Array, Mlp, activate, adam_step, check_adam_schedule, \
    make_rng, row_blocks


def _kept(rng: np.random.Generator, keep: float, out: Array) -> Array:
    """Fill the float64 array ``out`` with 0/1 indicators of the units
    dropout keeps, drawn row-major from ``rng``, and return it: at keep 1/2
    one random bit each, an exact Bernoulli(1/2); else a uniform below keep."""
    if keep == 0.5:
        bits = np.frombuffer(rng.bytes(-(-out.size // 8)), dtype=np.uint8)
        # copied, as a product with the uint8 bits would cast them in a buffer
        np.copyto(out, np.unpackbits(bits, count=out.size).reshape(out.shape))
        return out
    return np.less(rng.random(out=out), keep, out=out)


class DropoutMlp:
    """MLP regressor whose hidden units are dropped out both in training
    and at prediction time."""

    def __init__(self, net: Mlp, dropout: float):
        if net.output_dim != 1:
            raise DimensionError("dropout regressor must emit a single output")
        if not (0.0 <= dropout < 1.0):
            raise ConfigError("dropout rate must lie in [0, 1)")
        self.net = net
        self.dropout = float(dropout)

    @classmethod
    def init(cls, input_dim: int, spec: McDropoutSpec, rng: np.random.Generator) -> "DropoutMlp":
        """Fresh relu net of ``spec``'s hidden width and dropout rate, with
        Xavier-initialized weights."""
        net = Mlp.init((input_dim, spec.hidden, 1), "relu", rng)
        return cls(net, spec.dropout)

    def sample_masks(self, n: int, rng: np.random.Generator,
                     out: list[Array] | None = None) -> list[Array]:
        """Inverted-dropout masks, one (n, width) array per hidden layer,
        drawn layer by layer by ``_kept``: 0 with probability p, else
        1/(1-p), so the masked activation is unbiased. With ``out``, one
        C-ordered (>= n, width) buffer per hidden layer, mask i is the
        first n rows of ``out[i]``."""
        keep = 1.0 - self.dropout
        if out is None:
            out = [np.empty((n, w.shape[1])) for w in self.net.weights[:-1]]
        # k / keep == k * (1 / keep) for k in {0, 1}, so one multiply does it
        return [np.multiply(_kept(rng, keep, buf[:n]), 1.0 / keep, out=buf[:n]) for buf in out]

    def deterministic_forward(self, x: Array) -> Array:
        """The net's output with dropout off, from the row-blocked
        ``Mlp.forward``."""
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self.net.forward(X)[:, 0]

    def save(self, path) -> None:
        serialize.save_checkpoint(path, "mc_dropout",
                                  {"dropout": self.dropout, "net": self.net.to_dict()})

    @classmethod
    def load(cls, path) -> "DropoutMlp":
        d = serialize.load_checkpoint(path, "mc_dropout")
        return cls(Mlp.from_dict(d["net"]), float(d["dropout"]))


@dataclass
class McDropoutSpec:
    """Network shape, training and prediction settings of the dropout baseline."""

    hidden: int = 64
    dropout: float = 0.5
    passes: int = 50
    epochs: int = 50
    batch_size: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")
        if self.passes < 2:
            raise ConfigError("passes must be >= 2")
        check_adam_schedule(self.epochs, self.batch_size, self.lr)


# a diverging run ends in TrainingError; numpy's warnings on the way only repeat it
@np.errstate(all="ignore")
def train_dropout(model: DropoutMlp, x: Array, y: Array, config: McDropoutSpec,
                  seed: int) -> list[float]:
    """Minibatch Adam on mean squared error with dropout active.

    Returns the per-epoch full-data MSE measured without dropout. The run
    is a pure function of (initial weights, data, config, seed).
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if n == 0:
        raise DimensionError("empty training set")
    if yv.shape[0] != n:
        raise DimensionError("targets must pair with inputs")
    rng = make_rng(seed)
    params = model.net.params
    state = AdamState(params, lr=config.lr)
    # each step's masks and gradient overwrite the last step's
    rows = min(n, config.batch_size)
    mask_bufs = [np.empty((rows, w.shape[1])) for w in model.net.weights[:-1]]
    grads = np.empty_like(params)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        xs, ys = X[order], yv[order]  # each batch is a contiguous slice
        try:
            for start in range(0, n, config.batch_size):
                Xb, yb = xs[start:start + config.batch_size], ys[start:start + config.batch_size]
                masks = model.sample_masks(Xb.shape[0], rng, out=mask_bufs)
                out, cache = model.net.forward_cache(Xb, hidden_masks=masks)
                resid = out[:, 0] - yb
                upstream = (2.0 * resid / Xb.shape[0])[:, None]
                adam_step(state, params, model.net.backward(cache, upstream, out=grads))
            mse = float(np.mean((model.deterministic_forward(X) - yv) ** 2))
            if not np.isfinite(mse):
                raise TrainingError("non-finite training loss")
        except TrainingError as e:
            raise TrainingError(f"{e} (epoch {epoch})") from e
        history.append(mse)
    return history


def mc_predict(model: DropoutMlp, x: Array, passes: int,
               rng: np.random.Generator) -> tuple[Array, Array]:
    """Mean and unbiased variance over ``passes`` stochastic forward passes.

    The rows run in the blocks of ``row_blocks``, all passes of one block
    before the next, so what is held at once is one block's: its
    first-layer activation, computed once as no mask touches it, a buffer
    per masked layer, and its (passes, block) draws. Each pass draws the
    block's masks from ``rng`` as ``sample_masks(block, rng)`` would. Each
    masked layer's input carries the factor 1/keep and is multiplied by the
    0/1 indicator: k * (h * (1/keep)) == (k * (1/keep)) * h for k in {0, 1}
    and finite h * (1/keep), so every product is that of a ``sample_masks``
    mask. The mean and variance are finished in the float order of
    ``np.var(ddof=1)``: mean, subtract, square, sum, divide by passes - 1.
    At dropout 0 every mask keeps every unit, so one pass of
    ``deterministic_forward`` is the mean, the variance is 0, and nothing is
    drawn.
    """
    if passes < 2:
        raise ConfigError("need at least two passes for an unbiased variance")
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    net = model.net
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionError(f"input must be (n, {net.input_dim})")
    if model.dropout == 0.0:
        mean = model.deterministic_forward(X)
        return mean, np.zeros_like(mean)
    n = X.shape[0]
    keep = 1.0 - model.dropout
    widths = [w.shape[0] for w in net.weights[1:]]  # of each masked layer's input
    mean, var = np.empty(n), np.empty(n)
    size = min(n, BLOCK_ROWS + 1)
    slab = np.empty(passes * size)  # each block's draws, C-contiguous
    bufs = [np.empty((size, w)) for w in widths]
    inputs = [np.empty((size, w)) for w in widths[1:]]  # of the deeper masked layers
    for rows in row_blocks(n):
        b = rows.stop - rows.start
        draws = slab[:passes * b].reshape(passes, b)
        first = X[rows] @ net.weights[0]
        first += net.biases[0]
        if net.n_layers == 1:
            draws[:] = first[:, 0]
        else:
            activate(first, net.activations[0])
            first *= 1.0 / keep
        for t in range(passes):
            h = first
            for layer in range(1, net.n_layers):
                mask = bufs[layer - 1][:b]
                np.multiply(_kept(rng, keep, mask), h, out=mask)
                last = layer == net.n_layers - 1
                h = draws[t, :, None] if last else inputs[layer - 1][:b]
                np.matmul(mask, net.weights[layer], out=h)
                h += net.biases[layer]
                if not last:
                    activate(h, net.activations[layer])
                    h *= 1.0 / keep
        m = draws.sum(axis=0)
        m /= passes
        draws -= m
        np.square(draws, out=draws)
        v = draws.sum(axis=0)
        v /= passes - 1
        mean[rows], var[rows] = m, v
    return mean, var
