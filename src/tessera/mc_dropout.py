"""Monte Carlo dropout baseline.

A one-hidden-layer MLP trained on squared error with inverted dropout on
its hidden units. Dropout stays on at prediction time: T stochastic passes
give a per-sample mean and an unbiased variance, for the Gaussian interval
mean +/- z_{1-alpha/2} * std that ``conformal.build_intervals`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import ConfigError, DimensionError, TrainingError
from .nn import BLOCK_ROWS, AdamState, Array, Mlp, TrainSpec, activate, adam_step, row_blocks, \
    train_epochs


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
        if net.n_layers != 2 or net.output_dim != 1:
            raise DimensionError("dropout regressor must be one hidden layer and one output, "
                                 f"not widths {net.widths}")
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
        return self.net.forward(x)[:, 0]

    def save(self, path) -> None:
        serialize.save_checkpoint(path, "mc_dropout",
                                  {"dropout": self.dropout, "net": self.net.to_dict()})

    @classmethod
    def load(cls, path) -> "DropoutMlp":
        d = serialize.load_checkpoint(path, "mc_dropout")
        return cls(Mlp.from_dict(d["net"]), float(d["dropout"]))


@dataclass
class McDropoutSpec(TrainSpec):
    """The dropout baseline's shape and prediction settings, on ``TrainSpec``'s schedule."""

    lr: float = 1e-3
    hidden: int = 64
    dropout: float = 0.5
    passes: int = 50

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")
        if self.passes < 2:
            raise ConfigError("passes must be >= 2")
        super().__post_init__()


def train_dropout(model: DropoutMlp, x: Array, y: Array, config: McDropoutSpec,
                  seed: int) -> list[float]:
    """Minibatch Adam on mean squared error with dropout active.

    Returns the per-epoch full-data MSE measured without dropout. The run
    is a pure function of (initial weights, data, config, seed).
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64).ravel()
    params = model.net.params
    state = AdamState(params, lr=config.lr)
    # each step's masks and gradient overwrite the last step's
    rows = min(X.shape[0], config.batch_size)
    mask_bufs = [np.empty((rows, w.shape[1])) for w in model.net.weights[:-1]]
    grads = np.empty_like(params)
    history = []

    def step(xb: Array, yb: Array, rng: np.random.Generator) -> float:
        masks = model.sample_masks(xb.shape[0], rng, out=mask_bufs)
        out, cache = model.net.forward_cache(xb, hidden_masks=masks)
        upstream = (2.0 * (out[:, 0] - yb) / xb.shape[0])[:, None]
        adam_step(state, params, model.net.backward(cache, upstream, out=grads))
        return 0.0  # the history is the full-data MSE of ``end_epoch``

    def end_epoch(epoch: int, loss: float) -> None:
        mse = float(np.mean((model.deterministic_forward(X) - yv) ** 2))
        if not np.isfinite(mse):
            raise TrainingError("non-finite training loss")
        history.append(mse)

    train_epochs(X, yv, config, seed, step, end_epoch)
    model.net.release_workspace()
    return history


def mc_predict(model: DropoutMlp, x: Array, passes: int,
               rng: np.random.Generator) -> tuple[Array, Array]:
    """Mean and unbiased variance over ``passes`` stochastic forward passes.

    The rows run in the blocks of ``row_blocks``, all passes of one block
    before the next, so what is held at once is one block's: its hidden
    activation, computed once as no mask touches it, one mask buffer, and
    its (passes, block) draws. Each pass draws the block's mask from
    ``rng`` as ``sample_masks(block, rng)`` would. The hidden activation
    carries the factor 1/keep and is multiplied by the 0/1 indicator:
    k * (h * (1/keep)) == (k * (1/keep)) * h for k in {0, 1} and finite
    h * (1/keep), so every product is that of a ``sample_masks`` mask. The
    mean and variance are finished in the float order of
    ``np.var(ddof=1)``: mean, subtract, square, sum, divide by passes - 1.
    At dropout 0 every mask keeps every unit, so one pass of
    ``deterministic_forward`` is the mean, the variance is 0, and nothing is
    drawn.
    """
    if passes < 2:
        raise ConfigError("need at least two passes for an unbiased variance")
    X = np.asarray(x, dtype=np.float64)
    net = model.net
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionError(f"input must be (n, {net.input_dim})")
    if model.dropout == 0.0:
        mean = model.deterministic_forward(X)
        return mean, np.zeros_like(mean)
    n = X.shape[0]
    keep = 1.0 - model.dropout
    mean, var = np.empty(n), np.empty(n)
    size = min(n, BLOCK_ROWS + 1)
    slab = np.empty(passes * size)  # each block's draws, C-contiguous
    masks = np.empty((size, net.weights[1].shape[0]))
    for rows in row_blocks(n):
        b = rows.stop - rows.start
        draws = slab[:passes * b].reshape(passes, b)
        hidden = activate(net.first_layer(X[rows]), net.activations[0])
        hidden *= 1.0 / keep
        mask = masks[:b]
        for t in range(passes):
            np.multiply(_kept(rng, keep, mask), hidden, out=mask)
            np.matmul(mask, net.weights[1], out=draws[t, :, None])
            draws[t] += net.biases[1]
        m = draws.sum(axis=0)
        m /= passes
        draws -= m
        np.square(draws, out=draws)
        v = draws.sum(axis=0)
        v /= passes - 1
        mean[rows], var[rows] = m, v
    return mean, var
