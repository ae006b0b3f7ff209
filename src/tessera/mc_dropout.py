"""Monte Carlo dropout baseline.

A small MLP trained on squared error with inverted dropout on its hidden
layers. Dropout stays on at prediction time: T stochastic passes give a
per-sample mean and an unbiased variance, turned into Gaussian intervals
mean +/- z_{1-alpha/2} * std.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .conformal import PredictionIntervals
from .errors import ConfigError, DimensionError, TrainingError
from .nn import AdamState, Array, Mlp, activate, adam_step, as_rng, check_adam_schedule, \
    make_rng, ndtri


class DropoutMlp:
    """MLP regressor whose hidden units are dropped out both in training
    and at prediction time."""

    def __init__(self, net: Mlp, dropout: float = 0.5):
        if net.output_dim != 1:
            raise DimensionError("dropout regressor must emit a single output")
        if not (0.0 <= dropout < 1.0):
            raise ConfigError("dropout rate must lie in [0, 1)")
        self.net = net
        self.dropout = float(dropout)

    @classmethod
    def init(cls, input_dim: int, hidden: int = 64, dropout: float = 0.5,
             activation: str = "relu",
             rng: int | np.random.Generator | None = None) -> "DropoutMlp":
        net = Mlp.init((input_dim, hidden, 1), activation, as_rng(0 if rng is None else rng))
        return cls(net, dropout)

    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    def sample_masks(self, n: int, rng: np.random.Generator) -> list[Array]:
        """Inverted-dropout masks, one per hidden layer: 0 with probability
        p, else 1/(1-p), so the masked activation is unbiased."""
        keep = 1.0 - self.dropout
        # k / keep == k * (1 / keep) for k in {0, 1}, so one multiply does it
        return [np.multiply(rng.random((n, w.shape[1])) < keep, 1.0 / keep)
                for w in self.net.weights[:-1]]

    def deterministic_forward(self, x: Array) -> Array:
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
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        xs, ys = X[order], yv[order]  # each batch is a contiguous slice
        try:
            for start in range(0, n, config.batch_size):
                Xb, yb = xs[start:start + config.batch_size], ys[start:start + config.batch_size]
                masks = model.sample_masks(Xb.shape[0], rng)
                out, cache = model.net.forward_cache(Xb, hidden_masks=masks)
                resid = out[:, 0] - yb
                upstream = (2.0 * resid / Xb.shape[0])[:, None]
                grads = model.net.backward(cache, upstream)
                adam_step(state, params, grads)
            mse = float(np.mean((model.deterministic_forward(X) - yv) ** 2))
            if not np.isfinite(mse):
                raise TrainingError("non-finite training loss")
        except TrainingError as e:
            raise TrainingError(f"{e} (epoch {epoch})") from e
        history.append(mse)
    return history


def mc_predict(model: DropoutMlp, x: Array, passes: int = 50,
               rng: int | np.random.Generator | None = None) -> tuple[Array, Array]:
    """Mean and unbiased variance over ``passes`` stochastic forward passes.

    No mask touches the first layer's activation, so it is computed once;
    each pass draws its masks and runs the layers after it.
    """
    if passes < 2:
        raise ConfigError("need at least two passes for an unbiased variance")
    rng = as_rng(0 if rng is None else rng)
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    net = model.net
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionError(f"input must be (n, {net.input_dim})")
    first = X @ net.weights[0]
    first += net.biases[0]
    if net.n_layers > 1:
        activate(first, net.activations[0])
    draws = np.empty((passes, X.shape[0]))
    for t in range(passes):
        h = first
        for layer, mask in enumerate(model.sample_masks(X.shape[0], rng), start=1):
            h = (h * mask) @ net.weights[layer]
            h += net.biases[layer]
            if layer < net.n_layers - 1:
                activate(h, net.activations[layer])
        draws[t] = h[:, 0]
    return draws.mean(axis=0), draws.var(axis=0, ddof=1)


def mc_intervals(mean: Array, variance: Array, alpha: float = 0.10) -> PredictionIntervals:
    """Symmetric Gaussian intervals mean +/- z_{1-alpha/2} * sqrt(variance)."""
    m = np.asarray(mean, dtype=np.float64).ravel()
    v = np.asarray(variance, dtype=np.float64).ravel()
    if m.shape != v.shape or m.size == 0:
        raise DimensionError("mean and variance must be nonempty and equal length")
    if np.any(v < 0):
        raise DimensionError("variances must be nonnegative")
    if not (0.0 < alpha < 1.0):
        raise ConfigError("alpha must lie strictly between 0 and 1")
    z = ndtri(1.0 - alpha / 2.0)
    sd = np.sqrt(v)
    half = z * sd
    return PredictionIntervals(center=m, lower=m - half, upper=m + half, scale=sd,
                               half=half)
