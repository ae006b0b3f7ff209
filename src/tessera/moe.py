"""Mixture-of-experts density regressor.

A softmax gate weights K small MLP experts; each expert emits a mean and a
raw variance that is mapped through softplus plus a positive floor. The
model is trained by minibatch Adam on the Gaussian-mixture negative log
likelihood with exact analytic gradients. Two per-sample uncertainty
signals fall out of a forward pass: the gate-weighted data-noise scale and
the scale of disagreement between expert means.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import serialize
from .errors import ConfigError, DimensionError, TrainingError
from .nn import ACTIVATIONS, AdamState, Array, Mlp, adam_step, check_adam_schedule, \
    make_rng, sigmoid, softmax_lse, softplus

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ModelSpec:
    """Shape of the mixture model: K experts of one hidden layer, a linear
    gate or a one hidden layer MLP gate, their activation, and the floor
    added to every component variance."""

    n_experts: int = 4
    expert_hidden: int = 64
    gate: str = "linear"
    gate_hidden: int = 32
    activation: str = "tanh"
    var_floor: float = 1e-6

    def __post_init__(self):
        for name in ("n_experts", "expert_hidden", "gate_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.gate not in ("linear", "mlp"):
            raise ConfigError(f"gate {self.gate!r} is not 'linear' or 'mlp'")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation {self.activation!r} is not one of {ACTIVATIONS}")
        if not (0.0 < self.var_floor < math.inf):
            raise ConfigError("var_floor must be positive and finite")


@dataclass
class MixturePrediction:
    """Mixture parameters for a batch: n rows, K components per row.

    ``w`` holds per-row gate probabilities, ``mu`` component means and
    ``sigma2`` component variances.
    """

    w: Array
    mu: Array
    sigma2: Array

    def __post_init__(self):
        # row-major (n, K): numpy sums a contiguous row pairwise, so the layout
        # fixes the float order of every sum over the K components below
        self.w = np.atleast_2d(np.ascontiguousarray(self.w, dtype=np.float64))
        self.mu = np.atleast_2d(np.ascontiguousarray(self.mu, dtype=np.float64))
        self.sigma2 = np.atleast_2d(np.ascontiguousarray(self.sigma2, dtype=np.float64))
        if not (self.w.shape == self.mu.shape == self.sigma2.shape):
            raise DimensionError("w, mu, sigma2 must share one (n, K) shape")
        if self.w.shape[1] < 1 or self.w.shape[0] < 1:
            raise DimensionError("need at least one row and one component")
        if np.any(self.w < -1e-12) or np.any(np.abs(self.w.sum(axis=1) - 1.0) > 1e-9):
            raise DimensionError("gate weights must form per-row probability vectors")
        if np.any(self.sigma2 <= 0.0):
            raise DimensionError("component variances must be positive")

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def mean(self) -> Array:
        """Gate-weighted predictive mean per row."""
        return np.sum(self.w * self.mu, axis=1)

    @property
    def aleatoric(self) -> Array:
        """Data-noise scale: sqrt of the gate-weighted component variance."""
        return np.sqrt(np.sum(self.w * self.sigma2, axis=1))

    @property
    def epistemic(self) -> Array:
        """Disagreement scale: RMS deviation of component means.

        Deliberately ignores the gate weights, so a confident gate does not
        mask experts that disagree. Zero exactly when all means coincide.
        """
        dev = self.mu - np.mean(self.mu, axis=1)[:, None]
        return np.sqrt(np.mean(dev * dev, axis=1))


class _Heads(NamedTuple):
    """A batch's mixture heads as K-major (K, n) arrays: row k is component
    k. ``mu`` and ``raw_var`` are views of the experts' (K, n, 2) output."""

    log_w: Array
    w: Array
    mu: Array
    raw_var: Array
    sigma2: Array


class MoeModel:
    """Softmax-gated ensemble of small MLP experts with mean/variance heads.

    The experts run as one stack of K nets; ``params`` holds the gate's
    parameters followed by the stack's, and both nets view into it.
    """

    def __init__(self, gate: Mlp, experts: Sequence[Mlp], var_floor: float):
        stack = Mlp.stack(experts)
        if gate.output_dim != stack.weights[0].shape[0]:
            raise DimensionError("gate must emit one logit per expert")
        if stack.input_dim != gate.input_dim:
            raise DimensionError("expert input width differs from gate")
        if stack.output_dim != 2:
            raise DimensionError("experts must emit (mean, raw variance)")
        if not (var_floor > 0.0):
            raise DimensionError("var_floor must be positive")
        self.params = np.empty(gate.n_params + stack.n_params)
        gate.bind(self.params[:gate.n_params])
        stack.bind(self.params[gate.n_params:])
        self.gate = gate
        self.experts = stack
        self.var_floor = float(var_floor)

    @classmethod
    def init(cls, input_dim: int, spec: ModelSpec, rng: np.random.Generator) -> "MoeModel":
        """Fresh model of shape ``spec`` with Xavier-initialized parts."""
        hidden = () if spec.gate == "linear" else (spec.gate_hidden,)
        gate = Mlp.init((input_dim, *hidden, spec.n_experts), spec.activation, rng)
        experts = [Mlp.init((input_dim, spec.expert_hidden, 2), spec.activation, rng)
                   for _ in range(spec.n_experts)]
        return cls(gate, experts, spec.var_floor)

    @property
    def n_experts(self) -> int:
        return self.gate.output_dim

    @property
    def input_dim(self) -> int:
        return self.gate.input_dim

    def set_parameters(self, params: Array) -> None:
        """Overwrite every parameter with the vector ``params``."""
        if np.shape(params) != self.params.shape:
            raise DimensionError(f"need a vector of {self.params.size} parameters")
        self.params[...] = params

    def _check_input(self, x: Array) -> Array:
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise DimensionError(f"input must be (n, {self.input_dim})")
        return X

    def _heads(self, logits: Array, out: Array) -> _Heads:
        """Mixture heads from the gate's (n, K) logits and the experts'
        (K, n, 2) outputs."""
        # one K-major copy of the logits: softmax_lse reduces over its
        # transpose without another, and it then becomes log w in place
        log_w = np.ascontiguousarray(logits.T)
        lse, w = softmax_lse(log_w.T)
        log_w -= lse
        raw = out[..., 1]
        sigma2 = softplus(raw)
        sigma2 += self.var_floor
        return _Heads(log_w, w.T, out[..., 0], raw, sigma2)

    def _forward_parts(self, x: Array) -> tuple[_Heads, dict, dict]:
        """Heads of a training batch plus the gate's and the experts'
        caches, which the gradient needs."""
        X = self._check_input(x)
        logits, gate_cache = self.gate.forward_cache(X)
        out, expert_cache = self.experts.forward_cache(X)
        return self._heads(logits, out), gate_cache, expert_cache

    def _forward_heads(self, x: Array, check_finite: bool = False) -> _Heads:
        """Heads from the row-blocked ``Mlp.forward`` of the gate and the
        experts, keeping no cache."""
        X = self._check_input(x)
        return self._heads(self.gate.forward(X, check_finite=check_finite),
                           self.experts.forward(X, check_finite=check_finite))

    def forward(self, x: Array, check_finite: bool = True) -> MixturePrediction:
        """Mixture prediction for the rows of ``x``.

        The gate and the experts run in the row blocks of ``Mlp.forward``,
        so memory grows with n * K, not with n * K * expert_hidden; a
        non-finite layer value raises ``ModelError`` when ``check_finite``.
        """
        heads = self._forward_heads(x, check_finite=check_finite)
        return MixturePrediction(heads.w.T, heads.mu.T, heads.sigma2.T)

    def save(self, path) -> None:
        serialize.save_checkpoint(path, "moe", {
            "var_floor": self.var_floor,
            "gate": self.gate.to_dict(),
            "experts": [ex.to_dict() for ex in self.experts.unstack()],
        })

    @classmethod
    def load(cls, path) -> "MoeModel":
        d = serialize.load_checkpoint(path, "moe")
        return cls(Mlp.from_dict(d["gate"]), [Mlp.from_dict(e) for e in d["experts"]],
                   float(d["var_floor"]))


def _log_components(log_w: Array, mu: Array, sigma2: Array,
                    y: Array) -> tuple[Array, Array, Array]:
    """log w + log N(y; mu, sigma2) per component and row of K-major (K, n)
    heads, plus what the gradient reuses: 1/sigma2 and the scaled residuals
    z = (y - mu)/sigma2, so that the squared term (y - mu)^2/sigma2 is
    (y - mu) z."""
    resid = y - mu
    inv = np.divide(1.0, sigma2)
    z = resid * inv
    resid *= z
    comp = np.log(sigma2)
    comp += LOG_2PI
    comp += resid
    comp *= -0.5
    comp += log_w
    return comp, inv, z


def mixture_log_pdf(pred: MixturePrediction, y) -> Array:
    """Log density of the row-wise mixture at y.

    ``y`` may be a scalar (one-row prediction) or a length-n vector paired
    row by row.
    """
    scalar_in = np.ndim(y) == 0
    yv = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if yv.shape[0] != pred.n:
        raise DimensionError("y must pair with prediction rows")
    with np.errstate(divide="ignore"):  # w == 0 gives -inf, which softmax_lse absorbs
        log_w = np.log(pred.w)
    comp = _log_components(log_w.T, pred.mu.T, pred.sigma2.T, yv)[0]
    out = softmax_lse(comp.T)[0]
    return float(out[0]) if scalar_in else out


def _nll_core(heads: _Heads, y):
    """Mean NLL of a batch from its K-major heads, plus the pieces its
    gradient needs: the targets, the (K, n) component responsibilities,
    1/sigma2 and z = (y - mu)/sigma2 (see :func:`_log_components`). Raises
    if the loss is not finite."""
    yv = np.asarray(y, dtype=np.float64).ravel()
    if yv.shape[0] != heads.w.shape[1]:
        raise DimensionError("y must have one target per row of x")
    if yv.shape[0] == 0:
        raise DimensionError("empty batch")
    comp, inv, z = _log_components(heads.log_w, heads.mu, heads.sigma2, yv)
    log_mix, resp = softmax_lse(comp.T)
    loss = -float(log_mix.sum()) / yv.shape[0]  # the bits of -log_mix.mean(), at less cost
    if not math.isfinite(loss):
        raise TrainingError("non-finite mixture NLL")
    return loss, yv, resp.T, inv, z


def mixture_nll_loss(model: MoeModel, x: Array, y) -> float:
    """Mean mixture negative log likelihood of a batch, from the
    row-blocked forward pass of ``MoeModel.forward``."""
    return _nll_core(model._forward_heads(x), y)[0]


def mixture_nll(model: MoeModel, x: Array, y) -> tuple[float, Array]:
    """Mean mixture NLL with its exact gradient in the ``model.params``
    layout. Raises if the loss is not finite.

    With responsibilities r, z = (y - mu)/sigma2 and 1/sigma2 from the
    loss, on K-major (K, n) arrays: d logits = (w - r)/n, d mu = -(r/n) z
    and d sigma2 = -(r/n) 0.5 (z^2 - 1/sigma2), which softplus'(raw) =
    sigmoid(raw) turns into d raw. Both expert columns are written straight
    into the experts' (K, n, 2) upstream buffer.
    """
    heads, gate_cache, expert_cache = model._forward_parts(x)
    loss, yv, resp, inv, z = _nll_core(heads, y)
    n = yv.shape[0]
    d_logits = np.subtract(heads.w, resp)
    d_logits /= n
    r = np.divide(resp, -n, out=resp)
    upstream = np.empty(heads.sigma2.shape + (2,))
    np.multiply(r, z, out=upstream[..., 0])
    np.multiply(z, z, out=z)
    z -= inv
    z *= r
    z *= 0.5
    np.multiply(z, sigmoid(heads.raw_var), out=upstream[..., 1])
    grad = np.empty_like(model.params)
    n_gate = model.gate.n_params
    model.gate.backward(gate_cache, d_logits.T, out=grad[:n_gate])
    model.experts.backward(expert_cache, upstream, out=grad[n_gate:])
    return loss, grad


@dataclass
class TrainSpec:
    """Minibatch-Adam settings for :func:`train_moe`."""

    epochs: int = 50
    batch_size: int = 128
    lr: float = 1e-4

    def __post_init__(self):
        check_adam_schedule(self.epochs, self.batch_size, self.lr)


@dataclass
class TrainHistory:
    """Per-epoch losses of :func:`train_moe`.

    ``train_nll[e]`` is the row-weighted mean of epoch e's minibatch
    losses, each taken before that step's update; ``val_nll[e]`` is the
    full validation split after the epoch, and picks ``best_epoch``.
    """

    train_nll: list[float] = field(default_factory=list)
    val_nll: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def to_dict(self) -> dict:
        return asdict(self)


# a diverging run ends in TrainingError; numpy's warnings on the way only repeat it
@np.errstate(all="ignore")
def train_moe(model: MoeModel, x_train: Array, y_train: Array,
              x_val: Array, y_val: Array, config: TrainSpec, seed: int) -> TrainHistory:
    """Minibatch Adam on the mixture NLL; mutates ``model`` in place.

    ``train_nll`` records each epoch's mean minibatch loss, taken before
    each step, so no extra pass over the train split is made.
    After the final epoch the parameters from the epoch with the lowest
    validation NLL are restored. Shuffling is driven only by ``seed``, so a
    rerun reproduces the same trajectory.
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
    x_val = np.atleast_2d(np.asarray(x_val, dtype=np.float64))
    y_train = np.asarray(y_train, dtype=np.float64).ravel()
    y_val = np.asarray(y_val, dtype=np.float64).ravel()
    n = x_train.shape[0]
    if n == 0 or x_val.shape[0] == 0:
        raise DimensionError("train and val sets must be nonempty")
    if y_train.shape[0] != n or y_val.shape[0] != x_val.shape[0]:
        raise DimensionError("targets must pair with inputs")
    rng = make_rng(seed)
    params = model.params
    state = AdamState(params, lr=config.lr)
    history = TrainHistory()
    best_val = np.inf
    best_params = params.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        xs, ys = x_train[order], y_train[order]  # each batch is a contiguous slice
        tr = 0.0
        try:
            for start in range(0, n, config.batch_size):
                stop = min(start + config.batch_size, n)
                loss, grads = mixture_nll(model, xs[start:stop], ys[start:stop])
                tr += loss * ((stop - start) / n)  # one full batch gives its loss exactly
                adam_step(state, params, grads)
            va = mixture_nll_loss(model, x_val, y_val)
        except TrainingError as e:
            raise TrainingError(f"{e} (epoch {epoch})") from e
        history.train_nll.append(tr)
        history.val_nll.append(va)
        if va < best_val:
            best_val = va
            best_params = params.copy()
            history.best_epoch = epoch
    model.set_parameters(best_params)
    return history
