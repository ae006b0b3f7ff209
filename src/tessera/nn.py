"""Numeric kernels: seeded RNG streams, a small fully connected net with
hand-written reverse-mode gradients, Adam, and a finite-difference oracle.

Everything is float64. The same seed always yields the same stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ModelError, TrainingError

Array = np.ndarray

ACTIVATIONS = ("tanh", "relu", "identity")


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """PCG64 generator from an integer seed or an existing SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def as_rng(seed_or_rng: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(seed_or_rng)


def derived_seed(seed: int, role: int) -> int:
    """Stable 63-bit integer seed for a numbered sub-stream of ``seed``."""
    state = np.random.SeedSequence([int(seed), int(role)]).generate_state(1, np.uint64)
    return int(state[0] >> 1)


def softmax(v: Array, axis: int = -1) -> Array:
    """Probability vector via max-subtracted exponentials.

    Stable for entries of large magnitude; rows always sum to one.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DimensionError("softmax requires at least one entry")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softplus(x: Array) -> Array:
    """log(1 + e^x) without overflow for large |x|."""
    return np.logaddexp(0.0, x)


def _activate(z: Array, tag: str) -> Array:
    if tag == "tanh":
        return np.tanh(z)
    if tag == "relu":
        return np.maximum(z, 0.0)
    return z  # identity


class Mlp:
    """Fully connected net with a linear final layer.

    Weight matrices are (fan_in, fan_out); a forward pass computes
    ``x @ W + b`` per layer, applying the activation after every layer
    except the last. Hidden activations may additionally be multiplied by
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
        ws = [np.array(w, dtype=np.float64) for w in weights]
        bs = [np.array(b, dtype=np.float64) for b in biases]
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2:
                raise DimensionError(f"weight {i} must be a matrix")
            if b.shape != (w.shape[1],):
                raise DimensionError(f"bias {i} must have one entry per output unit")
            if i > 0 and ws[i - 1].shape[1] != w.shape[0]:
                raise DimensionError(f"layer {i} input width does not match layer {i - 1} output")
        self.weights = ws
        self.biases = bs
        self.activations = tuple(activations)

    @classmethod
    def init(cls, widths: Sequence[int], activation: str = "tanh",
             rng: int | np.random.Generator | None = None) -> "Mlp":
        """Xavier-uniform weights, zero biases.

        ``activation`` applies to every hidden layer; pass a sequence to
        mix activations.
        """
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise DimensionError("widths must list >= 2 positive layer sizes")
        rng = as_rng(0 if rng is None else rng)
        if isinstance(activation, str):
            acts: Sequence[str] = (activation,) * (len(widths) - 2)
        else:
            acts = tuple(activation)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, acts)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights) + (self.weights[-1].shape[1],)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def parameters(self) -> list[Array]:
        """Live references, ordered [W0, b0, W1, b1, ...]."""
        out: list[Array] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params: Sequence[Array]) -> None:
        if len(params) != 2 * self.n_layers:
            raise DimensionError("parameter list length mismatch")
        for i in range(self.n_layers):
            w = np.asarray(params[2 * i], dtype=np.float64)
            b = np.asarray(params[2 * i + 1], dtype=np.float64)
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise DimensionError(f"parameter shape mismatch at layer {i}")
            self.weights[i] = w
            self.biases[i] = b

    def _check_masks(self, X: Array, hidden_masks) -> list[Array] | None:
        if hidden_masks is None:
            return None
        masks = [np.asarray(m, dtype=np.float64) for m in hidden_masks]
        if len(masks) != self.n_layers - 1:
            raise DimensionError("need one mask per hidden layer")
        for i, m in enumerate(masks):
            want = (X.shape[0], self.weights[i].shape[1])
            if m.shape != want:
                raise DimensionError(f"mask {i} must have shape {want}")
        return masks

    def forward_cache(self, x: Array, hidden_masks=None, check_finite: bool = False):
        """Forward pass returning (output, cache) for a later ``backward``.

        ``x`` is (n, input_dim); the cache keys intermediate arrays by layer.
        """
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(f"input must be (n, {self.input_dim})")
        masks = self._check_masks(X, hidden_masks)
        inputs = [X]          # what each layer consumed
        pre = []              # pre-activation z per layer
        hidden = []           # post-activation, pre-mask, per hidden layer
        h = X
        for layer in range(self.n_layers):
            z = h @ self.weights[layer] + self.biases[layer]
            if check_finite and not np.all(np.isfinite(z)):
                raise ModelError(f"non-finite values in layer {layer}", layer=layer)
            pre.append(z)
            if layer < self.n_layers - 1:
                a = _activate(z, self.activations[layer])
                hidden.append(a)
                if masks is not None:
                    a = a * masks[layer]
                h = a
                inputs.append(h)
            else:
                h = z
        cache = {"inputs": inputs, "pre": pre, "hidden": hidden, "masks": masks}
        return h, cache

    def forward(self, x: Array, hidden_masks=None, check_finite: bool = False) -> Array:
        """Batched forward pass; accepts a single sample as a 1-d vector."""
        single = np.asarray(x).ndim == 1
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out, _ = self.forward_cache(X, hidden_masks, check_finite)
        return out[0] if single else out

    def backward(self, cache, upstream: Array) -> list[Array]:
        """Parameter gradients for sum(upstream * output).

        ``upstream`` is d(loss)/d(output), shape (n, output_dim). Returns
        gradients aligned with ``parameters()``.
        """
        G = np.asarray(upstream, dtype=np.float64)
        n = cache["inputs"][0].shape[0]
        if G.shape != (n, self.output_dim):
            raise DimensionError(f"upstream must be (n, {self.output_dim})")
        grads: list[Array] = [np.empty(0)] * (2 * self.n_layers)
        delta = G
        for layer in range(self.n_layers - 1, -1, -1):
            grads[2 * layer] = cache["inputs"][layer].T @ delta
            grads[2 * layer + 1] = delta.sum(axis=0)
            if layer > 0:
                dh = delta @ self.weights[layer].T
                if cache["masks"] is not None:
                    dh = dh * cache["masks"][layer - 1]
                tag = self.activations[layer - 1]
                if tag == "tanh":
                    a = cache["hidden"][layer - 1]
                    delta = dh * (1.0 - a * a)
                elif tag == "relu":
                    delta = dh * (cache["pre"][layer - 1] > 0)
                else:
                    delta = dh
        return grads

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
    """First/second moment accumulators for one parameter list."""

    def __init__(self, params: Sequence[Array], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not params:
            raise DimensionError("no parameters to optimize")
        if not (0.0 < lr):
            raise DimensionError("lr must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise DimensionError("betas must lie in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
        self.v = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
        self.t = 0


def check_adam_schedule(epochs: int, batch_size: int, lr: float) -> None:
    """Reject minibatch-Adam settings no trainer can run; the message
    starts with the offending field name."""
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not (lr > 0):
        raise ConfigError("lr must be positive")


def adam_step(state: AdamState, params: Sequence[Array], grads: Sequence[Array]) -> list[Array]:
    """One bias-corrected Adam update; returns the new parameter list."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("params/grads/state lengths must match")
    for i, g in enumerate(grads):
        if np.asarray(g).shape != np.asarray(params[i]).shape:
            raise DimensionError(f"gradient {i} shape mismatch")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient at optimizer step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        out.append(np.asarray(p, dtype=np.float64) - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


def finite_difference_gradients(f: Callable[[], float], params: Sequence[Array],
                                h: float = 1e-5) -> list[Array]:
    """Central-difference gradient of ``f()`` w.r.t. arrays perturbed in place.

    ``f`` must read the live arrays in ``params``; each coordinate is nudged
    by +/- h and restored. Used as the slow-but-independent check on the
    analytic backward pass.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p, dtype=np.float64)
        for j in range(p.size):
            orig = p.flat[j]
            p.flat[j] = orig + h
            f_plus = f()
            p.flat[j] = orig - h
            f_minus = f()
            p.flat[j] = orig
            g.flat[j] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads
