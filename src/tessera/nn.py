"""Numeric kernels: seeded RNG streams, the row softmax with its
log-sum-exp, the sigmoid and the standard normal quantile, a small fully
connected net (one net or a stack of K) over one parameter vector with
hand-written reverse-mode gradients, and Adam.

Everything is float64. The same seed always yields the same stream.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ModelError, TrainingError

Array = np.ndarray

ACTIVATIONS = ("tanh", "relu", "identity")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator from an integer seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(seed_or_rng)


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


# Cephes ndtri's rational approximations, highest degree first; each Q
# polynomial leads with 1.0, which Cephes' p1evl leaves implicit.
# P0/Q0: |p - 0.5| <= 0.5 - exp(-2).
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
# P1/Q1: sqrt(-2 log p) in [2, 8), i.e. p down to exp(-32).
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# P2/Q2: sqrt(-2 log p) >= 8.
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242E0


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, highest degree first, as Cephes' polevl and p1evl
    run it: 0 * x + c and 1 * x are exact, so the float order is theirs."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def ndtri(p: float) -> float:
    """Standard normal quantile: the z with Phi(z) = p.

    A port of the Cephes ``ndtri`` that ``scipy.special.ndtri`` runs, in
    the same float order, so z is bit-identical to scipy's. -inf at 0, inf
    at 1, NaN outside [0, 1] and for NaN.
    """
    y = float(p)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p_, q_ = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p_) / _polevl(z, q_)
    return x if upper else -x


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

    Every weight and bias is a view into one float64 vector ``params``,
    laid out [W0, b0, W1, b1, ...] with each tensor flattened in C order.
    Weight matrices are (fan_in, fan_out); a forward pass computes
    ``x @ W + b`` per layer, applying the activation after every layer
    except the last. A stack adds a leading axis: weights (K, fan_in,
    fan_out), biases (K, fan_out), and an (n, d) input gives a (K, n, out)
    output whose slice k is what member k computes alone. Hidden
    activations may additionally be multiplied by caller-supplied masks
    (used for dropout); gradients respect the masks.
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
        self._shapes = tuple(t.shape for w, b in zip(ws, bs) for t in (w, b))
        bounds = np.cumsum([0] + [math.prod(shape) for shape in self._shapes]).tolist()
        self._slices = tuple(map(slice, bounds[:-1], bounds[1:]))
        self.params = np.concatenate([t.ravel() for w, b in zip(ws, bs) for t in (w, b)])
        self.weights, self.biases = self._views(self.params)

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

    def _views(self, vector: Array) -> tuple[list[Array], list[Array]]:
        """Per-layer weight and bias views into a vector in ``params`` layout."""
        views = [vector[sl].reshape(shape) for sl, shape in zip(self._slices, self._shapes)]
        return views[0::2], views[1::2]

    def bind(self, params: Array) -> None:
        """Copy the parameters into ``params``, a float64 vector of length
        ``n_params``, and keep them there from now on."""
        if params.dtype != np.float64 or params.shape != self.params.shape:
            raise DimensionError(f"need a float64 vector of {self.n_params} parameters")
        params[...] = self.params
        self.params = params
        self.weights, self.biases = self._views(params)

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

    def forward_cache(self, x: Array, hidden_masks=None, check_finite: bool = False):
        """Forward pass returning (output, cache) for a later ``backward``.

        ``x`` is (n, input_dim); the output is (n, output_dim), with a
        leading K axis for a stack. The cache keys intermediate arrays by
        layer.
        """
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(f"input must be (n, {self.input_dim})")
        masks = self._check_masks(X, hidden_masks)
        inputs = [X]          # what each layer consumed
        hidden = []           # post-activation, pre-mask, per hidden layer
        h = X
        for layer in range(self.n_layers):
            # in place, as a stack's (K, n, width) arrays are large; backward
            # needs only the activation, so the pre-activation is not kept
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
        """Batched forward pass; accepts a single sample as a 1-d vector."""
        single = np.asarray(x).ndim == 1
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out, _ = self.forward_cache(X, hidden_masks, check_finite)
        return out[..., 0, :] if single else out

    def backward(self, cache, upstream: Array, out: Array | None = None) -> Array:
        """Gradient of sum(upstream * output) in the ``params`` layout.

        ``upstream`` is d(loss)/d(output), shaped like the output. The
        gradient is written into ``out``, a float64 vector of ``n_params``
        entries (say a slice of a longer gradient vector), and ``out`` is
        returned; every entry is overwritten and no other memory is. With
        ``out=None`` a fresh vector is returned.
        """
        G = np.asarray(upstream, dtype=np.float64)
        want = self.weights[0].shape[:-2] + (cache["inputs"][0].shape[0], self.output_dim)
        if G.shape != want:
            raise DimensionError(f"upstream must have shape {want}")
        if out is None:
            out = np.empty_like(self.params)
        elif out.dtype != np.float64 or out.shape != self.params.shape:
            raise DimensionError(f"out must be a float64 vector of {self.n_params} entries")
        grad_w, grad_b = self._views(out)
        delta = G
        for layer in range(self.n_layers - 1, -1, -1):
            np.matmul(cache["inputs"][layer].swapaxes(-1, -2), delta, out=grad_w[layer])
            delta.sum(axis=-2, out=grad_b[layer])
            if layer > 0:
                # dh is a fresh product, so the chain rule runs in place on it
                dh = delta @ self.weights[layer].swapaxes(-1, -2)
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

    def __init__(self, params: Array, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        params = np.asarray(params, dtype=np.float64)
        if params.size == 0:
            raise DimensionError("no parameters to optimize")
        if not (0.0 < lr):
            raise DimensionError("lr must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise DimensionError("betas must lie in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty_like(params)
        self.t = 0


def check_adam_schedule(epochs: int, batch_size: int, lr: float) -> None:
    """Reject minibatch-Adam settings no trainer can run; the message
    starts with the offending field name."""
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not (0 < lr < math.inf):
        raise ConfigError("lr must be positive and finite")


def adam_step(state: AdamState, params: Array, grads: Array) -> None:
    """One bias-corrected Adam update of the vector ``params``, in place."""
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.shape or params.shape != state.m.shape:
        raise DimensionError("params, gradient and optimizer state must share one shape")
    if not np.isfinite(g).all():
        raise TrainingError(f"non-finite gradient at optimizer step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    # m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*(g*g) and
    # params -= lr * (m/c1) / (sqrt(v/c2) + eps), in place, in that float order
    m, v, tmp = state.m, state.v, state.scratch
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=tmp)
    v *= state.beta2
    v += np.multiply(np.multiply(g, g, out=tmp), 1.0 - state.beta2, out=tmp)
    denom = np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
    denom += state.eps
    step = np.divide(m, c1)
    step *= state.lr
    params -= np.divide(step, denom, out=step)
