"""Minimal dense Q-network with hand-rolled gradients.

A fixed-shape multilayer perceptron (ReLU hidden layers, linear output)
plus an adaptive-moment optimizer and the soft target-blend update.
Everything is float64 numpy so tests can pin tight tolerances.

Each network (and each gradient) lives in one contiguous float64 vector,
`NetworkParams.flat`; its per-layer `(w, b)` pairs are views into that
vector. `adam_step` and `soft_update` rewrite the vectors in place with
whole-vector ufuncs and return the very containers they were given, so a
caller that needs an unchanging network keeps a `copy()`.

Snapshot format (text, version-tagged):

    sensorq-net 1
    <n_sizes> <size_0> ... <size_L>
    one line per weight row, then one line per bias vector, layer by layer,
    values as %.17g (round-trip exact for float64)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FORMAT_TAG = "sensorq-net 1"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # adam_step's moment decays and denominator guard


def _views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (w, b) views into `flat`, laid out w then b, layer by layer."""
    layers, k = [], 0
    for out, inp in shapes:
        w = flat[k : k + out * inp].reshape(out, inp)
        k += out * inp
        layers.append((w, flat[k : k + out]))
        k += out
    return layers


class NetworkParams:
    """Per-layer (weights, bias) pairs; weights are (out, in).

    All of them are views into the one float64 vector `flat` (layer by
    layer, weights row-major and then the bias), so writing to `flat`
    writes every layer and vice versa. Building from a list of layers
    copies them into a new vector.

    Also serves as the container for gradients, which are shaped exactly
    like the parameters they belong to.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        if any(w.ndim != 2 or b.shape != (w.shape[0],) for w, b in layers):
            raise ValueError("each layer needs an (out, in) weight and an (out,) bias")
        self._shapes = [w.shape for w, _ in layers]
        parts = [np.concatenate([w.ravel(), b]) for w, b in layers]
        self.flat = np.concatenate(parts, dtype=np.float64)
        self.layers = _views(self.flat, self._shapes)

    def _over(self, flat: np.ndarray) -> "NetworkParams":
        """A container with this one's layer shapes whose vector is `flat`."""
        other = object.__new__(NetworkParams)
        other._shapes = self._shapes
        other.flat = flat
        other.layers = _views(flat, self._shapes)
        return other

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.layers[0][0].shape[1]]
        sizes.extend(w.shape[0] for w, _ in self.layers)
        return sizes

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def copy(self) -> "NetworkParams":
        return self._over(self.flat.copy())


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators: `m` and `v` are flat vectors laid out
    like `NetworkParams.flat`, updated in place by `adam_step`, which also
    uses the two scratch vectors made here."""

    m: np.ndarray
    v: np.ndarray
    step: int
    step_size: float
    _scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))


def _check_chain(layers: list[tuple[np.ndarray, np.ndarray]]) -> None:
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
        if i > 0 and w.shape[1] != layers[i - 1][0].shape[0]:
            raise ValueError(f"layer {i}: input width {w.shape[1]} does not chain")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i}: non-finite entries")


def init_network(sizes: list[int], rng: np.random.Generator) -> NetworkParams:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) per layer."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return NetworkParams(layers)


def forward_cached(params: NetworkParams, x: np.ndarray):
    """Batch forward pass keeping what `backward_batch` needs.

    x is (batch, in_dim); returns (activations, pre_activations) where
    activations[0] is the input and activations[-1] the linear output.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64):
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"input shape {x.shape}, expected (n, {params.in_dim})")
    acts = [x]
    zs = []
    last = len(params.layers) - 1
    a = x
    for i, (w, b) in enumerate(params.layers):
        z = a @ w.T
        z += b  # in place: the same sum as a @ w.T + b
        zs.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    return acts, zs


def forward_batch(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Q-values for a (batch, in_dim) matrix of feature vectors."""
    acts, _ = forward_cached(params, x)
    return acts[-1]


def backward_batch(params: NetworkParams, cache, grad_out: np.ndarray, grads=None) -> NetworkParams:
    """Reverse-mode gradient of sum_i grad_out[i] . Q(x[i]) with respect to
    every parameter, where `cache` is `forward_cached(params, x)` for the
    (batch, in_dim) input x and grad_out is (batch, out_dim). The gradient
    overwrites all of `grads`, a container shaped like `params` that a
    training loop passes in every step, and is returned; with no `grads`
    it goes into a new container."""
    acts, zs = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if len(zs) != len(params.layers) or grad_out.shape != (acts[0].shape[0], params.out_dim):
        raise ValueError("batch shapes inconsistent with network dimensions")
    if grads is None:
        grads = params._over(np.empty_like(params.flat))
    delta = grad_out
    for i in range(len(params.layers) - 1, -1, -1):
        gw, gb = grads.layers[i]
        np.matmul(delta.T, acts[i], out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ params.layers[i][0]
            delta *= zs[i - 1] > 0.0
    return grads


def adam_init(params: NetworkParams, step_size: float = 1e-3) -> OptimizerState:
    if step_size <= 0:
        raise ValueError("invalid optimizer step size")
    return OptimizerState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0, step_size)


def adam_step(
    params: NetworkParams, grads: NetworkParams, state: OptimizerState
) -> tuple[NetworkParams, OptimizerState]:
    """One adaptive-moment update with bias correction, in place.

    Rewrites params.flat, state.m and state.v and returns (params, state)
    themselves. Each element goes through m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g**2, p = p - lr*(m/c1)/(sqrt(v/c2)+eps) in that
    order, with (b1, b2, eps) = (BETA1, BETA2, EPS). Rejects mismatched or
    non-finite gradients before writing anything.
    """
    if grads._shapes != params._shapes:
        raise ValueError("gradient shapes do not match parameters")
    g = grads.flat
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient entries")
    state.step += 1
    c1 = 1.0 - BETA1**state.step
    c2 = 1.0 - BETA2**state.step
    m, v, p = state.m, state.v, params.flat
    s, r = state._scratch
    np.multiply(m, BETA1, out=m)
    np.multiply(g, 1 - BETA1, out=s)
    np.add(m, s, out=m)
    np.square(g, out=s)
    np.multiply(s, 1 - BETA2, out=s)
    np.multiply(v, BETA2, out=v)
    np.add(v, s, out=v)
    np.divide(m, c1, out=s)
    np.multiply(s, state.step_size, out=s)
    np.divide(v, c2, out=r)
    np.sqrt(r, out=r)
    np.add(r, EPS, out=r)
    np.divide(s, r, out=s)
    np.subtract(p, s, out=p)
    return params, state


def soft_update(online: NetworkParams, target: NetworkParams, tau: float) -> NetworkParams:
    """Blend target toward online in place: tau * online + (1 - tau) * target.

    Returns `target` itself."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    if online._shapes != target._shapes:
        raise ValueError("network shapes differ")
    t = target.flat
    blend = online.flat * tau
    np.multiply(t, 1 - tau, out=t)
    np.add(blend, t, out=t)
    return target


def save_network(params: NetworkParams, path) -> None:
    """Write a versioned text snapshot (see module docstring for the layout)."""
    _check_chain(params.layers)
    sizes = params.layer_sizes
    lines = [FORMAT_TAG, " ".join(str(s) for s in [len(sizes)] + sizes)]
    for w, b in params.layers:
        for row in w:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(" ".join(f"{v:.17g}" for v in b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> NetworkParams:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != FORMAT_TAG:
        raise ValueError(f"not a {FORMAT_TAG!r} snapshot")
    try:
        n_sizes, *sizes = [int(tok) for tok in lines[1].split()]
    except (IndexError, ValueError):
        raise ValueError("corrupt snapshot header") from None
    if len(sizes) != n_sizes or n_sizes < 2 or min(sizes) < 1:
        raise ValueError("corrupt snapshot header")
    if len(lines) != 2 + sum(sizes[1:]) + n_sizes - 1:
        raise ValueError("corrupt snapshot body")
    layers = []
    cursor = 2
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        rows = [
            np.array([float(tok) for tok in lines[cursor + r].split()])
            for r in range(fan_out)
        ]
        cursor += fan_out
        b = np.array([float(tok) for tok in lines[cursor].split()])
        cursor += 1
        w = np.vstack(rows)
        if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
            raise ValueError("corrupt snapshot body")
        layers.append((w, b))
    params = NetworkParams(layers)
    _check_chain(params.layers)
    return params
