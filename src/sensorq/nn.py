"""Minimal dense Q-network with hand-rolled gradients.

A fixed-shape multilayer perceptron (ReLU hidden layers, linear output)
plus an adaptive-moment optimizer and the soft target-blend update.
Everything is float64 numpy so tests can pin tight tolerances; parameters
live in a plain container and all updates return new containers.

Snapshot format (text, version-tagged):

    sensorq-net 1
    <n_sizes> <size_0> ... <size_L>
    one line per weight row, then one line per bias vector, layer by layer,
    values as %.17g (round-trip exact for float64)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORMAT_TAG = "sensorq-net 1"


@dataclass
class NetworkParams:
    """Per-layer (weights, bias) pairs; weights are (out, in).

    Also serves as the container for gradients, which are shaped exactly
    like the parameters they belong to.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]

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
        return NetworkParams([(w.copy(), b.copy()) for w, b in self.layers])


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators mirroring a NetworkParams instance."""

    m: list[tuple[np.ndarray, np.ndarray]]
    v: list[tuple[np.ndarray, np.ndarray]]
    step: int
    step_size: float
    beta1: float
    beta2: float
    eps: float


def _check_chain(layers: list[tuple[np.ndarray, np.ndarray]]) -> None:
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
        if i > 0 and w.shape[1] != layers[i - 1][0].shape[0]:
            raise ValueError(f"layer {i}: input width {w.shape[1]} does not chain")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i}: non-finite entries")


def init_network(sizes: list[int], rng: np.random.Generator | int) -> NetworkParams:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) per layer."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return NetworkParams(layers)


def zeros_like(params: NetworkParams) -> NetworkParams:
    return NetworkParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers])


def _forward_cached(params: NetworkParams, x: np.ndarray):
    """Batch forward pass keeping pre-activations for the backward pass.

    x is (batch, in_dim); returns (activations, pre_activations) where
    activations[0] is the input and activations[-1] the linear output.
    """
    acts = [x]
    zs = []
    last = len(params.layers) - 1
    a = x
    for i, (w, b) in enumerate(params.layers):
        z = a @ w.T + b
        zs.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    return acts, zs


def forward_batch(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Q-values for a (batch, in_dim) matrix of feature vectors."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"input shape {x.shape}, expected (n, {params.in_dim})")
    acts, _ = _forward_cached(params, x)
    return acts[-1]


def backward_batch(params: NetworkParams, x: np.ndarray, grad_out: np.ndarray) -> NetworkParams:
    """Reverse-mode gradient of sum_i grad_out[i] . Q(x[i]) with respect to
    every parameter; x is (batch, in_dim), grad_out (batch, out_dim)."""
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim or grad_out.shape != (x.shape[0], params.out_dim):
        raise ValueError("batch shapes inconsistent with network dimensions")
    acts, zs = _forward_cached(params, x)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    delta = grad_out
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w) * (zs[i - 1] > 0.0)
    return NetworkParams(grads)


def adam_init(
    params: NetworkParams,
    step_size: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> OptimizerState:
    if step_size <= 0 or not (0 < beta1 < 1) or not (0 < beta2 < 1) or eps <= 0:
        raise ValueError("invalid optimizer hyperparameters")
    z = zeros_like(params)
    return OptimizerState(z.layers, zeros_like(params).layers, 0, step_size, beta1, beta2, eps)


def adam_step(
    params: NetworkParams, grads: NetworkParams, state: OptimizerState
) -> tuple[NetworkParams, OptimizerState]:
    """One adaptive-moment update with bias correction.

    Rejects non-finite gradients without touching the parameters.
    """
    if [w.shape for w, _ in grads.layers] != [w.shape for w, _ in params.layers]:
        raise ValueError("gradient shapes do not match parameters")
    for gw, gb in grads.layers:
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise ValueError("non-finite gradient entries")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    new_layers, new_m, new_v = [], [], []
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(
        params.layers, grads.layers, state.m, state.v
    ):
        mw2 = b1 * mw + (1 - b1) * gw
        mb2 = b1 * mb + (1 - b1) * gb
        vw2 = b2 * vw + (1 - b2) * gw**2
        vb2 = b2 * vb + (1 - b2) * gb**2
        w2 = w - state.step_size * (mw2 / c1) / (np.sqrt(vw2 / c2) + state.eps)
        b2_ = b - state.step_size * (mb2 / c1) / (np.sqrt(vb2 / c2) + state.eps)
        new_layers.append((w2, b2_))
        new_m.append((mw2, mb2))
        new_v.append((vw2, vb2))
    new_state = OptimizerState(
        new_m, new_v, t, state.step_size, state.beta1, state.beta2, state.eps
    )
    return NetworkParams(new_layers), new_state


def soft_update(online: NetworkParams, target: NetworkParams, tau: float) -> NetworkParams:
    """Blend target toward online: tau * online + (1 - tau) * target."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    if [w.shape for w, _ in online.layers] != [w.shape for w, _ in target.layers]:
        raise ValueError("network shapes differ")
    return NetworkParams(
        [
            (tau * wo + (1 - tau) * wt, tau * bo + (1 - tau) * bt)
            for (wo, bo), (wt, bt) in zip(online.layers, target.layers)
        ]
    )


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
        raise ValueError(f"not a {FORMAT_TAG!r} snapshot: {path}")
    head = [int(tok) for tok in lines[1].split()]
    n_sizes, sizes = head[0], head[1:]
    if len(sizes) != n_sizes or n_sizes < 2:
        raise ValueError("corrupt snapshot header")
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
