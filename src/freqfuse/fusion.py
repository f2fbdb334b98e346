"""Per-position cross-attention fusion of frequency tokens.

At each sequence position the original token queries its own two frequency
tokens: scores = (v_o W_q)(v_f W_k)^T / sqrt(dim) over the stacked pair
v_f = (v_l, v_h), softmax over the two scores, output = weights * (v_f W_v)
plus the residual v_o. There is one head, no biases, and no output
projection. The backward pass is hand-derived and checked against central
finite differences; W_q, W_k, W_v are the only trainable parameters.
"""

from dataclasses import dataclass

import numpy as np


def _as_matrix(name, value, dim):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FusionParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        w_q = np.asarray(self.w_q, dtype=float)
        if w_q.ndim != 2 or w_q.shape[0] != w_q.shape[1]:
            raise ValueError(f"w_q must be square, got shape {w_q.shape}")
        dim = w_q.shape[0]
        object.__setattr__(self, "w_q", _as_matrix("w_q", self.w_q, dim))
        object.__setattr__(self, "w_k", _as_matrix("w_k", self.w_k, dim))
        object.__setattr__(self, "w_v", _as_matrix("w_v", self.w_v, dim))

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class FusionTrace:
    """Intermediates of one fused position: 2 scores, 2 weights, pre-residual."""

    scores: np.ndarray
    weights: np.ndarray
    pre_residual: np.ndarray


@dataclass(frozen=True)
class FusionGradients:
    d_w_q: np.ndarray
    d_w_k: np.ndarray
    d_w_v: np.ndarray
    d_v_o: np.ndarray
    d_v_l: np.ndarray
    d_v_h: np.ndarray


def init_params(dim: int, seed: int) -> FusionParams:
    """Three dim x dim matrices, entries i.i.d. uniform +-1/sqrt(dim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    bound = 1.0 / np.sqrt(dim)
    rng = np.random.default_rng(seed)
    shape = (dim, dim)
    return FusionParams(
        w_q=rng.uniform(-bound, bound, shape),
        w_k=rng.uniform(-bound, bound, shape),
        w_v=rng.uniform(-bound, bound, shape),
    )


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with max-subtraction."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_sequence(name, value, dim):
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name} must be (L, {dim}), got shape {arr.shape}")
    return arr


def _check_triple(v_o, v_l, v_h, params):
    v_o = _check_sequence("V_o", v_o, params.dim)
    v_l = _check_sequence("V_l", v_l, params.dim)
    v_h = _check_sequence("V_h", v_h, params.dim)
    if not v_o.shape == v_l.shape == v_h.shape:
        raise ValueError(
            "sequence lengths differ: "
            f"{v_o.shape[0]}, {v_l.shape[0]}, {v_h.shape[0]}"
        )
    return v_o, v_l, v_h


def _forward(v_o, v_l, v_h, params):
    scale = 1.0 / np.sqrt(params.dim)
    q = v_o @ params.w_q
    k_l = v_l @ params.w_k
    k_h = v_h @ params.w_k
    scores = np.stack([(q * k_l).sum(axis=1), (q * k_h).sum(axis=1)], axis=1)
    scores *= scale
    weights = stable_softmax(scores)
    vals_l = v_l @ params.w_v
    vals_h = v_h @ params.w_v
    pre = weights[:, :1] * vals_l + weights[:, 1:] * vals_h
    return q, k_l, k_h, scores, weights, vals_l, vals_h, pre


def fuse_token(v_o, v_l, v_h, params: FusionParams):
    """Fuse one position, as fuse_sequence with L = 1. Returns (fused, FusionTrace)."""
    # a leading axis makes a (dim,) vector a one-position sequence; any
    # other shape then fails the (L, dim) check
    v_o, v_l, v_h = _check_triple(
        *(np.asarray(v, dtype=float)[None] for v in (v_o, v_l, v_h)), params
    )
    _, _, _, scores, weights, _, _, pre = _forward(v_o, v_l, v_h, params)
    trace = FusionTrace(scores=scores[0], weights=weights[0], pre_residual=pre[0])
    return pre[0] + v_o[0], trace


def fuse_sequence(v_o, v_l, v_h, params: FusionParams) -> np.ndarray:
    """Fuse every position independently; returns the (L, dim) output."""
    v_o, v_l, v_h = _check_triple(v_o, v_l, v_h, params)
    *_, pre = _forward(v_o, v_l, v_h, params)
    return pre + v_o


def fuse_backward(v_o, v_l, v_h, params: FusionParams, upstream) -> FusionGradients:
    """Gradients of sum(upstream * fuse_sequence(...)) via the chain rule."""
    v_o, v_l, v_h = _check_triple(v_o, v_l, v_h, params)
    g = _check_sequence("upstream", upstream, params.dim)
    if g.shape[0] != v_o.shape[0]:
        raise ValueError(
            f"upstream has {g.shape[0]} positions, inputs have {v_o.shape[0]}"
        )
    scale = 1.0 / np.sqrt(params.dim)
    q, k_l, k_h, _, weights, vals_l, vals_h, _ = _forward(v_o, v_l, v_h, params)

    # value path
    d_weights = np.stack([(g * vals_l).sum(axis=1), (g * vals_h).sum(axis=1)], axis=1)
    d_vals_l = weights[:, :1] * g
    d_vals_h = weights[:, 1:] * g

    # softmax backward: ds = w * (dw - sum(w * dw))
    inner = (weights * d_weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - inner)

    # score path
    d_q = (d_scores[:, :1] * k_l + d_scores[:, 1:] * k_h) * scale
    d_k_l = d_scores[:, :1] * q * scale
    d_k_h = d_scores[:, 1:] * q * scale

    return FusionGradients(
        d_w_q=v_o.T @ d_q,
        d_w_k=v_l.T @ d_k_l + v_h.T @ d_k_h,
        d_w_v=v_l.T @ d_vals_l + v_h.T @ d_vals_h,
        d_v_o=g + d_q @ params.w_q.T,
        d_v_l=d_k_l @ params.w_k.T + d_vals_l @ params.w_v.T,
        d_v_h=d_k_h @ params.w_k.T + d_vals_h @ params.w_v.T,
    )


def fit_demo(dataset, params: FusionParams, steps: int, lr: float):
    """Gradient descent on MSE against targets; trains only W_q, W_k, W_v.

    dataset is a sequence of (V_o, V_l, V_h, target) tuples. Returns the
    final params and the loss history: losses[k] is the MSE after k updates,
    so the list has steps + 1 entries and losses[0] is the starting loss.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    samples = []
    n_entries = 0
    for v_o, v_l, v_h, target in dataset:
        v_o, v_l, v_h = _check_triple(v_o, v_l, v_h, params)
        target = _check_sequence("target", target, params.dim)
        if target.shape != v_o.shape:
            raise ValueError(
                f"target shape {target.shape} does not match inputs {v_o.shape}"
            )
        samples.append((v_o, v_l, v_h, target))
        n_entries += target.size

    def mse(p):
        total = 0.0
        for v_o, v_l, v_h, target in samples:
            diff = fuse_sequence(v_o, v_l, v_h, p) - target
            total += (diff**2).sum()
        return total / n_entries

    losses = [mse(params)]
    for _ in range(steps):
        acc_q = np.zeros_like(params.w_q)
        acc_k = np.zeros_like(params.w_k)
        acc_v = np.zeros_like(params.w_v)
        for v_o, v_l, v_h, target in samples:
            diff = fuse_sequence(v_o, v_l, v_h, params) - target
            grads = fuse_backward(v_o, v_l, v_h, params, 2.0 * diff / n_entries)
            acc_q += grads.d_w_q
            acc_k += grads.d_w_k
            acc_v += grads.d_w_v
        params = FusionParams(
            w_q=params.w_q - lr * acc_q,
            w_k=params.w_k - lr * acc_k,
            w_v=params.w_v - lr * acc_v,
        )
        losses.append(mse(params))
    return params, losses


def gradient_check(dim: int, positions: int, seed: int, tol: float = 1e-4):
    """Compare analytic gradients with central differences on a random instance.

    Returns (passed, worst relative error). Errors are relative to the larger
    view floored at 1e-3: at the default tol an entry fails only when off by
    over 1e-7 absolute and 1e-4 relative. Used by the CLI self-check.
    """
    if dim < 1 or positions < 1:
        raise ValueError("dim and positions must be >= 1")
    rng = np.random.default_rng(seed)
    params = init_params(dim, seed)
    v_o = rng.normal(size=(positions, dim))
    v_l = rng.normal(size=(positions, dim))
    v_h = rng.normal(size=(positions, dim))
    upstream = rng.normal(size=(positions, dim))

    grads = fuse_backward(v_o, v_l, v_h, params, upstream)

    def objective(w_q, w_k, w_v, o, l, h):
        out = fuse_sequence(o, l, h, FusionParams(w_q=w_q, w_k=w_k, w_v=w_v))
        return float((upstream * out).sum())

    tensors = [params.w_q, params.w_k, params.w_v, v_o, v_l, v_h]
    analytic = [grads.d_w_q, grads.d_w_k, grads.d_w_v,
                grads.d_v_o, grads.d_v_l, grads.d_v_h]
    worst = 0.0
    eps = 1e-5
    for tensor, grad in zip(tensors, analytic):
        flat = tensor.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = objective(*tensors)
            flat[i] = orig - eps
            f_minus = objective(*tensors)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            expected = grad.ravel()[i]
            err = abs(numeric - expected)
            denom = max(abs(numeric), abs(expected))
            rel = err / max(denom, 1e-3)
            worst = max(worst, rel)
    return worst < tol, worst
