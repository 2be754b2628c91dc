"""Additive angular margin softmax with subcenters, and its plain-CE base.

The margin is applied to the target class after subclass-wise max pooling
of the per-subcenter cosines; cos(theta + m) is expanded analytically so
the whole loss stays differentiable, and gradients flow only through each
class's winning subcenter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..scoring import dot_rows
from ..trials import check_unit


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot length-normalize a zero vector")
    return v / norm


@dataclass(frozen=True)
class LossConfig:
    """Scale and additive angular margin; the weight tensor sets the subcenter count."""

    scale: float = 30.0
    margin: float = 0.3

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ValueError(f"margin must be in [0, pi/2), got {self.margin}")


@dataclass(frozen=True)
class LossEval:
    """Loss value with analytic gradients.

    grad_x is the gradient w.r.t. the input (embedding or logits, per
    operation); grad_w and active_subcenter are set only by the
    subcenter margin loss.
    """

    loss: float
    grad_x: np.ndarray
    grad_w: np.ndarray | None = None
    active_subcenter: np.ndarray | None = None


class SubcenterWeights:
    """embed_dim x n_classes x k tensor with unit-norm subcenter columns
    (`check_unit`, naming the class)."""

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 3:
            raise ValueError(f"weights must be 3-D (dim, classes, subcenters), got {tensor.shape}")
        dim, n_classes, k = tensor.shape
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        if k < 1:
            raise ValueError(f"need at least 1 subcenter, got {k}")
        check_unit(tensor.transpose(1, 2, 0), lambda c: f"a subcenter of class {c}")
        self.tensor = tensor

    @classmethod
    def random(cls, dim: int, n_classes: int, subcenters: int, rng: np.random.Generator) -> "SubcenterWeights":
        raw = rng.standard_normal((dim, n_classes, subcenters))
        return cls(raw / np.linalg.norm(raw, axis=0, keepdims=True))


def _as_tensor(weights) -> np.ndarray:
    if isinstance(weights, SubcenterWeights):
        return weights.tensor
    return np.asarray(weights, dtype=np.float64)


def subcenter_cosines(x: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """Per-class cosine after subclass-wise max pooling.

    Returns (cosines over classes, winning subcenter index per class).
    Ties break toward the smallest index. `weights` may be a
    SubcenterWeights or a raw (dim, classes, subcenters) array.
    """
    tensor = _as_tensor(weights)
    x = np.asarray(x, dtype=np.float64)
    # the scoring dot kernel, so a K=1 tensor reproduces plain cosine
    # scoring bit for bit (one gemv would change the summation order)
    per_subcenter = dot_rows(x, tensor.transpose(1, 2, 0))
    active = np.argmax(per_subcenter, axis=1)
    return per_subcenter[np.arange(len(active)), active], active


def softmax_ce_loss(logits: np.ndarray, y: int) -> LossEval:
    """Cross entropy of a softmax over raw logits, with its gradient.

    Computed with max subtraction so large logits cannot overflow;
    grad_x is softmax(logits) - onehot(y).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
    if not 0 <= y < len(logits):
        raise ValueError(f"label {y} outside [0, {len(logits)})")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    total = float(np.sum(exp))
    loss = math.log(total) - float(shifted[y])
    grad = exp / total
    grad[y] -= 1.0
    return LossEval(loss=loss, grad_x=grad)


def aam_softmax_loss(x: np.ndarray, y: int, weights, cfg: LossConfig) -> LossEval:
    """Subcenter additive angular margin softmax loss with analytic gradients.

    The target logit is s * cos(theta_y + m) on the max-pooled subcenter
    cosine, non-target logits are s * cos(theta_j), and cos(theta + m) is
    expanded as cos*cos(m) - sin*sin(m) with sin = sqrt(max(1 - cos^2, 0)).
    Gradients w.r.t. x and the weight tensor flow only through each class's
    winning subcenter.
    """
    tensor = _as_tensor(weights)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tensor.shape[0],):
        raise ValueError(f"embedding shape {x.shape} does not match weights dim {tensor.shape[0]}")
    n_classes = tensor.shape[1]
    if not 0 <= y < n_classes:
        raise ValueError(f"label {y} outside [0, {n_classes})")

    cosines, active = subcenter_cosines(x, tensor)
    cos_y = float(cosines[y])
    if abs(cos_y) > 1.0 + 1e-6:
        raise ValueError(f"target cosine {cos_y} outside [-1, 1]; inputs not normalized")
    cos_y = min(1.0, max(-1.0, cos_y))
    sin_y = math.sqrt(max(1.0 - cos_y * cos_y, 0.0))

    cos_m = math.cos(cfg.margin)
    sin_m = math.sin(cfg.margin)
    logits = cfg.scale * cosines
    logits[y] = cfg.scale * (cos_y * cos_m - sin_y * sin_m)

    base = softmax_ce_loss(logits, y)
    dlogit = base.grad_x

    # chain rule: dlogit_j/dcos_j is s except at the target, where the
    # margin expansion contributes s * (cos m + cos_y * sin m / sin_y)
    dcos = cfg.scale * dlogit
    if sin_y > 0.0:
        dcos[y] = cfg.scale * (cos_m + cos_y * sin_m / sin_y) * dlogit[y]
    else:
        dcos[y] = cfg.scale * cos_m * dlogit[y]

    winning = tensor[:, np.arange(n_classes), active]
    grad_x = winning @ dcos
    grad_w = np.zeros_like(tensor)
    grad_w[:, np.arange(n_classes), active] = x[:, None] * dcos[None, :]
    return LossEval(loss=base.loss, grad_x=grad_x, grad_w=grad_w, active_subcenter=active)
