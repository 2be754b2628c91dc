"""Attentive statistics pooling over frame-level features.

Scores e_t = v . tanh(W h_t + b) turn into softmax attention weights; the
pooled vector concatenates the attention-weighted mean and standard
deviation. The variance is clamped at VAR_FLOOR before the square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-9


@dataclass(frozen=True)
class AttentionParams:
    """Attention projection (w: attn_dim x feat_dim, b, v: attn_dim)."""

    w: np.ndarray
    b: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[0],) or v.shape != (w.shape[0],):
            raise ValueError(
                f"inconsistent attention shapes: w {w.shape}, b {b.shape}, v {v.shape}"
            )
        for name, arr in (("w", w), ("b", b), ("v", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"attention parameter {name} must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v", v)

    @classmethod
    def random(cls, feat_dim: int, attn_dim: int, rng: np.random.Generator) -> "AttentionParams":
        return cls(
            w=rng.standard_normal((attn_dim, feat_dim)) / np.sqrt(feat_dim),
            b=rng.standard_normal(attn_dim) * 0.1,
            v=rng.standard_normal(attn_dim) / np.sqrt(attn_dim),
        )


@dataclass(frozen=True)
class PoolGradients:
    """Gradients of a scalar function of the pooled vector."""

    frames: np.ndarray
    w: np.ndarray
    b: np.ndarray
    v: np.ndarray


def _forward(frames: np.ndarray, params: AttentionParams):
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError(f"frames must be (T >= 1, D), got {frames.shape}")
    z = frames @ params.w.T + params.b
    tanh_z = np.tanh(z)
    scores = tanh_z @ params.v
    shifted = scores - np.max(scores)
    alpha = np.exp(shifted)
    alpha /= alpha.sum()
    mean = alpha @ frames
    second = alpha @ (frames * frames)
    var = second - mean * mean
    sigma = np.sqrt(np.maximum(var, VAR_FLOOR))
    return frames, tanh_z, alpha, mean, var, sigma


def attentive_stats_pool(frames: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Pool (T, D) frames into a 2D-dim [mean, std] vector."""
    _, _, _, mean, _, sigma = _forward(frames, params)
    return np.concatenate([mean, sigma])


def attentive_stats_pool_vjp(
    frames: np.ndarray,
    params: AttentionParams,
    upstream: np.ndarray,
) -> tuple[np.ndarray, PoolGradients]:
    """Pooled vector plus gradients of <upstream, pooled>.

    upstream has length 2D. Where the variance clamp is active the sigma
    path contributes zero gradient.
    """
    frames, tanh_z, alpha, mean, var, sigma = _forward(frames, params)
    upstream = np.asarray(upstream, dtype=np.float64)
    d = frames.shape[1]
    if upstream.shape != (2 * d,):
        raise ValueError(f"upstream must have shape ({2 * d},), got {upstream.shape}")
    pooled = np.concatenate([mean, sigma])

    u_mean, u_sigma = upstream[:d], upstream[d:]
    dvar = np.where(var > VAR_FLOOR, u_sigma * 0.5 / sigma, 0.0)
    dmean = u_mean - 2.0 * mean * dvar

    # alpha enters through both statistics
    dalpha = frames @ dmean + (frames * frames) @ dvar
    dscores = alpha * (dalpha - float(alpha @ dalpha))

    dframes = alpha[:, None] * (dmean[None, :] + 2.0 * frames * dvar[None, :])
    dz = dscores[:, None] * (1.0 - tanh_z * tanh_z) * params.v[None, :]
    dframes += dz @ params.w
    grads = PoolGradients(
        frames=dframes,
        w=dz.T @ frames,
        b=dz.sum(axis=0),
        v=tanh_z.T @ dscores,
    )
    return pooled, grads
