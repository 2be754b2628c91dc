"""Deterministic toy embedding extractor.

Stands in for a trained network so the scoring pipeline can run end to end:
a seeded random projection of the feature frames with tanh, attentive
statistics pooling with seeded parameters, a second seeded projection to
512 dimensions, then length normalization. Pure function of (input, seed).
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import FeatureConfig
from ..features import MelFeatures, Waveform, apply_cmn, compute_logmel
from .losses import length_normalize
from .pooling import AttentionParams, attentive_stats_pool

HIDDEN_DIM = 64
ATTN_DIM = 32
EMBED_DIM = 512


@functools.lru_cache(maxsize=8)
def _seeded_params(seed: int, n_bins: int) -> tuple[np.ndarray, AttentionParams, np.ndarray]:
    """The embedder's parameters for one (seed, n_bins), drawn once, read-only."""
    rng = np.random.default_rng(seed)
    proj_in = rng.standard_normal((HIDDEN_DIM, n_bins)) / np.sqrt(n_bins)
    attention = AttentionParams.random(HIDDEN_DIM, ATTN_DIM, rng)
    proj_out = rng.standard_normal((EMBED_DIM, 2 * HIDDEN_DIM)) / np.sqrt(2 * HIDDEN_DIM)
    for array in (proj_in, attention.w, attention.b, attention.v, proj_out):
        array.flags.writeable = False
    return proj_in, attention, proj_out


def toy_embed(feats: MelFeatures, seed: int) -> np.ndarray:
    """512-dim unit embedding of a feature matrix, deterministic per seed."""
    if feats.n_frames < 1:
        raise ValueError("need at least one feature frame")
    proj_in, attention, proj_out = _seeded_params(seed, feats.bins.shape[0])
    frames = np.tanh(feats.bins.T @ proj_in.T)
    pooled = attentive_stats_pool(frames, attention)
    return length_normalize(proj_out @ pooled)


def embed_waveform(w: Waveform, seed: int, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Waveform -> log-Mel -> CMN -> toy embedding."""
    return toy_embed(apply_cmn(compute_logmel(w, cfg)), seed)
