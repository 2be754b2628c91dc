"""Deterministic toy embedder used for pipeline exercises."""

import numpy as np
import pytest

from svkit.config import FeatureConfig
from svkit.features import Waveform, apply_cmn, compute_logmel
from svkit.model.embedder import (
    ATTN_DIM,
    EMBED_DIM,
    HIDDEN_DIM,
    _seeded_params,
    embed_waveform,
    toy_embed,
)
from svkit.model.pooling import AttentionParams, attentive_stats_pool


def redrawn_embed(feats, seed):
    """Reference embedder: every parameter drawn afresh from the seed."""
    n_bins = feats.bins.shape[0]
    rng = np.random.default_rng(seed)
    proj_in = rng.standard_normal((HIDDEN_DIM, n_bins)) / np.sqrt(n_bins)
    params = AttentionParams.random(HIDDEN_DIM, ATTN_DIM, rng)
    proj_out = rng.standard_normal((EMBED_DIM, 2 * HIDDEN_DIM)) / np.sqrt(2 * HIDDEN_DIM)
    pooled = attentive_stats_pool(np.tanh(feats.bins.T @ proj_in.T), params)
    v = proj_out @ pooled
    return v / np.linalg.norm(v)


def tone(freq, duration, rate=16000, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    samples = np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
    return Waveform(samples=samples, sample_rate=rate)


class TestToyEmbed:
    def test_same_seed_same_embedding(self):
        feats = apply_cmn(compute_logmel(tone(440, 1.0), FeatureConfig()))
        a = toy_embed(feats, seed=7)
        b = toy_embed(feats, seed=7)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        feats = apply_cmn(compute_logmel(tone(440, 1.0), FeatureConfig()))
        emb = toy_embed(feats, seed=7)
        assert emb.shape == (EMBED_DIM,)
        assert abs(np.linalg.norm(emb) - 1.0) <= 1e-6

    def test_different_seeds_differ(self):
        feats = apply_cmn(compute_logmel(tone(440, 1.0), FeatureConfig()))
        a = toy_embed(feats, seed=1)
        b = toy_embed(feats, seed=2)
        assert float(a @ b) < 1.0 - 1e-6

    def test_seeds_1_2_1_give_the_same_bytes_as_redrawn_parameters(self):
        feats = apply_cmn(compute_logmel(tone(440, 1.0), FeatureConfig()))
        first, second, again = (toy_embed(feats, seed=s) for s in (1, 2, 1))
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() != second.tobytes()
        assert first.tobytes() == redrawn_embed(feats, 1).tobytes()
        assert second.tobytes() == redrawn_embed(feats, 2).tobytes()

    def test_cached_parameters_are_read_only(self):
        proj_in, attention, proj_out = _seeded_params(1, 80)
        for array in (proj_in, attention.w, attention.b, attention.v, proj_out):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_different_content_differs(self):
        feats_a = apply_cmn(compute_logmel(tone(440, 1.0), FeatureConfig()))
        feats_b = apply_cmn(compute_logmel(tone(1200, 1.0), FeatureConfig()))
        a = toy_embed(feats_a, seed=7)
        b = toy_embed(feats_b, seed=7)
        assert float(a @ b) < 1.0 - 1e-6


class TestEmbedWaveform:
    def test_matches_explicit_pipeline(self):
        wav = tone(440, 1.2)
        cfg = FeatureConfig()
        direct = embed_waveform(wav, seed=3, cfg=cfg)
        staged = toy_embed(apply_cmn(compute_logmel(wav, cfg)), seed=3)
        assert np.array_equal(direct, staged)
