"""Attentive statistics pooling: values and vector-Jacobian products."""

import math

import numpy as np
import pytest

from _gradcheck import central_difference, max_rel_err
from svkit.model.pooling import (
    AttentionParams,
    attentive_stats_pool,
    attentive_stats_pool_vjp,
)

SQRT_FLOOR = math.sqrt(1e-9)


def random_params(rng, feat_dim, attn_dim=5):
    return AttentionParams.random(feat_dim, attn_dim, rng)


class TestPoolValues:
    def test_identical_frames_give_frame_and_floor_sigma(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(6)
        frames = np.tile(frame, (9, 1))
        pooled = attentive_stats_pool(frames, random_params(rng, 6))
        assert np.allclose(pooled[:6], frame, atol=1e-12)
        assert np.allclose(pooled[6:], SQRT_FLOOR, atol=1e-12)

    def test_zero_v_gives_uniform_attention(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((7, 4))
        params = random_params(rng, 4)
        params = AttentionParams(w=params.w, b=params.b, v=np.zeros_like(params.v))
        pooled = attentive_stats_pool(frames, params)
        assert np.allclose(pooled[:4], frames.mean(axis=0), atol=1e-12)

    def test_single_frame(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((1, 5))
        pooled = attentive_stats_pool(frames, random_params(rng, 5))
        assert np.allclose(pooled[:5], frames[0], atol=1e-12)
        assert np.allclose(pooled[5:], SQRT_FLOOR, atol=1e-12)

    def test_sigma_never_below_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = int(rng.integers(1, 12))
            d = int(rng.integers(1, 8))
            scale = 10.0 ** rng.uniform(-6, 1)
            frames = rng.standard_normal((t, d)) * scale
            pooled = attentive_stats_pool(frames, random_params(rng, d))
            assert np.all(pooled[d:] >= SQRT_FLOOR - 1e-15)

    def test_empty_frames_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            attentive_stats_pool(np.zeros((0, 4)), random_params(rng, 4))


class TestPoolGradients:
    def test_vjp_forward_matches_plain_forward(self):
        rng = np.random.default_rng(6)
        frames = rng.standard_normal((7, 4))
        params = random_params(rng, 4)
        upstream = rng.standard_normal(8)
        pooled, _ = attentive_stats_pool_vjp(frames, params, upstream)
        assert np.array_equal(pooled, attentive_stats_pool(frames, params))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = {"frames": 0.0, "w": 0.0, "b": 0.0, "v": 0.0}
        for _ in range(25):
            t = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            frames = rng.standard_normal((t, d))
            params = random_params(rng, d, attn_dim=int(rng.integers(2, 6)))
            upstream = rng.standard_normal(2 * d)

            def scalar(frames=frames, params=params):
                return float(upstream @ attentive_stats_pool(frames, params))

            _, grads = attentive_stats_pool_vjp(frames, params, upstream)

            num = central_difference(
                lambda fv: float(upstream @ attentive_stats_pool(fv, params)), frames.copy()
            )
            worst["frames"] = max(worst["frames"], max_rel_err(grads.frames, num))

            num = central_difference(
                lambda wv: float(
                    upstream
                    @ attentive_stats_pool(frames, AttentionParams(wv, params.b, params.v))
                ),
                params.w.copy(),
            )
            worst["w"] = max(worst["w"], max_rel_err(grads.w, num))

            num = central_difference(
                lambda bv: float(
                    upstream
                    @ attentive_stats_pool(frames, AttentionParams(params.w, bv, params.v))
                ),
                params.b.copy(),
            )
            worst["b"] = max(worst["b"], max_rel_err(grads.b, num))

            num = central_difference(
                lambda vv: float(
                    upstream
                    @ attentive_stats_pool(frames, AttentionParams(params.w, params.b, vv))
                ),
                params.v.copy(),
            )
            worst["v"] = max(worst["v"], max_rel_err(grads.v, num))
        assert all(err <= 1e-5 for err in worst.values()), worst

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(8)
        frames = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="upstream"):
            attentive_stats_pool_vjp(frames, random_params(rng, 4), np.zeros(4))


class TestAttentionParams:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            AttentionParams(w=np.zeros((3, 4)), b=np.zeros(2), v=np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AttentionParams(w=np.full((2, 2), np.nan), b=np.zeros(2), v=np.zeros(2))
