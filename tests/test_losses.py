"""Margin loss math: normalization, subcenter pooling, CE, AAM gradients."""

import math

import numpy as np
import pytest

from _gradcheck import central_difference, max_rel_err
from svkit.model.losses import (
    LossConfig,
    SubcenterWeights,
    aam_softmax_loss,
    length_normalize,
    softmax_ce_loss,
    subcenter_cosines,
)


class TestLengthNormalize:
    def test_three_four_five(self):
        assert np.allclose(length_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.zeros(8)
        v[2] = 1.0
        assert np.allclose(length_normalize(v), v, atol=1e-15)

    def test_random_512_dim_norm(self):
        rng = np.random.default_rng(1)
        out = length_normalize(rng.standard_normal(512))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-7

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            length_normalize(np.zeros(4))


def orthonormal_pair(rng, dim):
    x = length_normalize(rng.standard_normal(dim))
    o = rng.standard_normal(dim)
    o -= (o @ x) * x
    return x, length_normalize(o)


class TestSubcenterCosines:
    def test_k1_equals_plain_cosine_exactly(self):
        rng = np.random.default_rng(2)
        x = length_normalize(rng.standard_normal(16))
        w = SubcenterWeights.random(16, 5, 1, rng)
        cosines, active = subcenter_cosines(x, w)
        plain = np.array([x @ w.tensor[:, j, 0] for j in range(5)])
        assert np.array_equal(cosines, plain)
        assert np.all(active == 0)

    def test_opposite_subcenters_pick_aligned_one(self):
        rng = np.random.default_rng(3)
        x, o = orthonormal_pair(rng, 8)
        tensor = np.stack([np.stack([x, -x], axis=1), np.stack([o, -o], axis=1)], axis=1)
        cosines, active = subcenter_cosines(x, tensor)
        assert cosines[0] == pytest.approx(1.0, abs=1e-12)
        assert active[0] == 0

    def test_tie_breaks_to_smallest_index(self):
        rng = np.random.default_rng(4)
        x, o = orthonormal_pair(rng, 8)
        tensor = np.stack([np.stack([x, x], axis=1), np.stack([o, o], axis=1)], axis=1)
        _, active = subcenter_cosines(x, tensor)
        assert np.all(active == 0)

    def test_matches_bruteforce_max(self):
        rng = np.random.default_rng(5)
        x = length_normalize(rng.standard_normal(12))
        w = SubcenterWeights.random(12, 5, 3, rng)
        cosines, active = subcenter_cosines(x, w)
        for j in range(5):
            per_k = [float(x @ w.tensor[:, j, k]) for k in range(3)]
            assert cosines[j] == max(per_k)
            assert active[j] == per_k.index(max(per_k))

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(6)
        x = length_normalize(rng.standard_normal(12))
        w = SubcenterWeights.random(12, 7, 2, rng)
        cosines, _ = subcenter_cosines(x, w)
        assert np.all(cosines >= -1.0 - 1e-12)
        assert np.all(cosines <= 1.0 + 1e-12)


class TestSubcenterWeights:
    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not length-normalized"):
            SubcenterWeights(np.ones((4, 2, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    def test_non_finite_or_off_norm_entry_names_its_class(self, bad):
        tensor = SubcenterWeights.random(4, 3, 2, np.random.default_rng(5)).tensor.copy()
        tensor[1, 2, 1] = bad
        with pytest.raises(ValueError, match=r"^a subcenter of class 2 is not length-normalized"):
            SubcenterWeights(tensor)

    def test_single_class_rejected(self):
        t = np.ones((4, 1, 1)) / 2.0
        with pytest.raises(ValueError, match="classes"):
            SubcenterWeights(t)


class TestSoftmaxCeLoss:
    def test_uniform_logits(self):
        out = softmax_ce_loss(np.zeros(4), 2)
        assert out.loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_extreme_logits_no_overflow(self):
        out = softmax_ce_loss(np.array([10.0, -10.0]), 0)
        assert out.loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        big = softmax_ce_loss(np.array([1000.0, -1000.0]), 0)
        assert np.isfinite(big.loss)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([1.0, 2.0, 0.5])
        out = softmax_ce_loss(logits, 1)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        p[1] -= 1.0
        assert np.allclose(out.grad_x, p, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 9))
            logits = rng.standard_normal(n) * 3.0
            y = int(rng.integers(n))
            analytic = softmax_ce_loss(logits, y).grad_x
            numeric = central_difference(lambda z: softmax_ce_loss(z, y).loss, logits)
            worst = max(worst, max_rel_err(analytic, numeric))
        assert worst <= 1e-6

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            softmax_ce_loss(np.zeros(3), 3)


def random_aam_instance(rng, dim=None, n=None, k=None, margin=0.3):
    """Random instance kept away from the regimes finite differences
    cannot resolve: argmax ties, cosine saturation, and a softmax so
    confident the loss (and gradient) vanish below fp noise."""
    while True:
        d = dim or int(rng.integers(4, 17))
        n_classes = n or int(rng.integers(2, 9))
        subcenters = k or int(rng.integers(1, 4))
        x = length_normalize(rng.standard_normal(d))
        w = SubcenterWeights.random(d, n_classes, subcenters, rng)
        y = int(rng.integers(n_classes))
        per = np.einsum("d,dnk->nk", x, w.tensor)
        top2 = np.sort(per, axis=1)
        gap_ok = subcenters == 1 or np.all(top2[:, -1] - top2[:, -2] > 1e-3)
        if not (gap_ok and np.max(np.abs(per)) < 0.99):
            continue
        probe = LossConfig(scale=30.0, margin=margin)
        if aam_softmax_loss(x, y, w, probe).loss >= 1e-3:
            return x, y, w


class TestAamSoftmaxLoss:
    def test_zero_margin_reduces_to_ce_on_scaled_cosines(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, y, w = random_aam_instance(rng)
            cfg = LossConfig(scale=30.0, margin=0.0)
            aam = aam_softmax_loss(x, y, w, cfg)
            cosines, _ = subcenter_cosines(x, w)
            ce = softmax_ce_loss(30.0 * cosines, y)
            assert abs(aam.loss - ce.loss) <= 1e-12

    def test_closed_form_two_class_case(self):
        rng = np.random.default_rng(9)
        x, o = orthonormal_pair(rng, 32)
        tensor = np.stack([x[:, None], o[:, None]], axis=1)
        cfg = LossConfig(scale=1.0, margin=0.0)
        out = aam_softmax_loss(x, 0, tensor, cfg)
        assert out.loss == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        worst_x = worst_w = 0.0
        for _ in range(25):
            x, y, w = random_aam_instance(rng)
            cfg = LossConfig(scale=30.0, margin=0.3)
            out = aam_softmax_loss(x, y, w, cfg)

            num_x = central_difference(
                lambda xv: aam_softmax_loss(xv, y, w.tensor, cfg).loss, x.copy()
            )
            worst_x = max(worst_x, max_rel_err(out.grad_x, num_x))

            num_w = central_difference(
                lambda wv: aam_softmax_loss(x, y, wv, cfg).loss, w.tensor.copy()
            )
            worst_w = max(worst_w, max_rel_err(out.grad_w, num_w))
        assert worst_x <= 1e-5
        assert worst_w <= 1e-5

    def test_training_margins_all_differentiate(self):
        rng = np.random.default_rng(11)
        x, y, w = random_aam_instance(rng, dim=8, n=6, k=2)
        for margin in (0.3, 0.5, 0.6):
            cfg = LossConfig(scale=30.0, margin=margin)
            out = aam_softmax_loss(x, y, w, cfg)
            num = central_difference(
                lambda xv: aam_softmax_loss(xv, y, w.tensor, cfg).loss, x.copy()
            )
            assert max_rel_err(out.grad_x, num) <= 1e-5

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 10:
            x, y, w = random_aam_instance(rng)
            cosines, _ = subcenter_cosines(x, w)
            theta = math.acos(float(np.clip(cosines[y], -1, 1)))
            if not 0.05 < theta < math.pi / 2 - 0.55:
                continue
            losses = [
                aam_softmax_loss(x, y, w, LossConfig(scale=30.0, margin=m)).loss
                for m in (0.0, 0.1, 0.3, 0.5)
            ]
            assert all(b > a for a, b in zip(losses, losses[1:]))
            checked += 1

    def test_gradient_only_through_active_subcenter(self):
        rng = np.random.default_rng(13)
        x, y, w = random_aam_instance(rng, dim=8, n=4, k=3)
        out = aam_softmax_loss(x, y, w, LossConfig(scale=30.0, margin=0.3))
        for j in range(4):
            for k in range(3):
                column = out.grad_w[:, j, k]
                if k == out.active_subcenter[j]:
                    assert np.any(column != 0.0)
                else:
                    assert np.all(column == 0.0)

    def test_unnormalized_cosine_rejected(self):
        rng = np.random.default_rng(14)
        _, y, w = random_aam_instance(rng, dim=8, n=4, k=1)
        huge = np.full(8, 10.0)
        with pytest.raises(ValueError, match="outside"):
            aam_softmax_loss(huge, y, w, LossConfig(scale=30.0, margin=0.3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(scale=-1.0)
        with pytest.raises(ValueError):
            LossConfig(margin=math.pi)
