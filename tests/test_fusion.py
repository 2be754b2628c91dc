"""Logistic-regression score fusion: fit, fuse, persistence, oracle checks."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from svkit import fusion
from svkit.fusion import (
    FusionModel,
    fit_fusion,
    fuse,
    fuse_matrix,
    mean_log_loss,
    parse_fusion_model,
    serialize_fusion_model,
    stack_scores,
)
from svkit.trials import ScoreSet, TrialList, parse_trials


def synthetic_problem(rng, n=300, m=3, noise=1.0):
    """Overlapping-class scores: informative but never separable."""
    labels = rng.random(n) < 0.4
    base = labels.astype(float) * 1.5
    matrix = base[:, None] + noise * rng.standard_normal((n, m))
    return matrix, labels


def gd_oracle(matrix, labels, l2, tol=1e-10, max_iter=500_000):
    """First-order solver for the same objective, run to a tighter gradient."""
    n, m = matrix.shape
    design = np.hstack([matrix, np.ones((n, 1))])
    reg = np.append(np.full(m, l2), 0.0)
    theta = np.zeros(m + 1)
    yf = labels.astype(np.float64)

    def obj(t):
        z = design @ t
        margins = np.where(labels, z, -z)
        return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * l2 * (t[:m] @ t[:m]))

    current = obj(theta)
    step = 1.0
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-(design @ theta)))
        grad = design.T @ (p - yf) / n + reg * theta
        if np.max(np.abs(grad)) <= tol:
            break
        step *= 1.5
        while True:
            candidate = theta - step * grad
            value = obj(candidate)
            if value < current:
                theta, current = candidate, value
                break
            step *= 0.5
            if step < 1e-20:
                return theta
    return theta


class TestFitFusion:
    def test_perfect_separator_gets_positive_weight(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([True, False], 50)
        scores = np.where(labels, 1.0, -1.0) + 0.01 * rng.standard_normal(100)
        model = fit_fusion(scores[:, None], labels, l2=1e-4)
        assert model.weights[0] > 0
        fused = fuse_matrix(model, scores[:, None])
        assert np.array_equal(np.argsort(fused), np.argsort(scores))

    def test_duplicate_columns_share_weight(self):
        rng = np.random.default_rng(1)
        matrix, labels = synthetic_problem(rng, m=1)
        doubled = np.hstack([matrix, matrix])
        model = fit_fusion(doubled, labels, l2=1e-4)
        assert abs(model.weights[0] - model.weights[1]) <= 1e-6

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(2)
        matrix, labels = synthetic_problem(rng, n=500, m=3)
        model = fit_fusion(matrix, labels, l2=1e-3)
        oracle = gd_oracle(matrix, labels, l2=1e-3)
        got = np.append(model.weights, model.bias)
        assert float(np.max(np.abs(got - oracle))) <= 1e-5

    def test_converges_on_easy_problem(self):
        rng = np.random.default_rng(3)
        matrix, labels = synthetic_problem(rng)
        model = fit_fusion(matrix, labels, l2=1e-4)
        assert model.converged
        assert model.iterations < 50

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        matrix, labels = synthetic_problem(rng)
        a = fit_fusion(matrix, labels, l2=1e-4)
        b = fit_fusion(matrix.copy(), labels.copy(), l2=1e-4)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.iterations == b.iterations

    def test_extreme_outlier_fits_without_warning(self):
        # exp overflows to inf on the outlier; the sigmoid must give 0 silently
        rng = np.random.default_rng(12)
        matrix, labels = synthetic_problem(rng, n=200, m=1)
        matrix[np.flatnonzero(~labels)[0], 0] = -1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_fusion(matrix, labels)
        assert model.converged
        assert np.all(np.isfinite(model.weights))

    def test_damped_step_taken_and_converges(self, monkeypatch):
        # well-separated scores, an extreme target on system 0 and a
        # non-target far on the wrong side of system 1: some full Newton
        # step raises the objective, so the line search halves it
        rng = np.random.default_rng(0)
        labels = np.arange(60) % 2 == 0
        matrix = 3.0 * labels[:, None] + rng.standard_normal((60, 2))
        matrix[0, 0], matrix[1, 1] = 300.0, 30.0
        calls = []

        def counted(fused, labels):
            calls.append(1)
            return mean_log_loss(fused, labels)

        monkeypatch.setattr(fusion, "mean_log_loss", counted)
        model = fit_fusion(matrix, labels)
        # the start and each accepted step cost one objective each; the rest are halved steps
        assert len(calls) > 1 + model.iterations
        assert model.converged

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            fit_fusion(np.zeros((4, 1)), np.array([True] * 4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_fusion(np.array([[np.nan], [0.0]]), np.array([True, False]))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            fit_fusion(np.zeros((4, 1)), np.array([True, False]))

    @pytest.mark.parametrize("m", [2, 7])
    def test_scratch_stays_under_m_plus_5_columns(self, m):
        # a design matrix with a ones column plus its weighted copy takes 10 (m=2), 19 (m=7)
        n = 100_000
        matrix, labels = synthetic_problem(np.random.default_rng(5), n=n, m=m)
        tracemalloc.start()
        try:
            model = fit_fusion(matrix, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.converged
        assert peak < (m + 5) * n * 8


class TestFusionDominance:
    def test_fitted_beats_calibrated_singles(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = int(rng.integers(2, 5))
            matrix, labels = synthetic_problem(rng, n=250, m=m)
            fitted = fit_fusion(matrix, labels, l2=0.0)
            fitted_loss = mean_log_loss(fuse_matrix(fitted, matrix), labels)
            for j in range(m):
                single = fit_fusion(matrix[:, [j]], labels, l2=0.0)
                single_loss = mean_log_loss(fuse_matrix(single, matrix[:, [j]]), labels)
                assert fitted_loss <= single_loss + 1e-9

    def test_fitted_beats_average_sum_baseline(self):
        rng = np.random.default_rng(6)
        matrix, labels = synthetic_problem(rng, n=250, m=4)
        fitted = fit_fusion(matrix, labels, l2=0.0)
        fitted_loss = mean_log_loss(fuse_matrix(fitted, matrix), labels)
        averaged = matrix.mean(axis=1, keepdims=True)
        baseline = fit_fusion(averaged, labels, l2=0.0)
        baseline_loss = mean_log_loss(fuse_matrix(baseline, averaged), labels)
        assert fitted_loss <= baseline_loss + 1e-9


class TestFuse:
    def test_projection_weights_reproduce_system(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((20, 3))
        model = FusionModel(
            weights=np.array([1.0, 0.0, 0.0]), bias=0.0, converged=True, iterations=0
        )
        assert np.array_equal(fuse_matrix(model, matrix), matrix[:, 0])

    def test_zero_weights_give_constant(self):
        model = FusionModel(
            weights=np.zeros(2), bias=0.25, converged=True, iterations=0
        )
        fused = fuse_matrix(model, np.random.default_rng(8).standard_normal((10, 2)))
        assert np.all(fused == 0.25)

    def test_ranking_invariant_under_positive_weight_scaling(self):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((30, 2))
        w = np.array([0.7, 0.3])
        m1 = FusionModel(weights=w, bias=0.1, converged=True, iterations=0)
        m2 = FusionModel(weights=3.0 * w, bias=0.1, converged=True, iterations=0)
        a = fuse_matrix(m1, matrix)
        b = fuse_matrix(m2, matrix)
        assert np.array_equal(np.argsort(a, kind="stable"), np.argsort(b, kind="stable"))

    def test_dimension_mismatch_rejected(self):
        model = FusionModel(
            weights=np.zeros(2), bias=0.0, converged=True, iterations=0
        )
        with pytest.raises(ValueError, match="systems"):
            fuse_matrix(model, np.zeros((4, 3)))

    def test_fuse_builds_aligned_scoreset(self):
        trials = TrialList(["a", "a"], ["b", "c"])
        model = FusionModel(
            weights=np.array([2.0]), bias=1.0, converged=True, iterations=0
        )
        out = fuse(model, np.array([[1.0], [2.0]]), trials)
        assert isinstance(out, ScoreSet)
        assert np.array_equal(out.scores, [3.0, 5.0])


class TestStackScores:
    def test_stacks_columns_in_order(self):
        trials = TrialList(["a", "a"], ["b", "c"])
        s1 = ScoreSet(trials=trials, scores=np.array([1.0, 2.0]))
        s2 = ScoreSet(trials=trials, scores=np.array([3.0, 4.0]))
        assert np.array_equal(stack_scores([s1, s2]), [[1.0, 3.0], [2.0, 4.0]])

    def test_mismatched_trials_rejected(self):
        t1 = TrialList(["a"], ["b"])
        t2 = TrialList(["a"], ["c"])
        s1 = ScoreSet(trials=t1, scores=np.array([1.0]))
        s2 = ScoreSet(trials=t2, scores=np.array([1.0]))
        with pytest.raises(ValueError, match="different trial lists"):
            stack_scores([s1, s2])

    def test_same_pairs_built_separately_accepted(self):
        parsed = parse_trials("a b\na\tc\n", labeled=False)
        built = TrialList(["a", "a"], ["b", "c"])
        s1 = ScoreSet(trials=parsed, scores=np.array([1.0, 2.0]))
        s2 = ScoreSet(trials=built, scores=np.array([3.0, 4.0]))
        assert np.array_equal(stack_scores([s1, s2]), [[1.0, 3.0], [2.0, 4.0]])
        # differs from the lists above only in the second trial's test id
        renamed = TrialList(["a", "a"], ["b", "d"])
        s3 = ScoreSet(trials=renamed, scores=np.array([3.0, 4.0]))
        with pytest.raises(ValueError, match="different trial lists"):
            stack_scores([s1, s3])


class TestModelText:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(10)
        matrix, labels = synthetic_problem(rng)
        model = fit_fusion(matrix, labels, l2=1e-4)
        text = serialize_fusion_model(model)
        back = parse_fusion_model(text)
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias

    def test_text_layout(self):
        model = FusionModel(
            weights=np.array([0.5, -1.25]), bias=2.0, converged=True, iterations=0
        )
        assert serialize_fusion_model(model) == "2.0 0.5 -1.25\n"

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError, match="bias and at least one weight"):
            parse_fusion_model("1.0\n")
        with pytest.raises(ValueError, match="bad fusion model value"):
            parse_fusion_model("1.0 abc\n")


# model-like text: float reprs, special and malformed number tokens, and
# arbitrary strings, joined by assorted whitespace
MODEL_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "0x10", "1,5", "abc", "\u0661\u0662"]),
    st.text(max_size=6),
)
MODEL_TEXTS = st.one_of(
    st.text(),
    st.tuples(st.lists(MODEL_TOKENS, max_size=6), st.sampled_from([" ", "\t", "\n", "\x85 "]))
    .map(lambda parts: parts[1].join(parts[0])),
)


class TestModelTextFuzz:
    @settings(max_examples=300, deadline=None)
    @given(MODEL_TEXTS)
    def test_any_text_raises_only_value_error(self, text):
        try:
            model = parse_fusion_model(text)
        except ValueError:
            event("rejected")
            return
        event("parsed")
        # whatever parses is finite, has one weight per token after the
        # bias, and round-trips through the text form
        assert model.n_systems == len(text.split()) - 1
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        back = parse_fusion_model(serialize_fusion_model(model))
        assert np.array_equal(back.weights, model.weights) and back.bias == model.bias
