"""EER and minimum detection cost: hand values, properties, oracle equality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit.metrics import DcfConfig, RocCurve, eer, evaluate_scores, min_dcf, roc_points
from svkit.trials import ScoreSet, TrialList


def labeled_scores(target_scores, nontarget_scores):
    n_tar, n_non = len(target_scores), len(nontarget_scores)
    enroll = [f"e{i}" for i in range(n_tar)] + [f"e{i}" for i in range(n_non)]
    test = [f"t{i}" for i in range(n_tar)] + [f"n{i}" for i in range(n_non)]
    trials = TrialList(enroll, test, [True] * n_tar + [False] * n_non)
    return ScoreSet(trials=trials, scores=np.array([*target_scores, *nontarget_scores]))


def sweep_oracle(target_scores, nontarget_scores):
    """Independent per-threshold counting sweep (no cumulative sums)."""
    targets = np.asarray(target_scores, dtype=np.float64)
    nontargets = np.asarray(nontarget_scores, dtype=np.float64)
    thresholds = sorted(set(np.concatenate([targets, nontargets]))) + [np.inf]
    pm = np.array([np.count_nonzero(targets < t) / len(targets) for t in thresholds])
    pf = np.array(
        [np.count_nonzero(nontargets >= t) / len(nontargets) for t in thresholds]
    )
    return pm, pf


def oracle_eer(pm, pf):
    diff = pm - pf
    i = int(np.argmax(diff >= 0))
    if diff[i] == 0.0:
        return 100.0 * pm[i]
    t = (pf[i - 1] - pm[i - 1]) / ((pm[i] - pm[i - 1]) - (pf[i] - pf[i - 1]))
    return 100.0 * (pm[i - 1] + t * (pm[i] - pm[i - 1]))


class TestRocPoints:
    def test_perfect_separation_has_zero_zero_point(self):
        curve = roc_points(labeled_scores([0.9, 0.8], [0.2, 0.1]))
        both_zero = (curve.p_miss == 0) & (curve.p_fa == 0)
        assert np.any(both_zero)

    def test_all_scores_equal_gives_two_sentinels(self):
        curve = roc_points(labeled_scores([0.5, 0.5], [0.5, 0.5]))
        assert len(curve) == 2
        assert (curve.p_miss[0], curve.p_fa[0]) == (0.0, 1.0)
        assert (curve.p_miss[1], curve.p_fa[1]) == (1.0, 0.0)

    def test_endpoints_always_present(self):
        rng = np.random.default_rng(0)
        curve = roc_points(
            labeled_scores(rng.standard_normal(50), rng.standard_normal(70))
        )
        assert (curve.p_miss[0], curve.p_fa[0]) == (0.0, 1.0)
        assert (curve.p_miss[-1], curve.p_fa[-1]) == (1.0, 0.0)
        assert curve.n_target == 50
        assert curve.n_nontarget == 70

    def test_monotonicity_on_random_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0], size=1000)
        labels = rng.random(1000) < 0.3
        curve = roc_points(
            labeled_scores(scores[labels], scores[~labels])
        )
        assert np.all(np.diff(curve.p_miss) >= 0)
        assert np.all(np.diff(curve.p_fa) <= 0)

    def test_scratch_stays_under_7_score_arrays(self):
        # full-length cumulative counts for targets and for nontargets take 9.3
        n = 100_000
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(n)  # all distinct: one threshold per trial
        labels = rng.random(n) < 0.1
        score_set = labeled_scores(scores[labels], scores[~labels])
        tracemalloc.start()
        try:
            curve = roc_points(score_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == n + 1
        assert peak < 7 * n * 8

    def test_single_class_rejected(self):
        trials = TrialList(["a", "a"], ["b", "c"], [True, True])
        with pytest.raises(ValueError, match="degenerate labels"):
            roc_points(ScoreSet(trials=trials, scores=np.array([0.1, 0.2])))

    def test_unlabeled_rejected(self):
        trials = TrialList(["a", "a"], ["b", "c"])
        with pytest.raises(ValueError, match="labeled"):
            roc_points(ScoreSet(trials=trials, scores=np.array([0.1, 0.2])))


class TestEer:
    def test_perfect_separation(self):
        assert eer(roc_points(labeled_scores([0.9, 0.8], [0.2, 0.1]))) == 0.0

    def test_interleaved_half(self):
        assert eer(roc_points(labeled_scores([0.9, 0.2], [0.8, 0.1]))) == pytest.approx(
            50.0, abs=1e-12
        )

    def test_fully_inverted(self):
        assert eer(roc_points(labeled_scores([0.1, 0.2], [0.8, 0.9]))) == pytest.approx(
            100.0, abs=1e-12
        )

    def test_matches_independent_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_t = int(rng.integers(2, 60))
            n_n = int(rng.integers(2, 60))
            targets = np.round(rng.standard_normal(n_t) + 1.0, 2)
            nontargets = np.round(rng.standard_normal(n_n), 2)
            got = eer(roc_points(labeled_scores(targets, nontargets)))
            pm, pf = sweep_oracle(targets, nontargets)
            assert got == pytest.approx(oracle_eer(pm, pf), abs=1e-9)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(3)
        targets = rng.standard_normal(40) + 0.5
        nontargets = rng.standard_normal(40)
        base = eer(roc_points(labeled_scores(targets, nontargets)))
        for f in (lambda s: 2.0 * s + 1.0, np.exp, np.arctan):
            transformed = eer(roc_points(labeled_scores(f(targets), f(nontargets))))
            assert transformed == base


class TestMinDcf:
    def test_perfect_separation(self):
        assert min_dcf(roc_points(labeled_scores([0.9, 0.8], [0.2, 0.1]))) == 0.0

    def test_all_equal_is_one(self):
        curve = roc_points(labeled_scores([0.5, 0.5], [0.5, 0.5]))
        # reject-all costs 1 after normalization, accept-all costs 19
        assert min_dcf(curve) == 1.0

    def test_matches_independent_sweep_bitwise(self):
        rng = np.random.default_rng(4)
        cfg = DcfConfig()
        for _ in range(30):
            targets = np.round(rng.standard_normal(25) + 1.0, 2)
            nontargets = np.round(rng.standard_normal(35), 2)
            curve = roc_points(labeled_scores(targets, nontargets))
            got = min_dcf(curve, cfg)
            pm, pf = sweep_oracle(targets, nontargets)
            costs = cfg.c_miss * cfg.p_target * pm + cfg.c_fa * (1.0 - cfg.p_target) * pf
            want = float(np.min(costs)) / min(
                cfg.c_miss * cfg.p_target, cfg.c_fa * (1.0 - cfg.p_target)
            )
            assert got == want

    def test_bounded_by_trivial_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            targets = rng.standard_normal(30)
            nontargets = rng.standard_normal(30)
            value = min_dcf(roc_points(labeled_scores(targets, nontargets)))
            assert 0.0 <= value <= 1.0

    def test_custom_costs(self):
        curve = roc_points(labeled_scores([0.5, 0.5], [0.5, 0.5]))
        cfg = DcfConfig(p_target=0.01, c_miss=10.0, c_fa=1.0)
        # accept-all: 0.99/0.1 = 9.9; reject-all: 0.1/0.1 = 1
        assert min_dcf(curve, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="p_target"):
            DcfConfig(p_target=1.0)
        with pytest.raises(ValueError, match="costs"):
            DcfConfig(c_miss=0.0)


class TestEvaluateScores:
    def test_returns_both_metrics(self):
        s = labeled_scores([0.9, 0.8], [0.2, 0.1])
        e, d = evaluate_scores(s)
        assert e == 0.0
        assert d == 0.0


class TestRocCurveValidation:
    def test_nonmonotone_miss_rejected(self):
        with pytest.raises(ValueError, match="P_miss"):
            RocCurve(
                thresholds=np.array([0.0, 1.0]),
                p_miss=np.array([0.5, 0.0]),
                p_fa=np.array([1.0, 0.0]),
                n_target=1,
                n_nontarget=1,
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            RocCurve(
                thresholds=np.array([0.0, 1.0]),
                p_miss=np.array([0.0, 1.5]),
                p_fa=np.array([1.0, 0.0]),
                n_target=1,
                n_nontarget=1,
            )


@settings(max_examples=60, deadline=None)
@given(
    targets=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    nontargets=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
)
def test_metric_ranges_property(targets, nontargets):
    # integer-valued scores force plenty of ties through the tie-handling path
    s = labeled_scores(np.array(targets, dtype=float), np.array(nontargets, dtype=float))
    e, d = evaluate_scores(s)
    assert 0.0 <= e <= 100.0
    assert 0.0 <= d <= 1.0
