"""Cosine, AS-Norm, and segment-matrix scoring."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _text_oracle import trial_ids
import svkit
from svkit.config import MAX_N_SEGMENTS
from svkit.features import Waveform
from svkit.model.losses import length_normalize
from svkit.scoring import (
    COHORT_BLOCK,
    CohortError,
    SegmentPlan,
    TRIAL_CHUNK,
    asnorm_score,
    cohort_stats,
    dot_rows,
    extract_segments,
    score_trials,
    segment_id,
    segment_means,
    segment_plan,
)
from svkit.store import EmbeddingStore
from svkit.trials import TrialList


def unit(v):
    return length_normalize(np.asarray(v, dtype=np.float64))


def random_units(rng, n, dim):
    return np.array([length_normalize(rng.standard_normal(dim)) for _ in range(n)])


def cosine_score(a, b):
    """The raw score of one pair of unit-norm rows: one dot_rows."""
    return float(dot_rows(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def msa_score(a, b):
    """The MSA score of two segment sets of any sizes: one dot of their
    checked `segment_means` rows."""
    mean_a, mean_b = (segment_means(np.asarray(s, dtype=np.float64)[None], "segment set {}".format)
                      for s in (a, b))
    return float(dot_rows(mean_a, mean_b)[0])


class TestCosineScore:
    def test_identical_vectors(self):
        v = unit([1.0, 2.0, 3.0])
        assert cosine_score(v, v) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine_score(np.array([0.6, 0.8]), np.array([1.0, 0.0])) == 0.6

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = random_units(rng, 2, 16)
        assert cosine_score(a, b) == cosine_score(b, a)

    # raw scoring reads its vectors from a store, which holds only unit-norm ones
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="^embedding 'e' is not length-normalized"):
            EmbeddingStore(["e", "t"], [[1.0, 1.0], [1.0, 0.0]])

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match="^embedding vectors must be finite$"):
            EmbeddingStore(["e", "t"], [[np.nan, 0.0], [1.0, 0.0]])


def cohort_from_scores(e, target_scores, rng):
    """Cohort store whose vectors hit given cosine scores against e."""
    dim = len(e)
    vectors = []
    for s in target_scores:
        perp = rng.standard_normal(dim)
        perp -= (perp @ e) * e
        perp = perp / np.linalg.norm(perp)
        vectors.append(s * e + math.sqrt(1.0 - s * s) * perp)
    ids = [f"c{i}" for i in range(len(vectors))]
    return EmbeddingStore(ids, np.array(vectors))


class TestCohortStats:
    def test_hand_example_top2_of_three(self):
        rng = np.random.default_rng(1)
        e = unit(np.append(1.0, np.zeros(7)))
        cohort = cohort_from_scores(e, [0.1, 0.2, 0.3], rng)
        mean, std = cohort_stats(e[None], cohort, k=2)
        assert mean[0] == pytest.approx(0.25, abs=1e-7)
        assert std[0] == pytest.approx(0.05, abs=1e-7)

    def test_k_equals_cohort_size_uses_all(self):
        rng = np.random.default_rng(2)
        e = length_normalize(rng.standard_normal(8))
        cohort = EmbeddingStore(
            [f"c{i}" for i in range(6)], random_units(rng, 6, 8)
        )
        mean, std = cohort_stats(e[None], cohort, k=6)
        scores = cohort.vectors.astype(np.float64) @ e
        assert mean[0] == pytest.approx(float(np.mean(scores)), abs=1e-12)
        assert std[0] == pytest.approx(float(np.std(scores)), abs=1e-12)

    def test_population_std_convention(self):
        rng = np.random.default_rng(3)
        e = unit(np.append(1.0, np.zeros(5)))
        cohort = cohort_from_scores(e, [0.0, 0.4, 0.8], rng)
        _, std = cohort_stats(e[None], cohort, k=3)
        # population sigma of {0, 0.4, 0.8}, not the sample (1/(K-1)) one
        assert std[0] == pytest.approx(math.sqrt(0.32 / 3), abs=1e-7)

    def test_topk_matches_full_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(4, 12))
            e = length_normalize(rng.standard_normal(dim))
            n = int(rng.integers(5, 40))
            cohort = EmbeddingStore([f"c{i}" for i in range(n)], random_units(rng, n, dim))
            k = int(rng.integers(1, n + 1))
            scores = sorted(cohort.vectors.astype(np.float64) @ e, reverse=True)[:k]
            mean = sum(scores) / k
            var = sum((s - mean) ** 2 for s in scores) / k
            try:
                got_mean, got_std = cohort_stats(e[None], cohort, k=k)
            except ValueError:
                assert math.sqrt(var) < 1e-9
                continue
            assert got_mean[0] == pytest.approx(mean, abs=1e-12)
            assert got_std[0] == pytest.approx(math.sqrt(var), abs=1e-12)

    @pytest.mark.parametrize("n_rows", [32, 4096])
    def test_peak_memory_does_not_grow_with_rows(self, n_rows):
        # one score block of COHORT_BLOCK x (cohort + 8) is scored and
        # partitioned in place; beyond it only per-row arrays grow (the
        # means and stds, the row index and the row norms: 32 bytes a row)
        rng = np.random.default_rng(41)
        n_cohort = 2003
        cohort = EmbeddingStore([f"c{i}" for i in range(n_cohort)],
                                random_units(rng, n_cohort, 64))
        rows = random_units(rng, n_rows, 64)
        tracemalloc.start()
        try:
            mean, _ = cohort_stats(rows, cohort, k=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mean) == n_rows
        block = COHORT_BLOCK * (n_cohort + 8) * 8
        assert peak < 1.5 * block + 32 * n_rows

    def test_degenerate_cohort_rejected(self):
        e = unit(np.append(1.0, np.zeros(3)))
        copies = np.tile(e, (5, 1))
        cohort = EmbeddingStore([f"c{i}" for i in range(5)], copies)
        with pytest.raises(CohortError, match="degenerate"):
            cohort_stats(e[None], cohort, k=3)

    def test_cohort_smaller_than_k_rejected(self):
        rng = np.random.default_rng(5)
        e = length_normalize(rng.standard_normal(4))
        cohort = EmbeddingStore(["a", "b"], random_units(rng, 2, 4))
        with pytest.raises(CohortError, match="cohort has 2"):
            cohort_stats(e[None], cohort, k=3)

    def test_cohort_of_another_dim_rejected(self):
        rng = np.random.default_rng(6)
        cohort = make_store(rng, ["a", "b", "c"], dim=3)
        with pytest.raises(CohortError, match=r"shape \(2, 4\) does not match cohort dim 3"):
            cohort_stats(random_units(rng, 2, 4), cohort, k=2)

    def test_single_vector_rejected(self):
        rng = np.random.default_rng(21)
        cohort = make_store(rng, ["a", "b", "c"], dim=4)
        with pytest.raises(ValueError, match="does not match cohort dim"):
            cohort_stats(length_normalize(rng.standard_normal(4)), cohort, k=2)

    def test_unnormalized_row_named(self):
        rng = np.random.default_rng(22)
        cohort = make_store(rng, ["a", "b", "c"], dim=4)
        rows = random_units(rng, 3, 4)
        rows[2] *= 2.0
        with pytest.raises(ValueError, match="embedding row 2 is not length-normalized"):
            cohort_stats(rows, cohort, k=2)

    def test_nan_row_rejected(self):
        rng = np.random.default_rng(23)
        cohort = make_store(rng, ["a", "b", "c"], dim=4)
        rows = random_units(rng, 3, 4)
        rows[1, 0] = np.nan
        with pytest.raises(ValueError, match="embedding row 1 is not length-normalized"):
            cohort_stats(rows, cohort, k=2)

    def test_unnormalized_segment_names_its_row(self):
        # each segment is checked before the mean, which is not unit-norm
        rng = np.random.default_rng(26)
        cohort = make_store(rng, ["a", "b", "c"], dim=4)
        segments = random_units(rng, 12, 4).reshape(4, 3, 4)
        segments[2, 1] *= 1.5
        message = r"embedding row 2 is not length-normalized \(norm 1\.5\)"
        with pytest.raises(ValueError, match=message):
            cohort_stats(segments, cohort, k=2)


@st.composite
def stacks_and_cohorts(draw):
    """A unit-row stack of a block-edge size, a cohort, and a top-K that is
    sometimes the whole cohort."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.sampled_from([0, 1, COHORT_BLOCK - 1, COHORT_BLOCK, COHORT_BLOCK + 1,
                              3 * COHORT_BLOCK + 5]))
    dim = draw(st.integers(2, 24))
    n_cohort = draw(st.integers(2, 60))
    k = draw(st.one_of(st.just(n_cohort), st.integers(2, n_cohort)))
    rng = np.random.default_rng(seed)
    rows = random_units(rng, n, dim).reshape(n, dim)
    cohort = make_store(rng, [f"c{i}" for i in range(n_cohort)], dim=dim)
    return rows, cohort, k


class TestStackedStatistics:
    @settings(max_examples=60, deadline=None)
    @given(stacks_and_cohorts())
    def test_stack_equals_row_by_row(self, case):
        rows, cohort, k = case
        mean, std = cohort_stats(rows, cohort, k)
        assert mean.shape == std.shape == (len(rows),)
        assert mean.dtype == std.dtype == np.float64
        for i, row in enumerate(rows):
            mean_i, std_i = cohort_stats(row[None], cohort, k)
            assert mean[i] == mean_i[0] and std[i] == std_i[0]

    @settings(max_examples=60, deadline=None)
    @given(stacks_and_cohorts(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_segment_stack_equals_row_by_row(self, case, n_segments, seed):
        rows, cohort, k = case
        n, dim = rows.shape
        # a stream apart from the case's, so no segment is a cohort vector
        rng = np.random.default_rng([seed, 1])
        stack = random_units(rng, n * n_segments, dim).reshape(n, n_segments, dim)
        mean, std = cohort_stats(stack, cohort, k)
        assert mean.shape == std.shape == (n,)
        for i in range(n):
            mean_i, std_i = cohort_stats(stack[i : i + 1], cohort, k)
            assert mean[i] == mean_i[0] and std[i] == std_i[0]

    @settings(max_examples=30, deadline=None)
    @given(stacks_and_cohorts())
    def test_one_segment_stack_equals_plain_stack(self, case):
        rows, cohort, k = case
        mean, std = cohort_stats(rows, cohort, k)
        mean_1, std_1 = cohort_stats(rows[:, None], cohort, k)
        assert np.array_equal(mean, mean_1) and np.array_equal(std, std_1)

    @settings(max_examples=30, deadline=None)
    @given(stacks_and_cohorts(), st.integers(2, 6))
    def test_identical_segments_equal_plain_stack(self, case, n_segments):
        # full float64 rows, where a sum-and-divide mean can be an ulp off
        rows, cohort, k = case
        mean, std = cohort_stats(rows, cohort, k)
        mean_s, std_s = cohort_stats(np.repeat(rows[:, None], n_segments, axis=1), cohort, k)
        assert np.array_equal(mean, mean_s) and np.array_equal(std, std_s)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, COHORT_BLOCK - 1, COHORT_BLOCK, COHORT_BLOCK + 1,
                         3 * COHORT_BLOCK + 5]),
        st.integers(2, 10),
        st.data(),
    )
    def test_degenerate_row_named_anywhere(self, seed, n, k, data):
        # the cohort is K copies of v and K random vectors: v's top K are
        # the identical copies, while -v's top K are the spread random ones
        bad = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        v = length_normalize(rng.standard_normal(8))
        rows = np.tile(-v, (n, 1))
        rows[bad] = v
        vectors = np.concatenate([np.tile(v, (k, 1)), random_units(rng, k, 8)])
        cohort = EmbeddingStore([f"c{i}" for i in range(2 * k)], vectors)
        with pytest.raises(ValueError, match=f"degenerate cohort for embedding row {bad}:"):
            cohort_stats(rows, cohort, k)


def position_mismatches(n_cohort, dim, kind, seed):
    """(fill, position) pairs at which a row's statistics in a stack of
    `fill` rows differ from its single-row call. Each fill, a partial and a
    full COHORT_BLOCK, is stacked in every rotation, so every row sits at
    every position. k = len(cohort), so every cohort score enters the
    statistics. kind "edge" puts the rows on the first half of the
    coordinates and all but the last 8 cohort vectors on the second half:
    those scores are exact zeros, the statistics are made of the last 8
    scores, where a gemm kernel's edge cases fall, and a one-ulp change in
    one of them shows."""
    rng = np.random.default_rng(seed)
    rows = random_units(rng, COHORT_BLOCK, dim)
    vectors = random_units(rng, n_cohort, dim)
    if kind == "edge":
        half = (dim + 1) // 2
        rows[:, half:] = 0.0
        vectors[:-8, :half] = 0.0
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    cohort = EmbeddingStore([f"c{i}" for i in range(n_cohort)], vectors)
    single = [cohort_stats(row[None], cohort, n_cohort) for row in rows]
    bad = []
    for fill in (COHORT_BLOCK // 2 + 3, COHORT_BLOCK):
        for shift in range(fill):
            mean, std = cohort_stats(np.roll(rows[:fill], shift, axis=0), cohort, n_cohort)
            for p in range(fill):
                want_mean, want_std = single[(p - shift) % fill]
                if mean[p] != want_mean[0] or std[p] != want_std[0]:
                    bad.append((fill, p))
    return bad


class TestPositionContract:
    """The bits of a row's statistics do not depend on where it sits in a
    cohort block, including cohorts whose size is not a multiple of 8."""

    @pytest.mark.parametrize("kind", ["random", "edge"])
    @pytest.mark.parametrize("dim", [7, 256])
    @pytest.mark.parametrize("n_cohort", [777, 2318, 5000])
    def test_every_position_equals_single_row(self, n_cohort, dim, kind):
        assert position_mismatches(n_cohort, dim, kind, seed=n_cohort + dim) == []

    def test_single_threaded_blas(self):
        code = (
            "from test_scoring import position_mismatches; "
            "print([position_mismatches(n, d, 'edge', seed=n + d) "
            "for n, d in ((777, 256), (2318, 7))])"
        )
        path = os.pathsep.join([str(Path(svkit.__file__).parents[1]), str(Path(__file__).parent)])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "[[], []]"


class TestAsnormScore:
    def test_hand_example(self):
        assert asnorm_score(0.5, 0.25, 0.05, 0.25, 0.05) == pytest.approx(5.0, abs=1e-12)

    def test_raw_at_both_means_is_zero(self):
        assert asnorm_score(0.3, 0.3, 0.1, 0.3, 0.2) == 0.0

    def test_strictly_increasing_in_raw(self):
        values = asnorm_score(np.linspace(-1, 1, 21), 0.1, 0.07, 0.4, 0.3)
        assert np.all(np.diff(values) > 0)

    def test_asymmetric_sides_average(self):
        # halves are (0.5-0)/0.5 = 1 and (0.5-0.5)/0.25 = 0
        assert asnorm_score(0.5, 0.0, 0.5, 0.5, 0.25) == pytest.approx(0.5, abs=1e-12)


def brute_force_asnorm(e, t, cohort_matrix, k):
    """Independent AS-Norm implementation: plain python sorting and stats."""
    raw = float(np.dot(e, t))
    halves = []
    for side in (e, t):
        scores = sorted((float(np.dot(side, c)) for c in cohort_matrix), reverse=True)
        top = scores[:k]
        mu = sum(top) / k
        sigma = math.sqrt(sum((s - mu) ** 2 for s in top) / k)
        halves.append((raw - mu) / sigma)
    return 0.5 * (halves[0] + halves[1])


class TestAsnormPipelineOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        dim = 12
        cohort_vectors = random_units(rng, 20, dim)
        cohort = EmbeddingStore([f"c{i}" for i in range(20)], cohort_vectors)
        k = 7
        for _ in range(25):
            e = length_normalize(rng.standard_normal(dim))
            t = length_normalize(rng.standard_normal(dim))
            mean, std = cohort_stats(np.stack([e, t]), cohort, k)
            got = asnorm_score(cosine_score(e, t), mean[0], std[0], mean[1], std[1])
            # oracle sees the same float32-rounded cohort the store holds
            want = brute_force_asnorm(e, t, cohort.vectors.astype(np.float64), k)
            assert got == pytest.approx(want, abs=1e-9)


class TestSegmentPlan:
    def test_ten_second_utterance(self):
        plan = segment_plan(160000, 16000)
        assert plan.offsets == (0, 16000, 32000, 48000, 64000)
        assert plan.length == 96000
        assert not plan.padded

    def test_exact_length_utterance(self):
        plan = segment_plan(96000, 16000)
        assert plan.offsets == (0,) * 5
        assert not plan.padded

    def test_short_utterance_padded(self):
        plan = segment_plan(64000, 16000)
        assert plan.padded
        assert plan.offsets == (0,) * 5

    def test_last_segment_ends_at_utterance_end(self):
        for length in (6.5, 7.0, 11.25, 60.0):
            n_samples = round(length * 16000)
            plan = segment_plan(n_samples, 16000)
            assert plan.offsets[-1] + plan.length == n_samples

    def test_starts_non_decreasing_property(self):
        # each offset is within one sample of an even spacing from the
        # first sample to the last segment's start
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_samples = int(rng.integers(1, 30 * 16000))
            n = int(rng.integers(1, 9))
            plan = segment_plan(n_samples, 16000, n, float(rng.uniform(0.5, 8.0)))
            assert plan.n_segments == n
            assert all(b >= a for a, b in zip(plan.offsets, plan.offsets[1:]))
            if plan.padded:
                assert plan.offsets == (0,) * n and n_samples <= plan.length
                continue
            assert plan.offsets[0] == 0 and plan.offsets[-1] + plan.length <= n_samples
            for i, offset in enumerate(plan.offsets):
                assert abs(offset - i * (n_samples - plan.length) / max(n - 1, 1)) <= 1

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            segment_plan(0, 16000)


class TestExtractSegments:
    def test_segment_count_and_length(self):
        rng = np.random.default_rng(8)
        w = Waveform(rng.standard_normal(16000 * 10), 16000)
        segs = extract_segments(w, segment_plan(len(w), w.sample_rate))
        assert [indices for indices, _ in segs] == [[0], [1], [2], [3], [4]]
        assert all(len(s) == 16000 * 6 for _, s in segs)

    def test_segments_slice_at_planned_starts(self):
        rng = np.random.default_rng(9)
        w = Waveform(rng.standard_normal(16000 * 10), 16000)
        for (indices,), s in extract_segments(w, segment_plan(len(w), w.sample_rate)):
            i0 = indices * 16000
            assert np.array_equal(s.samples, w.samples[i0 : i0 + 96000])
            assert np.shares_memory(s.samples, w.samples)

    def test_short_utterance_cyclic_padding(self):
        rng = np.random.default_rng(10)
        w = Waveform(rng.standard_normal(16000 * 4), 16000)
        ((indices, s),) = extract_segments(w, segment_plan(len(w), w.sample_rate))
        assert indices == [0, 1, 2, 3, 4]
        assert len(s) == 96000
        assert np.array_equal(s.samples[:64000], w.samples)
        assert np.array_equal(s.samples[64000:], w.samples[:32000])

    @pytest.mark.parametrize(
        "n_samples, groups",
        [
            (96000, [[0, 1, 2, 3, 4]]),
            (96001, [[0, 1], [2, 3, 4]]),
            (96002, [[0, 1], [2, 3], [4]]),
            (96003, [[0], [1], [2, 3], [4]]),
            (96004, [[0], [1], [2], [3], [4]]),
        ],
    )
    def test_equal_offsets_cut_once(self, n_samples, groups):
        rng = np.random.default_rng(n_samples)
        w = Waveform(rng.standard_normal(n_samples), 16000)
        plan = segment_plan(len(w), w.sample_rate)
        segs = extract_segments(w, plan)
        assert [indices for indices, _ in segs] == groups
        for indices, s in segs:
            i0 = plan.offsets[indices[0]]
            assert {plan.offsets[k] for k in indices} == {i0}
            assert np.array_equal(s.samples, w.samples[i0 : i0 + plan.length])

    @pytest.mark.parametrize(
        "plan",
        [
            SegmentPlan(96000, (0, 10), padded=False),
            SegmentPlan(96000, (-1, 0), padded=False),
            SegmentPlan(0, (0,), padded=False),
            SegmentPlan(96000, (), padded=False),
        ],
        ids=["past-end", "negative", "empty-segment", "no-segments"],
    )
    def test_plan_that_does_not_fit_rejected(self, plan):
        w = Waveform(np.zeros(96005), 16000)
        with pytest.raises(ValueError, match="do not fit a 96005-sample utterance"):
            extract_segments(w, plan)


class TestMsaScore:
    def test_identical_segments_equal_plain_cosine(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = length_normalize(rng.standard_normal(8))
            b = length_normalize(rng.standard_normal(8))
            stack_a = np.tile(a, (5, 1))
            stack_b = np.tile(b, (5, 1))
            assert msa_score(stack_a, stack_b) == cosine_score(a, b)

    def test_hand_built_mean(self):
        # orthonormal basis picks out single matrix entries: score matrix has
        # exactly five 1.0 entries (diagonal), rest 0 -> mean 0.2
        eye = np.eye(5)
        assert msa_score(eye, eye) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("n_a, n_b", [(1, 5), (3, 7), (5, 5)], ids=["1x5", "3x7", "5x5"])
    def test_matches_double_loop_oracle(self, n_a, n_b):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_units(rng, n_a, 10)
            b = random_units(rng, n_b, 10)
            got = msa_score(a, b)
            want = sum(float(x @ y) for x in a for y in b) / (n_a * n_b)
            assert got == pytest.approx(want, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        a = random_units(rng, 5, 10)
        b = random_units(rng, 5, 10)
        assert msa_score(a, b) == pytest.approx(msa_score(b, a), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(14)
        a = random_units(rng, 5, 4)
        b = random_units(rng, 5, 4)
        assert -1.0 <= msa_score(a, b) <= 1.0

    def test_nan_row_rejected(self):
        rng = np.random.default_rng(24)
        a = random_units(rng, 5, 4)
        b = random_units(rng, 5, 4)
        b[3, 2] = np.nan
        with pytest.raises(ValueError, match="^segment set 0 is not length-normalized"):
            msa_score(a, b)


def make_store(rng, utt_ids, dim=8):
    return EmbeddingStore(utt_ids, random_units(rng, len(utt_ids), dim))


class TestScoreTrials:
    def trial_list(self):
        return TrialList(["u0", "u2", "u0"], ["u1", "u3", "u3"])

    def test_raw_mode(self):
        rng = np.random.default_rng(15)
        store = make_store(rng, ["u0", "u1", "u2", "u3"])
        result = score_trials(self.trial_list(), store, mode="raw")
        want = cosine_score(*store.vectors[store.row_index(["u0", "u1"])])
        assert result.scores[0] == want

    def test_asnorm_mode_matches_manual(self):
        rng = np.random.default_rng(16)
        store = make_store(rng, ["u0", "u1", "u2", "u3"])
        cohort = make_store(rng, [f"c{i}" for i in range(12)])
        result = score_trials(self.trial_list(), store, mode="asnorm", cohort=cohort, top_k=5)
        pair = store.vectors[store.row_index(["u0", "u1"])]
        raw = cosine_score(*pair)
        mean, std = cohort_stats(pair, cohort, 5)
        assert result.scores[0] == asnorm_score(raw, mean[0], std[0], mean[1], std[1])

    def test_degenerate_cohort_names_utterance(self):
        # every cohort vector is spkB's (its first segment's, for MSA), so
        # spkA's top-3 scores are identical
        rng = np.random.default_rng(25)
        trials = TrialList(["spkA"], ["spkB"])
        for mode, ids in (("asnorm", ["spkA", "spkB"]),
                          ("msa", ["spkA#0", "spkA#1", "spkB#0", "spkB#1"])):
            store = make_store(rng, ids)
            spk_b = store.vectors[store.row_index([ids[len(ids) // 2]])]
            cohort = EmbeddingStore([f"c{i}" for i in range(5)], np.tile(spk_b, (5, 1)))
            with pytest.raises(ValueError, match="degenerate cohort for embedding 'spkA':"):
                score_trials(trials, store, mode=mode, cohort=cohort, top_k=3)

    def test_scaled_cohort_rejected(self):
        # a cohort at 3x unit norm once reached AS-Norm unchecked and scored
        # -4.86 where the same cohort at unit norm scores -6.14
        rng = np.random.default_rng(0)
        store = make_store(rng, ["e", "t"])
        unit_rows = random_units(rng, 20, 8)
        ids = [f"c{i}" for i in range(20)]
        trials = TrialList(["e"], ["t"])
        with pytest.raises(ValueError, match=r"^embedding 'c0' is not length-normalized"):
            score_trials(trials, store, mode="asnorm", cohort=EmbeddingStore(ids, 3.0 * unit_rows),
                         top_k=5)
        result = score_trials(trials, store, mode="asnorm", cohort=EmbeddingStore(ids, unit_rows),
                              top_k=5)
        assert result.scores[0] == pytest.approx(-6.14, abs=5e-3)

    def test_asnorm_without_cohort_rejected(self):
        rng = np.random.default_rng(17)
        store = make_store(rng, ["u0", "u1", "u2", "u3"])
        with pytest.raises(ValueError, match="cohort"):
            score_trials(self.trial_list(), store, mode="asnorm")

    def test_msa_mode_reads_segment_ids(self):
        rng = np.random.default_rng(18)
        utts = ["u0", "u1", "u2", "u3"]
        ids = [segment_id(u, i) for u in utts for i in range(5)]
        store = make_store(rng, ids)
        result = score_trials(self.trial_list(), store, mode="msa")
        a, b = (store.vectors[store.row_index([segment_id(u, i) for i in range(5)])]
                .astype(np.float64) for u in ("u0", "u1"))
        assert result.scores[0] == msa_score(a, b)

    def test_msa_segment_count_is_read_from_store(self):
        rng = np.random.default_rng(21)
        utts = ["u0", "u1", "u2", "u3"]
        store = make_store(rng, [segment_id(u, i) for u in utts for i in range(7)])
        result = score_trials(self.trial_list(), store, mode="msa")
        a = store.vectors[store.row_index([segment_id("u2", i) for i in range(7)])]
        b = store.vectors[store.row_index([segment_id("u3", i) for i in range(7)])]
        assert result.scores[1] == msa_score(a, b)

    def test_msa_extra_segment_names_utterance(self):
        rng = np.random.default_rng(22)
        ids = [segment_id(u, i) for u in ["u0", "u1", "u2", "u3"] for i in range(5)]
        store = make_store(rng, ids + [segment_id("u3", 5)])
        with pytest.raises(ValueError, match="utterance 'u3' has more than the 5 segments of 'u0'"):
            score_trials(self.trial_list(), store, mode="msa")

    def test_msa_segment_count_over_cap_rejected(self):
        rng = np.random.default_rng(24)
        n = MAX_N_SEGMENTS + 1
        store = make_store(rng, [segment_id(u, i) for u in ["u0", "u1", "u2", "u3"] for i in range(n)])
        with pytest.raises(ValueError, match=f"utterance 'u0' has more than {MAX_N_SEGMENTS} segments"):
            score_trials(self.trial_list(), store, mode="msa")

    @pytest.mark.parametrize(
        "ids, missing",
        [(["u0", "u1", "u2", "u3"], "u0#0"), (["u0#0", "u1#0", "u2#0"], "u3#0")],
        ids=["plain", "missing-segment"],
    )
    def test_msa_missing_segment_names_id(self, ids, missing):
        store = make_store(np.random.default_rng(23), ids)
        with pytest.raises(ValueError, match=f"utterance id '{missing}' not in embedding store"):
            score_trials(self.trial_list(), store, mode="msa")

    def test_chunked_modes_equal_scalar_routes(self):
        # several gathers long, so chunk edges fall inside the list
        rng = np.random.default_rng(20)
        utts = [f"u{i}" for i in range(40)]
        pairs = rng.integers(len(utts), size=(3 * TRIAL_CHUNK + 7, 2))
        trials = TrialList([utts[i] for i in pairs[:, 0]], [utts[j] for j in pairs[:, 1]])
        store = make_store(rng, utts, dim=24)
        cohort = make_store(rng, [f"c{i}" for i in range(30)], dim=24)
        segments = make_store(rng, [segment_id(u, k) for u in utts for k in range(5)], dim=24)
        raw = score_trials(trials, store, mode="raw").scores
        asnorm = score_trials(trials, store, mode="asnorm", cohort=cohort, top_k=10).scores
        msa = score_trials(trials, segments, mode="msa").scores
        msa_asnorm = score_trials(trials, segments, mode="msa", cohort=cohort, top_k=10).scores
        for k, (enroll_id, test_id) in enumerate(zip(*trial_ids(trials))):
            e, x = store.vectors[store.row_index([enroll_id, test_id])]
            assert raw[k] == cosine_score(e, x)
            mean_e, std_e = cohort_stats(e[None], cohort, 10)
            mean_x, std_x = cohort_stats(x[None], cohort, 10)
            assert asnorm[k] == asnorm_score(cosine_score(e, x), mean_e, std_e, mean_x, std_x)[0]
            seg_ids = [[segment_id(u, i) for i in range(5)] for u in (enroll_id, test_id)]
            seg_e, seg_x = (segments.vectors[segments.row_index(ids)] for ids in seg_ids)
            assert msa[k] == msa_score(seg_e, seg_x)
            mean_e, std_e = cohort_stats(seg_e[None], cohort, 10)
            mean_x, std_x = cohort_stats(seg_x[None], cohort, 10)
            want = asnorm_score(msa_score(seg_e, seg_x), mean_e, std_e, mean_x, std_x)[0]
            assert msa_asnorm[k] == want

    @pytest.mark.parametrize("mode, segments", [("asnorm", 1), ("msa", 3)])
    def test_cohort_dim_mismatch_names_stack_shape(self, mode, segments):
        rng = np.random.default_rng(27)
        utts = ["u0", "u1", "u2", "u3"]
        ids = utts if mode == "asnorm" else [segment_id(u, i) for u in utts for i in range(3)]
        store = make_store(rng, ids)
        cohort = make_store(rng, [f"c{i}" for i in range(6)], dim=4)
        message = rf"^embedding stack shape \(4, {segments}, 8\) does not match cohort dim 4$"
        with pytest.raises(ValueError, match=message):
            score_trials(self.trial_list(), store, mode=mode, cohort=cohort, top_k=3)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(19)
        store = make_store(rng, ["u0", "u1", "u2", "u3"])
        with pytest.raises(ValueError, match="unknown scoring mode"):
            score_trials(self.trial_list(), store, mode="plda")

    @pytest.mark.parametrize("with_cohort", [False, True], ids=["raw", "asnorm"])
    def test_memory_bounded_by_scores_and_half_the_store(self, with_cohort):
        # the store is read through index arrays and AS-Norm runs per chunk,
        # so no copy of the store and no per-trial temporary is ever held
        rng = np.random.default_rng(40)
        utts = [f"u{i}" for i in range(2000)]
        store = make_store(rng, utts, dim=256)
        cohort = make_store(rng, [f"c{i}" for i in range(1000)], dim=256) if with_cohort else None
        trials = TrialList._from_codes(utts, rng.integers(len(utts), size=200_000), None)
        tracemalloc.start()
        try:
            result = score_trials(trials, store, cohort=cohort, top_k=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 100_000
        assert peak < memoryview(result.scores).nbytes + store.vectors.nbytes / 2


def brute_force_msa_asnorm(seg_e, seg_t, cohort_rows, k):
    """Independent AS-Norm over MSA scores, in plain python: every dot is a
    math.fsum of products, a side's score against cohort vector c is the
    math.fsum mean of its per-segment dots, and the statistics are those of
    the K largest, with the population (1/K) std."""
    def dot(x, y):
        return math.fsum(a * b for a, b in zip(x, y))

    raw = math.fsum(dot(x, y) for x in seg_e for y in seg_t) / (len(seg_e) * len(seg_t))
    halves = []
    for side in (seg_e, seg_t):
        scores = [math.fsum(dot(s, c) for s in side) / len(side) for c in cohort_rows]
        top = sorted(scores, reverse=True)[:k]
        mu = math.fsum(top) / k
        sigma = math.sqrt(math.fsum((x - mu) ** 2 for x in top) / k)
        halves.append((raw - mu) / sigma)
    return 0.5 * (halves[0] + halves[1])


class TestAsnormOverMsa:
    """AS-Norm normalizes any similarity: given a cohort, an MSA side is
    normalized by its top-K cohort scores, each the mean of its segments'."""

    @pytest.mark.parametrize("n_segments", [1, 2, 5])
    def test_matches_brute_force(self, n_segments):
        rng = np.random.default_rng(31)
        utts = [f"u{i}" for i in range(12)]
        segments = make_store(rng, [segment_id(u, k) for u in utts for k in range(n_segments)], 24)
        cohort = make_store(rng, [f"c{i}" for i in range(77)], 24)
        pairs = rng.integers(len(utts), size=(40, 2))
        trials = TrialList([utts[i] for i in pairs[:, 0]], [utts[j] for j in pairs[:, 1]])
        got = score_trials(trials, segments, mode="msa", cohort=cohort, top_k=10).scores
        cohort_rows = cohort.vectors.tolist()
        for score, enroll_id, test_id in zip(got, *trial_ids(trials)):
            seg_e, seg_t = (segments.vectors[segments.row_index(
                                [segment_id(u, i) for i in range(n_segments)])].tolist()
                            for u in (enroll_id, test_id))
            assert score == pytest.approx(
                brute_force_msa_asnorm(seg_e, seg_t, cohort_rows, 10), abs=1e-9)

    def test_identical_segments_reduce_to_raw_asnorm(self):
        rng = np.random.default_rng(32)
        utts = [f"u{i}" for i in range(40)]
        plain = make_store(rng, utts, dim=256)
        tiled = EmbeddingStore([segment_id(u, k) for u in utts for k in range(5)],
                               np.repeat(plain.vectors, 5, axis=0))
        cohort = make_store(rng, [f"c{i}" for i in range(777)], dim=256)
        pairs = rng.integers(len(utts), size=(2 * TRIAL_CHUNK + 9, 2))
        trials = TrialList([utts[i] for i in pairs[:, 0]], [utts[j] for j in pairs[:, 1]])
        want = score_trials(trials, plain, mode="asnorm", cohort=cohort, top_k=100).scores
        got = score_trials(trials, tiled, mode="msa", cohort=cohort, top_k=100).scores
        assert np.array_equal(got, want)

    def test_raw_with_cohort_is_asnorm(self):
        rng = np.random.default_rng(33)
        store = make_store(rng, ["u0", "u1", "u2", "u3"], dim=16)
        cohort = make_store(rng, [f"c{i}" for i in range(30)], dim=16)
        trials = TestScoreTrials().trial_list()
        asnorm = score_trials(trials, store, mode="asnorm", cohort=cohort, top_k=5).scores
        raw = score_trials(trials, store, mode="raw", cohort=cohort, top_k=5).scores
        assert np.array_equal(raw, asnorm)
        assert not np.array_equal(raw, score_trials(trials, store, mode="raw").scores)


def reordered(store, order):
    """The store with its records in `order`."""
    return EmbeddingStore([store.ids[i] for i in order], store.vectors[order])


class TestRecordOrder:
    """AS-Norm scores depend on the trial list and on the store and cohort
    as sets of (id, vector): reordering the records of either moves no bit,
    and reordering the trial lines reorders the scores."""

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from([3, 7, 64, 256]),
           st.integers(9, 400), st.sampled_from([0, 1, 3]))
    def test_reordered_records_move_no_bit(self, data, seed, dim, n_cohort, segments):
        # segments 0 is a plain store scored by asnorm, else an MSA store
        k = data.draw(st.one_of(st.just(n_cohort), st.integers(2, n_cohort)), label="k")
        rng = np.random.default_rng(seed)
        utts = [f"u{i}" for i in range(40)]
        mode, ids = "asnorm", utts
        if segments:
            mode, ids = "msa", [segment_id(u, j) for u in utts for j in range(segments)]
        store = make_store(rng, ids, dim)
        cohort = make_store(rng, [f"c{i}" for i in range(n_cohort)], dim)
        pairs = rng.integers(len(utts), size=(70, 2))
        enroll, test = [utts[i] for i in pairs[:, 0]], [utts[j] for j in pairs[:, 1]]
        trials = TrialList(enroll, test)
        want = score_trials(trials, store, mode, cohort, k).scores
        for _ in range(2):
            order = rng.permutation(n_cohort)
            got = score_trials(trials, store, mode, reordered(cohort, order), k)
            assert got.scores.tobytes() == want.tobytes()
            order = rng.permutation(len(store))
            got = score_trials(trials, reordered(store, order), mode, cohort, k)
            assert got.scores.tobytes() == want.tobytes()
            order = rng.permutation(len(enroll))
            lines = TrialList([enroll[i] for i in order], [test[i] for i in order])
            got = score_trials(lines, store, mode, cohort, k)
            assert got.scores.tobytes() == np.frombuffer(want)[order].tobytes()


class TestAsnormShiftStructure:
    def test_shift_invariance_by_construction(self):
        # adding c to the raw score and to every cohort score of one side
        # leaves that side's normalized half unchanged
        mean, std, raw, c = 0.2, 0.1, 0.45, 0.3
        other_mean, other_std = -0.1, 0.2
        score = asnorm_score(raw, mean, std, other_mean, other_std)
        half_shifted = ((raw + c) - (mean + c)) / std
        half_other = (raw - other_mean) / other_std
        assert 0.5 * (half_shifted + half_other) == pytest.approx(score, abs=1e-12)
