"""Built-in checks of an installed copy: the properties whose verdict
depends on the numpy, libm or BLAS build, not on the source alone.

Two correct installs of the same source can differ only in those builds,
so every other property is left to the test suite's acceptance checks.
Each check here compares bits, or a libm value, that svkit's outputs rely
on, and is sized to finish in a few seconds.
"""

from __future__ import annotations

from array import array

import numpy as np

from .features import LOGMEL_BLOCK
from .metrics import DcfConfig, min_dcf, roc_points
from .model import SubcenterWeights, length_normalize, subcenter_cosines
from .schedule import CosineRestartConfig, cycle_start, lr_at
from .scoring import COHORT_BLOCK, cohort_stats, dot_rows
from .store import EmbeddingStore
from .trials import SMALL_LIST, ScoreSet, TrialList


def _labeled_scores(targets: np.ndarray, nontargets: np.ndarray) -> ScoreSet:
    """Targets then nontargets, every trial one enroll id against one test
    id: the sweep reads only the scores and the labels."""
    n_t, n_n = len(targets), len(nontargets)
    trials = TrialList._from_codes(("e", "t"), array("q", [0, 1]) * (n_t + n_n),
                                   b"\x01" * n_t + b"\x00" * n_n)
    return ScoreSet(trials, np.concatenate([targets, nontargets]))


def check_metrics_oracle() -> bool:
    # min_dcf over the swept rates must equal, bit for bit, the same cost
    # formula over rates counted threshold by threshold: the sweep's sort and
    # cumulative sum are numpy builds' kernels, which lists of SMALL_LIST
    # trials or more run
    rng = np.random.default_rng(101)
    cfg = DcfConfig()
    for _ in range(20):
        n = SMALL_LIST + int(rng.integers(0, 1000))
        n_t = int(rng.integers(2, n - 1))
        targets = np.round(rng.standard_normal(n_t) + 1.0, 2)
        nontargets = np.round(rng.standard_normal(n - n_t), 2)
        curve = roc_points(_labeled_scores(targets, nontargets))
        thresholds = np.concatenate([np.unique(np.concatenate([targets, nontargets])), [np.inf]])
        pm = np.array([np.count_nonzero(targets < t) / n_t for t in thresholds])
        pf = np.array([np.count_nonzero(nontargets >= t) / (n - n_t) for t in thresholds])
        costs = cfg.c_miss * cfg.p_target * pm + cfg.c_fa * (1.0 - cfg.p_target) * pf
        want_dcf = float(np.min(costs)) / min(
            cfg.c_miss * cfg.p_target, cfg.c_fa * (1.0 - cfg.p_target)
        )
        if min_dcf(curve, cfg) != want_dcf:
            return False
    return True


def check_reduction_identities() -> bool:
    rng = np.random.default_rng(104)
    # a one-subcenter cosine, one of subcenter_cosines' batched dots over
    # the weight tensor, must equal the single dot of x with its column
    for _ in range(10):
        dim, n = 8, 4
        x = length_normalize(rng.standard_normal(dim))
        w = SubcenterWeights.random(dim, n, 1, rng)
        cosines, _ = subcenter_cosines(x, w)
        for j in range(n):
            if cosines[j] != dot_rows(x, w.tensor[:, j, 0]):
                return False
    # each row of a stacked cohort_stats call, in every position of a block,
    # must equal its single-row call bit for bit, and a cohort rolled by a
    # shift that is not a multiple of 8 must give the same bits: properties
    # of the BLAS build, not numpy guarantees. The cohort size is not a
    # multiple of 8 and k is the whole cohort. Rows live on the first 4
    # coordinates and all but the last 8 cohort vectors on the other 3, so
    # the statistics rest on the last scores, where a gemm kernel's edge
    # cases fall.
    dim, n_cohort = 7, 2318
    rows = rng.standard_normal((COHORT_BLOCK, dim))
    rows[:, 4:] = 0.0
    vectors = rng.standard_normal((n_cohort, dim))
    vectors[:-8, :4] = 0.0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    cohort = EmbeddingStore([f"c{i}" for i in range(n_cohort)], vectors)
    single = [cohort_stats(row[None], cohort, n_cohort) for row in rows]
    for shift in range(COHORT_BLOCK):
        mean, std = cohort_stats(np.roll(rows, shift, axis=0), cohort, n_cohort)
        for p in range(COHORT_BLOCK):
            want_mean, want_std = single[(p - shift) % COHORT_BLOCK]
            if mean[p] != want_mean[0] or std[p] != want_std[0]:
                return False
    rolled = EmbeddingStore(cohort.ids, np.roll(cohort.vectors, 3, axis=0))
    mean, std = cohort_stats(rows, cohort, n_cohort)
    want_mean, want_std = cohort_stats(rows, rolled, n_cohort)
    return mean.tobytes() == want_mean.tobytes() and std.tobytes() == want_std.tobytes()


def check_fft_block_rows() -> bool:
    # compute_logmel transforms its frames in blocks of LOGMEL_BLOCK rows
    # into a reused buffer; its bytes equal a whole-matrix rfft's only if
    # every row is the same in a block as in the whole matrix, a property of
    # numpy's FFT build. The sizes include a short tail block.
    rng = np.random.default_rng(107)
    for n_rows, win, n_fft in ((3 * LOGMEL_BLOCK + 8, 400, 512), (LOGMEL_BLOCK + 1, 320, 400)):
        frames = rng.standard_normal((n_rows, win))
        whole = np.fft.rfft(frames, n=n_fft, axis=1)
        block = np.empty((LOGMEL_BLOCK, n_fft // 2 + 1), dtype=np.complex128)
        for start in range(0, n_rows, LOGMEL_BLOCK):
            part = frames[start : start + LOGMEL_BLOCK]
            np.fft.rfft(part, n=n_fft, axis=1, out=block[: len(part)])
            if block[: len(part)].tobytes() != whole[start : start + len(part)].tobytes():
                return False
    return True


def check_schedule_values() -> bool:
    # the restart schedule's anchors rest on libm's cos
    cfg = CosineRestartConfig(cycle0_steps=1000)
    lr0, c0 = lr_at(cfg, 0)
    if c0 != 0 or abs(lr0 - 0.02) > 1e-15:
        return False
    lr1, c1 = lr_at(cfg, 1000)
    if c1 != 1 or abs(lr1 - 0.016) > 1e-15:
        return False
    big = CosineRestartConfig(cycle0_steps=10_000_000)
    lr_end, _ = lr_at(big, 9_999_999)
    if abs(lr_end - 5e-6) > 1e-12:
        return False
    for c in range(11):
        if cycle_start(cfg, c) != 1000 * (2**c - 1):
            return False
    return True


CHECKS = (
    ("metrics-oracle", check_metrics_oracle),
    ("reduction-identities", check_reduction_identities),
    ("fft-block-rows", check_fft_block_rows),
    ("schedule-values", check_schedule_values),
)
