"""Built-in checks of an installed copy: the properties whose verdict
depends on the numpy or BLAS build, not on the source alone.

Two correct installs of the same source can differ only in their builds,
so every other property is left to the test suite's acceptance checks.
Each check here compares bits that svkit's outputs rely on, and is sized
to finish in a fraction of a second.
"""

from __future__ import annotations

import numpy as np

from .features import LOGMEL_BLOCK
from .model.losses import SubcenterWeights, length_normalize, subcenter_cosines
from .scoring import COHORT_BLOCK, cohort_stats, dot_rows
from .store import EmbeddingStore


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


CHECKS = (
    ("reduction-identities", check_reduction_identities),
    ("fft-block-rows", check_fft_block_rows),
)
