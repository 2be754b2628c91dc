"""Built-in property suite: brute-force oracles runnable from the CLI.

Each check re-derives an expected result through an independent route
(exhaustive sweeps, plain-python statistics, finite differences) and
compares the library against it. The full heavyweight versions live in
the test suite; these are sized to finish in a few seconds.
"""

from __future__ import annotations

import math

import numpy as np

from .augment import mix_at_snr, speed_output_length, speed_perturb
from .features import LOGMEL_BLOCK, Waveform, match_length
from .fusion import fit_fusion, fuse_matrix, mean_log_loss
from .metrics import DcfConfig, eer, min_dcf, roc_points
from .model import (
    AttentionParams,
    LossConfig,
    SubcenterWeights,
    aam_softmax_loss,
    attentive_stats_pool,
    attentive_stats_pool_vjp,
    length_normalize,
    plan_shapes,
    softmax_ce_loss,
    subcenter_cosines,
)
from .schedule import CosineRestartConfig, cycle_start, lr_at
from .scoring import COHORT_BLOCK, asnorm_score, cohort_stats, cosine_score, msa_score
from .trials import EmbeddingStore, ScoreSet, TrialList


def _labeled_scores(targets, nontargets) -> ScoreSet:
    enroll = [f"e{i}" for i in range(len(targets))] + [f"e{i}" for i in range(len(nontargets))]
    test = [f"t{i}" for i in range(len(targets))] + [f"n{i}" for i in range(len(nontargets))]
    labels = [True] * len(targets) + [False] * len(nontargets)
    scores = np.concatenate([targets, nontargets])
    return ScoreSet(trials=TrialList(enroll, test, labels), scores=scores)


def _central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f(x)
        flat[i] = keep - h
        lo = f(x)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def _max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(
        float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12
    )
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * scale)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_metrics_oracle() -> bool:
    rng = np.random.default_rng(101)
    cfg = DcfConfig()
    for _ in range(20):
        n_t = int(rng.integers(2, 400))
        n_n = int(rng.integers(2, 400))
        targets = np.round(rng.standard_normal(n_t) + 1.0, 2)
        nontargets = np.round(rng.standard_normal(n_n), 2)
        curve = roc_points(_labeled_scores(targets, nontargets))
        thresholds = np.concatenate([np.unique(np.concatenate([targets, nontargets])), [np.inf]])
        pm = np.array([np.count_nonzero(targets < t) / n_t for t in thresholds])
        pf = np.array([np.count_nonzero(nontargets >= t) / n_n for t in thresholds])
        diff = pm - pf
        i = int(np.argmax(diff >= 0))
        if diff[i] == 0.0:
            want_eer = 100.0 * pm[i]
        else:
            t = (pf[i - 1] - pm[i - 1]) / ((pm[i] - pm[i - 1]) - (pf[i] - pf[i - 1]))
            want_eer = 100.0 * (pm[i - 1] + t * (pm[i] - pm[i - 1]))
        if abs(eer(curve) - want_eer) > 1e-9:
            return False
        costs = cfg.c_miss * cfg.p_target * pm + cfg.c_fa * (1.0 - cfg.p_target) * pf
        want_dcf = float(np.min(costs)) / min(
            cfg.c_miss * cfg.p_target, cfg.c_fa * (1.0 - cfg.p_target)
        )
        if min_dcf(curve, cfg) != want_dcf:
            return False
    return True


def check_asnorm_oracle() -> bool:
    rng = np.random.default_rng(102)
    dim, n_cohort, k = 16, 50, 12
    vectors = np.array([length_normalize(rng.standard_normal(dim)) for _ in range(n_cohort)])
    cohort = EmbeddingStore([f"c{i}" for i in range(n_cohort)], vectors)
    cohort64 = cohort.vectors.astype(np.float64)
    for _ in range(20):
        e = length_normalize(rng.standard_normal(dim))
        t = length_normalize(rng.standard_normal(dim))
        mean, std = cohort_stats(np.stack([e, t]), cohort, k)
        got = asnorm_score(cosine_score(e, t), mean[0], std[0], mean[1], std[1])
        raw = float(np.dot(e, t))
        halves = []
        for side in (e, t):
            top = sorted((float(np.dot(side, c)) for c in cohort64), reverse=True)[:k]
            mu = sum(top) / k
            sigma = math.sqrt(sum((s - mu) ** 2 for s in top) / k)
            halves.append((raw - mu) / sigma)
        if abs(got - 0.5 * (halves[0] + halves[1])) > 1e-9:
            return False
    return True


def check_gradients() -> bool:
    rng = np.random.default_rng(103)
    cfg = LossConfig(scale=30.0, margin=0.3)
    checked = 0
    while checked < 10:
        dim, n = int(rng.integers(4, 10)), int(rng.integers(2, 6))
        x = length_normalize(rng.standard_normal(dim))
        w = SubcenterWeights.random(dim, n, 2, rng)
        cosines, _ = subcenter_cosines(x, w)
        gaps = np.array(
            [abs(float(np.dot(x, w.tensor[:, j, 0]) - np.dot(x, w.tensor[:, j, 1]))) for j in range(n)]
        )
        if np.any(gaps < 1e-3) or np.any(np.abs(cosines) > 0.99):
            continue
        y = int(rng.integers(n))
        result = aam_softmax_loss(x, y, w, cfg)
        # a near-zero loss means a vanishing gradient that finite
        # differences cannot resolve to relative precision
        if result.loss < 1e-3:
            continue
        checked += 1
        numeric = _central_difference(
            lambda v: aam_softmax_loss(v, y, w.tensor, cfg).loss, x.copy()
        )
        if _max_rel_err(result.grad_x, numeric) > 1e-5:
            return False
    for _ in range(10):
        t, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        frames = rng.standard_normal((t, d))
        params = AttentionParams.random(d, 4, rng)
        upstream = rng.standard_normal(2 * d)
        _, grads = attentive_stats_pool_vjp(frames, params, upstream)
        numeric = _central_difference(
            lambda fv: float(upstream @ attentive_stats_pool(fv, params)), frames.copy()
        )
        if _max_rel_err(grads.frames, numeric) > 1e-5:
            return False
    return True


def check_reduction_identities() -> bool:
    rng = np.random.default_rng(104)
    for _ in range(10):
        dim, n = 8, 4
        x = length_normalize(rng.standard_normal(dim))
        w = SubcenterWeights.random(dim, n, 1, rng)
        y = int(rng.integers(n))
        no_margin = aam_softmax_loss(x, y, w, LossConfig(scale=30.0, margin=0.0))
        cosines, _ = subcenter_cosines(x, w)
        plain = softmax_ce_loss(30.0 * cosines, y)
        if abs(no_margin.loss - plain.loss) > 1e-12:
            return False
        for j in range(n):
            if cosines[j] != cosine_score(x, w.tensor[:, j, 0]):
                return False
        a = length_normalize(rng.standard_normal(dim))
        b = length_normalize(rng.standard_normal(dim))
        if msa_score(np.tile(a, (5, 1)), np.tile(b, (5, 1))) != cosine_score(a, b):
            return False
    # each row of a stacked cohort_stats call, in every position of a block,
    # must equal its single-row call bit for bit: a property of the BLAS
    # build, not a numpy guarantee. The cohort size is not a multiple of 8
    # and k is the whole cohort. Rows live on the first 4 coordinates and
    # all but the last 8 cohort vectors on the other 3, so the statistics
    # rest on the last scores, where a gemm kernel's edge cases fall.
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
    return True


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


def check_snr_fidelity() -> bool:
    rng = np.random.default_rng(105)
    for _ in range(20):
        n = int(rng.integers(1000, 8000))
        signal = Waveform(rng.standard_normal(n) * 0.1, 16000)
        noise = Waveform(rng.standard_normal(int(rng.integers(500, 9000))) * 0.1, 16000)
        snr = float(rng.uniform(0.0, 20.0))
        mixed = mix_at_snr(signal, noise, snr)
        added = mixed.samples - signal.samples
        matched = match_length(noise.samples, n)
        got = 10.0 * math.log10(
            float(np.mean(signal.samples**2)) / float(np.mean(added**2))
        )
        if abs(got - snr) > 1e-6:
            return False
        if not np.allclose(added, added[0] / matched[0] * matched, atol=1e-12):
            return False
    for factor in (0.9, 1.0, 1.1):
        for n in (1000, 1601, 48000):
            w = Waveform(rng.standard_normal(n), 16000)
            if len(speed_perturb(w, factor)) != speed_output_length(n, factor):
                return False
    return True


def check_schedule_values() -> bool:
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


def check_shape_planner() -> bool:
    want = {
        "ResNet34-st1112": [(80, 600), (40, 600), (20, 600), (10, 300)],
        "ResNet34-st1121": [(80, 600), (40, 600), (20, 300), (10, 300)],
        "ResNet101": [(80, 600), (40, 300), (20, 150), (10, 75)],
    }
    return all(plan_shapes(name, 80, 600) == shapes for name, shapes in want.items())


def check_fusion_dominance() -> bool:
    rng = np.random.default_rng(106)
    for _ in range(3):
        n, m = 200, 3
        labels = rng.random(n) < 0.4
        matrix = labels.astype(float)[:, None] * 1.2 + rng.standard_normal((n, m))
        fitted = fit_fusion(matrix, labels, l2=0.0)
        fitted_loss = mean_log_loss(fuse_matrix(fitted, matrix), labels)
        for j in range(m):
            single = fit_fusion(matrix[:, [j]], labels, l2=0.0)
            single_loss = mean_log_loss(fuse_matrix(single, matrix[:, [j]]), labels)
            if fitted_loss > single_loss + 1e-9:
                return False
    return True


CHECKS = (
    ("metrics-oracle", check_metrics_oracle),
    ("asnorm-oracle", check_asnorm_oracle),
    ("gradient-finite-difference", check_gradients),
    ("reduction-identities", check_reduction_identities),
    ("fft-block-rows", check_fft_block_rows),
    ("snr-fidelity", check_snr_fidelity),
    ("schedule-values", check_schedule_values),
    ("shape-planner", check_shape_planner),
    ("fusion-dominance", check_fusion_dominance),
)


def run_selftest() -> list[tuple[str, bool]]:
    """Run every property check, trapping crashes as failures."""
    results = []
    for name, check in CHECKS:
        try:
            ok = bool(check())
        except Exception:
            ok = False
        results.append((name, ok))
    return results
