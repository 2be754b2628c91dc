"""Toolkit-level acceptance checks.

Each test covers one end-user guarantee and prints a single
`[acceptance] NN <name>: PASS|FAIL` line on the real stdout, so a test
transcript shows every verified property at a glance even when pytest
captures output. Tolerances are stated in the printed names.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from _gradcheck import central_difference, max_rel_err
from _text_oracle import trial_text
from svkit.augment import mix_at_snr, speed_perturb
from svkit.cli import main
from svkit.features import Waveform, write_wav
from svkit.fusion import fit_fusion, fuse_matrix, mean_log_loss
from svkit.metrics import DcfConfig, eer, evaluate_scores, min_dcf, roc_points
from svkit.model import (
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
from svkit.schedule import CosineRestartConfig, cycle_start, lr_at
from svkit.scoring import cosine_score, msa_score, score_trials
from svkit.trials import (
    EmbeddingStore,
    ScoreSet,
    TrialList,
    read_embeddings_file,
    write_embeddings_file,
)

RATE = 16000


@pytest.fixture
def reported(capfd):
    """One PASS/FAIL line per check, printed past pytest's capture."""

    @contextlib.contextmanager
    def report(name):
        ok = False
        try:
            yield
            ok = True
        finally:
            verdict = "PASS" if ok else "FAIL"
            with capfd.disabled():
                print(f"[acceptance] {name}: {verdict}", flush=True)

    return report


# ---------------------------------------------------------------------------
# independent metric oracle: per-threshold counting via sorted searches,
# no shared code with the swept-cumsum implementation


def oracle_rates(scores, labels):
    """(P_miss, P_fa) at each distinct score plus the reject-all point."""
    targets = np.sort(scores[labels])
    nontargets = np.sort(scores[~labels])
    thr = np.append(np.unique(scores), np.inf)
    p_miss = np.searchsorted(targets, thr, side="left") / len(targets)
    p_fa = (len(nontargets) - np.searchsorted(nontargets, thr, side="left")) / len(
        nontargets
    )
    return p_miss, p_fa


def oracle_eer(p_miss, p_fa):
    diff = p_miss - p_fa
    i = int(np.flatnonzero(diff >= 0)[0])
    if diff[i] == 0.0:
        return 100.0 * float(p_miss[i])
    pm_a, pm_b = float(p_miss[i - 1]), float(p_miss[i])
    pf_a, pf_b = float(p_fa[i - 1]), float(p_fa[i])
    t = (pf_a - pm_a) / ((pm_b - pm_a) - (pf_b - pf_a))
    return 100.0 * (pm_a + t * (pm_b - pm_a))


def oracle_min_dcf(p_miss, p_fa, cfg):
    costs = cfg.c_miss * cfg.p_target * p_miss + cfg.c_fa * (1.0 - cfg.p_target) * p_fa
    norm = min(cfg.c_miss * cfg.p_target, cfg.c_fa * (1.0 - cfg.p_target))
    return float(np.min(costs)) / norm


_TEST_IDS = [f"t{i}" for i in range(100_000)]


def labeled_set(scores, labels):
    n = len(scores)
    trials = TrialList(["e"] * n, _TEST_IDS[:n], [bool(labels[i]) for i in range(n)])
    return ScoreSet(trials=trials, scores=scores)


def random_labels(rng, size):
    labels = rng.random(size) < rng.uniform(0.15, 0.85)
    labels[0] = True
    labels[1] = False
    return labels


def test_metrics_match_counting_oracle(reported):
    start = time.monotonic()
    with reported("01 metrics vs counting oracle (200 sets, eer 1e-9, mindcf bit-equal)"):
        rng = np.random.default_rng(20240817)
        dcf_cfgs = [
            DcfConfig(),
            DcfConfig(p_target=0.01),
            DcfConfig(p_target=0.5),
            DcfConfig(c_miss=10.0),
            DcfConfig(c_fa=10.0),
        ]
        checked = 0
        for idx in range(200):
            if idx == 0:
                size = 10
            elif idx == 1:
                size = 100_000
            else:
                size = int(round(10 ** rng.uniform(1.0, 4.3)))
            labels = random_labels(rng, size)
            if idx == 2:
                scores = np.full(size, 0.37)
            elif idx == 3:
                scores = np.where(labels, 1.0, -1.0) + 0.001 * rng.random(size)
            elif idx % 3 == 1:
                scores = labels * rng.uniform(0.5, 3.0) + rng.standard_normal(size)
            elif idx % 3 == 2:
                scores = rng.integers(-4, 5, size).astype(np.float64)
            else:
                scores = rng.standard_normal(size)

            cfg = dcf_cfgs[idx % len(dcf_cfgs)]
            curve = roc_points(labeled_set(scores, labels))
            p_miss, p_fa = oracle_rates(scores, labels)
            assert abs(eer(curve) - oracle_eer(p_miss, p_fa)) <= 1e-9
            assert min_dcf(curve, cfg) == oracle_min_dcf(p_miss, p_fa, cfg)
            if idx == 2:
                assert eer(curve) == 50.0 and min_dcf(curve, cfg) == 1.0
            checked += 1
        assert checked == 200
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# gradient checks


def aam_instance(rng, subcenters=None, margin=0.3):
    """Instance kept away from argmax ties, cosine saturation, and a
    softmax so confident the gradient vanishes below finite-difference
    resolution."""
    while True:
        d = int(rng.integers(4, 17))
        n_classes = int(rng.integers(2, 9))
        k = subcenters or int(rng.integers(1, 4))
        x = length_normalize(rng.standard_normal(d))
        w = SubcenterWeights.random(d, n_classes, k, rng)
        y = int(rng.integers(n_classes))
        per = np.einsum("d,dnk->nk", x, w.tensor)
        top2 = np.sort(per, axis=1)
        if k > 1 and not np.all(top2[:, -1] - top2[:, -2] > 1e-3):
            continue
        if np.max(np.abs(per)) >= 0.99:
            continue
        cfg = LossConfig(scale=30.0, margin=margin)
        if aam_softmax_loss(x, y, w, cfg).loss < 1e-3:
            continue
        return x, y, w, cfg


def ce_instance(rng):
    while True:
        n = int(rng.integers(2, 11))
        logits = rng.uniform(0.5, 4.0) * rng.standard_normal(n)
        y = int(rng.integers(n))
        if softmax_ce_loss(logits, y).loss >= 1e-3:
            return logits, y


def test_analytic_gradients_match_finite_differences(reported):
    start = time.monotonic()
    with reported("02 analytic vs central-difference gradients (100 each, 1e-5)"):
        rng = np.random.default_rng(42)

        worst = 0.0
        for _ in range(100):
            x, y, w, cfg = aam_instance(rng)
            out = aam_softmax_loss(x, y, w, cfg)
            num_x = central_difference(
                lambda xv: aam_softmax_loss(xv, y, w.tensor, cfg).loss, x.copy()
            )
            num_w = central_difference(
                lambda wv: aam_softmax_loss(x, y, wv, cfg).loss, w.tensor.copy()
            )
            worst = max(worst, max_rel_err(out.grad_x, num_x))
            worst = max(worst, max_rel_err(out.grad_w, num_w))
        assert worst <= 1e-5

        worst = 0.0
        for _ in range(100):
            logits, y = ce_instance(rng)
            out = softmax_ce_loss(logits, y)
            num = central_difference(lambda lv: softmax_ce_loss(lv, y).loss, logits.copy())
            worst = max(worst, max_rel_err(out.grad_x, num))
        assert worst <= 1e-5

        worst = 0.0
        for _ in range(100):
            t = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            frames = rng.standard_normal((t, d))
            params = AttentionParams.random(d, int(rng.integers(2, 6)), rng)
            upstream = rng.standard_normal(2 * d)
            _, grads = attentive_stats_pool_vjp(frames, params, upstream)

            num = central_difference(
                lambda fv: float(upstream @ attentive_stats_pool(fv, params)),
                frames.copy(),
            )
            worst = max(worst, max_rel_err(grads.frames, num))
            for field in ("w", "b", "v"):
                def scalar(pv, field=field):
                    kwargs = {"w": params.w, "b": params.b, "v": params.v}
                    kwargs[field] = pv
                    return float(upstream @ attentive_stats_pool(frames, AttentionParams(**kwargs)))

                num = central_difference(scalar, getattr(params, field).copy())
                worst = max(worst, max_rel_err(getattr(grads, field), num))
        assert worst <= 1e-5
        assert time.monotonic() - start < 30.0


def test_margin_subcenter_and_segment_reductions(reported):
    with reported("03 zero-margin / single-subcenter / tiled-segment reductions"):
        rng = np.random.default_rng(7)

        # margin 0 turns the margin loss into softmax-CE on scaled cosines
        for _ in range(30):
            x, y, w, _ = aam_instance(rng, margin=0.0)
            cfg = LossConfig(scale=30.0, margin=0.0)
            cosines, _ = subcenter_cosines(x, w)
            assert abs(aam_softmax_loss(x, y, w, cfg).loss - softmax_ce_loss(30.0 * cosines, y).loss) <= 1e-12

        # a single subcenter is bit-for-bit plain cosine scoring
        for _ in range(30):
            d = int(rng.integers(4, 33))
            n_classes = int(rng.integers(2, 9))
            x = length_normalize(rng.standard_normal(d))
            w = SubcenterWeights.random(d, n_classes, 1, rng)
            cosines, active = subcenter_cosines(x, w)
            assert np.all(active == 0)
            for j in range(n_classes):
                assert cosines[j] == cosine_score(x, w.tensor[:, j, 0])

        # identical segments collapse the pairwise mean onto one cosine
        for _ in range(50):
            d = int(rng.integers(4, 65))
            a = length_normalize(rng.standard_normal(d))
            b = length_normalize(rng.standard_normal(d))
            assert msa_score(np.tile(a, (5, 1)), np.tile(b, (5, 1))) == cosine_score(a, b)


# ---------------------------------------------------------------------------
# score normalization


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def brute_force_asnorm(e, t, cohort_vectors, k):
    """Pure-python re-derivation: sort all cohort scores, then moments."""
    raw = float(np.dot(e, t))

    def side(v):
        scores = sorted(float(np.dot(v, c)) for c in cohort_vectors)
        top = scores[-k:]
        mean = sum(top) / k
        var = sum((s - mean) ** 2 for s in top) / k
        return mean, math.sqrt(var)

    mean_e, std_e = side(e)
    mean_t, std_t = side(t)
    return 0.5 * ((raw - mean_e) / std_e + (raw - mean_t) / std_t)


def test_asnorm_matches_brute_force(reported):
    with reported("04 asnorm vs brute force (50 trials, 200 cohort, top-100, 1e-9)"):
        rng = np.random.default_rng(11)
        d = 32
        utt_ids = [f"u{i}" for i in range(100)]
        store = EmbeddingStore(utt_ids, unit_rows(rng, 100, d).astype(np.float32))
        cohort = EmbeddingStore(
            [f"c{i}" for i in range(200)],
            unit_rows(rng, 200, d).astype(np.float32),
        )
        trials = TrialList([utt_ids[2 * i] for i in range(50)],
                           [utt_ids[2 * i + 1] for i in range(50)])
        result = score_trials(trials, store, mode="asnorm", cohort=cohort, top_k=100)
        cohort_rows = cohort.vectors.astype(np.float64)
        ids = trials.ids
        for enroll_id, test_id, got in zip(ids[trials.enroll], ids[trials.test], result.scores):
            e, t = store.vectors[store.row_index([enroll_id, test_id])].astype(np.float64)
            assert abs(got - brute_force_asnorm(e, t, cohort_rows, 100)) <= 1e-9


# ---------------------------------------------------------------------------
# augmentation fidelity


def test_snr_and_speed_fidelity(reported):
    with reported("05 mixed-in snr within 1e-6 dB; speed length = round(n/factor)"):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(4000, 32001))
            sig = Waveform(rng.uniform(0.05, 0.5) * rng.standard_normal(n), RATE)
            noise = Waveform(
                rng.uniform(0.05, 0.5) * rng.standard_normal(int(rng.integers(2000, 48001))),
                RATE,
            )
            snr = float(rng.uniform(0.0, 20.0))
            out = mix_at_snr(sig, noise, snr)
            added = out.samples - sig.samples
            measured = 10.0 * math.log10(
                float(np.mean(sig.samples**2)) / float(np.mean(added**2))
            )
            assert abs(measured - snr) <= 1e-6

        for factor in (0.9, 0.97, 1.0, 1.03, 1.1):
            for n in (1, 7, 160, 12345, 16000):
                w = Waveform(rng.standard_normal(n), RATE)
                assert len(speed_perturb(w, factor)) == int(math.floor(n / factor + 0.5))


# ---------------------------------------------------------------------------
# schedule and shape tables


def test_restart_schedule_anchor_values(reported):
    with reported("06 restart schedule anchors exact; boundaries cycle0*(2^c-1)"):
        cfg = CosineRestartConfig(cycle0_steps=100)
        lr0, cyc0 = lr_at(cfg, 0)
        assert lr0 == 0.02 and cyc0 == 0
        lr1, cyc1 = lr_at(cfg, cycle_start(cfg, 1))
        assert lr1 == 0.016 and cyc1 == 1

        long_cfg = CosineRestartConfig(cycle0_steps=10_000_000)
        lr_end, _ = lr_at(long_cfg, 10_000_000 - 1)
        assert abs(lr_end - 5e-6) <= 1e-12

        odd = CosineRestartConfig(cycle0_steps=7)
        for c in range(11):
            boundary = cycle_start(odd, c)
            assert boundary == 7 * ((2**c) - 1)
            assert lr_at(odd, boundary)[1] == c
            if boundary:
                assert lr_at(odd, boundary - 1)[1] == c - 1


def test_stage_shape_tables(reported):
    with reported("07 stage shapes for the three stride layouts on (80, 600)"):
        assert plan_shapes("ResNet34-st1112", mel_bins=80, frames=600) == [
            (80, 600),
            (40, 600),
            (20, 600),
            (10, 300),
        ]
        assert plan_shapes("ResNet34-st1121", mel_bins=80, frames=600) == [
            (80, 600),
            (40, 600),
            (20, 300),
            (10, 300),
        ]
        assert plan_shapes("ResNet101", mel_bins=80, frames=600) == [
            (80, 600),
            (40, 300),
            (20, 150),
            (10, 75),
        ]


# ---------------------------------------------------------------------------
# end-to-end synthetic verification


def synthetic_speaker_store(rng, n_speakers, n_utts, dim, noise, prefix):
    means = unit_rows(rng, n_speakers, dim)
    ids, vectors = [], []
    for s in range(n_speakers):
        for u in range(n_utts):
            v = means[s] + noise * rng.standard_normal(dim)
            ids.append(f"{prefix}{s:03d}u{u:02d}")
            vectors.append(v / np.linalg.norm(v))
    return ids, EmbeddingStore(ids, np.array(vectors, dtype=np.float32))


def test_synthetic_pipeline_end_to_end(reported):
    start = time.monotonic()
    with reported("08 synthetic end-to-end eer vs outside oracle (0.1% abs; asnorm <= raw + 0.5%)"):
        rng = np.random.default_rng(20260817)
        n_speakers, n_utts, dim = 50, 20, 64
        ids, store = synthetic_speaker_store(rng, n_speakers, n_utts, dim, 0.14, "s")

        def utt(s, u):
            return f"s{s:03d}u{u:02d}"

        trial_rows = []
        for _ in range(2500):
            s = int(rng.integers(n_speakers))
            u, v = rng.choice(n_utts, size=2, replace=False)
            trial_rows.append((utt(s, u), utt(s, v), True))
        for _ in range(2500):
            s = int(rng.integers(n_speakers))
            s2 = int((s + 1 + rng.integers(n_speakers - 1)) % n_speakers)
            u = int(rng.integers(n_utts))
            v = int(rng.integers(n_utts))
            trial_rows.append((utt(s, u), utt(s2, v), False))
        trials = TrialList(*zip(*trial_rows))
        assert len(trials) == 5000

        raw = score_trials(trials, store, mode="raw")
        eer_raw, dcf_raw = evaluate_scores(raw)

        # oracle route: recompute every trial score and the EER from the
        # stored vectors with none of the library's scoring or metric code
        index = {u: i for i, u in enumerate(store.ids)}
        rows = store.vectors.astype(np.float64)
        enroll_ids, test_ids = trials.ids[trials.enroll], trials.ids[trials.test]
        enroll = rows[[index[u] for u in enroll_ids]]
        test = rows[[index[u] for u in test_ids]]
        direct = np.sum(enroll * test, axis=1)
        p_miss, p_fa = oracle_rates(direct, trials.labels())
        eer_direct = oracle_eer(p_miss, p_fa)
        assert abs(eer_raw - eer_direct) <= 0.1
        assert 0.0 < eer_raw < 25.0
        assert 0.0 < dcf_raw <= 1.0

        _, cohort = synthetic_speaker_store(rng, 100, 2, dim, 0.14, "c")
        normalized = score_trials(trials, store, mode="asnorm", cohort=cohort, top_k=100)
        eer_asnorm, _ = evaluate_scores(normalized)
        assert eer_asnorm <= eer_raw + 0.5
        assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# fusion dominance


def test_fusion_dominates_calibrated_singles(reported):
    with reported("09 unregularized fusion log-loss <= every calibrated single + 1e-9"):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(80, 400))
            m = int(rng.integers(2, 6))
            labels = rng.random(n) < rng.uniform(0.3, 0.6)
            labels[0], labels[1] = True, False
            # overlapping classes so the unregularized optimum stays finite
            matrix = labels.astype(float)[:, None] * rng.uniform(0.8, 2.0, size=m) + rng.standard_normal((n, m))
            fused = fit_fusion(matrix, labels, l2=0.0)
            fused_loss = mean_log_loss(fuse_matrix(fused, matrix), labels)
            for j in range(m):
                column = matrix[:, [j]]
                single = fit_fusion(column, labels, l2=0.0)
                single_loss = mean_log_loss(fuse_matrix(single, column), labels)
                assert fused_loss <= single_loss + 1e-9


# ---------------------------------------------------------------------------
# byte-level reproducibility of the file pipeline


def write_tone(path, freq, seed, duration=1.2):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * RATE)) / RATE
    write_wav(Waveform(0.3 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size), RATE), path)


def write_noise_manifest(bank_dir):
    rng = np.random.default_rng(404)
    lines = []
    for cat in ("noise", "music"):
        path = bank_dir / f"{cat}.wav"
        write_wav(Waveform(0.1 * rng.standard_normal(RATE // 2), RATE), path)
        lines.append(f"{cat} {path.name}")
    for i in range(7):
        path = bank_dir / f"sp{i}.wav"
        write_wav(Waveform(0.1 * rng.standard_normal(RATE // 2), RATE), path)
        lines.append(f"speech {path.name}")
    rir = np.zeros(800)
    rir[0] = 1.0
    rir[350] = 0.4
    write_wav(Waveform(rir, RATE), bank_dir / "rir.wav")
    lines.append("rir rir.wav")
    manifest = bank_dir / "bank.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def test_pipeline_reruns_byte_identical(tmp_path, reported):
    with reported("10 augment/embed/score reruns with one config+seed, and AS-Norm "
                  "against a reordered cohort, byte-identical"):
        sources = []
        for i in range(5):
            path = tmp_path / f"src{i}.wav"
            write_tone(path, 260 + 130 * i, seed=i)
            sources.append(path)
        manifest = write_noise_manifest(tmp_path)
        # one config for every stage: its cohort is the store that embed writes
        # beside it, so it names a file that does not yet exist when augment runs
        config_text = f"seed = 11\nnoise_manifest = {manifest}\ncohort = emb.bin\ntop_k = 4\n"
        pairs = [(f"u{i}", f"u{j}") for i in range(5) for j in range(5) if i < j]
        trials = tmp_path / "trials.txt"
        trials.write_text(trial_text(TrialList(*zip(*pairs))), encoding="utf-8")

        for run in ("run1", "run2"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            config = run_dir / "pipeline.cfg"
            config.write_text(config_text, encoding="utf-8")
            for i, src in enumerate(sources):
                code = main(
                    [
                        "augment",
                        "--wav", str(src),
                        "--config", str(config),
                        "--output", str(run_dir / f"aug{i}.wav"),
                    ]
                )
                assert code == 0
            wav_list = run_dir / "utts.txt"
            wav_list.write_text(
                "".join(f"u{i} {run_dir / f'aug{i}.wav'}\n" for i in range(5)),
                encoding="utf-8",
            )
            code = main(
                [
                    "embed",
                    "--wav-list", str(wav_list),
                    "--config", str(config),
                    "--output", str(run_dir / "emb.bin"),
                ]
            )
            assert code == 0
            code = main(
                [
                    "score",
                    "--trials", str(trials),
                    "--embeddings", str(run_dir / "emb.bin"),
                    "--asnorm",
                    "--config", str(config),
                    "--output", str(run_dir / "scores.txt"),
                ]
            )
            assert code == 0

        one, two = tmp_path / "run1", tmp_path / "run2"
        for i in range(5):
            assert (one / f"aug{i}.wav").read_bytes() == (two / f"aug{i}.wav").read_bytes()
        assert (one / "emb.bin").read_bytes() == (two / "emb.bin").read_bytes()
        assert (one / "scores.txt").read_bytes() == (two / "scores.txt").read_bytes()
        assert (one / "scores.txt").read_bytes() != b""

        # the cohort's records in another order: AS-Norm reads it as a set
        cohort = read_embeddings_file(one / "emb.bin")
        order = [3, 0, 4, 2, 1]
        write_embeddings_file(EmbeddingStore([cohort.ids[i] for i in order],
                                             cohort.vectors[order]), tmp_path / "cohort.bin")
        assert (tmp_path / "cohort.bin").read_bytes() != (one / "emb.bin").read_bytes()
        (tmp_path / "reordered.cfg").write_text("cohort = cohort.bin\ntop_k = 4\n",
                                                encoding="utf-8")
        code = main(
            [
                "score",
                "--trials", str(trials),
                "--embeddings", str(one / "emb.bin"),
                "--asnorm",
                "--config", str(tmp_path / "reordered.cfg"),
                "--output", str(tmp_path / "reordered.txt"),
            ]
        )
        assert code == 0
        assert (tmp_path / "reordered.txt").read_bytes() == (one / "scores.txt").read_bytes()
