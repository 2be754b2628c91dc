"""Speed perturbation, SNR mixing, babble, reverb, and the policy driver."""

import math
import tracemalloc

import numpy as np
import pytest

from svkit.augment import (
    NoiseBank,
    add_reverb,
    apply_policy,
    make_babble,
    mix_at_snr,
    reverb_fft_size,
    speed_output_length,
    speed_perturb,
)
from svkit.config import AugmentPolicy
from svkit.features import Waveform, write_wav

RATE = 16000


def noise_wave(rng, n=4000, amp=0.3):
    return Waveform(amp * rng.standard_normal(n), RATE)


class TestSpeedPerturb:
    def test_factor_one_is_bit_identical(self):
        rng = np.random.default_rng(1)
        w = noise_wave(rng)
        out = speed_perturb(w, 1.0)
        assert np.array_equal(out.samples, w.samples)

    def test_lengths_for_standard_factors(self):
        w = Waveform(np.zeros(16000), RATE)
        assert len(speed_perturb(w, 0.9)) == 17778
        assert len(speed_perturb(w, 1.1)) == 14545

    def test_length_formula_across_factors_and_lengths(self):
        rng = np.random.default_rng(2)
        for factor in (0.9, 1.0, 1.1):
            for n in (1, 7, 159, 160, 161, 16000, 96001):
                w = Waveform(rng.standard_normal(n) * 0.1, RATE)
                assert len(speed_perturb(w, factor)) == speed_output_length(n, factor)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            speed_perturb(Waveform(np.zeros(10), RATE), 0.0)

    def test_linear_ramp_stays_linear(self):
        # linear interpolation of a linear signal is exact inside the support
        w = Waveform(np.arange(1000, dtype=np.float64), RATE)
        out = speed_perturb(w, 1.1)
        expected = np.minimum(np.arange(len(out)) * 1.1, 999.0)
        assert np.allclose(out.samples, expected, atol=1e-9)


class TestMixAtSnr:
    def test_zero_db_equal_power_gain_one(self):
        s = Waveform(np.ones(100), RATE)
        n = Waveform(np.full(100, -1.0), RATE)
        out = mix_at_snr(s, n, 0.0)
        assert np.allclose(out.samples, 0.0, atol=1e-12)

    def test_twenty_db_gain_is_tenth(self):
        s = Waveform(np.ones(100), RATE)
        n = Waveform(np.ones(100), RATE)
        out = mix_at_snr(s, n, 20.0)
        assert np.allclose(out.samples, 1.1, atol=1e-12)

    def test_silent_noise_rejected(self):
        s = Waveform(np.ones(100), RATE)
        with pytest.raises(ValueError, match="degenerate"):
            mix_at_snr(s, Waveform(np.zeros(100), RATE), 10.0)

    def test_silent_signal_rejected(self):
        n = Waveform(np.ones(100), RATE)
        with pytest.raises(ValueError, match="degenerate"):
            mix_at_snr(Waveform(np.zeros(100), RATE), n, 10.0)

    def test_measured_snr_matches_target(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = noise_wave(rng, n=int(rng.integers(500, 3000)))
            n = noise_wave(rng, n=int(rng.integers(100, 5000)))
            snr = float(rng.uniform(0.0, 20.0))
            out = mix_at_snr(s, n, snr)
            added = out.samples - s.samples
            measured = 10.0 * math.log10(
                np.mean(s.samples**2) / np.mean(added**2)
            )
            assert abs(measured - snr) <= 1e-6

    def test_short_noise_is_tiled(self):
        s = Waveform(np.ones(10), RATE)
        n = Waveform(np.array([1.0, -1.0, 1.0]), RATE)
        out = mix_at_snr(s, n, 0.0)
        tiled = np.tile(n.samples, 4)[:10]
        assert np.allclose(out.samples, 1.0 + tiled, atol=1e-12)


class TestMakeBabble:
    def test_forced_selection_sums_all(self):
        rng = np.random.default_rng(4)
        speech = [Waveform(np.full(20, v), RATE) for v in (1.0, 2.0, 4.0)]
        out = make_babble(speech, 3, 20, rng)
        assert np.allclose(out.samples, 7.0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        speech = [noise_wave(rng, n=300) for _ in range(9)]
        a = make_babble(speech, 7, 500, np.random.default_rng(10))
        b = make_babble(speech, 7, 500, np.random.default_rng(10))
        assert np.array_equal(a.samples, b.samples)

    def test_zero_speakers_rejected(self):
        rng = np.random.default_rng(6)
        speech = [noise_wave(rng, n=100) for _ in range(10)]
        with pytest.raises(ValueError, match=r"^babble speaker count must be >= 1, got 0$"):
            make_babble(speech, 0, 100, np.random.default_rng(0))

    def test_bank_smaller_than_k(self):
        rng = np.random.default_rng(7)
        speech = [noise_wave(rng, n=100) for _ in range(3)]
        with pytest.raises(ValueError, match="need 4"):
            make_babble(speech, 4, 100, np.random.default_rng(0))


class TestAddReverb:
    def test_unit_impulse_is_identity(self):
        rng = np.random.default_rng(8)
        w = noise_wave(rng, n=600)
        rir = Waveform(np.array([1.0]), RATE)
        out = add_reverb(w, rir)
        assert np.allclose(out.samples, w.samples, atol=1e-12)

    def test_delayed_impulse_shifts_and_keeps_peak(self):
        rng = np.random.default_rng(9)
        w = noise_wave(rng, n=600)
        rir_samples = np.zeros(101)
        rir_samples[100] = 0.5
        out = add_reverb(w, Waveform(rir_samples, RATE))
        shifted = np.concatenate([np.zeros(100), w.samples[:-100]])
        in_peak = np.max(np.abs(w.samples))
        expected = shifted * (in_peak / np.max(np.abs(shifted)))
        assert np.allclose(out.samples, expected, atol=1e-12)
        assert abs(np.max(np.abs(out.samples)) - in_peak) <= 1e-12

    @staticmethod
    def assert_matches_naive_convolution(n, m):
        rng = np.random.default_rng(10)
        w = noise_wave(rng, n=n)
        rir = Waveform(rng.standard_normal(m) * 0.1, RATE)
        out = add_reverb(w, rir)
        # direct O(n*m) convolution, truncated and peak-rescaled the same way
        full = np.zeros(len(w) + len(rir) - 1)
        for i, x in enumerate(w.samples):
            for j, h in enumerate(rir.samples):
                full[i + j] += x * h
        naive = full[: len(w)]
        naive *= np.max(np.abs(w.samples)) / np.max(np.abs(naive))
        assert len(out) == n
        assert np.max(np.abs(out.samples - naive)) <= 1e-6

    # full lengths 436, 4096 and 4097: both sides of a power-of-two size
    @pytest.mark.parametrize("n, m", [(400, 37), (4000, 97), (4000, 98)])
    def test_matches_naive_convolution_oracle(self, n, m):
        self.assert_matches_naive_convolution(n, m)

    # an overlap-add block carries step = n_fft - m + 1 input samples: clips
    # end just before, on and just after a block edge, and three blocks in
    @pytest.mark.parametrize("m", [1, 2, 64, 65])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "3 blocks + 5"])
    def test_block_edges_match_naive_convolution(self, m, extra):
        step = reverb_fft_size(m) - m + 1
        n = 3 * step + 5 if extra == "3 blocks + 5" else step + extra
        self.assert_matches_naive_convolution(n, m)

    @pytest.mark.parametrize("n, m", [(50, 51), (50, 300), (1, 7)])
    def test_rir_longer_than_clip_matches_naive_convolution(self, n, m):
        self.assert_matches_naive_convolution(n, m)

    def test_fft_size_follows_the_rir(self):
        assert [reverb_fft_size(m) for m in (1, 64, 65, 800, 1024, 1025)] == [
            256, 256, 512, 4096, 4096, 8192]

    def test_peak_memory_near_clip_size(self):
        # one clip-length output array and RIR-sized blocks; the FFT of
        # the whole clip that it replaced peaked at 4.32 MB for this clip
        rng = np.random.default_rng(18)
        w = noise_wave(rng, n=10 * RATE)
        rir = np.zeros(800)
        rir[0], rir[350] = 1.0, 0.4
        tracemalloc.start()
        try:
            out = add_reverb(w, Waveform(rir, RATE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == len(w)
        assert peak <= 2 * w.samples.nbytes + (1 << 20)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="empty signal"):
            add_reverb(Waveform(np.zeros(0), RATE), Waveform(np.ones(3), RATE))

    def test_silent_rir_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="silent"):
            add_reverb(noise_wave(rng), Waveform(np.zeros(16), RATE))


def tiny_bank(rng, n_speech=8):
    rir = np.zeros(24)
    rir[0] = 1.0
    rir[10] = 0.4
    return NoiseBank(
        {
            "noise": [noise_wave(rng, n=300) for _ in range(3)],
            "music": [noise_wave(rng, n=500) for _ in range(3)],
            "speech": [noise_wave(rng, n=200) for _ in range(n_speech)],
            "rir": [Waveform(rir, RATE)],
        }
    )


class TestApplyPolicy:
    def test_all_draws_fail_returns_input(self):
        # find a seed whose first four uniforms all clear every probability
        seed = next(
            s for s in range(200) if np.random.default_rng(s).random(4).min() >= 0.2
        )
        rng_data = np.random.default_rng(12)
        bank = tiny_bank(rng_data)
        w = noise_wave(rng_data, n=256)
        out = apply_policy(w, AugmentPolicy(), bank, np.random.default_rng(seed))
        assert np.array_equal(out.samples, w.samples)

    def test_same_seed_bit_identical(self):
        rng_data = np.random.default_rng(13)
        bank = tiny_bank(rng_data)
        w = noise_wave(rng_data, n=256)
        policy = AugmentPolicy(p_noise=0.9, p_music=0.9, p_babble=0.9, p_reverb=0.9)
        a = apply_policy(w, policy, bank, np.random.default_rng(77))
        b = apply_policy(w, policy, bank, np.random.default_rng(77))
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "which", ["p_noise", "p_music", "p_babble", "p_reverb"]
    )
    def test_empirical_application_rate(self, which):
        rng_data = np.random.default_rng(14)
        bank = tiny_bank(rng_data)
        w = noise_wave(rng_data, n=64)
        probs = {p: 0.0 for p in ("p_noise", "p_music", "p_babble", "p_reverb")}
        probs[which] = 0.2
        policy = AugmentPolicy(**probs)
        applied = 0
        runs = 10000
        for seed in range(runs):
            out = apply_policy(w, policy, bank, np.random.default_rng(seed))
            if not np.array_equal(out.samples, w.samples):
                applied += 1
        assert 0.18 <= applied / runs <= 0.22

    @pytest.mark.parametrize(
        "entries, policy, message",
        [
            ({"speech": 4}, AugmentPolicy(p_noise=0.0, p_music=0.0, p_babble=1.0, p_reverb=0.0),
             "speech bank has 4 clips, need 7"),
            ({"speech": 8}, AugmentPolicy(), "noise bank category 'noise' is empty"),
            ({"noise": 1, "music": 1, "speech": 8}, AugmentPolicy(),
             "noise bank category 'rir' is empty"),
        ],
    )
    def test_bank_checked_against_policy_before_any_draw(self, entries, policy, message):
        rng_data = np.random.default_rng(16)
        bank = NoiseBank({c: [noise_wave(rng_data, n=200) for _ in range(k)] for c, k in entries.items()})
        w = noise_wave(rng_data, n=256)
        messages = set()
        for seed in range(20):
            with pytest.raises(ValueError) as info:
                apply_policy(w, policy, bank, np.random.default_rng(seed))
            messages.add(str(info.value))
        assert messages == {message}

    def test_silent_signal_rejected_before_any_draw(self):
        bank = tiny_bank(np.random.default_rng(18))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            with pytest.raises(ValueError, match="^silent signal$"):
                apply_policy(Waveform(np.zeros(256), RATE), AugmentPolicy(), bank, rng)
            assert rng.random() == np.random.default_rng(seed).random()

    def test_category_of_a_disabled_augmentation_may_be_empty(self):
        rng_data = np.random.default_rng(17)
        full = tiny_bank(rng_data)
        bank = NoiseBank({c: full.category(c) for c in ("noise", "music", "speech")})
        w = noise_wave(rng_data, n=256)
        policy = AugmentPolicy(p_reverb=0.0)
        for seed in range(20):
            a = apply_policy(w, policy, bank, np.random.default_rng(seed))
            b = apply_policy(w, policy, full, np.random.default_rng(seed))
            assert np.array_equal(a.samples, b.samples)

    def test_peak_memory_with_every_augmentation(self):
        # at most three clip-length arrays are live at once: the running
        # output, the babble, and the new mix or a mean-square temporary
        rng = np.random.default_rng(19)
        w = noise_wave(rng, n=10 * RATE)
        rir = np.zeros(800)
        rir[0], rir[350] = 1.0, 0.4
        bank = NoiseBank({
            "noise": [noise_wave(rng, n=RATE // 2)],
            "music": [noise_wave(rng, n=RATE // 2)],
            "speech": [noise_wave(rng, n=RATE // 2) for _ in range(7)],
            "rir": [Waveform(rir, RATE)],
        })
        policy = AugmentPolicy(p_noise=1.0, p_music=1.0, p_babble=1.0, p_reverb=1.0)
        tracemalloc.start()
        try:
            out = apply_policy(w, policy, bank, np.random.default_rng(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == len(w)
        assert peak <= 3 * w.samples.nbytes + (1 << 20)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AugmentPolicy(p_noise=1.5)
        with pytest.raises(ValueError, match="snr_noise_lo 10.0 is above snr_noise_hi 5.0"):
            AugmentPolicy(snr_noise_lo=10.0, snr_noise_hi=5.0)
        with pytest.raises(ValueError, match="babble_min must be >= 1, got 0"):
            AugmentPolicy(babble_min=0)
        with pytest.raises(ValueError, match="babble_min 5 is above babble_max 3"):
            AugmentPolicy(babble_min=5, babble_max=3)


class TestNoiseBank:
    def test_empty_category_rejected_on_query(self):
        bank = NoiseBank({"noise": [Waveform(np.ones(10), RATE)]})
        bank.category("noise")
        with pytest.raises(ValueError, match="empty"):
            bank.category("rir")

    def test_mixed_sample_rates_rejected(self):
        with pytest.raises(ValueError, match="sample rates"):
            NoiseBank(
                {
                    "noise": [Waveform(np.ones(10), 16000)],
                    "music": [Waveform(np.ones(10), 8000)],
                }
            )

    def test_manifest_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        for name in ("n0.wav", "m0.wav", "s0.wav", "r0.wav"):
            write_wav(noise_wave(rng, n=400, amp=0.2), tmp_path / name)
        manifest = tmp_path / "bank.txt"
        manifest.write_text(
            "noise n0.wav\nmusic m0.wav\nspeech s0.wav\nrir r0.wav\n"
        )
        bank = NoiseBank.from_manifest(manifest)
        for cat in ("noise", "music", "speech", "rir"):
            assert bank.size(cat) == 1

    def test_manifest_unknown_category(self, tmp_path):
        manifest = tmp_path / "bank.txt"
        manifest.write_text("wind w0.wav\n")
        with pytest.raises(ValueError, match="unknown category"):
            NoiseBank.from_manifest(manifest)
