"""Log-Mel front end, CMN, and crop/pad behavior."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _sources import RecordingSource
from svkit.features import (
    FeatureConfig,
    MelFeatures,
    Waveform,
    apply_cmn,
    compute_logmel,
    crop_or_pad,
    match_length,
    mel_filter_centers,
    mel_filterbank,
    read_mel,
    read_wav,
    write_mel,
    write_wav,
)

RATE = 16000


def sine(freq, seconds=1.0, rate=RATE, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


class TestComputeLogmel:
    def test_all_zero_waveform_hits_log_floor(self):
        f = compute_logmel(Waveform(np.zeros(RATE), RATE))
        assert f.bins.shape[0] == 80
        assert np.allclose(f.bins, math.log(1e-10), atol=1e-12)

    def test_frame_count_formula(self):
        for n in (400, 401, 559, 560, 561, 16000):
            f = compute_logmel(Waveform(np.ones(n) * 0.1, RATE))
            assert f.n_frames == 1 + (n - 400) // 160

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            compute_logmel(Waveform(np.zeros(399), RATE))

    def test_pure_tone_peaks_at_nearest_mel_center(self):
        # independent oracle: mel center frequencies from the scale formula
        centers = mel_filter_centers(80, RATE)
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        f = compute_logmel(sine(1000.0))
        peaks = np.argmax(f.bins, axis=0)
        assert np.all(peaks == expected_bin)

    def test_gain_shifts_by_log_of_squared_gain(self):
        rng = np.random.default_rng(11)
        base = Waveform(0.1 * rng.standard_normal(RATE), RATE)
        loud = Waveform(2.0 * base.samples, RATE)
        f0 = compute_logmel(base)
        f1 = compute_logmel(loud)
        above = f0.bins > math.log(1e-10) + 1e-6
        assert above.mean() > 0.5
        assert np.allclose(f1.bins[above] - f0.bins[above], math.log(4.0), atol=1e-9)

    def test_deterministic(self):
        w = sine(440.0, seconds=0.5)
        a = compute_logmel(w)
        b = compute_logmel(w)
        assert np.array_equal(a.bins, b.bins)


class TestMelFilterbank:
    def test_shape_and_nonnegativity(self):
        weights = mel_filterbank(80, 512, RATE)
        assert weights.shape == (80, 257)
        assert np.all(weights >= 0)

    def test_unit_peak_at_center_frequency(self):
        # triangle evaluated exactly at its center is 1 by construction
        centers = mel_filter_centers(8, RATE)
        nyquist = RATE / 2
        bin_freqs = np.arange(257) * (RATE / 512)
        weights = mel_filterbank(8, 512, RATE)
        for j, c in enumerate(centers):
            k = np.argmin(np.abs(bin_freqs - c))
            # weight at the closest bin is near the triangle peak
            assert weights[j, k] > 0.5

    def test_filters_span_zero_to_nyquist(self):
        centers = mel_filter_centers(80, RATE)
        assert centers[0] > 0.0
        assert centers[-1] < RATE / 2


class TestApplyCmn:
    def test_constant_matrix_becomes_zero(self):
        f = MelFeatures(np.full((80, 10), 5.0), 0.01)
        out = apply_cmn(f)
        assert np.allclose(out.bins, 0.0)
        assert out.cmn_applied

    def test_small_row_example(self):
        f = MelFeatures(np.array([[1.0, 2.0, 3.0]]), 0.01)
        assert np.allclose(apply_cmn(f).bins, [[-1.0, 0.0, 1.0]])

    def test_random_matrix_rows_are_zero_mean(self):
        rng = np.random.default_rng(5)
        f = apply_cmn(MelFeatures(rng.standard_normal((80, 200)), 0.01))
        assert np.max(np.abs(f.bins.mean(axis=1))) <= 1e-6

    def test_double_application_rejected_but_idempotent_in_effect(self):
        rng = np.random.default_rng(6)
        f = apply_cmn(MelFeatures(rng.standard_normal((80, 50)), 0.01))
        with pytest.raises(ValueError, match="already"):
            apply_cmn(f)
        # subtracting the (now zero) mean again changes nothing
        again = f.bins - f.bins.mean(axis=1, keepdims=True)
        assert np.allclose(again, f.bins, atol=1e-12)


class TestCropOrPad:
    def test_equal_length_is_identity(self):
        rng = np.random.default_rng(0)
        w = Waveform(rng.standard_normal(96000), RATE)
        out = crop_or_pad(w, 6.0, np.random.default_rng(1))
        assert np.array_equal(out.samples, w.samples)

    def test_shorter_input_wraps_cyclically(self):
        w = Waveform(np.arange(50000, dtype=np.float64), RATE)
        out = crop_or_pad(w, 6.0, np.random.default_rng(1))
        assert len(out) == 96000
        idx = np.arange(96000)
        assert np.array_equal(out.samples, w.samples[idx % 50000])

    def test_longer_input_contiguous_and_seed_deterministic(self):
        w = Waveform(np.arange(100000, dtype=np.float64), RATE)
        a = crop_or_pad(w, 6.0, np.random.default_rng(42))
        b = crop_or_pad(w, 6.0, np.random.default_rng(42))
        assert len(a) == 96000
        assert np.array_equal(a.samples, b.samples)
        start = int(a.samples[0])
        assert np.array_equal(a.samples, w.samples[start : start + 96000])

    def test_empty_waveform_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            crop_or_pad(Waveform(np.array([]), RATE), 6.0, np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40000), ms=st.integers(min_value=1, max_value=3000))
    def test_output_length_exact_for_any_input(self, n, ms):
        w = Waveform(np.zeros(n), RATE)
        duration = ms / 1000.0
        out = crop_or_pad(w, duration, np.random.default_rng(7))
        assert len(out) == int(round(duration * RATE))


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        w = Waveform(np.clip(rng.standard_normal(1600) * 0.1, -1, 1), RATE)
        path = tmp_path / "x.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert back.sample_rate == RATE
        assert len(back) == len(w)
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768.0

    def test_wrong_rate_rejected(self, tmp_path):
        w = Waveform(np.zeros(100), 8000)
        path = tmp_path / "x.wav"
        write_wav(w, path)
        with pytest.raises(ValueError, match="8000"):
            read_wav(path, expected_rate=16000)

    def test_stereo_rejected(self, tmp_path):
        import wave as wavemod

        path = tmp_path / "st.wav"
        with wavemod.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(RATE)
            fh.writeframes(b"\x00" * 400)
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)


class TestMelDump:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        f = MelFeatures(rng.standard_normal((80, 20)), 0.01)
        buf = io.BytesIO()
        write_mel(f, buf)
        buf.seek(0)
        back = read_mel(buf)
        assert back.bins.shape == (80, 20)
        assert np.max(np.abs(back.bins - f.bins)) <= 1e-6

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            read_mel(io.BytesIO(b"XXXX" + b"\x00" * 8))

    def test_short_header_is_value_error(self):
        with pytest.raises(ValueError, match="truncated feature header"):
            read_mel(io.BytesIO(b"MEL1\x00\x00"))

    def test_header_dims_size_no_read(self):
        source = RecordingSource(b"MEL1" + struct.pack("<II", 2**32 - 1, 2**32 - 1))
        with pytest.raises(ValueError, match="truncated feature matrix"):
            read_mel(source)
        assert source.largest_read <= source.size

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.builds(
                lambda rows, cols, tail: b"MEL1" + struct.pack("<II", rows, cols) + tail,
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**32 - 1),
                st.binary(max_size=64),
            ),
        )
    )
    def test_fuzzed_bytes_raise_only_value_errors(self, data):
        source = RecordingSource(data)
        try:
            read_mel(source)
        except ValueError:
            pass
        assert source.largest_read <= source.size
