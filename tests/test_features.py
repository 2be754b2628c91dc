"""Log-Mel front end, CMN, and feature/wav file formats."""

import dataclasses
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _mel1_oracle import FormatFault, decode_mel1
from svkit.config import FeatureConfig
from svkit.features import (
    LOG_FLOOR,
    LOGMEL_BLOCK,
    MelFeatures,
    Waveform,
    apply_cmn,
    compute_logmel,
    match_length,
    mel_filterbank,
    read_wav,
    write_mel,
    write_wav,
)

RATE = 16000


def htk_centers(n_mels, rate):
    """Filter center frequencies from the HTK mel scale, 700 (10^(m/2595) - 1)
    at the inner points of an even mel grid from 0 Hz to Nyquist."""
    top = 2595.0 * math.log10(1.0 + rate / 2 / 700.0)
    grid = np.linspace(0.0, top, n_mels + 2)[1:-1]
    return np.array([700.0 * (10.0 ** (m / 2595.0) - 1.0) for m in grid])


def sine(freq, seconds=1.0, rate=RATE, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


def gather_logmel(w: Waveform, cfg: FeatureConfig) -> np.ndarray:
    """Reference log-mel: each frame gathered by explicit sample indices,
    the window and filterbank built afresh on every call."""
    win = int(round(cfg.window * w.sample_rate))
    hop = int(round(cfg.hop * w.sample_rate))
    n_frames = 1 + (len(w) - win) // hop
    index = (np.arange(n_frames) * hop)[:, None] + np.arange(win)[None, :]
    frames = w.samples[index] * np.hamming(win)
    spectrum = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    weights = mel_filterbank(cfg.n_mels, cfg.n_fft, w.sample_rate)
    return np.log(np.maximum(power @ weights.T, LOG_FLOOR)).T


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
        centers = htk_centers(80, RATE)
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

    @pytest.mark.parametrize(
        "cfg",
        [FeatureConfig(), FeatureConfig(window=0.02, hop=0.015, n_fft=400, n_mels=40)],
        ids=["default", "odd-geometry"],
    )
    def test_equals_gather_reference_bit_for_bit(self, cfg):
        win = int(round(cfg.window * RATE))
        hop = int(round(cfg.hop * RATE))
        rng = np.random.default_rng(5)
        lengths = [win, win + hop - 1, win + hop, *rng.integers(win, 3 * RATE, size=5)]
        # frame counts either side of one and two whole frame blocks, and a 10 s clip
        frame_counts = [LOGMEL_BLOCK * k + d for k in (1, 2) for d in (-1, 0, 1)]
        lengths += [win + (count - 1) * hop for count in frame_counts] + [10 * RATE]
        other = dataclasses.replace(cfg, n_mels=24)  # interleaved, so the cached filterbank switches
        for n in lengths:
            w = Waveform(0.3 * rng.standard_normal(int(n)), RATE)
            compute_logmel(w, other)
            assert np.array_equal(compute_logmel(w, cfg).bins, gather_logmel(w, cfg))

    @pytest.mark.parametrize(
        "window, hop, match",
        [(0.00001, 0.01, "window of 1e-05 s is under one sample"),
         (0.025, 0.00001, "hop of 1e-05 s is under one sample"),
         (0.04, 0.01, "window of 640 samples exceeds n_fft 512"),
         (0.025, 1e306, "overflow")],
    )
    def test_bad_frame_geometry_rejected(self, window, hop, match):
        with pytest.raises(ValueError, match=match):
            compute_logmel(Waveform(np.zeros(RATE), RATE), FeatureConfig(window=window, hop=hop))

    @pytest.mark.parametrize(
        "field, value",
        [("window", math.inf), ("hop", math.nan), ("n_fft", 2**15 + 1), ("n_mels", 257)],
    )
    def test_feature_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            FeatureConfig(**{field: value})


class TestMelFilterbank:
    def test_shape_and_nonnegativity(self):
        weights = mel_filterbank(80, 512, RATE)
        assert weights.shape == (80, 257)
        assert np.all(weights >= 0)

    def test_unit_peak_at_center_frequency(self):
        # triangle evaluated exactly at its center is 1 by construction
        centers = htk_centers(8, RATE)
        nyquist = RATE / 2
        bin_freqs = np.arange(257) * (RATE / 512)
        weights = mel_filterbank(8, 512, RATE)
        for j, c in enumerate(centers):
            k = np.argmin(np.abs(bin_freqs - c))
            # weight at the closest bin is near the triangle peak
            assert weights[j, k] > 0.5

    def test_filters_span_zero_to_nyquist(self):
        centers = htk_centers(80, RATE)
        assert centers[0] > 0.0
        assert centers[-1] < RATE / 2


class TestApplyCmn:
    def test_constant_matrix_becomes_zero(self):
        f = MelFeatures(np.full((80, 10), 5.0))
        out = apply_cmn(f)
        assert np.allclose(out.bins, 0.0)
        assert out.cmn_applied

    def test_small_row_example(self):
        f = MelFeatures(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(apply_cmn(f).bins, [[-1.0, 0.0, 1.0]])

    def test_random_matrix_rows_are_zero_mean(self):
        rng = np.random.default_rng(5)
        f = apply_cmn(MelFeatures(rng.standard_normal((80, 200))))
        assert np.max(np.abs(f.bins.mean(axis=1))) <= 1e-6

    def test_double_application_rejected_but_idempotent_in_effect(self):
        rng = np.random.default_rng(6)
        f = apply_cmn(MelFeatures(rng.standard_normal((80, 50))))
        with pytest.raises(ValueError, match="already"):
            apply_cmn(f)
        # subtracting the (now zero) mean again changes nothing
        again = f.bins - f.bins.mean(axis=1, keepdims=True)
        assert np.allclose(again, f.bins, atol=1e-12)


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

    @pytest.mark.parametrize(
        "keep, claim, reason",
        [
            (30, 160_000, "not a readable RIFF wav (truncated header)"),
            (44 + 2 * 16_000, 160_000, "truncated wav data (16000 of 160000 frames)"),
            (44 + 2 * 16_000 + 1, 160_000, "truncated wav data (16000 of 160000 frames)"),
            # a header that claims 2 GiB of data sizes no read
            (44 + 2 * 100, 2**30 - 8, "truncated wav data (100 of 1073741816 frames)"),
        ],
        ids=["header", "data", "odd-byte", "over-claimed"],
    )
    def test_truncated_file_rejected(self, tmp_path, keep, claim, reason):
        # a 44-byte header whose data chunk claims `claim` frames, cut short
        path = tmp_path / "cut.wav"
        header = (b"RIFF" + struct.pack("<I", 36 + 2 * claim) + b"WAVEfmt "
                  + struct.pack("<IHHIIHH", 16, 1, 1, RATE, 2 * RATE, 2, 16)
                  + b"data" + struct.pack("<I", 2 * claim))
        path.write_bytes((header + bytes(keep))[:keep])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}: {reason}"
        assert peak < 1 << 20


class TestMelDump:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        f = MelFeatures(rng.standard_normal((80, 20)))
        buf = io.BytesIO()
        write_mel(f, buf)
        rows, cols, values = decode_mel1(buf.getvalue())
        assert (rows, cols) == (80, 20)
        back = np.array(values).reshape(rows, cols)
        assert np.max(np.abs(back - f.bins)) <= 1e-6

    def test_bad_magic(self):
        with pytest.raises(FormatFault, match="magic"):
            decode_mel1(b"XXXX" + b"\x00" * 8)

    def test_short_header_is_value_error(self):
        with pytest.raises(FormatFault, match="truncated feature header"):
            decode_mel1(b"MEL1\x00\x00")

    @pytest.mark.parametrize("tail", [b"\x00", b"garbage" * 4])
    def test_bytes_after_the_matrix_rejected(self, tail):
        buf = io.BytesIO()
        write_mel(MelFeatures(np.ones((3, 2))), buf)
        message = f"offset 36: {len(tail)} bytes after the 3 x 2 feature matrix"
        with pytest.raises(FormatFault, match=f"^{message}$"):
            decode_mel1(buf.getvalue() + tail)

    def test_cut_matrix_rejected(self):
        buf = io.BytesIO()
        write_mel(MelFeatures(np.ones((3, 2))), buf)
        with pytest.raises(FormatFault, match=r"^offset 12: truncated feature matrix \(23 of 24"):
            decode_mel1(buf.getvalue()[:-1])
        with pytest.raises(FormatFault, match="truncated feature matrix"):
            decode_mel1(b"MEL1" + struct.pack("<II", 2**32 - 1, 2**32 - 1))

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
        try:
            decode_mel1(data)
        except FormatFault:
            pass
