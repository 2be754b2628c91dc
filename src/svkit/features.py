"""Log-Mel filterbank features with cepstral mean normalization.

The front end is fixed by convention: 25 ms Hamming windows every 10 ms,
512-point FFT, power spectrum, 80 triangular filters on the HTK mel scale
spanning 0 Hz to Nyquist, natural log with a 1e-10 floor, no pre-emphasis.
All but the floor (LOG_FLOOR) are overridable through FeatureConfig.
"""

from __future__ import annotations

import functools
import math
import struct
import wave
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trials import output_file, require_file

MEL_MAGIC = b"MEL1"
# upper bounds on the FFT size and filter count, so a config value cannot
# size the filterbank (n_mels x (n_fft/2 + 1) float64, at most 34 MB)
MAX_N_FFT = 1 << 15
MAX_N_MELS = 256
# frames windowed and transformed per block in compute_logmel
LOGMEL_BLOCK = 64
LOG_FLOOR = 1e-10  # log-mel entries are ln(max(power, LOG_FLOOR))


@dataclass(frozen=True)
class Waveform:
    """Mono PCM audio: float samples (nominal range [-1, 1]) at a fixed rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class MelFeatures:
    """n_mels x T log-Mel matrix."""

    bins: np.ndarray
    cmn_applied: bool = False

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.float64)
        if bins.ndim != 2:
            raise ValueError(f"bins must be 2-D, got shape {bins.shape}")
        if not np.all(np.isfinite(bins)):
            raise ValueError("feature entries must be finite")
        object.__setattr__(self, "bins", bins)

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]


@dataclass(frozen=True)
class FeatureConfig:
    """Front-end geometry: window and hop in seconds, FFT size, mel filters."""

    window: float = 0.025
    hop: float = 0.010
    n_fft: int = 512
    n_mels: int = 80

    def __post_init__(self):
        for name in ("window", "hop"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 2 <= self.n_fft <= MAX_N_FFT:
            raise ValueError(f"n_fft must be in 2..{MAX_N_FFT}, got {self.n_fft}")
        if not 1 <= self.n_mels <= MAX_N_MELS:
            raise ValueError(f"n_mels must be in 1..{MAX_N_MELS}, got {self.n_mels}")

    def frame_lengths(self, sample_rate: int) -> tuple[int, int]:
        """Window and hop in samples at a rate. ValueError unless each is at
        least one sample and the window fits in n_fft."""
        win, hop = self.window * sample_rate, self.hop * sample_rate
        if not (math.isfinite(win) and math.isfinite(hop)):
            raise ValueError(f"window and hop overflow at {sample_rate} Hz")
        win, hop = round(win), round(hop)
        for name, seconds, n in (("window", self.window, win), ("hop", self.hop, hop)):
            if n < 1:
                raise ValueError(f"{name} of {seconds:g} s is under one sample at {sample_rate} Hz")
        if win > self.n_fft:
            raise ValueError(f"window of {win} samples exceeds n_fft {self.n_fft}")
        return win, hop


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_corners(n_mels: int, sample_rate: int) -> np.ndarray:
    """The n_mels + 2 filter corner frequencies in Hz, equally spaced on the
    mel scale from 0 Hz to Nyquist."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters evaluated at the FFT bin frequencies.

    Returns an (n_mels, n_fft // 2 + 1) weight matrix. Corner frequencies
    are equally spaced on the mel scale from 0 Hz to Nyquist; each filter
    rises linearly in Hz to its center and falls to the next corner.
    """
    corners = _mel_corners(n_mels, sample_rate)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lower, center, upper = corners[:-2], corners[1:-1], corners[2:]
    up = (bin_freqs[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - bin_freqs[None, :]) / (upper - center)[:, None]
    return np.maximum(0.0, np.minimum(up, down))


@functools.lru_cache(maxsize=4)
def _window(win: int) -> np.ndarray:
    window = np.hamming(win)
    window.flags.writeable = False
    return window


@functools.lru_cache(maxsize=4)
def _filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    weights = mel_filterbank(n_mels, n_fft, sample_rate)
    weights.flags.writeable = False
    return weights


def compute_logmel(w: Waveform, cfg: FeatureConfig = FeatureConfig()) -> MelFeatures:
    """Log-Mel filterbank energies of a waveform.

    Frames are Hamming-windowed, the power spectrum is weighted by the mel
    filterbank, and entries are ln(max(power, LOG_FLOOR)). Frame count is
    1 + floor((len - window) / hop).
    """
    win, hop = cfg.frame_lengths(w.sample_rate)
    if len(w) < win:
        raise ValueError(f"waveform too short: {len(w)} samples < {win} window")
    frames = sliding_window_view(w.samples, win)[::hop]
    window = _window(win)
    # window, FFT and power go through buffers reused for every block of
    # frames, so no full-length frame or spectrum temporary is allocated.
    # An rfft row does not depend on its block, so the power rows are those
    # of one whole-matrix rfft; the filterbank gemm stays one whole-matrix
    # product, because a gemm in row blocks can change the last bits.
    power = np.empty((len(frames), cfg.n_fft // 2 + 1))
    windowed = np.empty((min(LOGMEL_BLOCK, len(frames)), win))
    spectrum = np.empty((len(windowed), power.shape[1]), dtype=np.complex128)
    imag_sq = np.empty(spectrum.shape)
    for start in range(0, len(frames), LOGMEL_BLOCK):
        block = frames[start : start + LOGMEL_BLOCK]
        n = len(block)
        np.multiply(block, window, out=windowed[:n])
        np.fft.rfft(windowed[:n], n=cfg.n_fft, axis=1, out=spectrum[:n])
        np.square(spectrum[:n].real, out=power[start : start + n])
        np.square(spectrum[:n].imag, out=imag_sq[:n])
        power[start : start + n] += imag_sq[:n]
    mel_power = power @ _filterbank(cfg.n_mels, cfg.n_fft, w.sample_rate).T
    np.maximum(mel_power, LOG_FLOOR, out=mel_power)
    np.log(mel_power, out=mel_power)
    return MelFeatures(bins=mel_power.T, cmn_applied=False)


def apply_cmn(f: MelFeatures) -> MelFeatures:
    """Subtract the per-bin mean over frames (cepstral mean normalization)."""
    if f.cmn_applied:
        raise ValueError("CMN already applied")
    centered = f.bins - f.bins.mean(axis=1, keepdims=True)
    return MelFeatures(bins=centered, cmn_applied=True)


def match_length(samples: np.ndarray, target: int) -> np.ndarray:
    """Deterministically tile or truncate a sample array to a target length."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot tile an empty sample array")
    if n >= target:
        return samples[:target]
    reps = -(-target // n)
    return np.tile(samples, reps)[:target]


def read_wav(path, expected_rate: int = 16000) -> Waveform:
    """Read a RIFF PCM wav file: 16-bit signed mono at the expected rate.

    Anything else (other sample widths, channel counts, rates, compressed
    streams, non-RIFF files, truncated headers, or fewer data frames than
    the header claims) is rejected with ValueError, as is a path that is
    not a regular file (`require_file`).
    """
    path = require_file(path, "wav")
    try:
        fh = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        reason = str(exc) or "truncated header"
        raise ValueError(f"{path}: not a readable RIFF wav ({reason})") from None
    except RuntimeError:  # wave's bare error for a chunk that runs past its RIFF chunk
        raise ValueError(f"{path}: not a readable RIFF wav "
                         "(a chunk runs past the end of the RIFF chunk)") from None
    with fh:
        if fh.getcomptype() != "NONE":
            raise ValueError(f"{path}: compressed wav not supported")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono, got {fh.getnchannels()} channels")
        rate = fh.getframerate()
        if rate != expected_rate:
            raise ValueError(f"{path}: expected {expected_rate} Hz, got {rate} Hz")
        n_frames = fh.getnframes()
        raw = fh.readframes(n_frames)
    if len(raw) != 2 * n_frames:
        raise ValueError(f"{path}: truncated wav data ({len(raw) // 2} of {n_frames} frames)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return Waveform(samples, rate)


def write_wav(w: Waveform, path) -> None:
    """Write 16-bit signed mono PCM, clipping to [-1, 1); a failed write
    leaves no file."""
    scaled = np.clip(w.samples, -1.0, 32767.0 / 32768.0)
    scaled *= 32768.0
    pcm = np.round(scaled, out=scaled).astype("<i2")
    with output_file(path, "wb") as sink, wave.open(sink, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def write_mel(f: MelFeatures, sink: BinaryIO) -> None:
    """Binary feature dump: magic "MEL1", u32 rows, u32 cols, row-major f32."""
    rows, cols = f.bins.shape
    sink.write(MEL_MAGIC)
    sink.write(struct.pack("<II", rows, cols))
    sink.write(np.ascontiguousarray(f.bins, dtype="<f4").tobytes())
