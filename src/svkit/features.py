"""Log-Mel filterbank features with cepstral mean normalization.

The front end is fixed by convention: 25 ms Hamming windows every 10 ms,
512-point FFT, power spectrum, 80 triangular filters on the HTK mel scale
spanning 0 Hz to Nyquist, natural log with a 1e-10 floor, no pre-emphasis.
All parameters are overridable through FeatureConfig.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

MEL_MAGIC = b"MEL1"


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

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class MelFeatures:
    """n_mels x T log-Mel matrix plus the hop that produced it."""

    bins: np.ndarray
    frame_hop: float
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
    window_s: float = 0.025
    hop_s: float = 0.010
    n_fft: int = 512
    n_mels: int = 80
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.window_s <= 0 or self.hop_s <= 0:
            raise ValueError("window and hop must be positive")
        if self.n_fft < 2 or self.n_mels < 1:
            raise ValueError("n_fft and n_mels must be positive")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters evaluated at the FFT bin frequencies.

    Returns an (n_mels, n_fft // 2 + 1) weight matrix. Corner frequencies
    are equally spaced on the mel scale from 0 Hz to Nyquist; each filter
    rises linearly in Hz to its center and falls to the next corner.
    """
    nyquist = sample_rate / 2.0
    corners = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lower, center, upper = corners[:-2], corners[1:-1], corners[2:]
    up = (bin_freqs[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - bin_freqs[None, :]) / (upper - center)[:, None]
    return np.maximum(0.0, np.minimum(up, down))


def mel_filter_centers(n_mels: int, sample_rate: int) -> np.ndarray:
    """Center frequency in Hz of each filter, for diagnostics and tests."""
    nyquist = sample_rate / 2.0
    corners = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2))
    return corners[1:-1]


def compute_logmel(w: Waveform, cfg: FeatureConfig = FeatureConfig()) -> MelFeatures:
    """Log-Mel filterbank energies of a waveform.

    Frames are Hamming-windowed, the power spectrum is weighted by the mel
    filterbank, and entries are ln(max(power, log_floor)). Frame count is
    1 + floor((len - window) / hop).
    """
    win = int(round(cfg.window_s * w.sample_rate))
    hop = int(round(cfg.hop_s * w.sample_rate))
    if len(w) < win:
        raise ValueError(f"waveform too short: {len(w)} samples < {win} window")
    if win > cfg.n_fft:
        raise ValueError(f"window of {win} samples exceeds n_fft {cfg.n_fft}")
    n_frames = 1 + (len(w) - win) // hop
    offsets = np.arange(n_frames) * hop
    frames = w.samples[offsets[:, None] + np.arange(win)[None, :]]
    frames = frames * np.hamming(win)
    spectrum = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    weights = mel_filterbank(cfg.n_mels, cfg.n_fft, w.sample_rate)
    mel_power = power @ weights.T
    bins = np.log(np.maximum(mel_power, cfg.log_floor)).T
    return MelFeatures(bins=bins, frame_hop=cfg.hop_s, cmn_applied=False)


def apply_cmn(f: MelFeatures) -> MelFeatures:
    """Subtract the per-bin mean over frames (cepstral mean normalization)."""
    if f.cmn_applied:
        raise ValueError("CMN already applied")
    centered = f.bins - f.bins.mean(axis=1, keepdims=True)
    return MelFeatures(bins=centered, frame_hop=f.frame_hop, cmn_applied=True)


def crop_or_pad(w: Waveform, duration: float, rng: np.random.Generator) -> Waveform:
    """Fixed-duration segment: random contiguous crop or cyclic repetition.

    Longer inputs yield a contiguous window at an rng-chosen offset; shorter
    inputs wrap around cyclically and are truncated. Output length is exactly
    round(duration * sample_rate).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if len(w) == 0:
        raise ValueError("cannot crop or pad an empty waveform")
    target = int(round(duration * w.sample_rate))
    n = len(w)
    if n > target:
        offset = int(rng.integers(0, n - target + 1))
        return Waveform(w.samples[offset : offset + target].copy(), w.sample_rate)
    return Waveform(match_length(w.samples, target).copy(), w.sample_rate)


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
    streams, non-RIFF or truncated headers) is rejected with ValueError.
    """
    try:
        fh = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable RIFF wav ({exc or 'truncated header'})") from None
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
        raw = fh.readframes(fh.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(w: Waveform, path) -> None:
    """Write 16-bit signed mono PCM, clipping to [-1, 1)."""
    clipped = np.clip(w.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
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


def read_mel(source: BinaryIO, frame_hop: float = 0.010, cmn_applied: bool = False) -> MelFeatures:
    """Inverse of write_mel; the source is read once, whole, and bounds-checked."""
    data = source.read()
    if data[:4] != MEL_MAGIC:
        raise ValueError(f"bad feature magic {data[:4]!r}, expected {MEL_MAGIC!r}")
    if len(data) < 12:
        raise ValueError(f"truncated feature header ({len(data)} of 12 bytes)")
    rows, cols = struct.unpack_from("<II", data, 4)
    if len(data) - 12 < 4 * rows * cols:
        raise ValueError(f"truncated feature matrix ({len(data) - 12} of {4 * rows * cols} bytes)")
    bins = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=12).reshape(rows, cols)
    return MelFeatures(bins=bins, frame_hop=frame_hop, cmn_applied=cmn_applied)
