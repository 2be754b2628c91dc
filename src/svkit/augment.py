"""Offline speed perturbation and online noise/music/babble/reverb augmentation.

Noise, music, and babble are mixed at an exact target SNR measured over the
whole clip; reverb is a full linear convolution truncated to the input length
and rescaled to the input's peak amplitude. Each online augmentation fires
independently with its policy probability, in the fixed order
noise -> music -> babble -> reverb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import Waveform, match_length, read_wav

BANK_CATEGORIES = ("noise", "music", "speech", "rir")


@dataclass(frozen=True)
class AugmentPolicy:
    """Application probabilities and SNR/speaker ranges for the four augmentations."""

    p_noise: float = 0.2
    p_music: float = 0.2
    p_babble: float = 0.2
    p_reverb: float = 0.2
    snr_noise_db: tuple[float, float] = (0.0, 15.0)
    snr_music_db: tuple[float, float] = (5.0, 15.0)
    snr_babble_db: tuple[float, float] = (13.0, 20.0)
    babble_speakers: tuple[int, int] = (3, 7)

    def __post_init__(self):
        for name in ("p_noise", "p_music", "p_babble", "p_reverb"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name in ("snr_noise_db", "snr_music_db", "snr_babble_db"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name} range is empty: [{lo}, {hi}]")
        lo, hi = self.babble_speakers
        if lo < 1 or hi < lo:
            raise ValueError(f"babble_speakers range invalid: [{lo}, {hi}]")


class NoiseBank:
    """Category-tagged waveform collections: noise, music, speech, rir."""

    def __init__(self, entries: dict[str, list[Waveform]]):
        unknown = set(entries) - set(BANK_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown bank categories: {sorted(unknown)}")
        rates = {w.sample_rate for ws in entries.values() for w in ws}
        if len(rates) > 1:
            raise ValueError(f"bank mixes sample rates: {sorted(rates)}")
        self._entries = {c: list(entries.get(c, [])) for c in BANK_CATEGORIES}

    def category(self, name: str) -> list[Waveform]:
        if name not in BANK_CATEGORIES:
            raise ValueError(f"unknown bank category {name!r}")
        items = self._entries[name]
        if not items:
            raise ValueError(f"noise bank category {name!r} is empty")
        return items

    def size(self, name: str) -> int:
        return len(self._entries[name])

    @classmethod
    def from_manifest(cls, path, sample_rate: int = 16000) -> "NoiseBank":
        """Load from a manifest of "category path" lines.

        Relative paths are resolved against the manifest's directory.
        """
        base = Path(path).parent
        entries: dict[str, list[Waveform]] = {c: [] for c in BANK_CATEGORIES}
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                tokens = raw.split(None, 1)
                if not tokens:
                    continue
                if len(tokens) != 2:
                    raise ValueError(f"{path}:{line_no}: expected 'category path'")
                category, wav_path = tokens[0], tokens[1].strip()
                if category not in BANK_CATEGORIES:
                    raise ValueError(f"{path}:{line_no}: unknown category {category!r}")
                resolved = Path(wav_path)
                if not resolved.is_absolute():
                    resolved = base / resolved
                entries[category].append(read_wav(resolved, expected_rate=sample_rate))
        return cls(entries)


def speed_perturb(w: Waveform, factor: float) -> Waveform:
    """Resample at rate ratio `factor` (pitch and tempo shift together).

    Output length is round(len / factor) with half-up rounding; factor 1.0
    returns the samples unchanged. Linear interpolation, end sample held.
    """
    if factor <= 0:
        raise ValueError(f"speed factor must be positive, got {factor}")
    if factor == 1.0:
        return Waveform(w.samples.copy(), w.sample_rate)
    n = len(w)
    if n == 0:
        raise ValueError("cannot speed-perturb an empty waveform")
    positions = np.arange(speed_output_length(n, factor)) * factor
    resampled = np.interp(positions, np.arange(n), w.samples)
    return Waveform(resampled, w.sample_rate)


def speed_output_length(n: int, factor: float) -> int:
    """round(n / factor), half away from zero; the speed_perturb length contract."""
    return int(math.floor(n / factor + 0.5))


def relabel_for_speed(n_speakers: int, factor_count: int) -> int:
    """Total class count when every speaker/speed-factor pair is its own class."""
    if n_speakers <= 0 or factor_count <= 0:
        raise ValueError("speaker and factor counts must be positive")
    return n_speakers * factor_count


def speed_class_id(speaker: int, factor_index: int, factor_count: int) -> int:
    """Bijective (speaker, factor) -> class id mapping."""
    if not 0 <= factor_index < factor_count:
        raise ValueError(f"factor_index {factor_index} outside [0, {factor_count})")
    return speaker * factor_count + factor_index


def speed_class_parts(class_id: int, factor_count: int) -> tuple[int, int]:
    """Inverse of speed_class_id."""
    return divmod(class_id, factor_count)


def _mean_power(samples: np.ndarray) -> float:
    return float(np.mean(samples * samples))


def mix_at_snr(signal: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Add `noise` to `signal` scaled so the added component sits at snr_db.

    The noise is first tiled or truncated to the signal length; powers are
    mean squares over the full clip.
    """
    if signal.sample_rate != noise.sample_rate:
        raise ValueError("signal and noise sample rates differ")
    if len(signal) == 0:
        raise ValueError("empty signal")
    matched = match_length(noise.samples, len(signal))
    p_signal = _mean_power(signal.samples)
    p_noise = _mean_power(matched)
    if p_signal <= 0.0 or p_noise <= 0.0:
        raise ValueError("degenerate SNR: silent signal or silent noise")
    gain = math.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(signal.samples + gain * matched, signal.sample_rate)


def make_babble(
    speech: list[Waveform],
    k: int,
    n_samples: int,
    rng: np.random.Generator,
    k_range: tuple[int, int] = (3, 7),
) -> Waveform:
    """Sum of k distinct randomly chosen speech clips, each length-matched."""
    lo, hi = k_range
    if not lo <= k <= hi:
        raise ValueError(f"babble speaker count {k} outside [{lo}, {hi}]")
    if len(speech) < k:
        raise ValueError(f"speech bank has {len(speech)} clips, need {k}")
    chosen = rng.choice(len(speech), size=k, replace=False)
    mixed = np.zeros(n_samples, dtype=np.float64)
    for idx in chosen:
        mixed += match_length(speech[idx].samples, n_samples)
    if _mean_power(mixed) <= 0.0:
        raise ValueError("degenerate babble: summed speech is silent")
    return Waveform(mixed, speech[0].sample_rate)


def add_reverb(w: Waveform, rir: Waveform) -> Waveform:
    """Convolve with a room impulse response, keep the input length and peak level."""
    if w.sample_rate != rir.sample_rate:
        raise ValueError("waveform and RIR sample rates differ")
    if len(rir) == 0 or not np.any(rir.samples):
        raise ValueError("silent RIR")
    n = 1 << (len(w) + len(rir) - 2).bit_length()  # a power of two >= the full length
    wet = np.fft.irfft(np.fft.rfft(w.samples, n) * np.fft.rfft(rir.samples, n), n)[: len(w)]
    in_peak = float(np.max(np.abs(w.samples)))
    wet_peak = float(np.max(np.abs(wet)))
    if in_peak > 0.0 and wet_peak > 0.0:
        wet = wet * (in_peak / wet_peak)
    return Waveform(wet, w.sample_rate)


def apply_policy(
    w: Waveform,
    policy: AugmentPolicy,
    bank: NoiseBank,
    rng: np.random.Generator,
) -> Waveform:
    """Apply the four online augmentations, each with its own probability.

    Draws are independent Bernoulli trials in the fixed order
    noise -> music -> babble -> reverb; SNRs and the babble speaker count
    are sampled uniformly from the policy ranges. Fully deterministic for a
    given rng state.
    """
    out = w
    if rng.random() < policy.p_noise:
        clips = bank.category("noise")
        snr = rng.uniform(*policy.snr_noise_db)
        out = mix_at_snr(out, clips[int(rng.integers(len(clips)))], snr)
    if rng.random() < policy.p_music:
        clips = bank.category("music")
        snr = rng.uniform(*policy.snr_music_db)
        out = mix_at_snr(out, clips[int(rng.integers(len(clips)))], snr)
    if rng.random() < policy.p_babble:
        clips = bank.category("speech")
        lo, hi = policy.babble_speakers
        k = int(rng.integers(lo, hi + 1))
        babble = make_babble(clips, k, len(out), rng, k_range=policy.babble_speakers)
        snr = rng.uniform(*policy.snr_babble_db)
        out = mix_at_snr(out, babble, snr)
    if rng.random() < policy.p_reverb:
        rirs = bank.category("rir")
        out = add_reverb(out, rirs[int(rng.integers(len(rirs)))])
    return out
