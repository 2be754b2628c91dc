"""Offline speed perturbation and online noise/music/babble/reverb augmentation.

Noise, music, and babble are mixed at an exact target SNR measured over the
whole clip; reverb is a linear convolution truncated to the input length and
rescaled to the input's peak amplitude, computed by overlap-add in blocks
whose FFT size follows the RIR length, never the clip's, so its buffers are
one clip-length output array and a few RIR-sized blocks. Each online
augmentation fires independently with its policy probability, in the fixed
order noise -> music -> babble -> reverb. The policy is `config.AugmentPolicy`,
a pipeline config's `augment` section.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .features import Waveform, match_length, read_wav
from .trials import read_path_list

if TYPE_CHECKING:
    from .config import AugmentPolicy

BANK_CATEGORIES = ("noise", "music", "speech", "rir")
# smallest overlap-add FFT size of add_reverb, so a short RIR does not
# split a clip into thousands of tiny blocks
REVERB_MIN_FFT = 256


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
        """Load from a manifest of "category path" lines (`read_path_list`);
        an empty or silent clip, which no augmentation can use, is an error."""
        entries: dict[str, list[Waveform]] = {c: [] for c in BANK_CATEGORIES}
        for line_no, category, wav_path in read_path_list(path, "manifest"):
            if category not in BANK_CATEGORIES:
                raise ValueError(f"{path}:{line_no}: unknown category {category!r}")
            wav = read_wav(wav_path, expected_rate=sample_rate)
            if not wav.samples.any():
                raise ValueError(f"{wav_path}: empty or silent {category} clip")
            entries[category].append(wav)
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
    mixed = gain * matched
    mixed += signal.samples
    return Waveform(mixed, signal.sample_rate)


def make_babble(
    speech: list[Waveform], k: int, n_samples: int, rng: np.random.Generator
) -> Waveform:
    """Sum of k distinct randomly chosen speech clips, each length-matched.

    The policy's babble_min..babble_max range bounds k (`apply_policy`)."""
    if k < 1:
        raise ValueError(f"babble speaker count must be >= 1, got {k}")
    if len(speech) < k:
        raise ValueError(f"speech bank has {len(speech)} clips, need {k}")
    chosen = rng.choice(len(speech), size=k, replace=False)
    mixed = np.zeros(n_samples, dtype=np.float64)
    for idx in chosen:
        mixed += match_length(speech[idx].samples, n_samples)
    if _mean_power(mixed) <= 0.0:
        raise ValueError("degenerate babble: summed speech is silent")
    return Waveform(mixed, speech[0].sample_rate)


def reverb_fft_size(n_taps: int) -> int:
    """Overlap-add FFT size for an RIR of n_taps: the power of two at
    least 4 * n_taps and at least REVERB_MIN_FFT. Each block then carries
    n_fft - n_taps + 1 input samples, at least three quarters of it."""
    return max(REVERB_MIN_FFT, 1 << (4 * n_taps - 1).bit_length())


def _peak(samples: np.ndarray) -> float:
    """max |x| without an |x| temporary."""
    return float(max(samples.max(), -samples.min()))


def add_reverb(w: Waveform, rir: Waveform) -> Waveform:
    """Convolve with a room impulse response, keep the input length and peak level.

    Overlap-add: the input is transformed in blocks at `reverb_fft_size`
    of the RIR, cut to the input length (later taps never reach the kept
    output), and each block's convolution is summed into one output
    array of the input length.
    """
    if w.sample_rate != rir.sample_rate:
        raise ValueError("waveform and RIR sample rates differ")
    if len(rir) == 0 or not np.any(rir.samples):
        raise ValueError("silent RIR")
    if len(w) == 0:
        raise ValueError("empty signal")
    x = w.samples
    taps = rir.samples[: len(x)]
    n_fft = reverb_fft_size(len(taps))
    step = n_fft - len(taps) + 1
    kernel = np.fft.rfft(taps, n_fft)
    wet = np.zeros(len(x))
    for start in range(0, len(x), step):
        block = np.fft.irfft(np.fft.rfft(x[start : start + step], n_fft) * kernel, n_fft)
        out = wet[start : start + n_fft]
        out += block[: len(out)]
    in_peak = _peak(x)
    wet_peak = _peak(wet)
    if in_peak > 0.0 and wet_peak > 0.0:
        wet *= in_peak / wet_peak
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
    given rng state. Before any draw, ValueError for an empty or silent
    (all-zero) waveform, which no SNR can be set against, or a bank short of
    what the policy may use: a non-empty category for each probability above
    zero, and babble_max speech clips for babble.
    """
    if len(w) == 0:
        raise ValueError("empty signal")
    if not w.samples.any():
        raise ValueError("silent signal")
    sources = ((policy.p_noise, "noise"), (policy.p_music, "music"),
               (policy.p_babble, "speech"), (policy.p_reverb, "rir"))
    for p, category in sources:
        if p > 0:
            bank.category(category)
    if policy.p_babble > 0 and bank.size("speech") < policy.babble_max:
        raise ValueError(f"speech bank has {bank.size('speech')} clips, need {policy.babble_max}")
    out = w
    for name in ("noise", "music"):
        if rng.random() < getattr(policy, f"p_{name}"):
            clips = bank.category(name)
            snr = rng.uniform(getattr(policy, f"snr_{name}_lo"), getattr(policy, f"snr_{name}_hi"))
            out = mix_at_snr(out, clips[int(rng.integers(len(clips)))], snr)
    if rng.random() < policy.p_babble:
        clips = bank.category("speech")
        k = int(rng.integers(policy.babble_min, policy.babble_max + 1))
        babble = make_babble(clips, k, len(out), rng)
        snr = rng.uniform(policy.snr_babble_lo, policy.snr_babble_hi)
        out = mix_at_snr(out, babble, snr)
    if rng.random() < policy.p_reverb:
        rirs = bank.category("rir")
        out = add_reverb(out, rirs[int(rng.integers(len(rirs)))])
    return out
