"""Flat key-value configuration files and reproducible seed fan-out.

Config files hold one "key = value" pair per line, with # comments and
blank lines ignored. Unknown keys are rejected so typos surface at load
time instead of silently falling back to defaults. Environment variables
never override config values.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .augment import AugmentPolicy
from .features import FeatureConfig
from .schedule import CosineRestartConfig

# a RIFF header stores the sample rate in 32 bits
MAX_SAMPLE_RATE = 2**32 - 1


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings from flat "key = value" lines."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{line_no}: empty key or value")
        if key in out:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def _as_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full pipeline run needs, loadable from one file."""

    sample_rate: int = 16000
    window: float = 0.025
    hop: float = 0.010
    n_fft: int = 512
    n_mels: int = 80
    cmn: bool = True
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    noise_manifest: str | None = None
    cohort_path: str | None = None
    top_k: int = 100
    n_segments: int = 5
    segment_duration: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ConfigError(f"sample_rate must be in 1..{MAX_SAMPLE_RATE}, got {self.sample_rate}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.n_segments < 1:
            raise ConfigError(f"n_segments must be >= 1, got {self.n_segments}")
        if not (math.isfinite(self.segment_duration) and self.segment_duration > 0):
            raise ConfigError(
                f"segment_duration must be positive and finite, got {self.segment_duration}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # feature geometry is validated by the feature module itself
        self.feature_config().frame_lengths(self.sample_rate)

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            window_s=self.window, hop_s=self.hop, n_fft=self.n_fft, n_mels=self.n_mels
        )


_PIPELINE_KEYS = {
    "sample_rate": ("sample_rate", _as_int),
    "window": ("window", _as_float),
    "hop": ("hop", _as_float),
    "n_fft": ("n_fft", _as_int),
    "n_mels": ("n_mels", _as_int),
    "cmn": ("cmn", _as_bool),
    "noise_manifest": ("noise_manifest", str),
    "cohort": ("cohort_path", str),
    "top_k": ("top_k", _as_int),
    "n_segments": ("n_segments", _as_int),
    "segment_duration": ("segment_duration", _as_float),
    "seed": ("seed", _as_int),
}

_POLICY_KEYS = {
    "p_noise": _as_float,
    "p_music": _as_float,
    "p_babble": _as_float,
    "p_reverb": _as_float,
    "snr_noise_lo": _as_float,
    "snr_noise_hi": _as_float,
    "snr_music_lo": _as_float,
    "snr_music_hi": _as_float,
    "snr_babble_lo": _as_float,
    "snr_babble_hi": _as_float,
    "babble_min": _as_int,
    "babble_max": _as_int,
}


def load_pipeline_config(path) -> PipelineConfig:
    """Parse, type-check, and range-check a pipeline config file.

    Referenced files (noise manifest, cohort embeddings) must exist at
    load time; paths are resolved relative to the config file and stored
    resolved.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = parse_config_text(path.read_text(encoding="utf-8"), source=str(path))

    kwargs = {}
    policy_kwargs = {}
    policy_raw: dict[str, float] = {}
    for key, value in raw.items():
        if key in _PIPELINE_KEYS:
            dest, conv = _PIPELINE_KEYS[key]
            kwargs[dest] = conv(key, value) if conv is not str else value
        elif key in _POLICY_KEYS:
            policy_raw[key] = _POLICY_KEYS[key](key, value)
        else:
            known = sorted(list(_PIPELINE_KEYS) + list(_POLICY_KEYS))
            raise ConfigError(f"{path}: unknown config key {key!r}; known keys: {', '.join(known)}")

    defaults = AugmentPolicy()
    for name in ("p_noise", "p_music", "p_babble", "p_reverb"):
        if name in policy_raw:
            policy_kwargs[name] = policy_raw[name]
    for name in ("noise", "music", "babble"):
        lo = policy_raw.get(f"snr_{name}_lo")
        hi = policy_raw.get(f"snr_{name}_hi")
        if lo is not None or hi is not None:
            default_lo, default_hi = getattr(defaults, f"snr_{name}_db")
            policy_kwargs[f"snr_{name}_db"] = (
                lo if lo is not None else default_lo,
                hi if hi is not None else default_hi,
            )
    if "babble_min" in policy_raw or "babble_max" in policy_raw:
        lo, hi = defaults.babble_speakers
        policy_kwargs["babble_speakers"] = (
            int(policy_raw.get("babble_min", lo)),
            int(policy_raw.get("babble_max", hi)),
        )
    try:
        kwargs["augment"] = AugmentPolicy(**policy_kwargs)
        cfg = PipelineConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    resolved = {}
    for label, dest in (("noise_manifest", "noise_manifest"), ("cohort", "cohort_path")):
        ref = getattr(cfg, dest)
        if ref is not None:
            ref_path = path.parent / ref  # an absolute ref replaces the base
            if not os.path.isfile(ref_path):  # False, not OSError, for an over-long name
                raise ConfigError(f"{path}: {label} file not found: {ref_path}")
            resolved[dest] = str(ref_path)
    return replace(cfg, **resolved)


_SCHEDULE_KEYS = {
    "cycle0_steps": _as_int,
    "lr_max0": _as_float,
    "lr_min": _as_float,
    "decay": _as_float,
    "doubling": _as_bool,
    "fixed_period_steps": _as_int,
}


def load_schedule_config(path) -> CosineRestartConfig:
    """Schedule parameters from the same flat key-value format."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = parse_config_text(path.read_text(encoding="utf-8"), source=str(path))
    kwargs = {}
    for key, value in raw.items():
        if key not in _SCHEDULE_KEYS:
            raise ConfigError(
                f"{path}: unknown schedule key {key!r}; known keys: {', '.join(sorted(_SCHEDULE_KEYS))}"
            )
        kwargs[key] = _SCHEDULE_KEYS[key](key, value)
    if "cycle0_steps" not in kwargs:
        raise ConfigError(f"{path}: schedule config needs cycle0_steps")
    try:
        return CosineRestartConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage RNG seed derived from the global seed.

    XORs the global seed with the first 8 bytes of SHA-256(stage name),
    so stages are decorrelated but every run with the same config seed
    reproduces the same per-stage streams on any platform.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    digest = hashlib.sha256(stage.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & (2**63 - 1)
