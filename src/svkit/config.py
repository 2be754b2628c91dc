"""Flat key-value configuration files and reproducible seed fan-out.

Config files hold one "key = value" pair per line, with # comments and
blank lines ignored. Unknown keys are rejected so typos surface at load
time instead of silently falling back to defaults. Environment variables
never override config values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .augment import AugmentPolicy
from .features import FeatureConfig
from .schedule import CosineRestartConfig
from .scoring import MAX_N_SEGMENTS
from .trials import read_text, require_file

# a RIFF header stores the sample rate in 32 bits
MAX_SAMPLE_RATE = 2**32 - 1
# MSA segment geometry, bounded as input validation: n_segments sets an
# MSA store's rows per utterance, under the MAX_N_SEGMENTS cap that
# score_trials also puts on the count it reads from a store; 2^21
# samples cap a padded utterance's cyclic extension at 16 MiB of
# float64. Other segments are views of the utterance, not copies.
MAX_SEGMENT_SAMPLES = 1 << 21


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


def _as_text(key: str, value: str) -> str:
    return value


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full pipeline run needs, loadable from one file."""

    sample_rate: int = 16000
    features: FeatureConfig = field(default_factory=FeatureConfig)
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
        if not 1 <= self.n_segments <= MAX_N_SEGMENTS:
            raise ConfigError(f"n_segments must be in 1..{MAX_N_SEGMENTS}, got {self.n_segments}")
        if not (math.isfinite(self.segment_duration) and self.segment_duration > 0):
            raise ConfigError(
                f"segment_duration must be positive and finite, got {self.segment_duration}"
            )
        samples = self.segment_duration * self.sample_rate
        if not (math.isfinite(samples) and 1 <= round(samples) <= MAX_SEGMENT_SAMPLES):
            raise ConfigError(
                f"segment_duration of {self.segment_duration:g} s must be 1..{MAX_SEGMENT_SAMPLES}"
                f" samples at {self.sample_rate} Hz"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # feature geometry is validated by the feature module itself
        self.features.frame_lengths(self.sample_rate)


# config key -> (section, field, parser); section "" is the loaded object
# itself, any other section names the nested config that holds the field
_PIPELINE_KEYS = {
    "sample_rate": ("", "sample_rate", _as_int),
    "window": ("features", "window_s", _as_float),
    "hop": ("features", "hop_s", _as_float),
    "n_fft": ("features", "n_fft", _as_int),
    "n_mels": ("features", "n_mels", _as_int),
    "cmn": ("", "cmn", _as_bool),
    "noise_manifest": ("", "noise_manifest", _as_text),
    "cohort": ("", "cohort_path", _as_text),
    "top_k": ("", "top_k", _as_int),
    "n_segments": ("", "n_segments", _as_int),
    "segment_duration": ("", "segment_duration", _as_float),
    "seed": ("", "seed", _as_int),
    "p_noise": ("augment", "p_noise", _as_float),
    "p_music": ("augment", "p_music", _as_float),
    "p_babble": ("augment", "p_babble", _as_float),
    "p_reverb": ("augment", "p_reverb", _as_float),
    "snr_noise_lo": ("augment", "snr_noise_lo", _as_float),
    "snr_noise_hi": ("augment", "snr_noise_hi", _as_float),
    "snr_music_lo": ("augment", "snr_music_lo", _as_float),
    "snr_music_hi": ("augment", "snr_music_hi", _as_float),
    "snr_babble_lo": ("augment", "snr_babble_lo", _as_float),
    "snr_babble_hi": ("augment", "snr_babble_hi", _as_float),
    "babble_min": ("augment", "babble_min", _as_int),
    "babble_max": ("augment", "babble_max", _as_int),
}

_SCHEDULE_KEYS = {
    "cycle0_steps": ("", "cycle0_steps", _as_int),
    "lr_max0": ("", "lr_max0", _as_float),
    "lr_min": ("", "lr_min", _as_float),
    "decay": ("", "decay", _as_float),
    "doubling": ("", "doubling", _as_bool),
}


def _read_config(path: Path, table: dict, kind: str) -> dict[str, dict[str, object]]:
    """Typed values of a config file by section, as {section: {field: value}}.

    Every section of the table is present, empty if the file sets none of
    its keys.
    """
    try:
        text = read_text(path, "config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raw = parse_config_text(text, source=str(path))
    sections: dict[str, dict[str, object]] = {section: {} for section, _, _ in table.values()}
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(
                f"{path}: unknown {kind} key {key!r}; known keys: {', '.join(sorted(table))}"
            )
        section, name, parse = table[key]
        sections[section][name] = parse(key, value)
    return sections


def load_pipeline_config(path) -> PipelineConfig:
    """Parse, type-check, and range-check a pipeline config file.

    Referenced files (noise manifest, cohort embeddings) must exist at
    load time; paths are resolved relative to the config file and stored
    resolved.
    """
    path = Path(path)
    sections = _read_config(path, _PIPELINE_KEYS, "config")
    try:
        cfg = PipelineConfig(
            augment=AugmentPolicy(**sections["augment"]),
            features=FeatureConfig(**sections["features"]),
            **sections[""],
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    resolved = {}
    for key in ("noise_manifest", "cohort"):
        dest = _PIPELINE_KEYS[key][1]
        ref = getattr(cfg, dest)
        if ref is not None:
            try:  # an absolute ref replaces the base
                resolved[dest] = str(require_file(path.parent / ref, key))
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
    return replace(cfg, **resolved)


def load_schedule_config(path) -> CosineRestartConfig:
    """Schedule parameters from the same flat key-value format."""
    path = Path(path)
    values = _read_config(path, _SCHEDULE_KEYS, "schedule")[""]
    if "cycle0_steps" not in values:
        raise ConfigError(f"{path}: schedule config needs cycle0_steps")
    try:
        return CosineRestartConfig(**values)
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
