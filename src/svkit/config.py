"""Flat key-value configuration files and reproducible seed fan-out.

Config files hold one "key = value" pair per line, with # comments and
blank lines ignored. Each key sets the config dataclass field of the same
name, so messages name the key as written: a field annotated int, float,
bool or `str | None` (a file path) is a key, and a field whose default
factory is a dataclass (PipelineConfig.features, .augment) is a section
whose fields are keys in turn. The key tables are derived from the
fields. Unknown keys are rejected so typos surface at load time instead
of silently falling back to defaults. Environment variables never
override config values.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_type_hints

from .augment import AugmentPolicy
from .features import FeatureConfig
from .schedule import CosineRestartConfig
from .scoring import MAX_N_SEGMENTS
from .trials import read_text

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


def _as_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"must be a boolean, got {value!r}")


# a config number is an ASCII literal: no "_" separator, no non-ASCII digit
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _as_int(value: str) -> int:
    try:
        if _INTEGER.fullmatch(value):
            return int(value)
    except ValueError:  # over int()'s digit limit
        pass
    raise ValueError(f"must be an integer, got {value!r}")


def _as_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    if not _DECIMAL.fullmatch(value):
        raise ValueError(f"must be a number, got {value!r}")
    return number


# field annotation -> parser of a config value; a `str | None` field names
# a file, which load_pipeline_config resolves against the config's folder
_PARSERS = {int: _as_int, float: _as_float, bool: _as_bool, str | None: str}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full pipeline run needs, loadable from one file."""

    sample_rate: int = 16000
    features: FeatureConfig = field(default_factory=FeatureConfig)
    cmn: bool = True
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    noise_manifest: str | None = None
    cohort: str | None = None
    top_k: int = 100
    n_segments: int = 5
    segment_duration: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ConfigError(f"sample_rate must be in 1..{MAX_SAMPLE_RATE}, got {self.sample_rate}")
        if self.top_k < 2:  # the std of one cohort score is 0
            raise ConfigError(f"top_k must be >= 2, got {self.top_k}")
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


def _sections(cls) -> dict[str, type]:
    """Section -> the config class it builds: "" is cls itself, and each
    field whose default factory is a dataclass is a section of its own."""
    nested = {f.name: f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)}
    return {"": cls, **nested}


def _key_table(cls) -> dict[str, tuple[str, Callable[[str], object]]]:
    """Config key -> (section, parser): every field of cls or of one of its
    sections whose annotation has a parser is a key of its own name."""
    table = {}
    for section, owner in _sections(cls).items():
        hints = get_type_hints(owner)
        table.update({f.name: (section, _PARSERS[hints[f.name]])
                      for f in fields(owner) if hints[f.name] in _PARSERS})
    return table


_PIPELINE_KEYS = _key_table(PipelineConfig)
_SCHEDULE_KEYS = _key_table(CosineRestartConfig)


def _load(path: Path, cls, table: dict, kind: str):
    """A cls built from a config file; a field without a default must be set."""
    try:
        text = read_text(path, "config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raw = parse_config_text(text, source=str(path))
    sections = _sections(cls)
    values: dict[str, dict[str, object]] = {section: {} for section in sections}
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(
                f"{path}: unknown {kind} key {key!r}; known keys: {', '.join(sorted(table))}"
            )
        section, parse = table[key]
        try:
            values[section][key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} {exc}") from None
    for f in fields(cls):  # a section is built by its default factory, so has no required field
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values[""]:
            raise ConfigError(f"{path}: {kind} config needs {f.name}")
    try:
        nested = {section: owner(**values[section]) for section, owner in sections.items() if section}
        return cls(**values[""], **nested)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_pipeline_config(path) -> PipelineConfig:
    """Parse, type-check, and range-check a pipeline config file.

    Referenced files (the `str | None` fields: noise manifest, cohort
    embeddings) are resolved against the config's folder and stored
    resolved, but not opened: the command that reads a file checks it, so
    a config may name a file that an earlier stage has yet to write.
    """
    path = Path(path)
    cfg = _load(path, PipelineConfig, _PIPELINE_KEYS, "config")
    # an absolute ref replaces the base
    return replace(cfg, **{key: str(path.parent / getattr(cfg, key))
                           for key, (_, parse) in _PIPELINE_KEYS.items()
                           if parse is str and getattr(cfg, key) is not None})


def load_schedule_config(path) -> CosineRestartConfig:
    """Schedule parameters from the same flat key-value format."""
    return _load(Path(path), CosineRestartConfig, _SCHEDULE_KEYS, "schedule")


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage RNG seed derived from the global seed.

    XORs the global seed with the first 8 bytes of SHA-256(stage name),
    so stages are decorrelated but every run with the same config seed
    reproduces the same per-stage streams on any platform. hashlib is
    imported here, on the first call, because importing it maps OpenSSL
    into the process: only the commands that seed a stage pay for it.
    """
    import hashlib

    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    digest = hashlib.sha256(stage.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & (2**63 - 1)
