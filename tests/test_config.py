"""Flat key-value config parsing, validation, and seed fan-out."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from svkit.config import (
    _PIPELINE_KEYS,
    _SCHEDULE_KEYS,
    MAX_N_SEGMENTS,
    MAX_SEGMENT_SAMPLES,
    ConfigError,
    CosineRestartConfig,
    PipelineConfig,
    load_pipeline_config,
    load_schedule_config,
    parse_config_text,
    stage_seed,
)
from svkit.features import Waveform, compute_logmel
from svkit.scoring import segment_plan

README = Path(__file__).resolve().parents[1] / "README.md"

# every pipeline key with values it accepts, so that fuzzed configs often load
PLAUSIBLE_VALUES = {
    "sample_rate": ["8000", "16000", "44100"],
    "window": ["0.02", "0.025", "0.032"],
    "hop": ["0.01", "0.015", "0.04"],
    "n_fft": ["400", "512", "2048"],
    "n_mels": ["1", "40", "80"],
    "cmn": ["true", "no"],
    "noise_manifest": ["cohort.emb"],
    "cohort": ["cohort.emb"],
    "top_k": ["5", "100"],
    "n_segments": ["1", "5"],
    "segment_duration": ["4", "6.0"],
    "seed": ["0", "7"],
    **{f"p_{c}": ["0", "0.5", "1"] for c in ("noise", "music", "babble", "reverb")},
    **{f"snr_{c}_lo": ["0", "5"] for c in ("noise", "music", "babble")},
    **{f"snr_{c}_hi": ["15", "20"] for c in ("noise", "music", "babble")},
    "babble_min": ["2", "3"],
    "babble_max": ["5", "7"],
}
# every key but the file keys with a value that no config may hold, whichever
# message it draws; a file key holds any path, checked by the command that reads it
INVALID_VALUES = {
    "sample_rate": "0",
    "window": "0",
    "hop": "0",
    "n_fft": "1",
    "n_mels": "0",
    "cmn": "maybe",
    "top_k": "1",
    "n_segments": "0",
    "segment_duration": "0",
    "seed": "-1",
    **{f"p_{c}": "1.5" for c in ("noise", "music", "babble", "reverb")},
    **{f"snr_{c}_lo": "100" for c in ("noise", "music", "babble")},
    **{f"snr_{c}_hi": "-5" for c in ("noise", "music", "babble")},
    "babble_min": "0",
    "babble_max": "1",
    "cycle0_steps": "0",
    "lr_max0": "0",
    "lr_min": "1",
    "decay": "0",
    "doubling": "maybe",
}
HOSTILE_VALUES = [
    "nan", "-nan", "inf", "-inf", "Infinity", "1e-300", "1e300", "1e308", "0", "-0", "-1",
    "0.5", "0.00001", "32768", "32769", "257", str(2**32 - 1), str(2**32), str(2**63),
    str(10**30), "9" * 400, "x" * 300,
]
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_hostile = st.one_of(
    st.sampled_from(HOSTILE_VALUES),
    st.integers().map(str),
    st.floats().map(repr),
    # one-line values: line breaks are the junk lines' job
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=12),
)


def _pair(key):
    plausible = st.sampled_from(PLAUSIBLE_VALUES[key])
    return st.tuples(st.just(key), st.one_of(plausible, plausible, plausible, _hostile))


_known_lines = (
    st.lists(st.sampled_from(sorted(PLAUSIBLE_VALUES)), unique=True, max_size=6)
    .flatmap(lambda keys: st.tuples(*map(_pair, keys)))
    .map(lambda pairs: [f"{k} = {v}" for k, v in pairs])
)
# junk lines (unknown keys, lines without "=") in about one config in four
_junk_lines = st.one_of(
    st.just([]),
    st.just([]),
    st.just([]),
    st.lists(st.one_of(st.tuples(_text, _hostile).map(lambda kv: f"{kv[0]} = {kv[1]}"), _text),
             min_size=1, max_size=2),
)
_config_text = (
    st.tuples(_known_lines, _junk_lines)
    .flatmap(lambda lines: st.permutations(lines[0] + lines[1]))
    .map("\n".join)
)


class TestParseConfigText:
    def test_basic_pairs_with_comments(self):
        text = "# header\nseed = 7\n\ntop_k= 50  # trailing\n"
        assert parse_config_text(text) == {"seed": "7", "top_k": "50"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("seed 7\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config_text("seed =\n")


class TestPipelineConfig:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.sample_rate == 16000
        assert cfg.top_k == 100
        assert cfg.augment.p_noise == 0.2

    @pytest.mark.parametrize("key", ["scoring_mode", "p_target", "c_miss", "c_fa"])
    def test_unread_keys_rejected(self, tmp_path, key):
        # score takes its mode from flags, evaluate its costs from flags
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_pipeline_config(cfg_file)

    def test_load_round_trip(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(
            "seed = 11\ntop_k = 25\np_noise = 0.5\n"
            "snr_noise_lo = 2\nsnr_noise_hi = 9\nbabble_min = 3\nbabble_max = 5\n"
        )
        cfg = load_pipeline_config(cfg_file)
        assert cfg.seed == 11
        assert cfg.top_k == 25
        assert cfg.augment.p_noise == 0.5
        assert (cfg.augment.snr_noise_lo, cfg.augment.snr_noise_hi) == (2.0, 9.0)
        assert (cfg.augment.babble_min, cfg.augment.babble_max) == (3, 5)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("speling = 1\n")
        with pytest.raises(ConfigError, match="unknown config key 'speling'"):
            load_pipeline_config(cfg_file)

    def test_referenced_file_resolved_relative_to_config(self, tmp_path):
        # neither file exists: a later stage may write it, and its reader checks it
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"cohort = cohort.emb\nnoise_manifest = {tmp_path / 'bank' / 'b.txt'}\n")
        cfg = load_pipeline_config(cfg_file)
        assert cfg.cohort == str(tmp_path / "cohort.emb")
        assert cfg.noise_manifest == str(tmp_path / "bank" / "b.txt")

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_pipeline_config(tmp_path / "absent.cfg")

    def test_bad_number_rejected(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("top_k = many\n")
        with pytest.raises(ConfigError, match="top_k must be an integer"):
            load_pipeline_config(cfg_file)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, tmp_path, value):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"p_noise = {value}\n")
        with pytest.raises(ConfigError, match="p_noise must be finite"):
            load_pipeline_config(cfg_file)

    @pytest.mark.parametrize("line, message", [
        ("top_k = 1_0", "top_k must be an integer, got '1_0'"),
        ("seed = \u0663", "seed must be an integer, got '\u0663'"),
        ("n_mels = \uff14\uff10", "n_mels must be an integer, got '\uff14\uff10'"),
        ("segment_duration = 4_0.5", "segment_duration must be a number, got '4_0.5'"),
        ("p_noise = \u0660.5", "p_noise must be a number, got '\u0660.5'"),
        ("p_noise = 0x1p-1", "p_noise must be a number, got '0x1p-1'"),
    ])
    def test_numbers_are_ascii_literals(self, tmp_path, line, message):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_pipeline_config(cfg_file)
        assert str(info.value) == f"{cfg_file}: {message}"

    def test_ascii_number_forms_load(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("top_k = +50\nseed = 007\nsegment_duration = 4.\n"
                            "p_noise = .5\np_music = 25E-2\nsnr_noise_lo = -1.5e+1\n")
        cfg = load_pipeline_config(cfg_file)
        assert (cfg.top_k, cfg.seed, cfg.segment_duration) == (50, 7, 4.0)
        assert (cfg.augment.p_noise, cfg.augment.p_music, cfg.augment.snr_noise_lo) == (
            0.5, 0.25, -15.0)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("hop = 0.00001\n", "hop of 1e-05 s is under one sample at 16000 Hz"),
            ("sample_rate = 8000\nwindow = 0.00005\n", "window of 5e-05 s is under one sample"),
            ("window = 0.04\n", "window of 640 samples exceeds n_fft 512"),
            ("sample_rate = 4294967296\n", "sample_rate must be in 1..4294967295"),
        ],
    )
    def test_frame_geometry_checked_at_load(self, tmp_path, text, match):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_pipeline_config(cfg_file)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("n_segments = 100000000000000000000\n", f"n_segments must be in 1..{MAX_N_SEGMENTS}"),
            (f"n_segments = {MAX_N_SEGMENTS + 1}\n", f"n_segments must be in 1..{MAX_N_SEGMENTS},"),
            ("n_segments = 0\n", f"n_segments must be in 1..{MAX_N_SEGMENTS}, got 0"),
            ("segment_duration = 1e300\n", "segment_duration of 1e\\+300 s must be 1..2097152 samples"),
            ("segment_duration = 132\n", "segment_duration of 132 s must be 1..2097152 samples at 16000 Hz"),
            ("segment_duration = 0.00001\n", "segment_duration of 1e-05 s must be 1..2097152 samples"),
        ],
    )
    def test_segment_geometry_checked_at_load(self, tmp_path, text, match):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_pipeline_config(cfg_file)

    def test_segment_geometry_maxima_load(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"n_segments = {MAX_N_SEGMENTS}\nsegment_duration = 131.072\n")
        cfg = load_pipeline_config(cfg_file)
        assert round(cfg.segment_duration * cfg.sample_rate) == MAX_SEGMENT_SAMPLES

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=_config_text)
    def test_fuzzed_config_raises_only_config_error(self, tmp_path, text):
        cfg_file = tmp_path / "fuzz.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        try:
            cfg = load_pipeline_config(cfg_file)
        except ConfigError:
            event("rejected")
            return
        event("loaded")
        # whatever loads has a frame geometry the front end accepts
        features = cfg.features
        win = int(round(features.window * cfg.sample_rate))
        hop = int(round(features.hop * cfg.sample_rate))
        assert 1 <= win <= features.n_fft and hop >= 1
        one_window = Waveform(np.linspace(-0.5, 0.5, win), cfg.sample_rate)
        feats = compute_logmel(one_window, features)
        assert feats.bins.shape == (features.n_mels, 1)
        # ... and segment plans, padded or not, within the MSA maxima
        for n_samples in (win, round(2 * cfg.segment_duration * cfg.sample_rate)):
            plan = segment_plan(n_samples, cfg.sample_rate, cfg.n_segments, cfg.segment_duration)
            assert 1 <= plan.n_segments <= MAX_N_SEGMENTS
            assert 1 <= plan.length <= MAX_SEGMENT_SAMPLES
            assert plan.padded or 0 <= plan.offsets[0] <= plan.offsets[-1] <= n_samples - plan.length


class TestScheduleConfig:
    def test_load(self, tmp_path):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("cycle0_steps = 100\nlr_max0 = 0.02\ndecay = 0.8\n")
        cfg = load_schedule_config(cfg_file)
        assert cfg.cycle0_steps == 100
        assert cfg.doubling

    def test_fixed_period(self, tmp_path):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text(
            "cycle0_steps = 11000\nlr_max0 = 1e-4\ndecay = 1.0\ndoubling = false\n"
        )
        cfg = load_schedule_config(cfg_file)
        assert cfg == CosineRestartConfig(cycle0_steps=11000, lr_max0=1e-4, decay=1.0,
                                          doubling=False)
        assert not cfg.doubling

    def test_fixed_period_steps_is_unknown(self, tmp_path):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("cycle0_steps = 11000\ndoubling = false\nfixed_period_steps = 11000\n")
        with pytest.raises(ConfigError, match="unknown schedule key 'fixed_period_steps'"):
            load_schedule_config(cfg_file)

    def test_missing_cycle_rejected(self, tmp_path):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("lr_max0 = 0.02\n")
        with pytest.raises(ConfigError, match="cycle0_steps"):
            load_schedule_config(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("cycle0_steps = 10\nwarmup = 5\n")
        with pytest.raises(ConfigError, match="unknown schedule key"):
            load_schedule_config(cfg_file)


def _leaves(cfg: PipelineConfig) -> dict[tuple[str, str], object]:
    """(section, field) -> value of every setting, section "" for the
    PipelineConfig itself, as in the loader's key table."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update({(f.name, g.name): getattr(value, g.name) for g in dataclasses.fields(value)})
        else:
            out[("", f.name)] = value
    return out


def _readme_keys(kind: str) -> list[str]:
    listing = re.search(rf"{kind} keys:(.*?)\.", README.read_text(encoding="utf-8"), re.S)
    assert listing, f"README has no '{kind} keys:' list"
    return re.findall(r"`(\w+)`", listing.group(1))


class TestKeyTables:
    @pytest.mark.parametrize("kind, table", [("Pipeline", _PIPELINE_KEYS), ("Schedule", _SCHEDULE_KEYS)])
    def test_readme_lists_every_key_once(self, kind, table):
        assert sorted(_readme_keys(kind)) == sorted(table)

    def test_fuzzer_covers_every_pipeline_key(self):
        assert sorted(PLAUSIBLE_VALUES) == sorted(_PIPELINE_KEYS)

    @pytest.mark.parametrize("key", sorted(_PIPELINE_KEYS))
    def test_key_sets_exactly_its_field(self, tmp_path, key):
        cfg_file = tmp_path / "pipeline.cfg"
        section, _ = _PIPELINE_KEYS[key]
        name = key
        defaults = _leaves(PipelineConfig())
        assert (section, name) in defaults
        changed = []
        for value in PLAUSIBLE_VALUES[key]:
            cfg_file.write_text(f"{key} = {value}\n")
            try:
                leaves = _leaves(load_pipeline_config(cfg_file))
            except ConfigError:
                continue
            changed.append({leaf for leaf, v in leaves.items() if v != defaults[leaf]})
        assert {(section, name)} in changed
        assert all(c <= {(section, name)} for c in changed)

    def test_invalid_values_cover_every_key(self):
        table = {**_PIPELINE_KEYS, **_SCHEDULE_KEYS}
        assert sorted(INVALID_VALUES) == sorted(k for k, (_, parse) in table.items() if parse is not str)

    @pytest.mark.parametrize("key", sorted(INVALID_VALUES))
    def test_invalid_value_names_key_and_file(self, tmp_path, key):
        cfg_file = tmp_path / "bad.cfg"
        if key in _SCHEDULE_KEYS:
            lines, load = {"cycle0_steps": "10", key: INVALID_VALUES[key]}, load_schedule_config
        else:
            lines, load = {key: INVALID_VALUES[key]}, load_pipeline_config
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        with pytest.raises(ConfigError) as info:
            load(cfg_file)
        message = str(info.value)
        assert message.startswith(f"{cfg_file}: ")
        assert key in message.split(": ", 1)[1]

    def test_value_error_reported_before_missing_file(self, tmp_path):
        # the missing cohort is not the loader's to report: its reader checks it
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("cohort = missing.bin\ntop_k = 1\n")
        with pytest.raises(ConfigError, match="top_k must be >= 2, got 1"):
            load_pipeline_config(cfg_file)


def _iroot(x, k):
    """floor(x ** (1 / k)) of a non-negative integer, bit by bit."""
    r = 0
    for bit in reversed(range(x.bit_length() // k + 1)):
        if (r | 1 << bit) ** k <= x:
            r |= 1 << bit
    return r


_PRIMES = [p for p in range(2, 312) if all(p % q for q in range(2, p))]
_M32 = 0xFFFFFFFF
# FIPS 180-4: the first 32 fraction bits of the cube roots of the first 64
# primes, and of the square roots of the first 8
_SHA256_K = [_iroot(p << 96, 3) & _M32 for p in _PRIMES]
_SHA256_H0 = [_iroot(p << 64, 2) & _M32 for p in _PRIMES[:8]]


def _rotr(x, n):
    return (x >> n | x << (32 - n)) & _M32


def sha256_oracle(data):
    """SHA-256 in plain integer arithmetic (FIPS 180-4), without hashlib."""
    h = list(_SHA256_H0)
    bits = (8 * len(data)).to_bytes(8, "big")
    padded = data + b"\x80" + b"\0" * ((55 - len(data)) % 64) + bits
    for off in range(0, len(padded), 64):
        w = [int.from_bytes(padded[off + 4 * i : off + 4 * i + 4], "big") for i in range(16)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ w[t - 15] >> 3
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ w[t - 2] >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            t1 = (hh + big1 + (e & f ^ ~e & g) + _SHA256_K[t] + w[t]) & _M32
            big0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            t2 = big0 + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, hh = (t1 + t2) & _M32, a, b, c, (d + t1) & _M32, e, f, g
        h = [(x + y) & _M32 for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return b"".join(x.to_bytes(4, "big") for x in h)


class TestStageSeed:
    def test_sha256_oracle_matches_published_vectors(self):
        assert sha256_oracle(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        assert sha256_oracle(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        two_blocks = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256_oracle(two_blocks).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")

    @pytest.mark.parametrize("seed, stage", [
        (0, "embed"), (0, "augment"), (42, "embed"), (2**62 + 12345, "augment"),
        (2**63 - 1, "score"), (7, "\u00e9tape"), (3, ""),
    ])
    def test_matches_independent_sha256(self, seed, stage):
        digest = sha256_oracle(stage.encode("utf-8"))
        expected = (seed ^ int.from_bytes(digest[:8], "little")) & (2**63 - 1)
        assert stage_seed(seed, stage) == expected

    def test_deterministic(self):
        assert stage_seed(42, "embed") == stage_seed(42, "embed")

    def test_stages_decorrelated(self):
        seeds = {stage_seed(0, s) for s in ("embed", "augment", "crop", "score")}
        assert len(seeds) == 4

    def test_distinct_global_seeds_differ(self):
        assert stage_seed(0, "embed") != stage_seed(1, "embed")

    def test_in_generator_range(self):
        for s in range(20):
            value = stage_seed(s, "embed")
            assert 0 <= value < 2**63
            np.random.default_rng(value)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            stage_seed(-1, "embed")
