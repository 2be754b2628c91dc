"""Flat key-value config parsing, validation, and seed fan-out."""

import numpy as np
import pytest

from svkit.config import (
    ConfigError,
    PipelineConfig,
    load_pipeline_config,
    load_schedule_config,
    parse_config_text,
    stage_seed,
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
        assert cfg.augment.snr_noise_db == (2.0, 9.0)
        assert cfg.augment.babble_speakers == (3, 5)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("speling = 1\n")
        with pytest.raises(ConfigError, match="unknown config key 'speling'"):
            load_pipeline_config(cfg_file)

    def test_missing_referenced_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("cohort = nowhere.emb\n")
        with pytest.raises(ConfigError, match="cohort file not found"):
            load_pipeline_config(cfg_file)

    def test_referenced_file_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "cohort.emb").write_bytes(b"")
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("cohort = cohort.emb\n")
        cfg = load_pipeline_config(cfg_file)
        assert cfg.cohort_path == str(tmp_path / "cohort.emb")

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_pipeline_config(tmp_path / "absent.cfg")

    def test_bad_number_rejected(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("top_k = many\n")
        with pytest.raises(ConfigError, match="top_k must be an integer"):
            load_pipeline_config(cfg_file)


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
            "cycle0_steps = 11000\nlr_max0 = 1e-4\ndecay = 1.0\n"
            "doubling = false\nfixed_period_steps = 11000\n"
        )
        cfg = load_schedule_config(cfg_file)
        assert cfg.fixed_period_steps == 11000
        assert not cfg.doubling

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


class TestStageSeed:
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
