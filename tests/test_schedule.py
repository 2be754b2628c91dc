"""Cosine-restart learning-rate schedule values and cycle geometry."""

import math

import numpy as np
import pytest

from svkit.schedule import CosineRestartConfig, cycle_start, dump_schedule, lr_at


class TestLrValues:
    def test_step_zero_is_peak(self):
        cfg = CosineRestartConfig(cycle0_steps=100)
        lr, cycle = lr_at(cfg, 0)
        assert cycle == 0
        assert lr == pytest.approx(0.02, rel=1e-12)

    def test_cycle_one_start_is_decayed_peak(self):
        cfg = CosineRestartConfig(cycle0_steps=100)
        lr, cycle = lr_at(cfg, 100)
        assert cycle == 1
        assert lr == pytest.approx(0.016, rel=1e-12)

    def test_end_of_cycle_limit_reaches_floor(self):
        # last step of a very long cycle: frac -> 1, cos -> -1, lr -> lr_min
        cfg = CosineRestartConfig(cycle0_steps=10_000_000)
        lr, cycle = lr_at(cfg, 9_999_999)
        assert cycle == 0
        assert abs(lr - 5e-6) < 1e-12

    def test_half_cycle_is_midpoint(self):
        cfg = CosineRestartConfig(cycle0_steps=100)
        lr, _ = lr_at(cfg, 50)
        assert lr == pytest.approx(5e-6 + 0.5 * (0.02 - 5e-6), rel=1e-12)

    def test_clamped_maximum_after_many_restarts(self):
        # 0.02 * 0.8^c drops below lr_min around c = 85; peaks stay at lr_min
        cfg = CosineRestartConfig(cycle0_steps=1)
        step = cycle_start(cfg, 90)
        lr, cycle = lr_at(cfg, step)
        assert cycle == 90
        assert lr == pytest.approx(5e-6, rel=1e-12)


class TestCycleGeometry:
    def test_doubling_boundaries_exact(self):
        cfg = CosineRestartConfig(cycle0_steps=100)
        for c in range(11):
            start = cycle_start(cfg, c)
            assert start == 100 * (2**c - 1)
            _, at_start = lr_at(cfg, start)
            assert at_start == c
            if start > 0:
                _, before = lr_at(cfg, start - 1)
                assert before == c - 1

    def test_doubling_cycle_two_span(self):
        cfg = CosineRestartConfig(cycle0_steps=100)
        assert lr_at(cfg, 300)[1] == 2
        assert lr_at(cfg, 699)[1] == 2
        assert lr_at(cfg, 700)[1] == 3

    def test_fixed_period_cycles(self):
        cfg = CosineRestartConfig(cycle0_steps=11000, lr_max0=1e-4, decay=1.0, doubling=False)
        assert lr_at(cfg, 0) == (pytest.approx(1e-4, rel=1e-12), 0)
        assert lr_at(cfg, 10_999)[1] == 0
        assert lr_at(cfg, 11_000)[1] == 1
        assert lr_at(cfg, 33_000)[1] == 3

    def test_fixed_period_has_no_decay(self):
        cfg = CosineRestartConfig(cycle0_steps=11000, lr_max0=1e-4, decay=1.0, doubling=False)
        for c in range(5):
            lr, _ = lr_at(cfg, 11_000 * c)
            assert lr == pytest.approx(1e-4, rel=1e-12)


class TestScheduleProperties:
    def test_strictly_decreasing_within_cycle(self):
        cfg = CosineRestartConfig(cycle0_steps=257)
        values = [lr_at(cfg, s)[0] for s in range(257)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounded_by_min_and_first_max(self):
        cfg = CosineRestartConfig(cycle0_steps=37)
        for s in range(0, 5000, 7):
            lr, _ = lr_at(cfg, s)
            assert 5e-6 <= lr <= 0.02 + 1e-15

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            lr_at(CosineRestartConfig(cycle0_steps=10), -1)

    def test_dump_matches_pointwise(self):
        cfg = CosineRestartConfig(cycle0_steps=10)
        rows = list(dump_schedule(cfg, 25))
        assert len(rows) == 25
        for step, lr, cycle in rows:
            assert (lr, cycle) == lr_at(cfg, step)


    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_dump_rejects_step_count_at_the_call(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            dump_schedule(CosineRestartConfig(cycle0_steps=10), n_steps)


class TestConfigValidation:
    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError, match="lr_max0 > lr_min"):
            CosineRestartConfig(cycle0_steps=10, lr_max0=1e-6, lr_min=1e-4)

    def test_bad_decay_rejected(self):
        with pytest.raises(ValueError, match="decay"):
            CosineRestartConfig(cycle0_steps=10, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            CosineRestartConfig(cycle0_steps=10, decay=1.5)

    def test_zero_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle0_steps"):
            CosineRestartConfig(cycle0_steps=0)
