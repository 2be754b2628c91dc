"""Feature-map shape planning for the stride variants."""

import pytest

from svkit.model.shapes import STRIDE_VARIANTS, plan_shapes


class TestPlanShapes:
    def test_variant_st1112(self):
        shapes = plan_shapes("ResNet34-st1112", mel_bins=80, frames=600)
        assert shapes == [(80, 600), (40, 600), (20, 600), (10, 300)]

    def test_variant_st1121(self):
        shapes = plan_shapes("ResNet34-st1121", mel_bins=80, frames=600)
        assert shapes == [(80, 600), (40, 600), (20, 300), (10, 300)]

    def test_variant_resnet101(self):
        shapes = plan_shapes("ResNet101", mel_bins=80, frames=600)
        assert shapes == [(80, 600), (40, 300), (20, 150), (10, 75)]

    def test_total_time_downsampling(self):
        # product of time strides: 2x for both ResNet34 variants, 8x for ResNet101
        for name, factor in [("ResNet34-st1112", 2), ("ResNet34-st1121", 2), ("ResNet101", 8)]:
            strides = STRIDE_VARIANTS[name].stage_strides
            prod = 1
            for _, st in strides:
                prod *= st
            assert prod == factor

    def test_frequency_always_halved_per_stage(self):
        for variant in STRIDE_VARIANTS.values():
            freq_strides = [sf for sf, _ in variant.stage_strides[1:]]
            assert freq_strides == [2, 2, 2]

    def test_ceiling_division_on_odd_sizes(self):
        shapes = plan_shapes("ResNet101", mel_bins=80, frames=601)
        assert shapes == [(80, 601), (40, 301), (20, 151), (10, 76)]

    def test_unknown_variant_lists_known_names(self):
        with pytest.raises(ValueError) as exc:
            plan_shapes("ResNet18", mel_bins=80, frames=600)
        msg = str(exc.value)
        for name in STRIDE_VARIANTS:
            assert name in msg

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            plan_shapes("ResNet101", mel_bins=80, frames=15)

    def test_minimum_frames_accepted(self):
        shapes = plan_shapes("ResNet101", mel_bins=80, frames=16)
        assert shapes[0] == (80, 16)
        assert shapes[-1] == (10, 2)
