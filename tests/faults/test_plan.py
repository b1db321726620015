"""Unit tests for the fault-injection subsystem itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    FAULT_REGISTRY,
    IMAGE_STAGES,
    STAGES,
    CaptureDrop,
    CaptureDuplicate,
    ExposureDrift,
    FaultPlan,
    PartialOcclusion,
    ScanlineCorruption,
    ShutterJitter,
    SpecularGlare,
    fault_matrix,
    scenario_names,
    scenario_plan,
)


def _image(seed: int = 0, shape=(40, 64, 3)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


class TestFaultPlanDeterminism:
    def test_apply_image_is_pure_per_index(self):
        plan = scenario_plan("combined", seed=11)
        image = _image()
        for stage in IMAGE_STAGES:
            first = plan.apply_image(stage, image, 3)
            again = plan.apply_image(stage, image, 3)
            np.testing.assert_array_equal(first, again)

    def test_call_order_does_not_matter(self):
        """Applying index 5 before index 2 changes nothing — no hidden state."""
        plan = scenario_plan("scanline", seed=7)
        image = _image()
        forward = [plan.apply_image("sensor", image, i) for i in (2, 5)]
        backward = [plan.apply_image("sensor", image, i) for i in (5, 2)]
        np.testing.assert_array_equal(forward[0], backward[1])
        np.testing.assert_array_equal(forward[1], backward[0])

    def test_seed_changes_output(self):
        image = _image()
        a = scenario_plan("scanline", seed=1).apply_image("sensor", image, 0)
        b = scenario_plan("scanline", seed=2).apply_image("sensor", image, 0)
        assert not np.array_equal(a, b)

    def test_session_static_faults_ignore_capture_index(self):
        """A static occlusion sits at the same place in every capture."""
        plan = FaultPlan((PartialOcclusion(static=True),), seed=5)
        image = _image()
        np.testing.assert_array_equal(
            plan.apply_image("pre_optics", image, 0),
            plan.apply_image("pre_optics", image, 9),
        )

    def test_exposure_drift_varies_smoothly_with_index(self):
        """Drift uses the index as phase — adjacent captures differ slightly."""
        plan = FaultPlan((ExposureDrift(amplitude=0.3, period_captures=8.0),), seed=5)
        image = np.full((8, 8, 3), 0.5)
        gains = [float(plan.apply_image("sensor", image, i).mean()) for i in range(8)]
        assert len(set(gains)) > 4  # actually drifting
        steps = np.abs(np.diff(gains))
        assert steps.max() < 0.2  # smoothly, not re-randomized per capture

    def test_shutter_jitter_bounded_and_deterministic(self):
        fault = ShutterJitter(sigma_s=0.004, max_s=0.012)
        plan = FaultPlan((fault,), seed=3)
        times = [plan.jitter_start_time(1.0, i) for i in range(50)]
        assert times == [plan.jitter_start_time(1.0, i) for i in range(50)]
        assert all(abs(t - 1.0) <= fault.max_s + 1e-12 for t in times)
        assert len(set(times)) > 1


class TestStreamFaults:
    def test_drop_removes_and_duplicate_repeats_nominal_indices(self):
        plan = FaultPlan((CaptureDrop(probability=0.4),), seed=2)
        indices = plan.stream_indices(12)
        assert indices == sorted(set(indices))  # order kept, no repeats
        assert set(indices) <= set(range(12))
        assert len(indices) < 12  # at this seed some drop occurs

        plan = FaultPlan((CaptureDuplicate(probability=0.5),), seed=2)
        indices = plan.stream_indices(6)
        assert sorted(set(indices)) == list(range(6))  # nothing lost
        assert len(indices) > 6  # at this seed some duplicate occurs

    def test_stream_indices_deterministic(self):
        plan = scenario_plan("capture_drops", seed=9)
        assert plan.stream_indices(20) == plan.stream_indices(20)

    def test_empty_plan_is_identity(self):
        plan = FaultPlan()
        assert not plan.active
        assert plan.stream_indices(5) == [0, 1, 2, 3, 4]
        image = _image()
        for stage in IMAGE_STAGES:
            assert plan.apply_image(stage, image, 0) is image
        assert plan.jitter_start_time(0.123, 0) == 0.123


class TestConstructionAndScenarios:
    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            {"glare": {"patches": 3}, "capture_drop": {"probability": 0.2}},
            seed=4,
            name="custom",
        )
        assert plan.describe() == "glare+capture_drop"
        assert isinstance(plan.faults[0], SpecularGlare)
        assert plan.faults[0].patches == 3

    def test_from_spec_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.from_spec({"nope": None})

    def test_plan_rejects_non_impairments(self):
        with pytest.raises(TypeError):
            FaultPlan(faults=("finger",))  # type: ignore[arg-type]

    def test_registry_covers_every_scenario_fault(self):
        for name in scenario_names():
            plan = scenario_plan(name, seed=0)
            for fault in plan.faults:
                assert fault.name in FAULT_REGISTRY
                assert fault.stage in STAGES

    def test_fault_matrix_reseeds_every_plan(self):
        matrix = fault_matrix(seed=42)
        assert [p.name for p in matrix] == scenario_names()
        assert all(p.seed == 42 for p in matrix)
        assert matrix[0].describe() == "clean"

    def test_scanline_modes(self):
        image = _image(shape=(32, 32, 3))
        for mode in ("noise", "dropout", "shift"):
            fault = ScanlineCorruption(row_probability=1.0, mode=mode)
            out = FaultPlan((fault,), seed=1).apply_image("sensor", image, 0)
            assert out.shape == image.shape
            assert np.isfinite(out).all()
            assert not np.array_equal(out, image)


class TestDeriveSeed:
    """`derive_seed` is the single sanctioned SeedSequence constructor."""

    def test_same_inputs_same_streams(self):
        from repro.faults import derive_seed

        a = np.random.default_rng(derive_seed(7, 1, 2, 3)).random(16)
        b = np.random.default_rng(derive_seed(7, 1, 2, 3)).random(16)
        np.testing.assert_array_equal(a, b)

    def test_component_changes_decorrelate(self):
        from repro.faults import derive_seed

        base = np.random.default_rng(derive_seed(7, 1, 2, 3)).random(16)
        for other in (derive_seed(8, 1, 2, 3), derive_seed(7, 0, 2, 3),
                      derive_seed(7, 1, 2, 4), derive_seed(7, 1, 2)):
            assert not np.array_equal(
                base, np.random.default_rng(other).random(16)
            )

    def test_components_masked_to_32_bits(self):
        from repro.faults import derive_seed

        wide = derive_seed(7 + (1 << 40), 2 + (1 << 40))
        narrow = derive_seed(7, 2)
        np.testing.assert_array_equal(
            np.random.default_rng(wide).random(8),
            np.random.default_rng(narrow).random(8),
        )

    def test_plan_rng_matches_pre_refactor_derivation(self):
        """FaultPlan._rng must keep the exact pre-derive_seed streams."""
        plan = FaultPlan((ShutterJitter(),), seed=123)
        expected = np.random.default_rng(
            # Raw construction pins the stream as it was before derive_seed.
            np.random.SeedSequence(  # repro: noqa RB001
                entropy=123, spawn_key=(STAGES.index("shutter"), 5, 0)
            )
        ).random(8)
        got = plan._rng("shutter", 5, 0).random(8)
        np.testing.assert_array_equal(expected, got)
