"""The individual impairments a :class:`~repro.faults.plan.FaultPlan` composes.

Each impairment models one named real-world failure of a screen-camera
link — the blur/glare/occlusion family that related deployments report
as dominant — and declares the pipeline **stage** it attaches to:

========== ==========================================================
stage      hook point
========== ==========================================================
emission   :meth:`repro.channel.screen.FrameSchedule.emitted_image`
shutter    :func:`repro.channel.camera.compose_rolling_shutter`
pre_optics :meth:`repro.channel.optics.LensModel.apply` (before blur)
post_optics :meth:`repro.channel.optics.LensModel.apply` (after blur)
sensor     :meth:`repro.imaging.sensor.CameraPipeline.apply` (before 8-bit)
stream     :meth:`repro.channel.link.ScreenCameraLink.capture_stream`
========== ==========================================================

Every image-stage impairment implements ``apply(image, rng, index)`` and
must treat *image* as read-only (copy before writing).  All randomness
flows through the *rng* handed in by the plan, which derives it from
``(plan seed, stage, capture index, fault position)`` — so two runs of
the same plan are bit-identical regardless of call order, process
boundaries, or how many other faults are active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Impairment",
    "PartialOcclusion",
    "SpecularGlare",
    "ExposureDrift",
    "DisplayFlicker",
    "ShutterJitter",
    "ScanlineCorruption",
    "CaptureDrop",
    "CaptureDuplicate",
]


@dataclass(frozen=True)
class Impairment:
    """Base class: a named, deterministic degradation at one stage."""

    #: Pipeline stage this impairment attaches to (see module docstring).
    stage = "sensor"
    #: Registry name (set per subclass).
    name = "impairment"

    @property
    def rng_per_capture(self) -> bool:
        """Whether the plan keys this fault's RNG by capture index.

        Session-static faults (a finger that does not move, an exposure
        sinusoid with one phase) get an RNG keyed by the plan seed and
        fault position only, so every capture sees the same draw; the
        capture index still arrives via ``apply``'s *index* argument.
        """
        return True

    def apply(self, image: np.ndarray, rng: np.random.Generator, index: int) -> np.ndarray:
        """Return the degraded image (input must not be mutated)."""
        return image


def _ellipse_mask(
    shape: tuple[int, int],
    center: tuple[float, float],
    radii: tuple[float, float],
    angle: float,
) -> np.ndarray:
    """Boolean mask of a filled, rotated ellipse."""
    height, width = shape
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    dx, dy = xs - center[0], ys - center[1]
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    u = (cos_a * dx + sin_a * dy) / max(radii[0], 1e-9)
    v = (-sin_a * dx + cos_a * dy) / max(radii[1], 1e-9)
    return u * u + v * v <= 1.0


@dataclass(frozen=True)
class PartialOcclusion(Impairment):
    """A finger or an object edge between camera and screen.

    ``kind="finger"`` paints a filled ellipse of skin-toned pixels whose
    center is drawn per capture (or once per session with
    ``static=True``); ``kind="edge"`` covers a band along one side of
    the sensor, the classic "phone case / thumb over the lens corner".
    *coverage* is the occluded fraction of the smaller image dimension.
    """

    kind: str = "finger"
    coverage: float = 0.25
    static: bool = True
    color: tuple[float, float, float] = (0.55, 0.35, 0.25)

    stage = "pre_optics"
    name = "occlusion"

    @property
    def rng_per_capture(self) -> bool:
        return not self.static

    def __post_init__(self) -> None:
        if self.kind not in ("finger", "edge"):
            raise ValueError(f"unknown occlusion kind {self.kind!r}")
        if not 0.0 < self.coverage < 1.0:
            raise ValueError("coverage must be in (0, 1)")

    def apply(self, image: np.ndarray, rng: np.random.Generator, index: int) -> np.ndarray:
        height, width = image.shape[:2]
        out = image.copy()
        value = np.asarray(self.color, dtype=np.float64)
        if image.ndim == 2:
            value = float(np.mean(value))
        if self.kind == "edge":
            side = int(rng.integers(0, 4))
            span = max(1, int(self.coverage * (height if side < 2 else width)))
            if side == 0:
                out[:span] = value
            elif side == 1:
                out[height - span :] = value
            elif side == 2:
                out[:, :span] = value
            else:
                out[:, width - span :] = value
            return out
        extent = self.coverage * min(height, width)
        center = (rng.uniform(0.15, 0.85) * width, rng.uniform(0.15, 0.85) * height)
        radii = (extent * rng.uniform(0.8, 1.3), extent * rng.uniform(0.5, 0.9))
        mask = _ellipse_mask((height, width), center, radii, rng.uniform(0.0, np.pi))
        out[mask] = value
        return out


@dataclass(frozen=True)
class SpecularGlare(Impairment):
    """Specular reflections on the screen: bright soft-edged patches.

    Each patch adds a Gaussian bump pushing pixels toward white, the
    saturation mechanism that defeats value/saturation thresholds.
    """

    patches: int = 2
    radius_frac: float = 0.12
    strength: float = 0.9
    static: bool = True

    stage = "post_optics"
    name = "glare"

    @property
    def rng_per_capture(self) -> bool:
        return not self.static

    def __post_init__(self) -> None:
        if self.patches < 1:
            raise ValueError("patches must be >= 1")

    def apply(self, image: np.ndarray, rng: np.random.Generator, index: int) -> np.ndarray:
        height, width = image.shape[:2]
        ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
        bump = np.zeros((height, width))
        for __ in range(self.patches):
            cx = rng.uniform(0.1, 0.9) * width
            cy = rng.uniform(0.1, 0.9) * height
            sigma = max(self.radius_frac * min(height, width) * rng.uniform(0.6, 1.4), 1.0)
            d2 = (xs - cx) ** 2 + (ys - cy) ** 2
            bump += self.strength * np.exp(-d2 / (2.0 * sigma * sigma))
        bump = np.clip(bump, 0.0, 1.0)
        if image.ndim == 3:
            bump = bump[..., np.newaxis]
        # Blend toward white: x + (1 - x) * bump.
        return np.clip(image + (1.0 - image) * bump, 0.0, 1.0)


@dataclass(frozen=True)
class ExposureDrift(Impairment):
    """Auto-exposure / auto-white-balance hunting across a session.

    The per-capture gain follows a sinusoid in the capture index (phase
    drawn from the plan seed), optionally with independent per-channel
    white-balance wobble.  ``amplitude`` > 0 with a large ``bias``
    models overexposure; a negative ``bias`` models underexposure.
    """

    amplitude: float = 0.25
    period_captures: float = 8.0
    bias: float = 0.0
    wb_amplitude: float = 0.0

    stage = "sensor"
    name = "exposure_drift"

    @property
    def rng_per_capture(self) -> bool:
        return False  # one phase per session; the index drives the drift

    def __post_init__(self) -> None:
        if self.period_captures <= 0:
            raise ValueError("period_captures must be positive")

    def apply(self, image: np.ndarray, rng: np.random.Generator, index: int) -> np.ndarray:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        gain = 1.0 + self.bias + self.amplitude * np.sin(
            2.0 * np.pi * index / self.period_captures + phase
        )
        gains = np.array([gain, gain, gain], dtype=np.float64)
        if self.wb_amplitude > 0:
            wb_phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
            gains *= 1.0 + self.wb_amplitude * np.sin(
                2.0 * np.pi * index / self.period_captures + wb_phases
            )
        if image.ndim == 2:
            return np.clip(image * float(gains.mean()), 0.0, 1.0)
        return np.clip(image * gains[np.newaxis, np.newaxis, :], 0.0, 1.0)


@dataclass(frozen=True)
class DisplayFlicker(Impairment):
    """Sender-side brightness flicker (PWM backlight, power-saver dips).

    Each displayed frame is dimmed by a sinusoid in the *frame* index,
    with a session-constant phase — the emission-stage counterpart of
    receiver exposure drift.
    """

    amplitude: float = 0.3
    period_frames: float = 3.0

    stage = "emission"
    name = "display_flicker"

    @property
    def rng_per_capture(self) -> bool:
        return False  # one phase per session; the frame index drives it

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_frames <= 0:
            raise ValueError("period_frames must be positive")

    def apply(self, image: np.ndarray, rng: np.random.Generator, index: int) -> np.ndarray:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        dip = 0.5 + 0.5 * np.sin(2.0 * np.pi * index / self.period_frames + phase)
        gain = float(np.clip(1.0 - self.amplitude * dip, 0.05, 1.0))
        return np.clip(image * gain, 0.0, 1.0)


@dataclass(frozen=True)
class ShutterJitter(Impairment):
    """Rolling-shutter timing jitter: capture start times wobble.

    Models an unsteady capture clock (thermal throttling, pipeline
    stalls): each capture's readout starts early or late by a clipped
    Gaussian offset, shifting where the display switch lands in the
    frame and widening the mixed band the d_t >= 2 rule must drop.
    """

    sigma_s: float = 0.004
    max_s: float = 0.012

    stage = "shutter"
    name = "shutter_jitter"

    def jitter(self, start_time: float, rng: np.random.Generator, index: int) -> float:
        offset = float(np.clip(rng.normal(0.0, self.sigma_s), -self.max_s, self.max_s))
        return max(0.0, start_time + offset)


@dataclass(frozen=True)
class ScanlineCorruption(Impairment):
    """Per-row sensor readout corruption.

    Each sensor row is independently corrupted with probability
    ``row_probability``: ``"noise"`` replaces it with uniform noise,
    ``"dropout"`` zeroes it, ``"shift"`` rolls it horizontally by up to
    ``max_shift_px`` — the banding a failing readout bus produces.
    """

    row_probability: float = 0.03
    mode: str = "noise"
    max_shift_px: int = 24

    stage = "sensor"
    name = "scanline"

    def __post_init__(self) -> None:
        if not 0.0 <= self.row_probability <= 1.0:
            raise ValueError("row_probability must be in [0, 1]")
        if self.mode not in ("noise", "dropout", "shift"):
            raise ValueError(f"unknown scanline mode {self.mode!r}")

    def apply(self, image: np.ndarray, rng: np.random.Generator, index: int) -> np.ndarray:
        height = image.shape[0]
        bad = rng.random(height) < self.row_probability
        if not np.any(bad):
            return image
        out = image.copy()
        rows = np.flatnonzero(bad)
        if self.mode == "dropout":
            out[rows] = 0.0
        elif self.mode == "noise":
            out[rows] = rng.random(out[rows].shape)
        else:
            shifts = rng.integers(-self.max_shift_px, self.max_shift_px + 1, size=rows.size)
            for row, shift in zip(rows, shifts):
                out[row] = np.roll(out[row], int(shift), axis=0)
        return out


@dataclass(frozen=True)
class CaptureDrop(Impairment):
    """Captures lost before decoding (pipeline stall, dropped video frame)."""

    probability: float = 0.2

    stage = "stream"
    name = "capture_drop"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError("probability must be in [0, 1)")

    def keep(self, rng: np.random.Generator, index: int) -> bool:
        return bool(rng.random() >= self.probability)


@dataclass(frozen=True)
class CaptureDuplicate(Impairment):
    """Captures delivered twice (encoder stall repeating a video frame)."""

    probability: float = 0.2

    stage = "stream"
    name = "capture_duplicate"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError("probability must be in [0, 1)")

    def copies(self, rng: np.random.Generator, index: int) -> int:
        return 2 if rng.random() < self.probability else 1
