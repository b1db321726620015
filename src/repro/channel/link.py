"""The end-to-end screen-camera link.

:class:`ScreenCameraLink` wires every channel substrate together:

    frames -> FrameSchedule (screen, brightness)
           -> rolling-shutter composite (camera timing)
           -> pinhole projection at (distance, view angle [+ jitter])
           -> lens blur / distortion + motion blur (optics, mobility)
           -> ambient light, vignette, shot & read noise (environment)
           -> color pipeline, then 8-bit samples (uint8 captures)

It replaces the physical testbed of the paper: two Galaxy S4 phones on
a desk mount at distance d and view angle v_a, under an illumination
profile.  Every experiment in :mod:`benchmarks` drives this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..imaging.filters import motion_blur
from ..imaging.geometry import PinholeSetup, warp_perspective
from ..imaging.sensor import CameraPipeline
from .camera import CameraTiming, compose_rolling_shutter
from .environment import EnvironmentProfile, indoor
from .mobility import MobilityModel, tripod
from .optics import LensModel
from .screen import FrameSchedule

if TYPE_CHECKING:
    from pathlib import Path

    from ..faults.plan import FaultPlan
    from ..io.trace import TraceMetadata, TraceReader

__all__ = ["LinkConfig", "Capture", "ScreenCameraLink"]


@dataclass(frozen=True)
class LinkConfig:
    """Physical configuration of one transmission session."""

    distance_cm: float = 12.0
    view_angle_deg: float = 0.0
    tilt_angle_deg: float = 0.0
    sensor_size: tuple[int, int] = (480, 800)  # (height, width)
    screen_width_cm: float = 11.0
    background_level: float = 0.10  # dim room behind the sender's screen
    timing: CameraTiming = field(default_factory=CameraTiming)
    lens: LensModel = field(default_factory=LensModel)
    environment: EnvironmentProfile = field(default_factory=indoor)
    mobility: MobilityModel = field(default_factory=tripod)
    pipeline: CameraPipeline = field(default_factory=CameraPipeline)

    def with_(self, **kwargs: object) -> "LinkConfig":
        """Copy with selected fields replaced (sweep helper)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Capture:
    """One captured image and its capture start time.

    ``image`` holds a recorded video frame's 8-bit samples (uint8,
    (H, W, 3)) when it comes from :class:`ScreenCameraLink`.
    """

    time: float
    image: np.ndarray


class ScreenCameraLink:
    """Simulates a receiver filming a sender's barcode stream.

    *faults* attaches a :class:`~repro.faults.plan.FaultPlan` to the
    receive chain: shutter jitter inside the rolling-shutter composer,
    pre/post-optics impairments inside the lens model, sensor-stage
    impairments inside the color pipeline, before its 8-bit samples,
    and stream-stage drops and duplicates in :meth:`capture_stream`.
    (Emission-stage faults live on the
    :class:`~repro.channel.screen.FrameSchedule`.)
    """

    def __init__(
        self,
        config: LinkConfig,
        rng: np.random.Generator | None = None,
        faults: "FaultPlan | None" = None,
    ):
        self.config = config
        self.rng = rng or np.random.default_rng(0xCA11)
        self.faults = faults
        # White balance drifts per session, not per capture.
        self._wb_gains = config.pipeline.sample_gains(self.rng)

    def _setup_for(self, screen_shape: tuple[int, int], jitter: tuple[float, float],
                   angle_offset: float) -> PinholeSetup:
        cfg = self.config
        return PinholeSetup(
            screen_size_px=screen_shape,
            sensor_size_px=cfg.sensor_size,
            screen_width_cm=cfg.screen_width_cm,
            distance_cm=cfg.distance_cm,
            view_angle_deg=cfg.view_angle_deg + angle_offset,
            tilt_angle_deg=cfg.tilt_angle_deg,
            offset_px=jitter,
        )

    def capture_at(
        self, schedule: FrameSchedule, start_time: float, capture_index: int = 0
    ) -> Capture:
        """Produce the single capture whose readout starts at *start_time*."""
        cfg = self.config
        composite = compose_rolling_shutter(
            schedule, cfg.timing, start_time, faults=self.faults, capture_index=capture_index
        )

        jitter = cfg.mobility.sample_offset(self.rng)
        angle_offset = cfg.mobility.sample_angle_offset(self.rng)
        setup = self._setup_for(composite.shape[:2], jitter, angle_offset)
        homography = setup.homography()
        shear = cfg.mobility.sample_shear(self.rng)
        if shear != 0.0:
            # Rolling-shutter jello: rows shift horizontally in
            # proportion to their readout time (sensor y coordinate).
            height = cfg.sensor_size[0]
            shear_h = np.array(
                [[1.0, shear / height, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            )
            homography = shear_h @ homography
        sensor = warp_perspective(
            composite, homography, cfg.sensor_size, fill=cfg.background_level
        )

        sensor = cfg.lens.apply(
            sensor, cfg.distance_cm, faults=self.faults, capture_index=capture_index
        )
        blur_len, blur_angle = cfg.mobility.sample_blur(self.rng)
        if blur_len > 0:
            sensor = motion_blur(sensor, blur_len, blur_angle)
        sensor = cfg.environment.degrade(sensor, self.rng)
        samples = cfg.pipeline.apply(
            sensor, self._wb_gains, faults=self.faults, capture_index=capture_index
        )
        telemetry.registry().counter("channel.captures").inc()
        return Capture(time=start_time, image=samples)

    def capture_stream(
        self,
        schedule: FrameSchedule,
        start_offset: float | None = None,
    ) -> list[Capture]:
        """Capture the whole schedule at the camera's capture rate.

        *start_offset* shifts the first capture inside one capture
        period; by default it is drawn uniformly, modeling the
        unsynchronized start the paper's tracking bars exist to handle.
        """
        cfg = self.config
        period = cfg.timing.capture_period
        if start_offset is None:
            start_offset = float(self.rng.uniform(0.0, period))
        times = np.arange(start_offset, schedule.duration, period)
        if self.faults is None:
            return [
                self.capture_at(schedule, float(t), capture_index=i)
                for i, t in enumerate(times)
            ]
        # Stream-stage faults decide drops/duplicates up front, so a
        # dropped capture is never rendered and a duplicated one is
        # rendered once and delivered twice (identical pixels, as a
        # stalled video pipeline would produce).
        out: list[Capture] = []
        rendered: dict[int, Capture] = {}
        for index in self.faults.stream_indices(len(times)):
            capture = rendered.get(index)
            if capture is None:
                capture = self.capture_at(schedule, float(times[index]), capture_index=index)
                rendered[index] = capture
            out.append(capture)
        return out

    def geometry(self, screen_shape: tuple[int, int]) -> PinholeSetup:
        """The nominal (jitter-free) projection for *screen_shape*."""
        return self._setup_for(screen_shape, (0.0, 0.0), 0.0)

    # -- capture traces ----------------------------------------------------

    def trace_metadata(self, extra: "dict[str, object] | None" = None) -> "TraceMetadata":
        """Capture metadata describing this link, for trace headers.

        Records the sensor geometry, the camera timing (f_c plus the
        rolling-shutter parameters a replay decoder may want), a
        fingerprint of the attached fault plan, and the producing git
        revision — enough to interpret a recorded session without this
        simulator instance.
        """
        from ..io.trace import TraceMetadata
        from ..telemetry.events import run_metadata

        cfg = self.config
        fingerprint = ""
        if self.faults is not None and self.faults.active:
            label = self.faults.name or self.faults.describe()
            fingerprint = f"{label}@seed={self.faults.seed}"
        return TraceMetadata(
            resolution=cfg.sensor_size,
            fps=cfg.timing.capture_rate,
            exposure_s=cfg.timing.exposure_s,
            readout_fraction=cfg.timing.readout_fraction,
            fault_plan=fingerprint,
            git_rev=str(run_metadata().get("git_rev", "")),
            extra=dict(extra or {}),
        )

    def export_trace(
        self,
        schedule: FrameSchedule,
        path: "str | Path",
        *,
        start_offset: float | None = None,
        chunk_frames: int = 64,
        extra_metadata: "dict[str, object] | None" = None,
    ) -> "TraceReader":
        """Capture the whole schedule and record it as a capture trace.

        Renders exactly what :meth:`capture_stream` would deliver — same
        RNG consumption, same fault-plan drops/duplicates — and streams
        every capture frame plus its capture start time into the
        versioned trace container at *path* (see :mod:`repro.io.trace`).
        Returns a :class:`~repro.io.trace.TraceReader` over the written
        trace; replaying it through
        :meth:`repro.core.decoder.FrameDecoder.decode_trace` is
        bit-identical to decoding the in-memory captures.
        """
        from ..io.trace import TraceWriter

        captures = self.capture_stream(schedule, start_offset=start_offset)
        writer = TraceWriter(
            path, metadata=self.trace_metadata(extra_metadata),
            chunk_frames=chunk_frames,
        )
        writer.extend(captures)
        reader = writer.close()
        telemetry.registry().counter("channel.traces_exported").inc()
        return reader
