"""Rolling-shutter camera model.

Phone cameras with CMOS sensors expose and read scanlines sequentially,
so a capture whose readout spans a display-frame switch shows the old
frame in its top rows and the new frame below (paper Fig. 6).  This
model reproduces that in screen space: the composite image handed to the
projection step takes each screen row from the frame that was on screen
when the corresponding sensor line sampled it, with exposure-weighted
blending for rows whose exposure straddles the switch (these become the
hard-to-classify "mixed" rows the paper's d_t >= 2 rule drops).

The sensor-line -> screen-row correspondence is taken proportional,
valid for the near-frontal captures of the evaluation (documented
substitution; DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .screen import FrameSchedule

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["CameraTiming", "compose_rolling_shutter"]


@dataclass(frozen=True)
class CameraTiming:
    """Temporal behaviour of the capture pipeline.

    Parameters
    ----------
    capture_rate:
        Captures per second (the paper's f_c, typically 30).
    readout_fraction:
        Fraction of the capture period spent scanning the sensor top to
        bottom; ~0.7-0.95 for phone sensors.
    exposure_s:
        Per-line exposure time in seconds.  Short exposures make the
        rolling-shutter split sharp; long ones widen the mixed band.
    """

    capture_rate: float = 30.0
    readout_fraction: float = 0.9
    exposure_s: float = 0.004

    def __post_init__(self) -> None:
        if self.capture_rate <= 0:
            raise ValueError("capture_rate must be positive")
        if not 0 < self.readout_fraction <= 1:
            raise ValueError("readout_fraction must be in (0, 1]")
        if self.exposure_s < 0:
            raise ValueError("exposure_s cannot be negative")

    @property
    def capture_period(self) -> float:
        return 1.0 / self.capture_rate

    @property
    def readout_time(self) -> float:
        """Seconds from the first to the last scanline of one capture."""
        return self.readout_fraction * self.capture_period

    def line_times(self, num_lines: int, start_time: float) -> np.ndarray:
        """Sampling time of each of *num_lines* scanlines."""
        if num_lines < 1:
            raise ValueError("need at least one line")
        if num_lines == 1:
            return np.array([start_time])
        return start_time + np.linspace(0.0, self.readout_time, num_lines)


def compose_rolling_shutter(
    schedule: FrameSchedule,
    timing: CameraTiming,
    start_time: float,
    faults: "FaultPlan | None" = None,
    capture_index: int = 0,
) -> np.ndarray:
    """Screen-space composite seen by a capture starting at *start_time*.

    Each screen row r is sampled at the scanline time of the
    corresponding sensor line; when that line's exposure interval
    crosses a display switch, the two frames blend in proportion to the
    exposure spent on each.  More than two frames per exposure (display
    faster than the line exposure allows) blends pairwise between the
    first and last frame — adequate because exposure is much shorter
    than the frame period in every experiment.

    *faults* is the camera-stage fault hook: its ``shutter``
    impairments perturb the readout start time (rolling-shutter
    jitter), deterministically per *capture_index*.
    """
    if faults is not None:
        start_time = faults.jitter_start_time(start_time, capture_index)
    height = schedule.image_shape[0]
    times = timing.line_times(height, start_time)

    idx_start = np.clip(
        np.floor(times * schedule.display_rate).astype(np.int64),
        0,
        len(schedule.images) - 1,
    )
    end_times = times + timing.exposure_s
    idx_end = np.clip(
        np.floor(end_times * schedule.display_rate).astype(np.int64),
        0,
        len(schedule.images) - 1,
    )

    # Blend weight of the *end* frame: fraction of exposure after the switch.
    alpha = np.zeros(height)
    crosses = idx_end > idx_start
    if timing.exposure_s > 0 and np.any(crosses):
        switch_time = idx_end[crosses] / schedule.display_rate
        alpha[crosses] = np.clip(
            (end_times[crosses] - switch_time) / timing.exposure_s, 0.0, 1.0
        )

    rows = np.arange(height)
    needed = np.unique(np.concatenate([idx_start, idx_end]))
    # Stack only the frames this capture actually sees (one or two in
    # every real configuration) and gather each screen row from its
    # frame in one advanced-indexing pass — no per-row Python loop.
    stack = np.stack([schedule.emitted_image(int(i)) for i in needed])
    pos_start = np.searchsorted(needed, idx_start)
    pos_end = np.searchsorted(needed, idx_end)

    composite = stack[pos_start, rows]
    if np.any(crosses):
        mixed = rows[crosses]
        a = alpha[crosses].reshape((-1,) + (1,) * (composite.ndim - 1))
        composite[mixed] = (1.0 - a) * stack[pos_start[mixed], mixed] + a * stack[
            pos_end[mixed], mixed
        ]
    return composite
