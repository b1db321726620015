"""Screen emitter: the sender's display.

Substitutes the Galaxy S4 display: a sequence of rendered barcode
images shown back to back at the display rate f_d, with the brightness
setting s_b scaling emitted intensity.  :class:`FrameSchedule` answers
"what was on the screen at time t", which is all the rolling-shutter
camera model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..faults.plan import FaultPlan
from ..imaging.noise import scale_brightness

__all__ = ["FrameSchedule"]


@dataclass
class FrameSchedule:
    """A timed sequence of displayed images.

    Parameters
    ----------
    images:
        Rendered frame images, displayed in order, each for ``1 / f_d``
        seconds starting at t = 0.
    display_rate:
        Frames per second on the screen (the paper's f_d).
    brightness:
        Screen brightness setting in ``(0, 1]`` (the paper's s_b, where
        1.0 is 100 %).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; its
        ``emission``-stage impairments (e.g. display flicker) run on
        each emitted frame.  This is the sender-side fault hook point.
    """

    images: list[np.ndarray]
    display_rate: float
    brightness: float = 1.0
    faults: FaultPlan | None = None
    #: Brightness-scaled emitted images, keyed by (index, brightness).
    #: Every capture of a schedule re-reads the same one or two frames,
    #: so the scale + clip pass runs once per frame instead of once per
    #: capture.  Keying by brightness keeps the cache valid even if the
    #: setting is mutated between captures; treat the image arrays
    #: themselves as immutable once scheduled.
    _emitted_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.images:
            raise ValueError("schedule needs at least one image")
        if self.display_rate <= 0:
            raise ValueError("display_rate must be positive")
        if not 0 < self.brightness <= 1:
            raise ValueError("brightness must be in (0, 1]")
        shapes = {img.shape for img in self.images}
        if len(shapes) != 1:
            raise ValueError("all scheduled images must share one shape")

    @property
    def frame_period(self) -> float:
        """Seconds each frame stays on screen."""
        return 1.0 / self.display_rate

    @property
    def duration(self) -> float:
        """Total display time of the schedule."""
        return len(self.images) * self.frame_period

    @property
    def image_shape(self) -> tuple[int, ...]:
        return self.images[0].shape

    def frame_index_at(self, t: float) -> int:
        """Index of the frame on screen at time *t* (clamped to the ends)."""
        idx = int(np.floor(t * self.display_rate))
        return min(max(idx, 0), len(self.images) - 1)

    def emitted_image(self, index: int) -> np.ndarray:
        """Frame *index* as physically emitted (brightness applied).

        The returned array is cached and shared between callers — do not
        mutate it.
        """
        index = min(max(index, 0), len(self.images) - 1)
        key = (index, self.brightness)
        emitted = self._emitted_cache.get(key)
        if emitted is None:
            emitted = scale_brightness(self.images[index], self.brightness)
            if self.faults is not None:
                # Emission faults are deterministic per frame index, so
                # the degraded frame is as cacheable as the clean one.
                emitted = self.faults.apply_image("emission", emitted, index)
            self._emitted_cache[key] = emitted
        return emitted

    def switch_times(self) -> np.ndarray:
        """Times at which the displayed frame changes."""
        return np.arange(1, len(self.images)) * self.frame_period
