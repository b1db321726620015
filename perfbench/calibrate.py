"""Host-speed calibration: a fixed kernel timed between sessions.

The benchmark host is a few vCPUs of a shared machine, and its speed
switches between states that last minutes: on a 2-vCPU Xeon VM, one
replay session took 240-260 ms in one minute and 350-390 ms in the
next, with user CPU time moving in step (no steal, no page faults).
No median over a 25-second run cancels that.

So the benchmark times a fixed kernel that runs no code of ``repro``
between sessions, and scales the host times of each session by the
kernel's reference time over the median time of the kernel runs near
that session: host times read as if on a host that runs the kernel in
its reference time (about its time on the VM above when fast).  A change to ``repro`` moves the session and not the kernel, so
it moves the scaled time by its full share.

Kinds of work do not slow alike when the host slows, so a workload
names the kernel like its own work.  On one process's sessions cut into
20- to 25-second windows, the spread (quartile distance over median)
of the windows' median session time was, unscaled and scaled:

* ``interpreter``, a pure-Python loop, for receive replay (decoder
  stages, RS decoding, reassembly): 0.29 to 0.02, where the
  ``arrays`` kernel left 0.13;
* ``arrays``, streaming passes over an image-sized float32 array, for
  transfer (channel and imaging on full-resolution images): 0.21 to
  0.05, where the pure-Python loop left 0.16;
* ``mixed``, both plus many numpy calls on a small vector, for fault
  recovery (campaign-grid images, NACK rounds): 0.22 to 0.03, where
  either alone left 0.06.

Kernel inputs are fixed and the kernels never change between the two
commits a comparison runs.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

__all__ = ["KERNELS", "Calibration"]


def _python_loop(iterations: int) -> None:
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        total += (i * 7) % 13
        table[i & 255] = total


def _image_passes(image: np.ndarray, passes: int) -> None:
    for __ in range(passes):
        bright = np.clip(image * 1.1 + 0.05, 0.0, 1.0)
        float(((bright[1:] + bright[:-1]) * 0.5).sum())


def _small_calls(vector: np.ndarray, calls: int) -> None:
    for __ in range(calls):
        vector = np.where(vector > 0.5, vector * 0.9, vector + 0.1)


#: name -> (kernel on the fixed image and vector, reference milliseconds).
KERNELS: dict[str, tuple[Callable[[np.ndarray, np.ndarray], None], float]] = {
    "interpreter": (lambda image, vector: _python_loop(200_000), 25.0),
    "arrays": (lambda image, vector: _image_passes(image, 2), 25.0),
    "mixed": (lambda image, vector: (
        _python_loop(60_000), _small_calls(vector, 1500), _image_passes(image, 1)), 65.0),
}


class Calibration:
    """One kernel of :data:`KERNELS` and its timings."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._kernel, self.reference_ms = KERNELS[kind]
        rng = np.random.default_rng(0xCA11B)
        self._image = rng.random((720, 1280, 3), dtype=np.float32)
        self._vector = rng.random(4000)
        #: Seconds of every kernel run after the warm-up, and the
        #: ``time.perf_counter()`` at the middle of each.
        self.samples: list[float] = []
        self.at: list[float] = []
        for __ in range(2):
            self._kernel(self._image, self._vector)

    def sample(self) -> float:
        """Time one kernel run; returns its seconds."""
        start = time.perf_counter()
        self._kernel(self._image, self._vector)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.at.append(start + seconds / 2)
        return seconds

    def run_for(self, seconds: float) -> None:
        """Time kernel runs until they took *seconds*, at least one."""
        total = self.sample()
        while total < seconds:
            total += self.sample()

    def factor(self, seconds: float) -> float:
        """Scale from this host to the reference, given the kernel's *seconds* here."""
        return self.reference_ms / 1000.0 / seconds

    def factor_at(self, moment: float, window_s: float) -> float:
        """:meth:`factor` of the median kernel run within *window_s* of *moment*.

        Falls back to the two runs nearest *moment* when none is that near.
        """
        near = [s for at, s in zip(self.at, self.samples) if abs(at - moment) <= window_s]
        if not near:
            order = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - moment))
            near = [self.samples[i] for i in order[:2]]
        return self.factor(statistics.median(near))
