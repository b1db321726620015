"""Timing probes around the public calls of each module of ``repro``.

The benchmark never edits the program.  For the length of a session it
swaps a timing wrapper onto a module or class attribute and puts the
original back afterwards.  Probes nest: each records the wall time of
its call and its *self* time, the wall time minus the time spent in
probes called from inside it.  The session itself is the root probe,
so its self time is the host time no layer probe covers
(``unattributed``) and the self times of one session sum exactly to
its wall time.

Two probe sets exist.  :data:`RECEIVE_PROBES` is what an untraced run
installs: just enough to time each capture through the receive path
(render + decode live, read + decode on replay).  :data:`LAYER_PROBES`
adds one probe per layer boundary for the traced run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "LAYER_GROUPS",
    "LAYER_PROBES",
    "RECEIVE_PROBES",
    "LayerClock",
    "installed",
    "layer_group",
]

#: (module, class or None, attribute, probe name).  A class of None
#: patches a module-level function at the name its callers look up.
Probe = tuple[str, "str | None", str, str]

RECEIVE_PROBES: tuple[Probe, ...] = (
    ("repro.channel.link", "ScreenCameraLink", "capture_at", "channel.capture"),
    ("repro.core.decoder", "FrameDecoder", "extract_diagnosed", "decoder.diagnose"),
    ("repro.io.trace", "TraceReader", "__iter__", "trace.read"),
    ("repro.core.decoder", "FrameDecoder", "extract", "decoder.extract"),
)

LAYER_PROBES: tuple[Probe, ...] = RECEIVE_PROBES + (
    ("repro.core.encoder", "FrameEncoder", "encode_stream", "encoder.encode"),
    ("repro.core.encoder", "Frame", "render", "encoder.render"),
    ("repro.channel.link", None, "compose_rolling_shutter", "channel.rolling_shutter"),
    ("repro.channel.screen", "FrameSchedule", "emitted_image", "channel.emit"),
    ("repro.channel.link", None, "warp_perspective", "channel.project"),
    ("repro.channel.optics", "LensModel", "apply", "channel.optics"),
    ("repro.channel.link", None, "motion_blur", "channel.motion_blur"),
    ("repro.channel.environment", "EnvironmentProfile", "degrade", "imaging.degrade"),
    ("repro.imaging.sensor", "CameraPipeline", "apply", "imaging.sensor_pipeline"),
    ("repro.faults.plan", "FaultPlan", "apply_image", "faults.apply"),
    ("repro.core.sync", "StreamReassembler", "add_capture", "sync.add_capture"),
    ("repro.core.sync", "StreamReassembler", "flush", "sync.flush"),
    ("repro.core.sync", None, "assemble_frame", "coding.assemble"),
    ("repro.core.decoder", None, "assemble_frame", "coding.assemble"),
    ("repro.telemetry.quality", None, "record_capture_quality", "telemetry.quality"),
    ("repro.telemetry.quality", None, "record_rs_stats", "telemetry.quality"),
    ("repro.telemetry.quality", None, "record_confusion", "telemetry.quality"),
    ("repro.telemetry.quality", None, "record_sync_coverage", "telemetry.quality"),
    ("repro.telemetry.quality", None, "record_round_goodput", "telemetry.quality"),
)

#: Reconciliation groups, in pipeline order.  ``unattributed`` is the
#: session root's self time.
LAYER_GROUPS = (
    "encoder",
    "channel",
    "imaging",
    "faults",
    "decoder",
    "sync_coding",
    "trace",
    "telemetry",
    "unattributed",
)


def layer_group(probe: str) -> str:
    """Reconciliation group of a probe name (``session`` -> unattributed)."""
    if probe == "session":
        return "unattributed"
    prefix = probe.split(".", 1)[0]
    return "sync_coding" if prefix in ("sync", "coding") else prefix


class LayerClock:
    """Nested call timer: count, wall and self seconds per probe name.

    It also pairs each capture's render with its decode, so that
    :attr:`receive_s` holds one receive-path latency per capture
    processed, and keeps the decoder's per-stage times and failure
    stages seen through the ``decoder.extract`` probe.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Per-call wall seconds of the probes whose percentiles are reported.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Receive-path seconds, one per capture processed.
        self.receive_s: list[float] = []
        #: Summed ``DecodeDiagnostics.stage_ms`` of successful extracts.
        self.stage_ms: dict[str, float] = defaultdict(float)
        self.failed_stages: dict[str, int] = defaultdict(int)
        self.crc_failed_frames = 0
        self._children: list[float] = []
        self._rendered: dict[int, float] = {}

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as probe *name*."""
        self._children.append(0.0)
        start = time.perf_counter()
        result: Any = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            if name == "decoder.extract":
                self.failed_stages[str(getattr(exc, "stage", "capture"))] += 1
            raise
        finally:
            wall = time.perf_counter() - start
            self._close(name, wall)
            self._observe(name, wall, args, result)

    def _close(self, name: str, wall: float, counted: bool = True) -> None:
        child = self._children.pop()
        if self._children:
            self._children[-1] += wall
        self.calls[name] += counted
        self.wall_s[name] += wall
        self.self_s[name] += wall - child

    def _observe(self, name: str, wall: float, args: tuple, result: Any) -> None:
        if name in ("channel.capture", "decoder.extract", "session"):
            self.samples[name].append(wall)
        if name == "channel.capture" and result is not None:
            self._rendered[id(result.image)] = wall
        elif name == "decoder.diagnose":
            # A duplicated capture is rendered once and decoded twice;
            # only its first decode carries the render time.
            self.receive_s.append(wall + self._rendered.pop(id(args[1]), 0.0))
        elif name == "decoder.extract" and result is not None:
            for stage, ms in result.diagnostics.stage_ms.items():
                self.stage_ms[stage] += ms
        elif name == "coding.assemble" and result is not None and not result.ok:
            self.crc_failed_frames += 1

    def iterate(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Time each ``next()`` on *iterator* as probe *name*.

        The time from yielding an item until the consumer asks for the
        next one is the consumer's work on that item (on replay: the
        decode), so read + consume is one capture's receive latency.
        """
        while True:
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                # Finding the end costs time but delivers no item.
                self._close(name, time.perf_counter() - start, counted=False)
                return
            except BaseException:
                self._close(name, time.perf_counter() - start)
                raise
            read = time.perf_counter() - start
            self._close(name, read)
            yielded = time.perf_counter()
            yield item
            self.receive_s.append(read + time.perf_counter() - yielded)

    def end_session(self) -> None:
        """Drop render times of captures never decoded (none expected)."""
        self._rendered.clear()


def _wrapper(clock: LayerClock, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    if original.__name__ == "__iter__":
        def timed_iter(self: Any) -> Iterator[Any]:
            return clock.iterate(name, original(self))

        return timed_iter

    def timed(*args: Any, **kwargs: Any) -> Any:
        return clock.call(name, original, *args, **kwargs)

    return timed


@contextmanager
def installed(clock: LayerClock, probes: tuple[Probe, ...]) -> Iterator[LayerClock]:
    """Install *probes* reporting to *clock*; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, class_name, attr, name in probes:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(clock, name, original))
        yield clock
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
