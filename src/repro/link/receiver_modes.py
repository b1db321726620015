"""Real-time vs buffered decoding modes (Section IV).

The paper's receiver app offers two modes:

* **buffered** — record the captures (as video) and decode afterwards;
  every capture is processed.  All throughput/decoding-rate experiments
  run in this mode.
* **real-time** — decode while capturing, one thread filming and one
  decoding; a capture is *dropped* if the decoder is still busy when it
  arrives.  On the paper's phone, decode took ~80 ms, capping real-time
  operation near 12 fps.

:class:`RealTimeReceiver` reproduces the real-time constraint with a
simulated clock: each capture carries its arrival time, each decode
charges a configurable (or measured) processing time, and captures that
arrive while the decoder is busy are counted as dropped.  This exposes
the trade-off the paper discusses: raising the display rate beyond the
decode budget stops helping in real-time mode even though buffered mode
keeps gaining.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .. import telemetry
from ..core.decoder import CaptureExtraction, FrameDecoder, FrameResult
from ..core.sync import StreamReassembler

if TYPE_CHECKING:
    from ..channel.link import Capture

__all__ = ["ReceiverReport", "BufferedReceiver", "RealTimeReceiver"]


@dataclass
class ReceiverReport:
    """Accounting common to both receiver modes."""

    captures_seen: int = 0
    captures_decoded: int = 0
    captures_dropped_busy: int = 0
    captures_dropped_error: int = 0
    #: Error drops binned by failing pipeline stage (the
    #: :class:`~repro.core.decoder.DecodeFailure` taxonomy); values sum
    #: to ``captures_dropped_error``.
    drop_reasons: dict[str, int] = field(default_factory=dict)
    decode_time_total_s: float = 0.0
    results: list[FrameResult] = field(default_factory=list)

    @property
    def mean_decode_time_s(self) -> float:
        if self.captures_decoded == 0:
            return 0.0
        return self.decode_time_total_s / self.captures_decoded

    @property
    def frames_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)


class BufferedReceiver:
    """Decode every capture after the fact (the evaluation mode).

    This is the one receive loop of the package: the transfer session,
    the trial runner and the CLI all turn a capture stream into
    :class:`FrameResult` objects through it.  :meth:`receive` decodes
    one capture, bins a failure by its stage and folds a success into
    the reassembler; :meth:`finish` flushes the reassembler and emits
    one ``frame`` event per result.  *reassembler* defaults to RainBar's
    :class:`StreamReassembler`; a scheme with its own symbol alphabet
    (LightSync) passes one built with its ``assemble``.  One receiver
    handles one capture stream.
    """

    def __init__(self, decoder: FrameDecoder, reassembler: StreamReassembler | None = None):
        self.decoder = decoder
        self.reassembler = reassembler or StreamReassembler(decoder.config)
        self.report = ReceiverReport()

    def process(self, captures: "Iterable[Capture]") -> ReceiverReport:
        """Decode a full list of ``Capture`` objects."""
        for capture in captures:
            self.receive(capture)
        return self.finish()

    def receive(self, capture: "Capture") -> CaptureExtraction | None:
        """Decode one capture and fold it in; None when it was dropped."""
        report = self.report
        report.captures_seen += 1
        if not self._admit(capture):
            report.captures_dropped_busy += 1
            return None
        started = time.perf_counter()
        # Looked up per call and given the capture's own image: the
        # benchmark's timing probes patch this method on the class and
        # pair each decode with its render by the image's identity.
        extraction, diagnostics = self.decoder.extract_diagnosed(capture.image)
        report.decode_time_total_s += self._charge(capture, time.perf_counter() - started)
        if extraction is None:
            report.captures_dropped_error += 1
            stage = diagnostics.failure.stage if diagnostics.failure else "capture"
            report.drop_reasons[stage] = report.drop_reasons.get(stage, 0) + 1
            telemetry.emit("capture_dropped", stage=stage)
            return None
        report.captures_decoded += 1
        report.results.extend(self.reassembler.add_capture(extraction))
        return extraction

    def finish(self) -> ReceiverReport:
        """Flush the frames still pending (end of stream) and report."""
        report = self.report
        report.results.extend(self.reassembler.flush())
        for result in report.results:
            telemetry.emit("frame", sequence=result.sequence, ok=result.ok)
        return report

    def _admit(self, capture: "Capture") -> bool:
        """Whether the decoder takes *capture* (always, after the fact)."""
        return True

    def _charge(self, capture: "Capture", measured_s: float) -> float:
        """Decode time booked for *capture*: what the decode took."""
        return measured_s


class RealTimeReceiver(BufferedReceiver):
    """Decode concurrently with capture; drop captures when busy.

    ``decode_budget_s`` fixes the simulated per-capture decode time; by
    default the *measured* wall-clock time of each decode is used, which
    makes the mode faithful on whatever machine runs it.  A
    ``speed_factor`` above 1 models a faster decoder (e.g. the paper's
    four-thread variant).
    """

    def __init__(
        self,
        decoder: FrameDecoder,
        decode_budget_s: float | None = None,
        speed_factor: float = 1.0,
    ):
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        super().__init__(decoder)
        self.decode_budget_s = decode_budget_s
        self.speed_factor = speed_factor
        self._busy_until = -np.inf

    def _admit(self, capture: "Capture") -> bool:
        """A capture arriving while the decoder is busy is dropped."""
        return capture.time >= self._busy_until

    def _charge(self, capture: "Capture", measured_s: float) -> float:
        """Simulated decode time; the decoder is busy until it ends."""
        base = self.decode_budget_s if self.decode_budget_s is not None else measured_s
        cost = base / self.speed_factor
        self._busy_until = capture.time + cost
        return cost

    def max_sustainable_rate(self) -> float:
        """Display rate the decoder can keep up with (1 / decode time)."""
        mean = self.report.mean_decode_time_s
        if mean <= 0:
            return float("inf")
        return 1.0 / mean
