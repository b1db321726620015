"""Feedback-driven transmission sessions (Sections III-A and V).

RainBar retransmits failed frames: the receiver CRC-checks every decoded
frame and NACKs the sequence numbers it could not recover; the sender
re-displays exactly those frames in the next round.  This is the
throughput/goodput trade RainBar makes *instead of* RDCode's
always-on tri-level redundancy.

:class:`TransferSession` runs the whole loop against the simulated
channel: encode -> display -> capture -> decode -> NACK -> retransmit,
and reports the timing/goodput accounting every benchmark consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import telemetry
from ..channel.link import LinkConfig, ScreenCameraLink
from ..channel.screen import FrameSchedule
from ..core.decoder import FrameDecoder
from ..core.encoder import Frame, FrameCodecConfig, FrameEncoder
from .reassembly import PayloadAssembler
from .receiver_modes import BufferedReceiver

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["FeedbackChannel", "SessionStats", "TransferSession"]


@dataclass
class FeedbackChannel:
    """The receiver-to-sender NACK path.

    The paper leaves the feedback transport unspecified; by default it
    is ideal.  ``loss_probability`` drops whole NACK lists (the sender
    then assumes everything it sent arrived, and the receiver re-NACKs
    next round), letting experiments probe feedback robustness.
    """

    loss_probability: float = 0.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0xFEED))

    def deliver(self, nacks: list[int]) -> list[int] | None:
        """NACK list as seen by the sender (None = feedback lost)."""
        if self.loss_probability > 0 and self.rng.random() < self.loss_probability:
            return None
        return list(nacks)


@dataclass
class SessionStats:
    """Accounting of one transfer session."""

    delivered: bool = False
    rounds: int = 0
    frames_total: int = 0
    frames_sent: int = 0  # including retransmissions
    captures: int = 0
    captures_dropped: int = 0
    #: Undecodable captures binned by the failing pipeline stage (the
    #: :class:`~repro.core.decoder.DecodeFailure` taxonomy); values sum
    #: to ``captures_dropped``.
    drop_reasons: dict[str, int] = field(default_factory=dict)
    #: Frame results that failed verification and had to be re-NACKed.
    frames_failed: int = 0
    display_time_s: float = 0.0
    payload_bytes: int = 0

    @property
    def goodput_bps(self) -> float:
        """Delivered payload bits per second of display time."""
        if self.display_time_s <= 0 or not self.delivered:
            return 0.0
        return 8.0 * self.payload_bytes / self.display_time_s

    @property
    def retransmission_overhead(self) -> float:
        """Extra frames sent relative to the minimum."""
        if self.frames_total == 0:
            return 0.0
        return self.frames_sent / self.frames_total - 1.0


class TransferSession:
    """One sender, one receiver, one payload, as many rounds as needed.

    *faults* attaches a :class:`~repro.faults.plan.FaultPlan` to every
    round's schedule and link, so injected impairments hit each
    (re)transmission; the NACK loop is then exactly the recovery path
    the fault campaign measures.
    """

    def __init__(
        self,
        codec_config: FrameCodecConfig,
        link_config: LinkConfig | None = None,
        feedback: FeedbackChannel | None = None,
        rng: np.random.Generator | None = None,
        decoder_kwargs: dict | None = None,
        faults: "FaultPlan | None" = None,
    ):
        self.codec_config = codec_config
        self.link_config = link_config or LinkConfig()
        self.feedback = feedback or FeedbackChannel()
        self.rng = rng or np.random.default_rng(0x5E55)
        self.encoder = FrameEncoder(codec_config)
        self.decoder = FrameDecoder(codec_config, **(decoder_kwargs or {}))
        self.faults = faults

    def transmit(self, payload: bytes, max_rounds: int = 5) -> tuple[bytes | None, SessionStats]:
        """Send *payload*; returns ``(payload_or_None, stats)``.

        Each round displays the outstanding frames once and decodes the
        captures; undecoded frames carry into the next round.  Delivery
        fails (None) when frames remain after *max_rounds*.
        """
        frames = self.encoder.encode_stream(payload)
        stats = SessionStats(frames_total=len(frames), payload_bytes=len(payload))
        assembler = PayloadAssembler()
        outstanding = list(range(len(frames)))
        registry = telemetry.registry()
        telemetry.emit("session_start", frames=len(frames), payload_bytes=len(payload))

        for __ in range(max_rounds):
            if not outstanding:
                break
            stats.rounds += 1
            stats.frames_sent += len(outstanding)
            if registry:
                registry.counter("link.rounds").inc()
                registry.counter("link.frames_sent").inc(len(outstanding))
                if stats.rounds > 1:
                    registry.counter("link.retransmissions").inc(len(outstanding))
            telemetry.emit("round", round=stats.rounds, outstanding=len(outstanding))
            self._run_round([frames[i] for i in outstanding], assembler, stats)

            # NACK every outstanding frame not yet received.  (Deriving
            # the list from ``assembler.missing()`` alone would go
            # silent — and wrongly end the session — whenever a round
            # decoded nothing at all, or lost only frames above the
            # highest received sequence before the last frame was seen.)
            nacks = [seq for seq in outstanding if not assembler.has(seq)]
            # Frames decoded this round leave the outstanding set even if
            # the NACK list is lost (the sender would then resend them,
            # modeled by keeping outstanding unchanged).
            delivered_view = self.feedback.deliver(nacks)
            if delivered_view is None:
                continue  # feedback lost: sender repeats the same set
            outstanding = delivered_view

        if registry:
            registry.counter("link.frames_failed").inc(stats.frames_failed)
        telemetry.emit("session_end", delivered=assembler.complete, rounds=stats.rounds)
        if assembler.complete:
            stats.delivered = True
            return assembler.payload()[: len(payload)], stats
        return None, stats

    def _run_round(
        self,
        frames: "Sequence[Frame]",
        assembler: PayloadAssembler,
        stats: SessionStats,
    ) -> None:
        images = [f.render() for f in frames]
        schedule = FrameSchedule(
            images,
            display_rate=self.codec_config.display_rate,
            brightness=self.link_config_brightness(),
            faults=self.faults,
        )
        link = ScreenCameraLink(self.link_config, rng=self.rng, faults=self.faults)

        # Sequence numbers inside a retransmission round are not
        # contiguous, so rolling-shutter row routing (seq+1) may misfile
        # rows; those frames simply fail their CRC and are re-NACKed —
        # matching how a real receiver behaves when the display order
        # deviates from the sequence order.
        report = BufferedReceiver(self.decoder).process(link.capture_stream(schedule))
        stats.captures += report.captures_seen
        stats.captures_dropped += report.captures_dropped_error
        for stage, count in report.drop_reasons.items():
            stats.drop_reasons[stage] = stats.drop_reasons.get(stage, 0) + count
        results = report.results
        crc_failures = sum(1 for r in results if not r.ok)
        ok_payload = sum(r.payload_bytes for r in results if r.ok)
        stats.frames_failed += crc_failures
        assembler.add_all(results)
        stats.display_time_s += schedule.duration

        # Per-round quality sample: effective goodput over *simulated*
        # display time (RB004 — no wall clock), plus the CRC outcome.
        # The cumulative t_display_s places each sample on the session's
        # simulated timeline.
        registry = telemetry.registry()
        kbps = 0.0
        if registry:
            from ..telemetry import quality as quality_metrics

            kbps = quality_metrics.record_round_goodput(
                registry,
                payload_bytes=ok_payload,
                display_s=schedule.duration,
                crc_failures=crc_failures,
            )
        elif schedule.duration > 0:
            kbps = 8.0 * ok_payload / schedule.duration / 1000.0
        telemetry.emit(
            "quality",
            round=stats.rounds,
            goodput_kbps=round(kbps, 6),
            crc_failures=crc_failures,
            payload_bytes=ok_payload,
            t_display_s=round(stats.display_time_s, 6),
        )

    def link_config_brightness(self) -> float:
        """Screen brightness for this session (hook for sweeps)."""
        return 1.0
