"""The experiment engine: run one (system, condition) trial, measure
exactly what the paper measures.

Metrics (Section IV):

* **decoding rate** — "the percentage of correctly decoded data in the
  total amount of data contained in a color frame": here the fraction
  of transmitted payload bytes recovered byte-exactly, averaged over
  frames (a dropped frame contributes 0);
* **error rate** — 1 - decoding rate;
* **throughput** — "the average amount of data successfully decoded per
  second in the received frames": correct payload bits over display
  time;
* **raw symbol error rate** — pre-FEC block misclassification rate,
  used by the ablation benches to expose localization/recognition
  accuracy without RS masking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..baselines.cobra import CobraConfig, CobraDecoder, CobraEncoder, CobraReceiver
from ..channel.link import Capture, LinkConfig, ScreenCameraLink
from ..channel.screen import FrameSchedule
from ..core.decoder import FrameDecoder, FrameResult
from ..core.encoder import Frame, FrameCodecConfig, FrameEncoder
from ..core.sync import StreamReassembler
from ..link.receiver_modes import BufferedReceiver, ReceiverReport
from .workloads import random_payload

if TYPE_CHECKING:
    from ..baselines.lightsync import LightSyncConfig

__all__ = [
    "TrialResult",
    "run_rainbar_trial",
    "run_cobra_trial",
    "run_lightsync_trial",
    "average_trials",
]


@dataclass
class TrialResult:
    """Measured outcome of one stream transmission."""

    system: str
    frames_total: int
    frames_decoded: int = 0
    captures: int = 0
    captures_dropped: int = 0
    correct_payload_bytes: int = 0
    total_payload_bytes: int = 0
    display_time_s: float = 0.0
    raw_symbols_wrong: int = 0
    raw_symbols_total: int = 0
    params: dict = field(default_factory=dict)

    @property
    def frame_decode_rate(self) -> float:
        if self.frames_total == 0:
            return 0.0
        return self.frames_decoded / self.frames_total

    @property
    def decoding_rate(self) -> float:
        """Fraction of payload bytes recovered correctly (paper metric)."""
        if self.total_payload_bytes == 0:
            return 0.0
        return self.correct_payload_bytes / self.total_payload_bytes

    @property
    def error_rate(self) -> float:
        return 1.0 - self.decoding_rate

    @property
    def throughput_bps(self) -> float:
        if self.display_time_s <= 0:
            return 0.0
        return 8.0 * self.correct_payload_bytes / self.display_time_s

    @property
    def raw_symbol_error_rate(self) -> float:
        if self.raw_symbols_total == 0:
            return 0.0
        return self.raw_symbols_wrong / self.raw_symbols_total


def _byte_accuracy(sent: bytes, received: bytes) -> int:
    """Number of positions where *received* matches *sent*."""
    n = min(len(sent), len(received))
    if n == 0:
        return 0
    a = np.frombuffer(sent[:n], dtype=np.uint8)
    b = np.frombuffer(received[:n], dtype=np.uint8)
    return int(np.sum(a == b))


def _score_results(
    trial: TrialResult, results: list[FrameResult], payloads: dict[int, bytes]
) -> None:
    seen: set[int] = set()
    for result in results:
        if result.sequence in seen or result.sequence not in payloads:
            continue
        seen.add(result.sequence)
        sent = payloads[result.sequence]
        if result.ok:
            trial.frames_decoded += 1
            trial.correct_payload_bytes += _byte_accuracy(sent, result.payload)
        elif result.payload:
            # Partial credit: the paper's decoding rate counts correctly
            # decoded data even in frames that failed overall.
            trial.correct_payload_bytes += _byte_accuracy(sent, result.payload)


def _score_report(
    trial: TrialResult, report: ReceiverReport, payloads: dict[int, bytes]
) -> None:
    trial.captures = report.captures_seen
    trial.captures_dropped = report.captures_dropped_error
    _score_results(trial, report.results, payloads)


def _start_trial(
    system: str,
    encoder: FrameEncoder,
    link_config: LinkConfig,
    num_frames: int,
    brightness: float,
    seed: int,
) -> tuple[TrialResult, dict[int, bytes], list[Frame], list[Capture]]:
    """Encode *num_frames* of seeded random payload and capture them once.

    Returns the empty trial, the payloads by sequence number, the
    frames and the captures of one pass through the channel.
    """
    codec = encoder.config
    payload_size = codec.payload_bytes_per_frame
    payloads = {
        i: random_payload(payload_size, seed=seed * 1000 + i) for i in range(num_frames)
    }
    frames = [encoder.encode_frame(payloads[i], sequence=i) for i in range(num_frames)]
    schedule = FrameSchedule(
        [f.render() for f in frames], display_rate=codec.display_rate, brightness=brightness
    )
    link = ScreenCameraLink(link_config, rng=np.random.default_rng(seed + 0xC0FFEE))
    trial = TrialResult(
        system=system,
        frames_total=num_frames,
        total_payload_bytes=num_frames * payload_size,
        display_time_s=schedule.duration,
    )
    return trial, payloads, frames, link.capture_stream(schedule)


def run_rainbar_trial(
    codec: FrameCodecConfig,
    link_config: LinkConfig,
    num_frames: int = 8,
    brightness: float = 1.0,
    seed: int = 0,
    decoder_kwargs: dict | None = None,
    measure_raw_symbols: bool = False,
) -> TrialResult:
    """Transmit *num_frames* of random payload through the channel once."""
    trial, payloads, frames, captures = _start_trial(
        "rainbar", FrameEncoder(codec), link_config, num_frames, brightness, seed
    )
    receiver = BufferedReceiver(FrameDecoder(codec, **(decoder_kwargs or {})))

    truth_symbols = None
    if measure_raw_symbols:
        table = np.full(8, -1, dtype=np.int64)
        for sym, color in enumerate((1, 2, 3, 4)):  # white red green blue
            table[color] = sym
        truth_symbols = {
            f.header.sequence: table[
                f.grid[codec.layout.data_cells[:, 0], codec.layout.data_cells[:, 1]]
            ]
            for f in frames
        }

    for capture in captures:
        extraction = receiver.receive(capture)
        if (
            truth_symbols is not None
            and extraction is not None
            and extraction.header.sequence in truth_symbols
        ):
            own = extraction.row_assignment[codec.layout.symbol_rows] == 0
            truth = truth_symbols[extraction.header.sequence]
            got = extraction.data_symbols
            trial.raw_symbols_total += int(own.sum())
            trial.raw_symbols_wrong += int(np.sum((got != truth) & own))
    _score_report(trial, receiver.finish(), payloads)
    return trial


def run_cobra_trial(
    codec: CobraConfig,
    link_config: LinkConfig,
    num_frames: int = 8,
    brightness: float = 1.0,
    seed: int = 0,
) -> TrialResult:
    """The COBRA counterpart of :func:`run_rainbar_trial`."""
    trial, payloads, _, captures = _start_trial(
        "cobra", CobraEncoder(codec), link_config, num_frames, brightness, seed
    )
    receiver = CobraReceiver(CobraDecoder(codec))
    for capture in captures:
        trial.captures += 1
        receiver.offer(capture.image)
    trial.captures_dropped = receiver.dropped_captures
    _score_results(trial, receiver.results(), payloads)
    return trial


def run_lightsync_trial(
    codec: "LightSyncConfig",
    link_config: LinkConfig,
    num_frames: int = 8,
    brightness: float = 1.0,
    seed: int = 0,
) -> TrialResult:
    """LightSync counterpart of :func:`run_rainbar_trial` (binary blocks)."""
    from ..baselines.lightsync import LightSyncEncoder, LightSyncReceiver

    trial, payloads, _, captures = _start_trial(
        "lightsync", LightSyncEncoder(codec), link_config, num_frames, brightness, seed
    )
    receiver = LightSyncReceiver(codec)
    reassembler = StreamReassembler(codec.rainbar_equivalent(), assemble=receiver.assemble)
    report = BufferedReceiver(receiver.decoder, reassembler).process(captures)
    _score_report(trial, report, payloads)
    return trial


def average_trials(trials: list[TrialResult]) -> TrialResult:
    """Pool repeated trials of the same condition.

    All counters are summed, so every derived rate (decoding rate,
    throughput, frame decode rate) becomes the pooled estimate over all
    repetitions — statistically equivalent to a duration-weighted mean.
    """
    if not trials:
        raise ValueError("no trials to average")
    agg = TrialResult(system=trials[0].system, frames_total=0, params=dict(trials[0].params))
    for t in trials:
        agg.frames_total += t.frames_total
        agg.frames_decoded += t.frames_decoded
        agg.captures += t.captures
        agg.captures_dropped += t.captures_dropped
        agg.correct_payload_bytes += t.correct_payload_bytes
        agg.total_payload_bytes += t.total_payload_bytes
        agg.display_time_s += t.display_time_s
        agg.raw_symbols_wrong += t.raw_symbols_wrong
        agg.raw_symbols_total += t.raw_symbols_total
    return agg
