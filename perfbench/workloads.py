"""The benchmark's three workloads and the session outcome they record.

Every workload is a fixed list of *sessions* built from the benchmark
seed.  A session is one transfer as a user sees it: payload in, exact
bytes out or a reported failure.  Running the list once is a *pass*;
the timed region repeats whole passes, and a repeated pass must
reproduce the first one's outcomes exactly.

* ``transfer`` drives :meth:`FileTransfer.send` at the paper's default
  condition: the channel, imaging, decoder and link layers all work.
* ``receive_replay`` records the same kind of sessions as capture traces
  during set-up and times only their replay through
  :meth:`FrameDecoder.decode_trace`: the channel does no timed work.
* ``fault_recovery`` drives :meth:`TransferSession.transmit` over all
  fault scenarios on the campaign grid inside a scoped
  :class:`MetricsRegistry`, as :func:`run_fault_trial` does.  Its
  (scenario, trial seed) set is fixed; the benchmark seed only picks the
  payload bytes.  With trial seeds drawn from the benchmark seed, which
  sessions recover by retransmission and which fail changes from seed to
  seed, and with it the work in a pass.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry
from repro.bench.faults_campaign import CAMPAIGN_GRID, CAMPAIGN_SENSOR
from repro.bench.workloads import paper_link_config
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.faults import scenario_names, scenario_plan
from repro.io.trace import TraceReader
from repro.link.classification import ApplicationType
from repro.link.reassembly import PayloadAssembler
from repro.link.session import TransferSession
from repro.link.transfer import FileTransfer, TransferError, unwrap_payload, wrap_payload
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["WORKLOADS", "Outcome", "Workload", "make_workload"]

#: Frames per session: every transfer session displays two frames and
#: every replayed trace one, so within a workload all sessions do the
#: same work and their times form one population.
TRANSFER_FRAMES = 2
REPLAY_FRAMES = 1
#: Raw text bytes per frame; seeded prose of this length compresses to
#: 60-90 % of a frame.
TEXT_BYTES_PER_FRAME = 600
#: Fault-recovery frames per trial and NACK rounds, as the campaign.
FAULT_FRAMES = 2
FAULT_MAX_ROUNDS = 3
#: The fixed trial seed of every fault scenario.
FAULT_TRIAL_SEED = 0

_WORDS = (
    "color barcode stream screen camera link frame block rolling shutter "
    "capture decode header tracking locator corner payload parity error "
    "erasure retransmit round phone display rate exposure ambient light "
    "blur distance angle channel robust visual communication symbol"
).split()


@dataclass(frozen=True)
class Outcome:
    """What one session did in simulation (no host timing)."""

    label: str
    sent: bytes
    returned: bytes | None
    rounds: int
    captures: int
    frames_sent: int
    frames_total: int
    display_s: float
    drops: dict = field(default_factory=dict)

    @property
    def delivered(self) -> bool:
        return self.returned == self.sent

    @property
    def undetected_error(self) -> bool:
        """Bytes came back but differ from those sent."""
        return self.returned is not None and self.returned != self.sent

    def digest_line(self) -> str:
        returned = "none" if self.returned is None else hashlib.sha256(self.returned).hexdigest()
        drops = ",".join(f"{k}:{v}" for k, v in sorted(self.drops.items())) or "-"
        return (
            f"{self.label} rounds={self.rounds} captures={self.captures} "
            f"frames_sent={self.frames_sent}/{self.frames_total} drops={drops} "
            f"display_s={self.display_s:.6f} sha256={returned}"
        )


def _payloads(seed: int, sessions: int, codec: FrameCodecConfig, frames: int):
    """Alternating binary and text payloads of *frames* wire frames each."""
    rng = np.random.default_rng([seed, 0xB0D7])
    per_frame = codec.payload_bytes_per_frame
    out = []
    for i in range(sessions):
        if i % 2 == 0:
            label, app_type = f"binary{i}", ApplicationType.BINARY
            # wrap_payload adds a 12-byte header and a 4-byte CRC-32 trailer.
            data = bytes(rng.integers(0, 256, frames * per_frame - 16, dtype=np.uint8))
        else:
            label, app_type = f"text{i}", ApplicationType.TEXT
            length = frames * TEXT_BYTES_PER_FRAME
            data = " ".join(rng.choice(_WORDS, size=length // 3)).encode()[:length]
        wire = len(wrap_payload(data, app_type))
        if -(-wire // per_frame) != frames:
            raise ValueError(f"{label}: {wire} wire bytes do not fill {frames} frame(s)")
        out.append((label, data, app_type))
    return out


class Workload:
    """A fixed list of sessions plus the set-up they need."""

    name = ""
    #: The :data:`calibrate.KERNELS` entry whose work is most like this
    #: workload's, for scaling host times.
    calibration = "arrays"
    #: Whether the runner takes each session's drops by stage from the
    #: decoder probe (replay reports only None per failed capture).
    drops_from_decoder = False

    def __init__(self, seed: int, sessions: int):
        self.seed = seed
        self.sessions = sessions

    def setup(self) -> None:
        """Build the objects a pass needs and warm them up (untimed)."""

    def record(self, workdir: Path, between: Callable[[], object]) -> list[float]:
        """Record inputs that set-up must produce; seconds per recording.

        *between* runs after each recording, outside its time.
        """
        return []

    def session_calls(self) -> list[Callable[[], Outcome]]:
        raise NotImplementedError


class Transfer(Workload):
    name = "transfer"

    def setup(self) -> None:
        # f_d=10, 12 px blocks; 12 cm, v_a=0, indoor, handheld, 30 fps.
        self.codec = FrameCodecConfig()
        self.link = paper_link_config()
        self.payloads = _payloads(self.seed, self.sessions, self.codec, TRANSFER_FRAMES)
        _warm_up(self.codec, self.link)

    def session_calls(self) -> list[Callable[[], Outcome]]:
        return [(lambda i=i: self._send(i)) for i in range(self.sessions)]

    def _send(self, i: int) -> Outcome:
        label, data, app_type = self.payloads[i]
        session = TransferSession(
            self.codec, self.link, rng=np.random.default_rng([self.seed, i])
        )
        result = FileTransfer(session).send(data, app_type)
        return _outcome(label, data, result.data, result.stats)


class ReceiveReplay(Workload):
    name = "receive_replay"
    calibration = "interpreter"
    drops_from_decoder = True

    def setup(self) -> None:
        self.codec = FrameCodecConfig()
        self.link = paper_link_config()
        self.decoder = FrameDecoder(self.codec)
        self.payloads = _payloads(self.seed, self.sessions, self.codec, REPLAY_FRAMES)
        _warm_up(self.codec, self.link)

    def record(self, workdir: Path, between: Callable[[], object]) -> list[float]:
        #: (trace path, wire length, frames, display seconds) per session.
        self.traces: list[tuple[Path, int, int, float]] = []
        seconds = []
        encoder = FrameEncoder(self.codec)
        for i, (__, data, app_type) in enumerate(self.payloads):
            start = time.perf_counter()
            wrapped = wrap_payload(data, app_type)
            frames = encoder.encode_stream(wrapped)
            schedule = FrameSchedule(
                [f.render() for f in frames], display_rate=self.codec.display_rate
            )
            link = ScreenCameraLink(self.link, rng=np.random.default_rng([self.seed, i]))
            path = workdir / f"trace{i}"
            # One frame per chunk: each capture pays its own read and
            # SHA-256 check instead of the first one paying for all.
            link.export_trace(schedule, path, chunk_frames=1)
            seconds.append(time.perf_counter() - start)
            between()
            self.traces.append((path, len(wrapped), len(frames), schedule.duration))
        return seconds

    def session_calls(self) -> list[Callable[[], Outcome]]:
        return [(lambda i=i: self._replay(i)) for i in range(self.sessions)]

    def _replay(self, i: int) -> Outcome:
        label, data, __ = self.payloads[i]
        path, wire_bytes, frames, display_s = self.traces[i]
        results = self.decoder.decode_trace(TraceReader(path), workers=1)
        assembler = PayloadAssembler()
        assembler.add_all([r for r in results if r is not None])
        returned = None
        if assembler.complete:
            # The last frame is zero-padded; like TransferSession, the
            # receiver cuts the stream at the sent length.
            try:
                returned = unwrap_payload(assembler.payload()[:wire_bytes])
            except TransferError:
                returned = None
        return Outcome(
            label=label,
            sent=data,
            returned=returned,
            rounds=1,
            captures=len(results),
            frames_sent=frames,
            frames_total=frames,
            display_s=display_s,
        )


class FaultRecovery(Workload):
    name = "fault_recovery"
    calibration = "mixed"

    def setup(self) -> None:
        rows, cols, block = CAMPAIGN_GRID
        self.codec = FrameCodecConfig(
            layout=FrameLayout(grid_rows=rows, grid_cols=cols, block_px=block)
        )
        self.link = LinkConfig(sensor_size=CAMPAIGN_SENSOR)
        rng = np.random.default_rng([self.seed, 0xFA17])
        length = self.codec.payload_bytes_per_frame * FAULT_FRAMES
        names = scenario_names()
        self.trials = [
            (names[i % len(names)], bytes(rng.integers(0, 256, length, dtype=np.uint8)))
            for i in range(self.sessions)
        ]
        _warm_up(self.codec, self.link)

    def session_calls(self) -> list[Callable[[], Outcome]]:
        return [(lambda i=i: self._transmit(i)) for i in range(self.sessions)]

    def _transmit(self, i: int) -> Outcome:
        scenario, payload = self.trials[i]
        session = TransferSession(
            self.codec,
            link_config=self.link,
            rng=np.random.default_rng([FAULT_TRIAL_SEED, zlib.crc32(scenario.encode())]),
            faults=scenario_plan(scenario, seed=FAULT_TRIAL_SEED),
        )
        with telemetry.scoped(registry=MetricsRegistry()):
            received, stats = session.transmit(payload, max_rounds=FAULT_MAX_ROUNDS)
        return _outcome(scenario, payload, received, stats)


def _outcome(label: str, sent: bytes, returned: bytes | None, stats) -> Outcome:
    return Outcome(
        label=label,
        sent=sent,
        returned=returned,
        rounds=stats.rounds,
        captures=stats.captures,
        frames_sent=stats.frames_sent,
        frames_total=stats.frames_total,
        display_s=stats.display_time_s,
        drops=dict(stats.drop_reasons),
    )


def _warm_up(codec: FrameCodecConfig, link: LinkConfig) -> None:
    """One capture through the receive path, filling the shape-keyed caches."""
    frame = FrameEncoder(codec).encode_stream(b"\x00" * codec.payload_bytes_per_frame)[0]
    schedule = FrameSchedule([frame.render()], display_rate=codec.display_rate)
    capture = ScreenCameraLink(link, rng=np.random.default_rng(0)).capture_at(schedule, 0.01)
    FrameDecoder(codec).extract_diagnosed(capture.image)


#: name -> (class, sessions per pass).  A pass holds 24 (replay) to
#: about 100 distinct captures, so a median does not hang on a few
#: captures' random draws.
WORKLOADS: dict[str, tuple[type[Workload], int]] = {
    "transfer": (Transfer, 10),
    "receive_replay": (ReceiveReplay, 8),
    "fault_recovery": (FaultRecovery, 13),
}


def make_workload(name: str, seed: int, sessions: int | None = None) -> Workload:
    cls, default = WORKLOADS[name]
    return cls(seed, default if sessions is None else sessions)
