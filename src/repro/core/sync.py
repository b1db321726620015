"""Frame synchronization and stream reassembly (Section III-D).

With rolling-shutter cameras, a display rate above half the capture rate
means every capture mixes the bottom of frame *i* with the top of frame
*i+1* (paper Fig. 6).  RainBar's tracking bars make the split
observable: every grid row whose bar differs from the header's indicator
by d_t = 1 belongs to the next frame.

:class:`StreamReassembler` consumes per-capture
:class:`~repro.core.decoder.CaptureExtraction` objects and re-assembles
complete logical frames:

* rows with d_t = 0 go to the capture's header sequence number, rows
  with d_t = 1 to the successor;
* when the same row of the same frame is seen twice (slow display
  rates), the sharper capture wins — this subsumes COBRA-style blur
  assessment: :meth:`StreamReassembler.add_capture` scores each
  capture's float frame once with
  :func:`~repro.imaging.metrics.gradient_energy`;
* a frame is finalized (error-corrected and CRC-checked) once a capture
  for a *later* sequence arrives, or on :meth:`flush`; rows never seen
  become RS erasures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry
from ..imaging.metrics import gradient_energy
from .decoder import CaptureExtraction, FrameResult, assemble_frame
from .encoder import FrameCodecConfig
from .header import FrameHeader

__all__ = ["StreamReassembler", "PendingFrame"]


@dataclass
class PendingFrame:
    """Accumulating state for one logical frame."""

    sequence: int
    symbols: np.ndarray  # (num_data_cells,), -1 where unseen
    row_quality: dict[int, float] = field(default_factory=dict)
    header: FrameHeader | None = None

    def coverage(self, symbol_rows: np.ndarray) -> float:
        """Fraction of data rows with at least one decoded symbol."""
        seen_rows = {int(r) for r in set(self.row_quality)}
        all_rows = {int(r) for r in np.unique(symbol_rows)}
        if not all_rows:
            return 0.0
        return len(seen_rows & all_rows) / len(all_rows)


class StreamReassembler:
    """Merges captures into logical frames across the rolling-shutter split.

    *assemble* turns a completed (header, symbols) pair into a
    :class:`FrameResult`; it defaults to RainBar's
    :func:`~repro.core.decoder.assemble_frame` and is pluggable so
    schemes with a different symbol alphabet (e.g. LightSync's binary
    blocks) reuse the synchronization machinery unchanged.
    """

    def __init__(
        self,
        config: FrameCodecConfig,
        max_pending: int = 8,
        assemble: Callable[[FrameHeader, np.ndarray], FrameResult] | None = None,
    ):
        self.config = config
        self.max_pending = max_pending
        self._assemble = assemble or (
            lambda header, symbols: assemble_frame(self.config, header, symbols)
        )
        self._pending: dict[int, PendingFrame] = {}
        self._emitted: set[int] = set()

    # -- feeding -----------------------------------------------------------

    def add_capture(self, extraction: CaptureExtraction) -> list[FrameResult]:
        """Fold one capture in; returns any frames finalized by its arrival."""
        seq = extraction.header.sequence
        layout = self.config.layout
        sharp = gradient_energy(extraction.image)
        telemetry.registry().counter("sync.captures_merged").inc()

        for offset in (0, 1):
            rows = np.flatnonzero(extraction.row_assignment == offset)
            if rows.size == 0:
                continue
            target_seq = (seq + offset) & 0x7FFF
            if target_seq in self._emitted:
                continue
            pending = self._pending.get(target_seq)
            if pending is None:
                pending = PendingFrame(
                    sequence=target_seq,
                    symbols=np.full(len(layout.data_cells), -1, dtype=np.int64),
                )
                self._pending[target_seq] = pending
            if offset == 0:
                pending.header = extraction.header
            self._merge_rows(pending, extraction, rows, sharp)

        return self._finalize_ready(current_seq=seq)

    def _merge_rows(
        self,
        pending: PendingFrame,
        extraction: CaptureExtraction,
        rows: np.ndarray,
        sharpness: float,
    ) -> None:
        symbol_rows = self.config.layout.symbol_rows
        confidence = extraction.row_confidence
        for row in rows:
            row = int(row)
            row_conf = 1.0 if confidence is None else float(confidence[row])
            quality = sharpness * row_conf
            incumbent = pending.row_quality.get(row)
            if incumbent is not None and incumbent >= quality:
                continue
            mask = symbol_rows == row
            if not np.any(mask):
                continue  # structural row (header/bars) with no data cells
            pending.symbols[mask] = extraction.data_symbols[mask]
            pending.row_quality[row] = quality

    # -- finalization --------------------------------------------------------

    def _finalize_ready(self, current_seq: int) -> list[FrameResult]:
        """Finalize pending frames strictly older than the current capture."""
        out = []
        for seq in sorted(self._pending):
            distance = (current_seq - seq) & 0x7FFF
            # A frame older than the current header (and not its direct
            # successor) can gain no more rows: captures arrive in order.
            if 0 < distance < 0x4000:
                out.append(self._finalize(seq))
        # Backstop against unbounded growth on pathological input.
        while len(self._pending) > self.max_pending:
            out.append(self._finalize(min(self._pending)))
        return out

    def _finalize(self, seq: int) -> FrameResult:
        pending = self._pending.pop(seq)
        self._emitted.add(seq)
        registry = telemetry.registry()
        if registry:
            # The sync-quality signal: how much of the frame the
            # rolling-shutter reassembly actually saw.
            from ..telemetry import quality as quality_metrics

            quality_metrics.record_sync_coverage(
                registry, pending.coverage(self.config.layout.symbol_rows)
            )
        if pending.header is None or pending.header.sequence != seq:
            # Rows were collected from a d_t = 1 tail, but the frame's own
            # header capture never arrived: without its checksum the frame
            # cannot be verified.
            result = FrameResult(
                sequence=seq, ok=False, payload=b"", failure="header never captured"
            )
        else:
            try:
                result = self._assemble(pending.header, pending.symbols)
            except Exception as exc:
                # A pluggable assembler choking on corrupted symbols loses
                # the frame, not the stream: report it as a failed frame so
                # the transfer layer NACKs and retransmits.
                result = FrameResult(
                    sequence=seq,
                    ok=False,
                    payload=b"",
                    is_last=pending.header.is_last,
                    failure=f"assemble raised {type(exc).__name__}: {exc}",
                )
        if registry:
            registry.counter("sync.frames_finalized").inc()
            if not result.ok:
                registry.counter("sync.frames_failed").inc()
        return result

    def flush(self) -> list[FrameResult]:
        """Finalize everything still pending (end of stream)."""
        return [self._finalize(seq) for seq in sorted(self._pending)]

    @property
    def pending_sequences(self) -> list[int]:
        """Sequences currently accumulating rows (for tests/diagnostics)."""
        return sorted(self._pending)
