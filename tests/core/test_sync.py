"""Frame synchronization: tracking-bar row routing and stream reassembly."""

import numpy as np
import pytest

from repro.core.decoder import CaptureExtraction, DecodeDiagnostics
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.core.sync import StreamReassembler


@pytest.fixture(scope="module")
def config():
    return FrameCodecConfig(layout=FrameLayout(34, 60, 12), display_rate=18)


@pytest.fixture(scope="module")
def truth(config):
    """Three consecutive frames and their ground-truth symbols."""
    encoder = FrameEncoder(config)
    payloads = [bytes([i]) * config.payload_bytes_per_frame for i in range(3)]
    frames = [encoder.encode_frame(payloads[i], sequence=i) for i in range(3)]
    table = np.full(8, -1, dtype=np.int64)
    for sym, color in enumerate((1, 2, 3, 4)):
        table[color] = sym
    cells = config.layout.data_cells
    symbols = [table[f.grid[cells[:, 0], cells[:, 1]]] for f in frames]
    return frames, payloads, symbols


def fake_extraction(config, header, symbols, row_assignment, sharpness=1.0):
    """An extraction whose frame's blur score is *sharpness*: a ramp of
    slope ``s`` has gradient energy ``s**2``."""
    image = np.sqrt(sharpness) * np.tile(np.arange(8.0), (4, 1))
    return CaptureExtraction(
        header=header,
        row_assignment=row_assignment,
        data_symbols=symbols,
        diagnostics=DecodeDiagnostics(
            t_value=0.4,
            block_size=12.0,
            locator_refinement=1.0,
            corner_purity=1.0,
        ),
        image=image,
    )


def split_extraction(config, frames, symbols, top_seq, split_row, sharpness=1.0):
    """Simulate a rolling-shutter capture: rows < split_row from frame
    top_seq, rows >= split_row from top_seq + 1."""
    layout = config.layout
    assignment = np.zeros(layout.grid_rows, dtype=np.int64)
    assignment[split_row:] = 1
    mixed = symbols[top_seq].copy()
    next_rows = layout.symbol_rows >= split_row
    if top_seq + 1 < len(symbols):
        mixed[next_rows] = symbols[top_seq + 1][next_rows]
    return fake_extraction(
        config, frames[top_seq].header, mixed, assignment, sharpness=sharpness
    )


class TestWholeFrames:
    def test_single_capture_per_frame(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        results = []
        for i in range(3):
            assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
            results += reasm.add_capture(
                fake_extraction(config, frames[i].header, symbols[i], assignment)
            )
        results += reasm.flush()
        assert len(results) == 3
        assert all(r.ok for r in results)
        for r in results:
            assert r.payload == payloads[r.sequence]

    def test_duplicate_capture_sharper_wins(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
        # Blurry capture with corrupted symbols first...
        bad = symbols[0].copy()
        bad[:200] = (bad[:200] + 1) % 4
        reasm.add_capture(fake_extraction(config, frames[0].header, bad, assignment, 0.1))
        # ...then a sharp clean one.
        reasm.add_capture(
            fake_extraction(config, frames[0].header, symbols[0], assignment, 0.9)
        )
        results = reasm.flush()
        assert len(results) == 1
        assert results[0].ok
        assert results[0].payload == payloads[0]

    def test_blurry_duplicate_does_not_overwrite(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
        reasm.add_capture(
            fake_extraction(config, frames[0].header, symbols[0], assignment, 0.9)
        )
        bad = symbols[0].copy()
        bad[:] = 0
        reasm.add_capture(fake_extraction(config, frames[0].header, bad, assignment, 0.1))
        results = reasm.flush()
        assert results[0].ok and results[0].payload == payloads[0]


class TestMixedCaptures:
    def test_two_partials_reassemble(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        results = []
        # Capture 1: top of frame 0 + bottom of frame 1 (split at row 20).
        results += reasm.add_capture(split_extraction(config, frames, symbols, 0, 20))
        # Capture 2: top of frame 1 + bottom of frame 2 (split at row 14).
        results += reasm.add_capture(split_extraction(config, frames, symbols, 1, 14))
        # Capture 3: frame 2 whole.
        assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
        results += reasm.add_capture(
            fake_extraction(config, frames[2].header, symbols[2], assignment)
        )
        results += reasm.flush()
        by_seq = {r.sequence: r for r in results}
        # Frame 0's bottom rows were never captured (the stream started
        # mid-frame), so frame 0 is unrecoverable; frames 1 and 2 must
        # reassemble perfectly from their split parts.
        assert not by_seq[0].ok
        assert by_seq[1].ok and by_seq[1].payload == payloads[1]
        assert by_seq[2].ok and by_seq[2].payload == payloads[2]

    def test_frame_one_stitched_from_two_splits(self, config, truth):
        """Frame 1 never appears whole; its top and bottom come from
        different captures (the fundamental rolling-shutter case)."""
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        results = []
        results += reasm.add_capture(split_extraction(config, frames, symbols, 0, 18))
        results += reasm.add_capture(split_extraction(config, frames, symbols, 1, 18))
        results += reasm.flush()
        by_seq = {r.sequence: r for r in results}
        assert by_seq[1].ok
        assert by_seq[1].payload == payloads[1]

    def test_missing_rows_become_erasures(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        # Only the top 90% of frame 0 is ever captured; RS must recover.
        layout = config.layout
        assignment = np.zeros(layout.grid_rows, dtype=np.int64)
        assignment[-4:] = -1  # last rows invalid
        partial = symbols[0].copy()
        partial[layout.symbol_rows >= layout.grid_rows - 4] = -1
        reasm.add_capture(fake_extraction(config, frames[0].header, partial, assignment))
        results = reasm.flush()
        assert results[0].sequence == 0
        assert results[0].ok
        assert results[0].payload == payloads[0]

    def test_headerless_frame_fails_explicitly(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        # Only a d_t = 1 tail of frame 1 arrives; its own header never does.
        reasm.add_capture(split_extraction(config, frames, symbols, 0, 20))
        results = reasm.flush()
        by_seq = {r.sequence: r for r in results}
        # Frame 1 has rows but no header capture: fails with an explicit
        # reason rather than a bogus CRC verdict.
        assert not by_seq[1].ok
        assert "header" in by_seq[1].failure

    def test_finalization_on_later_sequence(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
        out0 = reasm.add_capture(
            fake_extraction(config, frames[0].header, symbols[0], assignment)
        )
        assert out0 == []  # nothing finalized yet
        out1 = reasm.add_capture(
            fake_extraction(config, frames[1].header, symbols[1], assignment)
        )
        assert [r.sequence for r in out1] == [0]

    def test_emitted_frames_not_duplicated(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config)
        assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
        reasm.add_capture(fake_extraction(config, frames[0].header, symbols[0], assignment))
        out = reasm.add_capture(
            fake_extraction(config, frames[1].header, symbols[1], assignment)
        )
        assert [r.sequence for r in out] == [0]
        # A late duplicate of frame 0 must not re-emit it.
        out = reasm.add_capture(
            fake_extraction(config, frames[0].header, symbols[0], assignment)
        )
        assert [r.sequence for r in out if r.sequence == 0] == []
        assert 0 not in reasm.pending_sequences

    def test_max_pending_backstop(self, config, truth):
        frames, payloads, symbols = truth
        reasm = StreamReassembler(config, max_pending=1)
        encoder = FrameEncoder(config)
        for seq in [0, 4, 8, 12]:
            frame = encoder.encode_frame(b"x", sequence=seq)
            assignment = np.zeros(config.layout.grid_rows, dtype=np.int64)
            reasm.add_capture(
                fake_extraction(config, frame.header, symbols[0], assignment)
            )
        assert len(reasm.pending_sequences) <= 2
