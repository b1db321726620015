"""COBRA baseline (Hao et al., MobiSys 2012; the paper's reference [7]).

COBRA is the first notable color-barcode streaming system and the
comparison target of every figure in the paper's evaluation.  The
reproduction keeps what defines COBRA relative to RainBar:

* **four** corner trackers (RainBar shows two suffice), costing extra
  code area;
* **timing reference blocks (TRBs)** on all four borders; a block is
  localized as the intersection of the line through its row's left and
  right TRBs with the line through its column's top and bottom TRBs —
  a *global* linear model that drifts under perspective distortion
  (paper Fig. 3);
* **no tracking bars / no frame synchronization**: the display rate must
  stay at or below half the capture rate; a capture that mixes two
  frames fails its CRC and is lost — this produces the throughput
  collapse of Fig. 11(b);
* blur assessment to pick the best capture of each frame (adopted by
  RainBar, whose reassembler ranks repeated rows by the same score);
* the same four-color alphabet and frame code, so the capacity
  difference is purely structural, as in Section III-B.

The frame code is RainBar's by construction: :class:`CobraConfig` is a
:class:`~repro.core.encoder.FrameCode` (sizing and CRC-16 + RS +
interleave protection), :class:`CobraEncoder` a
:class:`~repro.core.encoder.FrameEncoder` that paints COBRA's structure,
and assembly runs RainBar's symbol packing and
:func:`~repro.core.decoder.verify_wire`.  The header format is reused
too, so both systems pay identical metadata cost (conservative toward
COBRA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core.brightness import DEFAULT_T_SAT, estimate_black_threshold
from ..core.corners import CornerDetectionError, CornerTracker, ring_colors, tracker_candidates
from ..core.decoder import (
    _COLOR_TO_SYMBOL,
    DecodeError,
    FrameResult,
    symbols_to_wire,
    verify_wire,
)
from ..core.encoder import Frame, FrameCode, FrameEncoder
from ..core.header import HEADER_BYTES, FrameHeader, HeaderError
from ..core.locators import walk_locator_column
from ..core.palette import DATA_COLORS, Color, bytes_to_symbols, rgb_table, symbols_to_bytes
from ..core.recognition import ColorClassifier
from ..imaging.color import normalize_frame
from ..imaging.metrics import gradient_energy

__all__ = ["CobraLayout", "CobraConfig", "CobraEncoder", "CobraDecoder", "CobraReceiver"]

_CT_SIZE = 3
#: Ring colors of the four corner trackers, clockwise from top-left.
#: White would be ambiguous against white data blocks and the quiet
#: zone, so the diagonal corners share green and are separated by
#: position (top-left-most vs bottom-right-most).
_CT_RINGS = {
    "tl": Color.GREEN,
    "tr": Color.RED,
    "br": Color.GREEN,
    "bl": Color.BLUE,
}


@dataclass(frozen=True)
class CobraLayout:
    """COBRA's frame geometry.

    The border carries TRBs (black blocks alternating with white); the
    four 3x3 corner trackers sit just inside the border; the first
    interior row between the top trackers carries the header; everything
    else is code area.  With border and tracker columns excluded the
    code area is ``(cols - 6)(rows - 6)`` blocks, matching the paper's
    COBRA arithmetic.
    """

    grid_rows: int = 34
    grid_cols: int = 60
    block_px: int = 12

    def __post_init__(self) -> None:
        if self.grid_cols < 8 + 4 * HEADER_BYTES:
            raise ValueError("grid too narrow for the header row")
        if self.grid_rows < 12:
            raise ValueError("grid_rows must be at least 12")

    @property
    def size_px(self) -> tuple[int, int]:
        return self.grid_rows * self.block_px, self.grid_cols * self.block_px

    def cell_center_px(self, row: int, col: int) -> tuple[float, float]:
        return (col + 0.5) * self.block_px - 0.5, (row + 0.5) * self.block_px - 0.5

    @property
    def header_row(self) -> int:
        return 1

    @property
    def header_cols(self) -> range:
        return range(_CT_SIZE + 1, self.grid_cols - _CT_SIZE - 1)

    @property
    def ct_centers(self) -> dict[str, tuple[int, int]]:
        """Grid (row, col) of the four tracker centers."""
        return {
            "tl": (2, 2),
            "tr": (2, self.grid_cols - 3),
            "br": (self.grid_rows - 3, self.grid_cols - 3),
            "bl": (self.grid_rows - 3, 2),
        }

    @cached_property
    def trb_cells(self) -> dict[str, np.ndarray]:
        """Black TRB cells on each border, as (row, col) arrays.

        Every second border cell is black, phase-locked to the tracker
        centers so the walks from the corners land on them.
        """
        rows, cols = self.grid_rows, self.grid_cols
        vertical_rows = np.arange(2, rows - 2, 2)
        horizontal_cols = np.arange(2, cols - 2, 2)
        return {
            "left": np.column_stack([vertical_rows, np.zeros_like(vertical_rows)]),
            "right": np.column_stack([vertical_rows, np.full_like(vertical_rows, cols - 1)]),
            "top": np.column_stack([np.zeros_like(horizontal_cols), horizontal_cols]),
            "bottom": np.column_stack([np.full_like(horizontal_cols, rows - 1), horizontal_cols]),
        }

    @cached_property
    def data_cells(self) -> np.ndarray:
        """Code-area cells in row-major order.

        COBRA's code area is the interior ``(cols - 6)(rows - 6)``
        rectangle (the paper's Section III-B arithmetic): the 3-block
        ring around it is entirely structural — TRB borders, the four
        corner trackers, the header row, and white guard cells.
        """
        rows, cols = self.grid_rows, self.grid_cols
        mask = np.zeros((rows, cols), dtype=bool)
        mask[_CT_SIZE : rows - _CT_SIZE, _CT_SIZE : cols - _CT_SIZE] = True
        r, c = np.nonzero(mask)
        return np.column_stack([r, c])

    @cached_property
    def header_cells(self) -> np.ndarray:
        return np.array([[self.header_row, c] for c in self.header_cols], dtype=np.int64)

    @property
    def data_capacity_bytes(self) -> int:
        return (2 * len(self.data_cells)) // 8


@dataclass(frozen=True)
class CobraConfig(FrameCode):
    """Stream parameters shared by COBRA's sender and receiver."""

    layout: CobraLayout = field(default_factory=CobraLayout)
    display_rate: int = 15  # COBRA pins f_d to f_c / 2


class CobraEncoder(FrameEncoder):
    """Builds COBRA frames: RainBar's frame code on COBRA's structure."""

    def encode_frame(
        self, payload: bytes, sequence: int, is_last: bool = False
    ) -> "CobraFrame":
        """The COBRA frame carrying *payload*."""
        frame = super().encode_frame(payload, sequence, is_last)
        return CobraFrame(frame.header, frame.grid, frame.payload, frame.layout)

    def _structure_grid(self, header: FrameHeader) -> np.ndarray:
        """TRB borders and the four corner trackers; COBRA has no tracking bars."""
        layout = self.config.layout
        rows, cols = layout.grid_rows, layout.grid_cols
        grid = np.full((rows, cols), int(Color.WHITE), dtype=np.int64)
        for cells in layout.trb_cells.values():
            grid[cells[:, 0], cells[:, 1]] = int(Color.BLACK)
        for corner, (r, c) in layout.ct_centers.items():
            ring = _CT_RINGS[corner]
            grid[r - 1 : r + 2, c - 1 : c + 2] = int(ring)
            grid[r, c] = int(Color.BLACK)
        return grid

    def _fill_header(self, grid: np.ndarray, header: FrameHeader) -> None:
        # Unlike RainBar, COBRA pads the header row with the data filler.
        cells = self.config.layout.header_cells
        symbols = bytes_to_symbols(header.pack())
        padded = np.concatenate([symbols, np.arange(len(cells) - len(symbols)) % 4])
        grid[cells[:, 0], cells[:, 1]] = np.array(DATA_COLORS, dtype=np.int64)[padded]


@dataclass(frozen=True)
class CobraFrame(Frame):
    """One encoded COBRA frame (its ``layout`` is a :class:`CobraLayout`)."""

    def render(self) -> np.ndarray:
        """Render with a one-block white quiet zone.

        COBRA's TRBs sit on the outermost block ring, directly against
        whatever is behind the phone; like printed barcodes, the design
        needs a quiet zone so border localization can separate TRBs from
        a dark background.  (RainBar needs none — its border is the
        tracking bar and its locators are interior, which is exactly the
        border-reuse argument of Section III-B.)
        """
        rgb = rgb_table()[self.grid]
        block = np.ones((self.layout.block_px, self.layout.block_px, 1))
        image = np.kron(rgb, block)
        pad = self.layout.block_px
        return np.pad(
            image, ((pad, pad), (pad, pad), (0, 0)), mode="constant", constant_values=1.0
        )


class CobraDecoder:
    """COBRA's receive pipeline on a single capture.

    Corner detection and TRB walking reuse the shared machinery (COBRA
    pioneered both); block localization is the line-intersection scheme,
    i.e. *linear* interpolation between border anchors with no interior
    correction — the accuracy gap RainBar's Fig. 4 illustrates.
    """

    def __init__(
        self,
        config: CobraConfig,
        min_block_px: float = 3.0,
        max_block_px: float = 40.0,
        t_sat: float = DEFAULT_T_SAT,
    ):
        self.config = config
        self.min_block_px = min_block_px
        self.max_block_px = max_block_px
        self.t_sat = t_sat

    def decode_capture(self, image: np.ndarray) -> FrameResult:
        """Decode one capture as one frame (COBRA cannot split mixes)."""
        image = normalize_frame(image)
        header, classifier, anchors = self.locate(image)
        centers = self._cell_centers(self.config.layout.data_cells, anchors)
        colors = classifier.classify_centers(image, centers)
        symbols = _COLOR_TO_SYMBOL[colors]
        return self.assemble(header, symbols)

    def locate(
        self, image: np.ndarray
    ) -> tuple[FrameHeader, ColorClassifier, dict[str, np.ndarray]]:
        """Header, classifier and TRB anchors of a normalized capture.

        Brightness, black mask, corner trackers, border walks and the
        header row: everything :meth:`decode_capture` does before it
        reads the code area, and all :class:`CobraReceiver` needs to
        key a capture by its sequence number.
        """
        est = estimate_black_threshold(image)
        classifier = ColorClassifier(t_value=est.t_value, t_sat=self.t_sat)
        black = classifier.black_mask(image)
        corners = self._detect_corners(image, classifier, black)
        anchors = self._walk_borders(image, classifier, corners, black)
        header = self._read_header(image, classifier, corners, anchors)
        return header, classifier, anchors

    # -- corner detection -------------------------------------------------

    def _detect_corners(
        self,
        image: np.ndarray,
        classifier: ColorClassifier,
        black: np.ndarray | None = None,
    ) -> dict[str, CornerTracker]:
        """The four trackers; *black* is ``classifier.black_mask(image)``."""
        if black is None:
            black = classifier.black_mask(image)
        candidates = tracker_candidates(black, self.min_block_px, self.max_block_px)
        found: dict[Color, list[CornerTracker]] = {}
        if len(candidates):
            colors = ring_colors(image, classifier, candidates)
            ring_palette = (Color.GREEN, Color.RED, Color.BLUE)
            purity = np.stack([np.mean(colors == int(c), axis=1) for c in ring_palette], axis=1)
            # 0.7 rather than RainBar's 0.8: chroma subsampling in the
            # camera pipeline desaturates the blue ring (low luma)
            # around the black center.
            for i, j in zip(*np.nonzero(purity >= 0.7)):
                cx, cy = candidates.centroid[i]
                tracker = CornerTracker(
                    (float(cx), float(cy)), float(candidates.side[i]), ring_palette[j],
                    float(purity[i, j]),
                )
                found.setdefault(ring_palette[j], []).append(tracker)

        greens = sorted(found.get(Color.GREEN, []), key=lambda t: -t.purity)[:2]
        if len(greens) < 2 or Color.RED not in found or Color.BLUE not in found:
            raise DecodeError("COBRA corner trackers not found")
        greens.sort(key=lambda t: t.center[0] + t.center[1])
        by_corner = {
            "tl": greens[0],
            "br": greens[1],
            "tr": max(found[Color.RED], key=lambda t: t.purity),
            "bl": max(found[Color.BLUE], key=lambda t: t.purity),
        }
        if by_corner["tl"].center[0] >= by_corner["tr"].center[0]:
            raise DecodeError("COBRA corner layout implausible")
        if by_corner["tl"].center[1] >= by_corner["bl"].center[1]:
            raise DecodeError("COBRA corner layout implausible")
        return by_corner

    # -- TRB anchors --------------------------------------------------------

    def _walk_borders(
        self,
        image: np.ndarray,
        classifier: ColorClassifier,
        corners: dict[str, CornerTracker],
        black: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Positions of all black TRBs on each border.

        Each border is walked progressively from its two adjacent
        tracker centers outward — the tracker centers give the walk
        direction and the TRB pitch (2 blocks).  The walk extrapolates
        from the tracker center to the border first.  *black* is
        ``classifier.black_mask(image)``, computed here if not given.
        """
        layout = self.config.layout
        if black is None:
            black = classifier.black_mask(image)
        block = float(np.mean([c.block_size for c in corners.values()]))
        centers = {k: np.array(v.center) for k, v in corners.items()}

        out = {}
        for border, (a_key, b_key, outward_pairs) in {
            "top": ("tl", "tr", ("bl", "tl")),
            "bottom": ("bl", "br", ("tl", "bl")),
            "left": ("tl", "bl", ("tr", "tl")),
            "right": ("tr", "br", ("tl", "tr")),
        }.items():
            a, b = centers[a_key], centers[b_key]
            inner, outer = centers[outward_pairs[0]], centers[outward_pairs[1]]
            # Outward unit vector (from the inner tracker through the outer
            # one): the border lies 2 blocks past the tracker centers.
            direction = outer - inner
            direction = direction / np.linalg.norm(direction)
            start = a + 2.0 * block * direction
            step_along = (b - a) / np.linalg.norm(b - a)
            cells = layout.trb_cells[border]
            count = len(cells)
            walk = walk_locator_column(black, start, step_along * 2.0 * block, count, block)
            out[border] = walk.positions
        return out

    def _cell_centers(self, cells: np.ndarray, anchors: dict[str, np.ndarray]) -> np.ndarray:
        """Line-intersection localization for each (row, col) cell.

        The row line runs through the interpolated left/right TRBs of
        that row; the column line through the interpolated top/bottom
        TRBs; the block is their intersection — COBRA's scheme, linear
        by construction.
        """
        layout = self.config.layout
        cells = np.atleast_2d(cells)
        rows = cells[:, 0].astype(np.float64)
        cols = cells[:, 1].astype(np.float64)

        left = self._border_point(anchors["left"], layout.trb_cells["left"][:, 0], rows)
        right = self._border_point(anchors["right"], layout.trb_cells["right"][:, 0], rows)
        top = self._border_point(anchors["top"], layout.trb_cells["top"][:, 1], cols)
        bottom = self._border_point(anchors["bottom"], layout.trb_cells["bottom"][:, 1], cols)
        return _intersect_lines(left, right, top, bottom)

    @staticmethod
    def _border_point(anchor_positions: np.ndarray, anchor_indices: np.ndarray,
                      query: np.ndarray) -> np.ndarray:
        """Interpolate/extrapolate border anchors at fractional indices."""
        idx = anchor_indices.astype(np.float64)
        xs = np.interp(query, idx, anchor_positions[:, 0])
        ys = np.interp(query, idx, anchor_positions[:, 1])
        out = np.column_stack([xs, ys])
        if len(idx) >= 2:
            lo_slope = (anchor_positions[1] - anchor_positions[0]) / (idx[1] - idx[0])
            hi_slope = (anchor_positions[-1] - anchor_positions[-2]) / (idx[-1] - idx[-2])
            below = query < idx[0]
            above = query > idx[-1]
            out[below] = anchor_positions[0] + np.outer(query[below] - idx[0], lo_slope)
            out[above] = anchor_positions[-1] + np.outer(query[above] - idx[-1], hi_slope)
        return out

    # -- header + assembly ---------------------------------------------------

    def _read_header(
        self,
        image: np.ndarray,
        classifier: ColorClassifier,
        corners: dict[str, CornerTracker],
        anchors: dict[str, np.ndarray],
    ) -> FrameHeader:
        layout = self.config.layout
        centers = self._cell_centers(layout.header_cells, anchors)
        colors = classifier.classify_centers(image, centers)
        symbols = _COLOR_TO_SYMBOL[colors][: HEADER_BYTES * 4]
        symbols = np.where(symbols < 0, 0, symbols)
        try:
            return FrameHeader.unpack(symbols_to_bytes(symbols))
        except HeaderError as exc:
            raise DecodeError(f"COBRA header unreadable: {exc}") from exc

    def assemble(self, header: FrameHeader, symbols: np.ndarray) -> FrameResult:
        """RS + CRC on one frame's 2-bit symbols, as RainBar does."""
        config = self.config
        _, wire, byte_erasures = symbols_to_wire(symbols, config.coded_bytes_per_frame)
        return verify_wire(config, header, wire, byte_erasures)


class CobraReceiver:
    """Stream-level COBRA reception with blur assessment.

    Collects every capture, keeps the sharpest per readable sequence
    number (the highest :func:`~repro.imaging.metrics.gradient_energy`;
    a tie keeps the earlier capture), and decodes each frame once.
    Mixed captures usually fail header or payload CRC and are simply
    lost — COBRA has no tracking bars to recover them.
    """

    def __init__(self, decoder: CobraDecoder):
        self.decoder = decoder
        #: Sequence -> (sharpness, normalized capture) of the best capture.
        self._best: dict[int, tuple[float, np.ndarray]] = {}
        self.dropped_captures = 0

    def offer(self, image: np.ndarray) -> None:
        """Register one capture (header pre-read to key blur assessment)."""
        image = normalize_frame(image)
        try:
            header, _, _ = self.decoder.locate(image)
        except DecodeError:
            self.dropped_captures += 1
            return
        score = gradient_energy(image)
        incumbent = self._best.get(header.sequence)
        if incumbent is None or score > incumbent[0]:
            self._best[header.sequence] = (score, image)

    def results(self) -> list[FrameResult]:
        """Decode the best capture of every frame seen."""
        best, self._best = self._best, {}
        out = []
        for seq, (_, image) in sorted(best.items()):
            try:
                out.append(self.decoder.decode_capture(image))
            except (DecodeError, CornerDetectionError) as exc:
                out.append(FrameResult(seq, False, b"", failure=str(exc)))
        return out


def _intersect_lines(
    left: np.ndarray, right: np.ndarray, top: np.ndarray, bottom: np.ndarray
) -> np.ndarray:
    """Vectorized intersection of line(left_i, right_i) x line(top_i, bottom_i)."""
    d1 = right - left
    d2 = bottom - top
    diff = top - left
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    cross = np.where(np.abs(cross) < 1e-12, 1e-12, cross)
    t = (diff[:, 0] * d2[:, 1] - diff[:, 1] * d2[:, 0]) / cross
    return left + d1 * t[:, np.newaxis]
