"""Receiver-side pipeline: captured image -> symbols -> frame payload.

The pipeline follows the paper's receiver column (Fig. 1):

1. brightness assessment -> T_v (:mod:`repro.core.brightness`);
2. corner tracker detection (:mod:`repro.core.corners`);
3. progressive locator localization (:mod:`repro.core.locators`);
4. block localization via Eq. (1) (:mod:`repro.core.blocks`);
5. header extraction and per-row tracking-bar reading;
6. HSV color recognition (:mod:`repro.core.recognition`);
7. de-interleave + RS error correction + CRC-16 verification.

:class:`FrameDecoder.extract` performs steps 1-6 on a single capture and
returns a :class:`CaptureExtraction` — the symbol grid plus the per-row
frame assignment that frame synchronization needs.  Turning (possibly
several) extractions into frame payloads is step 7,
:func:`assemble_frame`, used directly for whole captures and by
:class:`repro.core.sync.StreamReassembler` for rolling-shutter mixes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterable, Iterator, Sized

import numpy as np

from .. import telemetry
from ..coding.crc import crc16
from ..coding.reed_solomon import RSDecodeError, RSDecodeStats
from ..imaging.color import normalize_frame
from ..telemetry import quality as quality_metrics
from ..telemetry.events import EventSink
from ..telemetry.metrics import (
    DECODE_LATENCY_BUCKETS_MS,
    TRACKING_DT_BUCKETS,
    MetricsRegistry,
)
from .blocks import BlockLocalizer
from .brightness import DEFAULT_T_SAT, estimate_black_threshold
from .corners import CornerDetection, CornerDetectionError, detect_corner_trackers
from .encoder import FrameCode, FrameCodecConfig
from .header import HEADER_BYTES, FrameHeader, HeaderError
from .locators import (
    LocatorColumn,
    LocatorError,
    find_first_middle_locator,
    walk_locator_column,
)
from .palette import Color, bytes_to_symbols, symbols_to_bytes, tracking_bar_difference
from .recognition import ColorClassifier

__all__ = [
    "DecodeError",
    "DecodeFailure",
    "DECODE_STAGES",
    "CaptureExtraction",
    "FrameResult",
    "FrameDecoder",
    "assemble_frame",
    "symbols_to_wire",
    "verify_wire",
]

#: Color index -> 2-bit symbol; black and out-of-alphabet map to -1 (erasure).
_COLOR_TO_SYMBOL = np.full(8, -1, dtype=np.int64)
_COLOR_TO_SYMBOL[int(Color.WHITE)] = 0
_COLOR_TO_SYMBOL[int(Color.RED)] = 1
_COLOR_TO_SYMBOL[int(Color.GREEN)] = 2
_COLOR_TO_SYMBOL[int(Color.BLUE)] = 3


#: Pipeline stages a decode can fail in, in pipeline order.  "input" is
#: capture validation, "assemble" is the coding step 7, "capture" the
#: generic stage of errors raised outside the staged pipeline.
DECODE_STAGES = (
    "input",
    "brightness",
    "corners",
    "locators",
    "classify",
    "header",
    "tracking",
    "assemble",
    "capture",
)


@dataclass(frozen=True)
class DecodeFailure:
    """Structured decode-failure taxonomy: which stage gave up, and why.

    ``stage`` is one of :data:`DECODE_STAGES`; ``reason`` is the
    human-readable message; ``exception`` names the original exception
    class when the failure wraps an unexpected error (empty for the
    pipeline's own deliberate rejections).
    """

    stage: str
    reason: str
    exception: str = ""

    def __str__(self) -> str:
        origin = f" [{self.exception}]" if self.exception else ""
        return f"{self.stage}: {self.reason}{origin}"


#: Exception types a corrupted capture can legitimately push out of the
#: numeric pipeline (degenerate geometry, non-finite values, empty
#: slices).  ``extract`` converts these to stage-tagged
#: :class:`DecodeError`; anything else (TypeError, AttributeError...)
#: is a programming error and still propagates.
_UNEXPECTED_ERRORS = (
    ValueError,
    IndexError,
    KeyError,
    ZeroDivisionError,
    FloatingPointError,
    OverflowError,
    np.linalg.LinAlgError,
)


class DecodeError(RuntimeError):
    """A capture could not be decoded at all (no corners, no header...).

    Carries a :class:`DecodeFailure` so callers that catch it (the
    receivers, the transfer session, the fault campaign) can bin the
    loss by pipeline stage instead of string-matching messages.
    """

    def __init__(self, message: str, stage: str = "capture", exception: str = ""):
        super().__init__(message)
        self.failure = DecodeFailure(stage=stage, reason=str(message), exception=exception)

    @property
    def stage(self) -> str:
        return self.failure.stage


@dataclass(frozen=True)
class DecodeDiagnostics:
    """Pipeline internals exposed for benchmarks and debugging."""

    t_value: float
    block_size: float
    locator_refinement: float  # fraction of locators that converged
    corner_purity: float
    #: Wall-clock per pipeline stage in milliseconds (insertion order is
    #: pipeline order); bench E10 reports this as the stage breakdown.
    stage_ms: dict = field(default_factory=dict)
    #: Populated by :meth:`FrameDecoder.extract_diagnosed` when the
    #: capture failed; ``None`` for successful extractions.
    failure: DecodeFailure | None = None


@dataclass
class CaptureExtraction:
    """Everything one capture yields before error correction.

    ``row_assignment[r]`` is 0 when grid row ``r`` belongs to the frame
    whose header was read, 1 when it belongs to the next frame (rolling
    shutter mix), and -1 when the tracking bars disagreed (the row is
    treated as erased).  ``data_symbols`` holds one 2-bit symbol (or -1)
    per layout data cell, in layout order; rows assigned to the next
    frame still carry their symbols here — the reassembler routes them.
    """

    header: FrameHeader
    row_assignment: np.ndarray  # (grid_rows,)
    data_symbols: np.ndarray  # (num_data_cells,)
    diagnostics: DecodeDiagnostics
    #: The capture as decoded: an 8-bit capture as given (never divided
    #: into a float frame), any other input as its float64 frame.  The
    #: reassembler scores its blur to rank repeated captures of a row.
    image: np.ndarray = field(repr=False)
    centers: np.ndarray | None = field(repr=False, default=None)  # (N, 2) data-cell centers
    #: Per-grid-row confidence in [0, 1]: rows adjacent to the rolling-
    #: shutter split are exposure-blended and should lose merge conflicts.
    row_confidence: np.ndarray | None = field(default=None)

    @property
    def has_next_frame_rows(self) -> bool:
        """True when the capture mixes two consecutive frames."""
        return bool(np.any(self.row_assignment == 1))

    def own_frame_symbols(self, symbol_rows: np.ndarray) -> np.ndarray:
        """``data_symbols`` with every row not assigned to the header's
        frame erased: the whole-frame view of the single-shot decoders.

        *symbol_rows* is the layout's grid row of each data symbol.
        """
        foreign = (self.row_assignment != 0)[symbol_rows]
        return np.where(foreign, -1, self.data_symbols)


@dataclass(frozen=True)
class FrameResult:
    """Outcome of decoding one logical frame."""

    sequence: int
    ok: bool
    payload: bytes
    is_last: bool = False
    erased_bytes: int = 0
    failure: str = ""

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


class FrameDecoder:
    """Decodes captures produced by a RainBar sender with *config*.

    ``use_middle_locator=False`` switches block localization to the
    two-column COBRA-style interpolation (ablation A1); the mean-filter
    radius and T_sat knobs feed ablation A2.
    """

    def __init__(
        self,
        config: FrameCodecConfig,
        min_block_px: float = 3.0,
        max_block_px: float = 40.0,
        t_sat: float = DEFAULT_T_SAT,
        mean_filter_radius: int = 1,
        use_middle_locator: bool = True,
        projective_interpolation: bool = True,
        classifier_mode: str = "hsv",
        use_tracking_bars: bool = True,
    ):
        self.config = config
        self.min_block_px = min_block_px
        self.max_block_px = max_block_px
        self.t_sat = t_sat
        self.mean_filter_radius = mean_filter_radius
        self.use_middle_locator = use_middle_locator
        self.projective_interpolation = projective_interpolation
        self.classifier_mode = classifier_mode
        self.use_tracking_bars = use_tracking_bars

    # -- step 1-6: geometry + classification -----------------------------

    def extract(self, image: np.ndarray) -> CaptureExtraction:
        """Run geometry recovery and color recognition on one capture.

        Raises :exc:`DecodeError` when the capture is unusable (corner
        trackers or locator columns not found, header CRC failure).  The
        error always carries a stage-tagged :class:`DecodeFailure`:
        deliberate pipeline rejections keep their stage, and any
        unexpected numeric/indexing error from a corrupted capture is
        converted to one tagged with the stage it escaped from, so a
        fault-injected image can degrade the link but never crash it.

        Every stage runs under a ``perf_counter`` stage clock that
        fills ``DecodeDiagnostics.stage_ms`` directly, with or without
        telemetry.
        """
        registry = telemetry.registry()
        stage_ms: dict[str, float] = {}
        current = "input"

        @contextmanager
        def stage(name: str) -> Iterator[None]:
            nonlocal current
            current = name
            t0 = time.perf_counter()
            try:
                yield
            finally:
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                stage_ms[name] = stage_ms.get(name, 0.0) + elapsed_ms

        started = time.perf_counter()
        try:
            extraction = self._extract_stages(image, stage, stage_ms)
        except DecodeError as exc:
            registry.counter("decode.failures", stage=exc.stage).inc()
            raise
        except _UNEXPECTED_ERRORS as exc:
            registry.counter("decode.failures", stage=current).inc()
            raise DecodeError(
                f"{type(exc).__name__} during {current}: {exc}",
                stage=current,
                exception=type(exc).__name__,
            ) from exc
        registry.counter("decode.captures_ok").inc()
        registry.histogram(
            "decode.latency_ms", DECODE_LATENCY_BUCKETS_MS, timing=True
        ).observe((time.perf_counter() - started) * 1000.0)
        if registry:
            quality_metrics.record_capture_quality(
                registry,
                locator_refinement=extraction.diagnostics.locator_refinement,
                corner_purity=extraction.diagnostics.corner_purity,
            )
        return extraction

    def _extract_stages(
        self,
        image: np.ndarray,
        stage: Callable[[str], ContextManager[None]],
        stage_ms: dict[str, float],
    ) -> CaptureExtraction:
        with stage("input"):
            # An 8-bit capture is read where it is sampled, as ``v / 255``
            # (estimate_black_threshold, ColorClassifier.black_mask,
            # sample_bilinear), and is always finite: it is neither
            # copied nor checked.  Other input decodes as its float64
            # frame.
            try:
                image = np.asarray(image)
                if image.dtype != np.uint8:
                    image = normalize_frame(image)
            except TypeError as exc:
                # Non-numeric input (an exhausted iterator, an empty
                # generator of frames, objects) becomes an object array
                # whose float conversion raises TypeError — which is not
                # in _UNEXPECTED_ERRORS, so without this it would escape
                # extract_diagnosed.  Bad input is an input-stage
                # failure, not a crash.
                raise DecodeError(
                    f"capture is not numeric image data: {exc}",
                    stage="input",
                    exception=type(exc).__name__,
                ) from exc
            if image.ndim != 3 or image.shape[-1] != 3 or image.size == 0:
                raise DecodeError(
                    f"capture must be a non-empty (H, W, 3) array, got shape "
                    f"{image.shape}",
                    stage="input",
                )
            if image.dtype != np.uint8 and not np.all(np.isfinite(image)):
                # Corrupted sensor rows (e.g. injected scanline faults)
                # may carry NaN/inf; treat them as black rather than
                # letting non-finite values poison every later stage.
                image = np.nan_to_num(image, nan=0.0, posinf=1.0, neginf=0.0)
        layout = self.config.layout

        with stage("brightness"):
            brightness = estimate_black_threshold(image)
        classifier = ColorClassifier(
            t_value=brightness.t_value,
            t_sat=self.t_sat,
            mean_filter_radius=self.mean_filter_radius,
            mode=self.classifier_mode,
        )

        with stage("corners"):
            # One black mask serves corners and locators: both only ask
            # which pixels classify as black.
            black = classifier.black_mask(image)
            try:
                corners = detect_corner_trackers(
                    image, classifier, black, self.min_block_px, self.max_block_px
                )
            except CornerDetectionError as exc:
                raise DecodeError(str(exc), stage="corners") from exc

        with stage("locators"):
            localizer = self._localize(black, corners)
            centers = localizer.cell_centers(layout.data_cells)
            if not self.use_middle_locator:
                centers = localizer.two_point_centers_naive(layout.data_cells)

        with stage("classify"):
            # One bilinear sampling fan + one HSV classification covers
            # the header row, both tracking bars and every data cell
            # (previously four separate fans per capture).
            grid_rows = layout.grid_rows
            header_centers = localizer.cell_centers(layout.header_cells)
            segments = [header_centers]
            if self.use_tracking_bars:
                rows = np.arange(grid_rows)
                segments.append(localizer.column_centers(rows, 0))
                segments.append(localizer.column_centers(rows, layout.grid_cols - 1))
            segments.append(centers)
            symbols = _COLOR_TO_SYMBOL[
                classifier.classify_centers(image, np.concatenate(segments))
            ]
            n_header = len(header_centers)
            header_symbols = symbols[:n_header]
            if self.use_tracking_bars:
                left_sym = symbols[n_header : n_header + grid_rows]
                right_sym = symbols[n_header + grid_rows : n_header + 2 * grid_rows]
                data_symbols = symbols[n_header + 2 * grid_rows :]
            else:
                left_sym = right_sym = None
                data_symbols = symbols[n_header:]

        with stage("header"):
            header = self._parse_header(header_symbols)

        with stage("tracking"):
            if self.use_tracking_bars:
                row_assignment = _assign_rows(left_sym, right_sym, header.tracking_indicator)
            else:
                # Ablation A3: a receiver without frame synchronization
                # assumes every captured row belongs to the header's
                # frame — exactly what COBRA does, and what fails once
                # f_d > f_c/2.
                row_assignment = np.zeros(grid_rows, dtype=np.int64)
            # Rows whose tracking bars disagreed are erased outright.
            bad_rows = np.flatnonzero(row_assignment < 0)
            if bad_rows.size:
                erased = np.isin(layout.symbol_rows, bad_rows)
                data_symbols = np.where(erased, -1, data_symbols)

        diagnostics = DecodeDiagnostics(
            t_value=brightness.t_value,
            block_size=corners.block_size,
            locator_refinement=(
                localizer.left.refinement_rate
                + localizer.middle.refinement_rate
                + localizer.right.refinement_rate
            )
            / 3.0,
            corner_purity=min(corners.left.purity, corners.right.purity),
            stage_ms=stage_ms,
        )
        # Rows at the rolling-shutter split are exposure-blended: their
        # symbols are the least trustworthy of any capture that holds
        # them, so they carry reduced merge confidence.
        confidence = np.ones(layout.grid_rows)
        changed = np.flatnonzero(np.diff(row_assignment) != 0)
        if changed.size:
            positions = np.arange(layout.grid_rows)
            near_split = (
                (positions >= changed[:, np.newaxis] - 1)
                & (positions <= changed[:, np.newaxis] + 2)
            ).any(axis=0)
            confidence[near_split] = 0.2
        confidence[row_assignment < 0] = 0.0

        return CaptureExtraction(
            header=header,
            row_assignment=row_assignment,
            data_symbols=data_symbols,
            diagnostics=diagnostics,
            image=image,
            centers=centers,
            row_confidence=confidence,
        )

    def extract_diagnosed(
        self, image: np.ndarray
    ) -> tuple[CaptureExtraction | None, DecodeDiagnostics]:
        """Graceful-degradation variant of :meth:`extract` — never raises.

        Returns ``(extraction, diagnostics)`` on success and
        ``(None, diagnostics)`` on failure, with the failure taxonomy
        on ``diagnostics.failure``.  This is the API the receivers and
        the transfer session use: a corrupted capture becomes a counted
        loss with a stage attribution, not an exception.
        """
        try:
            extraction = self.extract(image)
        except DecodeError as exc:
            nan = float("nan")
            return None, DecodeDiagnostics(
                t_value=nan,
                block_size=nan,
                locator_refinement=0.0,
                corner_purity=0.0,
                failure=exc.failure,
            )
        return extraction, extraction.diagnostics

    def decode_capture(self, image: np.ndarray) -> FrameResult:
        """Single-shot decode assuming the capture holds one whole frame.

        The fast path for ``f_d <= f_c / 2``; mixed captures should go
        through :class:`repro.core.sync.StreamReassembler` instead.
        """
        extraction = self.extract(image)
        symbols = extraction.own_frame_symbols(self.config.layout.symbol_rows)
        return assemble_frame(self.config, extraction.header, symbols)

    # -- internals ---------------------------------------------------------

    def _localize(self, black: np.ndarray, corners: CornerDetection) -> BlockLocalizer:
        layout = self.config.layout
        count = len(list(layout.locator_rows))
        step = corners.row_step() * 2.0
        block = corners.block_size

        left = walk_locator_column(
            black, np.array(corners.left.center), step, count, block,
            column=layout.left_locator_col, start_row=layout.ct_center_row,
        )
        right = walk_locator_column(
            black, np.array(corners.right.center), step, count, block,
            column=layout.right_locator_col, start_row=layout.ct_center_row,
        )

        # Seed the middle-column search.  The paper scans a 3-BST window
        # around the midpoint of the CT centers; under strong perspective
        # the true middle column shifts away from the image-space
        # midpoint, so the seed is refined projectively from the four
        # outer anchors already walked (CT centers + bottom locators) —
        # same window and component test, better-centered window.
        midpoint = self._middle_seed(corners, left, right)
        try:
            first_mid = find_first_middle_locator(
                black, midpoint, block, self.min_block_px, self.max_block_px
            )
        except LocatorError as exc:
            if self.use_middle_locator:
                raise DecodeError(str(exc), stage="locators") from exc
            first_mid = midpoint  # ablation path tolerates a missing middle
        middle = walk_locator_column(
            black, first_mid, step, count, block,
            column=layout.middle_locator_col, start_row=layout.ct_center_row,
        )

        if left.refinement_rate < 0.3 or right.refinement_rate < 0.3:
            raise DecodeError(
                "locator columns mostly failed to converge "
                f"(left {left.refinement_rate:.0%}, right {right.refinement_rate:.0%})",
                stage="locators",
            )
        return BlockLocalizer(
            layout=layout,
            left=left,
            middle=middle,
            right=right,
            projective=self.projective_interpolation,
        )

    def _middle_seed(
        self, corners: CornerDetection, left: LocatorColumn, right: LocatorColumn
    ) -> np.ndarray:
        """Expected position of the first middle locator.

        Estimates the grid->image homography from the four outer anchors
        and maps the middle column's first locator cell through it.
        Falls back to the plain CT midpoint when the anchors are
        degenerate (e.g. a very short locator walk).
        """
        from ..imaging.geometry import apply_homography, estimate_homography

        layout = self.config.layout
        row0 = layout.ct_center_row
        row_last = layout.last_locator_row
        src = np.array(
            [
                [layout.left_locator_col, row0],
                [layout.right_locator_col, row0],
                [layout.left_locator_col, row_last],
                [layout.right_locator_col, row_last],
            ],
            dtype=np.float64,
        )
        dst = np.array(
            [left.positions[0], right.positions[0], left.positions[-1], right.positions[-1]]
        )
        try:
            h = estimate_homography(src, dst)
            return apply_homography(h, np.array([layout.middle_locator_col, row0], float))
        except (np.linalg.LinAlgError, ValueError):
            return 0.5 * (np.array(corners.left.center) + np.array(corners.right.center))

    def _parse_header(self, symbols: np.ndarray) -> FrameHeader:
        """Validate and unpack already-classified header-row symbols."""
        needed = HEADER_BYTES * 4
        if len(symbols) < needed:
            raise DecodeError("header row too short for the header format", stage="header")
        head = np.where(symbols[:needed] < 0, 0, symbols[:needed])
        try:
            header = FrameHeader.unpack(symbols_to_bytes(head))
        except HeaderError as exc:
            raise DecodeError(f"header unreadable: {exc}", stage="header") from exc
        if header.display_rate == 0:
            # An all-zero header row is CRC-consistent (CRC-8 of 0x0000 is
            # 0x00); a real sender always advertises a non-zero rate.
            raise DecodeError("header implausible: display rate 0", stage="header")
        return header

    # -- batch decoding ----------------------------------------------------

    def decode_stream(
        self,
        captures: Iterable[Any],
        workers: int | None = None,
        *,
        chunksize: int | None = None,
    ) -> list[FrameResult | None]:
        """Decode a batch of captures, optionally fanning across processes.

        *captures* is an iterable of capture images (or objects with an
        ``image`` attribute, e.g. :class:`repro.channel.link.Capture`),
        consumed lazily when it is sized.  Entries whose capture is
        undecodable (:exc:`DecodeError`) come back as ``None``; order
        matches the input.  ``workers`` follows the ``REPRO_WORKERS``
        convention of :mod:`repro.serve` — ``None`` reads the
        environment, ``1`` decodes serially in-process, and ``N > 1``
        fans captures over :func:`repro.serve.map_ordered`'s persistent
        executor, the paper's 1-vs-4-threads comparison (Section IV-D);
        where only one process would run, the stream decodes
        in-process.  ``chunksize`` sets captures per message (default
        :func:`repro.serve.default_chunksize`).

        Each capture is one job, so the output — merged metrics
        included — is bit-identical to the serial decode for any worker
        count or chunk size.
        """
        from ..serve import default_chunksize, map_ordered, resolve_workers

        if not isinstance(captures, Sized):
            captures = list(captures)
        workers = resolve_workers(workers)
        if chunksize is None:
            chunksize = default_chunksize(len(captures), workers)
        registry = telemetry.registry()
        collect = bool(registry)
        jobs = (
            {"image": getattr(c, "image", c), "decoder": self, "with_metrics": collect}
            for c in captures
        )
        out: list[FrameResult | None] = []
        for result, captured in map_ordered(
            _decode_job, jobs, workers=workers, chunksize=chunksize
        ):
            # Folding per capture, in job order, keeps the merged
            # metrics bit-identical to the serial decode.
            if captured is not None:
                _fold_capture_metrics(registry, *captured)
            out.append(result)
        return out

    def decode_trace(
        self,
        trace: Any,
        workers: int | None = None,
        *,
        chunksize: int | None = None,
        verify: bool = True,
    ) -> list[FrameResult | None]:
        """Replay a recorded capture trace through :meth:`decode_stream`.

        *trace* is a trace directory path (see :mod:`repro.io.trace`)
        or an open :class:`~repro.io.trace.TraceReader`; ``workers``
        and ``chunksize`` mean what they mean for :meth:`decode_stream`.
        Frames stream chunk by chunk — a long session never loads fully
        into memory.  Frames reach the decoder with the dtype the trace
        stored, exactly like the in-memory captures, so results match
        decoding those captures for any worker count.

        Conformance violations (truncated chunks, index disagreement,
        non-finite timing) raise :class:`~repro.io.trace.
        TraceFormatError` — a corrupt trace never yields a silent
        partial decode.  ``verify=False`` skips only the per-chunk
        checksum, never the structural checks.
        """
        from ..io.trace import TraceReader

        reader = trace if isinstance(trace, TraceReader) else TraceReader(
            trace, verify=verify
        )
        # Run-shape metadata, not channel quality: timing-flagged so a
        # replay's deterministic snapshot equals the live-decode one.
        telemetry.registry().counter("decode.trace_replays", timing=True).inc()
        return self.decode_stream(reader, workers, chunksize=chunksize)


def _assign_rows(
    left_sym: np.ndarray, right_sym: np.ndarray, frame_indicator: int
) -> np.ndarray:
    """Vectorized per-row frame assignment from classified bar symbols.

    Mirrors the paper's rule row by row: bars that both read but
    disagree erase the row (-1); otherwise the readable bar's cyclic
    distance d_t to the header's indicator assigns the row to the
    current frame (0) or the next (1), and d_t >= 2 erases it.
    """
    left_sym = np.asarray(left_sym, dtype=np.int64)
    right_sym = np.asarray(right_sym, dtype=np.int64)
    disagree = (left_sym >= 0) & (right_sym >= 0) & (left_sym != right_sym)
    indicator = np.where(left_sym >= 0, left_sym, right_sym)
    d_t = tracking_bar_difference(indicator, frame_indicator)
    registry = telemetry.registry()
    if registry:
        readable = indicator >= 0
        registry.histogram("decode.tracking_d_t", TRACKING_DT_BUCKETS).observe_many(
            d_t[readable]
        )
        registry.counter("decode.tracking_rows_unreadable").inc(
            int(np.sum(~readable) + np.sum(disagree))
        )
    usable = (indicator >= 0) & ~disagree & (d_t <= 1)
    return np.where(usable, d_t, -1).astype(np.int64)


def _decode_one_or_none(decoder: FrameDecoder, image: np.ndarray) -> FrameResult | None:
    try:
        return decoder.decode_capture(image)
    except DecodeError:
        return None


#: One capture's collected metrics: (deterministic, timing-only) snapshots.
CaptureMetrics = tuple[dict[str, Any], dict[str, Any]]


def _decode_job(
    image: np.ndarray, decoder: FrameDecoder, with_metrics: bool
) -> tuple[FrameResult | None, CaptureMetrics | None]:
    """One capture's decode job (module level => picklable).

    Undecodable captures map to ``None``.  With ``with_metrics=True``
    the capture decodes into a fresh private registry whose snapshots
    come back with the result.  The per-capture snapshot is the
    worker-count-independent fold unit for quality metrics: serial and
    pooled decodes alike fold the snapshots in capture order, so the
    merged result — float histogram sums included — is bit-identical
    no matter how captures were chunked across processes.  Event
    emission stays on the ambient sink.
    """
    if not with_metrics:
        return _decode_one_or_none(decoder, image), None
    local = MetricsRegistry()
    ambient_sink = telemetry.sink()
    with telemetry.scoped(
        registry=local,
        sink=ambient_sink if isinstance(ambient_sink, EventSink) else None,
    ):
        result = _decode_one_or_none(decoder, image)
    det = local.snapshot(include_timing=False)
    full = local.snapshot()
    timing = {
        section: {
            key: value
            for key, value in entries.items()
            if key not in det.get(section, {})
        }
        for section, entries in full.items()
    }
    return result, (det, timing)


def _fold_capture_metrics(
    registry: Any, det: dict[str, Any], timing: dict[str, Any]
) -> None:
    """Fold one capture's collected snapshots into *registry*.

    The timing-only remainder (e.g. ``decode.latency_ms``) is merged
    flagged as timing so it survives into ``metrics.json`` without
    contaminating deterministic ``include_timing=False`` snapshots.
    """
    registry.merge_snapshot(det)
    if any(timing.values()):
        registry.merge_snapshot(timing, timing=True)


def assemble_frame(
    config: FrameCodecConfig,
    header: FrameHeader,
    symbols: np.ndarray,
) -> FrameResult:
    """Error-correct and verify one frame's symbol vector (step 7).

    *symbols* must align with ``config.layout.data_cells``; entries of
    -1 are erasures (unclassifiable blocks, bad rows, rows never seen).
    A short vector (e.g. a truncated extraction from a corrupted
    capture) is padded with erasures, and any coding-layer exception
    becomes a failed :class:`FrameResult` rather than a raise.
    """
    active, wire, byte_erasures = symbols_to_wire(symbols, config.coded_bytes_per_frame)
    registry = telemetry.registry()
    result = verify_wire(config, header, wire, byte_erasures, registry)
    if registry:
        if result.ok:
            # Ground truth for the confusion matrix: re-encode the
            # CRC-verified message back onto the wire and compare against
            # the pre-correction observed symbols.
            reencoded = config.encode_wire(result.payload, header.payload_checksum)
            quality_metrics.record_confusion(registry, bytes_to_symbols(reencoded), active)
        registry.counter("decode.frames", ok=str(result.ok).lower()).inc()
        if not result.ok:
            registry.counter("decode.failures", stage="assemble").inc()
    return result


def symbols_to_wire(
    symbols: np.ndarray, coded_bytes: int
) -> tuple[np.ndarray, bytes, list[int]]:
    """Pack a frame's 2-bit symbols into wire bytes (4 symbols per byte).

    Returns the ``4 * coded_bytes`` symbols that carry code, the wire
    bytes and the positions of the erased ones.  A short vector (e.g. a
    truncated extraction from a corrupted capture) is padded with
    erasures, and any symbol outside 0-3 is an erasure.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    used = 4 * coded_bytes
    if len(symbols) < used:
        symbols = np.concatenate(
            [symbols, np.full(used - len(symbols), -1, dtype=np.int64)]
        )
    active = symbols[:used]
    erased_symbols = (active < 0) | (active > 3)
    clean = np.where(erased_symbols, 0, active)
    wire = symbols_to_bytes(clean)
    byte_erasures = sorted(set(np.flatnonzero(erased_symbols) // 4))
    return active, wire, byte_erasures


def verify_wire(
    config: FrameCode,
    header: FrameHeader,
    wire: bytes,
    byte_erasures: list[int],
    registry: Any = None,
) -> FrameResult:
    """De-interleave, RS-decode and CRC-check one frame's wire bytes.

    The frame code shared by RainBar and the baselines.  RS decoding
    uses the erasures first and retries errors-only, since erasure info
    can exceed the budget even when the actual error count is
    correctable.  The frame is ``ok`` only when the CRC-16 of the
    decoded payload equals both the checksum sent after it and the
    header's.  Any coding-layer exception becomes a failed
    :class:`FrameResult` rather than a raise.  A *registry* receives the
    RS statistics of the successful attempt and counts errors-only
    fallbacks; the baselines pass none.
    """

    def failed(reason: str) -> FrameResult:
        return FrameResult(
            sequence=header.sequence,
            ok=False,
            payload=b"",
            is_last=header.is_last,
            erased_bytes=len(byte_erasures),
            failure=reason,
        )

    message_len = config.message_bytes_per_frame
    stats = RSDecodeStats() if registry else None
    try:
        interleaver = config.interleaver
        coded = interleaver.unscramble(wire)
        erasures = interleaver.map_erasures(list(byte_erasures), len(wire))
        message = config.block_code.decode(
            coded, message_len, erasures=erasures, stats=stats
        )
    except RSDecodeError:
        # Only the successful attempt's accounting is folded into the
        # quality metrics, so start the retry with fresh stats.
        stats = RSDecodeStats() if registry else None
        try:
            message = config.block_code.decode(coded, message_len, stats=stats)
        except RSDecodeError as exc:
            return failed(f"RS decode failed: {exc}")
        if registry:
            registry.counter("quality.rs_erasure_fallbacks").inc()
    except _UNEXPECTED_ERRORS as exc:
        # A wire the coding layer cannot even deinterleave (wrong length
        # for the configured code, degenerate geometry upstream) is a
        # lost frame, not a crash.
        return failed(f"assemble failed: {type(exc).__name__}: {exc}")

    payload, tail = message[:-2], message[-2:]
    checksum = (tail[0] << 8) | tail[1]
    ok = checksum == crc16(payload) and checksum == header.payload_checksum
    if stats is not None:
        quality_metrics.record_rs_stats(registry, stats)
    # The payload is returned even when verification fails: the paper's
    # decoding-rate metric counts correctly decoded data inside failed
    # frames, and the transfer layer NACKs on `ok` alone.
    return FrameResult(
        sequence=header.sequence,
        ok=ok,
        payload=payload,
        is_last=header.is_last,
        erased_bytes=len(byte_erasures),
        failure="" if ok else "payload CRC mismatch",
    )
