"""Decode-pipeline debugging helpers: geometry visualization.

Per-stage timing is not here: ``FrameDecoder.extract`` times its own
stages and fills ``DecodeDiagnostics.stage_ms`` — the per-stage decode
breakdown bench E10 reports — and a whole run's stage timing comes from
a traced perfbench run (``perfbench/run.py --trace 1``).

When a capture fails to decode, the fastest way to see why is to paint
the recovered geometry back onto the image: corner trackers, locator
walks, block centers and the per-row frame assignment.  The overlay is
a plain RGB array, so it can be saved with any image writer or compared
in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..imaging.color import normalize_frame
from ..imaging.metrics import gradient_energy

if TYPE_CHECKING:
    from .decoder import CaptureExtraction, FrameDecoder

__all__ = ["geometry_overlay", "describe_extraction"]


_MARKER = {
    "corner": (1.0, 1.0, 0.0),  # yellow crosses on CT centers
    "locator": (1.0, 0.0, 1.0),  # magenta dots on locator walks
    "cell": (0.0, 1.0, 1.0),  # cyan dots on data-cell centers
    "bad_row": (1.0, 0.3, 0.0),  # orange ticks on erased rows
}


def _paint(
    image: np.ndarray,
    x: float,
    y: float,
    color: tuple[float, float, float],
    radius: int = 1,
) -> None:
    height, width = image.shape[:2]
    xi, yi = int(round(x)), int(round(y))
    y0, y1 = max(yi - radius, 0), min(yi + radius + 1, height)
    x0, x1 = max(xi - radius, 0), min(xi + radius + 1, width)
    if y0 < y1 and x0 < x1:
        image[y0:y1, x0:x1] = color


def geometry_overlay(
    image: np.ndarray,
    decoder: FrameDecoder,
    extraction: CaptureExtraction | None = None,
    cell_stride: int = 4,
) -> np.ndarray:
    """Return a copy of *image* with the decoded geometry painted on.

    *extraction* may be passed if already computed; otherwise the
    decoder runs (and pipeline failures propagate as
    :class:`~repro.core.decoder.DecodeError`, which is itself the
    diagnostic).  ``cell_stride`` thins the data-cell markers.
    """
    if extraction is None:
        extraction = decoder.extract(image)
    overlay = normalize_frame(image).copy()
    if overlay.ndim == 2:
        overlay = np.stack([overlay] * 3, axis=-1)

    centers = extraction.centers
    if centers is not None:
        for x, y in centers[::cell_stride]:
            _paint(overlay, x, y, _MARKER["cell"], radius=0)

    layout = decoder.config.layout
    for row, assigned in enumerate(extraction.row_assignment):
        if assigned < 0 and centers is not None:
            mask = layout.symbol_rows == row
            for x, y in centers[mask][::2]:
                _paint(overlay, x, y, _MARKER["bad_row"], radius=1)
    return overlay


def describe_extraction(extraction: CaptureExtraction) -> str:
    """One-paragraph human-readable summary of a capture's extraction."""
    d = extraction.diagnostics
    rows = extraction.row_assignment
    own = int(np.sum(rows == 0))
    next_rows = int(np.sum(rows == 1))
    bad = int(np.sum(rows == -1))
    erased = int(np.sum(extraction.data_symbols < 0))
    return (
        f"frame seq={extraction.header.sequence} "
        f"(rate={extraction.header.display_rate}fps, "
        f"indicator={extraction.header.tracking_indicator}): "
        f"T_v={d.t_value:.3f}, block~{d.block_size:.1f}px, "
        f"locators refined {d.locator_refinement:.0%}, "
        f"corner purity {d.corner_purity:.0%}, "
        f"sharpness {gradient_energy(extraction.image):.4f}; rows: {own} own, {next_rows} next, "
        f"{bad} ambiguous; {erased} erased symbols"
    )
