"""Corner tracker detection (Sections III-B and III-C).

RainBar needs only the **two top** corner trackers: a black block whose
eight neighbours are green (top-left CT) or red (top-right CT).  The
bottom corners come for free once the locator columns are walked down
(Section III-E), which is why the layout spends 9 fewer blocks than
COBRA per omitted tracker.

Detection strategy (the fast-scan of COBRA Section 4.5, recast on a
component labeling): classify the capture's dark pixels with the
estimated T_v, label connected black components, keep square-ish solid
blobs of plausible block size, and test the color purity of a sample
ring at ~1.1 block radius around each candidate's centroid (all rings
are classified in one batch).  The green and red candidates with the
purest rings are the CTs; the candidate geometry also yields the first
estimate of the captured block size (the paper's BST).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imaging.segmentation import (
    ComponentTable,
    component_boxes,
    connected_components,
    measure_components,
)
from .palette import Color
from .recognition import ColorClassifier

__all__ = [
    "CornerTracker",
    "CornerDetection",
    "CornerDetectionError",
    "detect_corner_trackers",
    "ring_colors",
    "tracker_candidates",
]

_RING_SAMPLES = 16
_RING_PURITY = 0.8
_MIN_FILL = 0.5
_MAX_ASPECT = 2.0


class CornerDetectionError(RuntimeError):
    """Raised when the two corner trackers cannot be found."""


@dataclass(frozen=True)
class CornerTracker:
    """One detected corner tracker."""

    center: tuple[float, float]  # (x, y) of the black center block
    block_size: float  # side of the center block in captured pixels (BST)
    ring_color: Color
    purity: float  # fraction of ring samples matching ring_color


@dataclass(frozen=True)
class CornerDetection:
    """Both corner trackers plus derived frame-level geometry."""

    left: CornerTracker
    right: CornerTracker

    @property
    def block_size(self) -> float:
        """Mean BST estimate from both trackers."""
        return 0.5 * (self.left.block_size + self.right.block_size)

    @property
    def baseline(self) -> np.ndarray:
        """Vector from the left CT center to the right CT center."""
        return np.array(self.right.center) - np.array(self.left.center)

    def column_step(self, columns_between: int) -> np.ndarray:
        """Per-grid-column step vector along the CT baseline."""
        if columns_between <= 0:
            raise ValueError("columns_between must be positive")
        return self.baseline / columns_between

    def row_step(self) -> np.ndarray:
        """Initial per-grid-row step: the baseline rotated 90deg clockwise.

        Rotating the (rightward) baseline by +90deg in image coordinates
        (y down) points *down* the frame; scaled to one block length.
        """
        direction = self.baseline / np.linalg.norm(self.baseline)
        perpendicular = np.array([-direction[1], direction[0]])
        return perpendicular * self.block_size


def tracker_candidates(
    black: np.ndarray, min_block_px: float, max_block_px: float
) -> ComponentTable:
    """Square-ish solid black components of plausible block size.

    Only the screen's box is labeled: the bounding box of the mask's
    non-black pixels, grown by a one-pixel margin and clipped to the
    frame.  The margin is all black and joins the black outside the
    box, so every component in the box that holds no margin pixel is a
    component of the full frame, with its raster-order rank (and so its
    label) unchanged; the rest are dropped.  Each dropped one is part
    of a full-frame component that holds a whole sensor row or column,
    whose box side is at least ``(1 + min(H, W)) / 2`` and so above
    *max_block_px* whenever the cropped path is taken.  A larger
    *max_block_px* could admit such a component, so then the full frame
    is labeled, as is an all-black mask, which has no box.

    Box side and aspect are tested before any pixel is counted, so the
    black outside the screen is never summed.
    """
    height, width = black.shape
    y0, x0, y1, x1 = 0, 0, height, width
    if (1 + min(height, width)) / 2 > max_block_px:
        rows = np.flatnonzero(~black.all(axis=1))
        if len(rows):  # else all black: no box, one frame-sized component
            y0, y1 = max(int(rows[0]) - 1, 0), min(int(rows[-1]) + 2, height)
            cols = np.flatnonzero(~black[y0:y1].all(axis=0))
            x0, x1 = max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, width)
    labels, count = connected_components(black[y0:y1, x0:x1])
    # Margin sides: where the box grew, not where the frame clipped it.
    # They need not be connected (a full-width box leaves a top and a
    # bottom strip), so every label on any of them is dropped.
    on_margin = np.zeros(count + 1, dtype=bool)
    for grown, side in (
        (y0 > 0, labels[0]),
        (y1 < height, labels[-1]),
        (x0 > 0, labels[:, 0]),
        (x1 < width, labels[:, -1]),
    ):
        if grown:
            on_margin[side] = True
    min_area = max(1, int((0.5 * min_block_px) ** 2))
    max_area = int((2.0 * max_block_px) ** 2)
    boxes = component_boxes(labels, count)
    keep = (boxes.side >= min_block_px) & (boxes.side <= max_block_px)
    keep &= (boxes.aspect <= _MAX_ASPECT) & ~on_margin[boxes.label]
    table = measure_components(
        labels, boxes[keep], min_area=min_area, max_area=max_area, origin=(x0, y0)
    )
    return table[table.fill_ratio >= _MIN_FILL]


def ring_colors(
    image: np.ndarray, classifier: ColorClassifier, candidates: ComponentTable
) -> np.ndarray:
    """Colors of the ``(M, 16)`` sample rings around *candidates*.

    Elliptical ring at ~1.1 block radius: foreshortening squeezes a
    tracker along one axis, so each axis uses its own measured extent.
    All rings are classified in one batch.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, _RING_SAMPLES, endpoint=False)
    radius_x = (1.1 * candidates.width)[:, np.newaxis]
    radius_y = (1.1 * candidates.height)[:, np.newaxis]
    ring = np.stack(
        [
            candidates.centroid[:, :1] + radius_x * np.cos(angles),
            candidates.centroid[:, 1:] + radius_y * np.sin(angles),
        ],
        axis=-1,
    )
    return classifier.classify_centers(image, ring.reshape(-1, 2)).reshape(-1, _RING_SAMPLES)


def detect_corner_trackers(
    image: np.ndarray,
    classifier: ColorClassifier,
    black: np.ndarray,
    min_block_px: float = 3.0,
    max_block_px: float = 40.0,
) -> CornerDetection:
    """Find the two corner trackers of a captured frame.

    *black* is the capture's ``classifier.black_mask(image)``.
    ``min_block_px``/``max_block_px`` bound the plausible captured block
    size (the paper's B_min/B_max, scaled by the capture geometry) and
    filter the black-component candidates.

    Raises :exc:`CornerDetectionError` when either tracker is missing —
    the caller counts the capture as undecodable.
    """
    candidates = tracker_candidates(black, min_block_px, max_block_px)
    best: dict[Color, CornerTracker] = {}
    if len(candidates):
        colors = ring_colors(image, classifier, candidates)
        for color in (Color.GREEN, Color.RED):
            purity = np.mean(colors == int(color), axis=1)
            # argmax takes the first maximum: the purest ring wins and
            # the lowest label wins a tie.
            i = int(np.argmax(purity))
            if purity[i] >= _RING_PURITY:
                cx, cy = candidates.centroid[i]
                best[color] = CornerTracker(
                    center=(float(cx), float(cy)),
                    block_size=float(candidates.side[i]),
                    ring_color=color,
                    purity=float(purity[i]),
                )

    if Color.GREEN not in best or Color.RED not in best:
        missing = [c.name for c in (Color.GREEN, Color.RED) if c not in best]
        raise CornerDetectionError(f"corner tracker(s) not found: {', '.join(missing)}")

    left, right = best[Color.GREEN], best[Color.RED]
    if left.center[0] >= right.center[0]:
        raise CornerDetectionError(
            "green tracker found right of red tracker; capture likely inverted"
        )
    return CornerDetection(left=left, right=right)
