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

    Box side and aspect are tested before any pixel is counted, so the
    capture's background component (most of its black pixels) is never
    summed.
    """
    labels, count = connected_components(black)
    min_area = max(1, int((0.5 * min_block_px) ** 2))
    max_area = int((2.0 * max_block_px) ** 2)
    boxes = component_boxes(labels, count)
    keep = (boxes.side >= min_block_px) & (boxes.side <= max_block_px)
    keep &= boxes.aspect <= _MAX_ASPECT
    table = measure_components(labels, boxes[keep], min_area=min_area, max_area=max_area)
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
