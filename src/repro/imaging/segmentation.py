"""Binary mask segmentation.

Corner-tracker detection labels the black-pixel mask of a capture (or
the crop of it that holds the screen) and filters its components.
Labeling uses :func:`scipy.ndimage.label` (8-connectivity).  Geometry
comes back as tables of per-component arrays: :func:`component_boxes`
takes every bounding box from one ``find_objects`` pass, and
:func:`measure_components` counts area and coordinate sums inside each
box only, returning frame coordinates for a crop given its origin.  A
caller that filters on box geometry first therefore never touches the
pixels of components it drops — the big background component of a
capture included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "ComponentBoxes",
    "ComponentTable",
    "connected_components",
    "component_boxes",
    "measure_components",
    "component_stats",
]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=np.int64)


@dataclass(frozen=True)
class ComponentBoxes:
    """Labels and bounding boxes of connected components, as arrays.

    Entry ``i`` is component ``label[i]``; rows are in label order.
    Indexing with a boolean mask or index array selects rows.
    """

    label: np.ndarray  # (N,) int64
    bbox: np.ndarray  # (N, 4) int64, (x0, y0, x1, y1), inclusive

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, rows: np.ndarray) -> ComponentBoxes:
        return ComponentBoxes(self.label[rows], self.bbox[rows])

    @property
    def width(self) -> np.ndarray:
        return self.bbox[:, 2] - self.bbox[:, 0] + 1

    @property
    def height(self) -> np.ndarray:
        return self.bbox[:, 3] - self.bbox[:, 1] + 1

    @property
    def side(self) -> np.ndarray:
        """Mean of width and height — the side of a square-ish blob."""
        return 0.5 * (self.width + self.height)

    @property
    def aspect(self) -> np.ndarray:
        """Long side over short side — near 1.0 for squares."""
        width, height = self.width, self.height
        return np.maximum(width, height) / np.maximum(np.minimum(width, height), 1)


@dataclass(frozen=True)
class ComponentTable(ComponentBoxes):
    """Boxes plus pixel count and centroid of each component."""

    area: np.ndarray  # (N,) int64
    centroid: np.ndarray  # (N, 2) float64, (x, y)

    def __getitem__(self, rows: np.ndarray) -> ComponentTable:
        return ComponentTable(
            self.label[rows], self.bbox[rows], self.area[rows], self.centroid[rows]
        )

    @property
    def fill_ratio(self) -> np.ndarray:
        """Area over bbox area — near 1.0 for solid squares."""
        return self.area / (self.width * self.height).astype(np.float64)


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labeling of a boolean mask: ``(labels, count)``.

    Labels are 1-based; 0 is background.
    """
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), structure=_EIGHT_CONNECTED)
    return labels, int(count)


def component_boxes(labels: np.ndarray, count: int) -> ComponentBoxes:
    """Bounding box of every label in ``1..count`` that has pixels.

    One ``find_objects`` pass; no pixel is counted.
    """
    boxes = ndimage.find_objects(labels, max_label=count)
    present = [(i + 1, box) for i, box in enumerate(boxes) if box is not None]
    label = np.array([i for i, _ in present], dtype=np.int64)
    bbox = np.array(
        [(cols.start, rows.start, cols.stop - 1, rows.stop - 1) for _, (rows, cols) in present],
        dtype=np.int64,
    ).reshape(-1, 4)
    return ComponentBoxes(label, bbox)


def measure_components(
    labels: np.ndarray,
    boxes: ComponentBoxes,
    min_area: int = 1,
    max_area: int | None = None,
    origin: tuple[int, int] = (0, 0),
) -> ComponentTable:
    """Area and centroid of each boxed component, area-filtered.

    A component's area is at most its box's, so boxes smaller than
    ``min_area`` are dropped before any pixel is counted.  The rest are
    counted inside their own boxes only, all boxes in one vectorized
    pass whose cost is the boxes' summed area.

    *labels* may label a crop of a larger frame whose pixel ``(0, 0)``
    sits at *origin* ``(x, y)`` of the frame; *boxes* are then in crop
    coordinates, and the table's boxes and centroids in frame
    coordinates.  The origin is added to each pixel's integer
    coordinates before they are summed, and the sums are of integers
    below 2**53, so the centroids equal a full-frame sum bit for bit
    (adding the origin to a crop centroid after the division would not).
    """
    min_area = max(min_area, 1)
    boxes = boxes[boxes.width * boxes.height >= min_area]
    width = boxes.width
    sizes = width * boxes.height
    owner = np.repeat(np.arange(len(boxes)), sizes)
    offset = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    dy, dx = np.divmod(offset, width[owner])
    ys = boxes.bbox[owner, 1] + dy
    xs = boxes.bbox[owner, 0] + dx
    hit = labels[ys, xs] == boxes.label[owner]
    owner = owner[hit]
    origin_x, origin_y = origin
    area = np.bincount(owner, minlength=len(boxes))
    sum_x = np.bincount(owner, weights=xs[hit] + origin_x, minlength=len(boxes))
    sum_y = np.bincount(owner, weights=ys[hit] + origin_y, minlength=len(boxes))
    keep = area >= min_area
    if max_area is not None:
        keep &= area <= max_area
    area = area[keep]
    centroid = np.column_stack([sum_x[keep] / area, sum_y[keep] / area])
    bbox = boxes.bbox[keep] + np.array([origin_x, origin_y, origin_x, origin_y])
    return ComponentTable(boxes.label[keep], bbox, area, centroid)


def component_stats(
    labels: np.ndarray,
    count: int,
    min_area: int = 1,
    max_area: int | None = None,
) -> ComponentTable:
    """Per-component area, centroid and bounding box, area-filtered."""
    return measure_components(labels, component_boxes(labels, count), min_area, max_area)
