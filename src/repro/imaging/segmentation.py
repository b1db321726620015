"""Binary mask segmentation.

Corner-tracker detection labels the black-pixel mask of a capture and
filters its components.  Labeling uses :func:`scipy.ndimage.label`
(8-connectivity); statistics come back as a table of per-component
arrays, computed with ``np.bincount`` and ``find_objects``, so callers
filter on arrays and a full-capture mask costs a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["ComponentTable", "connected_components", "component_stats"]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=np.int64)


@dataclass(frozen=True)
class ComponentTable:
    """Geometry of the connected components of a binary mask, as arrays.

    Entry ``i`` describes component ``label[i]``; rows are in label
    order.  Indexing with a boolean mask or index array selects rows.
    """

    label: np.ndarray  # (N,) int64
    area: np.ndarray  # (N,) int64
    centroid: np.ndarray  # (N, 2) float64, (x, y)
    bbox: np.ndarray  # (N, 4) int64, (x0, y0, x1, y1), inclusive

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, rows: np.ndarray) -> ComponentTable:
        return ComponentTable(
            self.label[rows], self.area[rows], self.centroid[rows], self.bbox[rows]
        )

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
    def fill_ratio(self) -> np.ndarray:
        """Area over bbox area — near 1.0 for solid squares."""
        return self.area / (self.width * self.height).astype(np.float64)

    @property
    def aspect(self) -> np.ndarray:
        """Long side over short side — near 1.0 for squares."""
        width, height = self.width, self.height
        return np.maximum(width, height) / np.maximum(np.minimum(width, height), 1)


_COORD_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _flat_coords(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Flat per-pixel (x, y) coordinate weights for *shape*, cached."""
    cached = _COORD_CACHE.get(shape)
    if cached is None:
        height, width = shape
        xs = np.tile(np.arange(width, dtype=np.float64), height)
        ys = np.repeat(np.arange(height, dtype=np.float64), width)
        if len(_COORD_CACHE) > 8:
            _COORD_CACHE.clear()
        cached = _COORD_CACHE[shape] = (xs, ys)
    return cached


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labeling of a boolean mask: ``(labels, count)``.

    Labels are 1-based; 0 is background.
    """
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), structure=_EIGHT_CONNECTED)
    return labels, int(count)


def component_stats(
    labels: np.ndarray,
    count: int,
    min_area: int = 1,
    max_area: int | None = None,
) -> ComponentTable:
    """Per-component area, centroid and bounding box, area-filtered.

    Vectorized: one ``bincount`` for areas and coordinate sums, and
    ``find_objects`` for the boxes of the components that pass the
    area filter.
    """
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count + 1)[1 : count + 1]
    keep = areas >= max(min_area, 1)
    if max_area is not None:
        keep &= areas <= max_area
    rows = np.flatnonzero(keep)
    area = areas[rows]

    # Bounding boxes from ndimage's C pass; centroids from weighted
    # bincounts over the flat label image (row/column index arrays are
    # implicit in the flat offset, so no nonzero() scatter is needed).
    boxes = ndimage.find_objects(labels, max_label=count)
    bbox = np.array(
        [(boxes[i][1].start, boxes[i][0].start, boxes[i][1].stop - 1, boxes[i][0].stop - 1)
         for i in rows],
        dtype=np.int64,
    ).reshape(-1, 4)
    xs_flat, ys_flat = _flat_coords(labels.shape)
    sum_x = np.bincount(flat, weights=xs_flat, minlength=count + 1)[1:][rows]
    sum_y = np.bincount(flat, weights=ys_flat, minlength=count + 1)[1:][rows]
    centroid = np.column_stack([sum_x / area, sum_y / area])
    return ComponentTable(rows + 1, area, centroid, bbox)
