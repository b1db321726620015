"""Progressive code locator detection and localization (Section III-E).

Locators are the black blocks stacked every second row in three columns
(left, middle, right).  Each locator's position is *predicted* from the
one above (one step of two block heights) and then *corrected* by the
paper's K-means-style refinement: repeatedly re-center on the mean of
the black pixels inside a block-sized window until the estimate is
stable.  Because the top and bottom (and left and right) edges of a
perspective-distorted block stay parallel, the black-mass mean converges
to the true block center, cancelling the drift the prediction step
accumulates — this is what lets RainBar decode images whose *global*
distortion is severe while local distortion stays mild.

The left and right columns start from the CT centers (which are
themselves the first locators).  The middle column has no CT; its first
locator is found by searching a 3-BST window around the midpoint of the
CT centers (paper Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..imaging.segmentation import component_stats, connected_components

__all__ = [
    "LocatorColumn",
    "LocatorError",
    "correct_location",
    "walk_locator_column",
    "find_first_middle_locator",
]

_CONVERGENCE_PX = 0.05
_MAX_CORRECTION_ITERS = 12
_MIN_BLACK_PIXELS = 3


class LocatorError(RuntimeError):
    """Raised when a locator column cannot be localized at all."""


@dataclass
class LocatorColumn:
    """Corrected locator positions for one column, top to bottom.

    ``positions[i]`` is the (x, y) center of the locator at grid row
    ``ct_center_row + 2 i``; ``refined[i]`` tells whether the correction
    converged on black mass (False means the position is dead-reckoned
    from its neighbour and should be trusted less).
    """

    positions: np.ndarray  # (N, 2)
    refined: np.ndarray  # (N,) bool
    column: int = 0
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def refinement_rate(self) -> float:
        """Fraction of locators that converged — a decode-quality signal."""
        if len(self.refined) == 0:
            return 0.0
        return float(np.mean(self.refined))

    @property
    def bottom(self) -> np.ndarray:
        """Position of the last locator (a bottom 'corner' of the frame)."""
        return self.positions[-1]


def _moved_less_than(dx: float, dy: float, tolerance: float) -> bool:
    """``np.linalg.norm([dx, dy]) < tolerance``, decided on scalars.

    The norm squares and sums through a dot product whose rounding (a
    fused multiply-add, say) may differ from ``dx * dx + dy * dy`` by an
    ulp or two, and its square root rounds once more.  Each of those
    moves the sum by less than 1e-15 of its value, so a sum further than
    1e-12 from ``tolerance ** 2`` decides the comparison as the norm
    does; only a sum inside that band asks the norm itself.
    """
    squared = dx * dx + dy * dy
    limit = tolerance * tolerance
    if abs(squared - limit) > 1e-12 * limit:
        return squared < limit
    return bool(np.linalg.norm(np.array([dx, dy])) < tolerance)


def correct_location(
    black: np.ndarray,
    point: np.ndarray,
    block_size: float,
) -> np.ndarray | None:
    """The paper's location-correction algorithm for one locator.

    *black* is the capture's black-pixel mask
    (``ColorClassifier.black_mask``).  Iterates: collect the black
    pixels inside a square window of edge ``block_size`` centered at the
    estimate, re-center on their mean, repeat until movement falls
    below a twentieth of a pixel.  Returns the converged center, or
    None when the window holds (almost) no black pixels — e.g. the
    estimate fell onto a data block.
    """
    height, width = black.shape
    half = float(max(block_size * 0.75, 1.5))
    point = np.asarray(point, dtype=np.float64)
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(half)):
        # A non-finite estimate (degenerate projection on a corrupted
        # capture) can never be corrected; treat it like an empty window.
        return None

    # The loop runs on Python scalars.  The window's pixel coordinates
    # are integers whose sums are exact, so ``x0 + sum / n`` is the
    # numpy mean's value bit for bit.
    for __ in range(_MAX_CORRECTION_ITERS):
        x0 = max(math.floor(x - half), 0)
        x1 = min(math.ceil(x + half) + 1, width)
        y0 = max(math.floor(y - half), 0)
        y1 = min(math.ceil(y + half) + 1, height)
        if x1 - x0 < 2 or y1 - y0 < 2:
            return None
        ys, xs = np.nonzero(black[y0:y1, x0:x1])
        n = len(xs)
        if n < _MIN_BLACK_PIXELS:
            return None
        new_x = x0 + int(xs.sum()) / n
        new_y = y0 + int(ys.sum()) / n
        if _moved_less_than(new_x - x, new_y - y, _CONVERGENCE_PX):
            return np.array([new_x, new_y])
        x, y = new_x, new_y
    return np.array([x, y])


def walk_locator_column(
    black: np.ndarray,
    start: np.ndarray,
    initial_step: np.ndarray,
    count: int,
    block_size: float,
    column: int = 0,
    start_row: int = 2,
) -> LocatorColumn:
    """Progressively localize *count* locators from *start* downward.

    *black* is the capture's black-pixel mask.  *initial_step* is the
    displacement to the next locator (two block heights along the
    frame's downward direction).  After each corrected locator the step
    is re-estimated from the last two positions, so the walk follows
    perspective convergence.  A failed correction falls back
    to dead reckoning for that locator and keeps walking.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    positions = np.zeros((count, 2))
    refined = np.zeros(count, dtype=bool)

    first = correct_location(black, np.asarray(start, dtype=np.float64), block_size)
    if first is None:
        first = np.asarray(start, dtype=np.float64)
    else:
        refined[0] = True
    positions[0] = first

    step = np.asarray(initial_step, dtype=np.float64).copy()
    for i in range(1, count):
        predicted = positions[i - 1] + step
        corrected = correct_location(black, predicted, block_size)
        if corrected is None:
            positions[i] = predicted
        else:
            positions[i] = corrected
            refined[i] = True
            step = positions[i] - positions[i - 1]

    rows = np.arange(start_row, start_row + 2 * count, 2, dtype=np.int64)
    registry = telemetry.registry()
    if registry:
        registry.counter("locators.walked").inc(count)
        registry.counter("locators.refined").inc(int(refined.sum()))
    return LocatorColumn(positions=positions, refined=refined, column=column, rows=rows)


def find_first_middle_locator(
    black: np.ndarray,
    midpoint: np.ndarray,
    block_size: float,
    min_block_px: float,
    max_block_px: float,
) -> np.ndarray:
    """Locate the first middle-column locator near *midpoint* (Fig. 8).

    *black* is the capture's black-pixel mask.  Searches the square
    window of edge ``3 * block_size`` centered on the midpoint of the
    two CT centers for a black component whose horizontal and vertical
    extents both lie in ``[min_block_px, max_block_px]`` (the paper's
    four-direction run test, realized on a component labeling, which
    rejects the same noise points).  The
    accepted component nearest the midpoint is refined with
    :func:`correct_location`.

    Raises :exc:`LocatorError` when the window holds no plausible block.
    """
    height, width = black.shape
    midpoint = np.asarray(midpoint, dtype=np.float64)
    if not np.all(np.isfinite(midpoint)) or not np.isfinite(block_size):
        raise LocatorError("middle-locator seed is not finite")
    half = 1.5 * block_size
    x0 = max(int(midpoint[0] - half), 0)
    x1 = min(int(midpoint[0] + half) + 1, width)
    y0 = max(int(midpoint[1] - half), 0)
    y1 = min(int(midpoint[1] + half) + 1, height)
    if x1 - x0 < 2 or y1 - y0 < 2:
        raise LocatorError("middle-locator search window off image")

    labels, count = connected_components(black[y0:y1, x0:x1])
    comps = component_stats(labels, count, min_area=_MIN_BLACK_PIXELS)
    # Four-direction run test: both extents must look like one block.
    # The window may clip the component; allow half the minimum.
    lo = 0.5 * min_block_px
    keep = (comps.width >= lo) & (comps.width <= max_block_px)
    keep &= (comps.height >= lo) & (comps.height <= max_block_px)
    centers = np.array([x0, y0]) + comps.centroid[keep]
    if len(centers) == 0:
        raise LocatorError("no middle locator found near the CT midpoint")
    # argmin takes the first minimum: the nearest component wins and the
    # lowest label wins a tie.
    dists = [float(np.linalg.norm(center - midpoint)) for center in centers]
    best = centers[int(np.argmin(dists))]

    corrected = correct_location(black, best, block_size)
    return corrected if corrected is not None else best
