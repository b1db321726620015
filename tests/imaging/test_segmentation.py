"""Connected-component labeling and statistics.

``_reference_component_stats`` keeps the per-label loop that
``component_stats`` replaced, verbatim, as the oracle the array table
must match exactly.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy import ndimage

from repro.imaging.segmentation import component_stats, connected_components


@dataclass(frozen=True)
class _ReferenceStats:
    label: int
    area: int
    centroid: tuple[float, float]  # (x, y)
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1), inclusive

    @property
    def width(self) -> int:
        return self.bbox[2] - self.bbox[0] + 1

    @property
    def height(self) -> int:
        return self.bbox[3] - self.bbox[1] + 1

    @property
    def fill_ratio(self) -> float:
        return self.area / float(self.width * self.height)

    @property
    def aspect(self) -> float:
        long_side = max(self.width, self.height)
        short_side = max(min(self.width, self.height), 1)
        return long_side / short_side


def _reference_component_stats(labels, count, min_area=1, max_area=None):
    """The per-label loop, kept verbatim (coordinate cache inlined) as the oracle."""
    if count == 0:
        return []
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count + 1)
    boxes = ndimage.find_objects(labels, max_label=count)
    height, width = labels.shape
    xs_flat = np.tile(np.arange(width, dtype=np.float64), height)
    ys_flat = np.repeat(np.arange(height, dtype=np.float64), width)
    sum_x = np.bincount(flat, weights=xs_flat, minlength=count + 1)
    sum_y = np.bincount(flat, weights=ys_flat, minlength=count + 1)

    out = []
    for label in range(1, count + 1):
        area = int(areas[label])
        if area < min_area or (max_area is not None and area > max_area):
            continue
        box = boxes[label - 1]
        if box is None:
            continue
        row_slice, col_slice = box
        out.append(
            _ReferenceStats(
                label=label,
                area=area,
                centroid=(float(sum_x[label] / area), float(sum_y[label] / area)),
                bbox=(
                    int(col_slice.start),
                    int(row_slice.start),
                    int(col_slice.stop - 1),
                    int(row_slice.stop - 1),
                ),
            )
        )
    return out


def _assert_matches_reference(labels, count, **area_filter):
    table = component_stats(labels, count, **area_filter)
    reference = _reference_component_stats(labels, count, **area_filter)
    assert len(table) == len(reference)
    assert table.label.tolist() == [c.label for c in reference]
    assert table.area.tolist() == [c.area for c in reference]
    assert table.centroid.reshape(-1, 2).tolist() == [list(c.centroid) for c in reference]
    assert table.bbox.reshape(-1, 4).tolist() == [list(c.bbox) for c in reference]
    assert table.width.tolist() == [c.width for c in reference]
    assert table.height.tolist() == [c.height for c in reference]
    assert table.side.tolist() == [0.5 * (c.width + c.height) for c in reference]
    assert table.fill_ratio.tolist() == [c.fill_ratio for c in reference]
    assert table.aspect.tolist() == [c.aspect for c in reference]


class TestLabeling:
    def test_empty_mask(self):
        labels, count = connected_components(np.zeros((5, 5), dtype=bool))
        assert count == 0
        assert len(component_stats(labels, count)) == 0

    def test_single_block(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 3:7] = True
        labels, count = connected_components(mask)
        assert count == 1
        comps = component_stats(labels, count)
        assert comps.area.tolist() == [12]
        assert comps.bbox.tolist() == [[3, 2, 6, 4]]
        assert comps.centroid.tolist() == [[4.5, 3.0]]
        assert comps.width.tolist() == [4] and comps.height.tolist() == [3]
        assert comps.fill_ratio.tolist() == [1.0]

    def test_two_separate_blocks(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:3, 1:3] = True
        mask[6:9, 6:9] = True
        labels, count = connected_components(mask)
        assert count == 2
        comps = component_stats(labels, count)
        assert sorted(comps.area.tolist()) == [4, 9]

    def test_diagonal_touch_is_connected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        __, count = connected_components(mask)
        assert count == 1  # 8-connectivity

    def test_area_filters(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True  # area 1
        mask[5:8, 5:8] = True  # area 9
        labels, count = connected_components(mask)
        comps = component_stats(labels, count, min_area=2)
        assert comps.area.tolist() == [9]
        comps = component_stats(labels, count, min_area=1, max_area=5)
        assert comps.area.tolist() == [1]

    def test_aspect_of_elongated_component(self):
        mask = np.zeros((10, 20), dtype=bool)
        mask[4, 2:18] = True
        labels, count = connected_components(mask)
        assert component_stats(labels, count).aspect.tolist() == [16.0]

    def test_fill_ratio_of_ring(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:8, 2:8] = True
        mask[4:6, 4:6] = False
        labels, count = connected_components(mask)
        assert component_stats(labels, count).fill_ratio.tolist() == [(36 - 4) / 36]

    def test_row_selection(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:3, 1:3] = True
        mask[6:9, 6:9] = True
        labels, count = connected_components(mask)
        comps = component_stats(labels, count)
        picked = comps[comps.area > 4]
        assert picked.label.tolist() == [2]
        assert picked.bbox.tolist() == [[6, 6, 8, 8]]


class TestTableMatchesLoop:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("density", [0.1, 0.45, 0.7])
    def test_random_masks(self, seed, density):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(5, 60, size=2))
        labels, count = connected_components(rng.random(shape) < density)
        areas = np.bincount(labels.ravel())[1:]
        _assert_matches_reference(labels, count)
        _assert_matches_reference(labels, count, min_area=0)
        _assert_matches_reference(labels, count, min_area=2, max_area=None)
        if count:
            # Filters that sit exactly on areas present in the mask.
            lo, hi = int(areas.min()), int(areas.max())
            mid = int(np.median(areas))
            _assert_matches_reference(labels, count, min_area=mid)
            _assert_matches_reference(labels, count, min_area=lo, max_area=hi)
            _assert_matches_reference(labels, count, min_area=mid, max_area=mid)
            _assert_matches_reference(labels, count, min_area=1, max_area=lo)
            _assert_matches_reference(labels, count, min_area=hi + 1)

    def test_missing_labels_are_skipped(self):
        # A label image with gaps (labels 2 and 4 absent) has no box for
        # them; both forms must drop them, even with min_area=0.
        labels = np.zeros((6, 6), dtype=np.int32)
        labels[0, 0] = 1
        labels[2:4, 2:4] = 3
        labels[5, 1:5] = 5
        for min_area in (0, 1, 2):
            _assert_matches_reference(labels, 5, min_area=min_area)
        assert component_stats(labels, 5, min_area=0).label.tolist() == [1, 3, 5]

    def test_capture_sized_mask(self):
        rng = np.random.default_rng(9)
        mask = rng.random((120, 200)) < 0.3
        mask[40:60, 50:70] = True
        labels, count = connected_components(mask)
        _assert_matches_reference(labels, count, min_area=2, max_area=6400)
