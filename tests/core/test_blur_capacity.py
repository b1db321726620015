"""Blur assessment score and capacity analysis."""

import numpy as np
import pytest

from repro.core.capacity import (
    capacity_report,
    cobra_code_blocks,
    galaxy_s4_grid,
    rainbar_code_blocks_paper,
    rdcode_code_blocks,
)
from repro.core.layout import FrameLayout
from repro.imaging.filters import gaussian_blur
from repro.imaging.metrics import gradient_energy


@pytest.fixture(scope="module")
def barcode_like():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 2, (60, 80)).astype(np.float64)
    return np.kron(img, np.ones((4, 4)))


class TestSharpness:
    def test_blur_lowers_score(self, barcode_like):
        assert gradient_energy(gaussian_blur(barcode_like, 1.5)) < gradient_energy(
            barcode_like
        )

    def test_monotone_in_blur(self, barcode_like):
        scores = [
            gradient_energy(gaussian_blur(barcode_like, s)) for s in (0.0, 0.8, 1.6, 3.0)
        ]
        assert all(a > b for a, b in zip(scores, scores[1:]))


class TestPaperCapacityNumbers:
    """Section III-B arithmetic, reproduced exactly."""

    def test_s4_grid(self):
        assert galaxy_s4_grid(13) == (147, 83)

    def test_cobra_10857(self):
        assert cobra_code_blocks(147, 83) == 10857

    def test_rainbar_11520(self):
        assert rainbar_code_blocks_paper(147, 83) == 11520

    def test_rainbar_gain_is_663_blocks(self):
        gain = rainbar_code_blocks_paper() - cobra_code_blocks()
        assert gain == 663
        # "663 blocks ... carry 166 more bytes" (2 bits per block,
        # 165.75 bytes, rounded up by the paper).
        assert -(-gain * 2 // 8) == 166

    def test_rdcode_smallest(self):
        rd = rdcode_code_blocks()
        assert rd < cobra_code_blocks() < rainbar_code_blocks_paper()


class TestCapacityReport:
    def test_roles_sum_to_grid(self):
        layout = FrameLayout(34, 60, 12)
        rep = capacity_report(layout)
        assert (
            rep.data_cells
            + rep.header_cells
            + rep.locator_cells
            + rep.tracker_cells
            + rep.tracking_bar_cells
            == rep.total_cells
        )
        assert rep.total_cells == 34 * 60

    def test_derived_quantities(self):
        rep = capacity_report(FrameLayout(34, 60, 12))
        assert rep.data_bits == 2 * rep.data_cells
        assert rep.data_bytes == rep.data_bits // 8
        assert 0 < rep.overhead_ratio < 0.5

    def test_structure_overhead_shrinks_with_grid(self):
        small = capacity_report(FrameLayout(20, 44, 4))
        large = capacity_report(FrameLayout(60, 100, 4))
        assert large.overhead_ratio < small.overhead_ratio
