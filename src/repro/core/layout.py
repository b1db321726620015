"""The RainBar frame layout (paper Fig. 2).

A frame is a grid of ``grid_rows x grid_cols`` square blocks, each
``block_px`` display pixels on a side.  Grid cells play one of several
roles:

* **Tracking bars** — the one-block border on all four sides, drawn in
  the frame's tracking color (low 2 bits of the sequence number).
* **Corner trackers (CTs)** — two 3x3 patterns inside the top corners: a
  black center surrounded by green (top-left) or red (top-right).
* **Header** — the first interior row between the two CTs, carrying the
  sequence number, display rate, application type and checksums.
* **Code locators** — three columns of black blocks (left, middle,
  right), one every second row, used for progressive localization.  The
  CT centers double as the first locators of the outer columns.
* **Code area** — every other interior cell, including the cells *between*
  locators, each carrying one 2-bit color symbol.

Grid coordinates are ``(row, col)`` with row 0 at the top.  Pixel
coordinates are ``(x, y)`` = (column-pixel, row-pixel), matching the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = ["CellRole", "FrameLayout"]

_CT_SIZE = 3  # corner trackers are 3x3 blocks
_HEADER_BYTES = 9  # see repro.core.header


class CellRole(IntEnum):
    """Role of a single grid cell."""

    TRACKING_BAR = 0
    CT_CENTER = 1
    CT_RING_LEFT = 2  # green ring, top-left tracker
    CT_RING_RIGHT = 3  # red ring, top-right tracker
    HEADER = 4
    LOCATOR = 5
    DATA = 6


@dataclass(frozen=True)
class FrameLayout:
    """Geometry of one RainBar frame.

    Parameters
    ----------
    grid_rows, grid_cols:
        Number of blocks vertically / horizontally.  The paper's Galaxy
        S4 setup is 83 x 147 at 13 px; experiments here default to a
        proportionally smaller grid (see :mod:`repro.bench.workloads`).
    block_px:
        Square block edge in display pixels (the paper's b_s).
    """

    grid_rows: int = 34
    grid_cols: int = 60
    block_px: int = 12

    def __post_init__(self) -> None:
        min_cols = 8 + 4 * _HEADER_BYTES  # header must fit between the CTs
        if self.grid_cols < max(min_cols, 16):
            raise ValueError(
                f"grid_cols={self.grid_cols} too small: the {_HEADER_BYTES}-byte "
                f"header needs {4 * _HEADER_BYTES} blocks between the corner "
                f"trackers (grid_cols >= {min_cols})"
            )
        if self.grid_rows < 10:
            raise ValueError("grid_rows must be at least 10")
        if self.block_px < 2:
            raise ValueError("block_px must be at least 2")

    # --- pixel-space helpers ------------------------------------------

    @property
    def size_px(self) -> tuple[int, int]:
        """Rendered frame size as ``(height, width)`` pixels."""
        return self.grid_rows * self.block_px, self.grid_cols * self.block_px

    def cell_center_px(self, row: int, col: int) -> tuple[float, float]:
        """Center of cell ``(row, col)`` in display pixels ``(x, y)``."""
        x = (col + 0.5) * self.block_px - 0.5
        y = (row + 0.5) * self.block_px - 0.5
        return x, y

    # --- structural columns/rows --------------------------------------

    @property
    def left_locator_col(self) -> int:
        """Grid column of the left locator column (the left CT's center)."""
        return 2

    @property
    def right_locator_col(self) -> int:
        """Grid column of the right locator column (the right CT's center)."""
        return self.grid_cols - 3

    @property
    def middle_locator_col(self) -> int:
        """Grid column of the middle locator column."""
        return self.grid_cols // 2

    @property
    def ct_center_row(self) -> int:
        """Grid row of both CT centers (and of the first locators)."""
        return 2

    @property
    def header_row(self) -> int:
        """Grid row carrying the header (first interior row)."""
        return 1

    @property
    def header_cols(self) -> range:
        """Columns of the header cells: strictly between the two CTs."""
        return range(_CT_SIZE + 1, self.grid_cols - _CT_SIZE - 1)

    @property
    def locator_rows(self) -> range:
        """Rows containing code locators: every second interior row."""
        return range(self.ct_center_row, self.grid_rows - 1, 2)

    @property
    def last_locator_row(self) -> int:
        """The bottom-most locator row (anchors the bottom corners)."""
        return self.locator_rows[-1]

    @property
    def header_capacity_bytes(self) -> int:
        """Bytes the header row can hold (2 bits per cell)."""
        return (len(self.header_cols) * 2) // 8

    # --- role map -------------------------------------------------------

    @cached_property
    def role_map(self) -> np.ndarray:
        """``(grid_rows, grid_cols)`` array of :class:`CellRole` values."""
        rows, cols = self.grid_rows, self.grid_cols
        roles = np.full((rows, cols), int(CellRole.DATA), dtype=np.int64)

        # Border tracking bars.
        roles[0, :] = int(CellRole.TRACKING_BAR)
        roles[-1, :] = int(CellRole.TRACKING_BAR)
        roles[:, 0] = int(CellRole.TRACKING_BAR)
        roles[:, -1] = int(CellRole.TRACKING_BAR)

        # Corner trackers: rows 1..3, cols 1..3 and cols-4..cols-2.
        roles[1 : 1 + _CT_SIZE, 1 : 1 + _CT_SIZE] = int(CellRole.CT_RING_LEFT)
        roles[1 : 1 + _CT_SIZE, cols - 1 - _CT_SIZE : cols - 1] = int(CellRole.CT_RING_RIGHT)
        roles[self.ct_center_row, self.left_locator_col] = int(CellRole.CT_CENTER)
        roles[self.ct_center_row, self.right_locator_col] = int(CellRole.CT_CENTER)

        # Header row between the CTs.
        for col in self.header_cols:
            roles[self.header_row, col] = int(CellRole.HEADER)

        # Locator columns: black blocks every other row.  CT centers
        # already serve as the first locators of the outer columns.
        for row in self.locator_rows:
            for col in (self.left_locator_col, self.middle_locator_col, self.right_locator_col):
                if roles[row, col] == int(CellRole.DATA):
                    roles[row, col] = int(CellRole.LOCATOR)

        return roles

    @cached_property
    def data_cells(self) -> np.ndarray:
        """``(N, 2)`` array of (row, col) for code-area cells, row-major order.

        This ordering defines how the 2-bit symbol stream maps onto the
        frame, identically at the sender and the receiver.
        """
        rows, cols = np.nonzero(self.role_map == int(CellRole.DATA))
        return np.column_stack([rows, cols])

    @cached_property
    def header_cells(self) -> np.ndarray:
        """``(N, 2)`` array of (row, col) for header cells, left to right."""
        rows, cols = np.nonzero(self.role_map == int(CellRole.HEADER))
        order = np.argsort(cols)
        return np.column_stack([rows[order], cols[order]])

    def locator_cells(self, column: int) -> np.ndarray:
        """(row, col) pairs of the locators in one locator *column*, top down."""
        if column not in (
            self.left_locator_col,
            self.middle_locator_col,
            self.right_locator_col,
        ):
            raise ValueError(f"column {column} is not a locator column")
        rows = [r for r in self.locator_rows]
        return np.array([[r, column] for r in rows], dtype=np.int64)

    # --- capacity -------------------------------------------------------

    @property
    def data_capacity_bits(self) -> int:
        """Raw code-area capacity in bits (2 per data cell)."""
        return 2 * len(self.data_cells)

    @property
    def data_capacity_bytes(self) -> int:
        """Raw code-area capacity in whole bytes."""
        return self.data_capacity_bits // 8

    @cached_property
    def symbol_rows(self) -> np.ndarray:
        """Grid row of every data symbol, aligned with :attr:`data_cells`."""
        return self.data_cells[:, 0].copy()

    def scaled(self, block_px: int) -> "FrameLayout":
        """Same grid with a different block size (the adaptive-config knob)."""
        return FrameLayout(self.grid_rows, self.grid_cols, block_px)
