"""RainBar core: frame layout, encoding, and the receive pipeline."""

from .blocks import BlockLocalizer
from .brightness import BrightnessEstimate, estimate_black_threshold
from .capacity import CapacityReport, capacity_report
from .corners import CornerDetection, CornerDetectionError, detect_corner_trackers
from .debug import describe_extraction, geometry_overlay
from .decoder import (
    DECODE_STAGES,
    CaptureExtraction,
    DecodeError,
    DecodeFailure,
    FrameDecoder,
    FrameResult,
    assemble_frame,
)
from .encoder import Frame, FrameCodecConfig, FrameEncoder
from .header import HEADER_BYTES, FrameHeader, HeaderError
from .layout import CellRole, FrameLayout
from .locators import (
    LocatorColumn,
    LocatorError,
    correct_location,
    find_first_middle_locator,
    walk_locator_column,
)
from .palette import (
    Color,
    DATA_COLORS,
    bits_to_color,
    bytes_to_symbols,
    color_to_bits,
    symbols_to_bytes,
    tracking_bar_difference,
    tracking_color_for_sequence,
)
from .recognition import ColorClassifier, classify_hsv
from .renderer import render_grid
from .sync import StreamReassembler

__all__ = [
    "FrameLayout",
    "CellRole",
    "Color",
    "DATA_COLORS",
    "bits_to_color",
    "color_to_bits",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "tracking_color_for_sequence",
    "tracking_bar_difference",
    "FrameHeader",
    "HeaderError",
    "HEADER_BYTES",
    "Frame",
    "FrameCodecConfig",
    "FrameEncoder",
    "render_grid",
    "BrightnessEstimate",
    "estimate_black_threshold",
    "ColorClassifier",
    "classify_hsv",
    "CornerDetection",
    "CornerDetectionError",
    "detect_corner_trackers",
    "LocatorColumn",
    "LocatorError",
    "correct_location",
    "walk_locator_column",
    "find_first_middle_locator",
    "BlockLocalizer",
    "FrameDecoder",
    "FrameResult",
    "CaptureExtraction",
    "DecodeError",
    "DecodeFailure",
    "DECODE_STAGES",
    "assemble_frame",
    "StreamReassembler",
    "CapacityReport",
    "capacity_report",
    "geometry_overlay",
    "describe_extraction",
]
