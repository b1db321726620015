"""RainBar: robust application-driven visual communication using color barcodes.

A complete reproduction of the ICDCS 2015 paper: the RainBar system
(:mod:`repro.core`), the physical screen-camera channel it runs over
(:mod:`repro.channel`), the coding and imaging substrates it depends on
(:mod:`repro.coding`, :mod:`repro.imaging`), the application layer of
Section V (:mod:`repro.link`), and the baselines the paper compares
against (:mod:`repro.baselines`).

Quickstart::

    from repro import (FrameCodecConfig, FrameEncoder, FrameDecoder,
                       FrameSchedule, LinkConfig, ScreenCameraLink)
    from repro.link import BufferedReceiver

    config = FrameCodecConfig(display_rate=10)
    frames = FrameEncoder(config).encode_stream(b"hello, screen-camera world")
    schedule = FrameSchedule([f.render() for f in frames], display_rate=10)
    link = ScreenCameraLink(LinkConfig(distance_cm=12, view_angle_deg=15))

    report = BufferedReceiver(FrameDecoder(config)).process(
        link.capture_stream(schedule)
    )
    # report.results holds one FrameResult per frame; report.drop_reasons
    # counts the undecodable captures by failing pipeline stage.
"""

from .baselines import (
    CobraConfig,
    CobraDecoder,
    CobraEncoder,
    CobraReceiver,
    LightSyncConfig,
    LightSyncEncoder,
    LightSyncReceiver,
    RDCodeCodec,
    RDCodeLayout,
)
from .channel import (
    CameraTiming,
    EnvironmentProfile,
    FrameSchedule,
    LinkConfig,
    ScreenCameraLink,
    handheld,
    indoor,
    outdoor,
    tripod,
    walking,
)
from .core import (
    CaptureExtraction,
    Color,
    DecodeError,
    DecodeFailure,
    Frame,
    FrameCodecConfig,
    FrameDecoder,
    FrameEncoder,
    FrameHeader,
    FrameLayout,
    FrameResult,
    StreamReassembler,
    capacity_report,
)
from .link import (
    AdaptiveConfigurator,
    ApplicationType,
    FeedbackChannel,
    FileTransfer,
    PayloadAssembler,
    SessionStats,
    TransferSession,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "FrameLayout",
    "FrameCodecConfig",
    "FrameEncoder",
    "FrameDecoder",
    "Frame",
    "FrameHeader",
    "FrameResult",
    "CaptureExtraction",
    "StreamReassembler",
    "DecodeError",
    "DecodeFailure",
    "Color",
    "capacity_report",
    # channel
    "FrameSchedule",
    "CameraTiming",
    "LinkConfig",
    "ScreenCameraLink",
    "EnvironmentProfile",
    "indoor",
    "outdoor",
    "tripod",
    "handheld",
    "walking",
    # link layer
    "ApplicationType",
    "AdaptiveConfigurator",
    "FeedbackChannel",
    "TransferSession",
    "SessionStats",
    "FileTransfer",
    "PayloadAssembler",
    # baselines
    "CobraConfig",
    "CobraEncoder",
    "CobraDecoder",
    "CobraReceiver",
    "LightSyncConfig",
    "LightSyncEncoder",
    "LightSyncReceiver",
    "RDCodeCodec",
    "RDCodeLayout",
]
