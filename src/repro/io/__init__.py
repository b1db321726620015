"""Persistence and export: images, frame/capture archives, capture traces.

* :mod:`repro.io.images` — dependency-free PNG writer/reader and the
  flat ``.npz`` archives for frame stacks and capture sessions;
* :mod:`repro.io.trace` — the versioned, streamable capture-trace
  container (npz chunks + JSONL index) that decouples recorded capture
  sessions from the simulator that produced them.

Everything is re-exported here, so ``from repro.io import write_png``
keeps working now that :mod:`repro.io` is a package.
"""

from .images import (
    load_captures,
    load_frame_stream,
    read_png,
    save_captures,
    save_frame_stream,
    write_png,
)
from .trace import (
    TRACE_MAGIC,
    TRACE_SCHEMA_VERSION,
    TraceFormatError,
    TraceFrame,
    TraceMetadata,
    TraceReader,
    TraceWriter,
    read_trace,
    trace_info,
    write_trace,
)

__all__ = [
    "write_png",
    "read_png",
    "save_frame_stream",
    "load_frame_stream",
    "save_captures",
    "load_captures",
    "TRACE_SCHEMA_VERSION",
    "TRACE_MAGIC",
    "TraceFormatError",
    "TraceMetadata",
    "TraceFrame",
    "TraceWriter",
    "TraceReader",
    "write_trace",
    "read_trace",
    "trace_info",
]
