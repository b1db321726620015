"""Persistence and export: images, frame-stream archives, capture traces.

* :mod:`repro.io.images` — dependency-free PNG writer/reader and the
  flat ``.npz`` archive of an encoded frame stream;
* :mod:`repro.io.trace` — the versioned, streamable capture-trace
  container (npz chunks + JSONL index), the one format for recorded
  capture sessions, independent of the simulator that produced them.

Everything is re-exported here, so ``from repro.io import write_png``
keeps working now that :mod:`repro.io` is a package.
"""

from .images import (
    load_frame_stream,
    read_png,
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
    trace_info,
    write_trace,
)

__all__ = [
    "write_png",
    "read_png",
    "save_frame_stream",
    "load_frame_stream",
    "TRACE_SCHEMA_VERSION",
    "TRACE_MAGIC",
    "TraceFormatError",
    "TraceMetadata",
    "TraceFrame",
    "TraceWriter",
    "TraceReader",
    "write_trace",
    "trace_info",
]
