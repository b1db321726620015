"""Structured JSONL event log.

Every telemetry-enabled run streams one JSON object per line into an
events file.  The schema is deliberately tiny:

* every line has an ``"event"`` type (string) and a ``"seq"`` (the
  emitting sink's monotonically increasing integer — *not* a wall-clock
  timestamp, so merged logs stay deterministic);
* the first line of every sink is a ``"run"`` event carrying the run
  metadata (seed, scenario, git rev, repo version) under ``"meta"``;
* event-specific payload fields ride alongside (``stage``, ``round``,
  ``sequence``, ``ok`` ...).

Concurrent writers are guarded structurally: each worker process writes
its *own* shard file (``events-<pid>.jsonl`` — see :func:`shard_path`),
so no two processes ever share a file descriptor and no interleaved or
truncated lines can occur.  :func:`merge_shards` folds the shards into
one log afterwards, sorted by the deterministic key
``(scenario, seed, shard, seq)``.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import IO, Any

__all__ = [
    "EventSink",
    "NullEventSink",
    "NULL_SINK",
    "run_metadata",
    "shard_path",
    "merge_shards",
    "validate_event",
    "validate_events_file",
    "EVENT_SCHEMA",
]

#: Required payload fields per event type (beyond the universal
#: ``event`` and ``seq``).  Unknown event types are allowed — the
#: schema check only pins the fields of the types the pipeline emits.
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "run": ("meta",),
    "session_start": ("frames", "payload_bytes"),
    "round": ("round", "outstanding"),
    "capture_dropped": ("stage",),
    "frame": ("sequence", "ok"),
    "session_end": ("delivered", "rounds"),
    # Periodic campaign heartbeat: one per completed trial, carrying
    # the worker's running progress for `repro telemetry tail`.
    "progress": ("scenario", "seed", "completed"),
    # Per-round channel-quality sample from the link session;
    # t_display_s is cumulative *simulated* display time (RB004).
    "quality": ("round", "goodput_kbps", "crc_failures", "t_display_s"),
}


def _git_revision() -> str:
    """Current git revision, or "" outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


_GIT_REV_CACHE: str | None = None


def run_metadata(
    seed: int | None = None, scenario: str | None = None, **extra: Any
) -> dict[str, Any]:
    """Per-run metadata dict for the leading ``run`` event."""
    global _GIT_REV_CACHE
    if _GIT_REV_CACHE is None:
        _GIT_REV_CACHE = _git_revision()
    from .. import __version__

    meta: dict[str, Any] = {"version": __version__, "git_rev": _GIT_REV_CACHE}
    if seed is not None:
        meta["seed"] = int(seed)
    if scenario is not None:
        meta["scenario"] = str(scenario)
    meta.update(extra)
    return meta


class EventSink:
    """Streams JSONL events to a file (or buffers in memory).

    With ``path=None`` events accumulate in :attr:`buffer` — handy for
    tests and for workers that ship events back through the process
    pool.  With a path, the file opens lazily on the first emit and each
    line is flushed immediately.
    """

    def __init__(self, path: str | Path | None = None, meta: dict[str, Any] | None = None):
        self.path = Path(path) if path is not None else None
        self.buffer: list[dict[str, Any]] = []
        self._file: IO[str] | None = None
        self._seq = 0
        self._meta = meta

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one event line; returns the emitted object."""
        if self._seq == 0 and event != "run":
            self._emit_obj({"event": "run", "seq": 0, "meta": self._meta or run_metadata()})
        obj: dict[str, Any] = {"event": event, "seq": self._seq}
        obj.update(fields)
        self._emit_obj(obj)
        return obj

    def _emit_obj(self, obj: dict[str, Any]) -> None:
        self._seq += 1
        if self.path is None:
            self.buffer.append(obj)
            return
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Held across emits and released by close(): the sink owns it.
            self._file = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        self._file.write(json.dumps(obj, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class NullEventSink:
    """Zero-cost sink used whenever telemetry is disabled."""

    __slots__ = ()
    buffer: list[dict[str, Any]] = []

    def __bool__(self) -> bool:
        return False

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        pass


NULL_SINK = NullEventSink()


def shard_path(directory: str | Path, worker: int | str | None = None) -> Path:
    """Per-process shard file under *directory*.

    Defaults the shard id to the calling process's PID, which is what
    guards parallel workers against interleaved writes: every process
    appends to its own file.
    """
    if worker is None:
        worker = os.getpid()
    return Path(directory) / f"events-{worker}.jsonl"


def merge_shards(
    directory: str | Path, out_path: str | Path | None = None
) -> list[dict[str, Any]]:
    """Merge every ``events-*.jsonl`` shard under *directory*.

    Lines are ordered by the deterministic key ``(scenario, seed,
    shard, seq)``; the scenario/seed identity comes from each shard's
    leading ``run`` metadata (overridable per event), so PIDs only
    break ties between shards and two runs of the same deterministic
    workload produce the same merged event *content* in the same order
    (shard names are dropped from the output).  Returns the merged
    event objects; writes them to *out_path* as JSONL when given.
    """
    directory = Path(directory)
    keyed: list[tuple[tuple[str, int, str, int], dict[str, Any]]] = []
    for shard in sorted(directory.glob("events-*.jsonl")):
        with open(shard, encoding="utf-8") as fh:
            objs = [json.loads(line) for line in fh if line.strip()]
        shard_meta: dict[str, Any] = {}
        for obj in objs:
            if obj.get("event") == "run" and isinstance(obj.get("meta"), dict):
                shard_meta = obj["meta"]
                break
        for obj in objs:
            key = (
                str(obj.get("scenario", shard_meta.get("scenario", ""))),
                int(obj.get("seed", shard_meta.get("seed", -1)) or 0),
                shard.name,
                int(obj.get("seq", 0)),
            )
            keyed.append((key, obj))
    keyed.sort(key=lambda pair: pair[0])
    merged = [obj for __, obj in keyed]
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            for obj in merged:
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return merged


def validate_event(obj: object) -> str | None:
    """Schema-check one event object; returns an error string or None."""
    if not isinstance(obj, dict):
        return f"event line is not an object: {type(obj).__name__}"
    event = obj.get("event")
    if not isinstance(event, str) or not event:
        return "missing or non-string 'event' field"
    seq = obj.get("seq")
    if not isinstance(seq, int) or seq < 0:
        return f"event {event!r}: missing or invalid 'seq'"
    for field in EVENT_SCHEMA.get(event, ()):
        if field not in obj:
            return f"event {event!r}: missing required field {field!r}"
    return None


def validate_events_file(path: str | Path) -> list[str]:
    """Schema-check a JSONL file; returns a list of error strings."""
    errors: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{path}:{lineno}: not valid JSON ({exc.msg})")
                continue
            problem = validate_event(obj)
            if problem:
                errors.append(f"{path}:{lineno}: {problem}")
    return errors
