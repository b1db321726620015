"""Capture-trace smoke check: record, inspect, replay — bit-identical.

CI's ``trace-smoke`` job runs the whole trace lifecycle through the
CLI entry points: ``repro trace record`` writes a tiny simulated
session, ``repro trace info --check`` walks every chunk (checksums,
counts, timing), and ``repro trace decode`` replays it serially and
with 2 workers through the process pool — the two decode-outcome JSON
files must be byte-identical, and a worker process must have run the
pooled replay (the pool sizes itself to the cores this process may
use, so the check reports ``--workers`` cores, as the pool tests do).
The trace must hold ``uint8`` frames, the samples the camera writes.
Afterwards no new entry (a queue semaphore or a shared-memory segment)
may remain in ``/dev/shm`` and no stray files may remain outside the
scratch directory.  Exit 0 on success, 1 with a message on any
violation — cheap enough to run on every push.

Run from the repo root::

    PYTHONPATH=src python benchmarks/trace_smoke.py [--workers 2]
"""

from __future__ import annotations

import argparse
import glob
import multiprocessing
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import main as repro_main  # noqa: E402
from repro.io.trace import TraceReader  # noqa: E402
from repro.serve import close_shared_pools, pool  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2, help="pooled worker count")
    args = parser.parse_args(argv)
    pool.available_cpus = lambda: args.workers

    shm_before = set(glob.glob("/dev/shm/*"))
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="trace_smoke_") as scratch_str:
        scratch = Path(scratch_str)
        trace = scratch / "session.rbtrace"
        serial_json = scratch / "serial.json"
        pooled_json = scratch / "pooled.json"
        tmp_parent_before = set(Path(tempfile.gettempdir()).iterdir())

        if repro_main(["trace", "record", "-o", str(trace),
                       "--message", "trace smoke", "--seed", "3",
                       "--chunk-frames", "2"]) != 0:
            print("trace smoke: `trace record` failed", file=sys.stderr)
            return 1
        if repro_main(["trace", "info", str(trace), "--check"]) != 0:
            failures.append("`trace info --check` failed on a fresh trace")
        frame_dtype = TraceReader(trace).frame_dtype
        if frame_dtype != "uint8":
            failures.append(f"trace frames are {frame_dtype}, not uint8")
        if repro_main(["trace", "decode", str(trace),
                       "--json", str(serial_json)]) != 0:
            failures.append("serial `trace decode` failed")
        if repro_main(["trace", "decode", str(trace),
                       "--workers", str(args.workers),
                       "--json", str(pooled_json)]) != 0:
            failures.append(f"{args.workers}-worker `trace decode` failed")
        if not multiprocessing.active_children():
            failures.append(f"no worker process ran the {args.workers}-worker replay")

        close_shared_pools()

        if not failures and serial_json.read_bytes() != pooled_json.read_bytes():
            failures.append(
                f"{args.workers}-worker replay JSON differs from serial replay"
            )
        stray = set(Path(tempfile.gettempdir()).iterdir()) - tmp_parent_before
        stray -= {scratch}
        if stray:
            failures.append(f"stray temp files left behind: {sorted(map(str, stray))}")

    leaked = set(glob.glob("/dev/shm/*")) - shm_before
    if leaked:
        failures.append(f"leaked /dev/shm entries: {sorted(leaked)}")

    if failures:
        for failure in failures:
            print(f"trace smoke: {failure}", file=sys.stderr)
        return 1
    print(
        f"trace smoke OK: record -> info --check -> decode, "
        f"{args.workers}-worker replay bit-identical to serial, "
        "uint8 frames, no /dev/shm leaks, no stray temp files"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
