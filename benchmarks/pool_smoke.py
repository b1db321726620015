"""Pooled-decode smoke check: bit-identical pooled decode, no leaks.

CI's ``pool-smoke`` job runs this against the golden corpus: a
2-worker ``decode_stream`` of the fixtures' uint8 captures through the
persistent process pool must produce field-for-field the same results
as the serial decoder, at least one worker process must have run it,
and after ``close_shared_pools()`` no worker process may be alive and
no new entry (a queue semaphore or a shared-memory segment) may remain
in ``/dev/shm``.  The pool sizes itself to the cores this process may
use, so the check reports ``--workers`` cores, as the pool tests do:
on a one-core runner it would otherwise compare serial with serial.
Exit code 0 on success, 1 with a message on any violation — cheap
enough to run on every push.

Run from the repo root::

    PYTHONPATH=src python benchmarks/pool_smoke.py [--workers 2]
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.decoder import FrameDecoder  # noqa: E402
from repro.core.encoder import FrameCodecConfig  # noqa: E402
from repro.core.layout import FrameLayout  # noqa: E402
from repro.io import read_png  # noqa: E402
from repro.serve import close_shared_pools, pool  # noqa: E402

CORPUS_DIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "corpus"


def _comparable(results: list) -> list:
    return [None if r is None else dataclasses.asdict(r) for r in results]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2, help="pooled worker count")
    args = parser.parse_args(argv)
    pool.available_cpus = lambda: args.workers

    shm_before = set(glob.glob("/dev/shm/*"))

    # Must match tests/fixtures/regen_corpus.py's GRID.
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    decoder = FrameDecoder(FrameCodecConfig(layout=layout, display_rate=10))
    images = [read_png(path) for path in sorted(CORPUS_DIR.glob("*.png"))]
    if not images:
        print(f"pool smoke: no corpus fixtures under {CORPUS_DIR}", file=sys.stderr)
        return 1

    serial = decoder.decode_stream(images, workers=1)
    pooled = decoder.decode_stream(images, workers=args.workers)
    worker_processes = len(multiprocessing.active_children())

    failures = []
    if not worker_processes:
        failures.append(f"no worker process ran the {args.workers}-worker decode")
    if _comparable(pooled) != _comparable(serial):
        failures.append(f"{args.workers}-worker decode differs from serial")
    if not any(r is not None for r in serial):
        failures.append("corpus produced no successful decodes (fixtures broken?)")

    close_shared_pools()
    if multiprocessing.active_children():
        failures.append("worker processes outlived close_shared_pools()")
    leaked = set(glob.glob("/dev/shm/*")) - shm_before
    if leaked:
        failures.append(f"leaked /dev/shm entries: {sorted(leaked)}")

    if failures:
        for failure in failures:
            print(f"pool smoke: {failure}", file=sys.stderr)
        return 1
    decoded = sum(r is not None for r in serial)
    print(
        f"pool smoke OK: {decoded}/{len(images)} fixtures decoded, "
        f"{args.workers}-worker output bit-identical to serial, "
        f"{worker_processes} worker process(es) reaped, no /dev/shm leaks"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
