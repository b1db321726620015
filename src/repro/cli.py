"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``encode``    bytes/file -> barcode frame stream (.npz) + optional PNGs
``decode``    recorded session (capture trace) -> payload, via ``BufferedReceiver``
``simulate``  end-to-end demo over the simulated channel (``--save-session``: a trace)
``capacity``  print the Section III-B capacity comparison
``info``      describe a saved frame stream
``trace``     capture traces: ``record`` a simulated session into the
versioned trace container, replay-``decode`` one capture by capture
(optionally across the worker pool), ``info``/validate one
``faults-campaign``  sweep the fault-injection matrix across seeds
``telemetry``  report on a ``REPRO_TELEMETRY=1`` run's artifacts
(``report``/``tail``)
``quality``   channel-quality observatory: render the link-health /
RS-margin / confusion-matrix report from a telemetry run, or gate it
against the ``[quality.*]`` budgets (``report [--check]``)
``perf``      perf gate: ``check`` a perfbench result against the
``[perf.<workload>.*]`` budgets of ``budgets.toml``

The CLI wraps the same public API the examples use; it exists so the
library is drivable without writing Python.  When ``REPRO_TELEMETRY=1``
is set, every command flushes its metrics snapshot and event shards to
``$REPRO_TELEMETRY_DIR`` (default ``telemetry/``) on exit; ``repro
telemetry report`` then renders them.  Per-stage timing comes from a
traced ``perfbench/run.py --trace 1`` run: ``repro perf check`` reads
its final JSON line and gates its metrics.

Exit codes: 0 ok; 1 the data failed (an incomplete stream, a container
the reader rejects, a failed check); 2 a usage error, an input file
the OS cannot open or an output path it cannot write.  No input file or
output path ends in a traceback, and :func:`main` returns the code
rather than raising :exc:`SystemExit`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from .channel.link import Capture, ScreenCameraLink
    from .channel.screen import FrameSchedule
    from .core.encoder import Frame, FrameCodecConfig
    from .faults import FaultPlan
    from .io.trace import TraceMetadata, TraceReader

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RainBar color-barcode visual communication (ICDCS 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into a barcode frame stream")
    enc.add_argument("input", help="input file ('-' reads stdin)")
    enc.add_argument("-o", "--output", required=True, help="output .npz stream")
    enc.add_argument("--display-rate", type=int, default=10)
    enc.add_argument("--block-px", type=int, default=12)
    enc.add_argument("--png-dir", help="also write one PNG per frame here")

    about = "reassemble a recorded session's payload across its captures (BufferedReceiver)"
    dec = sub.add_parser("decode", help=about, description=about)
    dec.add_argument("session", help="capture trace (e.g. from simulate --save-session); "
                                     "its header's geometry beats the flags below")
    dec.add_argument("-o", "--output", help="write recovered bytes here (default stdout)")
    dec.add_argument("--display-rate", type=int, default=10)
    dec.add_argument("--block-px", type=int, default=12)

    sim = sub.add_parser("simulate", help="end-to-end demo over the simulated channel")
    sim.add_argument("--message", default="hello from the RainBar CLI")
    sim.add_argument("--distance-cm", type=float, default=12.0)
    sim.add_argument("--angle-deg", type=float, default=0.0)
    sim.add_argument("--display-rate", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--save-session",
                     help="record the captures as a capture trace in this directory")

    sub.add_parser("capacity", help="print the Section III-B capacity table")

    info = sub.add_parser("info", help="describe a saved frame stream")
    info.add_argument("stream", help=".npz written by `repro encode`")

    camp = sub.add_parser(
        "faults-campaign",
        help="sweep the fault-injection matrix across seeds",
        description=(
            "Runs one NACK/retransmission transfer session per (fault "
            "scenario, seed) pair and writes per-fault frame-loss and "
            "recovery tables.  Counters are bit-identical for any "
            "--workers value.  Exits 1 when any session returned bytes "
            "that differ from those sent (undetected errors)."
        ),
    )
    camp.add_argument("--seeds", type=int, default=8, help="seeds per scenario")
    camp.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS or cpu count)",
    )
    camp.add_argument(
        "--scenarios", default=None,
        help="comma-separated scenario names (default: full matrix)",
    )
    camp.add_argument("--frames", type=int, default=2, help="frames per payload")
    camp.add_argument("--max-rounds", type=int, default=3, help="NACK rounds per session")
    camp.add_argument(
        "--out", default="benchmarks/results",
        help="output directory for the .txt/.json tables ('-' prints only)",
    )

    tel = sub.add_parser(
        "telemetry",
        help="inspect a REPRO_TELEMETRY=1 run's artifacts",
        description=(
            "Reads metrics.json and the event shards under the telemetry "
            "directory. 'report' renders the decode failure-stage "
            "breakdown, pool health and event counts by type; 'tail' "
            "renders per-scenario campaign progress from worker "
            "heartbeats."
        ),
    )
    tel_sub = tel.add_subparsers(dest="telemetry_command", required=True)
    rep = tel_sub.add_parser("report", help="render the telemetry report")
    rep.add_argument(
        "--dir", default=None,
        help="telemetry directory (default: $REPRO_TELEMETRY_DIR or telemetry/)",
    )
    rep.add_argument(
        "--out", default="benchmarks/results",
        help="write T1_telemetry_report.{txt,json} here ('-' prints only)",
    )
    rep.add_argument(
        "--check", action="store_true",
        help="validate the artifacts (event schema, run header, metrics sections); "
             "exit non-zero on problems",
    )

    tail_p = tel_sub.add_parser(
        "tail",
        help="live per-scenario campaign progress from worker heartbeats",
        description=(
            "Reads the progress events faults_campaign workers stream "
            "into their shards and renders trials completed, frames "
            "delivered and failure-stage counts per scenario."
        ),
    )
    tail_p.add_argument(
        "--dir", default=None,
        help="telemetry directory (default: $REPRO_TELEMETRY_DIR or telemetry/)",
    )
    tail_p.add_argument("--follow", action="store_true",
                        help="keep refreshing until interrupted")
    tail_p.add_argument("--interval", type=float, default=2.0,
                        help="refresh interval in seconds (with --follow)")
    tail_p.add_argument("--expected-trials", type=int, default=None,
                        help="total trials per scenario, for progress fractions")
    tail_p.add_argument("--refreshes", type=int, default=None,
                        help="stop --follow after this many refreshes")

    qual = sub.add_parser(
        "quality",
        help="channel-quality observatory: link-health report and gate",
        description=(
            "Folds a REPRO_TELEMETRY=1 run's metrics snapshot into the "
            "channel-quality summary: RS correction margins, the color "
            "confusion matrix, locator/sync confidence, CRC failure "
            "rates and the goodput timeline."
        ),
    )
    qual_sub = qual.add_subparsers(dest="quality_command", required=True)
    qrep = qual_sub.add_parser(
        "report",
        help="render the channel-quality report (or gate it with --check)",
    )
    qrep.add_argument(
        "--dir", default=None,
        help="telemetry directory (default: $REPRO_TELEMETRY_DIR or telemetry/)",
    )
    qrep.add_argument(
        "--out", default="benchmarks/results",
        help="write Q1_quality_report.{txt,json} here ('-' prints only)",
    )
    qrep.add_argument(
        "--check", action="store_true",
        help="gate the summary against the [quality.*] budget tables; "
             "exit 0 pass, 1 fail, 2 usage error",
    )
    qrep.add_argument(
        "--budget", default="budgets.toml",
        help="budgets file with [quality.*] tables (.toml or .json)",
    )

    trace = sub.add_parser(
        "trace",
        help="capture traces: record, replay-decode, inspect",
        description=(
            "Works on the versioned capture-trace container "
            "(repro.io.trace): `record` simulates a session and writes "
            "it as a trace, `decode` replays a trace through the "
            "decode pipeline (optionally across the worker pool), and "
            "`info` renders the header and validates the container."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trec = trace_sub.add_parser(
        "record", help="simulate a transmission and record it as a trace"
    )
    trec.add_argument("-o", "--output", required=True, help="trace directory to write")
    trec.add_argument("--message", default="hello from the RainBar CLI")
    trec.add_argument("--input", default=None,
                      help="encode this file instead of --message")
    trec.add_argument("--scenario", default=None,
                      help="fault scenario to inject (see faults-campaign)")
    trec.add_argument("--distance-cm", type=float, default=12.0)
    trec.add_argument("--angle-deg", type=float, default=0.0)
    trec.add_argument("--display-rate", type=int, default=10)
    trec.add_argument("--seed", type=int, default=0)
    trec.add_argument("--chunk-frames", type=int, default=64,
                      help="frames per npz chunk")

    about = "replay-decode a trace, each capture alone (no cross-capture check)"
    tdec = trace_sub.add_parser("decode", help=about, description=about)
    tdec.add_argument("trace", help="trace directory written by `repro trace record`")
    tdec.add_argument("--display-rate", type=int, default=10)
    tdec.add_argument("--block-px", type=int, default=12)
    tdec.add_argument("--grid", default=None,
                      help="decoder grid as ROWSxCOLSxBLOCK (overrides "
                           "--display-rate/--block-px geometry defaults)")
    tdec.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: REPRO_WORKERS or serial)")
    tdec.add_argument("--chunksize", type=int, default=None,
                      help="frames per pool job")
    tdec.add_argument("--json", dest="json_out", default=None,
                      help="write per-frame decode outcomes as JSON here "
                           "(stable across worker counts — diffable)")
    tdec.add_argument("--no-verify", action="store_true",
                      help="skip per-chunk checksum verification")

    tinf = trace_sub.add_parser("info", help="describe a recorded trace")
    tinf.add_argument("trace", help="trace directory")
    tinf.add_argument("--check", action="store_true",
                      help="also walk every chunk (full conformance check)")

    perf = sub.add_parser(
        "perf",
        help="perf gate: check a perfbench result against budgets",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    pcheck = perf_sub.add_parser(
        "check",
        help="gate a perfbench result against its [perf.<workload>.*] budgets",
        description=(
            "Reads RESULT, the saved stdout of `python3 perfbench/run.py "
            "--workload NAME ... --trace 1`, whose last line is the result "
            "object.  Fails if the run is not correct, if any session "
            "failed, or if a metric breaks a min/max bound of "
            "[perf.NAME.\"<metric>\"] (a budgeted metric that is missing "
            "fails too).  Exit 0 pass, 1 regression, 2 usage error."
        ),
    )
    pcheck.add_argument("result", help="file holding perfbench stdout")
    pcheck.add_argument("--workload", required=True,
                        help="perfbench workload whose budgets apply")
    pcheck.add_argument("--budget", default="budgets.toml",
                        help="budgets file (.toml or .json)")

    ana = sub.add_parser(
        "analyze",
        help="run the determinism & contract analyzer (see --list-rules)",
        description=(
            "Two-phase static analysis over the repro tree: per-file rules "
            "(global-nondeterminism, seed plumbing, uint8 overflow hazards, "
            "telemetry hygiene, schema-version hygiene) plus "
            "project passes (import layering, stale suppressions).  Exit 0 "
            "clean, 1 violations, 2 usage error.  All arguments are "
            "forwarded to `python -m repro.analysis`."
        ),
    )
    ana.add_argument(
        "analyze_args",
        nargs=argparse.REMAINDER,
        help=(
            "arguments for repro.analysis (paths, --format, --select, "
            "--list-rules)"
        ),
    )
    return parser


def _config(display_rate: int, block_px: int) -> "FrameCodecConfig":
    from .core.encoder import FrameCodecConfig
    from .core.layout import FrameLayout

    height, width = 408, 720
    layout = FrameLayout(
        grid_rows=max(height // block_px, 10),
        grid_cols=max(width // block_px, 44),
        block_px=block_px,
    )
    return FrameCodecConfig(layout=layout, display_rate=display_rate)


def _cmd_encode(args: argparse.Namespace) -> int:
    from .core.encoder import FrameEncoder
    from .io import save_frame_stream, write_png

    try:
        data = sys.stdin.buffer.read() if args.input == "-" else Path(args.input).read_bytes()
    except OSError as exc:
        return _failed("encode", exc)
    config = _config(args.display_rate, args.block_px)
    frames = FrameEncoder(config).encode_stream(data)
    try:
        save_frame_stream(args.output, frames)
        print(f"{len(data)} bytes -> {len(frames)} frames "
              f"({config.payload_bytes_per_frame} payload bytes each) -> {args.output}")
        if args.png_dir:
            png_dir = Path(args.png_dir)
            png_dir.mkdir(parents=True, exist_ok=True)
            for frame in frames:
                write_png(png_dir / f"frame_{frame.header.sequence:05d}.png", frame.render())
            print(f"wrote {len(frames)} PNGs to {png_dir}")
    except OSError as exc:
        return _failed("encode", exc)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from .core.decoder import FrameDecoder
    from .io.trace import TraceFormatError, TraceReader
    from .link.reassembly import PayloadAssembler
    from .link.receiver_modes import BufferedReceiver

    try:
        reader = TraceReader(args.session)
        config = _trace_decoder_config(reader.metadata, args.display_rate, args.block_px)
    except (OSError, ValueError) as exc:
        return _failed("decode", exc)
    try:
        report = BufferedReceiver(FrameDecoder(config)).process(_trace_captures(reader))
    except (OSError, TraceFormatError) as exc:
        return _failed("decode", exc)
    assembler = PayloadAssembler()
    assembler.add_all(report.results)

    # missing() can only list gaps below the highest sequence received,
    # so an unseen last frame has to be said outright.
    missing = assembler.missing()
    if assembler.expected_count is None:
        gaps = (f"missing {missing}; " if missing else "") + "last frame never seen"
    else:
        gaps = f"missing {missing}"
    print(
        f"{report.captures_seen} captures, {report.captures_dropped_error} dropped; "
        f"{assembler.received_count} frames recovered; {gaps}",
        file=sys.stderr,
    )
    if not assembler.complete:
        print("stream incomplete", file=sys.stderr)
        return 1
    payload = assembler.payload()
    if args.output:
        try:
            Path(args.output).write_bytes(payload)
        except OSError as exc:
            return _failed("decode", exc)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.decoder import FrameDecoder
    from .link.receiver_modes import BufferedReceiver

    message = args.message.encode()
    config, frames, schedule, link = _simulated_session(args, message)
    if args.save_session:
        # Decode the recorded trace, so the session on disk is the one checked.
        try:
            reader = link.export_trace(
                schedule, args.save_session,
                extra_metadata=_session_metadata(config, len(message)),
            )
        except OSError as exc:
            return _failed("simulate", exc)
        captures: Iterable[Capture] = _trace_captures(reader)
    else:
        captures = link.capture_stream(schedule)

    report = BufferedReceiver(FrameDecoder(config)).process(captures)
    results, dropped = report.results, report.captures_dropped_error
    recovered = b"".join(
        r.payload for r in sorted(results, key=lambda r: r.sequence) if r.ok
    )[: len(message)]

    print(f"frames: {len(frames)}, captures: {report.captures_seen} ({dropped} dropped)")
    ok = recovered == message
    print(f"recovered {'OK' if ok else 'MISMATCH'}: {recovered.decode(errors='replace')!r}")
    return 0 if ok else 1


def _cmd_capacity(__: argparse.Namespace) -> int:
    from .core.capacity import (
        cobra_code_blocks,
        galaxy_s4_grid,
        rainbar_code_blocks_paper,
        rdcode_code_blocks,
    )

    cols, rows = galaxy_s4_grid(13)
    print(f"Galaxy S4 grid: {cols} x {rows} blocks of 13 px")
    print(f"  RainBar : {rainbar_code_blocks_paper(cols, rows):6d} code blocks")
    print(f"  COBRA   : {cobra_code_blocks(cols, rows):6d} code blocks")
    print(f"  RDCode  : {rdcode_code_blocks(cols, rows):6d} code blocks")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .io import load_frame_stream

    try:
        frames = load_frame_stream(args.stream)
    except (OSError, ValueError) as exc:  # unopenable / not a frame stream
        print(f"info: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    first = frames[0]
    print(f"{len(frames)} frames, grid {first.layout.grid_cols} x "
          f"{first.layout.grid_rows} at {first.layout.block_px} px")
    print(f"display rate {first.header.display_rate} fps, "
          f"app type {first.header.app_type}")
    print(f"payload {len(first.payload)} bytes/frame; "
          f"last-frame flag on #{[f.header.sequence for f in frames if f.header.is_last]}")
    return 0


def _cmd_faults_campaign(args: argparse.Namespace) -> int:
    from .bench.faults_campaign import (
        format_table,
        run_campaign,
        summarize,
        write_campaign_results,
    )
    from .faults import scenario_names

    if args.scenarios:
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
        unknown = sorted(set(names) - set(scenario_names()))
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(scenario_names())}", file=sys.stderr)
            return 2
    else:
        names = scenario_names()

    trials = run_campaign(
        scenarios=names,
        seeds=args.seeds,
        workers=args.workers,
        num_frames=args.frames,
        max_rounds=args.max_rounds,
    )
    summaries = summarize(trials)
    print(format_table(summaries))
    if args.out != "-":
        try:
            txt, js = write_campaign_results(args.out, trials, summaries)
        except OSError as exc:
            return _failed("faults-campaign", exc)
        print(f"\nwrote {txt} and {js}")
    undetected = sum(s.undetected_errors for s in summaries)
    if undetected:
        # The link promises exact bytes or a reported failure.
        print(f"{undetected} session(s) returned wrong bytes", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _cmd_trace_record(args)
    if args.trace_command == "decode":
        return _cmd_trace_decode(args)
    return _cmd_trace_info(args)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .faults import scenario_names, scenario_plan

    try:
        data = args.message.encode() if args.input is None else Path(args.input).read_bytes()
    except OSError as exc:
        return _failed("trace record", exc)
    faults = None
    if args.scenario:
        if args.scenario not in scenario_names():
            print(f"unknown scenario {args.scenario!r}; "
                  f"available: {', '.join(scenario_names())}", file=sys.stderr)
            return 2
        faults = scenario_plan(args.scenario, seed=args.seed)

    config, frames, schedule, link = _simulated_session(args, data, faults)
    try:
        reader = link.export_trace(
            schedule, args.output, chunk_frames=args.chunk_frames,
            extra_metadata=_session_metadata(config, len(data)),
        )
    except OSError as exc:
        return _failed("trace record", exc)
    print(f"{len(data)} bytes -> {len(frames)} frames -> "
          f"{reader.num_frames} captures recorded to {args.output} "
          f"({len(reader._index)} chunk(s), scenario "
          f"{args.scenario or 'clean'})")
    return 0


def _simulated_session(
    args: argparse.Namespace, data: bytes, faults: "FaultPlan | None" = None
) -> "tuple[FrameCodecConfig, list[Frame], FrameSchedule, ScreenCameraLink]":
    """*data*'s frames on a screen and the simulated camera filming it."""
    from .channel.link import LinkConfig, ScreenCameraLink
    from .channel.screen import FrameSchedule
    from .core.encoder import FrameEncoder

    config = _config(args.display_rate, 12)
    frames = FrameEncoder(config).encode_stream(data)
    schedule = FrameSchedule(
        [f.render() for f in frames], display_rate=args.display_rate, faults=faults
    )
    link = ScreenCameraLink(
        LinkConfig(distance_cm=args.distance_cm, view_angle_deg=args.angle_deg),
        rng=np.random.default_rng(args.seed),
        faults=faults,
    )
    return config, frames, schedule, link


def _session_metadata(config: "FrameCodecConfig", payload_bytes: int) -> dict[str, object]:
    """Geometry for a session's trace header: its decoders then need no flags."""
    layout = config.layout
    return {
        "display_rate": config.display_rate,
        "grid_rows": layout.grid_rows,
        "grid_cols": layout.grid_cols,
        "block_px": layout.block_px,
        "payload_bytes": payload_bytes,
    }


def _trace_captures(reader: "TraceReader") -> "Iterator[Capture]":
    """A trace's frames as captures, streamed chunk by chunk."""
    from .channel.link import Capture

    return (Capture(frame.time, frame.image) for frame in reader)


def _failed(command: str, exc: Exception) -> int:
    """Report a failed read or write: 1 if the trace reader rejected it, else 2."""
    from .io.trace import TraceFormatError

    print(f"{command}: {exc}", file=sys.stderr)
    return 1 if isinstance(exc, TraceFormatError) else 2


def _trace_decoder_config(
    metadata: "TraceMetadata", display_rate: int, block_px: int, grid: "str | None" = None
) -> "FrameCodecConfig":
    """Decoder geometry for a trace: *grid* > trace header > the given defaults."""
    from .core.encoder import FrameCodecConfig
    from .core.layout import FrameLayout
    from .io.trace import TraceFormatError

    if grid:
        try:
            rows, cols, block = (int(v) for v in grid.lower().split("x"))
        except ValueError:
            raise ValueError(f"--grid must be ROWSxCOLSxBLOCK, got {grid!r}")
        return FrameCodecConfig(
            layout=FrameLayout(grid_rows=rows, grid_cols=cols, block_px=block),
            display_rate=display_rate,
        )
    extra = metadata.extra
    if {"grid_rows", "grid_cols", "block_px"} <= set(extra):
        try:
            return FrameCodecConfig(
                layout=FrameLayout(
                    grid_rows=int(extra["grid_rows"]),
                    grid_cols=int(extra["grid_cols"]),
                    block_px=int(extra["block_px"]),
                ),
                display_rate=int(extra.get("display_rate", display_rate)),
            )
        except (TypeError, ValueError) as exc:  # the trace's data, not a flag
            raise TraceFormatError(f"unusable geometry in the trace header: {exc}") from exc
    return _config(display_rate, block_px)


def _cmd_trace_decode(args: argparse.Namespace) -> int:
    import hashlib
    import json as json_mod

    from .core.decoder import FrameDecoder
    from .io.trace import TraceFormatError, TraceReader

    try:
        reader = TraceReader(args.trace, verify=not args.no_verify)
        config = _trace_decoder_config(
            reader.metadata, args.display_rate, args.block_px, args.grid
        )
    except (OSError, ValueError) as exc:
        return _failed("trace decode", exc)

    decoder = FrameDecoder(config)
    try:
        results = decoder.decode_trace(
            reader, workers=args.workers, chunksize=args.chunksize
        )
    except (OSError, TraceFormatError) as exc:
        return _failed("trace decode", exc)

    outcomes = []
    for index, result in enumerate(results):
        if result is None:
            outcomes.append({"index": index, "decoded": False})
            continue
        outcomes.append({
            "index": index,
            "decoded": True,
            "ok": result.ok,
            "sequence": result.sequence,
            "payload_sha256": hashlib.sha256(result.payload).hexdigest(),
            "erased_bytes": result.erased_bytes,
            "failure": result.failure,
        })
    decoded = sum(1 for o in outcomes if o["decoded"])
    ok = sum(1 for o in outcomes if o.get("ok"))
    print(f"{len(results)} capture(s): {decoded} decoded, {ok} frame(s) ok, "
          f"{len(results) - decoded} undecodable")
    if args.json_out:
        from . import telemetry

        doc = {
            "trace": str(args.trace),
            "schema_version": reader.header["version"],
            "captures": len(results),
            "results": outcomes,
        }
        # Telemetry-enabled replays embed the deterministic metrics
        # snapshot (timing excluded), which stays byte-identical across
        # worker counts — the outcome file remains diffable.
        registry = telemetry.registry()
        if telemetry.env_enabled() and registry:
            doc["metrics"] = registry.snapshot(include_timing=False)
        out = Path(args.json_out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json_mod.dumps(doc, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            return _failed("trace decode", exc)
        print(f"wrote {out}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .io.trace import TraceFormatError, TraceReader, trace_info

    try:
        info = trace_info(args.trace)
    except (OSError, TraceFormatError) as exc:
        return _failed("trace info", exc)
    print(f"capture trace {info['path']} (schema v{info['version']})")
    shape = "x".join(str(d) for d in info["frame_shape"]) or "?"
    print(f"  {info['num_frames']} frame(s) of {shape} {info['frame_dtype']} "
          f"in {info['num_chunks']} chunk(s)")
    if info["duration_s"] is not None:
        print(f"  duration {info['duration_s']:.3f} s")
    meta = info["metadata"]
    if meta.get("resolution"):
        print(f"  resolution {meta['resolution'][0]}x{meta['resolution'][1]}, "
              f"fps {meta.get('fps')}, exposure {meta.get('exposure_s')} s, "
              f"readout {meta.get('readout_fraction')}")
    print(f"  fault plan: {meta.get('fault_plan') or 'clean'}; "
          f"recorded at git rev {meta.get('git_rev') or '?'}")
    if meta.get("extra"):
        print(f"  extra: {meta['extra']}")
    if args.check:
        try:
            TraceReader(args.trace).validate()
        except (OSError, TraceFormatError) as exc:
            return _failed("trace info: conformance check FAILED", exc)
        print("  conformance check passed (all chunks verified)")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.telemetry_command == "tail":
        return _cmd_telemetry_tail(args)
    return _cmd_telemetry_report(args)


def _cmd_telemetry_tail(args: argparse.Namespace) -> int:
    from . import telemetry
    from .telemetry.perf import tail

    directory = Path(args.dir) if args.dir else telemetry.output_dir()
    if not directory.is_dir():
        print(f"no telemetry directory at {directory} "
              f"(run something with {telemetry.ENV_TOGGLE}=1 first)", file=sys.stderr)
        return 2
    tail(
        directory,
        follow=args.follow,
        interval=args.interval,
        expected_trials=args.expected_trials,
        max_refreshes=args.refreshes,
    )
    return 0


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    from . import telemetry
    from .telemetry.report import build_report, check_report, format_report, write_report

    directory = Path(args.dir) if args.dir else telemetry.output_dir()
    if not directory.is_dir():
        print(f"no telemetry directory at {directory} "
              f"(run something with {telemetry.ENV_TOGGLE}=1 first)", file=sys.stderr)
        return 2

    if args.check:
        problems = check_report(directory)
        if problems:
            for problem in problems:
                print(f"check: {problem}", file=sys.stderr)
            return 1
        print(f"telemetry artifacts under {directory} are consistent")
        return 0

    report = build_report(directory)
    print(format_report(report))
    if args.out != "-":
        try:
            txt, js = write_report(report, args.out)
        except OSError as exc:
            return _failed("telemetry report", exc)
        print(f"\nwrote {txt} and {js}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    return _cmd_quality_report(args)


def _cmd_quality_report(args: argparse.Namespace) -> int:
    from . import telemetry
    from .telemetry.budgets import check_budgets, format_check, load_budgets
    from .telemetry.quality import (
        build_quality_report,
        format_quality_report,
        write_quality_report,
    )

    directory = Path(args.dir) if args.dir else telemetry.output_dir()
    if not directory.is_dir():
        print(f"no telemetry directory at {directory} "
              f"(run something with {telemetry.ENV_TOGGLE}=1 first)", file=sys.stderr)
        return 2
    try:
        report = build_quality_report(directory)
    except (OSError, ValueError) as exc:
        print(f"quality report: {exc}", file=sys.stderr)
        return 2

    if args.check:
        try:
            budgets = load_budgets(args.budget, "quality")
        except (OSError, ValueError) as exc:
            print(f"quality report: {exc}", file=sys.stderr)
            return 2
        if not budgets:
            print(f"quality report: no [quality.*] tables in {args.budget}",
                  file=sys.stderr)
            return 2
        verdicts = check_budgets(report["summary"], budgets)
        print(format_check(verdicts, "quality check"))
        return 0 if all(v.ok for v in verdicts) else 1

    print(format_quality_report(report))
    if args.out != "-":
        try:
            txt, js = write_quality_report(report, args.out)
        except OSError as exc:
            return _failed("quality report", exc)
        print(f"\nwrote {txt} and {js}")
    return 0


def _read_perfbench_result(path: str) -> dict[str, Any]:
    """The result object on the last line of a saved perfbench stdout."""
    import json

    lines = Path(path).read_text().rstrip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty, expected perfbench stdout")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: last line is not JSON ({exc.msg})") from exc
    if not (
        isinstance(result, dict)
        and isinstance(result.get("correct"), bool)
        and isinstance(result.get("failed"), int)
        and isinstance(result.get("metrics"), dict)
    ):
        raise ValueError(f"{path}: last line is not a perfbench result object")
    return result


def _cmd_perf(args: argparse.Namespace) -> int:
    from .telemetry.budgets import Verdict, check_budgets, format_check, load_budgets

    table = f"perf.{args.workload}"
    try:
        budgets = load_budgets(args.budget, table)
        result = _read_perfbench_result(args.result)
    except (OSError, ValueError) as exc:
        print(f"perf check: {exc}", file=sys.stderr)
        return 2
    if not budgets:
        print(f"perf check: no [{table}.*] tables in {args.budget}", file=sys.stderr)
        return 2
    # A malformed metric entry reads as not recorded, which fails its budget.
    metrics = {
        name: entry.get("value") if isinstance(entry, dict) else None
        for name, entry in result["metrics"].items()
    }
    correct = result["correct"] and result["failed"] == 0
    verdicts = [
        Verdict("failed", result["failed"], None, 0.0, correct,
                "" if correct else "run not correct"),
        *check_budgets(metrics, budgets),
    ]
    print(format_check(verdicts, "perf check"))
    return 0 if all(v.ok for v in verdicts) else 1


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "simulate": _cmd_simulate,
    "capacity": _cmd_capacity,
    "info": _cmd_info,
    "faults-campaign": _cmd_faults_campaign,
    "trace": _cmd_trace,
    "telemetry": _cmd_telemetry,
    "quality": _cmd_quality,
    "perf": _cmd_perf,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from . import telemetry

    if argv is None:
        argv = sys.argv[1:]
    # argparse's REMAINDER does not capture option-looking tokens that
    # precede the first positional (`repro analyze --list-rules`), so
    # the analyze subcommand forwards its argv without parsing it.
    if argv and argv[0] == "analyze":
        from .analysis.__main__ import main as analyze_main

        return analyze_main(argv[1:])
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help or a usage error, already printed
        return int(exc.code or 0)
    code = _COMMANDS[args.command](args)
    # Environment-enabled runs leave their trace/metrics behind for the
    # `telemetry report` / `quality report` subcommands (which must not
    # clobber the very artifacts they are reading).
    if (
        args.command not in ("telemetry", "quality")
        and telemetry.env_enabled()
        and telemetry.enabled()
    ):
        telemetry.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
