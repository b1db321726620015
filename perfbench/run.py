"""End-to-end benchmark of the simulated Rain Bar link.

Run from the root of a checkout::

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with a timing probe on every layer boundary.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
run settings, a human-readable table and the simulated-statistics
digest.  The exit code is 0 when every session's outcome is correct, 1
when a correctness check failed and 2 when the run could not start.

Correct means: a session returns exactly the bytes sent or reports a
failure (never other bytes), and a repeated session reproduces its
simulated outcome exactly.  ``failed`` counts sessions that broke
either rule; a reported delivery failure under an injected fault is a
correct outcome and shows in ``delivered_frac`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from probes import LAYER_GROUPS, LAYER_PROBES, RECEIVE_PROBES, LayerClock, installed, layer_group

#: Native thread pools are capped before numpy loads: with the default
#: OpenBLAS threads one capture used ~1.4 CPU-seconds per wall second on
#: a 2-core host, so its speed depended on whatever else was running.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
#: Set-up runs this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Calibration kernel of set-up on every workload: object construction,
#: a warm-up capture and trace recording mix all kinds of work.
SETUP_KERNEL = "mixed"
#: After each session the calibration kernel runs for this share of
#: the session's time (at least once).
CALIBRATION_SHARE = 0.1
#: A session's host times are scaled by the median kernel run within
#: this many seconds of its middle.  One kernel run jitters by about a
#: tenth, so the window holds ten or more; the host's speed states last
#: tens of seconds, and a fault_recovery pass (about 15 s) spanned more
#: than one, so scaling by the whole pass lagged them.
SCALE_WINDOW_S = 3.0
#: Tail percentile of capture latency.  A transfer run processes about
#: 60 captures, enough for ten samples beyond p75 but not beyond p90.
TAIL = 75


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _percentile(samples: list[float], percentile: float) -> float:
    from repro.telemetry.perf.aggregate import nearest_rank

    return nearest_rank(sorted(samples), percentile)


def _digest(outcomes) -> str:
    return hashlib.sha256("\n".join(o.digest_line() for o in outcomes).encode()).hexdigest()


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload."""

    def __init__(self, import_s: float, workdir: Path):
        self.workload = None
        self.import_s = import_s
        self.workdir = workdir
        self.outcomes: list = []
        self.mismatches = 0
        self.lines: list[str] = []
        self.calibration = None
        #: Reference over the median calibration of the timed region.
        self.timed_scale = 1.0
        #: Receive-path session and capture seconds, scaled to the
        #: reference host by the calibration near their session.
        self.session_s: list[float] = []
        self.receive_s: list[float] = []

    # -- set-up ------------------------------------------------------------

    def set_up(self, make, calibration: str) -> float:
        """Build and warm up SETUP_REPEATS times, record inputs once.

        Returns set-up seconds (imports, build and recording) scaled to
        the reference host by the median of the SETUP_KERNEL
        calibrations after each step.
        """
        from calibrate import Calibration

        self.calibration = Calibration(calibration)
        cal = Calibration(SETUP_KERNEL)
        cal.sample()
        repeats = []
        for __ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = make()
            workload.setup()
            repeats.append(time.perf_counter() - start)
            cal.sample()
        self.workload = workload
        recordings = workload.record(self.workdir, cal.sample)
        record_s = len(recordings) * statistics.median(recordings) if recordings else 0.0
        setup_s = self.import_s + statistics.median(repeats) + record_s
        scale = cal.factor(statistics.median(cal.samples))
        self.lines.append(
            f"setup: import {self.import_s:.3f}s, build+warm-up median "
            f"{statistics.median(repeats):.3f}s of {SETUP_REPEATS}, record "
            f"{len(recordings)} x {record_s / max(len(recordings), 1):.3f}s; "
            f"{setup_s:.3f}s x host scale {scale:.4f}"
        )
        return setup_s * scale

    # -- sessions ----------------------------------------------------------

    def session(self, clock, probes, call):
        """Run one session with *probes* installed, as the root probe of *clock*."""
        failed_before = dict(clock.failed_stages)
        with installed(clock, probes):
            outcome = clock.call("session", call)
        clock.end_session()
        if self.workload.drops_from_decoder:
            drops = {
                stage: count - failed_before.get(stage, 0)
                for stage, count in clock.failed_stages.items()
                if count > failed_before.get(stage, 0)
            }
            outcome = replace(outcome, drops=drops)
        return outcome

    def measure(self, seconds: float, traced: bool):
        """Repeat whole passes while the next one fits in *seconds* (at least one).

        Untraced, each session runs with the receive-path probes only.
        Traced, each session runs twice, with the receive-path probes and
        with every layer probe, in alternating order, and both runs must
        agree.  The calibration kernel runs before the first session and
        after each session (or pair) for CALIBRATION_SHARE of its time,
        and each session's receive-path session and capture times are
        scaled by the median kernel run within SCALE_WINDOW_S into
        :attr:`session_s` and :attr:`receive_s`.  Returns the receive-path clock, the layer
        clock (traced only), the first pass's outcomes (of the layer runs
        when traced) and each pass's scaled session seconds.
        """
        plain = LayerClock()
        layers = LayerClock() if traced else None
        runs = [(plain, RECEIVE_PROBES)] + ([(layers, LAYER_PROBES)] if traced else [])
        calls = self.workload.session_calls()
        first = None
        cal = self.calibration
        kernel_from = len(cal.samples)
        cal.sample()
        pass_s: list[float] = []
        #: (pass, middle, session samples, receive samples) of each call.
        spans: list[tuple[int, float, slice, slice]] = []
        while not pass_s or sum(pass_s) * (len(pass_s) + 1) / len(pass_s) <= seconds:
            start = time.perf_counter()
            outcomes = []
            for call in calls:
                busy = time.perf_counter()
                done = len(plain.samples["session"]), len(plain.receive_s)
                # Alternate which run goes first, so neither always pays
                # for the other's freed memory or cold caches.
                order = runs if len(self.outcomes) % (2 * len(runs)) == 0 else runs[::-1]
                pair = {clock: self.session(clock, probes, call) for clock, probes in order}
                self.outcomes.extend(pair.values())
                if len({o.digest_line() for o in pair.values()}) > 1:
                    self.mismatches += 1
                outcomes.append(pair[runs[-1][0]])
                end = time.perf_counter()
                spans.append((len(pass_s), (busy + end) / 2,
                              slice(done[0], len(plain.samples["session"])),
                              slice(done[1], len(plain.receive_s))))
                cal.run_for(CALIBRATION_SHARE * (end - busy))
            pass_s.append(time.perf_counter() - start)
            if first is None:
                first = outcomes
            elif _digest(outcomes) != _digest(first):
                self.mismatches += len(outcomes)
        self.lines.append(
            f"timed: {len(pass_s)} pass(es) of {len(calls)} sessions"
            f"{' run untraced and traced' if traced else ''}, "
            f"{len(plain.receive_s)} captures, {sum(pass_s):.3f}s"
        )
        scaled_pass_s = [0.0] * len(pass_s)
        for index, middle, sessions, receives in spans:
            scale = cal.factor_at(middle, SCALE_WINDOW_S)
            self.session_s.extend(s * scale for s in plain.samples["session"][sessions])
            self.receive_s.extend(s * scale for s in plain.receive_s[receives])
            scaled_pass_s[index] += scale * sum(plain.samples["session"][sessions])
        kernel = cal.samples[kernel_from:]
        self.timed_scale = cal.factor(statistics.median(kernel))
        self.lines.append(
            f"host: {cal.kind} calibration kernel p25/p50/p75 "
            + "/".join(f"{_ms(q):.2f}" for q in statistics.quantiles(kernel, n=4))
            + f" ms over {len(kernel)} runs (reference {cal.reference_ms:g} ms); "
            f"unscaled session p50 {_ms(statistics.median(plain.samples['session'])):.2f} ms, "
            f"capture p50 {_ms(_percentile(plain.receive_s, 50)):.2f} ms"
        )
        return plain, layers, first, scaled_pass_s

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, first, pass_s: list[float], setup_s: float) -> dict:
        # Passes repeat identical work, so a rate over the median pass
        # is the run's rate without the slowest host spells.
        delivered = [o for o in first if o.delivered]
        receive = self.receive_s
        median_pass_s = statistics.median(pass_s)
        display_s = sum(o.display_s for o in first)
        if len(receive) < 100 * 10 / (100 - TAIL):
            self.lines.append(
                f"note: {len(receive)} captures leave fewer than 10 beyond p{TAIL}"
            )
        return {
            "setup_s": (setup_s, "s"),
            "session_ms_p50": (_ms(statistics.median(self.session_s)), "ms"),
            "capture_ms_p50": (_ms(_percentile(receive, 50)), "ms"),
            f"capture_ms_p{TAIL}": (_ms(_percentile(receive, TAIL)), "ms"),
            "captures_per_s": (len(receive) / len(pass_s) / median_pass_s, "1/s"),
            "payload_kB_per_s": (
                sum(len(o.sent) for o in delivered) / median_pass_s / 1000.0, "kB/s"),
            "delivered_frac": (len(delivered) / len(first), "ratio"),
            "sim_goodput_kbps": (
                8.0 * sum(len(o.sent) for o in delivered) / display_s / 1000.0, "kbit/s"
            ),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }

    def per_layer(self, plain, traced, first) -> dict:
        """Per-layer metrics; *first* holds the first pass's traced outcomes.

        Host times are scaled to the reference host by the median
        calibration of the whole timed region.
        """
        from repro.core.decoder import DECODE_STAGES

        t = traced
        sessions = t.calls["session"]
        session_s = t.wall_s["session"]
        rendered = t.calls["channel.capture"]
        extracts = t.calls["decoder.extract"]
        failed = sum(t.failed_stages.values())
        ok = extracts - failed

        def per(value: float, count: int) -> float:
            return value / count if count else 0.0

        def ms(seconds: float) -> float:
            return _ms(seconds) * self.timed_scale

        def ms_per(name: str, count: int, self_time: bool = False) -> float:
            return ms(per((t.self_s if self_time else t.wall_s)[name], count))

        def p(name: str, percentile: float) -> float:
            return ms(_percentile(t.samples[name], percentile)) if t.samples[name] else 0.0

        # Every pass repeats the first; replay encodes during set-up only,
        # outside every probe.
        passes = sessions // len(first)
        frames_encoded = passes * sum(o.frames_total for o in first) if t.calls[
            "encoder.encode"] else 0
        metrics = {
            "encoder.encode_ms_per_frame": (ms_per("encoder.encode", frames_encoded), "ms"),
            "encoder.render_ms_per_frame": (
                ms_per("encoder.render", t.calls["encoder.render"]), "ms"),
            "channel.capture_ms_p50": (p("channel.capture", 50), "ms"),
            "channel.rolling_shutter_ms": (
                ms_per("channel.rolling_shutter", rendered, True), "ms"),
            "channel.project_ms": (ms_per("channel.project", rendered, True), "ms"),
            "channel.optics_ms": (ms_per("channel.optics", rendered, True), "ms"),
            "channel.environment_ms": (
                ms(per(t.wall_s["channel.motion_blur"] + t.wall_s["imaging.degrade"]
                        + t.wall_s["imaging.sensor_pipeline"], rendered)), "ms"),
            "channel.emit_ms": (ms_per("channel.emit", rendered), "ms"),
            "imaging.sensor_pipeline_ms": (
                ms_per("imaging.sensor_pipeline", t.calls["imaging.sensor_pipeline"]), "ms"),
            "imaging.degrade_ms": (ms_per("imaging.degrade", t.calls["imaging.degrade"]), "ms"),
            "decoder.extract_ms_p50": (p("decoder.extract", 50), "ms"),
            f"decoder.extract_ms_p{TAIL}": (p("decoder.extract", TAIL), "ms"),
        }
        for stage in ("corners", "locators", "classify", "brightness", "input", "header",
                      "tracking"):
            metrics[f"decoder.{stage}_ms"] = (per(t.stage_ms[stage], ok) * self.timed_scale, "ms")
        metrics["decoder.failed_captures"] = (failed, "count")
        for stage in DECODE_STAGES:
            if stage != "assemble":
                metrics[f"decoder.failed_captures.{stage}"] = (t.failed_stages[stage], "count")
        metrics.update({
            "decoder.ok_frac": (per(ok, extracts), "ratio"),
            "sync.add_capture_ms": (
                ms_per("sync.add_capture", t.calls["sync.add_capture"], True), "ms"),
            "coding.assemble_ms_per_frame": (
                ms_per("coding.assemble", t.calls["coding.assemble"]), "ms"),
            "coding.crc_failed_frames": (t.crc_failed_frames, "count"),
            "link.rounds_per_session": (per(sum(o.rounds for o in first), len(first)), "count"),
            "link.frames_sent_per_frame": (
                per(sum(o.frames_sent for o in first), sum(o.frames_total for o in first)),
                "ratio"),
            "link.unattributed_ms_per_session": (ms_per("session", sessions, True), "ms"),
            "trace.read_ms_per_frame": (ms_per("trace.read", t.calls["trace.read"]), "ms"),
            "faults.apply_ms": (ms_per("faults.apply", t.calls["faults.apply"]), "ms"),
            "telemetry.quality_record_ms": (
                ms_per("telemetry.quality", len(t.receive_s)), "ms"),
            "tracing_overhead_frac": (
                per(session_s, plain.wall_s["session"]) - 1.0, "ratio"),
            "undetected_errors": (sum(o.undetected_error for o in self.outcomes), "count"),
        })
        groups = dict.fromkeys(LAYER_GROUPS, 0.0)
        for name, seconds in t.self_s.items():
            groups[layer_group(name)] += seconds
        for group, seconds in groups.items():
            metrics[f"share.{group}"] = (per(seconds, session_s), "ratio")
        self._layer_table(t, groups, sessions, session_s)
        return metrics

    def _layer_table(self, t, groups: dict, sessions: int, session_s: float) -> None:
        self.lines.append("layer probes (unscaled host time):")
        self.lines.append(
            f"{'probe':<26} {'calls':>7} {'wall ms':>11} {'self ms':>11} "
            f"{'self/session':>12} {'share':>7}"
        )
        for name in sorted(t.calls, key=lambda n: -t.self_s[n]):
            self.lines.append(
                f"{name:<26} {t.calls[name]:>7} {_ms(t.wall_s[name]):>11.1f} "
                f"{_ms(t.self_s[name]):>11.1f} {_ms(t.self_s[name]) / sessions:>12.2f} "
                f"{t.self_s[name] / session_s:>7.1%}"
            )
        self.lines.append("layer reconciliation (self time; unattributed = session root):")
        for group, seconds in groups.items():
            self.lines.append(f"  {group:<14} {_ms(seconds):>11.1f} ms {seconds / session_s:>7.1%}")
        self.lines.append(
            f"  {'sum':<14} {_ms(sum(groups.values())):>11.1f} ms  "
            f"session wall {_ms(session_s):.1f} ms"
        )


def run(name: str, seed: int, seconds: float, trace: bool, *, import_s: float = 0.0,
        sessions: int | None = None, root: Path | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    from workloads import WORKLOADS, make_workload

    build = (root or Path.cwd()) / ".bench_build"
    build.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build) as workdir:
        bench = Run(import_s, Path(workdir))
        setup_s = bench.set_up(lambda: make_workload(name, seed, sessions),
                               WORKLOADS[name][0].calibration)
        plain, layers, first, pass_s = bench.measure(seconds, trace)
        if trace:
            metrics = bench.per_layer(plain, layers, first)
        else:
            metrics = bench.end_to_end(first, pass_s, setup_s)
    undetected = sum(o.undetected_error for o in bench.outcomes)
    failed = undetected + bench.mismatches
    lines = bench.lines + [f"{key:<36} {value:>14.6g} {unit}" for key, (value, unit)
                           in metrics.items()]
    lines.append(
        f"correctness: {len(bench.outcomes)} sessions, undetected_errors={undetected}, "
        f"nondeterministic={bench.mismatches}"
    )
    lines.append(f"digest {name} {_digest(first)}")
    lines.extend(o.digest_line() for o in first)
    result = {
        "correct": failed == 0,
        "attempted": len(bench.outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit)
                    in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    # Serial in this process: no WorkerPool or DecodeService, no telemetry sink.
    os.environ["REPRO_WORKERS"] = "1"
    os.environ.pop("REPRO_TELEMETRY", None)
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import workloads  # numpy and every repro layer: the import part of set-up

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("native threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_ENV)
          + " REPRO_WORKERS=1 (serial, no pool)")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        import_s=import_s, root=root)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
