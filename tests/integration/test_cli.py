"""The command-line interface, end to end."""

import argparse
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A short session recorded by `repro trace record` (decodes to exit 0)."""
    trace = tmp_path_factory.mktemp("cli_trace") / "session.rbtrace"
    rc = main(
        [
            "trace", "record",
            "-o", str(trace),
            "--message", "trace cli round trip",
            "--seed", "3",
            "--chunk-frames", "2",
        ]
    )
    assert rc == 0
    return trace


class TestCapacity:
    def test_prints_table(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "11520" in out and "10857" in out


class TestEncodeInfo:
    def test_encode_and_info(self, tmp_path, capsys):
        src = tmp_path / "data.bin"
        src.write_bytes(bytes(range(256)) * 2)
        stream = tmp_path / "stream.npz"
        assert main(["encode", str(src), "-o", str(stream)]) == 0
        assert stream.exists()
        assert main(["info", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "frames" in out

    def test_encode_with_pngs(self, tmp_path):
        src = tmp_path / "msg.txt"
        src.write_bytes(b"png export")
        stream = tmp_path / "s.npz"
        png_dir = tmp_path / "pngs"
        assert main(
            ["encode", str(src), "-o", str(stream), "--png-dir", str(png_dir)]
        ) == 0
        assert any(png_dir.glob("frame_*.png"))


class TestSimulateDecode:
    def test_simulate_roundtrip(self, tmp_path, capsys):
        session = tmp_path / "session.rbtrace"
        rc = main(
            [
                "simulate",
                "--message", "cli end to end",
                "--save-session", str(session),
                "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out
        # The session is a capture trace carrying the geometry that
        # `trace record` writes, so a decoder needs no flags.
        from repro.io import trace_info

        extra = trace_info(session)["metadata"]["extra"]
        assert extra == {"display_rate": 10, "grid_rows": 34, "grid_cols": 60,
                         "block_px": 12, "payload_bytes": len(b"cli end to end")}

        # Decode the recorded session back to the message bytes; the
        # header's geometry wins over the fallback --block-px.
        out_file = tmp_path / "recovered.bin"
        rc = main(["decode", str(session), "-o", str(out_file), "--block-px", "9"])
        assert rc == 0
        assert out_file.read_bytes()[: len(b"cli end to end")] == b"cli end to end"

    def test_simulate_angled(self, capsys):
        assert main(["simulate", "--angle-deg", "20", "--seed", "1"]) == 0

    def test_decode_says_when_the_last_frame_was_never_seen(self, tmp_path, capsys):
        # At 40 cm every capture is lost, so no frame (the last one
        # included) arrives: there is no gap list to print.
        session = tmp_path / "lost.rbtrace"
        rc = main(["simulate", "--seed", "5", "--distance-cm", "40",
                   "--message", "x" * 900, "--save-session", str(session)])
        assert rc == 1
        capsys.readouterr()
        assert main(["decode", str(session)]) == 1
        err = capsys.readouterr().err
        assert "0 frames recovered; last frame never seen" in err
        assert "missing []" not in err
        assert "stream incomplete" in err


class TestTelemetryReport:
    @pytest.fixture()
    def _telemetry_env(self, tmp_path, monkeypatch):
        from repro import telemetry

        monkeypatch.setenv(telemetry.ENV_TOGGLE, "1")
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path / "telemetry"))
        telemetry.configure(None)
        yield tmp_path / "telemetry"
        telemetry.configure(None)

    def test_simulate_then_report_and_check(self, _telemetry_env, tmp_path, capsys):
        assert main(["simulate", "--seed", "3"]) == 0
        tel_dir = _telemetry_env
        assert sorted(p.name for p in tel_dir.iterdir() if p.suffix == ".json") == [
            "metrics.json"
        ]
        assert list(tel_dir.glob("events-*.jsonl"))

        out_dir = tmp_path / "results"
        assert main(["telemetry", "report", "--dir", str(tel_dir),
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "decode failures by stage" in out
        assert "events (" in out
        assert (out_dir / "T1_telemetry_report.txt").exists()
        assert (out_dir / "T1_telemetry_report.json").exists()

        assert main(["telemetry", "report", "--dir", str(tel_dir), "--check"]) == 0

    def test_report_without_artifacts_fails(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["telemetry", "report", "--dir", str(missing)]) == 2
        assert "no telemetry directory" in capsys.readouterr().err

    def test_check_fails_an_empty_directory(self, tmp_path, capsys):
        assert main(["telemetry", "report", "--dir", str(tmp_path), "--check"]) == 1
        err = capsys.readouterr().err
        assert "no metrics.json" in err and "trace.json" not in err

    def test_check_flags_corrupt_shard(self, _telemetry_env, capsys):
        tel_dir = _telemetry_env
        tel_dir.mkdir(parents=True, exist_ok=True)
        (tel_dir / "events-1.jsonl").write_text('{"event": "frame", "seq": 0}\n')
        assert main(["telemetry", "report", "--dir", str(tel_dir), "--check"]) == 1
        err = capsys.readouterr().err
        assert "check:" in err


class TestPerformanceObservatory:
    """tail over a campaign telemetry directory."""

    def test_tail_renders_heartbeats(self, tmp_path, capsys):
        tel_dir = tmp_path / "telemetry"
        tel_dir.mkdir()
        events = [
            {"event": "run", "seq": 0, "meta": {}},
            {"event": "progress", "seq": 1, "scenario": "glare", "seed": 0,
             "completed": 1, "delivered": 1, "failure_stages": {"corners": 2}},
        ]
        (tel_dir / "events-9.jsonl").write_text(
            "\n".join(json.dumps(e) for e in events) + "\n"
        )
        assert main(["telemetry", "tail", "--dir", str(tel_dir),
                     "--expected-trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "glare" in out and "1/4" in out and "corners=2" in out


def _perfbench_stdout(path, metrics, *, correct=True, failed=0):
    """Write a synthetic perfbench stdout: report lines, then the result object."""
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "ms"} for name, value in metrics.items()},
    }
    path.write_text(
        "workload=receive_replay seed=1 seconds=5 trace=1\n"
        "digest receive_replay 1e788f61\n" + json.dumps(result) + "\n"
    )
    return path


class TestPerfCheck:
    """`repro perf check` on saved perfbench stdout, gated by the repo's budgets."""

    @pytest.fixture(scope="class")
    def bounds(self):
        from repro.telemetry.budgets import load_budgets

        return {name: b.max_value for name, b in
                load_budgets("budgets.toml", "perf.receive_replay").items()}

    def test_repo_budgets_bound_every_decode_stage(self, bounds):
        stages = ("input", "brightness", "corners", "locators", "classify", "header",
                  "tracking")
        assert set(bounds) == {f"decoder.{s}_ms" for s in stages} | {
            "decoder.extract_ms_p50",
            "coding.assemble_ms_per_frame",
            "trace.read_ms_per_frame",
        }
        assert bounds["decoder.corners_ms"] == pytest.approx(1.5 * 7.719 + 1)
        assert bounds["decoder.input_ms"] == pytest.approx(1.5 * 0.0055 + 1)
        assert bounds["decoder.locators_ms"] == pytest.approx(3 * 3.92 + 10)
        assert bounds["decoder.extract_ms_p50"] == pytest.approx(2.5 * 17.19 + 20)
        assert bounds["trace.read_ms_per_frame"] == pytest.approx(1.5 * 2.481 + 1)
        assert bounds["coding.assemble_ms_per_frame"] == pytest.approx(3 * 0.306 + 10)
        # Compressed trace chunks and full-frame candidate statistics
        # (traced, before they were replaced) must not pass.
        assert bounds["trace.read_ms_per_frame"] < 10.25
        assert bounds["decoder.corners_ms"] < 13.42
        # Nor a float64 frame per capture (traced, before the decoder
        # read the uint8 capture).
        assert bounds["decoder.input_ms"] < 1.385

    def test_repo_budgets_bound_every_simulator_layer(self):
        from repro.telemetry.budgets import load_budgets

        bounds = {name: b.max_value for name, b in
                  load_budgets("budgets.toml", "perf.transfer").items()}
        reference = {
            "channel.project_ms": 46.89,
            "channel.optics_ms": 26.64,
            "channel.environment_ms": 97.6704,
            "imaging.degrade_ms": 61.0251,
            "decoder.extract_ms_p50": 33.36,
            "encoder.encode_ms_per_frame": 0.3405,
            "coding.assemble_ms_per_frame": 0.3845,
            "sync.add_capture_ms": 7.3757,
        }
        assert set(bounds) == set(reference) | {"imaging.sensor_pipeline_ms"}
        for name, ref in reference.items():
            assert bounds[name] == pytest.approx(1.5 * ref + 1), name
        assert bounds["imaging.sensor_pipeline_ms"] == pytest.approx(1.25 * 39.62 + 1)
        # The lens blur over the whole frame (traced, before it moved to
        # the varying box) and the interleaved colour chain (fastest
        # traced run, without quantization) must not pass.
        assert bounds["channel.optics_ms"] < 66.96
        assert bounds["imaging.sensor_pipeline_ms"] < 57.62

    def test_at_the_bound_passes(self, bounds, tmp_path, capsys):
        result = _perfbench_stdout(tmp_path / "replay.txt", {**bounds, "session_ms_p50": 9e9})
        assert main(["perf", "check", "--workload", "receive_replay", str(result)]) == 0
        assert "perf check: PASS" in capsys.readouterr().out

    def test_stage_just_over_its_bound_fails_naming_it(self, bounds, tmp_path, capsys):
        metrics = {**bounds, "decoder.corners_ms": bounds["decoder.corners_ms"] + 0.01}
        result = _perfbench_stdout(tmp_path / "replay.txt", metrics)
        assert main(["perf", "check", "--workload", "receive_replay", str(result)]) == 1
        assert "perf check: FAIL (decoder.corners_ms)" in capsys.readouterr().out

    def test_missing_budgeted_metric_fails(self, bounds, tmp_path, capsys):
        metrics = {k: v for k, v in bounds.items() if k != "decoder.header_ms"}
        result = _perfbench_stdout(tmp_path / "replay.txt", metrics)
        assert main(["perf", "check", "--workload", "receive_replay", str(result)]) == 1
        out = capsys.readouterr().out
        assert "metric not recorded" in out and "FAIL (decoder.header_ms)" in out

    @pytest.mark.parametrize("correct, failed", [(False, 0), (False, 1), (True, 1)])
    def test_incorrect_run_fails(self, bounds, tmp_path, capsys, correct, failed):
        result = _perfbench_stdout(tmp_path / "replay.txt", bounds,
                                   correct=correct, failed=failed)
        assert main(["perf", "check", "--workload", "receive_replay", str(result)]) == 1
        assert "run not correct" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "workload=receive_replay\nperf check: PASS\n", '{"correct": true}\n'],
    )
    def test_unreadable_result_is_usage_error(self, tmp_path, capsys, text):
        result = tmp_path / "replay.txt"
        result.write_text(text)
        assert main(["perf", "check", "--workload", "receive_replay", str(result)]) == 2
        assert "perf check:" in capsys.readouterr().err

    def test_missing_file_and_unbudgeted_workload_are_usage_errors(
        self, bounds, tmp_path, capsys
    ):
        missing = tmp_path / "nowhere.txt"
        assert main(["perf", "check", "--workload", "receive_replay", str(missing)]) == 2
        result = _perfbench_stdout(tmp_path / "replay.txt", bounds)
        assert main(["perf", "check", "--workload", "nonesuch", str(result)]) == 2
        assert "no [perf.nonesuch.*] tables" in capsys.readouterr().err


class TestTrace:
    """`repro trace record|decode|info` end to end."""

    def test_record_then_info_and_check(self, recorded, capsys):
        assert main(["trace", "info", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "capture trace" in out and "schema v1" in out

        assert main(["trace", "info", str(recorded), "--check"]) == 0
        assert "conformance check passed" in capsys.readouterr().out

    def test_decode_json_is_worker_invariant(self, recorded, tmp_path, capsys):
        from repro.serve import close_shared_pools

        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        assert main(["trace", "decode", str(recorded),
                     "--json", str(serial)]) == 0
        assert "decoded" in capsys.readouterr().out
        try:
            assert main(["trace", "decode", str(recorded),
                         "--workers", "2", "--json", str(pooled)]) == 0
        finally:
            close_shared_pools()
        assert serial.read_text() == pooled.read_text()

    def test_decode_missing_trace_is_format_error(self, tmp_path, capsys):
        rc = main(["trace", "decode", str(tmp_path / "nope.rbtrace")])
        assert rc == 1
        assert "header.json" in capsys.readouterr().err

    def test_decode_bad_grid_is_usage_error(self, recorded, capsys):
        rc = main(["trace", "decode", str(recorded), "--grid", "24x44"])
        assert rc == 2
        assert "ROWSxCOLSxBLOCK" in capsys.readouterr().err

    def test_info_check_flags_truncated_chunk(self, recorded, tmp_path, capsys):
        broken = tmp_path / "broken.rbtrace"
        shutil.copytree(recorded, broken)
        chunk = next((broken / "chunks").glob("chunk-*.npz"))
        chunk.write_bytes(chunk.read_bytes()[:-16])
        assert main(["trace", "info", str(broken), "--check"]) == 1
        assert "conformance check FAILED" in capsys.readouterr().err

    def test_record_missing_input_is_usage_error(self, tmp_path, capsys):
        rc = main(["trace", "record", "-o", str(tmp_path / "t.rbtrace"),
                   "--input", str(tmp_path / "nope.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "trace record:" in err and "Traceback" not in err

    def test_info_rejects_future_schema_version(self, recorded, tmp_path, capsys):
        future = tmp_path / "future.rbtrace"
        shutil.copytree(recorded, future)
        header = json.loads((future / "header.json").read_text())
        header["version"] = 99
        (future / "header.json").write_text(json.dumps(header))
        assert main(["trace", "info", str(future)]) == 1
        assert "unsupported trace schema version" in capsys.readouterr().err


_CORPUS_TRACE = Path(__file__).parent.parent / "fixtures" / "corpus" / "traces" / "clean.rbtrace"
_GARBAGE = b"\xff\xfe\x00\x81 not any kind of input " * 4

#: Each subcommand that reads a file: its argv around the input, the kind
#: of input it expects, and its exit code per bad input (exit 0: the
#: input is valid bytes to encode).  A trace path that holds no trace,
#: a missing one included, is a container the reader rejects (exit 1).
_READERS = {
    "decode": (["decode", "{input}", "-o", "{out}"], "trace",
               {"missing": 1, "empty": 1, "truncated": 1, "wrong-kind": 1, "garbage": 1}),
    "trace decode": (["trace", "decode", "{input}"], "trace",
                     {"missing": 1, "empty": 1, "truncated": 1, "wrong-kind": 1,
                      "garbage": 1}),
    "trace info": (["trace", "info", "{input}", "--check"], "trace",
                   {"missing": 1, "empty": 1, "truncated": 1, "wrong-kind": 1,
                    "garbage": 1}),
    "info": (["info", "{input}"], "stream",
             {"missing": 2, "empty": 1, "truncated": 1, "wrong-kind": 1, "garbage": 1}),
    "encode": (["encode", "{input}", "-o", "{out}"], "bytes",
               {"missing": 2, "empty": 0, "truncated": 0, "wrong-kind": 2, "garbage": 0}),
    "perf check": (["perf", "check", "--workload", "receive_replay", "{input}"], "perf",
                   {"missing": 2, "empty": 2, "truncated": 2, "wrong-kind": 2,
                    "garbage": 2}),
    "quality check": (["quality", "report", "--dir", "{telemetry}", "--check",
                       "--budget", "{input}"], "budget",
                      {"missing": 2, "empty": 2, "truncated": 2, "wrong-kind": 2,
                       "garbage": 2}),
}


def _bad_input(family: str, kind: str, tmp_path: Path) -> Path:
    """A *kind* of bad input (missing, empty, ...) for a reader of *family*."""
    from repro.core.encoder import FrameCodecConfig, FrameEncoder
    from repro.io import save_frame_stream

    stream = tmp_path / "good-stream.npz"
    save_frame_stream(stream, FrameEncoder(FrameCodecConfig()).encode_stream(b"bad inputs"))
    suffix = {"stream": ".npz", "trace": ".rbtrace", "budget": ".toml"}.get(family, ".txt")
    path = tmp_path / f"input-{kind}{suffix}"
    if kind == "missing":
        return path
    if family == "trace":
        if kind == "empty":
            path.mkdir()
        elif kind == "wrong-kind":
            shutil.copy(stream, path)
        else:
            shutil.copytree(_CORPUS_TRACE, path)
            if kind == "truncated":
                chunk = path / "chunks" / "chunk-00000.npz"
                chunk.write_bytes(chunk.read_bytes()[:-16])
            else:
                (path / "header.json").write_bytes(_GARBAGE)
        return path
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "garbage":
        path.write_bytes(_GARBAGE)
    elif family in ("stream", "bytes"):
        if kind == "truncated":
            path.write_bytes(stream.read_bytes()[:-16])
        elif family == "bytes":  # a directory where a file belongs
            path.mkdir()
        else:  # a capture archive (a trace chunk), not a frame stream
            shutil.copy(_CORPUS_TRACE / "chunks" / "chunk-00000.npz", path)
    elif family == "perf":
        if kind == "truncated":
            path.write_bytes(
                _perfbench_stdout(tmp_path / "full.txt", {"x": 1.0}).read_bytes()[:-8]
            )
        else:  # JSON, but a trace header rather than a perfbench result
            shutil.copy(_CORPUS_TRACE / "header.json", path)
    else:  # budget
        if kind == "truncated":
            path.write_text('[quality.frame_failure_rate]\nmax = ')
        else:  # JSON, but a trace header rather than a budgets file
            path = path.with_suffix(".json")
            shutil.copy(_CORPUS_TRACE / "header.json", path)
    return path


class TestUnreadableInputs:
    """Every subcommand that reads a file fails on a bad one with its
    contract exit code and a one-line message, never a traceback."""

    @pytest.mark.parametrize("kind", ["missing", "empty", "truncated", "wrong-kind", "garbage"])
    @pytest.mark.parametrize("command", sorted(_READERS))
    def test_exit_code_and_no_traceback(self, command, kind, tmp_path, capsys):
        template, family, codes = _READERS[command]
        telemetry_dir = tmp_path / "telemetry"
        telemetry_dir.mkdir()
        (telemetry_dir / "metrics.json").write_text("{}")
        fields = {
            "input": str(_bad_input(family, kind, tmp_path)),
            "out": str(tmp_path / "out.bin"),
            "telemetry": str(telemetry_dir),
        }
        argv = [arg.format(**fields) for arg in template]
        capsys.readouterr()
        assert main(argv) == codes[kind]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if codes[kind]:
            assert err.strip(), "a failure must say why on stderr"


#: The exit-code table: for every leaf subcommand, argv that must exit 0
#: and argv that must exit 1 or 2.  ``{name}`` fields are inputs built on
#: first use (:class:`_Inputs`).  The bad input files of ``_READERS``
#: count as rows too, and failures another test here already runs are
#: left to it.  The "unwritable" family puts an output under a missing
#: directory or under a regular file; the "malformed" family is a trace
#: whose JSON has the wrong types.
_EXIT_CODES = {
    "encode": {
        "ok": (["encode", "{bytes}", "-o", "{tmp}/s.npz"], 0),
        "unwritable-output": (["encode", "{bytes}", "-o", "{tmp}/missing/s.npz"], 2),
        "unwritable-png-dir": (["encode", "{bytes}", "-o", "{tmp}/s.npz",
                                "--png-dir", "{file}/pngs"], 2),
    },
    "decode": {
        "ok": (["decode", "{session}", "-o", "{tmp}/out.bin"], 0),
        "malformed-geometry": (["decode", "{malformed_geometry}"], 1),
        "unwritable-output": (["decode", "{session}", "-o", "{file}/out.bin"], 2),
    },
    "simulate": {
        "ok": (["simulate", "--message", "x", "--seed", "3"], 0),
        "unwritable-session": (["simulate", "--message", "x", "--seed", "3",
                                "--save-session", "{file}/s.rbtrace"], 2),
    },
    "capacity": {
        "ok": (["capacity"], 0),
        "unknown-option": (["capacity", "--bogus"], 2),
    },
    "info": {
        "ok": (["info", "{stream}"], 0),
        "no-argument": (["info"], 2),
    },
    "faults-campaign": {
        "ok": (["faults-campaign", "--seeds", "1", "--workers", "1", "--scenarios", "clean",
                "--frames", "1", "--max-rounds", "1", "--out", "-"], 0),
        "unknown-scenario": (["faults-campaign", "--scenarios", "nonesuch"], 2),
        "unwritable-output": (["faults-campaign", "--seeds", "1", "--workers", "1",
                               "--scenarios", "clean", "--frames", "1", "--max-rounds",
                               "1", "--out", "{file}/results"], 2),
    },
    "trace record": {
        "ok": (["trace", "record", "-o", "{tmp}/t.rbtrace", "--message", "x"], 0),
        "unknown-scenario": (["trace", "record", "-o", "{tmp}/t.rbtrace",
                              "--scenario", "nonesuch"], 2),
        "unwritable-output": (["trace", "record", "-o", "{file}/t.rbtrace",
                               "--message", "x"], 2),
    },
    "trace decode": {
        "ok": (["trace", "decode", "{session}", "--json", "{tmp}/out/d.json"], 0),
        "unwritable-json": (["trace", "decode", "{session}", "--json", "{file}/d.json"], 2),
    },
    "trace info": {
        "ok": (["trace", "info", "{session}"], 0),
        **{
            f"malformed-{kind}": (["trace", "info", f"{{malformed_{kind}}}"], 1)
            for kind in ("index-line", "frame-shape", "metadata", "num-frames", "start")
        },
    },
    "telemetry report": {
        "ok": (["telemetry", "report", "--dir", "{telemetry}", "--out", "{tmp}/t1"], 0),
        "unwritable-output": (["telemetry", "report", "--dir", "{telemetry}",
                               "--out", "{file}/t1"], 2),
    },
    "telemetry tail": {
        "ok": (["telemetry", "tail", "--dir", "{telemetry}"], 0),
        "no-directory": (["telemetry", "tail", "--dir", "{tmp}/missing"], 2),
    },
    "quality report": {
        "ok": (["quality", "report", "--dir", "{telemetry}", "--out", "{tmp}/q1"], 0),
        "unwritable-output": (["quality", "report", "--dir", "{telemetry}",
                               "--out", "{file}/q1"], 2),
    },
    "perf check": {
        "ok": (["perf", "check", "--workload", "receive_replay", "{perf_pass}"], 0),
    },
    "analyze": {
        "ok": (["analyze", "{clean_py}"], 0),
        "violation": (["analyze", "{bad_py}"], 1),
        "unknown-rule": (["analyze", "--select", "RB999", "{clean_py}"], 2),
    },
}

#: Trace JSON edits that must fail as a TraceFormatError (exit 1).
_MALFORMED_TRACES = {
    "index-line": ("index.jsonl", "5\n"),
    "frame-shape": ("header.json", {"frame_shape": 5}),
    "metadata": ("header.json", {"metadata": 3}),
    "num-frames": ("header.json", {"num_frames": "x"}),
    "start": ("index.jsonl", {"start": "zero"}),
    "geometry": ("header.json",
                 {"metadata": {"extra": {"grid_rows": "many", "grid_cols": 44, "block_px": 8}}}),
}


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _leaves(parser, path=()):
    """Every leaf subcommand under *parser*, as its space-joined path."""
    subs = _subcommands(parser)
    if not subs:
        return {" ".join(path)}
    return set().union(*(_leaves(sub, (*path, name)) for name, sub in subs.items()))


def _leaf_of(argv):
    """The leaf subcommand that *argv* addresses."""
    parser, path = build_parser(), []
    for token in argv:
        subs = _subcommands(parser)
        if token not in subs:
            break
        parser = subs[token]
        path.append(token)
    return " ".join(path)


class _Inputs(dict):
    """Template fields of the exit-code table, each built on first use."""

    def __init__(self, tmp_path, session):
        super().__init__(tmp=str(tmp_path), session=str(session))
        self.tmp_path = tmp_path

    def __missing__(self, name):
        if name.startswith("malformed_"):
            path = self._malformed(name[len("malformed_"):])
        else:
            path = getattr(self, f"_{name}")(self.tmp_path)
        self[name] = str(path)
        return self[name]

    def _malformed(self, kind):
        path = self.tmp_path / f"malformed-{kind}.rbtrace"
        shutil.copytree(_CORPUS_TRACE, path)
        name, edit = _MALFORMED_TRACES[kind]
        target = path / name
        if isinstance(edit, dict):  # the header, or the corpus's one-line index
            edit = json.dumps({**json.loads(target.read_text()), **edit}) + "\n"
        target.write_text(edit)
        return path

    @staticmethod
    def _bytes(tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(range(256)))
        return path

    @staticmethod
    def _stream(tmp_path):
        from repro.core.encoder import FrameCodecConfig, FrameEncoder
        from repro.io import save_frame_stream

        path = tmp_path / "stream.npz"
        save_frame_stream(path, FrameEncoder(FrameCodecConfig()).encode_stream(b"table"))
        return path

    @staticmethod
    def _file(tmp_path):
        path = tmp_path / "a-regular-file"
        path.write_text("outputs cannot go under a file\n")
        return path

    @staticmethod
    def _telemetry(tmp_path):
        path = tmp_path / "telemetry"
        path.mkdir()
        (path / "metrics.json").write_text("{}")
        progress = {"event": "progress", "seq": 1, "scenario": "clean", "seed": 0,
                    "completed": 1, "delivered": 1, "failure_stages": {}}
        (path / "events-1.jsonl").write_text(json.dumps(progress) + "\n")
        return path

    @staticmethod
    def _perf_pass(tmp_path):
        from repro.telemetry.budgets import load_budgets

        bounds = load_budgets("budgets.toml", "perf.receive_replay")
        return _perfbench_stdout(tmp_path / "pass.txt",
                                 {name: b.max_value for name, b in bounds.items()})

    @staticmethod
    def _clean_py(tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("VALUE = 1\n")
        return path

    @staticmethod
    def _bad_py(tmp_path):
        path = tmp_path / "repro" / "core" / "bad.py"  # RB001: a wall clock in core/
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\nSTAMP = time.time()\n")
        return path


_TABLE_ROWS = [
    pytest.param(leaf, case, argv, code, id=f"{leaf}-{case}")
    for leaf, cases in _EXIT_CODES.items()
    for case, (argv, code) in cases.items()
]


class TestExitCodeTable:
    """Every leaf subcommand returns exactly its contract code from main()."""

    @pytest.mark.parametrize("leaf, case, template, code", _TABLE_ROWS)
    def test_main_returns_the_contract_code(self, leaf, case, template, code, recorded,
                                            tmp_path, capsys):
        inputs = _Inputs(tmp_path, recorded)
        argv = [arg.format_map(inputs) for arg in template]
        capsys.readouterr()
        returned = main(argv)
        # Exactly the int: not None, not True, not a code outside 0/1/2.
        assert type(returned) is int and returned == code, (argv, returned)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code:
            assert (out + err).strip(), "a failure must say why"
        if case.startswith(("unwritable-", "malformed-")):
            # One line naming the command, as every file failure reads.
            assert err.splitlines()[-1].startswith(f"{leaf}: "), err

    def test_every_leaf_subcommand_has_a_success_and_a_failure_row(self):
        # The leaves are walked from the parser, so a new subcommand
        # fails here until the table holds its rows.
        assert set(_EXIT_CODES) == _leaves(build_parser())
        codes = {leaf: set() for leaf in _EXIT_CODES}
        for leaf, cases in _EXIT_CODES.items():
            for argv, code in cases.values():
                assert _leaf_of(argv) == leaf, argv
                codes[leaf].add(code)
        for template, _, reader_codes in _READERS.values():
            codes[_leaf_of(template)] |= set(reader_codes.values())
        for leaf, seen in codes.items():
            assert 0 in seen and seen & {1, 2} and seen <= {0, 1, 2}, (leaf, seen)
