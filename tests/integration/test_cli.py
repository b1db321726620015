"""The command-line interface, end to end."""

import pytest

from repro.cli import main


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
        session = tmp_path / "session.npz"
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
        assert session.exists()

        # Decode the archived session back to the message bytes.
        out_file = tmp_path / "recovered.bin"
        rc = main(["decode", str(session), "-o", str(out_file)])
        assert rc == 0
        assert out_file.read_bytes()[: len(b"cli end to end")] == b"cli end to end"

    def test_simulate_angled(self, capsys):
        assert main(["simulate", "--angle-deg", "20", "--seed", "1"]) == 0

    def test_decode_says_when_the_last_frame_was_never_seen(self, tmp_path, capsys):
        # At 40 cm every capture is lost, so no frame (the last one
        # included) arrives: there is no gap list to print.
        session = tmp_path / "lost.npz"
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
        import json

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
    import json

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

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
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
        import shutil

        broken = tmp_path / "broken.rbtrace"
        shutil.copytree(recorded, broken)
        chunk = next((broken / "chunks").glob("chunk-*.npz"))
        chunk.write_bytes(chunk.read_bytes()[:-16])
        assert main(["trace", "info", str(broken), "--check"]) == 1
        assert "conformance check FAILED" in capsys.readouterr().err

    def test_info_rejects_future_schema_version(self, recorded, tmp_path, capsys):
        import json
        import shutil

        future = tmp_path / "future.rbtrace"
        shutil.copytree(recorded, future)
        header = json.loads((future / "header.json").read_text())
        header["version"] = 99
        (future / "header.json").write_text(json.dumps(header))
        assert main(["trace", "info", str(future)]) == 1
        assert "unsupported trace schema version" in capsys.readouterr().err
