"""Campaign heartbeat: progress events, the tail renderer, determinism."""

from __future__ import annotations

import io
import json

import pytest

from repro import telemetry
from repro.bench.faults_campaign import run_fault_trial
from repro.telemetry.perf import collect_progress, format_progress, tail


@pytest.fixture(autouse=True)
def _reset_telemetry():
    yield
    telemetry.configure(None)


def _write_shard(path, events):
    with open(path, "w") as fh:
        fh.write(json.dumps({"event": "run", "seq": 0, "meta": {}}) + "\n")
        for i, event in enumerate(events, start=1):
            fh.write(json.dumps({"seq": i, **event}) + "\n")


def _progress(scenario, seed, completed, **extra):
    return {"event": "progress", "scenario": scenario, "seed": seed,
            "completed": completed, **extra}


class TestCollect:
    def test_folds_across_shards_by_scenario(self, tmp_path):
        _write_shard(tmp_path / "events-1.jsonl", [
            _progress("glare", 0, 1, delivered=1, failure_stages={"corners": 2}),
            _progress("scanline", 1, 2, delivered=0, captures_dropped=3),
        ])
        _write_shard(tmp_path / "events-2.jsonl", [
            _progress("glare", 2, 1, delivered=0, failure_stages={"corners": 1,
                                                                  "header": 4}),
        ])
        progress = collect_progress(tmp_path)
        assert list(progress) == ["glare", "scanline"]  # sorted
        glare = progress["glare"]
        assert glare.trials == 2
        assert glare.delivered == 1
        assert glare.failure_stages == {"corners": 3, "header": 4}
        assert glare.shards == {"events-1.jsonl", "events-2.jsonl"}
        assert progress["scanline"].captures_dropped == 3

    def test_empty_directory_yields_empty_progress(self, tmp_path):
        assert collect_progress(tmp_path) == {}
        assert "no campaign heartbeats" in format_progress({})

    def test_torn_last_line_is_skipped(self, tmp_path):
        shard = tmp_path / "events-1.jsonl"
        _write_shard(shard, [_progress("glare", 0, 1)])
        with open(shard, "a") as fh:
            fh.write('{"event": "progr')  # mid-write line
        assert collect_progress(tmp_path)["glare"].trials == 1


class TestRender:
    def test_table_shows_fractions_and_failure_stages(self, tmp_path):
        _write_shard(tmp_path / "events-1.jsonl", [
            _progress("glare", 0, 1, delivered=1, failure_stages={"corners": 2}),
        ])
        out = io.StringIO()
        observed = tail(tmp_path, expected_trials=8, out=out)
        assert observed == 1
        text = out.getvalue()
        assert "1/8" in text
        assert "corners=2" in text
        assert "workers: 1" in text

    def test_follow_stops_after_max_refreshes(self, tmp_path):
        _write_shard(tmp_path / "events-1.jsonl", [_progress("glare", 0, 1)])
        out = io.StringIO()
        tail(tmp_path, follow=True, interval=0.0, max_refreshes=2, out=out)
        assert out.getvalue().count("glare") == 2


class TestHeartbeatIntegration:
    def test_trial_emits_progress_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
        telemetry.configure(True)
        result = run_fault_trial("clean", seed=0, num_frames=1, max_rounds=1)
        telemetry.configure(None)

        shards = list(tmp_path.glob("events-*.jsonl"))
        assert len(shards) == 1
        events = [json.loads(line) for line in shards[0].read_text().splitlines()]
        assert not [e for e in events if e["event"] == "span"]
        beats = [e for e in events if e["event"] == "progress"]
        assert len(beats) == 1
        assert beats[0]["scenario"] == "clean" and beats[0]["seed"] == 0
        assert beats[0]["completed"] == 1
        assert beats[0]["delivered"] == int(result.delivered)
        assert collect_progress(tmp_path)["clean"].trials == 1

    def test_heartbeat_does_not_change_trial_results(self, tmp_path, monkeypatch):
        import dataclasses

        quiet = run_fault_trial("scanline", seed=3, num_frames=1, max_rounds=2)
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
        telemetry.configure(True)
        loud = run_fault_trial("scanline", seed=3, num_frames=1, max_rounds=2)
        telemetry.configure(None)
        assert dataclasses.asdict(quiet) == dataclasses.asdict(loud)
