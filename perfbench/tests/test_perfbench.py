"""Tests of the benchmark itself, on tiny runs (one session, no timed repeat).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as perfbench  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

from repro.link.session import TransferSession  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _digest(lines: list[str]) -> list[str]:
    start = next(i for i, line in enumerate(lines) if line.startswith("digest "))
    return lines[start:]


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(tmp_path, workload):
    result, lines = perfbench.run(workload, 3, 0.0, False, sessions=1, root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("setup_s") for line in lines)


def test_traced_run_emits_every_per_layer_metric_and_reconciles(tmp_path):
    result, lines = perfbench.run("transfer", 3, 0.0, True, sessions=1, root=tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("per_layer")
    # Layer self times plus the unattributed root sum to the session wall.
    shares = sum(m["value"] for name, m in metrics.items() if name.startswith("share."))
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert metrics["share.channel"]["value"] + metrics["share.imaging"]["value"] > 0.5
    assert any("layer reconciliation" in line for line in lines)


def test_host_times_are_scaled_by_the_calibration_kernel(tmp_path, monkeypatch):
    import calibrate

    def twice_the_reference(self):
        self.samples.append(2 * self.reference_ms / 1000.0)
        self.at.append(time.perf_counter())
        return self.samples[-1]

    monkeypatch.setattr(calibrate.Calibration, "sample", twice_the_reference)
    result, lines = perfbench.run("receive_replay", 3, 0.0, False, sessions=1, root=tmp_path)
    host = next(line for line in lines if line.startswith("host:"))
    unscaled = float(host.split("unscaled session p50 ")[1].split(" ms")[0])
    assert result["metrics"]["session_ms_p50"]["value"] == pytest.approx(unscaled / 2, rel=1e-3)


def test_one_corrupted_byte_is_an_undetected_error(tmp_path, monkeypatch):
    original = TransferSession.transmit

    def corrupting(self, payload, max_rounds=5):
        received, stats = original(self, payload, max_rounds=max_rounds)
        if received is not None:
            received = bytes([received[0] ^ 0x01]) + received[1:]
        return received, stats

    monkeypatch.setattr(TransferSession, "transmit", corrupting)
    result, lines = perfbench.run("fault_recovery", 3, 0.0, False, sessions=1, root=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "undetected_errors=1" in "\n".join(lines)


def test_same_seed_gives_same_digest_traced_or_not(tmp_path):
    plain = perfbench.run("fault_recovery", 5, 0.0, False, sessions=2, root=tmp_path)[1]
    traced = perfbench.run("fault_recovery", 5, 0.0, True, sessions=2, root=tmp_path)[1]
    assert _digest(plain) == _digest(traced)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_different_seed_gives_different_inputs(workload):
    inputs = []
    for seed in (1, 2):
        bench = make_workload(workload, seed, sessions=2)
        bench.setup()
        inputs.append(getattr(bench, "payloads", None) or bench.trials)
    assert inputs[0] != inputs[1]


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = perfbench.main(["--workload", "transfer", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
