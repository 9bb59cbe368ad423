"""Tiny-size runs of every workload, through the real command path
(fresh child processes, calibration, output check)."""

import json
from pathlib import Path

import pytest

import run

TINY = {
    "suite-4k": {"kind": "suite", "name": "bfs", "thp": False, "scale": 4096,
                 "refs": 2000, "journal": True, "setups": 2},
    "suite-thp": {"kind": "suite", "name": "gups", "thp": True, "scale": 1024,
                  "refs": 2000, "journal": False, "setups": 2},
    "serve-lvm": {"kind": "serve", "requests": 200, "setups": 2},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "recorded_digests", lambda workload, seed: None)


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks_its_output(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif TINY[workload]["kind"] == "suite":
        assert result["metrics"]["sim.translate_s"]["value"] > 0
        assert result["metrics"]["mmu.walks"]["value"] > 0
    else:
        assert result["metrics"]["serve.tenant_ms_p50.translate"]["value"] > 0
        assert result["metrics"]["serve.requests.translate"]["value"] > 0


@pytest.mark.parametrize("workload", ["suite-thp", "serve-lvm"])
def test_digest_mismatch_fails_the_run(tiny, capsys, monkeypatch, workload):
    forged = {"gups/lvm/thp1": "0" * 64} if workload == "suite-thp" else {"tenant-1": "0" * 64}
    monkeypatch.setattr(run, "recorded_digests", lambda w, s: forged)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])
    result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "suite-thp", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_command():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(Path(run.ROOT, p).is_dir() for p in spec["paths"])
