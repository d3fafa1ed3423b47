"""The benchmark's own tests: its statistics, its input plans, its counter
ledger, and that a wrong pinned value or a missing program makes a run
fail.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from common import CheckFailure, CounterLedger, first_mismatch, load_pins, tail  # noqa: E402
from engine_workloads import INPUT, check_unit  # noqa: E402
from hostspeed import REFERENCE_S, HostProbe  # noqa: E402
from service_mix import BLOCK_SPECS, submit_plan  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))
    value, percentile = tail(values)
    assert percentile == 75.0
    assert sum(1 for v in values if v > value) == 10
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_host_probe_scales_seconds_by_the_kernels_slowdown():
    probe = HostProbe()
    probe.samples = [
        (1.0, 0, 2 * REFERENCE_S[0], 0.01),
        (2.0, 1, 2 * REFERENCE_S[1], 0.01),
        (9.0, 0, REFERENCE_S[0], 0.01),
    ]
    assert probe.slowdown(0.0, 3.0) == pytest.approx(2.0)
    assert probe.reference_seconds(0.0, 3.0) == pytest.approx((3.0 - 0.02) / 2.0)
    assert probe.slowdown(5.0, 10.0) is None
    assert probe.reference_seconds(5.0, 10.0) == pytest.approx(5.0 - 0.01)


def test_host_probe_ticks_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with HostProbe() as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.slowdown(started, time.perf_counter()) > 0.0


def test_service_plan_work_does_not_depend_on_the_seed():
    pool = list(range(1, 41))

    def specs(seed):
        return [sorted(spec for kind, spec in block if kind == "miss")
                for block in submit_plan(seed, pool)]

    assert specs(1) == specs(2) == [pool[i:i + BLOCK_SPECS] for i in range(0, 40, BLOCK_SPECS)]
    assert submit_plan(1, pool) != submit_plan(2, pool)


def test_ledger_keeps_the_recorded_value_after_a_mismatch(tmp_path):
    first = CounterLedger(tmp_path, "tree")
    assert first.check("w", {"c": 1})
    first.save()
    for _ in range(2):
        ledger = CounterLedger(tmp_path, "tree")
        assert not ledger.check("w", {"c": 2, "d": 5})
        ledger.save()
    ledger = CounterLedger(tmp_path, "tree")
    assert ledger.check("w", {"c": 1, "d": 5})


@pytest.mark.parametrize("seed", [1, 2, 3, 99])
def test_service_plan_never_hits_before_its_miss(seed):
    pool = list(range(1, 41))
    blocks = submit_plan(seed, pool)
    assert blocks == submit_plan(seed, pool)
    for block in blocks:
        assert len(block) == 2 * BLOCK_SPECS
        missed = set()
        for kind, spec in block:
            if kind == "miss":
                assert spec not in missed
                missed.add(spec)
            else:
                assert spec in missed
                missed.discard(spec)
        assert not missed


def test_check_unit_rejects_a_wrong_pinned_value():
    pins = load_pins()
    outputs = copy.deepcopy(pins["paper-point"]["inputs"][str(INPUT)])
    check_unit("paper-point", INPUT, outputs, pins)
    outputs["coolest"]["delay_ms"] += 1.0
    with pytest.raises(CheckFailure, match="coolest.delay_ms"):
        check_unit("paper-point", INPUT, outputs, pins)
    assert first_mismatch("x", {"a": [1, 2]}, {"a": [1, 3]}).startswith("x.a:")


def _checkout(tmp_path: Path, with_source: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_source:
        (root / "src").symlink_to(ROOT / "src")
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170, check=False,
    )


def test_a_wrong_pinned_service_delay_fails_the_run(tmp_path):
    root = _checkout(tmp_path, with_source=True)
    pins_path = root / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    first_miss = submit_plan(5, sorted(int(s) for s in pins["service-mix"]["specs"]))[0][0][1]
    pins["service-mix"]["specs"][str(first_miss)]["delays"]["addc_delays_ms"][0] += 1.0
    pins_path.write_text(json.dumps(pins))
    completed = _run(root, "--workload", "service-mix", "--seed", "5", "--seconds", "1")
    assert completed.returncode == 1, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert f"spec {first_miss}" in completed.stdout
    assert not list((root / ".perfbench_run").glob("svc-*")), "daemon state left behind"
    assert not (root / ".perfbench_run" / "payload").exists()


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_source=False)
    completed = _run(root, "--workload", "paper-point", "--seed", "1", "--seconds", "1")
    assert completed.returncode not in (0, None)
    assert '"correct"' not in completed.stdout


def test_benchmark_json_lists_what_run_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
