"""Tests for repro.harness: checkpoint journals, supervision, crash-resume.

The load-bearing guarantee is that crash-safety never costs determinism: a
sweep killed at any point (SIGKILL mid-record included) and resumed must
produce byte-identical artifacts, RNG stream positions, and merged metric
registries — modulo the ``harness.*`` counters, which deliberately record
the resilience history of *this* run and are excluded from the contract.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro.obs as obs
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    PartialSweepError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6 import (
    FIG6_SWEEPS,
    run_fig6_sweep,
    sweep_point_configs,
)
from repro.experiments.io import load_sweep, save_sweep
from repro.experiments.runner import RepetitionMeasurement
from repro.harness import (
    CheckpointWriter,
    FailureRecord,
    ItemTracker,
    RetryPolicy,
    WorkerSupervisor,
    inspect_checkpoint,
    load_checkpoint,
    measurement_from_dict,
    measurement_to_dict,
    run_checkpointed_sweep,
    sweep_fingerprint,
    verify_checkpoint,
)
from repro.obs.recorder import MetricsRecorder

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


def tiny_config(**overrides) -> ExperimentConfig:
    """The same deliberately small scenario the perf tests use."""
    base = dict(
        area=30.0 * 30.0,
        num_pus=4,
        num_sus=20,
        repetitions=2,
        max_slots=200_000,
        seed=20120612,
    )
    base.update(overrides)
    return ExperimentConfig.quick_scale().with_overrides(**base)


def tiny_sweep():
    return dataclasses.replace(FIG6_SWEEPS["fig6c"], values=(0.1, 0.2))


def tiny_points(**overrides):
    return sweep_point_configs(tiny_sweep(), tiny_config(**overrides))


def _measurement(rep: int) -> RepetitionMeasurement:
    return RepetitionMeasurement(
        repetition=rep,
        addc_delay_ms=1234.5678901234 * (rep + 1) / 3.0,
        coolest_delay_ms=None if rep == 3 else 9876.54321 / (rep + 1),
        rng_positions={"addc": {"backoff": f"digest-{rep}"}},
    )


def _artifact_bytes(tmp_path, label, name, points):
    target = tmp_path / f"{label}.json"
    save_sweep(target, name, points)
    return target.read_bytes()


# --------------------------------------------------------------------- #
# Checkpoint journal: round-trip, torn tail, corruption                 #
# --------------------------------------------------------------------- #


class TestJournal:
    def _fresh(self, tmp_path, records=3):
        path = tmp_path / "sweep.checkpoint.ndjson"
        with CheckpointWriter.create(path, "unit", "hash-1", records) as writer:
            for rep in range(records):
                writer.append_measurement(0, rep, _measurement(rep))
        return path

    def test_measurement_json_round_trip_is_bit_exact(self):
        for rep in range(4):
            original = _measurement(rep)
            wire = json.loads(json.dumps(measurement_to_dict(original)))
            assert measurement_from_dict(wire) == original

    def test_round_trip(self, tmp_path):
        path = self._fresh(tmp_path)
        state = load_checkpoint(path)
        assert state.header["schema"] == "checkpoint/v1"
        assert state.header["name"] == "unit"
        assert state.config_hash == "hash-1"
        assert state.header["total_items"] == 3
        assert not state.torn_tail
        assert sorted(state.entries) == [(0, 0), (0, 1), (0, 2)]
        for (point, rep), entry in state.entries.items():
            assert entry.point_index == point
            assert entry.measurement == _measurement(rep)
        assert state.valid_bytes == path.stat().st_size

    def test_failure_records_round_trip(self, tmp_path):
        path = tmp_path / "j.ndjson"
        record = FailureRecord(
            point_index=1,
            repetition=0,
            kind="timeout",
            attempts=3,
            error={"code": "worker-timeout", "type": "X", "message": "m"},
        )
        with CheckpointWriter.create(path, "unit", "h", 2) as writer:
            writer.append_measurement(0, 0, _measurement(0))
            writer.append_failure(record.to_dict())
        state = load_checkpoint(path)
        assert state.failures == [record.to_dict()]
        assert FailureRecord.from_dict(state.failures[0]) == record

    def test_create_refuses_to_clobber(self, tmp_path):
        path = self._fresh(tmp_path)
        with pytest.raises(CheckpointError, match="already exists"):
            CheckpointWriter.create(path, "unit", "hash-1", 3)

    def test_create_fsyncs_the_journal_directory(self, tmp_path, monkeypatch):
        """Regression: the appends fsync the *file*, but the journal's
        existence is a directory entry — creation must flush the parent
        directory too, or a power loss can undo an acknowledged journal."""
        import stat

        dir_fsyncs = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                dir_fsyncs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        path = tmp_path / "fresh.ndjson"
        with CheckpointWriter.create(path, "unit", "hash-1", 1) as writer:
            writer.append_measurement(0, 0, _measurement(0))
        assert dir_fsyncs, "journal creation never fsynced its directory"

    def test_append_to_continues_journal(self, tmp_path):
        path = self._fresh(tmp_path, records=2)
        with CheckpointWriter.append_to(load_checkpoint(path)) as writer:
            writer.append_measurement(0, 2, _measurement(2))
        assert sorted(load_checkpoint(path).entries) == [(0, 0), (0, 1), (0, 2)]

    def test_torn_tail_dropped_counted_and_repaired(self, tmp_path):
        path = self._fresh(tmp_path)
        good_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "repetition", "point": 0, "re')
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            state = load_checkpoint(path, repair=False)
        assert state.torn_tail
        assert sorted(state.entries) == [(0, 0), (0, 1), (0, 2)]
        assert state.valid_bytes == good_size
        assert recorder.counters["harness.checkpoint.torn_tail"] == 1
        # repair=False left the file alone; repair=True truncates it.
        assert path.stat().st_size > good_size
        load_checkpoint(path, repair=True)
        assert path.stat().st_size == good_size
        assert not load_checkpoint(path).torn_tail

    def test_valid_final_line_without_newline_is_torn(self, tmp_path):
        path = self._fresh(tmp_path)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        path.write_bytes(raw[:-1])
        state = load_checkpoint(path)
        assert state.torn_tail
        assert sorted(state.entries) == [(0, 0), (0, 1)]

    def test_midfile_corruption_raises(self, tmp_path):
        path = self._fresh(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="line 2"):
            load_checkpoint(path)

    def test_wrong_schema_and_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"schema": "trace/v1"}\n')
        with pytest.raises(CheckpointError, match="expected schema"):
            load_checkpoint(path)
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(path)
        missing = tmp_path / "missing.ndjson"
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(missing)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = self._fresh(tmp_path, records=1)
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "mystery"}\n')
        with pytest.raises(CheckpointError, match="unknown record kind"):
            load_checkpoint(path)

    def test_duplicate_key_first_wins(self, tmp_path):
        path = self._fresh(tmp_path, records=1)
        with CheckpointWriter.append_to(load_checkpoint(path)) as writer:
            writer.append_measurement(0, 0, _measurement(2))
        state = load_checkpoint(path)
        assert state.entries[(0, 0)].measurement == _measurement(0)

    def test_inspect_summary(self, tmp_path):
        path = self._fresh(tmp_path)
        summary = inspect_checkpoint(path)
        assert summary["schema"] == "checkpoint/v1"
        assert summary["completed_items"] == 3
        assert summary["records_per_point"] == {"0": 3}
        assert summary["torn_tail"] is False

    def test_verify_clean_torn_and_mismatched(self, tmp_path):
        path = self._fresh(tmp_path)
        assert verify_checkpoint(path) == []
        assert verify_checkpoint(path, config_hash="hash-1") == []
        problems = verify_checkpoint(path, config_hash="other")
        assert any("config_hash mismatch" in problem for problem in problems)
        with open(path, "ab") as handle:
            handle.write(b"{half")
        problems = verify_checkpoint(path)
        assert any("torn tail" in problem for problem in problems)


# --------------------------------------------------------------------- #
# Retry policy and tracker state machine (fake clock, no processes)     #
# --------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.5, backoff_factor=2.0, backoff_max_s=30.0
        )
        assert [policy.backoff_s(a) for a in range(1, 9)] == [
            0.5,
            1.0,
            2.0,
            4.0,
            8.0,
            16.0,
            30.0,
            30.0,
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(0)
        with pytest.raises(ConfigurationError):
            WorkerSupervisor(workers=0)


class TestItemTracker:
    def _tracker(self, **policy_kwargs):
        return ItemTracker(
            index=0, item=object(), policy=RetryPolicy(**policy_kwargs)
        )

    def test_deadline_stamped_and_expired_on_fake_clock(self):
        tracker = self._tracker(timeout_s=5.0)
        tracker.mark_submitted(100.0)
        assert tracker.deadline == 105.0
        assert not tracker.deadline_expired(104.999)
        assert tracker.deadline_expired(105.0)
        untimed = self._tracker()
        untimed.mark_submitted(100.0)
        assert untimed.deadline is None
        assert not untimed.deadline_expired(1e9)

    def test_backoff_moves_not_before(self):
        tracker = self._tracker(max_attempts=3, backoff_base_s=2.0)
        assert tracker.record_failure("error", 10.0, {"message": "x"}) == "retry"
        assert tracker.not_before == 12.0
        assert tracker.record_failure("error", 20.0, {}) == "retry"
        assert tracker.not_before == 24.0

    def test_quarantine_after_max_attempts(self):
        tracker = self._tracker(max_attempts=2)
        assert tracker.record_failure("timeout", 0.0, {}) == "retry"
        assert tracker.record_failure("crash", 1.0, {"message": "boom"}) == (
            "quarantine"
        )
        record = tracker.failure_record()
        assert record.kind == "crash"
        assert record.attempts == 2
        assert record.error == {"message": "boom"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown failure kind"):
            self._tracker().record_failure("meltdown", 0.0, {})


# --------------------------------------------------------------------- #
# Supervisor: inline (workers=1) path with injected clock/sleep         #
# --------------------------------------------------------------------- #


class _Flaky:
    """Callable failing a fixed number of times before succeeding."""

    def __init__(self, failures: int):
        self.remaining = failures
        self.calls = 0

    def __call__(self, item):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise ValueError(f"transient {self.calls}")
        return item * 10


class TestSupervisorInline:
    def _supervisor(self, slept=None, **policy_kwargs):
        return WorkerSupervisor(
            workers=1,
            policy=RetryPolicy(**policy_kwargs),
            clock=lambda: 0.0,
            sleep=(slept.append if slept is not None else (lambda _s: None)),
        )

    def test_retry_then_success_with_backoff_sleeps(self):
        slept = []
        supervisor = self._supervisor(slept, max_attempts=4)
        run = supervisor.run(_Flaky(2), [7])
        assert run.outcomes == [70]
        assert run.failures == []
        assert slept == [0.5, 1.0]
        assert run.stats["retries"] == 2
        assert run.stats["worker_errors"] == 2

    def test_quarantine_then_inline_rescue_succeeds(self):
        supervisor = self._supervisor(max_attempts=2, inline_retry=True)
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            run = supervisor.run(_Flaky(2), [7])
        assert run.outcomes == [70]
        assert run.failures == []
        assert run.stats["quarantined"] == 0
        assert run.stats["inline_rescues"] == 1
        assert recorder.counters["harness.inline_rescues"] == 1
        assert recorder.counters["harness.quarantined"] == 1

    def test_poison_item_stays_quarantined(self):
        supervisor = self._supervisor(max_attempts=3, inline_retry=True)
        run = supervisor.run(_Flaky(99), [7])
        assert run.outcomes == [None]
        assert len(run.failures) == 1
        record = run.failures[0]
        assert record.kind == "error"
        assert record.attempts == 3
        assert record.error["type"] == "ValueError"
        # The inline rescue re-raised too and refreshed the error record.
        assert "transient 4" in record.error["message"]
        assert run.stats["quarantined"] == 1

    def test_on_result_fires_per_completion(self):
        seen = []
        supervisor = self._supervisor(max_attempts=1, inline_retry=False)
        run = supervisor.run(
            lambda item: item + 1,
            [10, 20, 30],
            on_result=lambda index, outcome: seen.append((index, outcome)),
        )
        assert run.outcomes == [11, 21, 31]
        assert seen == [(0, 11), (1, 21), (2, 31)]

    def test_keyboard_interrupt_propagates(self):
        def interrupt(_item):
            raise KeyboardInterrupt

        supervisor = self._supervisor(max_attempts=5)
        with pytest.raises(KeyboardInterrupt):
            supervisor.run(interrupt, [1])


# --------------------------------------------------------------------- #
# Supervisor: process-pool path (spawn-picklable workers below)         #
# --------------------------------------------------------------------- #


def _double_worker(item):
    return item * 2


def _error_if_negative(item):
    if item < 0:
        raise ValueError(f"poison {item}")
    return item * 2


def _exit_if_negative(item):
    if item < 0:
        os._exit(17)  # simulates an OOM kill / segfault
    return item * 2


def _sleep_if_negative(item):
    if item < 0:
        time.sleep(60.0)
    return item * 2


def _parent_only_worker(item):
    if multiprocessing.current_process().name != "MainProcess":
        raise RuntimeError("only works in the parent")
    return item * 2


class TestSupervisorPool:
    def test_results_in_submission_order(self):
        supervisor = WorkerSupervisor(workers=2)
        run = supervisor.run(_double_worker, list(range(6)))
        assert run.outcomes == [0, 2, 4, 6, 8, 10]
        assert run.failures == []

    def test_worker_error_retried_then_quarantined(self):
        supervisor = WorkerSupervisor(
            workers=2,
            policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.0, inline_retry=False
            ),
        )
        run = supervisor.run(_error_if_negative, [1, -2, 3])
        assert run.outcomes == [2, None, 6]
        assert len(run.failures) == 1
        record = run.failures[0]
        assert record.kind == "error"
        assert record.attempts == 2
        assert record.error["type"] == "ValueError"
        assert "poison -2" in record.error["message"]
        assert run.stats["retries"] == 1
        assert run.stats["worker_errors"] == 2

    def test_pool_crash_is_attributed_by_isolation_probe(self):
        supervisor = WorkerSupervisor(
            workers=2,
            policy=RetryPolicy(
                max_attempts=1, backoff_base_s=0.0, inline_retry=False
            ),
        )
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            run = supervisor.run(_exit_if_negative, [1, -2, 3, 4])
        # Exactly the poison item is charged; innocents all completed.
        assert run.outcomes == [2, None, 6, 8]
        assert len(run.failures) == 1
        record = run.failures[0]
        assert record.kind == "crash"
        assert record.error["code"] == "worker-crash"
        assert run.stats["worker_crashes"] == 1
        assert run.stats["pool_rebuilds"] >= 1
        assert recorder.counters["harness.pool_rebuilds"] >= 1

    def test_deadline_timeout_quarantines_and_spares_innocents(self):
        supervisor = WorkerSupervisor(
            workers=2,
            # The deadline is stamped at submit time, so it must absorb
            # the spawn pool's startup cost as well as the work itself.
            policy=RetryPolicy(
                timeout_s=8.0,
                max_attempts=1,
                backoff_base_s=0.0,
                inline_retry=False,
            ),
        )
        run = supervisor.run(_sleep_if_negative, [1, -2, 3])
        assert run.outcomes == [2, None, 6]
        assert len(run.failures) == 1
        assert run.failures[0].kind == "timeout"
        assert run.failures[0].error["code"] == "worker-timeout"
        assert run.stats["timeouts"] == 1

    def test_inline_rescue_recovers_pool_only_failures(self):
        supervisor = WorkerSupervisor(
            workers=2,
            policy=RetryPolicy(
                max_attempts=1, backoff_base_s=0.0, inline_retry=True
            ),
        )
        run = supervisor.run(_parent_only_worker, [1, 2])
        assert run.outcomes == [2, 4]
        assert run.failures == []
        assert run.stats["inline_rescues"] == 2


# --------------------------------------------------------------------- #
# Checkpointed sweeps: byte-identity across kill/resume                 #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def plain_points():
    """The uninterrupted reference run (computed once per module)."""
    return run_fig6_sweep(tiny_sweep(), tiny_config())


class TestCheckpointedSweep:
    def test_full_run_matches_plain_driver(self, tmp_path, plain_points):
        journal = tmp_path / "sweep.ckpt"
        result = run_checkpointed_sweep(
            "fig6c", tiny_points(), checkpoint_path=journal, workers=1
        )
        assert result.status == "complete"
        assert result.complete
        assert result.cached_items == 0
        assert not result.resumed
        assert _artifact_bytes(
            tmp_path, "harness", "fig6c", result.points
        ) == _artifact_bytes(tmp_path, "plain", "fig6c", plain_points)
        assert verify_checkpoint(journal, config_hash=result.config_hash) == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_kill_and_resume_is_byte_identical(
        self, tmp_path, plain_points, workers
    ):
        journal = tmp_path / "sweep.ckpt"
        run_checkpointed_sweep(
            "fig6c", tiny_points(), checkpoint_path=journal, workers=workers
        )
        # Simulate a kill after one durable record: keep the header plus
        # one record, then tear the next record mid-line like SIGKILL does.
        lines = journal.read_bytes().split(b"\n")
        journal.write_bytes(
            b"\n".join(lines[:2]) + b"\n" + lines[2][: len(lines[2]) // 2]
        )
        resumed = run_checkpointed_sweep(
            "fig6c",
            tiny_points(),
            checkpoint_path=journal,
            resume=True,
            workers=workers,
        )
        assert resumed.resumed
        assert resumed.cached_items == 1
        assert resumed.status == "complete"
        assert _artifact_bytes(
            tmp_path, f"resumed-{workers}", "fig6c", resumed.points
        ) == _artifact_bytes(tmp_path, f"plain-{workers}", "fig6c", plain_points)
        # RNG stream positions replay exactly (never serialized by
        # save_sweep, so asserted separately).
        assert [point.rng_positions for _, point in resumed.points] == [
            point.rng_positions for _, point in plain_points
        ]
        # The repaired-then-appended journal is itself valid on disk.
        assert verify_checkpoint(journal, config_hash=resumed.config_hash) == []

    def test_injected_warm_pool_survives_run_and_resume(
        self, tmp_path, plain_points
    ):
        """One caller-owned pool serves a kill-and-resume cycle warm.

        The supervisor must borrow an injected pool — never close it — so
        a daemon can reuse one set of spawned workers across jobs; the
        resumed sweep on the same warm pool stays byte-identical.
        """
        from repro.perf import WarmWorkerPool

        journal = tmp_path / "sweep.ckpt"
        with WarmWorkerPool(2) as pool:
            run_checkpointed_sweep(
                "fig6c",
                tiny_points(),
                checkpoint_path=journal,
                workers=2,
                pool=pool,
            )
            assert pool.alive  # borrowed, not closed
            lines = journal.read_bytes().split(b"\n")
            journal.write_bytes(b"\n".join(lines[:2]) + b"\n")
            resumed = run_checkpointed_sweep(
                "fig6c",
                tiny_points(),
                checkpoint_path=journal,
                resume=True,
                workers=2,
                pool=pool,
            )
            assert pool.alive
        assert resumed.resumed
        assert resumed.status == "complete"
        assert _artifact_bytes(
            tmp_path, "warm-resumed", "fig6c", resumed.points
        ) == _artifact_bytes(tmp_path, "warm-plain", "fig6c", plain_points)
        assert [point.rng_positions for _, point in resumed.points] == [
            point.rng_positions for _, point in plain_points
        ]

    def test_resume_with_mismatched_sweep_refused(self, tmp_path):
        journal = tmp_path / "sweep.ckpt"
        run_checkpointed_sweep(
            "fig6c", tiny_points(), checkpoint_path=journal, workers=1
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            run_checkpointed_sweep(
                "fig6c",
                tiny_points(seed=999),
                checkpoint_path=journal,
                resume=True,
                workers=1,
            )

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        journal = tmp_path / "sweep.ckpt"
        run_checkpointed_sweep(
            "fig6c", tiny_points(), checkpoint_path=journal, workers=1
        )
        with pytest.raises(CheckpointError, match="resume it or delete it"):
            run_checkpointed_sweep(
                "fig6c", tiny_points(), checkpoint_path=journal, workers=1
            )

    def test_fingerprint_ignores_workers_and_policy(self):
        points = tiny_points()
        reps = [config.repetitions for _, config in points]
        assert sweep_fingerprint("fig6c", points, reps) == sweep_fingerprint(
            "fig6c", points, reps
        )
        assert sweep_fingerprint("fig6c", points, reps) != sweep_fingerprint(
            "fig6c", points, [reps[0] + 1] + reps[1:]
        )

    def test_metric_registry_identical_modulo_harness_counters(self, tmp_path):
        def _sanitized(recorder):
            snapshot = json.loads(json.dumps(recorder.snapshot()))
            for section in snapshot.values():
                for name in [key for key in section if key.startswith("harness.")]:
                    del section[name]
            return snapshot

        uninterrupted = MetricsRecorder()
        with obs.use_recorder(uninterrupted):
            full = run_checkpointed_sweep(
                "fig6c",
                tiny_points(),
                checkpoint_path=tmp_path / "full.ckpt",
                workers=2,
            )
        journal = tmp_path / "kill.ckpt"
        with obs.use_recorder(MetricsRecorder()):
            run_checkpointed_sweep(
                "fig6c", tiny_points(), checkpoint_path=journal, workers=2
            )
        lines = journal.read_bytes().split(b"\n")
        journal.write_bytes(b"\n".join(lines[:3]) + b"\n")
        resumed_recorder = MetricsRecorder()
        with obs.use_recorder(resumed_recorder):
            resumed = run_checkpointed_sweep(
                "fig6c",
                tiny_points(),
                checkpoint_path=journal,
                resume=True,
                workers=2,
            )
        assert resumed.cached_items == 2
        assert _sanitized(resumed_recorder) == _sanitized(uninterrupted)
        assert _artifact_bytes(
            tmp_path, "resumed", "fig6c", resumed.points
        ) == _artifact_bytes(tmp_path, "full", "fig6c", full.points)


# --------------------------------------------------------------------- #
# Graceful degradation: quarantined items and partial artifacts         #
# --------------------------------------------------------------------- #


class TestPartialSweeps:
    def _poisoned_run(self, tmp_path, monkeypatch, allow=True):
        import repro.perf.executor as executor_module

        real = executor_module.execute_work_item

        def poisoned(item):
            if item.point_index == 1 and item.repetition == 0:
                raise ValueError("deterministic poison")
            return real(item)

        monkeypatch.setattr(executor_module, "execute_work_item", poisoned)
        return run_checkpointed_sweep(
            "fig6c",
            tiny_points(),
            checkpoint_path=tmp_path / "sweep.ckpt",
            workers=1,
            policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.0, inline_retry=False
            ),
        )

    def test_partial_status_failures_and_survivors(self, tmp_path, monkeypatch):
        result = self._poisoned_run(tmp_path, monkeypatch)
        assert result.status == "partial"
        assert not result.complete
        assert len(result.failures) == 1
        record = result.failures[0]
        assert (record.point_index, record.repetition) == (1, 0)
        assert record.attempts == 2
        # The poisoned point survives on its remaining repetition.
        assert len(result.points) == 2
        assert len(result.points[1][1].addc_delays) == 1
        # The journal carries the quarantine record for the audit trail.
        state = load_checkpoint(tmp_path / "sweep.ckpt")
        assert len(state.failures) == 1
        assert state.failures[0]["kind"] == "error"

    def test_partial_artifact_refused_without_opt_in(
        self, tmp_path, monkeypatch
    ):
        result = self._poisoned_run(tmp_path, monkeypatch)
        artifact = tmp_path / "sweep.json"
        save_sweep(
            artifact,
            "fig6c",
            result.points,
            status=result.status,
            failures=[record.to_dict() for record in result.failures],
        )
        payload = json.loads(artifact.read_text())
        assert payload["status"] == "partial"
        assert payload["failures"][0]["point"] == 1
        with pytest.raises(PartialSweepError, match="allow_partial"):
            load_sweep(artifact)
        name, points = load_sweep(artifact, allow_partial=True)
        assert name == "fig6c"
        assert len(points) == 2

    def test_complete_artifact_has_no_new_keys(self, tmp_path, plain_points):
        artifact = tmp_path / "sweep.json"
        save_sweep(artifact, "fig6c", plain_points, status="complete")
        assert sorted(json.loads(artifact.read_text())) == ["name", "points"]
        with pytest.raises(ConfigurationError):
            save_sweep(artifact, "fig6c", plain_points, status="mostly-done")

    def test_run_fig6_sweep_raises_on_partial_without_opt_in(
        self, tmp_path, monkeypatch
    ):
        import repro.perf.executor as executor_module

        real = executor_module.execute_work_item

        def poisoned(item):
            if item.point_index == 0 and item.repetition == 1:
                raise ValueError("deterministic poison")
            return real(item)

        monkeypatch.setattr(executor_module, "execute_work_item", poisoned)
        policy = RetryPolicy(
            max_attempts=1, backoff_base_s=0.0, inline_retry=False
        )
        with pytest.raises(PartialSweepError, match="allow_partial"):
            run_fig6_sweep(
                tiny_sweep(),
                tiny_config(),
                checkpoint_path=tmp_path / "a.ckpt",
                policy=policy,
            )
        points = run_fig6_sweep(
            tiny_sweep(),
            tiny_config(),
            checkpoint_path=tmp_path / "b.ckpt",
            policy=policy,
            allow_partial=True,
        )
        assert len(points) == 2


# --------------------------------------------------------------------- #
# Real signals: SIGINT flush and SIGKILL crash-resume, in subprocesses  #
# --------------------------------------------------------------------- #

_DRIVER = textwrap.dedent(
    """
    import dataclasses
    import os
    import signal
    import sys
    import threading
    import time

    sys.path.insert(0, {src!r})

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig6 import FIG6_SWEEPS, sweep_point_configs
    from repro.harness import run_checkpointed_sweep

    def records(journal):
        try:
            with open(journal, "rb") as handle:
                return max(handle.read().count(b"\\n") - 1, 0)
        except OSError:
            return 0

    # The __main__ guard is load-bearing: spawn pool workers re-import
    # this module, and without it each worker would re-run the sweep.
    if __name__ == "__main__":
        journal = sys.argv[1]
        mode = sys.argv[2]

        config = ExperimentConfig.quick_scale().with_overrides(
            area=2500.0,
            num_pus=12,
            num_sus=60,
            repetitions=4,
            max_slots=2_000_000,
            seed=20120612,
        )
        sweep = dataclasses.replace(FIG6_SWEEPS["fig6c"], values=(0.1, 0.2))
        points = sweep_point_configs(sweep, config)

        if mode == "sigint":
            def killer():
                while records(journal) < 2:
                    time.sleep(0.002)
                os.kill(os.getpid(), signal.SIGINT)

            threading.Thread(target=killer, daemon=True).start()

        try:
            run_checkpointed_sweep(
                "driver", points, checkpoint_path=journal, workers=2
            )
        except KeyboardInterrupt:
            sys.exit(130)
        sys.exit(0)
    """
)


def _driver_points():
    config = ExperimentConfig.quick_scale().with_overrides(
        area=2500.0,
        num_pus=12,
        num_sus=60,
        repetitions=4,
        max_slots=2_000_000,
        seed=20120612,
    )
    sweep = dataclasses.replace(FIG6_SWEEPS["fig6c"], values=(0.1, 0.2))
    return sweep_point_configs(sweep, config)


@pytest.fixture(scope="module")
def driver_reference(tmp_path_factory):
    """The uninterrupted artifact the killed-and-resumed runs must match."""
    tmp = tmp_path_factory.mktemp("driver-reference")
    points = run_checkpointed_sweep(
        "driver", _driver_points(), checkpoint_path=tmp / "ref.ckpt", workers=2
    ).points
    target = tmp / "reference.json"
    save_sweep(target, "driver", points)
    return target.read_bytes()


def _journal_records(path) -> int:
    try:
        return max(path.read_bytes().count(b"\n") - 1, 0)
    except OSError:
        return 0


class TestSignals:
    def _write_driver(self, tmp_path):
        script = tmp_path / "driver.py"
        script.write_text(_DRIVER.format(src=SRC_DIR))
        return script

    def _resume_and_compare(self, tmp_path, journal, reference_bytes):
        resumed = run_checkpointed_sweep(
            "driver",
            _driver_points(),
            checkpoint_path=journal,
            resume=True,
            workers=2,
        )
        assert resumed.resumed
        assert resumed.cached_items >= 2
        assert resumed.status == "complete"
        target = tmp_path / "resumed.json"
        save_sweep(target, "driver", resumed.points)
        assert target.read_bytes() == reference_bytes
        return resumed

    def test_sigint_flushes_journal_and_resumes(
        self, tmp_path, driver_reference
    ):
        journal = tmp_path / "sigint.ckpt"
        process = subprocess.run(
            [sys.executable, str(self._write_driver(tmp_path)), str(journal), "sigint"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert process.returncode == 130, process.stderr
        # The journal survived the interrupt with every acknowledged
        # record intact and loadable.
        state = load_checkpoint(journal, repair=True)
        assert len(state.entries) >= 2
        assert len(state.entries) < 8, "interrupt arrived after completion"
        self._resume_and_compare(tmp_path, journal, driver_reference)

    def test_sigkill_mid_sweep_resumes_byte_identical(
        self, tmp_path, driver_reference
    ):
        journal = tmp_path / "sigkill.ckpt"
        process = subprocess.Popen(
            [sys.executable, str(self._write_driver(tmp_path)), str(journal), "plain"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300.0
            while _journal_records(journal) < 2:
                if time.monotonic() > deadline:
                    raise AssertionError("driver never journalled 2 records")
                if process.poll() is not None:
                    raise AssertionError(
                        f"driver exited early ({process.returncode})"
                    )
                time.sleep(0.002)
            # SIGKILL the whole session: the parent and its pool workers
            # die with no chance to flush anything.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == -signal.SIGKILL
        assert _journal_records(journal) >= 2
        resumed = self._resume_and_compare(tmp_path, journal, driver_reference)
        assert resumed.cached_items < 8
