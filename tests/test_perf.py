"""Tests for repro.perf: parallel executor, vectorized-kernel equivalence.

The load-bearing guarantee is bit-identity: the parallel sweep executor
must reproduce serial results byte-for-byte (artifacts, manifests, merged
metrics, RNG stream positions) for any worker count, and the vectorized
CSR ``GridIndex`` must return exactly what a brute-force distance scan
(and the preserved scalar reference) returns.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

import repro.obs as obs
from repro.core.collector import run_addc_collection
from repro.errors import ConfigurationError, GeometryError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6 import FIG6_SWEEPS, run_fig6_sweep
from repro.experiments.io import save_sweep
from repro.experiments.runner import (
    run_comparison_point,
    run_comparison_repetition,
)
from repro.geometry import GridIndex
from repro.network.deployment import deploy_crn
from repro.network.primary import BernoulliActivity, MarkovActivity
from repro.obs.manifest import manifest_path_for
from repro.obs.recorder import MetricsRecorder, NullRecorder
from repro.perf import (
    ParallelSweepExecutor,
    ScalarGridIndex,
    SweepWorkItem,
    WarmWorkerPool,
    execute_work_item,
)
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


def tiny_config(**overrides) -> ExperimentConfig:
    """A deliberately small scenario so process-pool tests stay fast."""
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


# --------------------------------------------------------------------- #
# Satellite (b): randomized property test, CSR == brute force == scalar #
# --------------------------------------------------------------------- #


def brute_force_query(positions, point, radius, exclude=None):
    deltas = positions - np.asarray(point, dtype=float)
    mask = (deltas * deltas).sum(axis=1) <= radius * radius
    found = np.nonzero(mask)[0]
    if exclude is not None:
        found = found[found != exclude]
    return sorted(found.tolist())


class TestGridIndexProperty:
    def test_randomized_queries_match_brute_force_and_scalar(self):
        rng = StreamFactory(20120612).stream("spatial-property")
        for case in range(30):
            n = int(rng.integers(1, 120))
            side = float(rng.uniform(5.0, 60.0))
            cell = float(rng.uniform(0.5, 12.0))
            positions = rng.random((n, 2)) * side
            index = GridIndex(positions, cell)
            scalar = ScalarGridIndex(positions, cell)
            for _ in range(5):
                point = rng.random(2) * side * 1.2 - side * 0.1
                radius = float(rng.uniform(0.0, side * 0.5))
                got = index.query_radius(point, radius)
                assert sorted(got) == brute_force_query(
                    positions, point, radius
                ), f"case {case}: CSR != brute force"
                # Exact order parity with the scalar reference, too.
                assert got == scalar.query_radius(point, radius)
                exclude = int(rng.integers(0, n))
                assert index.query_radius_excluding(
                    point, radius, exclude
                ) == scalar.query_radius_excluding(point, radius, exclude)

    def test_batched_queries_match_per_point_queries(self):
        rng = StreamFactory(7).stream("spatial-batch")
        positions = rng.random((80, 2)) * 40.0
        index = GridIndex(positions, 5.0)
        queries = rng.random((25, 2)) * 50.0 - 5.0
        radius = 7.5
        batched = index.query_radius_many(queries, radius)
        assert batched == [
            index.query_radius(queries[i], radius) for i in range(len(queries))
        ]
        excludes = rng.integers(0, 80, size=25)
        batched_excl = index.query_radius_many(queries, radius, exclude=excludes)
        assert batched_excl == [
            index.query_radius_excluding(queries[i], radius, int(excludes[i]))
            for i in range(len(queries))
        ]

    def test_boundary_radius_is_inclusive(self):
        positions = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        index = GridIndex(positions, 2.0)
        # Distances are exactly 3, 4, and 5 — all must be included.
        assert sorted(index.query_radius((0.0, 0.0), 3.0)) == [0, 1]
        assert sorted(index.query_radius((0.0, 0.0), 4.0)) == [0, 1, 2]
        assert sorted(index.query_radius((3.0, 4.0), 5.0)) == [0, 1, 2]

    def test_neighbor_lists_match_scalar_reference(self):
        rng = StreamFactory(11).stream("spatial-neighbors")
        positions = rng.random((60, 2)) * 25.0
        others = rng.random((15, 2)) * 25.0
        for cell in (1.0, 4.0, 10.0):
            index = GridIndex(positions, cell)
            scalar = ScalarGridIndex(positions, cell)
            for radius in (0.0, 3.5, 8.0):
                assert index.neighbor_lists(radius) == scalar.neighbor_lists(
                    radius
                )
                assert index.cross_neighbor_lists(
                    others, radius
                ) == scalar.cross_neighbor_lists(others, radius)

    def test_empty_index_and_empty_queries(self):
        index = GridIndex(np.zeros((0, 2)), 1.0)
        assert index.query_radius((0.0, 0.0), 5.0) == []
        assert index.neighbor_lists(2.0) == []
        full = GridIndex(np.array([[1.0, 1.0]]), 1.0)
        assert full.query_radius_many(np.zeros((0, 2)), 1.0) == []


class TestGridIndexValidation:
    # Satellite (a): non-finite inputs raise instead of bucketing NaN.

    def test_non_finite_query_point_raises(self):
        index = GridIndex(np.array([[0.0, 0.0]]), 1.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(GeometryError):
                index.query_radius((bad, 0.0), 1.0)
            with pytest.raises(GeometryError):
                index.query_radius_excluding((0.0, bad), 1.0, 0)
            with pytest.raises(GeometryError):
                index.query_radius_many(np.array([[bad, 0.0]]), 1.0)

    def test_non_finite_positions_raise(self):
        with pytest.raises(GeometryError):
            GridIndex(np.array([[0.0, float("nan")]]), 1.0)

    def test_non_finite_or_negative_radius_raises(self):
        index = GridIndex(np.array([[0.0, 0.0]]), 1.0)
        with pytest.raises(GeometryError):
            index.query_radius((0.0, 0.0), -1.0)
        with pytest.raises(GeometryError):
            index.query_radius((0.0, 0.0), float("nan"))

    def test_excluding_single_pass_keeps_results(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        index = GridIndex(positions, 1.0)
        assert sorted(index.query_radius_excluding((0.0, 0.0), 2.0, 1)) == [0, 2]
        # Excluding an index not in range changes nothing.
        assert sorted(index.query_radius_excluding((0.0, 0.0), 0.5, 2)) == [0]


# --------------------------------------------------------------------- #
# Executor unit behaviour                                               #
# --------------------------------------------------------------------- #


class TestExecutor:
    def test_work_item_is_picklable(self):
        item = SweepWorkItem(
            point_index=3, repetition=1, config=tiny_config(), collect_metrics=True
        )
        clone = pickle.loads(pickle.dumps(item))
        assert clone == item

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepExecutor(0)

    def test_execute_work_item_collects_metrics(self):
        item = SweepWorkItem(
            point_index=0,
            repetition=0,
            config=tiny_config(repetitions=1),
            collect_metrics=True,
        )
        outcome = execute_work_item(item)
        assert outcome.point_index == 0 and outcome.repetition == 0
        assert outcome.metrics["counters"]["engine.runs"] == 2  # ADDC + Coolest
        assert "sweep.repetition" in outcome.profile
        assert outcome.measurement.rng_positions.keys() == {"addc", "coolest"}
        # Without collect_metrics the worker ships no snapshot.
        bare = execute_work_item(
            SweepWorkItem(0, 0, tiny_config(repetitions=1))
        )
        assert bare.metrics is None and bare.profile is None
        assert bare.measurement == outcome.measurement

    def test_inline_executor_matches_direct_calls(self):
        config = tiny_config()
        items = [SweepWorkItem(0, rep, config) for rep in range(2)]
        outcomes = ParallelSweepExecutor(1).run_items(items)
        assert [o.measurement for o in outcomes] == [
            run_comparison_repetition(config, rep) for rep in range(2)
        ]


class TestMergeSnapshot:
    def test_counters_histograms_and_spans_fold(self):
        worker = MetricsRecorder()
        worker.counter_add("engine.slots", 10)
        worker.observe("delay", 3.0, bounds=(1.0, 5.0))
        worker.observe("delay", 7.0, bounds=(1.0, 5.0))
        worker.gauge_set("level", 2.0)
        worker.span_add("engine.run", 0.25)

        parent = MetricsRecorder()
        parent.counter_add("engine.slots", 5)
        parent.merge_snapshot(worker.snapshot(), worker.profile())
        parent.merge_snapshot(worker.snapshot(), worker.profile())

        assert parent.counters["engine.slots"] == 25
        assert parent.gauges["level"] == 2.0
        merged = parent.histograms["delay"]
        assert merged.count == 4 and merged.total == 20.0
        assert merged.bucket_counts == [0, 2, 2]
        span = parent.spans["engine.run"]
        assert span.count == 2
        assert span.total_s == pytest.approx(0.5)
        assert span.min_s == pytest.approx(0.25)
        assert span.max_s == pytest.approx(0.25)

    def test_histogram_bounds_mismatch_raises(self):
        worker = MetricsRecorder()
        worker.observe("delay", 1.0, bounds=(1.0, 2.0))
        parent = MetricsRecorder()
        parent.observe("delay", 1.0, bounds=(1.0, 3.0))
        with pytest.raises(ConfigurationError):
            parent.merge_snapshot(worker.snapshot())

    def test_null_recorder_merge_is_noop(self):
        recorder = NullRecorder()
        recorder.merge_snapshot({"counters": {"x": 1}}, {"s": {"count": 1}})
        assert recorder.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# --------------------------------------------------------------------- #
# Satellite (c): workers in {2, 4} are byte-identical to serial         #
# --------------------------------------------------------------------- #


def _volatile_stripped(manifest_dict):
    cleaned = json.loads(json.dumps(manifest_dict))
    cleaned.pop("created_utc", None)
    cleaned.pop("wall_time_s", None)
    cleaned.pop("profile", None)  # span timings are wall-clock by nature
    cleaned.get("extra", {}).pop("workers", None)
    return cleaned


def _run_sweep_to_file(tmp_path, label, workers):
    config = tiny_config()
    sweep = FIG6_SWEEPS["fig6c"]
    recorder = MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        points = run_fig6_sweep(
            sweep, config, values=(0.1, 0.2), workers=workers
        )
    wall_time_s = obs.monotonic_s() - start
    manifest = obs.build_manifest(
        seed=config.seed,
        config=config,
        wall_time_s=wall_time_s,
        recorder=recorder,
        extra={"sweep": "fig6c", "workers": workers},
    )
    path = tmp_path / f"{label}.json"
    save_sweep(path, "fig6c", points, manifest=manifest)
    return points, path


class TestParallelDeterminism:
    def test_point_results_identical_workers_2(self):
        config = tiny_config()
        serial = run_comparison_point(config)
        parallel = run_comparison_point(config, workers=2)
        assert parallel.addc_delays == serial.addc_delays
        assert parallel.coolest_delays == serial.coolest_delays
        assert parallel.skipped_repetitions == serial.skipped_repetitions
        # Post-run RNG stream positions match rep by rep: the workers
        # consumed exactly the draws the serial path consumed.
        assert parallel.rng_positions == serial.rng_positions
        assert len(serial.rng_positions) == config.repetitions

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sweep_artifacts_byte_identical(self, tmp_path, workers):
        serial_points, serial_path = _run_sweep_to_file(tmp_path, "serial", 1)
        parallel_points, parallel_path = _run_sweep_to_file(
            tmp_path, f"workers{workers}", workers
        )
        assert parallel_path.read_bytes() == serial_path.read_bytes()
        assert [p.rng_positions for _, p in parallel_points] == [
            p.rng_positions for _, p in serial_points
        ]
        serial_manifest = json.loads(
            manifest_path_for(serial_path).read_text()
        )
        parallel_manifest = json.loads(
            manifest_path_for(parallel_path).read_text()
        )
        # Identical modulo wall-time fields and the recorded worker count
        # — including the merged metric snapshot (counters, histograms).
        assert _volatile_stripped(parallel_manifest) == _volatile_stripped(
            serial_manifest
        )
        assert parallel_manifest["extra"]["workers"] == workers


# --------------------------------------------------------------------- #
# Warm worker pool lifecycle                                            #
# --------------------------------------------------------------------- #


def _pool_square(value):
    return value * value


class TestWarmWorkerPool:
    def test_invalid_worker_count_raises(self):
        with pytest.raises(ConfigurationError):
            WarmWorkerPool(0)

    def test_lazy_spawn_submit_rebuild_close(self):
        pool = WarmWorkerPool(2)
        assert not pool.alive  # nothing spawns until the first submit
        assert pool.submit(_pool_square, 7).result() == 49
        assert pool.alive
        # rebuild() replaces the processes in place; the pool object
        # stays valid and the next submit respawns transparently.
        pool.rebuild()
        assert pool.submit(_pool_square, 9).result() == 81
        pool.close()
        assert not pool.alive
        with pytest.raises(RuntimeError):
            pool.submit(_pool_square, 1)
        pool.close()  # idempotent

    def test_context_manager_closes_on_exit(self):
        with WarmWorkerPool(2) as pool:
            assert pool.submit(_pool_square, 3).result() == 9
        assert not pool.alive
        with pytest.raises(RuntimeError):
            pool.submit(_pool_square, 1)


# --------------------------------------------------------------------- #
# Warm executor: byte-identity across reuse, merged metrics included    #
# --------------------------------------------------------------------- #


def _serial_reference(configs):
    """Serial measurements plus the serial run's metric snapshot."""
    recorder = MetricsRecorder()
    with obs.use_recorder(recorder):
        serial = [
            run_comparison_repetition(config, rep)
            for config in configs
            for rep in range(2)
        ]
    return serial, recorder.snapshot()


def _merged_snapshot(outcomes):
    """Fold worker snapshots in submission order, as the sweep drivers do."""
    recorder = MetricsRecorder()
    with obs.use_recorder(recorder):
        for outcome in outcomes:
            obs.merge_snapshot(outcome.metrics, outcome.profile)
    return recorder.snapshot()


class TestWarmExecutorDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_context_entered_executor_is_byte_identical(self, workers):
        """A reused warm pool changes wall-clock and nothing else.

        Two sweep points (different configs) and two consecutive
        ``run_items`` calls inside one ``with`` block: the second call
        reuses the pool the first one spawned.  On both passes every
        measurement, every post-run RNG stream position and the merged
        metric snapshot must equal the serial reference.
        """
        configs = (tiny_config(), tiny_config(p_t=0.2))
        serial, serial_snapshot = _serial_reference(configs)
        items = [
            SweepWorkItem(index, rep, config, collect_metrics=True)
            for index, config in enumerate(configs)
            for rep in range(2)
        ]
        with ParallelSweepExecutor(workers) as executor:
            passes = [executor.run_items(items), executor.run_items(items)]
        for outcomes in passes:
            assert [o.measurement for o in outcomes] == serial
            assert [o.measurement.rng_positions for o in outcomes] == [
                m.rng_positions for m in serial
            ]
            assert [(o.point_index, o.repetition) for o in outcomes] == [
                (item.point_index, item.repetition) for item in items
            ]
            assert _merged_snapshot(outcomes) == serial_snapshot

    def test_unentered_multi_worker_executor_raises(self):
        items = [SweepWorkItem(0, 0, tiny_config())]
        executor = ParallelSweepExecutor(2)
        with pytest.raises(RuntimeError, match="with"):
            executor.run_items(items)
        with executor:
            executor.run_items(items)
        # Leaving the block closed the pool; nothing reopens it silently.
        with pytest.raises(RuntimeError, match="with"):
            executor.run_items(items)

    def test_reentering_executor_raises(self):
        executor = ParallelSweepExecutor(2)
        with executor:
            with pytest.raises(RuntimeError):
                executor.__enter__()


# --------------------------------------------------------------------- #
# Frozen-slot fast-forward: on == off, bit for bit                      #
# --------------------------------------------------------------------- #


class TestFastForwardEquivalence:
    """``fast_forward=True`` must be invisible everywhere but wall-clock.

    Each case runs one collection twice over the same deployment — plain
    loop, then fast-forwarded — and requires the identical
    ``SimulationResult`` *and* identical post-run RNG stream positions:
    every skipped slot consumed exactly the draws the ordinary loop would
    have consumed.
    """

    def _pair(self, run, activity=None, config=None, **kwargs):
        config = config or tiny_config()
        topology = deploy_crn(
            config.deployment_spec(),
            StreamFactory(config.seed).spawn("rep-0"),
            activity=activity,
        )

        def go(fast_forward):
            streams = StreamFactory(config.seed).spawn("rep-0").spawn("algo")
            return run(
                topology, streams, fast_forward=fast_forward, **kwargs
            )

        return go(False), go(True)

    def _assert_identical(self, off, on):
        assert on.result == off.result
        assert on.engine.rng_positions() == off.engine.rng_positions()
        assert off.engine.fastforward_slots == 0

    def test_addc_geometric_bernoulli(self):
        off, on = self._pair(run_addc_collection, with_bounds=False)
        self._assert_identical(off, on)
        # The tiny scenario is dominated by frozen spectrum waits, so the
        # fast path must actually engage here — equality alone would also
        # hold for a fast-forward that never fires.
        assert on.engine.fastforward_slots > 0

    def test_addc_homogeneous_blocking(self):
        off, on = self._pair(
            run_addc_collection, with_bounds=False, blocking="homogeneous"
        )
        self._assert_identical(off, on)

    def test_addc_markov_activity(self):
        off, on = self._pair(
            run_addc_collection,
            with_bounds=False,
            activity=MarkovActivity(0.3, burstiness=4.0),
        )
        self._assert_identical(off, on)

    def test_addc_imperfect_sensing(self):
        off, on = self._pair(
            run_addc_collection,
            with_bounds=False,
            p_false_alarm=0.05,
            p_missed_detection=0.1,
        )
        self._assert_identical(off, on)

    def test_coolest_baseline(self):
        off, on = self._pair(run_coolest_collection)
        self._assert_identical(off, on)

    def test_addc_homogeneous_false_alarm(self):
        off, on = self._pair(
            run_addc_collection,
            with_bounds=False,
            blocking="homogeneous",
            p_false_alarm=0.05,
        )
        self._assert_identical(off, on)
        assert on.engine.fastforward_slots > 0

    def test_fault_windows_bound_the_horizon(self):
        from repro.faults import FaultEvent, FaultPlan

        # Link-degradation and blackout windows leave every node able to
        # contend, so the look-ahead keeps running but must stop at each
        # onset and expiry slot.
        plan = FaultPlan.from_events(
            [
                FaultEvent.link_degradation(
                    slot=9, node=3, peer=0, until=61, extra_loss_db=6.0
                ),
                FaultEvent.bs_blackout(slot=40, until=47),
                FaultEvent.link_degradation(
                    slot=120, node=5, peer=0, until=400, extra_loss_db=3.0
                ),
            ]
        )
        off, on = self._pair(
            run_addc_collection, with_bounds=False, fault_plan=plan
        )
        self._assert_identical(off, on)
        assert on.engine.fastforward_slots > 0
        assert on.result.fault_event_count == len(plan)

    def test_continuous_arrivals(self):
        off, on = self._pair(
            run_addc_collection, with_bounds=False, rounds=3, period_slots=150
        )
        self._assert_identical(off, on)
        assert on.engine.fastforward_slots > 0

    @staticmethod
    def _record_scans(monkeypatch):
        """Wrap the look-ahead; returns the list it appends one dict per
        call to: the slots it started and ended at, whether the slot
        before put something on the air, whether a fairness carry-over
        was pending, and whether it stopped on a hold-off expiry."""
        from repro.sim.engine import SlottedEngine

        scans = []
        original = SlottedEngine._try_fast_forward

        def recording(engine):
            start = engine.slot
            after_tx = bool(engine.last_slot_su_links)
            carry = bool(engine._extra_wait.any())
            original(engine)
            ends = engine._hold_until_slot[engine._active_mask]
            scans.append({
                "start": start,
                "end": engine.slot,
                "after_tx": after_tx,
                "carry": carry,
                "at_hold_off_end": engine.slot > start
                and bool((ends == engine.slot).any()),
            })

        monkeypatch.setattr(SlottedEngine, "_try_fast_forward", recording)
        return scans

    @staticmethod
    def _skipping(scans, key):
        return [s for s in scans if s[key] and s["end"] > s["start"]]

    def test_scan_right_after_a_fairness_wait(self, monkeypatch):
        # ADDC's fairness wait (Algorithm 1, line 12) leaves the last
        # transmitter a nonzero carry-over; the look-ahead may start in
        # the very next slot, because a frozen slot never reads it and
        # the bulk update zeroes it as each skipped slot's end would.
        # The denser field makes neighbours contend in the same slot, so
        # a carry-over the skip failed to zero would reorder them.
        scans = self._record_scans(monkeypatch)
        off, on = self._pair(
            run_addc_collection,
            config=tiny_config(num_sus=50, num_pus=6),
            with_bounds=False,
            blocking="homogeneous",
        )
        self._assert_identical(off, on)
        assert on.engine.fastforward_slots > 0
        assert self._skipping(scans, "carry")
        assert self._skipping(scans, "after_tx")

    def test_scan_after_collisions_stops_at_hold_off_ends(self, monkeypatch):
        # Coolest senses at its transmission radius, so hidden terminals
        # collide; on a denser tiny field collisions are frequent and the
        # footnote-2 hold-offs bound the look-ahead's horizon.
        scans = self._record_scans(monkeypatch)
        off, on = self._pair(
            run_coolest_collection,
            config=tiny_config(num_sus=30, area=25.0 * 25.0),
        )
        self._assert_identical(off, on)
        assert on.result.collisions >= 10
        assert on.engine.fastforward_slots > 0
        assert self._skipping(scans, "after_tx")
        assert self._skipping(scans, "at_hold_off_end")

    def test_scan_after_a_transmission_with_false_alarms(self, monkeypatch):
        scans = self._record_scans(monkeypatch)
        off, on = self._pair(
            run_addc_collection,
            with_bounds=False,
            blocking="homogeneous",
            p_false_alarm=0.05,
        )
        self._assert_identical(off, on)
        assert on.engine.fastforward_slots > 0
        assert self._skipping(scans, "after_tx")

    def test_truncated_inside_a_frozen_run(self, monkeypatch):
        # Record every fast-forward skip of an untruncated run, then cut a
        # run off in the middle of the longest one: the fast path stops
        # exactly at max_slots and must leave the streams where the plain
        # loop does.
        from repro.sim.engine import SlottedEngine

        skips = []
        original = SlottedEngine._try_fast_forward

        def recording(engine):
            before = engine.slot
            original(engine)
            if engine.slot > before:
                skips.append((before, engine.slot))

        monkeypatch.setattr(SlottedEngine, "_try_fast_forward", recording)
        self._pair(run_addc_collection, with_bounds=False)
        monkeypatch.undo()
        start, end = max(skips, key=lambda skip: skip[1] - skip[0])
        assert end - start >= 4
        cut = start + (end - start) // 2
        off, on = self._pair(
            run_addc_collection, with_bounds=False, max_slots=cut
        )
        self._assert_identical(off, on)
        assert not on.result.completed
        assert on.result.slots_simulated == cut


class TestBatchDrawEquivalence:
    """``next_states_batch`` must consume the stream like N serial calls."""

    @pytest.mark.parametrize(
        "model",
        [BernoulliActivity(0.3), MarkovActivity(0.3, burstiness=4.0)],
        ids=["bernoulli", "markov"],
    )
    def test_batch_rows_equal_sequential_calls(self, model):
        count, n = 17, 6
        serial_rng = StreamFactory(5).stream("activity")
        batch_rng = StreamFactory(5).stream("activity")
        states = model.initial_states(n, serial_rng)
        model.initial_states(n, batch_rng)  # keep the streams aligned
        expected = []
        current = states
        for _ in range(count):
            current = model.next_states(current, serial_rng)
            expected.append(current)
        rows = model.next_states_batch(states, batch_rng.random((count, n)))
        np.testing.assert_array_equal(rows, np.array(expected))
        # One (count, n) fill left the generator exactly where count
        # sequential next_states calls left the serial one.
        np.testing.assert_array_equal(
            serial_rng.random(4), batch_rng.random(4)
        )
