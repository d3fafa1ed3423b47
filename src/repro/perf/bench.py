"""``addc-repro perf bench`` — serial vs cold/warm parallel, fast-forward
on vs off, scalar vs vectorized.

Everything is measured via the :mod:`repro.obs` clock facade on the same
machine in the same run, and every timed comparison is also an equality
check: the parallel executor (cold and warm) must reproduce the serial
measurements byte-for-byte (delays, RNG stream positions, merged metric
counters), the fast-forwarded engine must reproduce the plain engine's
result and stream positions exactly, and the vectorized CSR
:class:`~repro.geometry.GridIndex` must return exactly what the scalar
reference returns.  A benchmark that drifts is a bug, not a data point.

The output (``BENCH_perf.json``) is a ``manifest/v1`` run manifest whose
``extra`` block carries the benchmark numbers, including ``cpu_count`` —
parallel speedups are only meaningful relative to the cores the machine
actually had (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

import repro.obs as obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    RepetitionMeasurement,
    run_comparison_repetition,
)
from repro.geometry import GridIndex
from repro.perf.executor import ParallelSweepExecutor, SweepWorkItem
from repro.perf.reference import ScalarGridIndex
from repro.rng import StreamFactory

__all__ = ["run_perf_bench", "PerfBenchError"]


class PerfBenchError(AssertionError):
    """An equality invariant failed during the benchmark."""


def _measurement_key(measurement: RepetitionMeasurement) -> tuple:
    return (
        measurement.repetition,
        measurement.addc_delay_ms,
        measurement.coolest_delay_ms,
        tuple(sorted(
            (algo, tuple(sorted(positions.items())))
            for algo, positions in measurement.rng_positions.items()
        )),
    )


def _run_parallel_once(
    executor: ParallelSweepExecutor,
    items: List[SweepWorkItem],
    serial: List[RepetitionMeasurement],
    serial_recorder: obs.MetricsRecorder,
    label: str,
) -> float:
    """One timed, equality-checked pass through the executor."""
    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        outcomes = executor.run_items(items)
        for outcome in outcomes:
            obs.merge_snapshot(outcome.metrics, outcome.profile)
    elapsed = obs.monotonic_s() - start
    parallel = [outcome.measurement for outcome in outcomes]
    if list(map(_measurement_key, parallel)) != list(
        map(_measurement_key, serial)
    ):
        raise PerfBenchError(f"{label} measurements diverged from serial")
    if recorder.snapshot() != serial_recorder.snapshot():
        raise PerfBenchError(
            f"merged {label} metric snapshot diverged from the serial one"
        )
    return elapsed


#: Timed runs of each repeated pass; the bench reports min and median.
REPEATS = 3


def _bench_sweep(config: ExperimentConfig, reps: int, workers: int) -> Dict:
    """Time the comparison repetitions serially and through the pool.

    The serial pass runs :data:`REPEATS` times and reports its min
    (``serial_s``) and median; every repeat must reproduce the first
    one's measurements and metric snapshot exactly.  Then two timed
    parallel passes: cold (the first ``run_items`` of a freshly entered
    executor — spawn cost included, what a one-point sweep pays) and
    warm (a second ``run_items`` on the same pool, which is what sweeps
    and the daemon actually pay per point/job).  Every parallel pass is
    equality-checked against serial — measurements, RNG positions, and
    merged metric snapshots — so a drifting kernel fails the bench
    rather than skewing it.
    """

    def serial_pass():
        recorder = obs.MetricsRecorder()
        start = obs.monotonic_s()
        with obs.use_recorder(recorder):
            measurements: List[RepetitionMeasurement] = [
                run_comparison_repetition(config, rep) for rep in range(reps)
            ]
        return obs.monotonic_s() - start, measurements, recorder

    elapsed, serial, serial_recorder = serial_pass()
    serial_timings = [elapsed]
    for _ in range(REPEATS - 1):
        elapsed, measurements, recorder = serial_pass()
        serial_timings.append(elapsed)
        if list(map(_measurement_key, measurements)) != list(
            map(_measurement_key, serial)
        ):
            raise PerfBenchError("a repeated serial pass changed its measurements")
        if recorder.snapshot() != serial_recorder.snapshot():
            raise PerfBenchError(
                "a repeated serial pass changed its metric snapshot"
            )
    serial_s = min(serial_timings)

    items = [
        SweepWorkItem(
            point_index=0, repetition=rep, config=config, collect_metrics=True
        )
        for rep in range(reps)
    ]
    with ParallelSweepExecutor(workers) as executor:
        cold_s = _run_parallel_once(
            executor, items, serial, serial_recorder, "cold"
        )
        warm_s = _run_parallel_once(
            executor, items, serial, serial_recorder, "warm"
        )
    return {
        "repetitions": reps,
        "workers": workers,
        "serial_s": serial_s,
        "serial_median_s": float(np.median(serial_timings)),
        "repeats": REPEATS,
        "parallel_s": cold_s,
        "warm_parallel_s": warm_s,
        "parallel_speedup": serial_s / cold_s if cold_s > 0 else 0.0,
        "warm_parallel_speedup": serial_s / warm_s if warm_s > 0 else 0.0,
        "serial_recorder": serial_recorder,
        "measurements": serial,
    }


def _bench_engine(config: ExperimentConfig) -> Dict:
    """Time one ADDC collection with fast-forward off and on, 3 runs each.

    All runs share one deployment and re-derive identical engine
    streams; every run must reproduce an untimed plain run exactly — the
    full :class:`~repro.sim.results.SimulationResult` *and* the post-run
    RNG stream positions — or the bench fails.  The modes alternate, and
    each reports the min (the headline ``plain_s`` / ``fastforward_s``)
    and the median of its runs (a single run per mode varied by up to 28%
    within one process).  The ratio is a same-machine figure, so the ratchet gates
    it.  The rest are deterministic work counts of the fast-forwarded
    run: ``rng_rows_generated``, the uniform rows its row streams
    generated (about one per logical slot per stream);
    ``stepped_slots``, the slots it stepped rather than skipped;
    ``ff_scans``, its look-aheads; and ``ff_empty_scans``, those that
    skipped nothing.
    """
    from repro.core.collector import run_addc_collection
    from repro.network.deployment import deploy_crn

    topology = deploy_crn(
        config.deployment_spec(), StreamFactory(config.seed).spawn("rep-0")
    )

    def run(fast_forward: bool):
        streams = StreamFactory(config.seed).spawn("rep-0").spawn("addc")
        start = obs.monotonic_s()
        outcome = run_addc_collection(
            topology,
            streams,
            eta_p_db=config.eta_p_db,
            eta_s_db=config.eta_s_db,
            alpha=config.alpha,
            zeta_bound=config.zeta_bound,
            blocking=config.blocking,
            max_slots=config.max_slots,
            fast_forward=fast_forward,
            contention_window_ms=config.contention_window_ms,
            slot_duration_ms=config.slot_duration_ms,
            with_bounds=False,
        )
        return obs.monotonic_s() - start, outcome

    timings: Dict[bool, List[float]] = {False: [], True: []}
    _, off = run(fast_forward=False)  # untimed warm-up and the reference
    for _ in range(REPEATS):
        for fast_forward in (False, True):
            elapsed, outcome = run(fast_forward)
            timings[fast_forward].append(elapsed)
            label = "fast-forward" if fast_forward else "a repeated plain run"
            if outcome.result != off.result:
                raise PerfBenchError(f"{label} changed the simulation result")
            if outcome.engine.rng_positions() != off.engine.rng_positions():
                raise PerfBenchError(f"{label} changed the RNG stream positions")
            if fast_forward:
                on = outcome
    off_s, on_s = min(timings[False]), min(timings[True])
    slots = max(int(on.result.slots_simulated), 1)
    rows = int(on.engine.rng_rows_generated)
    return {
        "slots": slots,
        "repeats": REPEATS,
        "plain_s": off_s,
        "plain_median_s": float(np.median(timings[False])),
        "fastforward_s": on_s,
        "fastforward_median_s": float(np.median(timings[True])),
        "wall_us_per_slot": on_s / slots * 1e6,
        "fastforward_ratio": off_s / on_s if on_s > 0 else 0.0,
        "fastforward_fraction": float(on.engine.fastforward_slots) / slots,
        "rng_rows_generated": rows,
        "rng_rows_per_slot": rows / slots,
        "stepped_slots": slots - int(on.engine.fastforward_slots),
        "ff_scans": int(on.engine.fastforward_scans),
        "ff_empty_scans": int(on.engine.fastforward_empty_scans),
    }


def _bench_spatial(config: ExperimentConfig, loops: int) -> Dict:
    """Time scalar vs vectorized neighbor scans on one deployment-like set.

    Uses the same point counts, region, and radii as ``config`` so the
    numbers reflect what the simulator actually asks of the index.  The
    two loops alternate :data:`REPEATS` times; each reports the min
    (``scalar_s`` / ``vectorized_s``) and median of its timings, and
    every repeat must return exactly what the first scalar loop did.
    """
    side = float(np.sqrt(config.area))
    rng = StreamFactory(config.seed).spawn("perf-bench").stream("spatial")
    su_positions = rng.random((config.num_sus, 2)) * side
    pu_positions = rng.random((max(config.num_pus, 1), 2)) * side
    radius = config.su_radius

    def scan(index_type):
        start = obs.monotonic_s()
        for _ in range(loops):
            index = index_type(su_positions, radius)
            neighbors = index.neighbor_lists(radius)
            cross = index.cross_neighbor_lists(pu_positions, radius)
        return obs.monotonic_s() - start, neighbors, cross

    timings: Dict[str, List[float]] = {"scalar": [], "vectorized": []}
    expected = None
    for _ in range(REPEATS):
        for label, index_type in (
            ("scalar", ScalarGridIndex),
            ("vectorized", GridIndex),
        ):
            elapsed, neighbors, cross = scan(index_type)
            timings[label].append(elapsed)
            if expected is None:
                expected = neighbors, cross
                continue
            if neighbors != expected[0]:
                raise PerfBenchError(
                    f"{label} neighbor_lists diverged from the first scalar loop"
                )
            if cross != expected[1]:
                raise PerfBenchError(
                    f"{label} cross_neighbor_lists diverged from the first "
                    "scalar loop"
                )
    scalar_s, vectorized_s = min(timings["scalar"]), min(timings["vectorized"])
    return {
        "points": int(config.num_sus),
        "cross_points": int(max(config.num_pus, 1)),
        "loops": loops,
        "repeats": REPEATS,
        "scalar_s": scalar_s,
        "scalar_median_s": float(np.median(timings["scalar"])),
        "vectorized_s": vectorized_s,
        "vectorized_median_s": float(np.median(timings["vectorized"])),
        "speedup": scalar_s / vectorized_s if vectorized_s > 0 else 0.0,
    }


def run_perf_bench(
    config: ExperimentConfig,
    workers: int = 4,
    out: str = "BENCH_perf.json",
    smoke: bool = False,
) -> int:
    """Run the performance benchmark; returns a process exit code.

    ``smoke`` shrinks the workload to CI size (two repetitions, two
    workers, one spatial loop) — the equality invariants are asserted
    either way, so the smoke run is a full correctness gate for both the
    parallel executor and the vectorized kernels.
    """
    if smoke:
        config = config.with_overrides(repetitions=2)
        workers = min(workers, 2)
        spatial_loops = 1
    else:
        spatial_loops = 5
    reps = config.repetitions

    total_start = obs.monotonic_s()
    sweep = _bench_sweep(config, reps, workers)
    engine = _bench_engine(config)
    spatial = _bench_spatial(config, spatial_loops)
    wall_time_s = obs.monotonic_s() - total_start

    recorder = sweep.pop("serial_recorder")
    sweep.pop("measurements")
    extra = {
        "benchmark": "perf",
        "cpu_count": os.cpu_count(),
        "sweep": sweep,
        "engine": engine,
        "spatial": spatial,
    }
    manifest = obs.build_manifest(
        seed=config.seed,
        config=config,
        wall_time_s=wall_time_s,
        recorder=recorder,
        extra=extra,
    )
    obs.write_manifest(out, manifest)

    print(
        f"sweep   : {reps} repetition(s) serial {sweep['serial_s']:.2f} s "
        f"(median {sweep['serial_median_s']:.2f}; min of {sweep['repeats']}), "
        f"{workers} worker(s) cold {sweep['parallel_s']:.2f} s "
        f"({sweep['parallel_speedup']:.2f}x) warm "
        f"{sweep['warm_parallel_s']:.2f} s "
        f"({sweep['warm_parallel_speedup']:.2f}x, {os.cpu_count()} cpu)"
    )
    print(
        f"engine  : {engine['slots']} slots plain {engine['plain_s']:.2f} s "
        f"(median {engine['plain_median_s']:.2f}), fast-forward "
        f"{engine['fastforward_s']:.2f} s "
        f"(median {engine['fastforward_median_s']:.2f}; min of "
        f"{engine['repeats']}; {engine['fastforward_ratio']:.2f}x, "
        f"{engine['fastforward_fraction']:.0%} of slots skipped, "
        f"{engine['rng_rows_per_slot']:.3f} rng rows/slot, "
        f"{engine['stepped_slots']} stepped slots, "
        f"{engine['ff_scans']} look-aheads of which "
        f"{engine['ff_empty_scans']} empty)"
    )
    print(
        f"spatial : scalar {spatial['scalar_s']:.3f} s "
        f"(median {spatial['scalar_median_s']:.3f}), vectorized "
        f"{spatial['vectorized_s']:.3f} s "
        f"(median {spatial['vectorized_median_s']:.3f}; min of "
        f"{spatial['repeats']}; {spatial['speedup']:.2f}x, "
        f"{spatial['points']} points x {spatial['loops']} loop(s))"
    )
    print(
        "parallel == serial, fast-forward == plain, vectorized == scalar; "
        f"written to {out}"
    )
    if smoke:
        print("perf smoke OK")
    return 0
