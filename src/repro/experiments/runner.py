"""Repetition-averaged ADDC vs Coolest comparison runs.

Each repetition deploys a fresh CRN (fresh placements and fresh activity
randomness, like the paper's "each group of simulations is repeated for 10
times and the results are the average values") and runs both algorithms on
*the same deployment*, which removes placement variance from the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

import repro.obs as obs
from repro.core.collector import run_addc_collection
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.obs.progress import Heartbeat
from repro.metrics.aggregate import (
    RunStatistics,
    relative_delay_reduction_percent,
    summarize_delays,
)
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection

__all__ = [
    "ComparisonPoint",
    "RepetitionMeasurement",
    "deploy_for_repetition",
    "run_comparison_repetition",
    "assemble_comparison_point",
    "run_comparison_point",
    "run_addc_only",
]


@dataclass
class ComparisonPoint:
    """Averaged results of both algorithms for one scenario."""

    config: ExperimentConfig
    addc_delay_ms: RunStatistics
    coolest_delay_ms: RunStatistics
    addc_delays: List[float] = field(default_factory=list)
    coolest_delays: List[float] = field(default_factory=list)
    #: Repetitions dropped by ``on_incomplete="skip"`` (either algorithm
    #: hit max_slots); the averages cover the surviving repetitions only.
    skipped_repetitions: int = 0
    #: Post-run RNG stream position digests per repetition (never
    #: serialized by ``save_sweep``): one ``{"addc": {...}, "coolest":
    #: {...}}`` entry per repetition, including skipped ones.  Lets the
    #: determinism tests assert the parallel executor consumed every
    #: stream exactly as the serial path did.
    rng_positions: List[Dict[str, Dict[str, str]]] = field(default_factory=list)

    @property
    def reduction_percent(self) -> float:
        """The paper's "ADDC induces X% less delay" number."""
        return relative_delay_reduction_percent(
            self.addc_delay_ms.mean, self.coolest_delay_ms.mean
        )

    @property
    def speedup(self) -> float:
        """Coolest delay divided by ADDC delay."""
        return self.coolest_delay_ms.mean / self.addc_delay_ms.mean

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the ADDC-vs-Coolest gap survives Welch's t-test.

        Returns ``False`` when fewer than two repetitions are available
        (no variance estimate, nothing to test).
        """
        if len(self.addc_delays) < 2 or len(self.coolest_delays) < 2:
            return False
        from repro.metrics.stats import comparison_significant

        is_significant, _ = comparison_significant(
            self.addc_delays, self.coolest_delays, alpha=alpha
        )
        return is_significant


def _require_complete(delay_ms: Optional[float], label: str, rep: int) -> float:
    if delay_ms is None:
        raise SimulationError(
            f"{label} run (repetition {rep}) hit max_slots before completing; "
            "raise max_slots or shrink the scenario"
        )
    return delay_ms


@dataclass
class RepetitionMeasurement:
    """One repetition's results, in a picklable parallel-safe form."""

    repetition: int
    addc_delay_ms: Optional[float]
    coolest_delay_ms: Optional[float]
    #: Post-run RNG stream position digests per algorithm
    #: (``{"addc": {...}, "coolest": {...}}``).
    rng_positions: Dict[str, Dict[str, str]] = field(default_factory=dict)


def deploy_for_repetition(
    config: ExperimentConfig, repetition: int
) -> "CrnTopology":
    """Deploy the exact CRN that repetition ``repetition`` would deploy.

    Re-derives the repetition's stream factory from ``(seed, repetition)``
    and runs the normal placement path, so the returned topology is
    byte-identical to the one :func:`run_comparison_repetition` builds
    itself — for callers that want to time or reuse one repetition's
    deployment on its own.
    """
    factory = StreamFactory(config.seed).spawn(f"rep-{repetition}")
    return deploy_crn(config.deployment_spec(), factory)


def run_comparison_repetition(
    config: ExperimentConfig, repetition: int
) -> RepetitionMeasurement:
    """Run one repetition of the ADDC-vs-Coolest comparison.

    Top-level by design: parallel sweep workers import and call this
    under the ``spawn`` start method, re-deriving the repetition's whole
    RNG lineage (``StreamFactory(seed).spawn(f"rep-{i}")``) from nothing
    but the picklable ``(config, repetition)`` pair — which is what makes
    parallel results byte-identical to serial order.
    """
    root = StreamFactory(config.seed)
    with obs.span("sweep.repetition"):
        factory = root.spawn(f"rep-{repetition}")
        topology = deploy_crn(config.deployment_spec(), factory)
        addc = run_addc_collection(
            topology,
            factory.spawn("addc"),
            eta_p_db=config.eta_p_db,
            eta_s_db=config.eta_s_db,
            alpha=config.alpha,
            zeta_bound=config.zeta_bound,
            blocking=config.blocking,
            max_slots=config.max_slots,
            contention_window_ms=config.contention_window_ms,
            slot_duration_ms=config.slot_duration_ms,
            with_bounds=False,
        )
        coolest = run_coolest_collection(
            topology,
            factory.spawn("coolest"),
            eta_p_db=config.eta_p_db,
            eta_s_db=config.eta_s_db,
            alpha=config.alpha,
            zeta_bound=config.zeta_bound,
            blocking=config.blocking,
            max_slots=config.max_slots,
            contention_window_ms=config.contention_window_ms,
            slot_duration_ms=config.slot_duration_ms,
        )
    positions = {}
    if addc.engine is not None:
        positions["addc"] = addc.engine.rng_positions()
    if coolest.engine is not None:
        positions["coolest"] = coolest.engine.rng_positions()
    return RepetitionMeasurement(
        repetition=repetition,
        addc_delay_ms=addc.result.delay_ms,
        coolest_delay_ms=coolest.result.delay_ms,
        rng_positions=positions,
    )


def assemble_comparison_point(
    config: ExperimentConfig,
    measurements: Iterable[RepetitionMeasurement],
    on_incomplete: str = "raise",
) -> ComparisonPoint:
    """Fold repetition measurements into one :class:`ComparisonPoint`.

    Accepts any iterable and consumes it lazily, so a serial caller can
    pass a generator and keep ``on_incomplete="raise"``'s early-abort
    behaviour, while the parallel path passes the gathered (repetition-
    ordered) list.  The accounting here is the single source of truth for
    skip/raise semantics — serial and parallel cannot drift.
    """
    if on_incomplete not in ("raise", "skip"):
        raise ConfigurationError(
            f"on_incomplete must be 'raise' or 'skip', got {on_incomplete!r}"
        )
    addc_delays: List[float] = []
    coolest_delays: List[float] = []
    rng_positions: List[Dict[str, Dict[str, str]]] = []
    skipped = 0
    total = 0
    for measurement in measurements:
        total += 1
        rng_positions.append(measurement.rng_positions)
        if on_incomplete == "skip" and (
            measurement.addc_delay_ms is None
            or measurement.coolest_delay_ms is None
        ):
            skipped += 1
            obs.counter_add("sweep.repetitions_skipped")
            continue
        addc_delays.append(
            _require_complete(
                measurement.addc_delay_ms, "ADDC", measurement.repetition
            )
        )
        coolest_delays.append(
            _require_complete(
                measurement.coolest_delay_ms, "Coolest", measurement.repetition
            )
        )
    if not addc_delays:
        raise SimulationError(
            f"all {total} repetitions hit max_slots before completing; "
            "raise max_slots or shrink the scenario"
        )
    return ComparisonPoint(
        config=config,
        addc_delay_ms=summarize_delays(addc_delays),
        coolest_delay_ms=summarize_delays(coolest_delays),
        addc_delays=addc_delays,
        coolest_delays=coolest_delays,
        skipped_repetitions=skipped,
        rng_positions=rng_positions,
    )


def _measure_serial(
    config: ExperimentConfig, reps: int, progress: Optional[Heartbeat]
) -> Iterator[RepetitionMeasurement]:
    for rep in range(reps):
        measurement = run_comparison_repetition(config, rep)
        obs.counter_add("sweep.repetitions")
        if progress is not None:
            progress.tick()
        yield measurement


def _measure_parallel(
    config: ExperimentConfig,
    reps: int,
    workers: int,
    progress: Optional[Heartbeat],
) -> Iterator[RepetitionMeasurement]:
    from repro.perf.executor import ParallelSweepExecutor, SweepWorkItem

    collect = obs.enabled()
    items = [
        SweepWorkItem(
            point_index=0, repetition=rep, config=config, collect_metrics=collect
        )
        for rep in range(reps)
    ]
    with ParallelSweepExecutor(workers) as executor:
        for outcome in executor.run_items(items):
            if outcome.metrics is not None:
                obs.merge_snapshot(outcome.metrics, outcome.profile)
            obs.counter_add("sweep.repetitions")
            if progress is not None:
                progress.tick()
            yield outcome.measurement


def run_comparison_point(
    config: ExperimentConfig,
    repetitions: Optional[int] = None,
    on_incomplete: str = "raise",
    progress: Optional[Heartbeat] = None,
    workers: int = 1,
    checkpoint_path=None,
    resume: bool = False,
    policy=None,
    allow_partial: bool = False,
) -> ComparisonPoint:
    """Run ADDC and Coolest over ``repetitions`` fresh deployments.

    ``on_incomplete`` decides what an incomplete repetition (either
    algorithm hitting ``max_slots``) does: ``"raise"`` (default) aborts
    the point with a :class:`SimulationError`; ``"skip"`` drops that
    repetition from the averages and counts it in
    :attr:`ComparisonPoint.skipped_repetitions` — the right behaviour for
    long sweep drivers, where one pathological deployment should cost one
    data point's precision, not the whole overnight sweep.

    ``progress`` (a :class:`~repro.obs.Heartbeat`) gets one tick per
    completed repetition; it is purely an output device and never affects
    the run.

    ``workers`` > 1 fans the repetitions out over a
    :class:`~repro.perf.executor.ParallelSweepExecutor` process pool;
    each worker re-derives its RNG streams from ``(seed, repetition)``,
    so the result is bit-identical to the serial default (``workers=1``)
    for any worker count and completion order.

    ``checkpoint_path`` / ``resume`` / ``policy`` route the run through
    the crash-safe harness (:func:`repro.harness.run_checkpointed_sweep`):
    every repetition is journalled durably, workers are supervised with
    the given :class:`~repro.harness.RetryPolicy`, and a killed run
    resumes bit-identically.  If repetitions were quarantined the point
    is assembled from the survivors only when ``allow_partial=True``;
    otherwise a :class:`~repro.errors.PartialSweepError` is raised.
    """
    reps = repetitions if repetitions is not None else config.repetitions
    if checkpoint_path is not None or policy is not None:
        from repro.errors import PartialSweepError
        from repro.harness import run_checkpointed_sweep

        result = run_checkpointed_sweep(
            "comparison",
            [(0.0, config)],
            repetitions=reps,
            on_incomplete=on_incomplete,
            checkpoint_path=checkpoint_path,
            resume=resume,
            workers=workers,
            policy=policy,
            progress=progress,
        )
        if result.status != "complete" and not allow_partial:
            failed = "; ".join(
                record.describe() for record in result.failures
            )
            raise PartialSweepError(
                "comparison point is partial (quarantined repetitions: "
                f"{failed}); pass allow_partial=True to accept it"
            )
        if not result.points:
            raise SimulationError(
                "every repetition of the comparison point was quarantined; "
                "see the checkpoint journal's failure records"
            )
        return result.points[0][1]
    if workers > 1:
        measurements = _measure_parallel(config, reps, workers, progress)
    else:
        measurements = _measure_serial(config, reps, progress)
    return assemble_comparison_point(config, measurements, on_incomplete)


def run_addc_only(
    config: ExperimentConfig,
    repetitions: Optional[int] = None,
    fairness_wait: bool = True,
    use_cds_tree: bool = True,
    zeta_bound: Optional[str] = None,
) -> RunStatistics:
    """Repetition-averaged ADDC delay with ablation switches.

    Used by the ablation benchmarks (fairness wait, zeta bound, routing
    structure); returns the delay statistics in milliseconds.
    """
    reps = repetitions if repetitions is not None else config.repetitions
    delays: List[float] = []
    root = StreamFactory(config.seed)
    for rep in range(reps):
        with obs.span("sweep.repetition"):
            factory = root.spawn(f"rep-{rep}")
            topology = deploy_crn(config.deployment_spec(), factory)
            outcome = run_addc_collection(
                topology,
                factory.spawn("addc"),
                eta_p_db=config.eta_p_db,
                eta_s_db=config.eta_s_db,
                alpha=config.alpha,
                zeta_bound=(
                    zeta_bound if zeta_bound is not None else config.zeta_bound
                ),
                fairness_wait=fairness_wait,
                use_cds_tree=use_cds_tree,
                blocking=config.blocking,
                max_slots=config.max_slots,
                contention_window_ms=config.contention_window_ms,
                slot_duration_ms=config.slot_duration_ms,
                with_bounds=False,
            )
        obs.counter_add("sweep.repetitions")
        delays.append(_require_complete(outcome.result.delay_ms, "ADDC", rep))
    return summarize_delays(delays)
