"""Process-parallel sweep execution with bit-identity guarantees.

The sweep drivers repeat every scenario over independent deployments
("each group of simulations is repeated for 10 times and the results are
the average values"), and repetitions share no state: each one derives
its whole RNG lineage from ``StreamFactory(config.seed).spawn(f"rep-{i}")``.
That makes (sweep point × repetition) the natural unit of parallelism —
a worker process can re-derive the exact same streams from nothing but
the picklable :class:`SweepWorkItem`, so fanning out changes wall-clock
and nothing else.

The executor is a **context manager** with one lifecycle and one
transport: entering it starts one :class:`~repro.perf.pool.
WarmWorkerPool`, every ``run_items`` call inside the ``with`` block
submits :func:`execute_work_item` once per item to that pool, and
leaving the block closes it.  The checkpoint harness and the service
daemon submit the very same entry point through
:class:`~repro.harness.supervisor.WorkerSupervisor`.

Determinism contract
--------------------
* Workers are started with the ``spawn`` method (fresh interpreters; no
  fork-time RNG or import-state inheritance).
* Work item payloads are plain picklable data; the worker entry point
  :func:`execute_work_item` is a **top-level module function** (enforced
  by reprolint rule PERF001) so it pickles under ``spawn``.
* Results are gathered in **submission order**, never completion order,
  and metric snapshots are merged in that same order — the parent-side
  registry is reproducible even though worker finish times are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    RepetitionMeasurement,
    run_comparison_repetition,
)
from repro.obs.tracing import (
    TraceContext,
    build_repetition_spans,
    shard_filename,
    write_shard,
)
from repro.perf.pool import WarmWorkerPool

__all__ = [
    "SweepWorkItem",
    "RepetitionOutcome",
    "execute_work_item",
    "ParallelSweepExecutor",
]


@dataclass(frozen=True)
class SweepWorkItem:
    """One (sweep point × repetition) unit of work, fully picklable."""

    point_index: int
    repetition: int
    config: ExperimentConfig
    #: When true the worker installs a fresh :class:`~repro.obs.
    #: MetricsRecorder` and ships its snapshot/profile back for the
    #: parent to merge (deterministically, in submission order).
    collect_metrics: bool = False
    #: Deterministic trace identity for this job (``trace/v2``); when set
    #: together with ``trace_dir`` and ``collect_metrics``, the worker
    #: writes one span shard per repetition as it completes.
    trace: Optional[TraceContext] = None
    #: Directory receiving ``point-NNNN.rep-NNNN.ndjson`` shards.
    trace_dir: Optional[str] = None


@dataclass
class RepetitionOutcome:
    """What a worker sends back for one repetition of one sweep point."""

    point_index: int
    repetition: int
    measurement: RepetitionMeasurement
    metrics: Optional[Dict] = None
    profile: Optional[Dict] = None


def execute_work_item(item: SweepWorkItem) -> RepetitionOutcome:
    """Run one work item (the worker entry point).

    Top-level by design so it is picklable under the ``spawn`` start
    method; reprolint rule PERF001 keeps it (and any future worker
    functions) that way.  Also runs inline in the parent when
    ``workers=1`` — the serial and parallel paths execute the same code.
    """
    if not item.collect_metrics:
        return RepetitionOutcome(
            point_index=item.point_index,
            repetition=item.repetition,
            measurement=run_comparison_repetition(item.config, item.repetition),
        )
    recorder = obs.MetricsRecorder()
    with obs.use_recorder(recorder):
        measurement = run_comparison_repetition(item.config, item.repetition)
    profile = recorder.profile()
    if item.trace is not None and item.trace_dir is not None:
        # One trace/v2 shard per repetition.  Span identity derives only
        # from the job fingerprint and (point, repetition), so a
        # crashed-and-resumed sweep re-derives identical shards from its
        # journalled profiles.
        spans = build_repetition_spans(
            item.trace, item.point_index, item.repetition, profile
        )
        write_shard(
            Path(item.trace_dir)
            / shard_filename(item.point_index, item.repetition),
            item.trace.trace_id,
            item.point_index,
            item.repetition,
            spans,
        )
    return RepetitionOutcome(
        point_index=item.point_index,
        repetition=item.repetition,
        measurement=measurement,
        metrics=recorder.snapshot(),
        profile=profile,
    )


class ParallelSweepExecutor:
    """Fan sweep work items over one warm ``spawn`` process pool.

    ``workers=1`` executes inline (no pool, no pickling) so the executor
    is the single execution path for both modes.  With more workers the
    executor must be entered; the pool lives exactly as long as the
    ``with`` block, and every ``run_items`` call inside it reuses it::

        with ParallelSweepExecutor(workers=4) as executor:
            for point in sweep:
                outcomes = executor.run_items(point_items)

    Results always come back in submission order.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[WarmWorkerPool] = None
        self._entered = False

    def __enter__(self) -> "ParallelSweepExecutor":
        if self._entered:
            raise RuntimeError("ParallelSweepExecutor already entered")
        self._entered = True
        if self.workers > 1:
            self._pool = WarmWorkerPool(self.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        self._entered = False
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def run_items(
        self, items: Sequence[SweepWorkItem]
    ) -> List[RepetitionOutcome]:
        """Execute every item; returns outcomes in submission order."""
        if self.workers == 1:
            return [execute_work_item(item) for item in items]
        if self._pool is None:
            raise RuntimeError(
                "a multi-worker ParallelSweepExecutor runs items only "
                "inside its `with` block"
            )
        futures = [self._pool.submit(execute_work_item, item) for item in items]
        # Gather strictly in submission order: completion order must not
        # be observable anywhere downstream.
        return [future.result() for future in futures]
