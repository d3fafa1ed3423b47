"""``repro.perf`` — warm parallel sweep execution and benchmarks.

Both halves are pinned bit-identical to the serial/scalar code paths:

* :mod:`repro.perf.executor` — (sweep point × repetition) work items
  fanned one by one over a warm ``spawn`` process pool
  (:mod:`repro.perf.pool`) that spawns once per executor (or daemon)
  lifetime.  Workers re-derive their named RNG streams — deployment
  included — from the picklable ``(config, repetition)`` pair, so the
  gathered results are byte-identical to serial order for any worker
  count and completion order.
* :mod:`repro.perf.reference` — the original scalar (dict-of-buckets)
  ``GridIndex`` kept as an executable specification; the property tests
  and ``addc-repro perf bench`` check the vectorized CSR index against
  it exactly.

``addc-repro perf bench`` (:mod:`repro.perf.bench`) measures serial vs
cold vs warm parallel, scalar vs vectorized, and fast-forward on vs off
on the same machine in the same run, via the :mod:`repro.obs` clock
facade, and writes ``BENCH_perf.json``.
"""

from repro.perf.executor import (
    ParallelSweepExecutor,
    RepetitionOutcome,
    SweepWorkItem,
    execute_work_item,
)
from repro.perf.pool import WarmWorkerPool
from repro.perf.reference import ScalarGridIndex

__all__ = [
    "ParallelSweepExecutor",
    "RepetitionOutcome",
    "SweepWorkItem",
    "execute_work_item",
    "WarmWorkerPool",
    "ScalarGridIndex",
]
