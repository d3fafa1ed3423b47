"""The repository benchmark: the paper-scale Fig. 6 repetition, the
experiment service under a hit/miss mix, and the stepped multi-channel +
fault engine path.

Run from the repository root::

    python3 perfbench/run.py --workload paper-point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it are a human-readable table and the run's deterministic work counters.
Exit code 0 means every output check passed, 1 that one failed, 2 that
the benchmark could not run (e.g. no ``src/repro`` beside it).

See ``perfbench/METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from typing import Callable, Dict, List, Tuple

from common import (
    BENCH_DIR,
    SETUPS_PER_RUN,
    SRC,
    CheckFailure,
    CounterLedger,
    code_digest,
    import_program,
    load_pins,
    median,
    metric,
    peak_rss_mb,
    run_dir,
    tree_peak_rss_mb,
)
from hostspeed import HostProbe

WORKLOADS = ("paper-point", "service-mix", "engine-features")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("rep_s", "s"),
    ("sim_slots_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Layers that get a ``<layer>.self_s`` figure in the traced run.
LAYERS = ("network", "graphs", "spectrum", "routing", "core", "sim", "faults",
          "harness", "service")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("network.deploy_s", "s"),
    ("graphs.tree_s", "s"),
    ("graphs.dijkstra_s", "s"),
    ("spectrum.sense_map_s", "s"),
    ("spectrum.temperatures_s", "s"),
    ("sim.addc_run_s", "s"),
    ("sim.coolest_run_s", "s"),
    ("sim.run_s", "s"),
    ("sim.us_per_stepped_slot", "us"),
    ("sim.slots", "count"),
    ("sim.ff_slots", "count"),
    ("sim.ff_fraction", "ratio"),
    ("sim.slots_per_s", "1/s"),
    ("sim.phase.pu_redraw_s", "s"),
    ("sim.phase.sensing_s", "s"),
    ("sim.phase.backoff_s", "s"),
    ("sim.phase.adjudicate_s", "s"),
    ("sim.phase.deliver_s", "s"),
    ("sim.phase.frozen_wait_s", "s"),
    ("sim.unattributed_s", "s"),
    ("sim.tx_attempts", "count"),
    ("sim.collisions", "count"),
    ("sim.collision_ratio", "ratio"),
    ("faults.plan_s", "s"),
    ("faults.events", "count"),
    ("perf.dispatch_overhead_s", "s"),
    ("perf.batch_pickle_bytes", "bytes"),
    ("perf.pool_spawn_s", "s"),
    ("harness.journal_records", "count"),
    ("harness.journal_bytes", "bytes"),
    ("obs.trace_shard_bytes", "bytes"),
    ("storage.bytes_per_job", "bytes"),
    ("storage.files_per_job", "count"),
    ("service.accept_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.overhead_s", "s"),
    ("service.hit_ratio", "ratio"),
    ("service.retry_after", "count"),
    ("service.miss_latency_p50_s", "s"),
    ("service.miss_latency_tail_s", "s"),
    ("service.hit_latency_p50_ms", "ms"),
    ("service.hit_latency_tail_ms", "ms"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("obs.unattributed_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.layer_coverage", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---- workloads ---------------------------------------------------------- #


def timed_setups(probe: HostProbe, setup: Callable[[], Tuple[float, float]]) -> List[float]:
    """:data:`SETUPS_PER_RUN` set-ups, each a fresh import of the program
    plus the workload's ``setup``, in seconds at reference host speed."""
    return [probe.reference_seconds(*import_program()) + probe.reference_seconds(*setup())
            for _ in range(SETUPS_PER_RUN)]


def run_engine(name: str, args, pins: Dict, ledger) -> Dict:
    from engine_workloads import EngineCapture, EngineWorkload, host_figures, summarize
    from spans import Tracer

    workload = EngineWorkload(name, pins, ledger)
    workload.capture = EngineCapture()
    probe = HostProbe()
    try:
        if args.trace:
            workload.setup()
            tracer = Tracer()
            values = workload.traced(tracer)
            tracer.dump(run_dir() / f"spans-{name}-{args.seed}.ndjson")
            return {"attempted": 2, "failed": 0, "layer": values,
                    "counters": work_counters(values), "samples": {}}
        with probe:
            setups = timed_setups(probe, workload.setup)
            run = workload.measure(args.seconds, probe)
    finally:
        workload.capture.restore()
    records = workload.capture.records
    counters = {
        "sim.slots": sum(r["slots"] for r in records),
        "sim.ff_slots": sum(r["ff_slots"] for r in records),
        "sim.tx_attempts": sum(r["tx_attempts"] for r in records),
        "sim.collisions": sum(r["collisions"] for r in records),
        "faults.events": sum(r["fault_events"] for r in records),
    }
    result = {"attempted": run["attempted"], "failed": run["failed"],
              "errors": run["errors"], "counters": counters,
              "samples": {"setup_s": SETUPS_PER_RUN, "rep_s": len(run["walls"]),
                          "sim_slots_per_s": len(run["walls"]),
                          "jobs_per_s": len(run["walls"]), "peak_rss_mb": 1}}
    if run["walls"]:
        result["e2e"] = {"setup_s": median(setups), **summarize(run),
                         "peak_rss_mb": peak_rss_mb()}
        result["figures"] = host_figures(run)
    return result


def run_service(args, pins: Dict, ledger) -> Dict:
    from service_mix import ServiceMix, pool_payload_bytes, spec_for
    from spans import Tracer

    mix = ServiceMix(args.seed, pins, ledger, run_dir())
    probe = HostProbe()
    try:
        if args.trace:
            mix.setup()
            untraced = mix.measure(args.seconds / 2, mix.blocks)
            tracer = Tracer()
            traced = mix.measure(args.seconds / 2, mix.blocks[untraced["blocks_used"]:], tracer)
            runs = [untraced, traced]
        else:
            with probe:
                setups = timed_setups(probe, mix.setup)
                runs = [mix.measure(args.seconds, mix.blocks)]
        daemon_rss_mb = tree_peak_rss_mb(mix.daemon.process.pid)
        stats = {}
        for run in runs:
            stats.update(mix.account(run))
    finally:
        mix.close()
    pickle_bytes = pool_payload_bytes(spec_for(mix.blocks[0][0][1]), run_dir() / "payload")
    if not ledger.check("service-mix/payload", {"perf.batch_pickle_bytes": pickle_bytes}):
        raise CheckFailure(ledger.mismatches[-1])
    run = runs[0]
    figures = mix.service_figures(run) if run["misses"] and run["hit_latencies"] else {}
    if not ledger.check("service-mix/mix", {"service.hit_ratio": figures.get("service.hit_ratio")}):
        raise CheckFailure(ledger.mismatches[-1])
    counters = {
        "perf.batch_pickle_bytes": pickle_bytes,
        "service.hit_ratio": figures.get("service.hit_ratio"),
        "harness.journal_records": sum(s["journal_records"] for s in stats.values()),
        "sim.slots": sum(s["slots"] for s in stats.values()),
        "sim.ff_slots": sum(s["ff_slots"] for s in stats.values()),
        "sim.tx_attempts": sum(s["tx_attempts"] for s in stats.values()),
        "sim.collisions": sum(s["collisions"] for s in stats.values()),
    }
    result = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "counters": counters,
        "figures": figures,
        "samples": {"setup_s": SETUPS_PER_RUN, "rep_s": len(run["misses"]),
                    "sim_slots_per_s": len(run["misses"]),
                    "jobs_per_s": len(run["misses"]) + len(run["hit_latencies"]),
                    "peak_rss_mb": 1},
    }
    if args.trace:
        values = mix.layer_metrics(tracer, traced, untraced, stats)
        values.update(figures)
        values["perf.batch_pickle_bytes"] = pickle_bytes
        tracer.dump(run_dir() / f"spans-service-mix-{args.seed}.ndjson")
        result["layer"] = values
    elif run["misses"]:
        slowdown = probe.slowdown(run["started"], run["ended"]) or 1.0
        result["e2e"] = {"setup_s": median(setups), **mix.summarize(run, slowdown),
                         "peak_rss_mb": peak_rss_mb() + daemon_rss_mb}
        figures["host.slowdown"] = slowdown
    return result


def work_counters(values: Dict[str, float]) -> Dict[str, float]:
    names = ("sim.slots", "sim.ff_slots", "sim.tx_attempts", "sim.collisions", "faults.events")
    return {name: values.get(name, 0) for name in names}


# ---- reporting ------------------------------------------------------------ #


def build_metrics(result: Dict, trace: bool) -> Dict[str, Dict]:
    if trace:
        values = result.get("layer", {})
        return {name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER}
    if "e2e" not in result:
        return {}
    return {name: metric(result["e2e"][name], unit) for name, unit in END_TO_END}


def print_table(workload: str, result: Dict, metrics: Dict[str, Dict]) -> None:
    samples = result.get("samples", {})
    print(f"== {workload}")
    for name, entry in metrics.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<30} {entry['value']:>14.6g} {entry['unit']}{suffix}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<30} {failed / max(attempted, 1):>14.6g} ({failed}/{attempted})")
    for name, value in sorted(result.get("figures", {}).items()):
        if name not in metrics:
            print(f"  {name:<30} {value:>14.6g}")
    print("counters " + json.dumps(result.get("counters", {}), sort_keys=True))
    for error in result.get("errors", []):
        print(f"  FAILED: {error}")


def run_all(args) -> int:
    """Every workload in its own process, one table each."""
    status = 0
    combined: Dict[str, Dict] = {}
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for workload in WORKLOADS:
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, completed.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            return max(status, 2)
        totals["correct"] = totals["correct"] and last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for name, entry in last["metrics"].items():
            combined[f"{workload}/{name}"] = entry
    print(json.dumps({**totals, "metrics": combined}, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import repro.core.collector  # noqa: F401
        import repro.experiments.runner  # noqa: F401
        import repro.service.client  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    pins = load_pins()
    ledger = CounterLedger(run_dir(), code_digest())
    try:
        if args.workload == "service-mix":
            result = run_service(args, pins, ledger)
        else:
            result = run_engine(args.workload, args, pins, ledger)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run, not a crash
        traceback.print_exc()
        result = {"attempted": 1, "failed": 1, "errors": [f"{type(exc).__name__}: {exc}"]}
    ledger.save()
    metrics = build_metrics(result, bool(args.trace))
    correct = result["failed"] == 0 and bool(metrics)
    print_table(args.workload, result, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
