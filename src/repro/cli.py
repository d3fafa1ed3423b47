"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``pcr``        evaluate the Proper Carrier-sensing Range (Eq. 16)
``bounds``     the analytic delay/capacity bounds for a scenario
``collect``    run one ADDC collection and print the outcome
``compare``    ADDC vs Coolest over repeated deployments
``chaos``      one ADDC collection under fault injection (repro.faults);
               ``chaos gate`` runs the full resilience scenario grid,
               evaluates every resilience contract, and ratchets the
               result against ``BENCH_resilience.json`` (exit 1 on a
               contract violation or a gated regression)
``fig4``       regenerate Figure 4 (PCR sweeps)
``fig6``       regenerate one Figure 6 sub-figure (a-f), optionally --save
``scenario``   list or run a named scenario preset
``report``     regenerate the full evaluation record (slow)
``lint``       run reprolint (determinism & paper-invariant checks)
``obs``        observability: ``report`` (render/verify a run manifest),
               ``bench`` (profiled engine baseline -> manifest JSON),
               ``export`` (manifest or live stats -> Prometheus text), and
               ``diff`` (manifest-vs-manifest perf ratchet)
``perf``       performance: ``bench`` (serial vs parallel, scalar vs
               vectorized -> BENCH_perf.json; equality-checked)
``trace``      NDJSON traces: ``export`` (stream a run's events to disk),
               ``stats`` (summarize a trace/v1 or trace/v2 file), and
               ``tree`` (render a job's merged trace/v2 span tree)
``checkpoint`` crash-safe journals: ``inspect`` (summarize) and ``verify``
               (validate)
``serve``      run the fault-tolerant experiment daemon (service/v1 over
               a local AF_UNIX socket; see docs/SERVICE.md)
``service``    talk to a running daemon: ``submit``, ``status``, ``top``
               (live telemetry), ``result``, ``ping``, ``shutdown``, and
               ``smoke`` (CI kill/restart/cache end-to-end check)

Every command accepts ``--scale {quick,bench,paper}`` (density-preserving
scenario sizes; ``paper`` is the full n = 2000 setting — expect a very long
run) and the radio parameters of the paper.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analysis import TheoreticalBounds
from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters, compute_pcr
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4 import figure4_rows
from repro.experiments.fig6 import FIG6_SWEEPS, run_fig6_sweep
from repro.experiments.report import render_fig4_table, render_fig6_table
from repro.experiments.runner import run_comparison_point
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

__all__ = ["main", "build_parser"]

_SCALES = {
    "quick": ExperimentConfig.quick_scale,
    "bench": ExperimentConfig.bench_scale,
    "paper": ExperimentConfig.paper_scale,
}


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="scenario size (density-preserving); default: quick",
    )
    parser.add_argument("--seed", type=int, default=2012, help="root RNG seed")
    parser.add_argument(
        "--repetitions", type=int, default=None, help="override repetitions"
    )
    parser.add_argument(
        "--blocking",
        choices=("homogeneous", "geometric"),
        default="homogeneous",
        help="PU blocking model (paper's analysis regime: homogeneous)",
    )
    parser.add_argument("--p-t", type=float, default=None, help="override p_t")


def _add_harness_options(parser: argparse.ArgumentParser) -> None:
    """The crash-safe harness flags shared by ``compare`` and ``fig6``."""
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal every completed repetition to this checkpoint/v1 "
        "file (durable across kills; see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay a compatible existing --checkpoint journal and run "
        "only the missing items (results are byte-identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-repetition deadline; a worker exceeding it is "
        "terminated and the item retried (pool mode only)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per item before quarantine (default: 2; backoff "
        "is deterministic exponential)",
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="accept a sweep with quarantined items (saved artifacts are "
        "marked status: partial)",
    )


def _harness_active(args: argparse.Namespace) -> bool:
    return (
        args.checkpoint is not None
        or args.timeout is not None
        or args.max_retries is not None
    )


def _retry_policy_from(args: argparse.Namespace):
    """A RetryPolicy from CLI flags, or None for the library default."""
    if args.timeout is None and args.max_retries is None:
        return None
    from repro.harness import RetryPolicy

    kwargs = {}
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout
    if args.max_retries is not None:
        kwargs["max_attempts"] = args.max_retries + 1
    return RetryPolicy(**kwargs)


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    config = _SCALES[args.scale]().with_overrides(
        seed=args.seed, blocking=args.blocking
    )
    if args.repetitions is not None:
        config = config.with_overrides(repetitions=args.repetitions)
    if args.p_t is not None:
        config = config.with_overrides(p_t=args.p_t)
    return config


def _cmd_pcr(args: argparse.Namespace) -> int:
    params = PcrParameters(
        alpha=args.alpha,
        pu_power=args.pu_power,
        su_power=args.su_power,
        pu_radius=args.pu_radius,
        su_radius=args.su_radius,
        eta_p_db=args.eta_p_db,
        eta_s_db=args.eta_s_db,
        zeta_bound=args.zeta_bound,
    )
    result = compute_pcr(params)
    print(f"c1 = {result.c1:.4f}   c2 = {result.c2:.4f}   c3 = {result.c3:.4f}")
    print(f"primary term   = {result.primary_term:.4f}")
    print(f"secondary term = {result.secondary_term:.4f}")
    print(f"kappa          = {result.kappa:.4f} ({result.binding_constraint} binds)")
    print(f"PCR            = {result.pcr:.4f}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _config_from(args)
    params = PcrParameters(
        alpha=config.alpha,
        pu_power=config.pu_power,
        su_power=config.su_power,
        pu_radius=config.pu_radius,
        su_radius=config.su_radius,
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        zeta_bound=config.zeta_bound,
    )
    pcr = compute_pcr(params)
    streams = StreamFactory(config.seed).spawn("cli-bounds")
    topology = deploy_crn(config.deployment_spec(), streams)
    from repro.graphs.tree import build_collection_tree

    tree = build_collection_tree(
        topology.secondary.graph, topology.secondary.base_station
    )
    bounds = TheoreticalBounds.for_scenario(
        num_sus=config.num_sus,
        num_pus=config.num_pus,
        area=config.area,
        p_t=config.p_t,
        kappa=pcr.kappa,
        su_radius=config.su_radius,
        delta=tree.max_degree(),
        root_degree=max(tree.root_degree(), 1),
    )
    print(f"kappa                 = {bounds.kappa:.3f} (PCR {pcr.pcr:.1f})")
    print(f"p_o (Lemma 7)         = {bounds.p_o:.6f}")
    print(f"expected wait         = {bounds.expected_wait_slots:,.0f} slots")
    print(f"Theorem 1 service     = {bounds.theorem1_slots:,.0f} slots")
    print(f"Lemma 8 service       = {bounds.lemma8_slots:,.0f} slots")
    print(f"Theorem 2 delay bound = {bounds.theorem2_delay_slots:,.0f} slots")
    print(f"capacity fraction     = {bounds.capacity_fraction:.3e} W")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    config = _config_from(args)
    streams = StreamFactory(config.seed).spawn("cli-collect")
    topology = deploy_crn(config.deployment_spec(), streams)
    outcome = run_addc_collection(
        topology,
        streams.spawn("addc"),
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        alpha=config.alpha,
        blocking=config.blocking,
        fairness_wait=not args.no_fairness,
        use_cds_tree=not args.bfs_tree,
        p_false_alarm=args.p_false_alarm,
        p_missed_detection=args.p_missed_detection,
        num_channels=args.num_channels,
        rounds=args.rounds,
        period_slots=args.period_slots,
        max_slots=config.max_slots,
    )
    print(outcome.result.summary())
    print(
        f"transmissions: {outcome.result.total_transmissions} "
        f"({outcome.result.collisions} collisions, "
        f"{outcome.result.pu_violations} PU violations)"
    )
    if outcome.bounds is not None and outcome.result.delay_slots is not None:
        ratio = outcome.result.delay_slots / outcome.bounds.theorem2_delay_slots
        print(f"Theorem 2 bound slack: {1.0 / max(ratio, 1e-12):,.0f}x")
    return 0 if outcome.result.completed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.errors import PartialSweepError, ReproError

    config = _config_from(args)
    try:
        point = run_comparison_point(
            config,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            policy=_retry_policy_from(args),
            allow_partial=args.allow_partial,
        )
    except PartialSweepError as error:
        print(f"PARTIAL: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    print(
        f"ADDC    : {point.addc_delay_ms.mean:12.1f} ms "
        f"± {point.addc_delay_ms.std:.1f}"
    )
    print(
        f"Coolest : {point.coolest_delay_ms.mean:12.1f} ms "
        f"± {point.coolest_delay_ms.std:.1f}"
    )
    print(
        f"ADDC induces {point.reduction_percent:.0f}% less delay "
        f"({point.speedup:.2f}x speedup)"
    )
    return 0


def _chaos_options_from(args: argparse.Namespace, config: ExperimentConfig):
    from repro.faults import ChaosOptions

    return ChaosOptions(
        intensity=args.intensity,
        horizon_slots=args.horizon_slots,
        mean_downtime_slots=args.mean_downtime,
        drop_queue=not args.keep_queues,
        # Pinned-idle detectors are only meaningful under geometric
        # blocking (the mean-field model has no PUs to violate).
        sensing_fault_fraction=0.25 if config.blocking == "geometric" else 0.0,
        blackout=args.blackout,
    )


def _cmd_chaos_sweep(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """The checkpointed/resumable chaos path (harness flags or --save)."""
    import dataclasses as _dataclasses

    from repro import obs
    from repro.errors import ReproError
    from repro.service.jobs import JobSpec, run_job, save_job_artifact

    options = _chaos_options_from(args, config)
    spec = JobSpec(
        kind="chaos",
        scale=args.scale,
        seed=args.seed,
        blocking=args.blocking,
        repetitions=args.repetitions,
        p_t=args.p_t,
        chaos=_dataclasses.asdict(options),
    )
    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    try:
        with obs.use_recorder(recorder):
            job = run_job(
                spec,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                workers=args.workers,
                policy=_retry_policy_from(args),
            )
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    result = job.chaos
    wall_time_s = obs.monotonic_s() - start
    aggregate = result.aggregate()
    print(
        f"chaos sweep: {aggregate['completed']}/{result.repetitions} "
        f"repetition(s) completed (intensity {options.intensity})"
    )
    if aggregate["mean_availability"] is not None:
        print(f"mean availability : {aggregate['mean_availability']:.3f}")
    print(
        f"delivered         : {aggregate['delivered']} "
        f"({aggregate['packets_lost']} lost, "
        f"{aggregate['packets_orphaned']} orphaned)"
    )
    print(
        f"fault events      : {aggregate['fault_events']} "
        f"({aggregate['outages_recovered']} recovered)"
    )
    if result.delays is not None:
        print(
            f"ADDC delay        : {result.delays.mean:12.1f} ms "
            f"± {result.delays.std:.1f}"
        )
    if result.status != "complete":
        for failure in result.failures:
            record = failure.to_dict()
            print(
                f"quarantined: rep {record['rep']} ({record['kind']} "
                f"after {record['attempts']} attempts)",
                file=sys.stderr,
            )
        if not args.allow_partial:
            print(
                "PARTIAL: chaos sweep lost repetitions; re-run with "
                "--resume to retry them, or pass --allow-partial to save "
                "the survivors",
                file=sys.stderr,
            )
            return 1
    if args.save:
        manifest = obs.build_manifest(
            seed=config.seed,
            config=config,
            wall_time_s=wall_time_s,
            recorder=recorder,
            extra=job.manifest_extra(args.workers),
        )
        save_job_artifact(job, args.save, manifest=manifest)
        print(f"saved to {args.save}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos_plan
    from repro.metrics.resilience import resilience_report

    config = _config_from(args)
    if not args.smoke and (
        _harness_active(args) or args.save is not None or args.workers > 1
    ):
        return _cmd_chaos_sweep(args, config)
    if args.smoke:
        # CI sanity run: small, fast, and strict about the accounting.
        config = config.with_overrides(repetitions=1)
    streams = StreamFactory(config.seed).spawn("cli-chaos")
    topology = deploy_crn(config.deployment_spec(), streams)
    plan = chaos_plan(
        topology.secondary.su_ids(),
        args.horizon_slots,
        args.intensity,
        streams,
        drop_queue=not args.keep_queues,
        mean_downtime_slots=args.mean_downtime,
        # Pinned-idle detectors are only meaningful under geometric
        # blocking (the mean-field model has no PUs to violate).
        sensing_fault_fraction=0.25 if config.blocking == "geometric" else 0.0,
        blackout=args.blackout,
    )
    print(f"fault plan: {plan.describe()}")
    outcome = run_addc_collection(
        topology,
        streams.spawn("addc"),
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        alpha=config.alpha,
        blocking=config.blocking,
        fault_plan=plan,
        max_slots=config.max_slots,
    )
    result = outcome.result
    report = resilience_report(result, topology.secondary.num_sus)
    print(result.summary())
    print(report.summary())
    if args.smoke:
        # The delivery books must balance exactly on a completed run.
        if not result.completed:
            print("SMOKE FAIL: run did not complete", file=sys.stderr)
            return 1
        if result.delivered + result.packets_lost != result.num_packets:
            print(
                "SMOKE FAIL: delivered + lost != expected "
                f"({result.delivered} + {result.packets_lost} != "
                f"{result.num_packets})",
                file=sys.stderr,
            )
            return 1
        if result.packets_orphaned > result.packets_lost:
            print("SMOKE FAIL: more orphans than losses", file=sys.stderr)
            return 1
        if not 0.0 <= report.availability <= 1.0:
            print("SMOKE FAIL: availability outside [0, 1]", file=sys.stderr)
            return 1
        print("chaos smoke OK")
        return 0
    return 0 if result.completed else 1


def _cmd_chaos_gate(args: argparse.Namespace) -> int:
    """Run the resilience scenario grid, contracts, and the ratchet."""
    import tempfile
    from pathlib import Path

    from repro.chaos import (
        diff_against_baseline,
        run_gate,
        write_gate_baseline,
    )
    from repro.chaos.gate import render_gate
    from repro.errors import ReproError

    def progress(name: str) -> None:
        print(f"chaos gate: running {name} scenario ...", flush=True)

    try:
        with tempfile.TemporaryDirectory(prefix="chaos-gate-") as scratch:
            workdir = Path(args.workdir) if args.workdir else Path(scratch)
            report = run_gate(
                workdir,
                seed=args.seed,
                smoke=args.smoke,
                include_service=not args.no_service,
                synthetic_violation=args.synthetic_violation,
                progress=progress,
            )
            if args.update_baseline:
                write_gate_baseline(args.baseline, report)
                print(render_gate(report, None))
                print(f"baseline written to {args.baseline}")
                return 0 if not report.contract_failures else 1
            if Path(args.baseline).exists():
                diff_against_baseline(
                    report, args.baseline, args.fail_on_regression
                )
            elif args.fail_on_regression is not None:
                print(
                    f"ERROR: baseline {args.baseline} does not exist; "
                    "generate it with `chaos gate --update-baseline`",
                    file=sys.stderr,
                )
                return 1
            if args.out:
                write_gate_baseline(args.out, report)
            print(render_gate(report, args.fail_on_regression))
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    return 0 if report.passed else 1


def _collect_once(config: ExperimentConfig, label: str, trace=None):
    """One ADDC collection on a fresh deployment (shared by obs/trace cmds).

    The RNG stream layout depends only on ``config.seed`` and ``label``, so
    two calls with the same arguments replay the identical simulation —
    which is what the determinism smoke check exploits.
    """
    streams = StreamFactory(config.seed).spawn(label)
    topology = deploy_crn(config.deployment_spec(), streams)
    return run_addc_collection(
        topology,
        streams.spawn("addc"),
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        alpha=config.alpha,
        blocking=config.blocking,
        max_slots=config.max_slots,
        trace=trace,
        with_bounds=False,
    )


def _result_fingerprint(result) -> tuple:
    """The outcome fields two identical runs must agree on exactly."""
    return (
        result.completed,
        result.slots_simulated,
        result.delivered,
        result.delay_slots,
        result.collisions,
        result.total_transmissions,
        result.packets_lost,
    )


def _obs_smoke(args: argparse.Namespace) -> int:
    """CI sanity: instrumentation collects data and changes nothing."""
    import json
    import tempfile
    from pathlib import Path

    from repro import obs

    config = _config_from(args).with_overrides(repetitions=1)
    baseline = _collect_once(config, "cli-obs-smoke")

    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        instrumented = _collect_once(config, "cli-obs-smoke")
    wall_time_s = obs.monotonic_s() - start

    if _result_fingerprint(instrumented.result) != _result_fingerprint(
        baseline.result
    ):
        print(
            "SMOKE FAIL: instrumented run diverged from baseline "
            f"({_result_fingerprint(instrumented.result)} != "
            f"{_result_fingerprint(baseline.result)})",
            file=sys.stderr,
        )
        return 1
    profile = recorder.profile()
    if "engine.slot" not in profile or "engine.run" not in profile:
        print(
            f"SMOKE FAIL: profile is missing engine spans ({sorted(profile)})",
            file=sys.stderr,
        )
        return 1
    if recorder.counters.get("engine.runs") != 1:
        print(
            "SMOKE FAIL: expected engine.runs == 1, got "
            f"{recorder.counters.get('engine.runs')}",
            file=sys.stderr,
        )
        return 1

    manifest = obs.build_manifest(
        seed=config.seed,
        config=config,
        wall_time_s=wall_time_s,
        recorder=recorder,
    )
    path = Path(tempfile.mkdtemp()) / "smoke.manifest.json"
    obs.write_manifest(path, manifest)
    loaded = obs.load_manifest(path)
    if not loaded.profile or loaded.config_hash != manifest.config_hash:
        print(
            "SMOKE FAIL: manifest did not round-trip through " f"{path}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(loaded.to_dict(), indent=2, sort_keys=True))
    else:
        print(obs.render_report(loaded))
    print("obs smoke OK")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    if args.smoke:
        return _obs_smoke(args)
    if args.manifest is None:
        print(
            "obs report needs a manifest path (or --smoke)", file=sys.stderr
        )
        return 2
    manifest = obs.load_manifest(args.manifest)
    if args.json:
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    else:
        print(obs.render_report(manifest))
    return 0


def _cmd_obs_bench(args: argparse.Namespace) -> int:
    from repro import obs

    config = _config_from(args)
    collections = args.collections
    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        for rep in range(collections):
            _collect_once(config, f"obs-bench-{rep}")
    wall_time_s = obs.monotonic_s() - start
    manifest = obs.build_manifest(
        seed=config.seed,
        config=config,
        wall_time_s=wall_time_s,
        recorder=recorder,
        extra={"benchmark": "obs", "collections": collections},
    )
    obs.write_manifest(args.out, manifest)
    slots = recorder.counters.get("engine.slots", 0)
    rate = slots / wall_time_s if wall_time_s > 0 else 0.0
    print(
        f"{collections} collection(s), {int(slots)} slots in "
        f"{wall_time_s:.2f} s ({rate:,.0f} slots/s)"
    )
    print(f"baseline written to {args.out}")
    return 0


def _cmd_perf_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import PerfBenchError, run_perf_bench

    config = _config_from(args)
    try:
        return run_perf_bench(
            config, workers=args.workers, out=args.out, smoke=args.smoke
        )
    except PerfBenchError as error:
        print(f"PERF FAIL: {error}", file=sys.stderr)
        return 1


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro import obs

    config = _config_from(args)
    with obs.NdjsonTraceWriter(args.out) as writer:
        outcome = _collect_once(config, "cli-trace", trace=writer)
    print(f"wrote {writer.events_written} events to {args.out}")
    return 0 if outcome.result.completed else 1


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    stats = obs.trace_stats(args.path, top=args.top)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"schema:  {stats['schema']}")
    if stats["schema"] == "trace/v2":
        print(f"trace:   {stats['trace_id']}")
        print(f"spans:   {stats['spans']} ({stats['dropped']} dropped)")
        names = stats["names"]
        if names:
            width = max(len(name) for name in names)
            for name in sorted(names):
                row = names[name]
                print(
                    f"  {name:<{width}}  n={row['spans']:<5d} "
                    f"total={row['total_ms']:10.3f} ms  "
                    f"p50={row['p50_ms']:.3f}  p95={row['p95_ms']:.3f}  "
                    f"p99={row['p99_ms']:.3f}"
                )
        for entry in stats.get("slowest", ()):
            print(
                f"  slow  {entry['span_id']}  ({entry['name']})  "
                f"{entry['total_ms']:.3f} ms"
            )
        return 0
    print(f"events:  {stats['events']} ({stats['dropped']} dropped)")
    print(f"slots:   {stats['first_slot']} .. {stats['last_slot']}")
    print(f"nodes:   {stats['nodes']}")
    for kind, count in stats["kinds"].items():
        print(f"  {kind:>14}: {count}")
    return 0


def _cmd_trace_tree(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.obs.tracing import load_spans, render_tree

    path = Path(args.job)
    if not path.exists():
        candidate = Path(args.state_dir) / "jobs" / args.job / "trace.ndjson"
        if candidate.exists():
            path = candidate
        else:
            print(
                f"no trace file at {path} and no job trace at {candidate} "
                "(pass a trace/v2 path or a job fingerprint + --state-dir)",
                file=sys.stderr,
            )
            return 2
    try:
        header, spans = load_spans(path)
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    print(render_tree(header.get("trace_id", ""), spans))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import obs
    from repro.errors import ReproError

    try:
        if args.socket is not None:
            from repro.service.client import ServiceClient

            report = ServiceClient(args.socket).stats()
            if report.get("type") != "stats_report":
                print(
                    f"unexpected response type {report.get('type')!r} "
                    "(expected 'stats_report')",
                    file=sys.stderr,
                )
                return 1
            summary = report.get("service") or {}
            gauge_names = ("queue_depth", "inflight", "capacity")
            metrics = {
                "counters": {
                    f"service.{name}": value
                    for name, value in summary.items()
                    if name not in gauge_names
                    and isinstance(value, (int, float))
                },
                "gauges": {
                    f"service.{name}": summary.get(name, 0)
                    for name in gauge_names
                },
            }
            metrics["gauges"]["service.quarantined"] = report.get(
                "quarantined", 0
            )
            profile = report.get("phases") or {}
        else:
            if args.manifest is None:
                print(
                    "obs export needs a manifest path (or --socket for a "
                    "live daemon)",
                    file=sys.stderr,
                )
                return 2
            record = obs.load_manifest(args.manifest).to_dict()
            metrics = record.get("metrics") or {}
            profile = record.get("profile") or {}
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    text = obs.render_prometheus(metrics, profile)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.errors import ReproError
    from repro.obs.diff import load_manifest_dict

    try:
        old = load_manifest_dict(args.old)
        new = load_manifest_dict(args.new)
        rows = obs.diff_manifests(
            old, new, tolerance_pct=args.fail_on_regression
        )
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                [row.to_dict() for row in rows], indent=2, sort_keys=True
            )
        )
    else:
        print(obs.render_diff(rows, args.fail_on_regression))
    return 1 if any(row.regression for row in rows) else 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    print(render_fig4_table(figure4_rows()))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    name = f"fig6{args.subfigure}"
    sweep = FIG6_SWEEPS[name]
    config = _config_from(args)
    use_harness = _harness_active(args)
    if not args.save and not use_harness:
        points = run_fig6_sweep(sweep, config, workers=args.workers)
        print(render_fig6_table(sweep.name, sweep.description, points))
        return 0

    from repro import obs
    from repro.errors import ReproError
    from repro.experiments.io import save_sweep

    # Saved sweeps get a provenance manifest recording the worker count
    # (the artifact itself is worker-count-independent by construction).
    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    extra = {"sweep": name, "workers": args.workers}
    status = "complete"
    failures = []
    try:
        with obs.use_recorder(recorder):
            if use_harness:
                # The daemon runs the exact same spec through the exact
                # same layer, so CLI journals and service cache entries
                # share fingerprints (see repro.service.jobs).
                from repro.service.jobs import JobSpec, run_job

                spec = JobSpec(
                    kind="fig6",
                    scale=args.scale,
                    seed=args.seed,
                    blocking=args.blocking,
                    repetitions=args.repetitions,
                    p_t=args.p_t,
                    subfigure=args.subfigure,
                )
                result = run_job(
                    spec,
                    checkpoint_path=args.checkpoint,
                    resume=args.resume,
                    workers=args.workers,
                    policy=_retry_policy_from(args),
                )
                points = result.points
                status = result.status
                failures = result.failures
                extra["harness"] = result.sweep.harness_summary()
            else:
                points = run_fig6_sweep(sweep, config, workers=args.workers)
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    wall_time_s = obs.monotonic_s() - start
    print(render_fig6_table(sweep.name, sweep.description, points))
    if status != "complete":
        for record in failures:
            print(
                f"quarantined: point {record['point']} rep {record['rep']} "
                f"({record['kind']} after {record['attempts']} attempts)",
                file=sys.stderr,
            )
        if not args.allow_partial:
            print(
                f"PARTIAL: sweep {name} lost items; re-run with --resume to "
                "retry them, or pass --allow-partial to save the survivors",
                file=sys.stderr,
            )
            return 1
    if args.save:
        manifest = obs.build_manifest(
            seed=config.seed,
            config=config,
            wall_time_s=wall_time_s,
            recorder=recorder,
            extra=extra,
        )
        save_sweep(
            args.save,
            name,
            points,
            manifest=manifest,
            status=status,
            failures=failures,
        )
        print(f"saved to {args.save}")
    return 0


def _cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.errors import CheckpointError
    from repro.harness import inspect_checkpoint

    try:
        summary = inspect_checkpoint(args.path)
    except CheckpointError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_checkpoint_verify(args: argparse.Namespace) -> int:
    from repro.harness import verify_checkpoint

    problems = verify_checkpoint(args.path, config_hash=args.config_hash)
    if not problems:
        print(f"{args.path}: OK")
        return 0
    for problem in problems:
        print(f"{args.path}: {problem}", file=sys.stderr)
    return 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import get_scenario, list_scenarios

    if args.name is None:
        print("available scenarios:")
        for name in list_scenarios():
            print(f"  {name:>18}: {get_scenario(name).summary}")
        return 0

    scenario = get_scenario(args.name)
    config = scenario.config
    if args.repetitions is not None:
        config = config.with_overrides(repetitions=args.repetitions)
    print(f"scenario: {scenario.name} — {scenario.summary}")
    # Derived from the validated scenario id, which the run manifest
    # records; each scenario gets a distinct lineage.
    # reprolint: disable=RNG011
    streams = StreamFactory(config.seed).spawn(f"scenario-{scenario.name}")
    topology = deploy_crn(
        config.deployment_spec(), streams, activity=scenario.make_activity()
    )
    outcome = run_addc_collection(
        topology,
        streams.spawn("addc"),
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        alpha=config.alpha,
        blocking=config.blocking,
        num_channels=scenario.num_channels,
        max_slots=config.max_slots,
    )
    print(outcome.result.summary())
    print(
        f"transmissions: {outcome.result.total_transmissions} "
        f"({outcome.result.collisions} collisions)"
    )
    return 0 if outcome.result.completed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_all import generate_report

    config = _config_from(args)
    sweeps = args.sweeps.split(",") if args.sweeps else None
    document = generate_report(config, sweeps=sweeps, output_path=args.out)
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(document)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the experiment daemon until SIGTERM/SIGINT (graceful drain)."""
    from repro import obs
    from repro.errors import ReproError
    from repro.service import ExperimentService
    from repro.service.server import ServiceServer

    recorder = obs.MetricsRecorder()
    try:
        with obs.use_recorder(recorder):
            service = ExperimentService(
                args.state_dir,
                queue_capacity=args.queue_capacity,
                workers=args.workers,
                policy=_retry_policy_from(args),
            )
            server = ServiceServer(
                service, args.socket, heartbeat_s=args.heartbeat
            )
            server.install_signal_handlers()
            if service.recovered_jobs:
                print(
                    f"recovered {service.recovered_jobs} unfinished job(s) "
                    "from the state directory"
                )
            print(
                f"service listening on {args.socket} "
                f"(state: {args.state_dir}, queue capacity: "
                f"{args.queue_capacity})"
            )
            sys.stdout.flush()
            summary = server.serve_forever()
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    print(f"drained: {summary['counters']}")
    return 0


def _service_spec_from(args: argparse.Namespace):
    """A JobSpec from ``service submit`` flags (CLI-equivalent semantics)."""
    from repro.service.jobs import JobSpec

    kwargs = dict(
        kind=args.kind,
        scale=args.scale,
        seed=args.seed,
        blocking=args.blocking,
        repetitions=args.repetitions,
        p_t=args.p_t,
    )
    if args.kind == "fig6":
        kwargs["subfigure"] = args.subfigure
    if args.kind == "chaos":
        import dataclasses as _dataclasses

        kwargs["chaos"] = _dataclasses.asdict(
            _chaos_options_from(args, _config_from(args))
        )
    return JobSpec(**kwargs)


def _cmd_service_submit(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    try:
        spec = _service_spec_from(args)
        client = ServiceClient(args.socket)
        if args.stream:
            def on_event(event):
                kind = event.get("type")
                if kind == "progress":
                    print(
                        f"progress: {event.get('done')}/{event.get('total')}",
                        file=sys.stderr,
                    )
                elif kind == "heartbeat":
                    print(
                        f"heartbeat: depth={event.get('queue_depth')} "
                        f"inflight={event.get('inflight')} "
                        f"cache={event.get('cache_hits', 0)}/"
                        f"{event.get('cache_misses', 0)} hit/miss",
                        file=sys.stderr,
                    )

            response = client.submit(spec, stream=True, on_event=on_event)
        else:
            response = client.submit(spec)
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    kind = response.get("type")
    if kind == "retry_after":
        # EX_TEMPFAIL: the queue is full, come back later.
        return 75
    return 0 if kind in ("accepted", "cache_hit", "completed") else 1


def _cmd_service_verb(args: argparse.Namespace) -> int:
    """status / result / ping / shutdown — one request, JSON out."""
    import json

    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    client = ServiceClient(args.socket)
    try:
        if args.service_command == "status":
            response = client.status()
        elif args.service_command == "result":
            response = client.result(args.fingerprint)
        elif args.service_command == "shutdown":
            response = client.shutdown()
        else:
            response = client.ping()
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("type") not in ("error", "failed") else 1


def _render_service_top(report: dict) -> str:
    """The ``service top`` text view of one ``stats_report`` payload."""
    summary = report.get("service") or {}
    lines = [
        "queue    depth={queue_depth} inflight={inflight} "
        "capacity={capacity}".format(
            queue_depth=summary.get("queue_depth", 0),
            inflight=summary.get("inflight", 0),
            capacity=summary.get("capacity", 0),
        ),
        "cache    hits={cache_hits} misses={cache_misses}".format(
            cache_hits=summary.get("cache_hits", 0),
            cache_misses=summary.get("cache_misses", 0),
        ),
        "jobs     admitted={jobs_admitted} completed={jobs_completed} "
        "failed={jobs_failed} shed={jobs_shed} quarantined={q}".format(
            jobs_admitted=summary.get("jobs_admitted", 0),
            jobs_completed=summary.get("jobs_completed", 0),
            jobs_failed=summary.get("jobs_failed", 0),
            jobs_shed=summary.get("jobs_shed", 0),
            q=report.get("quarantined", 0),
        ),
    ]
    phases = report.get("phases") or {}
    if phases:
        lines.append("phases")
        width = max(len(name) for name in phases)
        for name in sorted(phases):
            stats = phases[name]
            lines.append(
                f"  {name:<{width}}  calls={stats.get('count', 0):<8} "
                f"total={stats.get('total_ms', 0.0):10.1f} ms  "
                f"mean={stats.get('mean_ms', 0.0):.4f} ms"
            )
    else:
        lines.append("phases   (no spans recorded yet)")
    return "\n".join(lines)


def _cmd_service_top(args: argparse.Namespace) -> int:
    """Live daemon telemetry: single-shot JSON or a refreshing text view."""
    import json

    from repro.errors import ReproError
    from repro.obs.clock import sleep_s
    from repro.service.client import ServiceClient

    client = ServiceClient(args.socket)
    try:
        for iteration in range(max(1, args.count)):
            if iteration:
                sleep_s(args.interval)
                print()
            report = client.stats()
            if report.get("type") != "stats_report":
                print(
                    f"unexpected response type {report.get('type')!r} "
                    "(expected 'stats_report')",
                    file=sys.stderr,
                )
                return 1
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(_render_service_top(report))
            sys.stdout.flush()
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_service_smoke(args: argparse.Namespace) -> int:
    """CI end-to-end daemon check: backpressure, SIGKILL recovery, cache.

    Starts a real daemon subprocess with a capacity-1 queue, then
    asserts the three service guarantees in order: a full queue answers
    ``retry_after`` (never blocks), a SIGKILL'd daemon resumes its
    backlog on restart and produces artifacts byte-identical to an
    uninterrupted in-process run (RNG stream positions included), and a
    repeat submission is served from the cache without admitting a job.
    """
    import json
    import signal as _signal
    import subprocess
    import tempfile
    from pathlib import Path

    from repro.errors import ServiceError
    from repro.experiments.runner import run_comparison_repetition
    from repro.harness import load_checkpoint
    from repro.obs.clock import sleep_s
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobSpec, run_job, save_job_artifact

    tiny = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}
    job_a = JobSpec(kind="compare", seed=20120612, repetitions=3, overrides=tiny)
    job_b = JobSpec(kind="compare", seed=7, repetitions=1, overrides=tiny)
    job_c = JobSpec(kind="compare", seed=8, repetitions=1, overrides=tiny)
    fp_a = job_a.fingerprint()
    fp_b = job_b.fingerprint()

    def fail(message: str) -> int:
        print(f"SMOKE FAIL: {message}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        state = base / "state"
        sock = str(base / "service.sock")
        reference = base / "reference.json"
        # The uninterrupted in-process reference the daemon must match.
        save_job_artifact(run_job(job_a), reference)

        def start_daemon() -> subprocess.Popen:
            return subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--socket",
                    sock,
                    "--state-dir",
                    str(state),
                    "--queue-capacity",
                    "1",
                    "--heartbeat",
                    "0.5",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.STDOUT,
            )

        client = ServiceClient(sock, timeout_s=60.0)

        def wait_ping() -> bool:
            for _ in range(200):
                try:
                    if client.ping().get("type") == "pong":
                        return True
                except ServiceError:
                    sleep_s(0.05)
            return False

        daemon = start_daemon()
        try:
            if not wait_ping():
                return fail("daemon never answered ping")
            first = client.submit(job_a)
            if first.get("type") != "accepted":
                return fail(f"submit A answered {first.get('type')!r}")
            # Wait for A to go in-flight so B takes the only queue slot.
            for _ in range(200):
                if client.status().get("inflight") == 1:
                    break
                sleep_s(0.05)
            else:
                return fail("job A never started")
            second = client.submit(job_b)
            if second.get("type") != "accepted":
                return fail(f"submit B answered {second.get('type')!r}")
            third = client.submit(job_c)
            if third.get("type") != "retry_after":
                return fail(
                    "expected typed backpressure for a full queue, got "
                    f"{third.get('type')!r}"
                )
            if not third.get("retry_after_s", 0) > 0:
                return fail("retry_after carried no backoff hint")
            # SIGKILL once job A has >= 1 durable repetition journalled.
            journal = state / "jobs" / fp_a / "checkpoint.ndjson"
            for _ in range(600):
                if (
                    journal.exists()
                    and len(journal.read_bytes().split(b"\n")) >= 3
                ):
                    break
                sleep_s(0.05)
            else:
                return fail("job A journalled nothing to kill over")
            daemon.send_signal(_signal.SIGKILL)
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        interrupted = not (state / "cache" / f"{fp_a}.json").exists()

        daemon = start_daemon()
        try:
            if not wait_ping():
                return fail("restarted daemon never answered ping")
            if interrupted and client.status().get("jobs_recovered", 0) < 1:
                return fail("restart recovered no jobs")
            final_a = client.wait_for_result(fp_a)
            final_b = client.wait_for_result(fp_b)
            for label, final in (("A", final_a), ("B", final_b)):
                if (
                    final.get("type") != "completed"
                    or final.get("status") != "complete"
                ):
                    return fail(
                        f"job {label} ended {final.get('type')!r} "
                        f"({final.get('status')!r})"
                    )
            artifact = (state / "cache" / f"{fp_a}.json").read_bytes()
            if artifact != reference.read_bytes():
                return fail(
                    "recovered artifact differs from the uninterrupted "
                    "reference run"
                )
            # RNG stream positions: the recovered journal must agree with
            # a fresh in-process run, repetition by repetition.
            entries = load_checkpoint(journal).entries
            config_a = job_a.config()
            for rep in range(config_a.repetitions):
                expected = run_comparison_repetition(config_a, rep)
                got = entries[(0, rep)].measurement.rng_positions
                if got != expected.rng_positions:
                    return fail(f"repetition {rep} RNG positions diverged")
            before = client.status()
            hit = client.submit(job_a)
            if hit.get("type") != "cache_hit":
                return fail(
                    f"resubmission answered {hit.get('type')!r}, "
                    "expected cache_hit"
                )
            if not hit.get("provenance", {}).get("fingerprint") == fp_a:
                return fail("cache hit carried no provenance record")
            after = client.status()
            if after.get("jobs_admitted") != before.get("jobs_admitted"):
                return fail("cache hit still admitted a job (compute leak)")
            if after.get("cache_hits", 0) < 1:
                return fail("cache_hits counter did not move")
            if not interrupted:
                print(
                    "note: job A completed before the SIGKILL landed; "
                    "identity checks still cover the journal"
                )
            if client.shutdown().get("type") != "draining":
                return fail("shutdown was not acknowledged with draining")
            daemon.wait(timeout=120)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        snapshot_path = state / "service-state.json"
        if not snapshot_path.exists():
            return fail("drain left no service-state snapshot")
        snapshot = json.loads(snapshot_path.read_text())
        if snapshot.get("schema") != "service-state/v1":
            return fail(f"snapshot schema is {snapshot.get('schema')!r}")
        if not (state / "service-state.manifest.json").exists():
            return fail("drain left no manifest next to the snapshot")
    print("service smoke OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    pcr = commands.add_parser("pcr", help="evaluate the PCR (Eq. 16)")
    pcr.add_argument("--alpha", type=float, default=4.0)
    pcr.add_argument("--pu-power", type=float, default=10.0)
    pcr.add_argument("--su-power", type=float, default=10.0)
    pcr.add_argument("--pu-radius", type=float, default=12.0)
    pcr.add_argument("--su-radius", type=float, default=10.0)
    pcr.add_argument("--eta-p-db", type=float, default=10.0)
    pcr.add_argument("--eta-s-db", type=float, default=10.0)
    pcr.add_argument(
        "--zeta-bound", choices=("paper", "safe", "exact"), default="paper"
    )
    pcr.set_defaults(handler=_cmd_pcr)

    bounds = commands.add_parser("bounds", help="analytic delay/capacity bounds")
    _add_scale_options(bounds)
    bounds.set_defaults(handler=_cmd_bounds)

    collect = commands.add_parser("collect", help="run one ADDC collection")
    _add_scale_options(collect)
    collect.add_argument("--no-fairness", action="store_true")
    collect.add_argument("--bfs-tree", action="store_true")
    collect.add_argument("--p-false-alarm", type=float, default=0.0)
    collect.add_argument("--p-missed-detection", type=float, default=0.0)
    collect.add_argument(
        "--num-channels",
        type=int,
        default=1,
        help="licensed channels (1 = the paper's model)",
    )
    collect.add_argument(
        "--rounds", type=int, default=1, help="snapshot rounds (continuous mode)"
    )
    collect.add_argument(
        "--period-slots",
        type=int,
        default=None,
        help="slots between snapshot rounds",
    )
    collect.set_defaults(handler=_cmd_collect)

    compare = commands.add_parser("compare", help="ADDC vs Coolest")
    _add_scale_options(compare)
    compare.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the repetitions (1 = serial; "
        "results are identical for any value)",
    )
    _add_harness_options(compare)
    compare.set_defaults(handler=_cmd_compare)

    chaos = commands.add_parser(
        "chaos", help="run one ADDC collection under fault injection"
    )
    _add_scale_options(chaos)
    chaos.add_argument(
        "--intensity",
        type=float,
        default=0.2,
        help="expected fraction of SUs hit by a transient outage",
    )
    chaos.add_argument(
        "--horizon-slots",
        type=int,
        default=2000,
        help="slots over which fault onsets are scheduled",
    )
    chaos.add_argument(
        "--mean-downtime",
        type=float,
        default=200.0,
        help="mean outage duration in slots",
    )
    chaos.add_argument(
        "--keep-queues",
        action="store_true",
        help="downed nodes keep their queued packets (default: dropped)",
    )
    chaos.add_argument(
        "--blackout",
        action="store_true",
        help="add one base-station blackout window mid-run",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: one repetition plus accounting checks",
    )
    chaos.add_argument(
        "--save",
        default=None,
        help="run the repetition sweep and write it to a JSON file",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the repetition fan-out "
        "(1 = serial; results are identical for any value)",
    )
    _add_harness_options(chaos)
    chaos.set_defaults(handler=_cmd_chaos)
    chaos_sub = chaos.add_subparsers(dest="chaos_command")
    gate = chaos_sub.add_parser(
        "gate",
        help="run the resilience scenario grid, contracts, and ratchet",
    )
    gate.add_argument(
        "--seed",
        type=int,
        default=20120612,
        help="grid seed (the committed baseline pins the default)",
    )
    gate.add_argument(
        "--smoke",
        action="store_true",
        help="CI grid: smaller degradation horizon, no hang injection",
    )
    gate.add_argument(
        "--no-service",
        action="store_true",
        help="skip the daemon/proxy scenario (no subprocesses spawned; "
        "the service contracts then FAIL for missing evidence)",
    )
    gate.add_argument(
        "--baseline",
        default="BENCH_resilience.json",
        help="committed baseline manifest to ratchet against",
    )
    gate.add_argument(
        "--out",
        default=None,
        help="also write this run's manifest to a file",
    )
    gate.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="fail when a gated resilience figure moves more than PCT%% "
        "the wrong way vs the baseline",
    )
    gate.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's manifest to --baseline instead of diffing",
    )
    gate.add_argument(
        "--workdir",
        default=None,
        help="scenario scratch directory (default: a temp dir)",
    )
    gate.add_argument(
        "--synthetic-violation",
        action="store_true",
        help="poison one contract so the gate must exit 1 (the CI canary "
        "proving the gate can fail)",
    )
    gate.set_defaults(handler=_cmd_chaos_gate)

    fig4 = commands.add_parser("fig4", help="regenerate Figure 4")
    fig4.set_defaults(handler=_cmd_fig4)

    fig6 = commands.add_parser("fig6", help="regenerate a Figure 6 sub-figure")
    fig6.add_argument("subfigure", choices=list("abcdef"))
    fig6.add_argument(
        "--save", default=None, help="write the sweep to a JSON file"
    )
    fig6.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for (point x repetition) fan-out "
        "(1 = serial; results are identical for any value)",
    )
    _add_scale_options(fig6)
    _add_harness_options(fig6)
    fig6.set_defaults(handler=_cmd_fig6)

    scenario = commands.add_parser(
        "scenario", help="list or run a named scenario preset"
    )
    scenario.add_argument("name", nargs="?", default=None)
    scenario.add_argument("--repetitions", type=int, default=None)
    scenario.set_defaults(handler=_cmd_scenario)

    report = commands.add_parser(
        "report", help="regenerate the full evaluation record (slow)"
    )
    _add_scale_options(report)
    report.add_argument("--out", default=None, help="write Markdown here")
    report.add_argument(
        "--sweeps",
        default=None,
        help="comma-separated sub-figures, e.g. fig6c,fig6d (default: all)",
    )
    report.set_defaults(handler=_cmd_report)

    obs_parser = commands.add_parser(
        "obs", help="observability: manifests, profiles, benchmarks"
    )
    obs_commands = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_commands.add_parser(
        "report", help="render a run manifest (or --smoke self-check)"
    )
    obs_report.add_argument(
        "manifest", nargs="?", default=None, help="path to a *.manifest.json"
    )
    obs_report.add_argument(
        "--json", action="store_true", help="emit the manifest as JSON"
    )
    obs_report.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: instrumented run, determinism check, manifest round-trip",
    )
    _add_scale_options(obs_report)
    obs_report.set_defaults(handler=_cmd_obs_report)

    obs_bench = obs_commands.add_parser(
        "bench", help="profiled engine baseline -> manifest JSON"
    )
    obs_bench.add_argument(
        "--out", default="BENCH_obs.json", help="output manifest path"
    )
    obs_bench.add_argument(
        "--collections",
        type=int,
        default=3,
        help="instrumented collections to profile (default: 3)",
    )
    _add_scale_options(obs_bench)
    obs_bench.set_defaults(handler=_cmd_obs_bench)

    obs_export = obs_commands.add_parser(
        "export",
        help="export a manifest (or live daemon stats) as Prometheus text",
    )
    obs_export.add_argument(
        "manifest", nargs="?", default=None, help="path to a *.manifest.json"
    )
    obs_export.add_argument(
        "--format",
        choices=("prom",),
        default="prom",
        help="output format (only 'prom' for now)",
    )
    obs_export.add_argument(
        "--socket",
        default=None,
        help="export a live daemon's stats instead of a manifest file",
    )
    obs_export.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    obs_export.set_defaults(handler=_cmd_obs_export)

    obs_diff = obs_commands.add_parser(
        "diff",
        help="compare two manifests' perf figures (the regression ratchet)",
    )
    obs_diff.add_argument("old", help="baseline manifest (e.g. BENCH_perf.json)")
    obs_diff.add_argument("new", help="fresh manifest to compare")
    obs_diff.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero when a gated figure slowed by more than PCT%%",
    )
    obs_diff.add_argument(
        "--json", action="store_true", help="emit the rows as JSON"
    )
    obs_diff.set_defaults(handler=_cmd_obs_diff)

    perf_parser = commands.add_parser(
        "perf", help="performance: parallel/vectorized benchmarks"
    )
    perf_commands = perf_parser.add_subparsers(dest="perf_command", required=True)

    perf_bench = perf_commands.add_parser(
        "bench",
        help="serial vs parallel + scalar vs vectorized -> BENCH_perf.json",
    )
    perf_bench.add_argument(
        "--out", default="BENCH_perf.json", help="output manifest path"
    )
    perf_bench.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes for the parallel half (default: 4)",
    )
    perf_bench.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: tiny workload, same equality assertions",
    )
    _add_scale_options(perf_bench)
    perf_bench.set_defaults(handler=_cmd_perf_bench)

    trace_parser = commands.add_parser(
        "trace", help="NDJSON trace export and inspection (trace/v1)"
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )

    trace_export = trace_commands.add_parser(
        "export", help="run one collection, streaming its trace to disk"
    )
    trace_export.add_argument(
        "--out", required=True, help="output NDJSON path"
    )
    _add_scale_options(trace_export)
    trace_export.set_defaults(handler=_cmd_trace_export)

    trace_stats = trace_commands.add_parser(
        "stats", help="summarize a trace NDJSON file (trace/v1 or trace/v2)"
    )
    trace_stats.add_argument("path", help="path to a trace NDJSON file")
    trace_stats.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    trace_stats.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also list the N slowest individual spans (trace/v2 only)",
    )
    trace_stats.set_defaults(handler=_cmd_trace_stats)

    trace_tree = trace_commands.add_parser(
        "tree", help="render a job's merged trace/v2 file as a span tree"
    )
    trace_tree.add_argument(
        "job", help="path to a trace/v2 file, or a job fingerprint"
    )
    trace_tree.add_argument(
        "--state-dir",
        default=".addc-service",
        help="daemon state directory for fingerprint lookup "
        "(default: .addc-service)",
    )
    trace_tree.set_defaults(handler=_cmd_trace_tree)

    checkpoint_parser = commands.add_parser(
        "checkpoint",
        help="crash-safe checkpoint journals (checkpoint/v1)",
    )
    checkpoint_commands = checkpoint_parser.add_subparsers(
        dest="checkpoint_command", required=True
    )

    checkpoint_inspect = checkpoint_commands.add_parser(
        "inspect", help="summarize a journal as JSON"
    )
    checkpoint_inspect.add_argument("path", help="path to a checkpoint journal")
    checkpoint_inspect.set_defaults(handler=_cmd_checkpoint_inspect)

    checkpoint_verify = checkpoint_commands.add_parser(
        "verify", help="validate a journal (schema, records, counts)"
    )
    checkpoint_verify.add_argument("path", help="path to a checkpoint journal")
    checkpoint_verify.add_argument(
        "--config-hash",
        default=None,
        help="also require this sweep fingerprint",
    )
    checkpoint_verify.set_defaults(handler=_cmd_checkpoint_verify)

    serve = commands.add_parser(
        "serve",
        help="run the fault-tolerant experiment daemon (service/v1)",
    )
    serve.add_argument(
        "--socket",
        default=".addc-service/service.sock",
        help="AF_UNIX socket path (default: .addc-service/service.sock)",
    )
    serve.add_argument(
        "--state-dir",
        default=".addc-service",
        help="durable state root: job journals, result cache, snapshot",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=4,
        help="bounded queue size; a full queue answers retry_after",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per job (1 = in-thread; results are "
        "identical for any value)",
    )
    serve.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between heartbeat events to streaming clients",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-repetition deadline (pool mode only)",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per item before quarantine (default: 2)",
    )
    serve.set_defaults(handler=_cmd_serve)

    service_parser = commands.add_parser(
        "service",
        help="talk to a running experiment daemon over its socket",
    )
    service_commands = service_parser.add_subparsers(
        dest="service_command", required=True
    )

    service_submit = service_commands.add_parser(
        "submit", help="submit a job; duplicates are served from cache"
    )
    service_submit.add_argument(
        "kind",
        choices=sorted(("fig6", "compare", "chaos")),
        help="experiment kind",
    )
    service_submit.add_argument(
        "--subfigure",
        choices=list("abcdef"),
        default=None,
        help="Figure 6 sub-figure (required for kind=fig6)",
    )
    _add_scale_options(service_submit)
    service_submit.add_argument(
        "--intensity", type=float, default=0.2,
        help="chaos: expected fraction of SUs hit by a transient outage",
    )
    service_submit.add_argument(
        "--horizon-slots", type=int, default=2000,
        help="chaos: slots over which fault onsets are scheduled",
    )
    service_submit.add_argument(
        "--mean-downtime", type=float, default=200.0,
        help="chaos: mean outage duration in slots",
    )
    service_submit.add_argument(
        "--keep-queues", action="store_true",
        help="chaos: downed nodes keep their queued packets",
    )
    service_submit.add_argument(
        "--blackout", action="store_true",
        help="chaos: add one base-station blackout window mid-run",
    )
    service_submit.add_argument(
        "--socket",
        default=".addc-service/service.sock",
        help="daemon socket path",
    )
    service_submit.add_argument(
        "--stream",
        action="store_true",
        help="hold the connection and print progress until the job ends",
    )
    service_submit.set_defaults(handler=_cmd_service_submit)

    for verb, help_text in (
        ("status", "queue depth, in-flight job, and service counters"),
        ("ping", "liveness check"),
        ("shutdown", "ask the daemon to drain and exit"),
    ):
        verb_parser = service_commands.add_parser(verb, help=help_text)
        verb_parser.add_argument(
            "--socket",
            default=".addc-service/service.sock",
            help="daemon socket path",
        )
        verb_parser.set_defaults(handler=_cmd_service_verb)

    service_top = service_commands.add_parser(
        "top",
        help="live telemetry: queue, cache, quarantine, per-phase timings",
    )
    service_top.add_argument(
        "--socket",
        default=".addc-service/service.sock",
        help="daemon socket path",
    )
    service_top.add_argument(
        "--json", action="store_true", help="emit raw stats_report JSON"
    )
    service_top.add_argument(
        "--count",
        type=int,
        default=1,
        help="snapshots to take before exiting (default: 1)",
    )
    service_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between snapshots (default: 2)",
    )
    service_top.set_defaults(handler=_cmd_service_top)

    service_result = service_commands.add_parser(
        "result", help="fetch a job's result by fingerprint"
    )
    service_result.add_argument("fingerprint", help="job fingerprint")
    service_result.add_argument(
        "--socket",
        default=".addc-service/service.sock",
        help="daemon socket path",
    )
    service_result.set_defaults(handler=_cmd_service_verb)

    service_smoke = service_commands.add_parser(
        "smoke",
        help="CI mode: start a daemon, fill the queue, SIGKILL it "
        "mid-run, restart, assert byte-identical recovery and a "
        "cache hit",
    )
    service_smoke.set_defaults(handler=_cmd_service_smoke)

    lint = commands.add_parser(
        "lint",
        help="run reprolint, the determinism & paper-invariant linter",
    )
    from repro.lint.cli import configure_parser as _configure_lint_parser

    _configure_lint_parser(lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
