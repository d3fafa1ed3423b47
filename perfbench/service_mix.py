"""The ``service-mix`` workload: a real experiment daemon under a
closed-loop client.

The daemon is ``python -m repro serve --workers 2`` (the ``addc-repro
serve`` entry point) started as a subprocess in a fresh state directory
inside the checkout's run directory.  One client process talks to it
through :class:`repro.service.client.ServiceClient`, one exchange at a
time: it sends the next submit only after the previous answer arrived.

Jobs are bench-scale ``compare`` jobs with two repetitions.  Their seeds
come from a pinned pool, always in the same order, in blocks of four:
each block submits four new specs (misses) and each of them again (hits).
The workload seed only interleaves a block's misses and hits, a hit never
before its miss, so every run does the same work.  A run stops at a block
boundary, so every run answers exactly as many hits as misses.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    CheckFailure,
    first_mismatch,
    median,
    program_env,
    safe_ratio,
    tail,
)
from spans import Tracer, UNIT_LAYER, coverage

WORKERS = 2
SPEC_REPETITIONS = 2
BLOCK_SPECS = 4
WARMUP_SEED = 9000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def spec_for(seed: int):
    from repro.service.jobs import JobSpec

    return JobSpec(kind="compare", scale="bench", seed=seed, repetitions=SPEC_REPETITIONS)


def submit_plan(seed: int, pool: List[int]) -> List[List[Tuple[str, int]]]:
    """Blocks of ``(kind, spec seed)`` submits; a pure function of ``seed``.

    The blocks take ``pool`` in its order; ``seed`` only interleaves the
    misses and hits within each block.
    """
    rng = random.Random(f"service-mix/{seed}")
    order = list(pool)
    blocks = []
    for first in range(0, len(order) - BLOCK_SPECS + 1, BLOCK_SPECS):
        pending = order[first:first + BLOCK_SPECS]
        missed: List[int] = []
        steps: List[Tuple[str, int]] = []
        while pending or missed:
            if pending and (not missed or rng.random() < 0.5):
                missed.append(pending.pop(0))
                steps.append(("miss", missed[-1]))
            else:
                steps.append(("hit", missed.pop(rng.randrange(len(missed)))))
        blocks.append(steps)
    return blocks


def delays_of(artifact: Dict) -> Dict:
    comparison = artifact["points"][0]["comparison"]
    return {
        "addc_delays_ms": comparison["addc_delays_ms"],
        "coolest_delays_ms": comparison["coolest_delays_ms"],
    }


class Daemon:
    """One ``repro serve`` subprocess and its state directory."""

    def __init__(self, directory: Path) -> None:
        from repro.service.client import ServiceClient

        self.directory = directory
        self.state = directory / "state"
        self.log_path = directory / "daemon.log"
        self.client = ServiceClient(directory / "svc.sock", timeout_s=120.0)
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> None:
        from repro.errors import ServiceError

        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", str(self.client.socket_path),
                 "--state-dir", str(self.state),
                 "--workers", str(WORKERS)],
                env=program_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if self.client.ping().get("type") == "pong":
                    return
            except ServiceError:
                pass
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise CheckFailure(f"daemon did not come up: {self.log_tail()}")
            time.sleep(0.01)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-600:]
        except OSError:
            return "(no daemon log)"

    def stop(self) -> None:
        """Drain the daemon, wait for it, and remove its directory."""
        from repro.errors import ServiceError

        try:
            if self.process is not None and self.process.poll() is None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    self.process.terminate()
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    # ---- per-job artifacts ------------------------------------------ #

    def job_files(self, fingerprint: str) -> List[Path]:
        job_dir = self.state / "jobs" / fingerprint
        files = [p for p in job_dir.rglob("*") if p.is_file()]
        files += sorted((self.state / "cache").glob(f"{fingerprint}.*"))
        return files

    def job_stats(self, fingerprint: str) -> Dict[str, float]:
        """What one finished miss left on disk, read after the timed loop."""
        job_dir = self.state / "jobs" / fingerprint
        files = self.job_files(fingerprint)
        journal = job_dir / "checkpoint.ndjson"
        shards = list((job_dir / "trace").glob("*.ndjson"))
        manifest = _read_json(self.state / "cache" / f"{fingerprint}.manifest.json")
        counters = manifest.get("metrics", {}).get("counters", {})
        profile = manifest.get("profile", {})
        reps = [
            span.get("total_ms", 0.0) / 1000.0
            for span in _read_ndjson(job_dir / "trace.ndjson")
            if str(span.get("name", "")).startswith("rep-")
        ]
        return {
            "wall_s": float(manifest.get("wall_time_s", 0.0)),
            # Repetitions run in parallel on the pool: the critical path is
            # at least the longest one and at least their total per worker.
            "rep_critical_s": max(max(reps, default=0.0), sum(reps) / WORKERS),
            "journal_records": len(journal.read_bytes().splitlines()) if journal.exists() else 0,
            "journal_bytes": journal.stat().st_size if journal.exists() else 0,
            "trace_shard_bytes": sum(p.stat().st_size for p in shards),
            "storage_bytes": sum(p.stat().st_size for p in files),
            "storage_files": len(files),
            "slots": counters.get("engine.slots"),
            "ff_slots": counters.get("engine.fastforward_slots", 0),
            "tx_attempts": counters.get("engine.tx_attempts", 0),
            "collisions": counters.get("engine.collisions", 0),
            "run_s": profile.get("engine.run", {}).get("total_ms", 0.0) / 1000.0,
            **{
                f"phase.{name[len('engine.phase.'):]}": stats.get("total_ms", 0.0) / 1000.0
                for name, stats in profile.items()
                if name.startswith("engine.phase.")
            },
        }


def _read_json(path: Path) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _read_ndjson(path: Path) -> List[Dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except (OSError, ValueError):
        return []


def pool_payload_bytes(spec, directory: Path) -> int:
    """Pickled bytes the program ships to its worker pool for one job.

    Runs ``spec`` in this process through the daemon's own job entry
    point, :func:`repro.service.jobs.execute_job`, with the daemon's
    worker count and a pool whose ``submit`` pickles each call's
    arguments as a process pool would, counts the bytes, and runs the
    call inline on the unpickled copy.  ``directory`` holds the job's
    files and is removed afterwards; keep its path fixed, since the
    shipped trace directory is part of the payload.
    """
    from concurrent.futures import Future
    from multiprocessing.reduction import ForkingPickler

    from repro.perf.pool import WarmWorkerPool
    from repro.service.jobs import execute_job

    class PayloadPool(WarmWorkerPool):
        def __init__(self) -> None:
            super().__init__(WORKERS)
            self.sizes: List[int] = []

        def submit(self, fn, *args) -> Future:
            payload = ForkingPickler.dumps(args)
            self.sizes.append(len(payload))
            future: Future = Future()
            try:
                future.set_result(fn(*ForkingPickler.loads(payload)))
            except Exception as exc:  # noqa: BLE001 - handed back like a worker's error
                future.set_exception(exc)
            return future

    shutil.rmtree(directory, ignore_errors=True)
    (directory / "cache").mkdir(parents=True)
    fingerprint = spec.fingerprint()
    pool = PayloadPool()
    try:
        execute_job(
            spec,
            directory / "cache" / f"{fingerprint}.json",
            checkpoint_path=directory / "jobs" / fingerprint / "checkpoint.ndjson",
            workers=WORKERS,
            pool=pool,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if not pool.sizes:
        raise CheckFailure("the job shipped nothing to the worker pool")
    return sum(pool.sizes)


class ServiceMix:
    """Set-up, closed-loop measurement and artifact accounting."""

    def __init__(self, seed: int, pins: Dict, ledger, base: Path) -> None:
        self.pins = pins["service-mix"]
        self.ledger = ledger
        self.base = base
        pool = sorted(int(s) for s in self.pins["specs"])
        self.blocks = submit_plan(seed, pool)
        self.daemon: Optional[Daemon] = None
        self.warmup_latencies: List[float] = []

    # ---- set-up ------------------------------------------------------- #

    def setup(self) -> Tuple[float, float]:
        """Start a daemon and run one warm-up miss through it; returns the
        ``perf_counter`` times the set-up started and ended.

        A previous set-up's daemon is drained and removed first, outside
        the timed part, so only the last one stays up for the timed loop.
        """
        if self.daemon is not None:
            self.daemon.stop()
        started = time.perf_counter()
        self.daemon = Daemon(Path(tempfile.mkdtemp(prefix="svc-", dir=self.base)))
        self.daemon.start()
        warm_started = time.perf_counter()
        reply = self.daemon.client.submit(spec_for(WARMUP_SEED), stream=True)
        self.warmup_latencies.append(time.perf_counter() - warm_started)
        if reply.get("type") != "completed":
            raise CheckFailure(f"warm-up job answered {reply.get('type')}: {reply}")
        problem = first_mismatch(
            "service-mix warm-up", delays_of(reply["artifact"]), self.pins["warmup"]["delays"]
        )
        if problem is not None:
            raise CheckFailure(problem)
        return started, time.perf_counter()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # ---- the closed loop ------------------------------------------------ #

    def measure(self, seconds: float, blocks: List[List[Tuple[str, int]]],
                tracer: Optional[Tracer] = None) -> Dict:
        client = self.daemon.client
        payloads: Dict[int, str] = {}
        misses: List[Dict] = []
        hit_latencies: List[float] = []
        errors: List[str] = []
        attempted = failed = retry_after = 0
        started = time.perf_counter()
        block_walls: List[float] = []
        for block in blocks:
            # Start a block only while the median block still fits.
            block_started = time.perf_counter()
            if block_walls and block_started - started + median(block_walls) > seconds:
                break
            for kind, seed in block:
                attempted += 1
                spec = spec_for(seed).to_dict()
                events: List[Tuple[str, float]] = []
                on_event = None
                if tracer is not None:
                    on_event = lambda e: events.append((e.get("type"), time.perf_counter()))  # noqa: E731
                submitted = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.unit(f"service-mix/{kind}-{seed}"):
                            with tracer.span("service.submit", "service") as exchange:
                                reply = client.submit(spec, stream=True, on_event=on_event)
                    else:
                        reply = client.submit(spec, stream=True)
                    answered = time.perf_counter()
                    answer = reply.get("type")
                    if answer == "retry_after":
                        retry_after += 1
                        raise CheckFailure("refused with retry_after")
                    latency = answered - submitted
                    if kind == "miss":
                        if answer != "completed":
                            raise CheckFailure(f"miss answered {answer}: {reply}")
                        want = self.pins["specs"][str(seed)]["delays"]
                        problem = first_mismatch(f"spec {seed}", delays_of(reply["artifact"]), want)
                        if problem is not None:
                            raise CheckFailure(problem)
                        payloads[seed] = json.dumps(reply["artifact"], sort_keys=True)
                        record = {"seed": seed, "fingerprint": reply["fingerprint"],
                                  "latency": latency}
                        if tracer is not None:
                            record["exchange"] = exchange
                            record["events"] = [(k, t - submitted) for k, t in events]
                        misses.append(record)
                    else:
                        if answer != "cache_hit":
                            raise CheckFailure(f"hit answered {answer}")
                        if json.dumps(reply["artifact"], sort_keys=True) != payloads.get(seed):
                            raise CheckFailure(f"spec {seed}: hit payload differs from its miss")
                        hit_latencies.append(latency)
                except Exception as exc:  # noqa: BLE001 - a failed exchange counts, the loop goes on
                    failed += 1
                    errors.append(f"{kind} {seed}: {exc}")
            block_walls.append(time.perf_counter() - block_started)
        ended = time.perf_counter()
        return {
            "misses": misses,
            "hit_latencies": hit_latencies,
            "started": started,
            "ended": ended,
            "elapsed": ended - started,
            "attempted": attempted,
            "failed": failed,
            "retry_after": retry_after,
            "errors": errors,
            "blocks_used": len(block_walls),
        }

    # ---- after the loop ------------------------------------------------- #

    def account(self, run: Dict) -> Dict[str, Dict[str, float]]:
        """Read each miss's artifacts and check its work counters repeat."""
        stats: Dict[str, Dict[str, float]] = {}
        for miss in run["misses"]:
            job = self.daemon.job_stats(miss["fingerprint"])
            stats[miss["fingerprint"]] = job
            pinned_slots = self.pins["specs"][str(miss["seed"])]["slots"]
            if job["slots"] is None:
                raise CheckFailure(f"spec {miss['seed']}: no engine.slots counter in its manifest")
            if job["slots"] != pinned_slots:
                raise CheckFailure(
                    f"spec {miss['seed']}: {job['slots']} slots, pinned {pinned_slots}"
                )
            counters = {k: job[k] for k in ("journal_records", "ff_slots", "tx_attempts",
                                            "collisions")}
            if not self.ledger.check(f"service-mix/spec-{miss['seed']}", counters):
                raise CheckFailure(self.ledger.mismatches[-1])
        return stats

    def summarize(self, run: Dict, slowdown: float = 1.0) -> Dict[str, float]:
        """End-to-end figures; seconds are divided by the host ``slowdown``
        over the loop.  The probe runs in the client while it waits, so
        its own time is not taken off the latencies."""
        misses = run["misses"]
        latencies = [m["latency"] / slowdown for m in misses]
        slots = sum(self.pins["specs"][str(m["seed"])]["slots"] for m in misses)
        answered = len(misses) + len(run["hit_latencies"])
        return {
            "rep_s": median(latencies),
            "sim_slots_per_s": safe_ratio(slots, sum(latencies)),
            "jobs_per_s": safe_ratio(answered, run["elapsed"] / slowdown),
        }

    def service_figures(self, run: Dict) -> Dict[str, float]:
        """Latency split by class, as printed and as traced per-layer figures."""
        latencies = [m["latency"] for m in run["misses"]]
        miss_tail, miss_pct = tail(latencies)
        hit_tail, hit_pct = tail(run["hit_latencies"])
        answered = len(run["misses"]) + len(run["hit_latencies"])
        return {
            "service.miss_latency_p50_s": median(latencies),
            "service.miss_latency_tail_s": miss_tail,
            "service.miss_tail_percentile": miss_pct,
            "service.hit_latency_p50_ms": median(run["hit_latencies"]) * 1000.0,
            "service.hit_latency_tail_ms": hit_tail * 1000.0,
            "service.hit_tail_percentile": hit_pct,
            "service.hit_ratio": safe_ratio(len(run["hit_latencies"]), answered),
            "service.retry_after": run["retry_after"],
        }

    def layer_metrics(self, tracer: Tracer, traced: Dict, untraced: Dict,
                      stats: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        """Per-layer figures of a traced run (client spans + artifacts)."""
        accept, queue_wait, overhead, dispatch = [], [], [], []
        for miss in traced["misses"]:
            job = stats[miss["fingerprint"]]
            events = dict(reversed(miss["events"]))  # first time of each kind
            accept.append(events.get("accepted", 0.0))
            queue_wait.append(events.get("progress", miss["latency"]) - events.get("accepted", 0.0))
            overhead.append(miss["latency"] - job["wall_s"])
            dispatch.append(miss["latency"] - job["rep_critical_s"])
            exchange = miss["exchange"]
            tracer.add("service.accept", "service", exchange.start,
                       exchange.start + events.get("accepted", 0.0), exchange)
            job_end = exchange.end
            job_span = tracer.add("harness.job", "harness", job_end - job["wall_s"],
                                  job_end, exchange)
            tracer.add("sim.repetitions", "sim", job_span.start,
                       job_span.start + job["rep_critical_s"], job_span)
        all_stats = list(stats.values())

        def per_job(key: str) -> float:
            return median([s[key] for s in all_stats]) if all_stats else 0.0

        def total(key: str) -> float:
            return sum(s.get(key, 0.0) for s in all_stats)

        mix_slots_per_s = self.summarize(traced)["sim_slots_per_s"] if traced["misses"] else 0.0
        unit_ids = sorted({s.unit for s in tracer.spans if s.unit != "setup"})
        self_times = tracer.layer_self_times(unit_ids)
        unit_wall = sum(s.duration for s in tracer.spans
                        if s.layer == UNIT_LAYER and s.unit in unit_ids)
        slots, ff_slots = total("slots"), total("ff_slots")
        tx, collisions = total("tx_attempts"), total("collisions")
        run_s = total("run_s")
        phases = {k: v for k, v in all_stats[0].items() if k.startswith("phase.")} if all_stats else {}
        values = {
            "service.accept_s": median(accept) if accept else 0.0,
            "service.queue_wait_s": median(queue_wait) if queue_wait else 0.0,
            "service.overhead_s": median(overhead) if overhead else 0.0,
            "perf.dispatch_overhead_s": median(dispatch) if dispatch else 0.0,
            "perf.pool_spawn_s": median(self.warmup_latencies)
            - median([m["latency"] for m in untraced["misses"]]),
            "harness.journal_records": per_job("journal_records"),
            "harness.journal_bytes": per_job("journal_bytes"),
            "obs.trace_shard_bytes": per_job("trace_shard_bytes"),
            "storage.bytes_per_job": per_job("storage_bytes"),
            "storage.files_per_job": per_job("storage_files"),
            "sim.run_s": run_s,
            "sim.slots": slots,
            "sim.ff_slots": ff_slots,
            "sim.ff_fraction": safe_ratio(ff_slots, slots),
            "sim.slots_per_s": mix_slots_per_s,
            "sim.us_per_stepped_slot": safe_ratio(run_s * 1e6, slots - ff_slots),
            "sim.tx_attempts": tx,
            "sim.collisions": collisions,
            "sim.collision_ratio": safe_ratio(collisions, tx),
            "sim.unattributed_s": run_s - sum(total(k) for k in phases),
            "obs.trace_overhead": median([m["latency"] for m in traced["misses"]])
            / median([m["latency"] for m in untraced["misses"]]) - 1.0,
            "obs.layer_coverage": coverage(self_times, unit_wall),
            "obs.unattributed_s": self_times.get(UNIT_LAYER, 0.0),
        }
        for key in phases:
            values[f"sim.{key}_s"] = total(key)
        for layer, seconds in self_times.items():
            if layer != UNIT_LAYER:
                values[f"{layer}.self_s"] = seconds
        return values
