"""The two engine workloads: ``paper-point`` and ``engine-features``.

``paper-point``
    One unit is one ADDC + Coolest repetition of the paper's Fig. 6
    default point (``ExperimentConfig.paper_scale()``: 250 x 250, n = 2000,
    N = 400, p_t = 0.3, homogeneous blocking), run serially through
    :func:`repro.experiments.runner.run_comparison_repetition` with no
    recorder and no pool.

``engine-features``
    One unit is one ADDC collection over the same paper-scale deployment
    (repetition 0 of the Fig. 6 point) with two licensed channels, a
    seeded :func:`repro.faults.chaos_plan` outage plan at intensity 0.25
    (no stuck-sensing windows: homogeneous blocking rejects stuck-idle)
    and ``p_false_alarm = 0.05``, through
    :func:`repro.core.collector.run_addc_collection`.  Multi-channel
    disables fast-forward, so every slot is stepped.

Every unit of both workloads runs the same pinned input (repetition
:data:`INPUT` of the Fig. 6 point), so each unit does the same work and
two runs differ only by the host.  The workload seed therefore changes
nothing here: the repetitions of the point differ up to 2x in slot
count, and letting the seed pick one would mix input size into the
spread of every timing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from common import CheckFailure, first_mismatch, median, safe_ratio
from hostspeed import HostProbe
from spans import Tracer, UNIT_LAYER, coverage

#: The Fig. 6 repetition every unit runs.
INPUT = 0
FEATURE_HORIZON_SLOTS = 8000
FEATURE_INTENSITY = 0.25
FEATURE_CHANNELS = 2
FEATURE_P_FALSE_ALARM = 0.05

ENGINE_PHASES = ("pu_redraw", "sensing", "backoff", "adjudicate", "deliver", "frozen_wait")


class EngineCapture:
    """Records each :meth:`SlottedEngine.run`'s work counters (no timing)."""

    def __init__(self) -> None:
        from repro.sim.engine import SlottedEngine

        self.records: List[Dict] = []
        self._owner = SlottedEngine
        self._original = SlottedEngine.__dict__["run"]
        original = self._original
        records = self.records

        def run(engine):
            result = original(engine)
            records.append({
                "slots": int(result.slots_simulated),
                "ff_slots": int(getattr(engine, "fastforward_slots", 0)),
                "tx_attempts": int(result.total_transmissions),
                "collisions": int(result.collisions),
                "fault_events": int(result.fault_event_count),
                "completed": bool(result.completed),
            })
            return result

        SlottedEngine.run = run

    def restore(self) -> None:
        self._owner.run = self._original


def wrap_engine_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of each engine-side layer."""
    from repro.core.collector import run_addc_collection
    from repro.faults import chaos_plan
    from repro.graphs.dijkstra import dijkstra_bottleneck, dijkstra_node_weighted
    from repro.graphs.tree import build_collection_tree
    from repro.network.deployment import deploy_crn
    from repro.routing.coolest import run_coolest_collection
    from repro.routing.temperature import node_temperatures_at_range
    from repro.sim.engine import SlottedEngine
    from repro.spectrum.sensing import CarrierSenseMap

    for function, name, layer in (
        (deploy_crn, "network.deploy", "network"),
        (build_collection_tree, "graphs.tree", "graphs"),
        (dijkstra_node_weighted, "graphs.dijkstra", "graphs"),
        (dijkstra_bottleneck, "graphs.dijkstra", "graphs"),
        (node_temperatures_at_range, "spectrum.temperatures", "spectrum"),
        (run_addc_collection, "sim.addc_run", "core"),
        (run_coolest_collection, "sim.coolest_run", "routing"),
        (chaos_plan, "faults.plan", "faults"),
    ):
        tracer.wrap_function(function, name, layer)
    tracer.wrap_method(CarrierSenseMap, "__init__", "spectrum.sense_map", "spectrum")
    tracer.wrap_method(SlottedEngine, "run", "sim.run", "sim")


# ---- inputs and units --------------------------------------------------- #


def paper_config():
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig.paper_scale()


def feature_inputs(config, index: int):
    """Deployment + fault plan of engine-features input ``index``."""
    from repro.experiments.runner import deploy_for_repetition
    from repro.faults import chaos_plan
    from repro.rng import StreamFactory

    factory = StreamFactory(config.seed).spawn(f"engine-features-{index}")
    topology = deploy_for_repetition(config, index)
    plan = chaos_plan(
        topology.secondary.su_ids(),
        FEATURE_HORIZON_SLOTS,
        FEATURE_INTENSITY,
        factory,
        sensing_fault_fraction=0.0,
    )
    return topology, plan, factory


def run_paper_unit(config, index: int) -> Dict:
    from repro.experiments.runner import run_comparison_repetition

    measurement = run_comparison_repetition(config, index)
    return {
        "addc": {
            "delay_ms": measurement.addc_delay_ms,
            "rng": measurement.rng_positions.get("addc"),
        },
        "coolest": {
            "delay_ms": measurement.coolest_delay_ms,
            "rng": measurement.rng_positions.get("coolest"),
        },
    }


def run_feature_unit(config, inputs) -> Dict:
    from repro.core.collector import run_addc_collection

    topology, plan, factory = inputs
    outcome = run_addc_collection(
        topology,
        factory.spawn("addc"),
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        alpha=config.alpha,
        zeta_bound=config.zeta_bound,
        blocking=config.blocking,
        num_channels=FEATURE_CHANNELS,
        p_false_alarm=FEATURE_P_FALSE_ALARM,
        fault_plan=plan,
        max_slots=config.max_slots,
        contention_window_ms=config.contention_window_ms,
        slot_duration_ms=config.slot_duration_ms,
        with_bounds=False,
    )
    result = outcome.result
    return {
        "delay_ms": result.delay_ms,
        "delivered": int(result.delivered),
        "lost": int(result.packets_lost),
        "plan_events": len(plan),
        "rng": outcome.engine.rng_positions(),
    }


def unit_outputs(workload: str, output: Dict, engines: List[Dict]) -> Dict:
    """The pinned view of one unit: results plus result-defined counters."""
    keep = ("slots", "tx_attempts", "collisions", "fault_events", "completed")
    if workload == "paper-point":
        return {
            algo: {**output[algo], **{k: engine[k] for k in keep}}
            for algo, engine in zip(("addc", "coolest"), engines)
        }
    (engine,) = engines
    return {**output, **{k: engine[k] for k in keep}}


def check_unit(workload: str, index: int, outputs: Dict, pins: Dict) -> None:
    pinned = pins[workload]["inputs"].get(str(index))
    if pinned is None:
        raise CheckFailure(f"{workload}: no pinned outputs for input {index}")
    problem = first_mismatch(f"{workload} input {index}", outputs, pinned)
    if problem is not None:
        raise CheckFailure(problem)


# ---- the workload ------------------------------------------------------- #


class EngineWorkload:
    """Set-up, timed units and the traced unit of one engine workload."""

    def __init__(self, name: str, pins: Dict, ledger) -> None:
        self.name = name
        self.pins = pins
        self.ledger = ledger
        self.config = None
        self.capture: Optional[EngineCapture] = None
        self._prepared = None

    def setup(self) -> Tuple[float, float]:
        """One set-up (run several times per run); returns the
        ``perf_counter`` times it started and ended."""
        started = time.perf_counter()
        self.config = paper_config()
        if self.name == "engine-features":
            self._prepared = feature_inputs(self.config, INPUT)
        return started, time.perf_counter()

    def _inputs(self):
        """Fresh deployment + fault plan for the next unit (untimed)."""
        inputs, self._prepared = self._prepared, None
        return inputs if inputs is not None else feature_inputs(self.config, INPUT)

    def unit(self) -> Tuple[float, float, List[Dict]]:
        """Run and check one unit; returns ``(start, end, engine records)``
        in ``perf_counter`` seconds."""
        inputs = self._inputs() if self.name == "engine-features" else None
        first = len(self.capture.records)
        started = time.perf_counter()
        if self.name == "paper-point":
            output = run_paper_unit(self.config, INPUT)
        else:
            output = run_feature_unit(self.config, inputs)
        ended = time.perf_counter()
        engines = self.capture.records[first:]
        check_unit(self.name, INPUT, unit_outputs(self.name, output, engines), self.pins)
        counters = {f"engine{i}.ff_slots": e["ff_slots"] for i, e in enumerate(engines)}
        if not self.ledger.check(self.name, counters):
            raise CheckFailure(self.ledger.mismatches[-1])
        return started, ended, engines

    def measure(self, seconds: float, probe: HostProbe) -> Dict:
        """Untraced timed units within ``seconds`` (at least one), with
        each unit's and the window's seconds at reference host speed.

        Another unit starts only while the median unit so far still fits
        in the window, so a run ends close to ``seconds`` at any speed.
        """
        walls: List[float] = []
        reference_walls: List[float] = []
        slots = 0
        attempted = failed = 0
        errors: List[str] = []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started + median(walls) <= seconds:
            attempted += 1
            try:
                unit_start, unit_end, engines = self.unit()
            except Exception as exc:  # noqa: BLE001 - a unit that raises counts as failed
                failed += 1
                errors.append(f"input {INPUT}: {exc}")
                break
            walls.append(unit_end - unit_start)
            reference_walls.append(probe.reference_seconds(unit_start, unit_end))
            slots += sum(e["slots"] for e in engines)
        ended = time.perf_counter()
        return {
            "walls": walls,
            "reference_walls": reference_walls,
            "slots": slots,
            "elapsed": ended - started,
            "reference_elapsed": probe.reference_seconds(started, ended),
            "slowdown": probe.slowdown(started, ended),
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
        }

    def traced(self, tracer: Tracer) -> Dict:
        """One untraced then one traced unit."""
        import repro.obs as obs

        start, end, _ = self.unit()
        untraced_wall = end - start
        wrap_engine_layers(tracer)
        recorder = obs.MetricsRecorder()
        try:
            with obs.use_recorder(recorder):
                if self.name == "engine-features":
                    # Deployment and fault plan are set-up, outside the unit.
                    self._prepared = feature_inputs(self.config, INPUT)
                unit_id = f"{self.name}/input-{INPUT}"
                with tracer.unit(unit_id) as root:
                    _, _, engines = self.unit()
        finally:
            tracer.restore()
        return layer_metrics(tracer, unit_id, root.duration, untraced_wall,
                             engines, recorder.profile())


def layer_metrics(tracer: Tracer, unit_id: str, unit_wall: float,
                  untraced_wall: float, engines: List[Dict], profile: Dict) -> Dict[str, float]:
    units = [unit_id]
    run_s = tracer.total("sim.run", units)
    slots = sum(e["slots"] for e in engines)
    ff_slots = sum(e["ff_slots"] for e in engines)
    tx = sum(e["tx_attempts"] for e in engines)
    collisions = sum(e["collisions"] for e in engines)
    phases = {
        phase: profile.get(f"engine.phase.{phase}", {}).get("total_ms", 0.0) / 1000.0
        for phase in ENGINE_PHASES
    }
    self_times = tracer.layer_self_times(units)
    values = {
        "network.deploy_s": tracer.total("network.deploy"),  # in set-up on engine-features
        "graphs.tree_s": tracer.total("graphs.tree", units),
        "graphs.dijkstra_s": tracer.total("graphs.dijkstra", units),
        "spectrum.sense_map_s": tracer.total("spectrum.sense_map", units),
        "spectrum.temperatures_s": tracer.total("spectrum.temperatures", units),
        "sim.addc_run_s": tracer.total("sim.addc_run", units),
        "sim.coolest_run_s": tracer.total("sim.coolest_run", units),
        "sim.run_s": run_s,
        "sim.us_per_stepped_slot": safe_ratio(run_s * 1e6, slots - ff_slots),
        "sim.slots": slots,
        "sim.ff_slots": ff_slots,
        "sim.ff_fraction": safe_ratio(ff_slots, slots),
        "sim.slots_per_s": safe_ratio(slots, unit_wall),
        "sim.unattributed_s": run_s - sum(phases.values()),
        "sim.tx_attempts": tx,
        "sim.collisions": collisions,
        "sim.collision_ratio": safe_ratio(collisions, tx),
        "faults.plan_s": tracer.total("faults.plan"),  # set-up: outside the unit
        "faults.events": sum(e["fault_events"] for e in engines),
        "obs.trace_overhead": unit_wall / untraced_wall - 1.0,
        "obs.layer_coverage": coverage(self_times, unit_wall),
        "obs.unattributed_s": self_times.get(UNIT_LAYER, 0.0),
    }
    for phase, seconds in phases.items():
        values[f"sim.phase.{phase}_s"] = seconds
    for layer, seconds in self_times.items():
        if layer != UNIT_LAYER:
            values[f"{layer}.self_s"] = seconds
    return values


def summarize(run: Dict) -> Dict[str, float]:
    """End-to-end figures of an untraced engine run, at reference host
    speed."""
    walls = run["reference_walls"]
    return {
        "rep_s": median(walls),
        "sim_slots_per_s": safe_ratio(run["slots"], sum(walls)),
        "jobs_per_s": safe_ratio(len(walls), run["reference_elapsed"]),
    }


def host_figures(run: Dict) -> Dict[str, float]:
    """The raw wall-clock view of the same run, printed beside it."""
    return {
        "host.slowdown": run["slowdown"] or 0.0,
        "host.rep_wall_s": median(run["walls"]),
        "host.sim_slots_per_wall_s": safe_ratio(run["slots"], sum(run["walls"])),
    }
