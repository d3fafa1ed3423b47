"""One-call ADDC data collection.

Glues the pieces together in the order the paper presents them: build the
CDS-based collection tree over ``G_s``, derive the PCR, configure carrier
sensing, run Algorithm 1 until the snapshot is collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.addc import AddcPolicy
from repro.core.analysis import TheoreticalBounds, opportunity_probability
from repro.errors import ConfigurationError
from repro.core.pcr import PcrParameters, PcrResult, compute_pcr, db_to_linear
from repro.graphs.tree import CollectionTree, build_bfs_tree, build_collection_tree
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.sim.results import SimulationResult
from repro.sim.trace import TraceLog
from repro.spectrum.sensing import CarrierSenseMap

__all__ = ["CollectionOutcome", "run_addc_collection"]


@dataclass
class CollectionOutcome:
    """A finished run plus everything needed to interpret it."""

    result: SimulationResult
    tree: CollectionTree
    pcr: PcrResult
    sense_map: CarrierSenseMap
    bounds: Optional[TheoreticalBounds] = None
    #: The engine that produced ``result``; exposes post-run RNG stream
    #: positions (``engine.rng_positions()``) for determinism checks.
    engine: Optional[SlottedEngine] = None


def run_addc_collection(
    topology: CrnTopology,
    streams: StreamFactory,
    eta_p_db: float = 8.0,
    eta_s_db: float = 8.0,
    alpha: float = 4.0,
    zeta_bound: str = "paper",
    fairness_wait: bool = True,
    use_cds_tree: bool = True,
    blocking: str = "geometric",
    p_t: Optional[float] = None,
    p_false_alarm: float = 0.0,
    p_missed_detection: float = 0.0,
    rounds: int = 1,
    period_slots: Optional[int] = None,
    num_channels: int = 1,
    channel_strategy: str = "random-idle",
    packet_slots: int = 1,
    fault_plan=None,
    max_slots: int = 2_000_000,
    fast_forward: bool = True,
    contention_window_ms: float = 0.5,
    slot_duration_ms: float = 1.0,
    trace: Optional[TraceLog] = None,
    with_bounds: bool = True,
) -> CollectionOutcome:
    """Collect one snapshot (or a periodic stream of them) with ADDC.

    Parameters mirror the paper's simulation settings; ``use_cds_tree=False``
    swaps in the BFS-tree routing structure (Ablation C), and
    ``fairness_wait=False`` disables line 12 of Algorithm 1 (Ablation A).
    ``p_false_alarm`` / ``p_missed_detection`` enable imperfect spectrum
    sensing.  ``rounds > 1`` with ``period_slots`` runs the continuous
    (periodic-snapshot) workload instead of the paper's single snapshot.
    ``fault_plan`` injects scripted adversity (:mod:`repro.faults`).
    ``num_channels > 1`` spreads the PUs uniformly over that many licensed
    channels (the paper's model is the single-channel case).
    """
    pcr_params = PcrParameters(
        alpha=alpha,
        pu_power=topology.primary.power,
        su_power=topology.secondary.power,
        pu_radius=topology.primary.radius,
        su_radius=topology.secondary.radius,
        eta_p_db=eta_p_db,
        eta_s_db=eta_s_db,
        zeta_bound=zeta_bound,
    )
    pcr = compute_pcr(pcr_params)

    builder = build_collection_tree if use_cds_tree else build_bfs_tree
    tree = builder(topology.secondary.graph, topology.secondary.base_station)

    sense_map = CarrierSenseMap(topology, pcr.pcr)
    policy = AddcPolicy(
        tree, fairness_wait=fairness_wait, graph=topology.secondary.graph
    )
    effective_p_t = (
        p_t if p_t is not None else topology.primary.activity.stationary_probability
    )
    channel_plan = None
    if num_channels > 1:
        from repro.network.channels import ChannelPlan

        channel_plan = ChannelPlan.uniform(
            topology.primary.num_pus, num_channels, streams.stream("channel-plan")
        )
    homogeneous_p_o = None
    if blocking == "homogeneous":
        # Per-channel mean field: with C channels, each carries N/C PUs on
        # average, so the per-channel opportunity probability uses N/C.
        homogeneous_p_o = opportunity_probability(
            effective_p_t,
            pcr.kappa,
            topology.secondary.radius,
            topology.primary.num_pus / num_channels,
            topology.region.area,
        )
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=policy,
        streams=streams,
        alpha=alpha,
        eta_s=db_to_linear(eta_s_db),
        sir_check=True,
        blocking=blocking,
        homogeneous_p_o=homogeneous_p_o,
        p_false_alarm=p_false_alarm,
        p_missed_detection=p_missed_detection,
        channel_plan=channel_plan,
        channel_strategy=channel_strategy,
        packet_slots=packet_slots,
        fault_plan=fault_plan,
        slot_duration_ms=slot_duration_ms,
        contention_window_ms=contention_window_ms,
        max_slots=max_slots,
        fast_forward=fast_forward,
        trace=trace,
    )
    if rounds > 1:
        if period_slots is None:
            raise ConfigurationError("periodic collection needs period_slots")
        from repro.workloads.periodic import periodic_snapshot_workload

        engine.load_packets(
            periodic_snapshot_workload(topology.secondary, rounds, period_slots)
        )
    else:
        engine.load_snapshot()
    result = engine.run()

    bounds = None
    if with_bounds:
        bounds = TheoreticalBounds.for_scenario(
            num_sus=topology.secondary.num_sus,
            num_pus=topology.primary.num_pus,
            area=topology.region.area,
            p_t=effective_p_t,
            kappa=pcr.kappa,
            su_radius=topology.secondary.radius,
            delta=tree.max_degree(),
            root_degree=max(tree.root_degree(), 1),
        )
    return CollectionOutcome(
        result=result,
        tree=tree,
        pcr=pcr,
        sense_map=sense_map,
        bounds=bounds,
        engine=engine,
    )
