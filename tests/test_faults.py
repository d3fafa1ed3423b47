"""Tests for the fault-injection subsystem (``repro.faults``).

Covers the plan schema and generators, every fault kind's engine
semantics (crash-stop, transient outage with rejoin, stuck sensing,
link degradation, base-station blackout), deferred arrivals, the
replayability guarantees (fixed-seed identity, fault-free neutrality for
an idle leaf), and the resilience metrics over the outcomes.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.addc import AddcPolicy
from repro.core.collector import run_addc_collection
from repro.core.pcr import db_to_linear
from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    chaos_plan,
    crash_plan,
    mtbf_outage_plan,
)
from repro.geometry.region import SquareRegion
from repro.graphs.tree import build_collection_tree
from repro.metrics.resilience import resilience_report
from repro.network.primary import BernoulliActivity, PrimaryNetwork
from repro.network.secondary import SecondaryNetwork
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.sim.packet import Packet
from repro.sim.trace import TraceKind, TraceLog
from repro.spectrum.sensing import CarrierSenseMap

SENSE_RANGE = 10.0


def one_su_topology(
    pu_position=None, pu_active: float = 1.0
) -> CrnTopology:
    """Base station at (15, 15), one SU at (12, 15), optional single PU."""
    secondary = SecondaryNetwork(
        positions=np.array([[15.0, 15.0], [12.0, 15.0]]),
        power=10.0,
        radius=10.0,
    )
    if pu_position is None:
        pu_positions = np.empty((0, 2))
        activity = BernoulliActivity(0.0)
    else:
        pu_positions = np.array([pu_position])
        activity = BernoulliActivity(pu_active)
    primary = PrimaryNetwork(
        positions=pu_positions, power=10.0, radius=10.0, activity=activity
    )
    return CrnTopology(
        region=SquareRegion(30.0), primary=primary, secondary=secondary
    )


def make_engine(topology, streams, name, **kwargs):
    """A geometric-blocking engine with an ADDC policy over ``topology``."""
    tree = build_collection_tree(
        topology.secondary.graph, topology.secondary.base_station
    )
    policy = AddcPolicy(tree, graph=topology.secondary.graph)
    kwargs.setdefault("max_slots", 5000)
    return SlottedEngine(
        topology=topology,
        sense_map=CarrierSenseMap(topology, SENSE_RANGE),
        policy=policy,
        streams=streams.spawn(name),
        alpha=4.0,
        eta_s=db_to_linear(8.0),
        **kwargs,
    )


# --------------------------------------------------------------------- #
# Schema                                                                 #
# --------------------------------------------------------------------- #


class TestFaultEventSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="meteor", slot=1, node=2)

    def test_negative_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent.crash(-1, 2)

    def test_windowed_kinds_need_until_after_slot(self):
        with pytest.raises(ConfigurationError):
            FaultEvent.outage(10, 2, recover_slot=10)
        with pytest.raises(ConfigurationError):
            FaultEvent.stuck_busy(10, 2, until=5)

    def test_crash_takes_no_until(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="crash", slot=1, node=2, until=9)

    def test_link_degradation_validation(self):
        with pytest.raises(ConfigurationError):  # missing peer
            FaultEvent(kind="link-degradation", slot=1, node=2, until=9)
        with pytest.raises(ConfigurationError):  # self-link
            FaultEvent.link_degradation(1, 2, 2, until=9, extra_loss_db=3.0)
        with pytest.raises(ConfigurationError):  # non-positive loss
            FaultEvent.link_degradation(1, 2, 3, until=9, extra_loss_db=0.0)

    def test_bs_blackout_targets_no_node(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="bs-blackout", slot=1, node=4, until=9)
        assert FaultEvent.bs_blackout(1, until=9).node == -1

    def test_every_kind_has_a_constructor(self):
        built = {
            FaultEvent.crash(1, 2).kind,
            FaultEvent.outage(1, 2, 9).kind,
            FaultEvent.stuck_busy(1, 2, 9).kind,
            FaultEvent.stuck_idle(1, 2, 9).kind,
            FaultEvent.link_degradation(1, 2, 3, 9, 10.0).kind,
            FaultEvent.bs_blackout(1, 9).kind,
        }
        assert built == set(FAULT_KINDS)


class TestFaultPlan:
    def test_sorted_by_slot_stable_within_slot(self):
        plan = FaultPlan.from_events(
            [
                FaultEvent.crash(30, 1),
                FaultEvent.outage(10, 2, 20),
                FaultEvent.crash(10, 3),
            ]
        )
        assert [event.slot for event in plan] == [10, 10, 30]
        # Same-slot events keep authoring order (the outage came first).
        assert [event.node for event in plan][:2] == [2, 3]

    def test_merge_and_describe(self):
        left = FaultPlan.from_events([FaultEvent.crash(5, 1)])
        right = FaultPlan.from_events([FaultEvent.outage(2, 3, 40)])
        merged = left.merged_with(right)
        assert len(merged) == 2
        assert merged.counts_by_kind() == {"crash": 1, "outage": 1}
        assert "horizon slot 40" in merged.describe()
        assert FaultPlan().describe() == "FaultPlan(empty)"

    def test_validate_for_rejects_base_station_and_strangers(self):
        plan = FaultPlan.from_events([FaultEvent.crash(5, 0)])
        with pytest.raises(ConfigurationError):
            plan.validate_for(su_ids=[1, 2, 3], base_station=0)
        plan = FaultPlan.from_events([FaultEvent.crash(5, 99)])
        with pytest.raises(ConfigurationError):
            plan.validate_for(su_ids=[1, 2, 3], base_station=0)

    def test_validate_for_allows_base_station_link_peer(self):
        plan = FaultPlan.from_events(
            [FaultEvent.link_degradation(5, 2, 0, until=9, extra_loss_db=3.0)]
        )
        plan.validate_for(su_ids=[1, 2, 3], base_station=0)


# --------------------------------------------------------------------- #
# Generators                                                             #
# --------------------------------------------------------------------- #


class TestGenerators:
    def test_mtbf_plan_replayable_and_bounded(self):
        def build():
            return mtbf_outage_plan(
                range(1, 30),
                horizon_slots=1000,
                mtbf_slots=400.0,
                mttr_slots=60.0,
                streams=StreamFactory(seed=99),
            )

        first, second = build(), build()
        assert first.events == second.events
        assert len(first) > 0
        for event in first:
            assert event.kind == "outage"
            assert 1 <= event.slot < event.until <= 1000

    def test_crash_plan_count_and_distinct_targets(self):
        plan = crash_plan(
            range(1, 20), horizon_slots=500, count=5, streams=StreamFactory(7)
        )
        assert len(plan) == 5
        nodes = [event.node for event in plan]
        assert len(set(nodes)) == 5
        assert all(1 <= event.slot < 500 for event in plan)
        with pytest.raises(ConfigurationError):
            crash_plan(range(1, 4), 500, count=9, streams=StreamFactory(7))

    def test_chaos_plan_scales_with_intensity(self):
        empty = chaos_plan(
            range(1, 40), 1000, intensity=0.0, streams=StreamFactory(3)
        )
        assert len(empty) == 0
        mixed = chaos_plan(
            range(1, 40),
            1000,
            intensity=0.5,
            streams=StreamFactory(3),
            sensing_fault_fraction=0.25,
            blackout=True,
        )
        counts = mixed.counts_by_kind()
        assert counts["outage"] == 20
        assert counts.get("stuck-busy", 0) + counts.get("stuck-idle", 0) == 5
        assert counts["bs-blackout"] == 1
        with pytest.raises(ConfigurationError):
            chaos_plan(range(1, 40), 1000, intensity=-0.1, streams=StreamFactory(3))

    def test_chaos_plan_replayable(self):
        plans = [
            chaos_plan(range(1, 40), 1000, 0.3, StreamFactory(11))
            for _ in range(2)
        ]
        assert plans[0].events == plans[1].events


# --------------------------------------------------------------------- #
# Engine semantics, kind by kind                                         #
# --------------------------------------------------------------------- #


class TestCrashFaults:
    def test_crash_record_stays_open(self, quick_topology, streams):
        result = run_addc_collection(
            quick_topology,
            streams.spawn("crash-rec"),
            blocking="homogeneous",
            fault_plan=FaultPlan.from_events([FaultEvent.crash(10, 7)]),
            with_bounds=False,
        ).result
        (record,) = [r for r in result.fault_records if r.node == 7]
        assert record.kind == "crash"
        assert record.recovered_slot is None
        assert record.repair_slots is None
        assert result.nodes_departed >= 1
        assert result.nodes_recovered == 0


class TestTransientOutages:
    @pytest.fixture(scope="class")
    def relay(self, quick_topology, streams):
        probe = run_addc_collection(
            quick_topology,
            streams.spawn("outage-probe"),
            blocking="homogeneous",
            with_bounds=False,
        )
        sizes = probe.tree.subtree_sizes()
        node = max(
            range(1, probe.tree.num_nodes), key=lambda item: sizes[item]
        )
        return node, probe.tree.roles[node]

    def test_outage_recovers_without_loss(
        self, quick_topology, streams, relay
    ):
        """A kept-queue relay outage delays packets but loses none, and the
        repaired tree is fully reconnected with fresh depths."""
        node, original_role = relay
        outcome = run_addc_collection(
            quick_topology,
            streams.spawn("outage-keep"),
            blocking="homogeneous",
            fault_plan=FaultPlan.from_events(
                [FaultEvent.outage(30, node, 120)]
            ),
            with_bounds=False,
        )
        result = outcome.result
        n = quick_topology.secondary.num_sus
        assert result.completed
        assert result.packets_lost == 0
        assert result.delivered == n
        # The outage node plus every stranded subtree member that rejoined.
        assert result.nodes_recovered >= 1
        (record,) = result.fault_records
        assert record.kind == "outage"
        assert record.node == node
        # Actual reattachment happens at or after the scheduled recovery.
        assert record.recovered_slot is not None
        assert record.recovered_slot >= 120
        assert record.repair_slots >= 90
        # Tree reconnect: the node is re-attached and the depths were
        # refreshed so every parent pointer is depth-consistent again.
        tree = outcome.tree
        assert tree.parent[node] >= 0
        for member in range(tree.num_nodes):
            parent = tree.parent[member]
            if member != tree.root and parent >= 0:
                assert tree.depth[member] == tree.depth[parent] + 1
        # The recovered backbone node returns with its role restored.
        assert tree.roles[node] == original_role

    def test_drop_queue_outage_orphans_exactly_the_losses(
        self, quick_topology, streams, relay
    ):
        node, _ = relay
        result = run_addc_collection(
            quick_topology,
            streams.spawn("outage-drop"),
            blocking="homogeneous",
            fault_plan=FaultPlan.from_events(
                [FaultEvent.outage(200, node, 500, drop_queue=True)]
            ),
            with_bounds=False,
        ).result
        n = quick_topology.secondary.num_sus
        assert result.completed
        # A busy relay's dropped queue is real data loss ...
        assert result.packets_lost >= 1
        # ... and with outages as the only fault kind the orphan accounting
        # explains every lost packet exactly.
        assert result.packets_orphaned == result.packets_lost
        assert result.delivered + result.packets_lost == n
        assert result.nodes_recovered >= 1

    def test_arrivals_for_a_down_node_are_buffered(self, streams):
        topology = one_su_topology()
        engine = make_engine(
            topology,
            streams,
            "deferred",
            fault_plan=FaultPlan.from_events([FaultEvent.outage(5, 1, 20)]),
        )
        engine.load_packets(
            [Packet(packet_id=0, source=1, birth_slot=10)]
        )
        result = engine.run()
        assert result.completed
        assert result.arrivals_deferred == 1
        assert result.packets_lost == 0
        (delivery,) = result.deliveries
        assert delivery.birth_slot == 10
        # The packet could only leave after the slot-20 rejoin.
        assert delivery.delivered_slot >= 20
        assert result.nodes_recovered == 1


class TestSensingFaults:
    def test_stuck_busy_node_never_transmits_in_window(self, streams):
        topology = one_su_topology()
        trace = TraceLog()
        engine = make_engine(
            topology,
            streams,
            "stuck-busy",
            fault_plan=FaultPlan.from_events(
                [FaultEvent.stuck_busy(0, 1, until=40)]
            ),
            trace=trace,
        )
        engine.load_packets([Packet(packet_id=0, source=1)])
        result = engine.run()
        assert result.completed
        starts = [
            event
            for event in trace.of_kind(TraceKind.TX_START)
            if event.node == 1
        ]
        assert starts
        assert all(event.slot >= 40 for event in starts)
        assert result.deliveries[0].delivered_slot >= 40
        (record,) = result.fault_records
        assert record.kind == "stuck-busy"
        assert record.recovered_slot == 40

    def test_stuck_idle_transmits_into_pu_activity(self, streams):
        # A PU 5 m from the SU (inside the 10 m sensing range) is always
        # on, so the healthy node can never transmit; a pinned-idle
        # detector transmits anyway, and the violation is counted.  The
        # SIR still passes here (PU is 8 m from the base station), so the
        # collection completes *because* of the fault.
        topology = one_su_topology(pu_position=(7.0, 15.0), pu_active=1.0)
        healthy = make_engine(topology, streams, "stuck-idle-a", max_slots=60)
        healthy.load_packets([Packet(packet_id=0, source=1)])
        assert not healthy.run().completed

        faulted = make_engine(
            topology,
            streams,
            "stuck-idle-b",
            fault_plan=FaultPlan.from_events(
                [FaultEvent.stuck_idle(0, 1, until=200)]
            ),
            max_slots=200,
        )
        faulted.load_packets([Packet(packet_id=0, source=1)])
        result = faulted.run()
        assert result.completed
        assert result.pu_violations >= 1

    def test_stuck_idle_needs_geometric_blocking(
        self, quick_topology, streams
    ):
        plan = FaultPlan.from_events([FaultEvent.stuck_idle(0, 1, until=50)])
        with pytest.raises(ConfigurationError):
            run_addc_collection(
                quick_topology,
                streams.spawn("stuck-guard"),
                blocking="homogeneous",
                fault_plan=plan,
                with_bounds=False,
            )

    def test_stuck_busy_fine_under_homogeneous_blocking(
        self, quick_topology, streams
    ):
        plan = FaultPlan.from_events([FaultEvent.stuck_busy(0, 1, until=50)])
        result = run_addc_collection(
            quick_topology,
            streams.spawn("stuck-ok"),
            blocking="homogeneous",
            fault_plan=plan,
            with_bounds=False,
        ).result
        assert result.completed


class TestLinkDegradation:
    def test_degraded_link_fails_sir_until_window_ends(self, streams):
        # PU at (24, 15): 12 m from the SU (outside sensing — transmission
        # allowed) and 9 m from the base station (nonzero interference).
        # Baseline SIR is (9/3)^4 = 81 >= eta_s; 30 dB of extra loss on
        # the SU -> BS link drops it to 0.081, below eta_s.
        topology = one_su_topology(pu_position=(24.0, 15.0), pu_active=1.0)

        baseline = make_engine(topology, streams, "link-a")
        baseline.load_packets([Packet(packet_id=0, source=1)])
        clean = baseline.run()
        assert clean.completed
        assert clean.collisions == 0
        assert clean.deliveries[0].delivered_slot < 5

        degraded = make_engine(
            topology,
            streams,
            "link-b",
            fault_plan=FaultPlan.from_events(
                [
                    FaultEvent.link_degradation(
                        0, 1, 0, until=60, extra_loss_db=30.0
                    )
                ]
            ),
        )
        degraded.load_packets([Packet(packet_id=0, source=1)])
        result = degraded.run()
        assert result.completed
        # SIR failures inside the window are counted as collisions ...
        assert result.collisions >= 1
        # ... and delivery only happens once the window has closed.
        assert result.deliveries[0].delivered_slot >= 60


class TestBaseStationBlackout:
    def test_deliveries_fail_and_retry_during_blackout(self, streams):
        topology = one_su_topology()
        engine = make_engine(
            topology,
            streams,
            "blackout",
            fault_plan=FaultPlan.from_events(
                [FaultEvent.bs_blackout(0, until=30)]
            ),
        )
        engine.load_packets([Packet(packet_id=0, source=1)])
        result = engine.run()
        assert result.completed
        assert result.blackout_failures >= 1
        # Blackout failures are not contention: ADDC stays collision-free.
        assert result.collisions == 0
        assert result.deliveries[0].delivered_slot >= 30


# --------------------------------------------------------------------- #
# Replayability                                                          #
# --------------------------------------------------------------------- #


class TestReplayability:
    def test_fixed_seed_chaos_run_is_bit_identical(
        self, quick_topology, streams
    ):
        plan = chaos_plan(
            quick_topology.secondary.su_ids(),
            1500,
            intensity=0.3,
            streams=StreamFactory(2024),
            sensing_fault_fraction=0.0,
        )
        results = [
            run_addc_collection(
                quick_topology,
                streams.spawn("chaos-replay"),
                blocking="homogeneous",
                fault_plan=plan,
                with_bounds=False,
            ).result
            for _ in range(2)
        ]
        assert results[0].fault_event_count >= 1
        assert asdict(results[0]) == asdict(results[1])

    def test_idle_leaf_outage_is_invisible(self, quick_topology, streams):
        """An outage of an idle, queue-empty leaf that recovers before any
        packet needs it leaves every measured quantity bit-identical."""
        tree = build_collection_tree(
            quick_topology.secondary.graph,
            quick_topology.secondary.base_station,
        )
        children = tree.children()
        leaf = max(
            (
                node
                for node in range(1, tree.num_nodes)
                if not children[node]
            ),
            key=lambda node: tree.depth[node],
        )
        sources = [
            su for su in quick_topology.secondary.su_ids() if su != leaf
        ]
        plans = [None, FaultPlan.from_events([FaultEvent.outage(2, leaf, 40)])]
        results = []
        for plan in plans:
            engine = make_engine(
                quick_topology,
                streams,
                "leaf-eq",
                blocking="homogeneous",
                homogeneous_p_o=0.7,
                fault_plan=plan,
                max_slots=100_000,
            )
            # Fresh Packet objects per run: the engine mutates hop counts.
            engine.load_packets(
                [
                    Packet(packet_id=index, source=node)
                    for index, node in enumerate(sources)
                ]
            )
            results.append(engine.run())
        clean, faulted = (asdict(result) for result in results)
        assert faulted["nodes_recovered"] == 1
        assert len(faulted["fault_records"]) == 1
        for fault_only in ("fault_records", "nodes_recovered"):
            clean.pop(fault_only)
            faulted.pop(fault_only)
        assert clean == faulted


# --------------------------------------------------------------------- #
# Resilience metrics                                                     #
# --------------------------------------------------------------------- #


class TestResilienceMetrics:
    def test_fault_free_run_scores_perfect(self, quick_topology, streams):
        result = run_addc_collection(
            quick_topology,
            streams.spawn("res-clean"),
            blocking="homogeneous",
            with_bounds=False,
        ).result
        report = resilience_report(result, quick_topology.secondary.num_sus)
        assert report.delivery_ratio == 1.0
        assert report.fault_events == 0
        assert report.availability == 1.0
        assert report.orphans_per_fault == 0.0
        assert report.downtime_weighted_throughput > 0.0
        assert "delivery" in report.summary()

    def test_outage_run_reports_repairs_and_downtime(
        self, quick_topology, streams
    ):
        result = run_addc_collection(
            quick_topology,
            streams.spawn("res-faulted"),
            blocking="homogeneous",
            fault_plan=FaultPlan.from_events(
                [
                    FaultEvent.outage(30, 4, 300, drop_queue=True),
                    FaultEvent.outage(60, 11, 400, drop_queue=True),
                ]
            ),
            with_bounds=False,
        ).result
        report = resilience_report(result, quick_topology.secondary.num_sus)
        assert report.fault_events == result.fault_event_count
        # Per-event repair accounting (nodes_recovered also counts the
        # stranded subtree members that rejoined alongside).
        assert report.outages_recovered == 2
        assert report.outages_open == 0
        assert report.availability < 1.0
        assert report.mean_repair_slots >= 270
        assert report.max_repair_slots >= report.mean_repair_slots
        assert report.delivery_ratio == pytest.approx(
            result.delivered / result.num_packets
        )
        assert report.packets_orphaned == result.packets_orphaned


class _AlwaysRefreshAddcPolicy(AddcPolicy):
    """The rejoin repair without shortcuts: re-scan every attempt and
    refresh every depth after every successful rejoin."""

    def on_node_rejoin(self, node: int) -> bool:
        from repro.errors import GraphError
        from repro.graphs.repair import attach_node, refresh_depths

        try:
            attach_node(self.tree, self.graph, node)
        except GraphError:
            return False
        saved = self._saved_roles.pop(node, None)
        if saved is not None:
            self.tree.roles[node] = saved
        refresh_depths(self.tree)
        return True


class TestRejoinShortcutsAreExact:
    """The failed-attach memo and lazy depth refresh change no outcome."""

    def _run(self, topology, plan, policy_class, monkeypatch):
        import repro.core.collector as collector

        attempts = []
        original = policy_class.on_node_rejoin

        def counting(policy, node):
            joined = original(policy, node)
            attempts.append(joined)
            return joined

        monkeypatch.setattr(collector, "AddcPolicy", policy_class)
        monkeypatch.setattr(policy_class, "on_node_rejoin", counting)
        outcome = run_addc_collection(
            topology,
            StreamFactory(77).spawn("rejoin-shortcuts"),
            blocking="homogeneous",
            p_false_alarm=0.05,
            fault_plan=plan,
            # The run takes under 1,000 slots; a policy that never
            # re-attaches fails fast instead of idling to the default cap.
            max_slots=20_000,
            with_bounds=False,
        )
        monkeypatch.undo()
        return outcome, attempts

    def test_outage_heavy_run_matches_reference_policy(
        self, quick_topology, monkeypatch
    ):
        plan = chaos_plan(
            quick_topology.secondary.su_ids(),
            600,
            intensity=1.0,
            streams=StreamFactory(2026),
            mean_downtime_slots=60.0,
            sensing_fault_fraction=0.0,
        )
        fast, fast_attempts = self._run(
            quick_topology, plan, AddcPolicy, monkeypatch
        )
        slow, slow_attempts = self._run(
            quick_topology, plan, _AlwaysRefreshAddcPolicy, monkeypatch
        )
        # The scenario strands nodes and re-attaches many of them.
        assert slow_attempts.count(False) > 50
        assert slow.result.nodes_recovered > 20
        assert fast_attempts == slow_attempts
        assert asdict(fast.result) == asdict(slow.result)
        assert fast.engine.rng_positions() == slow.engine.rng_positions()
        assert fast.tree.parent == slow.tree.parent
        assert fast.tree.depth == slow.tree.depth
