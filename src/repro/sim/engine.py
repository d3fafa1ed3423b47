"""The slotted contention engine implementing Algorithm 1's semantics.

Per-slot procedure
------------------
0. **Housekeeping.**  Scheduled node departures retire (runtime churn:
   queued data is lost, the policy repairs its routing structure), and
   future arrivals whose birth slot is due join their source queues
   (continuous-collection workloads).
1. **PU activity.**  Every PU redraws its slotted activity (Bernoulli or
   Markov).  Active PUs block every secondary node within the PU protection
   range (the PCR) — the regulatory constraint both ADDC and baselines obey.
2. **Contention.**  Every backlogged SU whose protection range is PU-free is
   *ready*; its would-be expiry time inside the slot is
   ``extra_wait + backoff`` (both below the contention window
   ``tau_c < tau``, so an unobstructed timer always fires within the slot).
   Ready SUs are processed in expiry order:

   * a node with no earlier-starting transmitter inside its **SU CSMA
     range** starts transmitting and blocks that neighbourhood from its
     start time onward;
   * a node that hears an earlier transmitter **freezes**: it consumed
     countdown until the transmitter started, keeps the remainder
     (Algorithm 1, lines 6-7), and retries next slot.

   Timer ties have probability zero with continuous draws (the paper's
   no-simultaneous-expiry assumption); exact float ties break
   deterministically in favour of the earlier-sorted node.
3. **Physical outcome.**  At slot end every transmission is adjudicated by
   the physical interference model: the receiver decodes iff the link SIR —
   signal over the summed interference of all other concurrent SU
   transmitters plus all active PUs — meets ``eta_s``, and no stronger
   concurrent signal targets the same receiver (Re-Start capture,
   footnote 1).  With ADDC's CSMA range equal to the PCR, Lemma 3
   guarantees these checks pass — ADDC is collision-free by construction.
   A baseline sensing at its transmission radius keeps hidden terminals,
   fails SIR checks, and pays retransmissions: exactly the "data
   collisions, interference, and retransmissions" the paper's third
   challenge describes.
4. **Delivery and fairness.**  Decoded packets enter the receiver's queue
   (or are recorded at the base station).  A transmitter that drew ``t_i``
   waits ``tau_c - t_i`` of wall clock before its next backoff draw
   (line 12) when the policy asks for it.

With ``packet_slots > 1``, step 2's winners stay on the air across slots,
blocking their neighbourhoods from each subsequent slot's start, and the
paper's spectrum-handoff rule aborts them when a PU reclaims the channel
mid-flight; adjudication happens at the final slot.  See docs/MODEL.md for
the full semantics.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

# Module import (not `from repro import obs`) keeps partial-initialization
# import orders safe; the facade is a no-op until a recorder is installed.
import repro.obs as obs
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.network.primary import BernoulliActivity, MarkovActivity
from repro.network.topology import CrnTopology
from repro.rng import RowStream, StreamFactory
from repro.sim.packet import Packet
from repro.sim.policies import MacPolicy
from repro.sim.results import FaultRecord, PacketRecord, SimulationResult
from repro.sim.trace import TraceEvent, TraceKind, TraceLog
from repro.spectrum.sensing import CarrierSenseMap

__all__ = ["SlottedEngine"]

#: Distances below this are clamped when evaluating SIR.
_MIN_DISTANCE = 1e-6


class SlottedEngine:
    """Simulates one data-collection run over a deployed CRN.

    Parameters
    ----------
    topology:
        The deployed networks.
    sense_map:
        Carrier-sensing incidence (PU protection range + SU CSMA range).
    policy:
        Forwarding + fairness behaviour (ADDC or a baseline).
    streams:
        Stream factory; the engine consumes ``"pu-activity"``,
        ``"pu-receivers"`` and ``"backoff"`` streams.
    alpha:
        Path-loss exponent of the physical interference model.
    eta_s:
        Linear SIR decoding threshold of the secondary network.
    sir_check:
        Adjudicate every transmission with the physical model (default).
        Disabling it trusts the PCR guarantee unconditionally; tests use
        the validator to show both agree for ADDC.
    blocking:
        How PU activity blocks SUs.  ``"geometric"`` (default) uses the
        exact deployed PU positions: an SU is blocked while any active PU
        sits inside its protection range, so per-node opportunity rates are
        heterogeneous (a node ringed by PUs waits far longer than Lemma 7's
        average).  ``"homogeneous"`` is the mean-field model the paper's
        analysis adopts ("Based on Lemma 7, we assume the waiting time for
        an SU is tau/p_o"): every SU is blocked i.i.d. per slot with
        probability ``1 - homogeneous_p_o``, and PU interference is folded
        into the blocking (no positional PU interference terms).
    homogeneous_p_o:
        The per-slot opportunity probability for ``blocking="homogeneous"``
        (Lemma 7's ``p_o``); required in that mode.
    max_backoff_exponent:
        Collision recovery per the paper's footnote 2: after each failed
        transmission a node holds off for a uniformly random number of
        slots from a binary-exponentially growing window (reset on
        success), capped at ``2 ** max_backoff_exponent`` slots.  Without
        it, saturated hidden-terminal scenarios livelock — every slot
        recreates the same colliding set.
    p_false_alarm / p_missed_detection:
        Imperfect spectrum sensing (the concern of the paper's references
        [3]-[5]).  Per node per slot: with probability ``p_false_alarm`` a
        PU-free spectrum is sensed busy (a lost opportunity); with
        probability ``p_missed_detection`` a PU-busy spectrum is sensed
        free — the node may transmit *while a PU is active inside its
        protection range*, which is counted in
        ``SimulationResult.pu_violations`` and, under geometric blocking,
        usually fails the SIR adjudication.  Defaults are perfect sensing,
        the paper's assumption.
    channel_plan:
        Optional :class:`~repro.network.channels.ChannelPlan` for
        multi-channel operation.  Each PU occupies its licensed channel;
        each SU retunes at every backoff draw (strategy below), contends
        only with same-channel transmissions, and interference only
        couples same-channel transmitters.  ``None`` (default) is the
        paper's single-channel model, bit-for-bit.
    channel_strategy:
        How a retuning SU picks its channel (multi-channel only):

        * ``"random-idle"`` (default) — uniform over currently idle
          channels, uniform over all when none is idle;
        * ``"sticky"`` — keep the previous channel while it is idle,
          otherwise fall back to random-idle (minimizes retuning);
        * ``"least-blocked"`` — the idle channel with the fewest PUs
          inside the node's protection range (static knowledge of the
          local channel loads), ties randomly;
        * ``"adaptive"`` — the idle channel with the best observed
          success-per-attempt ratio at this node (optimistic for untried
          channels), ties randomly: a learning SU with no prior knowledge.
    packet_slots:
        Transmission duration in slots (default 1, the paper's setting:
        packet time < tau).  With longer packets the paper's *spectrum
        handoff* rule activates: an SU whose protection range sees a PU
        return mid-transmission aborts immediately (Section I), the packet
        stays queued, and ``SimulationResult.handoffs`` counts the event.
        A completing transmission is SIR-adjudicated against the concurrent
        set of its final slot.
    detector:
        Optional :class:`~repro.spectrum.detection.EnergyDetector`.  When
        given, sensing outcomes come from the energy-detection physics —
        per-PU detection probabilities fall with distance, so missed
        detections concentrate on protection-range-boundary PUs — instead
        of the flat ``p_false_alarm`` / ``p_missed_detection`` knobs
        (which are then ignored).  Geometric blocking only, and
        single-channel only (per-channel detection would need one detector
        decision per channel).
    slot_duration_ms:
        The paper's ``tau`` (1 ms in all simulations).
    contention_window_ms:
        The paper's ``tau_c`` (0.5 ms in all simulations); must be at most
        half the slot so a fairness wait plus a backoff fits in one slot.
    max_slots:
        Safety cap; a run that exceeds it returns ``completed=False``.
    fast_forward:
        Enable the frozen-slot fast-forward (default).  Before every slot
        it would step, the engine looks ahead for the run of slots in
        which provably nothing can happen — no backoff timer can expire
        (every eligible node senses busy), no hold-off window ends, no
        packet completes, no arrival is born, and no fault event fires —
        and advances the slot counter over that whole run in one vectorized
        step.  The first slot the look-ahead finds thawed is stepped with
        the ready set the look-ahead computed for it, so a slot is stepped
        only when someone can contend in it or the horizon is reached.
        Every per-slot PU-activity and sensing row, stepped or
        skipped, comes from one forward-only
        :class:`~repro.rng.RowStream` per stream: the look-ahead reads
        buffered rows and consumes exactly the frozen prefix, so both
        modes read the same rows in the same order and results *and*
        post-run RNG stream positions are bit-identical to the
        slot-by-slot loop.  Scenarios outside the proof obligations
        (multi-channel plans, energy detectors, slot hooks, replayed
        activity traces, pinned sensing faults, in-flight multi-slot
        packets) fall back to the ordinary loop automatically.
    trace:
        Optional :class:`~repro.sim.trace.TraceLog` to record events into.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` of scripted adversity
        (see :mod:`repro.faults`).  A ``crash`` event is Section I's
        churn injected at runtime: the node powers off for good, its
        queued data packets are lost (counted in ``packets_lost``),
        in-flight transmissions abort, and the policy's
        ``on_node_departure(node)`` hook repairs the routing structure and
        reports any nodes the departure *partitioned* — those retire (and
        lose their data) too.  A transient ``outage`` takes the
        node down without losing it: its queue is kept (or dropped when the
        event says so — dropped data counts as lost *and* orphaned), the
        policy repairs the routing structure around it, nodes the repair
        could not re-parent wait as *stranded* instead of retiring, and
        arrivals for any down node are buffered (``arrivals_deferred``)
        rather than lost.  From the scheduled recovery slot on, the engine
        asks ``policy.on_node_rejoin(node)`` each slot until the node
        re-attaches (e.g. via :func:`repro.graphs.repair.attach_node`);
        the reattachment slot is recorded per fault in
        ``SimulationResult.fault_records``.  Sensing faults pin a node's
        detector busy (never transmits) or idle (transmits into PU
        activity); link-degradation events subtract ``extra_loss_db`` from
        the received signal of one directed link in SIR adjudication; a
        base-station blackout makes deliveries fail and retry
        (``blackout_failures``).
    slot_hook:
        Optional callable invoked as ``slot_hook(engine)`` at the end of
        every simulated slot, with ``last_slot_su_links`` and
        ``last_slot_active_pus`` reflecting that slot.  Used by the test
        suite to run the SIR validator against every concurrent set.
    """

    def __init__(
        self,
        topology: CrnTopology,
        sense_map: CarrierSenseMap,
        policy: MacPolicy,
        streams: StreamFactory,
        alpha: float = 4.0,
        eta_s: float = 10.0 ** 0.8,
        sir_check: bool = True,
        blocking: str = "geometric",
        homogeneous_p_o: Optional[float] = None,
        max_backoff_exponent: int = 8,
        p_false_alarm: float = 0.0,
        p_missed_detection: float = 0.0,
        channel_plan=None,
        channel_strategy: str = "random-idle",
        packet_slots: int = 1,
        detector=None,
        fault_plan: Optional[FaultPlan] = None,
        slot_duration_ms: float = 1.0,
        contention_window_ms: float = 0.5,
        max_slots: int = 2_000_000,
        fast_forward: bool = True,
        trace: Optional[TraceLog] = None,
        slot_hook=None,
    ) -> None:
        if slot_duration_ms <= 0:
            raise ConfigurationError(
                f"slot_duration_ms must be positive, got {slot_duration_ms}"
            )
        if not 0 < contention_window_ms <= slot_duration_ms / 2:
            raise ConfigurationError(
                "contention_window_ms must be in (0, slot/2] so that a "
                "fairness wait plus a backoff always fits in one slot; got "
                f"{contention_window_ms} for slot {slot_duration_ms}"
            )
        if max_slots < 1:
            raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")
        if alpha <= 2.0:
            raise ConfigurationError(f"alpha must be > 2, got {alpha}")
        if eta_s <= 0:
            raise ConfigurationError(f"eta_s must be positive, got {eta_s}")
        if blocking not in ("geometric", "homogeneous"):
            raise ConfigurationError(
                f"blocking must be 'geometric' or 'homogeneous', got {blocking!r}"
            )
        if blocking == "homogeneous":
            if homogeneous_p_o is None or not 0.0 < homogeneous_p_o <= 1.0:
                raise ConfigurationError(
                    "homogeneous blocking needs homogeneous_p_o in (0, 1], got "
                    f"{homogeneous_p_o}"
                )

        self.topology = topology
        self.sense_map = sense_map
        self.policy = policy
        self.alpha = float(alpha)
        self.eta_s = float(eta_s)
        self.sir_check = bool(sir_check)
        self.blocking = blocking
        self.homogeneous_p_o = (
            float(homogeneous_p_o) if homogeneous_p_o is not None else None
        )
        if max_backoff_exponent < 0:
            raise ConfigurationError(
                f"max_backoff_exponent must be >= 0, got {max_backoff_exponent}"
            )
        self.max_backoff_exponent = int(max_backoff_exponent)
        if packet_slots < 1:
            raise ConfigurationError(
                f"packet_slots must be >= 1, got {packet_slots}"
            )
        self.packet_slots = int(packet_slots)
        for name, value in (
            ("p_false_alarm", p_false_alarm),
            ("p_missed_detection", p_missed_detection),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        self.p_false_alarm = float(p_false_alarm)
        self.p_missed_detection = float(p_missed_detection)
        self._imperfect_sensing = p_false_alarm > 0.0 or p_missed_detection > 0.0
        if p_missed_detection > 0.0 and blocking == "homogeneous":
            raise ConfigurationError(
                "missed detections need blocking='geometric': the mean-field "
                "model folds PU interference into the blocking itself, so a "
                "missed detection there would grant a consequence-free "
                "transmission (false alarms alone are fine in either mode)"
            )
        self.detector = detector
        if detector is not None:
            if blocking == "homogeneous":
                raise ConfigurationError(
                    "energy detection needs blocking='geometric' (the "
                    "mean-field model has no PU positions to detect)"
                )
            if channel_plan is not None and channel_plan.num_channels > 1:
                raise ConfigurationError(
                    "energy detection currently supports the single-channel "
                    "model only"
                )
            self._imperfect_sensing = True
        self._sensing_rng = streams.stream("sensing-errors")
        scripted: Tuple[FaultEvent, ...] = ()
        if fault_plan is not None:
            fault_plan.validate_for(
                topology.secondary.su_ids(), topology.secondary.base_station
            )
            scripted = fault_plan.events
        if blocking == "homogeneous" and any(
            event.kind == "stuck-idle" for event in scripted
        ):
            raise ConfigurationError(
                "stuck-idle sensing faults need blocking='geometric': the "
                "mean-field model folds PU interference into the blocking, "
                "so a pinned-idle detector there would transmit consequence-"
                "free (stuck-busy faults are fine in either mode)"
            )
        # Onset events per slot; the plan is slot-sorted and stable within
        # a slot, so same-slot events apply in authoring order.
        self._fault_onsets: Dict[int, List[FaultEvent]] = {}
        for event in scripted:
            self._fault_onsets.setdefault(event.slot, []).append(event)
        #: Window-end events per slot (sensing / link / blackout faults).
        self._fault_expiries: Dict[int, List[FaultEvent]] = {}
        self._has_faults = bool(self._fault_onsets)
        self._dead: set = set()
        # Transient-outage state: nodes currently powered off or stranded
        # (detached by a repair, waiting for a parent), their scheduled
        # rejoin slots, open fault records, and buffered arrivals.
        self._down: set = set()
        self._stranded: set = set()
        self._rejoin_at: Dict[int, int] = {}
        self._open_outages: Dict[int, FaultRecord] = {}
        self._deferred_arrivals: Dict[int, List[Packet]] = {}
        # Sensing-fault and link-degradation state (active windows).
        self._stuck_busy: set = set()
        self._stuck_idle: set = set()
        self._link_loss: Dict[Tuple[int, int], float] = {}
        self._bs_blackouts = 0
        self.slot_duration_ms = float(slot_duration_ms)
        self.contention_window_ms = float(contention_window_ms)
        self.max_slots = int(max_slots)
        self.trace = trace
        self.slot_hook = slot_hook

        self._pu_rng = streams.stream("pu-activity")
        self._backoff_rng = streams.stream("backoff")

        num_nodes = topology.secondary.num_nodes
        self._num_nodes = num_nodes
        self._positions = topology.secondary.positions
        self._pu_positions = topology.primary.positions
        self._pu_power = topology.primary.power
        self._su_power = topology.secondary.power
        self._base_station = topology.secondary.base_station
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_nodes)]
        # Contention state as flat numpy arrays: the per-slot readiness
        # scan gathers/filters them vectorized; scalar reads/writes in the
        # sequential resolution loop behave exactly like the old lists.
        self._backoff = np.zeros(num_nodes)
        self._drawn = np.zeros(num_nodes)
        self._extra_wait = np.zeros(num_nodes)
        self._collision_streak: List[int] = [0] * num_nodes
        self._hold_until_slot = np.zeros(num_nodes, dtype=np.int64)
        # Future packet arrivals (continuous-collection workloads), as a
        # heap ordered by birth slot.
        self._pending_arrivals: List[Tuple[int, int, Packet]] = []
        self._arrival_counter = 0
        # Multi-slot transmissions in flight: node -> (receiver, channel,
        # end_slot, expiry_at_start).  Empty whenever packet_slots == 1.
        self._ongoing: Dict[int, Tuple[int, int, int, float]] = {}
        # Energy accounting: the slot each node first became active.
        self._first_active_slot: Dict[int, int] = {}
        self._active: set = set()
        # Boolean mirror of ``_active`` kept in lockstep at every add /
        # discard so the per-slot readiness scan is one mask op instead
        # of a set materialization.
        self._active_mask = np.zeros(num_nodes, dtype=bool)
        self._node_index = np.arange(num_nodes, dtype=np.int64)
        self._pu_busy = np.zeros(num_nodes, dtype=np.uint8)
        self._pu_states = np.zeros(topology.primary.num_pus, dtype=bool)
        # Indices of currently active PUs, refreshed on every state change
        # (stays empty under homogeneous blocking, where _pu_states never
        # toggles).  Cached so the per-slot paths never rescan the states.
        self._active_pus = np.zeros(0, dtype=np.int64)
        self._active_pu_list: List[int] = []
        # Dense PU -> secondary-node hearing incidence; one uint8 matrix
        # product per slot replaces per-toggle Python loops.
        self._pu_incidence = np.zeros(
            (num_nodes, topology.primary.num_pus), dtype=np.uint8
        )
        for pu_index, nodes in enumerate(sense_map.pu_hearers):
            for node in nodes:
                self._pu_incidence[node, pu_index] = 1
        if detector is not None:
            # log(1 - P_d) per (node, in-range PU): one matvec per slot
            # yields each node's probability of missing every active PU.
            self._miss_log = detector.miss_log_matrix(
                topology.secondary.positions,
                topology.primary.positions,
                sense_map.pu_hearers,
                topology.primary.power,
                self.alpha,
            )

        # Multi-channel structures (empty in the single-channel model).
        _STRATEGIES = ("random-idle", "sticky", "least-blocked", "adaptive")
        if channel_strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"channel_strategy must be one of {_STRATEGIES}, got "
                f"{channel_strategy!r}"
            )
        self.channel_plan = channel_plan
        self.channel_strategy = channel_strategy
        self._num_channels = 1 if channel_plan is None else channel_plan.num_channels
        self._node_channel = np.zeros(num_nodes, dtype=np.int64)
        if channel_plan is not None:
            if channel_plan.num_pus != topology.primary.num_pus:
                raise ConfigurationError(
                    f"channel plan covers {channel_plan.num_pus} PUs, topology "
                    f"has {topology.primary.num_pus}"
                )
            self._pu_ids_by_channel = [
                channel_plan.pus_on_channel(c) for c in range(self._num_channels)
            ]
            self._incidence_by_channel = [
                self._pu_incidence[:, ids] for ids in self._pu_ids_by_channel
            ]
            # Static local channel loads: PUs of channel c inside each
            # node's protection range (the "least-blocked" knowledge).
            self._static_channel_load = [
                incidence.sum(axis=1).tolist()
                for incidence in self._incidence_by_channel
            ]
            # Adaptive statistics: per node, per channel.
            self._channel_attempts = [
                [0] * self._num_channels for _ in range(num_nodes)
            ]
            self._channel_successes = [
                [0] * self._num_channels for _ in range(num_nodes)
            ]
        # Per-channel blocked counts: row c is the busy count of every
        # node on channel c.  Single-channel mode uses self._pu_busy
        # directly and leaves this array untouched.
        self._busy_columns = np.zeros(
            (self._num_channels, num_nodes), dtype=np.int64
        )
        self._slot = 0
        self._started = False

        # Forward-only row streams: the stepped slot, the fast-forward scan,
        # the blind skip and the detector all take their per-slot uniforms
        # from these, one row per slot.  A geometric activity model without
        # a batch form (e.g. a replayed trace) draws for itself instead.
        self._sensing_rows = RowStream(self._sensing_rng, num_nodes)
        if blocking == "homogeneous":
            activity_supported = True
            self._pu_rows: Optional[RowStream] = RowStream(
                self._pu_rng, num_nodes * self._num_channels
            )
        else:
            activity_supported = isinstance(
                topology.primary.activity, (BernoulliActivity, MarkovActivity)
            )
            self._pu_rows = (
                RowStream(self._pu_rng, topology.primary.num_pus)
                if activity_supported
                else None
            )

        # Frozen-slot fast-forward: statically eligible scenarios only;
        # dynamic hazards (in-flight packets, fault windows, pinned
        # sensing) are re-checked per attempt in _try_fast_forward.
        self.fast_forward = bool(fast_forward)
        self._ff_enabled = (
            self.fast_forward
            and slot_hook is None
            and detector is None
            and self._num_channels == 1
            and activity_supported
        )
        self._ff_slots = 0
        # Look-aheads made, and those that found the very next slot thawed.
        self._ff_scans = 0
        self._ff_empty_scans = 0
        # ``(ready_nodes, frozen_by_pu)`` of the thawed slot a look-ahead
        # stopped at, handed to that slot's _select_transmitters.
        self._scanned_ready: Optional[Tuple[np.ndarray, int]] = None

        self._result = SimulationResult(
            num_packets=0, slot_duration_ms=self.slot_duration_ms
        )
        # Exposed for the SIR validator: the concurrent set of the last slot.
        self.last_slot_su_links: List[Tuple[int, int]] = []
        self.last_slot_su_channels: List[int] = []
        self.last_slot_active_pus: List[int] = []

    # ------------------------------------------------------------------ #
    # Workload loading                                                    #
    # ------------------------------------------------------------------ #

    def load_snapshot(self, packets_per_su: int = 1) -> None:
        """Give every SU ``packets_per_su`` fresh packets (Section III).

        Must be called before :meth:`run`; may be called only once.
        """
        if self._started:
            raise SimulationError("cannot load a workload into a running engine")
        if packets_per_su < 1:
            raise ConfigurationError(
                f"packets_per_su must be >= 1, got {packets_per_su}"
            )
        packet_id = 0
        for node in self.topology.secondary.su_ids():
            for _ in range(packets_per_su):
                self._queues[node].append(
                    Packet(packet_id=packet_id, source=node, birth_slot=0)
                )
                self._note_queue(node)
                packet_id += 1
        self._result.num_packets = packet_id
        for node in self.topology.secondary.su_ids():
            self._activate(node)

    def load_packets(
        self, packets: List[Packet], expected_deliveries: Optional[int] = None
    ) -> None:
        """Load an explicit packet list (sources must be SU node ids).

        ``expected_deliveries`` is how many *data* deliveries complete the
        run; it defaults to the number of data packets in ``packets`` and
        must be given explicitly when the policy injects data packets later
        (e.g. after an on-demand route discovery).

        Packets with ``birth_slot > 0`` are *future arrivals* (continuous
        collection): they enter their source's queue when the simulation
        reaches that slot.
        """
        if self._started:
            raise SimulationError("cannot load a workload into a running engine")
        su_ids = set(self.topology.secondary.su_ids())
        immediate: List[Packet] = []
        for packet in packets:
            if packet.source not in su_ids:
                raise ConfigurationError(
                    f"packet {packet.packet_id} has non-SU source {packet.source}"
                )
            if packet.birth_slot < 0:
                raise ConfigurationError(
                    f"packet {packet.packet_id} has negative birth_slot"
                )
            if packet.birth_slot > 0:
                heapq.heappush(
                    self._pending_arrivals,
                    (packet.birth_slot, self._arrival_counter, packet),
                )
                self._arrival_counter += 1
            else:
                immediate.append(packet)
        if expected_deliveries is None:
            expected_deliveries = sum(1 for packet in packets if packet.is_data)
        if expected_deliveries < 1:
            raise ConfigurationError("expected_deliveries must be >= 1")
        self._result.num_packets = expected_deliveries
        for packet in immediate:
            start = packet.route[packet.route_pos] if packet.route else packet.source
            self._queues[start].append(packet)
            self._note_queue(start)
            self._activate(start)


    def _note_queue(self, node: int) -> None:
        """Track the peak backlog per node (the data-accumulation effect)."""
        length = len(self._queues[node])
        peaks = self._result.peak_queue_lengths
        if length > peaks.get(node, 0):
            peaks[node] = length

    def _retire(self, node: int) -> int:
        """Remove a node from the network for good; returns lost data packets."""
        if node in self._dead:
            return 0
        self._dead.add(node)
        lost = sum(1 for packet in self._queues[node] if packet.is_data)
        deferred = self._deferred_arrivals.pop(node, None)
        if deferred:
            lost += sum(1 for packet in deferred if packet.is_data)
        self._result.packets_lost += lost
        self._queues[node].clear()
        self._active.discard(node)
        self._active_mask[node] = False
        self._ongoing.pop(node, None)
        self._down.discard(node)
        self._stranded.discard(node)
        self._rejoin_at.pop(node, None)
        self._open_outages.pop(node, None)
        self._stuck_busy.discard(node)
        self._stuck_idle.discard(node)
        return lost

    def _suspend(self, node: int) -> None:
        """Freeze a node's contention state for transient downtime.

        Unlike :meth:`_retire`, the queue survives (unless the fault said
        to drop it) and the activity span closes so energy accounting does
        not bill the downtime as listening.
        """
        if node in self._active:
            span = self._slot - self._first_active_slot.pop(node, self._slot) + 1
            self._result.active_slot_spans[node] = (
                self._result.active_slot_spans.get(node, 0) + span
            )
            self._active.discard(node)
            self._active_mask[node] = False
            self._extra_wait[node] = 0.0
        self._ongoing.pop(node, None)
        if self.trace is not None:
            self.trace.record(
                TraceEvent(slot=self._slot, kind=TraceKind.NODE_DOWN, node=node)
            )

    def _departure_handler(self, kind: str):
        """The policy hook that repairs the routing structure for ``kind``."""
        if kind == "outage":
            handler = getattr(self.policy, "on_node_outage", None)
            if handler is not None:
                return handler
        handler = getattr(self.policy, "on_node_departure", None)
        if handler is None:
            raise SimulationError(
                f"policy {self.policy.describe()} does not support node "
                f"{kind}s (no on_node_departure hook)"
            )
        return handler

    def _apply_crash(self, event: FaultEvent) -> None:
        node = event.node
        if node in self._dead:
            return
        record = FaultRecord(kind="crash", node=node, slot=self._slot)
        self._result.fault_records.append(record)
        self._result.nodes_departed += 1
        was_down = node in self._down
        lost = self._retire(node)
        if not was_down:
            # A node that was already detached by an earlier fault has no
            # tree presence left to repair.
            handler = self._departure_handler("crash")
            for partitioned in handler(node):
                if partitioned in self._down:
                    # A stranded-but-alive node stays up; it keeps waiting
                    # for a reattachment point.
                    continue
                lost += self._retire(partitioned)
        record.packets_orphaned = lost

    def _apply_outage(self, event: FaultEvent) -> None:
        node = event.node
        if node in self._dead or node in self._down:
            return
        record = FaultRecord(kind="outage", node=node, slot=self._slot)
        self._result.fault_records.append(record)
        self._open_outages[node] = record
        self._down.add(node)
        self._rejoin_at[node] = int(event.until)
        if event.drop_queue:
            orphaned = sum(1 for packet in self._queues[node] if packet.is_data)
            self._result.packets_lost += orphaned
            record.packets_orphaned = orphaned
            self._queues[node].clear()
        self._suspend(node)
        handler = self._departure_handler("outage")
        for stranded in handler(node):
            if stranded in self._dead or stranded in self._down:
                continue
            # The repair found no parent for this node: it is alive but
            # detached.  It waits (queue intact, arrivals buffered) and
            # retries attachment every slot from the next one on.
            self._down.add(stranded)
            self._stranded.add(stranded)
            self._rejoin_at[stranded] = self._slot + 1
            self._suspend(stranded)

    def _apply_windowed(self, event: FaultEvent) -> None:
        """Activate a sensing, link, or blackout fault window."""
        record = FaultRecord(
            kind=event.kind,
            node=event.node,
            slot=self._slot,
            recovered_slot=int(event.until),
        )
        self._result.fault_records.append(record)
        self._fault_expiries.setdefault(int(event.until), []).append(event)
        self._has_faults = True
        if event.kind == "stuck-busy":
            self._stuck_busy.add(event.node)
        elif event.kind == "stuck-idle":
            self._stuck_idle.add(event.node)
        elif event.kind == "link-degradation":
            self._link_loss[(event.node, event.peer)] = 10.0 ** (
                -event.extra_loss_db / 10.0
            )
        else:  # bs-blackout
            self._bs_blackouts += 1

    def _expire_fault(self, event: FaultEvent) -> None:
        if event.kind == "stuck-busy":
            self._stuck_busy.discard(event.node)
        elif event.kind == "stuck-idle":
            self._stuck_idle.discard(event.node)
        elif event.kind == "link-degradation":
            self._link_loss.pop((event.node, event.peer), None)
        elif event.kind == "bs-blackout":
            self._bs_blackouts = max(self._bs_blackouts - 1, 0)

    def _complete_rejoin(self, node: int) -> None:
        """A down node re-attached to the routing structure: bring it back."""
        self._down.discard(node)
        self._stranded.discard(node)
        self._rejoin_at.pop(node, None)
        self._result.nodes_recovered += 1
        record = self._open_outages.pop(node, None)
        if record is not None:
            record.recovered_slot = self._slot
        if self.trace is not None:
            self.trace.record(
                TraceEvent(slot=self._slot, kind=TraceKind.NODE_REJOIN, node=node)
            )
        for packet in self._deferred_arrivals.pop(node, []):
            self._queues[node].append(packet)
            self._note_queue(node)
        if self._queues[node]:
            self._activate(node)

    def _attempt_rejoins(self) -> None:
        """Re-attach every due node; cascades within the slot.

        A wave-by-wave loop lets a whole stranded subtree reconnect in the
        recovery slot: once the recovered node is back on the backbone,
        its former descendants find parents in later waves.
        """
        due = sorted(
            node
            for node, at_slot in self._rejoin_at.items()
            if at_slot <= self._slot and node not in self._dead
        )
        if not due:
            return
        handler = getattr(self.policy, "on_node_rejoin", None)
        if handler is None:
            raise SimulationError(
                f"policy {self.policy.describe()} does not support transient "
                "outages (no on_node_rejoin hook)"
            )
        progress = True
        while due and progress:
            progress = False
            waiting: List[int] = []
            for node in due:
                if handler(node):
                    self._complete_rejoin(node)
                    progress = True
                else:
                    waiting.append(node)
            due = waiting

    def _abort_doomed_transmissions(self) -> None:
        """Abort in-flight transmissions aimed at nodes that just went away.

        A packet flying toward a *dead* receiver is unrecoverable: it is
        dropped from the sender's queue, counted in ``packets_lost``, and
        attributed to the receiver's fault record, so the delivery books
        balance.  A packet aimed at a *down-but-recovering* receiver stays
        queued — the repaired routing structure gives it a new next hop.
        """
        if not self._ongoing:
            return
        doomed = [
            (sender, receiver)
            for sender, (receiver, _, _, _) in self._ongoing.items()
            if receiver in self._dead or receiver in self._down
        ]
        records = {
            record.node: record
            for record in self._result.fault_records
            if record.slot == self._slot
        }
        for sender, receiver in doomed:
            del self._ongoing[sender]
            if receiver in self._dead:
                packet = self._queues[sender].popleft()
                if packet.is_data:
                    self._result.packets_lost += 1
                    record = records.get(receiver)
                    if record is not None:
                        record.packets_orphaned += 1
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            slot=self._slot,
                            kind=TraceKind.TX_ABORT,
                            node=sender,
                            peer=receiver,
                            packet_id=packet.packet_id,
                        )
                    )
            if self._queues[sender]:
                self._draw_backoff(sender)
            else:
                span = self._slot - self._first_active_slot.pop(
                    sender, self._slot
                ) + 1
                self._result.active_slot_spans[sender] = (
                    self._result.active_slot_spans.get(sender, 0) + span
                )
                self._active.discard(sender)
                self._active_mask[sender] = False
                self._extra_wait[sender] = 0.0

    def _process_faults(self) -> None:
        """Apply this slot's fault expiries, onsets, and rejoin attempts."""
        for event in self._fault_expiries.pop(self._slot, ()):
            self._expire_fault(event)
        onsets = self._fault_onsets.pop(self._slot, ())
        for event in onsets:
            if event.kind == "crash":
                self._apply_crash(event)
            elif event.kind == "outage":
                self._apply_outage(event)
            else:
                self._apply_windowed(event)
        if onsets:
            self._abort_doomed_transmissions()
        if self._rejoin_at:
            self._attempt_rejoins()

    def _inject_arrivals(self) -> None:
        """Move due future arrivals into their source queues."""
        while self._pending_arrivals and (
            self._pending_arrivals[0][0] <= self._slot
        ):
            _, _, packet = heapq.heappop(self._pending_arrivals)
            start = packet.route[packet.route_pos] if packet.route else packet.source
            if start in self._dead:
                if packet.is_data:
                    self._result.packets_lost += 1
                continue
            if start in self._down:
                # Down-but-recovering source: hold the sample until the
                # node rejoins instead of losing it.
                self._deferred_arrivals.setdefault(start, []).append(packet)
                self._result.arrivals_deferred += 1
                continue
            self._queues[start].append(packet)
            self._note_queue(start)
            self._activate(start)

    # ------------------------------------------------------------------ #
    # Core loop                                                           #
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Run until every packet is delivered or ``max_slots`` elapse."""
        if self._result.num_packets == 0:
            raise SimulationError("no workload loaded; call load_snapshot() first")
        if self._started:
            raise SimulationError("engine instances are single-use")
        self._started = True
        try:
            self._initialize_pu_states()
            with obs.span("engine.run"):
                result = self._run_loop()
        finally:
            self._sync_streams()
        if obs.enabled():
            self._publish_metrics(result)
        return result

    def _run_loop(self) -> SimulationResult:
        """The slot loop proper (split out of :meth:`run` for profiling)."""
        while (
            self._result.delivered + self._result.packets_lost
            < self._result.num_packets
        ):
            if self._slot >= self.max_slots:
                self._result.completed = False
                self._result.slots_simulated = self._slot
                return self._result
            if self._ff_enabled:
                with obs.span("engine.phase.fast_forward"):
                    self._try_fast_forward()
                if self._slot >= self.max_slots:
                    continue
            with obs.span("engine.slot"):
                if self._has_faults:
                    self._process_faults()
                self._inject_arrivals()
                with obs.span("engine.phase.pu_redraw"):
                    self._advance_pu_states()
                self._contend_and_transmit()
                if self.slot_hook is not None:
                    self.slot_hook(self)
            self._slot += 1

        self._result.completed = True
        self._result.slots_simulated = self._slot
        return self._result

    def _publish_metrics(self, result: SimulationResult) -> None:
        """Publish one run's headline outcomes to the installed recorder.

        Read-only over ``result`` and never touches an RNG stream, so the
        simulation is bit-identical with or without a recorder.
        """
        obs.counter_add("engine.runs")
        obs.counter_add("engine.slots", result.slots_simulated)
        obs.counter_add("engine.tx_attempts", result.total_transmissions)
        obs.counter_add("engine.collisions", result.collisions)
        obs.counter_add("engine.deliveries", result.delivered)
        obs.counter_add("engine.packets_lost", result.packets_lost)
        obs.counter_add("engine.handoffs", result.handoffs)
        obs.counter_add("engine.pu_violations", result.pu_violations)
        obs.counter_add("engine.frozen_slots", result.frozen_slot_count)
        obs.counter_add("engine.fastforward_slots", self._ff_slots)
        obs.counter_add("engine.ff_scans", self._ff_scans)
        obs.counter_add("engine.ff_empty_scans", self._ff_empty_scans)
        obs.counter_add("engine.rng_rows_generated", self.rng_rows_generated)
        obs.counter_add("engine.fault_events", result.fault_event_count)
        obs.gauge_set("engine.max_backlog", result.max_backlog)
        for record in result.deliveries:
            obs.observe("engine.packet_delay_slots", record.delay_slots)

    # ------------------------------------------------------------------ #
    # PU activity                                                         #
    # ------------------------------------------------------------------ #

    def _initialize_pu_states(self) -> None:
        if self.blocking == "homogeneous":
            self._draw_homogeneous_blocking()
            return
        activity = self.topology.primary.activity
        self._pu_states = activity.initial_states(
            self.topology.primary.num_pus, self._pu_rng
        )
        self._recompute_pu_busy()

    def _advance_pu_states(self) -> None:
        if self._slot == 0:
            # Slot 0 uses the initial states drawn in run().
            return
        if self.blocking == "homogeneous":
            self._draw_homogeneous_blocking()
            return
        activity = self.topology.primary.activity
        if self._pu_rows is None:
            self._pu_states = activity.next_states(self._pu_states, self._pu_rng)
        else:
            self._pu_states = activity.next_states_batch(
                self._pu_states, self._pu_rows.take(1)
            )[0]
        self._recompute_pu_busy()

    def _draw_homogeneous_blocking(self) -> None:
        # Lemma 7 mean field: every secondary node is blocked i.i.d. per
        # slot (and, in multi-channel mode, per channel) with probability
        # 1 - p_o.  PU interference is folded into the blocking, so
        # _pu_states stays all-inactive.
        draws = self._pu_rows.take(1)[0]
        if self._num_channels == 1:
            # Boolean, not the geometric mode's uint8 counts: every reader
            # only asks ``> 0``.
            self._pu_busy = draws >= self.homogeneous_p_o
            return
        draws = draws.reshape(self._num_nodes, self._num_channels)
        self._busy_columns = (draws >= self.homogeneous_p_o).astype(np.int64).T

    def _recompute_pu_busy(self) -> None:
        self._active_pus = np.nonzero(self._pu_states)[0]
        self._active_pu_list = [int(i) for i in self._active_pus]
        if self.topology.primary.num_pus == 0:
            return
        if self._num_channels == 1:
            self._pu_busy = self._pu_incidence @ self._pu_states.astype(np.uint8)
            return
        states = self._pu_states
        for channel in range(self._num_channels):
            ids = self._pu_ids_by_channel[channel]
            self._busy_columns[channel] = self._incidence_by_channel[
                channel
            ] @ states[ids].astype(np.uint8)

    def _blocked_on(self, node: int, channel: int) -> bool:
        """Whether PU activity blocks ``node`` on ``channel`` this slot."""
        if self._num_channels == 1:
            return self._pu_busy[node] > 0
        return self._busy_columns[channel][node] > 0

    # ------------------------------------------------------------------ #
    # Frozen-slot fast-forward                                            #
    # ------------------------------------------------------------------ #

    def _try_fast_forward(self) -> None:
        """Advance over a maximal run of provably frozen slots in one step.

        Called before every stepped slot in statically eligible scenarios
        (``_ff_enabled``).  The *horizon* is the first slot at which
        anything other than a frozen wait could possibly happen: a
        hold-off window expires, a scheduled arrival is born, or a fault
        event fires.  Inside the window the eligible-waiter set is
        constant, so a slot is frozen exactly when every waiter senses
        busy — a pure function of that slot's PU-activity and
        sensing-error rows, evaluated here in batches.  Nothing else of
        the slot before matters: a frozen slot never reads a fairness
        carry-over (``_extra_wait``), and the bulk update below zeroes it
        as each skipped slot's end would have.

        RNG contract: the look-ahead reads rows buffered in the streams'
        :class:`~repro.rng.RowStream` and consumes exactly the frozen
        prefix; the first non-frozen slot's rows stay buffered for the
        ordinary loop.  Both modes therefore read the same rows in the
        same order, and post-run ``rng_positions()`` are bit-identical.
        """
        slot = self._slot
        if (
            slot == 0
            or self._ongoing
            or self._rejoin_at
            or self._stuck_busy
            or self._stuck_idle
        ):
            return
        horizon = self.max_slots
        if self._fault_onsets:
            horizon = min(horizon, min(self._fault_onsets))
        if self._fault_expiries:
            horizon = min(horizon, min(self._fault_expiries))
        if self._pending_arrivals:
            horizon = min(horizon, int(self._pending_arrivals[0][0]))
        holding = self._active_mask & (self._hold_until_slot > slot)
        if holding.any():
            horizon = min(horizon, int(self._hold_until_slot[holding].min()))
        if horizon <= slot:
            return
        self._ff_scans += 1
        waiters = np.nonzero(self._active_mask & ~holding)[0]
        window = horizon - slot
        if waiters.size:
            skipped = self._scan_frozen_prefix(waiters, window)
        else:
            # No waiter can even contend before the horizon (everyone is
            # holding, or nobody is backlogged): skip the window blind.
            self._skip_frozen_rows(window)
            skipped = window
        if skipped == 0:
            self._ff_empty_scans += 1
            return
        self._ff_slots += skipped
        self._slot = slot + skipped
        # Per-slot bookkeeping of a frozen wait, applied in bulk: each
        # skipped slot counted every eligible waiter as frozen-by-PU and
        # zeroed the fairness carry-over of every active node.
        self._result.frozen_slot_count += skipped * int(waiters.size)
        if self._active:
            self._extra_wait[self._active_mask] = 0.0
        if self.blocking != "homogeneous":
            self._recompute_pu_busy()
        self.last_slot_su_links = []
        self.last_slot_su_channels = []
        self.last_slot_active_pus = list(self._active_pu_list)

    def _skip_frozen_rows(self, count: int) -> None:
        """Consume ``count`` slots' PU/sensing rows with no one contending.

        Mean-field blocking and sensing rows are skipped unseen (every
        stepped slot redraws both); geometric PU states are advanced
        through the rows, since the next slot continues from them.
        """
        if self.blocking == "homogeneous":
            self._pu_rows.skip(count)
        else:
            activity = self.topology.primary.activity
            remaining = count
            while remaining > 0:
                chunk = min(remaining, self._pu_rows.block_rows)
                self._pu_states = activity.next_states_batch(
                    self._pu_states, self._pu_rows.take(chunk)
                )[-1]
                remaining -= chunk
        if self._imperfect_sensing:
            self._sensing_rows.skip(count)

    def _scan_frozen_prefix(self, waiters: np.ndarray, window: int) -> int:
        """Consume the frozen-slot run starting now, capped at ``window``.

        Looks at buffered rows in windows that start at one slot and
        double while every slot stays frozen, then consumes exactly the
        frozen prefix and returns its length.  When the run ends at a
        thawed slot before ``window``, that slot's ready waiters and
        frozen count are left in ``_scanned_ready`` for the stepped slot.
        """
        homogeneous = self.blocking == "homogeneous"
        activity = self.topology.primary.activity
        pu_rows = self._pu_rows
        sensing_rows = self._sensing_rows if self._imperfect_sensing else None
        limit = pu_rows.block_rows
        if sensing_rows is not None:
            limit = min(limit, sensing_rows.block_rows)
        if not homogeneous:
            hearing = self._pu_incidence[waiters].T
        skipped = 0
        count = 1
        while skipped < window:
            count = min(count, window - skipped, limit)
            if homogeneous:
                busy = pu_rows.peek(count)[:, waiters] >= self.homogeneous_p_o
            else:
                states = activity.next_states_batch(
                    self._pu_states, pu_rows.peek(count)
                )
                busy = (states.astype(np.uint8) @ hearing) > 0
            if sensing_rows is not None:
                sensing = sensing_rows.peek(count)[:, waiters]
                sensed = np.where(
                    busy,
                    sensing >= self.p_missed_detection,
                    sensing < self.p_false_alarm,
                )
            else:
                sensed = busy
            frozen = sensed.all(axis=1)
            prefix = int(frozen.argmin())  # the first thawed slot, if any
            if frozen[prefix]:
                prefix = count
            if prefix:
                pu_rows.skip(prefix)
                if sensing_rows is not None:
                    sensing_rows.skip(prefix)
                if not homogeneous:
                    self._pu_states = states[prefix - 1]
                skipped += prefix
            if prefix < count:
                # The thawed slot is stepped next with the same eligible
                # set, so its ready set is already known here.
                ready = waiters[~sensed[prefix]]
                self._scanned_ready = (ready, int(waiters.size - ready.size))
                break
            count *= 2
        return skipped

    # ------------------------------------------------------------------ #
    # SU contention                                                       #
    # ------------------------------------------------------------------ #

    def _activate(self, node: int) -> None:
        """Node gained traffic: draw a backoff if it was idle."""
        if node in self._active:
            return
        self._active.add(node)
        self._active_mask[node] = True
        if node not in self._first_active_slot:
            self._first_active_slot[node] = self._slot
        self._draw_backoff(node)

    def _draw_backoff(self, node: int) -> None:
        # Uniform over (0, tau_c]: invert the half-open side of random().
        value = self.contention_window_ms * (1.0 - float(self._backoff_rng.random()))
        self._backoff[node] = value
        self._drawn[node] = value
        if self.trace is not None:
            self.trace.record(
                TraceEvent(
                    slot=self._slot,
                    kind=TraceKind.BACKOFF_DRAW,
                    node=node,
                    time_in_slot=value,
                )
            )
        if self._num_channels > 1:
            self._node_channel[node] = self._pick_channel(node)

    def _pick_channel(self, node: int) -> int:
        """Retune ``node`` per the configured channel strategy."""
        free = [
            c
            for c in range(self._num_channels)
            if self._busy_columns[c][node] == 0
        ]
        pool = free if free else list(range(self._num_channels))
        strategy = self.channel_strategy
        if strategy == "sticky":
            current = self._node_channel[node]
            if current in pool:
                return current
            strategy = "random-idle"
        if strategy == "least-blocked":
            best = min(self._static_channel_load[c][node] for c in pool)
            pool = [
                c for c in pool if self._static_channel_load[c][node] == best
            ]
        elif strategy == "adaptive":
            def score(channel: int) -> float:
                attempts = self._channel_attempts[node][channel]
                if attempts == 0:
                    return 1.0  # optimistic initialization
                return self._channel_successes[node][channel] / attempts

            best_score = max(score(c) for c in pool)
            pool = [c for c in pool if score(c) == best_score]
        return pool[int(self._backoff_rng.integers(0, len(pool)))]

    def _select_transmitters(self) -> List[Tuple[float, int, int, int]]:
        """Resolve intra-slot contention.

        Returns ``(expiry, node, receiver, channel)`` tuples; the channel
        is always 0 in the single-channel model.
        """
        extra_wait = self._extra_wait
        backoff = self._backoff
        node_channel = self._node_channel
        with obs.span("engine.phase.sensing"):
            if self._imperfect_sensing:
                sensing_draws = self._sensing_rows.take(1)[0]
            if self.detector is not None:
                # Energy detection: P(sensed busy) = 1 - P(miss every active
                # in-range PU) * P(no false alarm), vectorized per slot.
                miss_all = np.exp(self._miss_log @ self._pu_states.astype(float))
                p_sensed_busy = 1.0 - miss_all * (
                    1.0 - self.detector.false_alarm_probability
                )
            ongoing = self._ongoing
            if self._scanned_ready is not None:
                # The fast-forward look-ahead stopped at this slot and has
                # already sensed it, from the very rows this slot took.
                ready_nodes, frozen_by_pu = self._scanned_ready
                self._scanned_ready = None
            elif self._active:
                # Readiness scan, vectorized over full per-node arrays.
                # Every step is a mask (order-independent), so no container
                # iteration order can leak into results; the stable sort
                # below pins the ordering to (expiry, node).
                eligible = self._active_mask & (self._hold_until_slot <= self._slot)
                if ongoing:
                    # Mid-transmission nodes (multi-slot packets) sit out.
                    eligible[
                        np.fromiter(ongoing.keys(), dtype=np.int64, count=len(ongoing))
                    ] = False
                if self.detector is not None:
                    sensed = sensing_draws < p_sensed_busy
                else:
                    if self._num_channels == 1:
                        busy = self._pu_busy > 0
                    else:
                        busy = (
                            self._busy_columns[node_channel, self._node_index] > 0
                        )
                    if self._imperfect_sensing:
                        sensed = np.where(
                            busy,
                            sensing_draws >= self.p_missed_detection,
                            sensing_draws < self.p_false_alarm,
                        )
                    else:
                        sensed = busy
                # Sensing faults pin the detector output, consuming no draws;
                # a node under both faults senses busy (stuck-busy wins).
                if self._stuck_idle:
                    sensed = sensed.copy()
                    sensed[
                        np.fromiter(
                            self._stuck_idle,
                            dtype=np.int64,
                            count=len(self._stuck_idle),
                        )
                    ] = False
                if self._stuck_busy:
                    sensed = sensed.copy()
                    sensed[
                        np.fromiter(
                            self._stuck_busy,
                            dtype=np.int64,
                            count=len(self._stuck_busy),
                        )
                    ] = True
                ready_nodes = np.nonzero(eligible & ~sensed)[0]
                frozen_by_pu = int(np.count_nonzero(eligible)) - ready_nodes.size
            else:
                ready_nodes = np.zeros(0, dtype=np.int64)
                frozen_by_pu = 0
            self._result.frozen_slot_count += frozen_by_pu
            self._result.opportunity_slot_count += int(ready_nodes.size)
            if ready_nodes.size:
                self._result.contention_slot_count += 1
            expiries = extra_wait[ready_nodes] + backoff[ready_nodes]
            # ready_nodes is ascending, so a stable sort on expiry alone keeps
            # equal expiries in ascending-node order: the (expiry, node) key.
            order = np.argsort(expiries, kind="stable")
            ready_nodes = ready_nodes[order]
            ready = zip(
                expiries[order].tolist(),
                ready_nodes.tolist(),
                node_channel[ready_nodes].tolist(),
            )

        with obs.span("engine.phase.backoff"):
            neighbors = self.sense_map.su_neighbors
            # Per channel (one contention domain each), the transmissions
            # holding the spectrum in the order their holds began: those
            # still in flight from earlier slots hold from the slot start,
            # then this slot's transmitters in expiry order.  The first
            # holder a node hears is therefore the one that blocked it
            # earliest.
            holders: List[List[Tuple[float, List[int]]]] = [
                [] for _ in range(self._num_channels)
            ]
            for node, (_, channel, _, _) in ongoing.items():
                holders[channel].append((0.0, neighbors[node]))
            transmitters: List[Tuple[float, int, int, int]] = []
            for expiry, node, channel in ready:
                channel_holders = holders[channel]
                block_time = None
                for start, heard in channel_holders:
                    if node in heard:
                        block_time = start
                        break
                if block_time is not None:
                    # Frozen mid-countdown (lines 6-7): keep the remainder.
                    consumed = max(0.0, block_time - extra_wait[node])
                    backoff[node] = max(backoff[node] - consumed, 1e-12)
                    if self.trace is not None:
                        self.trace.record(
                            TraceEvent(
                                slot=self._slot,
                                kind=TraceKind.FREEZE,
                                node=node,
                                time_in_slot=block_time,
                            )
                        )
                    continue

                packet = self._queues[node][0]
                receiver = self.policy.next_hop(node, packet)
                transmitters.append((expiry, node, receiver, channel))
                channel_holders.append((expiry, neighbors[node]))
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            slot=self._slot,
                            kind=TraceKind.TX_START,
                            node=node,
                            peer=receiver,
                            packet_id=packet.packet_id,
                            time_in_slot=expiry,
                        )
                    )
        return transmitters

    def _adjudicate(
        self,
        completing: List[Tuple[float, int, int, int]],
        concurrent: Optional[List[Tuple[float, int, int, int]]] = None,
    ) -> List[bool]:
        """Physical-model outcome for the transmissions completing this slot.

        A link succeeds iff (a) no stronger concurrent signal targets its
        receiver (single-radio capture, RS mode) and (b) its SIR over all
        other concurrent SU transmitters plus all active PUs meets
        ``eta_s``.  With ``sir_check=False``, only the capture rule (a)
        applies — the PCR guarantee replaces (b).

        ``concurrent`` lists every transmission on the air during the slot
        (multi-slot packets still in flight included); it defaults to
        ``completing`` in the single-slot-packet model.
        """
        if concurrent is None:
            concurrent = completing
        count = len(concurrent)
        if not completing:
            return []
        if count == 1 and len(completing) == 1 and self._active_pus.size == 0:
            # A lone transmitter with no active PU: the capture rule holds
            # trivially and the interference sum is exactly zero, so the
            # SIR is +inf regardless of signal strength — success either
            # way.  This is the overwhelmingly common slot shape (and the
            # only shape under homogeneous blocking, where _pu_states
            # never toggles).
            return [True]
        tx_nodes = [node for _, node, _, _ in concurrent]
        rx_nodes = [receiver for _, _, receiver, _ in concurrent]
        channels = [channel for _, _, _, channel in concurrent]
        tx_pos = self._positions[tx_nodes]
        rx_pos = self._positions[rx_nodes]

        # Signal powers at the receivers.
        deltas = tx_pos - rx_pos
        signal_dist = np.maximum(
            np.hypot(deltas[:, 0], deltas[:, 1]), _MIN_DISTANCE
        )
        signal = self._su_power * signal_dist ** (-self.alpha)
        if self._link_loss:
            # Link-degradation faults: extra path loss on specific directed
            # links weakens the *signal* only (interference terms keep
            # their free-space power), so the link's SIR margin shrinks.
            for index in range(count):
                factor = self._link_loss.get((tx_nodes[index], rx_nodes[index]))
                if factor is not None:
                    signal[index] *= factor
        strengths = signal.tolist()

        # Capture rule: among links sharing a receiver, only the strongest
        # signal can be decoded.  A later link replaces the receiver's
        # current winner only when strictly stronger, so an exact tie goes
        # to the first link.  A slot carries a handful of links, so a
        # Python scan beats numpy grouping here.
        winner: Dict[int, int] = {}
        for index, receiver in enumerate(rx_nodes):
            best = winner.get(receiver)
            if best is None or strengths[index] > strengths[best]:
                winner[receiver] = index
        ok = [winner[receiver] == index for index, receiver in enumerate(rx_nodes)]

        if not self.sir_check:
            if completing is concurrent:
                return ok
            index_of = {node: index for index, node in enumerate(tx_nodes)}
            return [ok[index_of[node]] for _, node, _, _ in completing]

        # Interference at each receiver: all other *same-channel* SU
        # transmitters ...
        tx_deltas = rx_pos[:, None, :] - tx_pos[None, :, :]
        tx_dist = np.maximum(
            np.hypot(tx_deltas[..., 0], tx_deltas[..., 1]), _MIN_DISTANCE
        )
        su_interference = self._su_power * tx_dist ** (-self.alpha)
        np.fill_diagonal(su_interference, 0.0)
        if self._num_channels > 1:
            channel_array = np.asarray(channels)
            same_channel = channel_array[:, None] == channel_array[None, :]
            su_interference = su_interference * same_channel
        interference = su_interference.sum(axis=1)

        # ... plus every active *same-channel* PU.
        active = self._active_pus
        if active.size:
            pu_pos = self._pu_positions[active]
            pu_deltas = rx_pos[:, None, :] - pu_pos[None, :, :]
            pu_dist = np.maximum(
                np.hypot(pu_deltas[..., 0], pu_deltas[..., 1]), _MIN_DISTANCE
            )
            pu_terms = self._pu_power * pu_dist ** (-self.alpha)
            if self._num_channels > 1:
                pu_channels = self.channel_plan.pu_channels[active]
                same_channel_pu = (
                    np.asarray(channels)[:, None] == pu_channels[None, :]
                )
                pu_terms = pu_terms * same_channel_pu
            interference = interference + pu_terms.sum(axis=1)

        # SIR test in Python floats: the same IEEE division and comparison
        # as an elementwise numpy one; a link that hears no interference
        # at all has infinite SIR.
        eta_s = self.eta_s
        success = [
            captured and (noise <= 0.0 or strength / noise >= eta_s)
            for captured, strength, noise in zip(
                ok, strengths, interference.tolist()
            )
        ]
        if completing is concurrent:
            return success
        index_of = {node: index for index, node in enumerate(tx_nodes)}
        return [success[index_of[node]] for _, node, _, _ in completing]

    def _handoff_check(self) -> None:
        """Abort in-flight transmissions whose channel a PU has reclaimed.

        Section I's spectrum-handoff rule: the SU vacates immediately, the
        packet stays queued, and the node re-contends once the spectrum
        frees up again (a fresh backoff draw).
        """
        aborted = [
            node
            for node, (_, channel, _, _) in self._ongoing.items()
            if self._blocked_on(node, channel)
        ]
        for node in aborted:
            del self._ongoing[node]
            self._result.handoffs += 1
            self._draw_backoff(node)

    def _contend_and_transmit(self) -> None:
        if self.packet_slots > 1:
            self._handoff_check()
        new_transmitters = self._select_transmitters()
        if self.packet_slots == 1:
            completing = new_transmitters
            concurrent = new_transmitters
        else:
            end_slot = self._slot + self.packet_slots - 1
            for expiry, node, receiver, channel in new_transmitters:
                self._ongoing[node] = (receiver, channel, end_slot, expiry)
            concurrent = [
                (expiry, node, receiver, channel)
                for node, (receiver, channel, _, expiry) in self._ongoing.items()
            ]
            completing = [
                (expiry, node, receiver, channel)
                for node, (receiver, channel, finish, expiry) in (
                    self._ongoing.items()
                )
                if finish == self._slot
            ]
        with obs.span("engine.phase.adjudicate"):
            outcomes = self._adjudicate(completing, concurrent)

        self.last_slot_su_links = [
            (node, receiver) for _, node, receiver, _ in concurrent
        ]
        self.last_slot_su_channels = [channel for _, _, _, channel in concurrent]
        self.last_slot_active_pus = list(self._active_pu_list)
        if concurrent:
            count = len(concurrent)
            histogram = self._result.concurrent_tx_histogram
            histogram[count] = histogram.get(count, 0) + 1

        if completing:
            with obs.span("engine.phase.deliver"):
                self._finish_slot(completing, outcomes)
        else:
            with obs.span("engine.phase.frozen_wait"):
                self._finish_slot(completing, outcomes)

    def _finish_slot(
        self,
        completing: List[Tuple[float, int, int, int]],
        outcomes: List[bool],
    ) -> None:
        # Slot end: deliveries, fairness waits, backoff redraws.
        extra_wait = self._extra_wait
        if self._active:
            extra_wait[self._active_mask] = 0.0

        newly_active: List[int] = []
        finished_nodes: List[int] = []
        for (_, node, receiver, channel), success in zip(completing, outcomes):
            if self.packet_slots > 1:
                del self._ongoing[node]
            self._result.tx_attempts[node] = self._result.tx_attempts.get(node, 0) + 1
            if self._num_channels > 1:
                self._channel_attempts[node][channel] += 1
                if success:
                    self._channel_successes[node][channel] += 1
            if self._blocked_on(node, channel):
                # A missed detection let this node transmit while a PU was
                # active inside its protection range (on its channel).
                self._result.pu_violations += 1
            if self._bs_blackouts > 0 and receiver == self._base_station:
                # Base-station blackout: the sink is not listening, so the
                # delivery fails regardless of SIR.  The sender backs off
                # exponentially and retries; this is *not* a collision
                # (ADDC's collision-free property is about contention).
                self._result.blackout_failures += 1
                streak = min(
                    self._collision_streak[node] + 1, self.max_backoff_exponent
                )
                self._collision_streak[node] = streak
                window = 1 << streak
                self._hold_until_slot[node] = (
                    self._slot + 1 + int(self._backoff_rng.integers(0, window))
                )
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            slot=self._slot,
                            kind=TraceKind.TX_ABORT,
                            node=node,
                            peer=receiver,
                        )
                    )
            elif not success:
                # Hidden-terminal collision or capture loss: the packet
                # stays queued and is retransmitted after an exponentially
                # growing random hold-off (the paper's footnote 2).
                self._result.collisions += 1
                streak = min(
                    self._collision_streak[node] + 1, self.max_backoff_exponent
                )
                self._collision_streak[node] = streak
                window = 1 << streak
                self._hold_until_slot[node] = (
                    self._slot + 1 + int(self._backoff_rng.integers(0, window))
                )
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            slot=self._slot,
                            kind=TraceKind.TX_COLLISION,
                            node=node,
                            peer=receiver,
                        )
                    )
            else:
                self._collision_streak[node] = 0
                packet = self._queues[node].popleft()
                packet.hops += 1
                if packet.route is not None:
                    packet.route_pos += 1
                self._result.tx_successes[node] = (
                    self._result.tx_successes.get(node, 0) + 1
                )
                self._result.rx_successes[receiver] = (
                    self._result.rx_successes.get(receiver, 0) + 1
                )
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            slot=self._slot,
                            kind=TraceKind.TX_SUCCESS,
                            node=node,
                            peer=receiver,
                            packet_id=packet.packet_id,
                        )
                    )
                if packet.route is not None:
                    # Routed packets (unicast flows, control traffic)
                    # arrive only at their route's final node — possibly a
                    # plain SU, possibly the base station acting as a relay
                    # mid-route.
                    arrived = packet.at_route_end
                else:
                    arrived = receiver == self._base_station
                if packet.is_data and arrived:
                    self._result.deliveries.append(
                        PacketRecord(
                            packet_id=packet.packet_id,
                            source=packet.source,
                            birth_slot=packet.birth_slot,
                            delivered_slot=self._slot,
                            hops=packet.hops,
                        )
                    )
                    if self.trace is not None:
                        self.trace.record(
                            TraceEvent(
                                slot=self._slot,
                                kind=TraceKind.DELIVERY,
                                node=receiver,
                                peer=node,
                                packet_id=packet.packet_id,
                            )
                        )
                elif packet.route is not None and packet.at_route_end:
                    # A control packet reached its final node: let the
                    # policy react (e.g. answer an RREQ with an RREP, or
                    # release a data packet on RREP arrival).
                    handler = getattr(self.policy, "on_control_arrival", None)
                    spawned = handler(packet, receiver) if handler else []
                    for new_packet in spawned:
                        self._queues[receiver].append(new_packet)
                        self._note_queue(receiver)
                    if spawned and receiver not in self._active:
                        newly_active.append(receiver)
                else:
                    data_handler = getattr(self.policy, "on_data_arrival", None)
                    if data_handler is not None and packet.is_data:
                        # Aggregating policies absorb arriving data and
                        # decide what (if anything) the relay forwards.
                        spawned = data_handler(packet, receiver)
                        for new_packet in spawned:
                            self._queues[receiver].append(new_packet)
                            self._note_queue(receiver)
                        if spawned and receiver not in self._active:
                            newly_active.append(receiver)
                    else:
                        self._queues[receiver].append(packet)
                        self._note_queue(receiver)
                        if receiver not in self._active:
                            newly_active.append(receiver)

            if self.policy.fairness_wait:
                extra_wait[node] = self.contention_window_ms - self._drawn[node]
            if self._queues[node]:
                self._draw_backoff(node)
            else:
                finished_nodes.append(node)

        for node in finished_nodes:
            if self._queues[node]:
                # A later same-slot transmission (possible on another
                # channel) delivered into this node after it drained its
                # own queue: it stays active with a fresh backoff.
                self._draw_backoff(node)
                continue
            # Record the contention span for energy accounting (the node
            # may re-activate later; spans accumulate).
            span = self._slot - self._first_active_slot.pop(node, self._slot) + 1
            self._result.active_slot_spans[node] = (
                self._result.active_slot_spans.get(node, 0) + span
            )
            self._active.discard(node)
            self._active_mask[node] = False
            extra_wait[node] = 0.0
        for node in newly_active:
            self._activate(node)

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def slot(self) -> int:
        """The next slot index to be simulated."""
        return self._slot

    @property
    def fastforward_slots(self) -> int:
        """Slots advanced by the frozen-slot fast-forward.

        Pure telemetry (also published as ``engine.fastforward_slots``):
        deliberately *not* part of :class:`SimulationResult`, so results
        compare equal between fast-forwarded and slot-by-slot runs.
        """
        return self._ff_slots

    @property
    def fastforward_scans(self) -> int:
        """Fast-forward look-aheads: attempts that had a horizon ahead.

        Telemetry like :attr:`fastforward_slots` (published as
        ``engine.ff_scans``); a deterministic work count.
        """
        return self._ff_scans

    @property
    def fastforward_empty_scans(self) -> int:
        """Look-aheads that skipped nothing: the next slot was thawed.

        Published as ``engine.ff_empty_scans``.  Such a look-ahead still
        pays off: the stepped slot reuses the ready set it computed.
        """
        return self._ff_empty_scans

    @property
    def rng_rows_generated(self) -> int:
        """Uniform rows the per-slot row streams generated so far.

        A deterministic work counter (published as
        ``engine.rng_rows_generated``): about one row per stream per
        stepped or scanned slot, plus at most one block of look-ahead per
        run.  Blind-skipped rows are jumped over, never generated.
        """
        streams = (self._pu_rows, self._sensing_rows)
        return sum(rows.rows_generated for rows in streams if rows is not None)

    def _sync_streams(self) -> None:
        """Position every wrapped generator as sequential draws would."""
        self._sensing_rows.sync()
        if self._pu_rows is not None:
            self._pu_rows.sync()

    def rng_positions(self) -> Dict[str, str]:
        """Stable fingerprints of the engine's RNG stream states.

        One BLAKE2b digest per consumed stream over the serialized
        bit-generator state.  Two runs that drew the same values in the
        same order end with equal fingerprints, so the parallel-executor
        determinism tests can assert "same draws" without shipping whole
        generator states around.  The row streams are synced first, so a
        mid-run call is exact too (it only drops the buffered look-ahead).
        """
        import hashlib
        import json

        self._sync_streams()
        fingerprints: Dict[str, str] = {}
        for name, rng in (
            ("pu-activity", self._pu_rng),
            ("backoff", self._backoff_rng),
            ("sensing-errors", self._sensing_rng),
        ):
            state = json.dumps(
                rng.bit_generator.state, sort_keys=True, default=int
            )
            fingerprints[name] = hashlib.blake2b(
                state.encode("utf-8"), digest_size=8
            ).hexdigest()
        return fingerprints

    def queue_length(self, node: int) -> int:
        """Current queue length at a node (for tests and live inspection)."""
        return len(self._queues[node])

    def total_queued(self) -> int:
        """Packets currently queued anywhere in the secondary network."""
        return sum(len(queue) for queue in self._queues)
