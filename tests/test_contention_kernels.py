"""The engine's contention kernels against their earlier implementations.

``SlottedEngine._select_transmitters`` resolves intra-slot contention by
walking the ready list against the transmissions already holding the
spectrum, and ``SlottedEngine._adjudicate`` applies the capture rule and
the SIR test in plain Python over the handful of links a slot carries.
They replaced a per-neighbour block-time dict walk and ``np.unique`` +
``ufunc.at`` grouping, whose per-call overhead outweighed the work on
sets of two or three links.  The replaced kernels are kept below,
verbatim in their arithmetic, as reference functions, and every case
here requires the current kernels to reproduce them exactly: the same
transmitters, backoff remainders and FREEZE times; the same success
list.

The current kernels are driven on a bare engine object that carries only
the state they read, so each case can pick an arbitrary neighbour graph,
geometry, channel set and fault state instead of what a deployment
happens to produce.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.engine import _MIN_DISTANCE, SlottedEngine
from repro.sim.results import SimulationResult
from repro.sim.trace import TraceKind, TraceLog

Link = Tuple[float, int, int, int]

#: The engine's default SIR threshold (8 dB).
ETA_S = 10.0 ** 0.8


# --------------------------------------------------------------------- #
# Reference kernels: the per-neighbour dict walk and np.unique capture   #
# --------------------------------------------------------------------- #


def reference_select(
    ready_nodes: np.ndarray,
    neighbors: List[List[int]],
    ongoing: Dict[int, Tuple[int, int, int, float]],
    node_channel: np.ndarray,
    extra_wait: np.ndarray,
    backoff: np.ndarray,
    num_channels: int,
    receiver_of: Dict[int, int],
):
    """The dict-walk transmitter selection; mutates ``backoff``.

    Returns ``(transmitters, freezes)`` with ``freezes`` the
    ``(node, block_time)`` of every FREEZE event in order.
    """
    expiries = extra_wait[ready_nodes] + backoff[ready_nodes]
    order = np.argsort(expiries, kind="stable")
    ready = list(zip(expiries[order].tolist(), ready_nodes[order].tolist()))
    blocked_at: List[Dict[int, float]] = [{} for _ in range(num_channels)]
    for node, (_, channel, _, _) in ongoing.items():
        channel_blocks = blocked_at[channel]
        for neighbor in neighbors[node]:
            channel_blocks[neighbor] = 0.0
    transmitters: List[Link] = []
    freezes: List[Tuple[int, float]] = []
    for expiry, node in ready:
        channel = int(node_channel[node])
        block_time = blocked_at[channel].get(node)
        if block_time is not None and block_time <= expiry:
            consumed = max(0.0, block_time - extra_wait[node])
            backoff[node] = max(backoff[node] - consumed, 1e-12)
            freezes.append((node, block_time))
            continue
        receiver = receiver_of[node]
        transmitters.append((expiry, node, receiver, channel))
        channel_blocks = blocked_at[channel]
        for neighbor in neighbors[node]:
            current = channel_blocks.get(neighbor)
            if current is None or expiry < current:
                channel_blocks[neighbor] = expiry
    return transmitters, freezes


def reference_adjudicate(
    completing: List[Link],
    concurrent: List[Link],
    positions: np.ndarray,
    pu_positions: np.ndarray,
    active_pus: np.ndarray,
    pu_channels: np.ndarray,
    link_loss: Dict[Tuple[int, int], float],
    num_channels: int,
    sir_check: bool,
    eta_s: float,
    su_power: float = 1.0,
    pu_power: float = 1.0,
    alpha: float = 4.0,
) -> List[bool]:
    """The np.unique / ufunc.at adjudication."""
    count = len(concurrent)
    if not completing:
        return []
    if count == 1 and len(completing) == 1 and active_pus.size == 0:
        return [True]
    tx_nodes = [node for _, node, _, _ in concurrent]
    rx_nodes = [receiver for _, _, receiver, _ in concurrent]
    signal, interference = reference_floats(
        concurrent, positions, pu_positions, active_pus, pu_channels,
        link_loss, num_channels, su_power, pu_power, alpha,
    )
    receiver_groups, group_of = np.unique(rx_nodes, return_inverse=True)
    best = np.full(receiver_groups.size, -np.inf)
    np.maximum.at(best, group_of, signal)
    achieves_max = np.nonzero(signal == best[group_of])[0]
    first_winner = np.full(receiver_groups.size, count, dtype=np.int64)
    np.minimum.at(first_winner, group_of[achieves_max], achieves_max)
    ok = first_winner[group_of] == np.arange(count)
    if not sir_check:
        if completing is concurrent:
            return ok.tolist()
        index_of = {node: index for index, node in enumerate(tx_nodes)}
        return [bool(ok[index_of[node]]) for _, node, _, _ in completing]
    with np.errstate(divide="ignore"):
        sir = np.where(interference > 0.0, signal / interference, np.inf)
    success = ok & (sir >= eta_s)
    if completing is concurrent:
        return success.tolist()
    index_of = {node: index for index, node in enumerate(tx_nodes)}
    return [bool(success[index_of[node]]) for _, node, _, _ in completing]


def reference_floats(
    concurrent, positions, pu_positions, active_pus, pu_channels,
    link_loss, num_channels, su_power=1.0, pu_power=1.0, alpha=4.0,
):
    """Signal and interference floats of every concurrent link."""
    count = len(concurrent)
    tx_nodes = [node for _, node, _, _ in concurrent]
    rx_nodes = [receiver for _, _, receiver, _ in concurrent]
    channels = [channel for _, _, _, channel in concurrent]
    tx_pos = positions[tx_nodes]
    rx_pos = positions[rx_nodes]
    deltas = tx_pos - rx_pos
    signal_dist = np.maximum(np.hypot(deltas[:, 0], deltas[:, 1]), _MIN_DISTANCE)
    signal = su_power * signal_dist ** (-alpha)
    for index in range(count):
        factor = link_loss.get((tx_nodes[index], rx_nodes[index]))
        if factor is not None:
            signal[index] *= factor
    tx_deltas = rx_pos[:, None, :] - tx_pos[None, :, :]
    tx_dist = np.maximum(
        np.hypot(tx_deltas[..., 0], tx_deltas[..., 1]), _MIN_DISTANCE
    )
    su_interference = su_power * tx_dist ** (-alpha)
    np.fill_diagonal(su_interference, 0.0)
    if num_channels > 1:
        channel_array = np.asarray(channels)
        same_channel = channel_array[:, None] == channel_array[None, :]
        su_interference = su_interference * same_channel
    interference = su_interference.sum(axis=1)
    if active_pus.size:
        pu_pos = pu_positions[active_pus]
        pu_deltas = rx_pos[:, None, :] - pu_pos[None, :, :]
        pu_dist = np.maximum(
            np.hypot(pu_deltas[..., 0], pu_deltas[..., 1]), _MIN_DISTANCE
        )
        pu_terms = pu_power * pu_dist ** (-alpha)
        if num_channels > 1:
            same_channel_pu = (
                np.asarray(channels)[:, None] == pu_channels[active_pus][None, :]
            )
            pu_terms = pu_terms * same_channel_pu
        interference = interference + pu_terms.sum(axis=1)
    return signal, interference


# --------------------------------------------------------------------- #
# Bare engines carrying only the state each kernel reads                 #
# --------------------------------------------------------------------- #


def selection_engine(
    num_nodes, neighbors, ongoing, node_channel, extra_wait, backoff,
    num_channels, receiver_of, ready_nodes,
):
    engine = SlottedEngine.__new__(SlottedEngine)
    engine._extra_wait = extra_wait
    engine._backoff = backoff
    engine._node_channel = node_channel
    engine._imperfect_sensing = False
    engine.detector = None
    engine._ongoing = ongoing
    # The look-ahead hand-off: the kernel under test starts from a ready
    # set exactly as the stepped slot after a fast-forward scan does.
    engine._scanned_ready = (np.asarray(ready_nodes, dtype=np.int64), 0)
    engine._result = SimulationResult(num_packets=1, slot_duration_ms=1.0)
    engine.sense_map = SimpleNamespace(su_neighbors=neighbors)
    engine._num_channels = num_channels
    engine._queues = [
        [SimpleNamespace(packet_id=node)] for node in range(num_nodes)
    ]
    engine.policy = SimpleNamespace(
        next_hop=lambda node, packet: receiver_of[node]
    )
    engine.trace = TraceLog()
    engine._slot = 7
    return engine


def run_selection(engine):
    transmitters = engine._select_transmitters()
    freezes = [
        (event.node, event.time_in_slot)
        for event in engine.trace.of_kind(TraceKind.FREEZE)
    ]
    return transmitters, freezes


def adjudication_engine(
    positions, pu_positions, active_pus, pu_channels, link_loss,
    num_channels, sir_check, eta_s,
):
    engine = SlottedEngine.__new__(SlottedEngine)
    engine._positions = positions
    engine._pu_positions = pu_positions
    engine._active_pus = active_pus
    engine._su_power = 1.0
    engine._pu_power = 1.0
    engine.alpha = 4.0
    engine.eta_s = eta_s
    engine.sir_check = sir_check
    engine._link_loss = link_loss
    engine._num_channels = num_channels
    engine.channel_plan = SimpleNamespace(pu_channels=pu_channels)
    return engine


# --------------------------------------------------------------------- #
# Transmitter selection                                                  #
# --------------------------------------------------------------------- #


@st.composite
def contention_cases(draw):
    num_nodes = draw(st.integers(2, 12))
    nodes = list(range(num_nodes))
    # Asymmetric hearing is allowed: the kernel must read "does the
    # holder's neighbourhood contain me", not the reverse.
    neighbors = [
        sorted(
            draw(st.sets(st.sampled_from([m for m in nodes if m != node]),
                         max_size=num_nodes - 1))
        )
        for node in nodes
    ]
    num_channels = draw(st.integers(1, 3))
    node_channel = np.array(
        [draw(st.integers(0, num_channels - 1)) for _ in nodes], dtype=np.int64
    )
    flying = draw(st.sets(st.sampled_from(nodes), max_size=3))
    ongoing = {
        node: (
            (node + 1) % num_nodes,
            draw(st.integers(0, num_channels - 1)),
            9,
            draw(st.floats(0.0, 0.5)),
        )
        for node in sorted(flying)
    }
    candidates = [node for node in nodes if node not in flying]
    ready = (
        sorted(draw(st.sets(st.sampled_from(candidates), max_size=num_nodes)))
        if candidates
        else []
    )
    # A small value pool makes exact expiry ties (and exact block-time ==
    # expiry freezes) common instead of measure-zero.
    pool = st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.3, 0.5])
    backoff = np.array(
        [draw(st.one_of(pool, st.floats(1e-6, 0.5))) for _ in nodes]
    )
    extra_wait = np.array(
        [draw(st.one_of(st.just(0.0), pool, st.floats(0.0, 0.5))) for _ in nodes]
    )
    receiver_of = {node: draw(st.sampled_from(nodes)) for node in nodes}
    return (num_nodes, neighbors, ongoing, node_channel, extra_wait, backoff,
            num_channels, receiver_of, ready)


def assert_selection_matches(case):
    (num_nodes, neighbors, ongoing, node_channel, extra_wait, backoff,
     num_channels, receiver_of, ready) = case
    reference_backoff = backoff.copy()
    expected = reference_select(
        np.asarray(ready, dtype=np.int64), neighbors, ongoing, node_channel,
        extra_wait.copy(), reference_backoff, num_channels, receiver_of,
    )
    engine = selection_engine(
        num_nodes, neighbors, ongoing, node_channel, extra_wait.copy(),
        backoff.copy(), num_channels, receiver_of, ready,
    )
    transmitters, freezes = run_selection(engine)
    assert transmitters == expected[0]
    assert freezes == expected[1]
    # Bit-exact remainders, not approximately equal ones.
    assert engine._backoff.tobytes() == reference_backoff.tobytes()
    assert engine._result.opportunity_slot_count == len(ready)
    assert engine._scanned_ready is None


class TestTransmitterSelection:
    @settings(max_examples=300, deadline=None)
    @given(contention_cases())
    def test_matches_dict_walk(self, case):
        assert_selection_matches(case)

    def test_in_flight_holder_freezes_from_slot_start(self):
        # Node 0 is mid-packet; its neighbour 1 is frozen at time 0.0 and
        # keeps its whole backoff (nothing counted down before 0.0).
        case = (
            3, [[1], [], []], {0: (2, 0, 9, 0.2)}, np.zeros(3, dtype=np.int64),
            np.array([0.0, 0.1, 0.0]), np.array([0.3, 0.2, 0.4]), 1,
            {0: 2, 1: 2, 2: 1}, [1, 2],
        )
        assert_selection_matches(case)
        engine = selection_engine(*case)
        transmitters, freezes = run_selection(engine)
        assert freezes == [(1, 0.0)]
        assert [node for _, node, _, _ in transmitters] == [2]

    def test_earliest_holder_sets_the_freeze_time(self):
        # Nodes 0 and 1 both transmit (they cannot hear each other) and
        # node 2 hears both: the FREEZE time is the earlier start.
        case = (
            3, [[2], [2], []], {}, np.zeros(3, dtype=np.int64),
            np.zeros(3), np.array([0.1, 0.2, 0.3]), 1, {0: 2, 1: 2, 2: 0},
            [0, 1, 2],
        )
        assert_selection_matches(case)
        transmitters, freezes = run_selection(selection_engine(*case))
        assert [node for _, node, _, _ in transmitters] == [0, 1]
        assert freezes == [(2, 0.1)]

    def test_exact_tie_freezes_the_later_node(self):
        # Equal expiries sort by node id; the holder's start equals the
        # waiter's expiry, which still freezes it (block time <= expiry).
        case = (
            2, [[1], [0]], {}, np.zeros(2, dtype=np.int64), np.zeros(2),
            np.array([0.25, 0.25]), 1, {0: 1, 1: 0}, [0, 1],
        )
        assert_selection_matches(case)
        transmitters, freezes = run_selection(selection_engine(*case))
        assert [node for _, node, _, _ in transmitters] == [0]
        assert freezes == [(1, 0.25)]

    def test_other_channel_does_not_block(self):
        case = (
            2, [[1], [0]], {}, np.array([0, 1], dtype=np.int64), np.zeros(2),
            np.array([0.1, 0.2]), 2, {0: 1, 1: 0}, [0, 1],
        )
        assert_selection_matches(case)
        transmitters, freezes = run_selection(selection_engine(*case))
        assert [node for _, node, _, _ in transmitters] == [0, 1]
        assert freezes == []


# --------------------------------------------------------------------- #
# Adjudication                                                           #
# --------------------------------------------------------------------- #


@st.composite
def adjudication_cases(draw):
    num_nodes = draw(st.integers(2, 8))
    # Integer coordinates make equal distances, hence exact signal ties,
    # common; co-located pairs exercise the distance clamp.
    coordinate = st.integers(0, 6).map(float)
    positions = np.array(
        [[draw(coordinate), draw(coordinate)] for _ in range(num_nodes)]
    )
    num_pus = draw(st.integers(0, 3))
    pu_positions = np.array(
        [[draw(coordinate), draw(coordinate)] for _ in range(num_pus)]
    ).reshape(num_pus, 2)
    num_channels = draw(st.integers(1, 3))
    pu_channels = np.array(
        [draw(st.integers(0, num_channels - 1)) for _ in range(num_pus)],
        dtype=np.int64,
    )
    active_pus = np.array(
        sorted(draw(st.sets(st.integers(0, max(num_pus - 1, 0)), max_size=num_pus)))
        if num_pus else [],
        dtype=np.int64,
    )
    senders = draw(
        st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=num_nodes,
                 unique=True)
    )
    # Few receivers for many senders: shared receivers are the norm.
    receivers = st.integers(0, min(num_nodes - 1, 2))
    concurrent = [
        (
            draw(st.floats(0.01, 0.5)),
            sender,
            draw(receivers),
            draw(st.integers(0, num_channels - 1)),
        )
        for sender in senders
    ]
    lossy = draw(st.sets(st.sampled_from(range(len(concurrent))), max_size=2))
    link_loss = {
        (concurrent[index][1], concurrent[index][2]):
            10.0 ** (-draw(st.sampled_from([0.0, 3.0, 6.0, 20.0])) / 10.0)
        for index in lossy
    }
    # Multi-slot packets: only some of the links on the air complete.
    if draw(st.booleans()):
        completing = concurrent
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(concurrent),
                             max_size=len(concurrent)))
        completing = [link for link, kept in zip(concurrent, keep) if kept]
    sir_check = draw(st.booleans())
    eta_s = ETA_S
    if draw(st.booleans()):
        # Put the threshold exactly on one link's SIR: the boundary case
        # of the ">=" comparison.
        signal, interference = reference_floats(
            concurrent, positions, pu_positions, active_pus, pu_channels,
            link_loss, num_channels,
        )
        finite = [
            float(s / i) for s, i in zip(signal, interference) if i > 0.0
        ]
        if finite:
            eta_s = draw(st.sampled_from(finite))
    return (completing, concurrent, positions, pu_positions, active_pus,
            pu_channels, link_loss, num_channels, sir_check, eta_s)


def assert_adjudication_matches(case):
    (completing, concurrent, positions, pu_positions, active_pus,
     pu_channels, link_loss, num_channels, sir_check, eta_s) = case
    expected = reference_adjudicate(
        completing, concurrent, positions, pu_positions, active_pus,
        pu_channels, link_loss, num_channels, sir_check, eta_s,
    )
    engine = adjudication_engine(
        positions, pu_positions, active_pus, pu_channels, link_loss,
        num_channels, sir_check, eta_s,
    )
    got = engine._adjudicate(completing, concurrent)
    assert got == expected
    assert all(type(outcome) is bool for outcome in got)
    return got


def single_channel_case(concurrent, positions, completing=None, sir_check=True,
                        eta_s=ETA_S, link_loss=None, active_pus=(),
                        pu_positions=((0.0, 0.0),)):
    return (
        concurrent if completing is None else completing,
        concurrent,
        np.asarray(positions, dtype=float),
        np.asarray(pu_positions, dtype=float),
        np.asarray(active_pus, dtype=np.int64),
        np.zeros(len(pu_positions), dtype=np.int64),
        link_loss or {},
        1,
        sir_check,
        eta_s,
    )


class TestAdjudication:
    @settings(max_examples=400, deadline=None)
    @given(adjudication_cases())
    def test_matches_unique_capture(self, case):
        assert_adjudication_matches(case)

    def test_exact_signal_tie_goes_to_the_first_link(self):
        # Senders 1 and 2 sit at distance 1 from the shared receiver 0.
        positions = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0), (0.2, 2, 0, 0)]
        got = assert_adjudication_matches(
            single_channel_case(concurrent, positions, sir_check=False)
        )
        assert got == [True, False]

    def test_stronger_later_link_captures(self):
        positions = [(0.0, 0.0), (0.0, 3.0), (1.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0), (0.2, 2, 0, 0)]
        got = assert_adjudication_matches(
            single_channel_case(concurrent, positions, sir_check=False)
        )
        assert got == [False, True]

    def test_sir_exactly_at_threshold_decodes(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (12.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0), (0.2, 2, 3, 0)]
        signal, interference = reference_floats(
            concurrent, np.asarray(positions), np.zeros((1, 2)),
            np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), {}, 1,
        )
        at_threshold = float(signal[0] / interference[0])
        got = assert_adjudication_matches(
            single_channel_case(concurrent, positions, eta_s=at_threshold)
        )
        assert got[0] is True

    def test_active_pu_interferes_with_a_lone_link(self):
        positions = [(0.0, 0.0), (2.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0)]
        case = single_channel_case(
            concurrent, positions, active_pus=[0], pu_positions=[(0.0, 1.0)]
        )
        assert assert_adjudication_matches(case) == [False]

    def test_completing_subset_maps_by_sender(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (30.0, 0.0), (31.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0), (0.2, 3, 0, 0), (0.3, 2, 3, 0)]
        completing = [concurrent[1], concurrent[2]]
        got = assert_adjudication_matches(
            single_channel_case(concurrent, positions, completing=completing)
        )
        # Sender 3 loses the capture at receiver 0 to the nearer sender 1.
        assert got[0] is False

    def test_link_loss_weakens_the_signal_only(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (9.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0), (0.2, 2, 3, 0)]
        clean = assert_adjudication_matches(
            single_channel_case(concurrent, positions)
        )
        faded = assert_adjudication_matches(
            single_channel_case(concurrent, positions, link_loss={(1, 0): 1e-3})
        )
        assert clean[0] is True and faded[0] is False

    def test_no_links_completing(self):
        positions = [(0.0, 0.0), (1.0, 0.0)]
        concurrent = [(0.1, 1, 0, 0)]
        assert assert_adjudication_matches(
            single_channel_case(concurrent, positions, completing=[])
        ) == []

