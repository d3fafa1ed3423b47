"""Golden anchors for the engine's per-slot draw path.

Every case below consumes the ``pu-activity`` and/or ``sensing-errors``
streams through a different route — geometric Bernoulli and Markov
activity, a replayed trace, mean-field blocking with one and with three
channels, flat sensing errors, the energy detector, multi-slot packets, a
stuck-busy sensing fault, and a run cut short by ``max_slots`` — and pins
both the run's headline outcome *and* the post-run RNG stream positions.
A change to how the engine draws (batching, buffering, skipping frozen
slots) must leave every value here untouched: a draw consumed one slot
late, or one row too many, moves a fingerprint even when the delay
happens to survive.  Update deliberately, never casually.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.addc import AddcPolicy
from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.graphs.tree import build_collection_tree
from repro.network.deployment import deploy_crn
from repro.network.primary import (
    BernoulliActivity,
    MarkovActivity,
    ReplayActivity,
)
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.spectrum.detection import EnergyDetector
from repro.spectrum.sensing import CarrierSenseMap

SEED = 20120612


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        area=40.0 * 40.0, num_pus=10, num_sus=50, repetitions=1
    )


def _deploy(activity=None):
    return deploy_crn(
        _config().deployment_spec(),
        StreamFactory(SEED).spawn("draw-path"),
        activity=activity,
    )


def _streams(case: str) -> StreamFactory:
    return StreamFactory(SEED).spawn("draw-path").spawn(case)


def _collect(case: str, activity=None, **kwargs):
    outcome = run_addc_collection(
        _deploy(activity), _streams(case), with_bounds=False, **kwargs
    )
    return outcome.result, outcome.engine


def _detector_run(case: str):
    topology = _deploy()
    pcr = compute_pcr(
        PcrParameters(
            alpha=4.0,
            pu_power=topology.primary.power,
            su_power=topology.secondary.power,
            pu_radius=topology.primary.radius,
            su_radius=topology.secondary.radius,
            eta_p_db=8.0,
            eta_s_db=8.0,
        )
    )
    engine = SlottedEngine(
        topology=topology,
        sense_map=CarrierSenseMap(topology, pcr.pcr),
        policy=AddcPolicy(build_collection_tree(topology.secondary.graph, 0)),
        streams=_streams(case),
        alpha=4.0,
        eta_s=db_to_linear(8.0),
        detector=EnergyDetector(
            threshold=1.15, num_samples=200, noise_power=5e-2
        ),
    )
    engine.load_snapshot()
    return engine.run(), engine


def _replay_trace() -> np.ndarray:
    rng = StreamFactory(SEED).stream("draw-path-replay-trace")
    return rng.random((97, _config().num_pus)) < 0.3


CASES = {
    "geometric-bernoulli": lambda: _collect("geometric-bernoulli"),
    "geometric-markov": lambda: _collect(
        "geometric-markov", activity=MarkovActivity(0.3, burstiness=4.0)
    ),
    "replay-activity": lambda: _collect(
        "replay-activity", activity=ReplayActivity(_replay_trace())
    ),
    "homogeneous-false-alarm": lambda: _collect(
        "homogeneous-false-alarm", blocking="homogeneous", p_false_alarm=0.05
    ),
    "homogeneous-3-channels": lambda: _collect(
        "homogeneous-3-channels", blocking="homogeneous", num_channels=3
    ),
    "energy-detector": lambda: _detector_run("energy-detector"),
    "missed-detection": lambda: _collect(
        "missed-detection", p_missed_detection=0.1
    ),
    # A light PU load keeps the handoff-heavy multi-slot run short.
    "packet-slots-3": lambda: _collect(
        "packet-slots-3", activity=BernoulliActivity(0.15), packet_slots=3
    ),
    "stuck-busy-window": lambda: _collect(
        "stuck-busy-window",
        fault_plan=FaultPlan.from_events(
            [
                FaultEvent.stuck_busy(slot=5, node=7, until=60),
                FaultEvent.stuck_busy(slot=40, node=12, until=90),
            ]
        ),
    ),
    "truncated-max-slots": lambda: _collect(
        "truncated-max-slots", blocking="homogeneous", max_slots=37
    ),
}


def _fingerprint(result, engine) -> dict:
    deliveries = hashlib.blake2b(
        repr(
            sorted(
                (record.packet_id, record.delivered_slot, record.hops)
                for record in result.deliveries
            )
        ).encode("utf-8"),
        digest_size=8,
    ).hexdigest()
    return {
        "completed": result.completed,
        "slots": result.slots_simulated,
        "delivered": result.delivered,
        "lost": result.packets_lost,
        "tx": result.total_transmissions,
        "collisions": result.collisions,
        "pu_violations": result.pu_violations,
        "handoffs": result.handoffs,
        "frozen": result.frozen_slot_count,
        "opportunities": result.opportunity_slot_count,
        "deliveries": deliveries,
        "rng": engine.rng_positions(),
    }


EXPECTED = {
    "energy-detector": {
        "collisions": 278,
        "completed": True,
        "delivered": 50,
        "deliveries": "aaf1838c45802c66",
        "frozen": 436,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 1486,
        "pu_violations": 361,
        "rng": {
            "backoff": "c2ba432a2a31d5e3",
            "pu-activity": "1384b941f806d0a3",
            "sensing-errors": "94b9623ce5a93e8a"
        },
        "slots": 4364,
        "tx": 403
    },
    "geometric-bernoulli": {
        "collisions": 3,
        "completed": True,
        "delivered": 50,
        "deliveries": "c2c610e545096d90",
        "frozen": 5067,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 522,
        "pu_violations": 0,
        "rng": {
            "backoff": "81fd0759f6467f7c",
            "pu-activity": "500d08cdba8d2bab",
            "sensing-errors": "28241a5d4d21eb28"
        },
        "slots": 766,
        "tx": 128
    },
    "geometric-markov": {
        "collisions": 4,
        "completed": True,
        "delivered": 50,
        "deliveries": "38849cb13d6e461f",
        "frozen": 5164,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 550,
        "pu_violations": 0,
        "rng": {
            "backoff": "7880b6f40aca1965",
            "pu-activity": "1798d2d73cdba5a8",
            "sensing-errors": "b7f00cf3fe524c70"
        },
        "slots": 885,
        "tx": 129
    },
    "homogeneous-3-channels": {
        "collisions": 13,
        "completed": True,
        "delivered": 50,
        "deliveries": "2aa9de6013e1a266",
        "frozen": 669,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 220,
        "pu_violations": 0,
        "rng": {
            "backoff": "fd5351983d254a00",
            "pu-activity": "6507b26e449654bd",
            "sensing-errors": "0e1b3d5cb7453175"
        },
        "slots": 85,
        "tx": 138
    },
    "homogeneous-false-alarm": {
        "collisions": 0,
        "completed": True,
        "delivered": 50,
        "deliveries": "cf1ff5ffad416d8d",
        "frozen": 8208,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 131,
        "pu_violations": 0,
        "rng": {
            "backoff": "bc6826a169c06cc5",
            "pu-activity": "ae62012b527e90f1",
            "sensing-errors": "4ef0ee0f88108fec"
        },
        "slots": 1180,
        "tx": 125
    },
    "missed-detection": {
        "collisions": 138,
        "completed": True,
        "delivered": 50,
        "deliveries": "defb9f7cb898e6e7",
        "frozen": 2569,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 563,
        "pu_violations": 170,
        "rng": {
            "backoff": "982b511cd322810c",
            "pu-activity": "870778fa191a53b2",
            "sensing-errors": "d729a599269f3a8e"
        },
        "slots": 956,
        "tx": 263
    },
    "packet-slots-3": {
        "collisions": 0,
        "completed": True,
        "delivered": 50,
        "deliveries": "623005cfccea82ba",
        "frozen": 21022,
        "handoffs": 1205,
        "lost": 0,
        "opportunities": 7932,
        "pu_violations": 0,
        "rng": {
            "backoff": "617aa6127c91d2fd",
            "pu-activity": "292c947e2182c308",
            "sensing-errors": "b615457b2cd48f9b"
        },
        "slots": 4067,
        "tx": 125
    },
    "replay-activity": {
        "collisions": 2,
        "completed": True,
        "delivered": 50,
        "deliveries": "65b37b2db54e83ca",
        "frozen": 4477,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 530,
        "pu_violations": 0,
        "rng": {
            "backoff": "59e0751d0c769fde",
            "pu-activity": "9a1b5acb2eedf93b",
            "sensing-errors": "ac49010f41b1aa1a"
        },
        "slots": 603,
        "tx": 127
    },
    "stuck-busy-window": {
        "collisions": 2,
        "completed": True,
        "delivered": 50,
        "deliveries": "04169d99f9d51ed3",
        "frozen": 4755,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 515,
        "pu_violations": 0,
        "rng": {
            "backoff": "32dff99cb5c660fa",
            "pu-activity": "82a46c864efe531d",
            "sensing-errors": "e1f38e8ce3acd95b"
        },
        "slots": 762,
        "tx": 127
    },
    "truncated-max-slots": {
        "collisions": 0,
        "completed": False,
        "delivered": 3,
        "deliveries": "6a7d021b6432aab7",
        "frozen": 1500,
        "handoffs": 0,
        "lost": 0,
        "opportunities": 20,
        "pu_violations": 0,
        "rng": {
            "backoff": "7d341ba9c38a234a",
            "pu-activity": "65a21499ee559a52",
            "sensing-errors": "b46aecc9a4c04dcd"
        },
        "slots": 37,
        "tx": 17
    }
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_draw_path_golden(case):
    result, engine = CASES[case]()
    assert _fingerprint(result, engine) == EXPECTED[case]


def test_cases_exercise_their_paths():
    """The truncated case really is cut short; the rest finish."""
    assert EXPECTED["truncated-max-slots"]["completed"] is False
    assert EXPECTED["truncated-max-slots"]["slots"] == 37
    assert all(
        pinned["completed"]
        for name, pinned in EXPECTED.items()
        if name != "truncated-max-slots"
    )


if __name__ == "__main__":  # pragma: no cover - regenerates EXPECTED
    import json

    text = json.dumps(
        {name: _fingerprint(*build()) for name, build in CASES.items()},
        indent=4,
        sort_keys=True,
    )
    print(text.replace(": true", ": True").replace(": false", ": False"))
