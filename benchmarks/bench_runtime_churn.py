"""Extension bench — collection under runtime churn.

Section I motivates distributed operation with nodes that "might leave the
network ... at any time".  This bench injects departures *during* the
collection (live local tree repair, stranded-packet accounting) at
increasing churn rates and measures what the survivors still achieve:
completion always, losses bounded by the departed subtrees, and delay for
the surviving packets staying in the no-churn ballpark.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.faults import FaultEvent, FaultPlan
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

CHURN_COUNTS = (0, 2, 5, 10)


def test_collection_under_churn(benchmark, base_config):
    factory = StreamFactory(base_config.seed).spawn("churn-bench")
    topology = deploy_crn(base_config.deployment_spec(), factory)
    n = topology.secondary.num_sus
    choice_rng = factory.stream("leavers")

    def plan_for(count):
        if count == 0:
            return None
        leavers = choice_rng.choice(
            list(topology.secondary.su_ids()), size=count, replace=False
        )
        # Spread departures across the collection's early phase.
        return FaultPlan.from_events(
            FaultEvent.crash(50 + 150 * index, int(node))
            for index, node in enumerate(leavers)
        )

    def run_sweep():
        results = []
        for count in CHURN_COUNTS:
            outcome = run_addc_collection(
                topology,
                factory.spawn(f"churn-{count}"),
                blocking=base_config.blocking,
                fault_plan=plan_for(count),
                with_bounds=False,
                max_slots=base_config.max_slots,
            )
            results.append((count, outcome.result))
        return results

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(
        f"{'departures':>10} | {'delivered':>9} | {'lost':>5} | "
        f"{'delay (ms)':>10}"
    )
    for count, result in results:
        print(
            f"{count:>10} | {result.delivered:>9} | "
            f"{result.packets_lost:>5} | {result.delay_ms:>10.1f}"
        )

    for count, result in results:
        assert result.completed
        assert result.delivered + result.packets_lost == n
    # No churn, no loss.
    assert results[0][1].packets_lost == 0
    # Losses grow with churn but stay a small fraction of the snapshot —
    # the local repair keeps most of the network collectable.
    losses = [result.packets_lost for _, result in results]
    assert losses == sorted(losses)
    assert losses[-1] < n / 3
    # Survivors' delay stays within 3x of the churn-free run.
    baseline = results[0][1].delay_slots
    for _, result in results[1:]:
        assert result.delay_slots < 3 * baseline
