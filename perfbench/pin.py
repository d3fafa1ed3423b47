"""Regenerate ``pins.json``: the outputs every benchmark unit is checked
against.

Run from the repository root on the commit whose outputs are the
reference (it takes a few minutes)::

    python3 perfbench/pin.py

It pins the one input each engine workload repeats (``paper-point``,
``engine-features``) and every bench-scale compare job the service-mix
can submit, plus its warm-up job, and overwrites ``pins.json``.
"""

from __future__ import annotations

import json
import sys

from common import PINS_PATH, SRC

SERVICE_POOL = range(1, 161)


def pin_engine(workload: str) -> dict:
    from engine_workloads import (
        INPUT,
        EngineCapture,
        feature_inputs,
        paper_config,
        run_feature_unit,
        run_paper_unit,
        unit_outputs,
    )

    config = paper_config()
    capture = EngineCapture()
    try:
        if workload == "paper-point":
            output = run_paper_unit(config, INPUT)
        else:
            output = run_feature_unit(config, feature_inputs(config, INPUT))
        pinned = unit_outputs(workload, output, capture.records)
    finally:
        capture.restore()
    print(f"{workload} input {INPUT}: {pinned}", flush=True)
    return {"inputs": {str(INPUT): pinned}}


def pin_spec(seed: int, capture) -> dict:
    from repro.experiments.runner import run_comparison_repetition
    from service_mix import spec_for

    config = spec_for(seed).config()
    first = len(capture.records)
    measurements = [
        run_comparison_repetition(config, rep) for rep in range(config.repetitions)
    ]
    return {
        "delays": {
            "addc_delays_ms": [m.addc_delay_ms for m in measurements],
            "coolest_delays_ms": [m.coolest_delay_ms for m in measurements],
        },
        "slots": sum(r["slots"] for r in capture.records[first:]),
    }


def pin_service() -> dict:
    from engine_workloads import EngineCapture
    from service_mix import WARMUP_SEED

    capture = EngineCapture()
    try:
        warmup = pin_spec(WARMUP_SEED, capture)
        specs = {}
        for seed in SERVICE_POOL:
            specs[str(seed)] = pin_spec(seed, capture)
            print(f"service-mix spec {seed}: {specs[str(seed)]}", flush=True)
    finally:
        capture.restore()
    return {"warmup": warmup, "specs": specs}


def main() -> int:
    sys.path.insert(0, str(SRC))
    pins = {
        "paper-point": pin_engine("paper-point"),
        "engine-features": pin_engine("engine-features"),
        "service-mix": pin_service(),
    }
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
