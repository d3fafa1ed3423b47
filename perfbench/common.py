"""Shared helpers of the repository benchmark: statistics, memory, pins,
the counter ledger and the run directory.

Everything here is plain standard library, so it imports before (and
without) the ``repro`` package.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
#: Scratch space inside the checkout: daemon state dirs, span dumps and
#: the counter ledger.  Listed in the repository's ``.gitignore``.
RUN_DIR_NAME = ".perfbench_run"

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS_PER_RUN = 3
#: What every workload imports before its first unit.
IMPORT_PROBE = (
    "import repro.core.collector, repro.experiments.runner, repro.service.client"
)


class CheckFailure(Exception):
    """A unit's output disagrees with its pinned value."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it (nearest rank).

    With ten samples or fewer no such percentile exists; the maximum is
    returned with percentile 100 so the caller can flag it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return float(ordered[-1]), 100.0
    percentile = math.floor(100.0 * (count - 10) / count)
    rank = max(1, math.ceil(percentile / 100.0 * count))
    return float(ordered[rank - 1]), float(percentile)


def program_env() -> Dict[str, str]:
    """The environment for a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def import_program() -> Tuple[float, float]:
    """Start a fresh interpreter that imports the program; returns the
    ``perf_counter`` times it started and ended.

    A child process, so that each set-up of a run pays it again.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=program_env(), check=True)
    return started, time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident sets (``VmHWM``) of ``pid`` and its live
    descendants, read from ``/proc`` (0 where it cannot be read)."""
    parents: Dict[int, List[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        pending.extend(parents.get(current, []))
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def load_pins(path: Path = PINS_PATH) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_dir() -> Path:
    """The benchmark's scratch directory, relative to the checkout root.

    Relative on purpose: AF_UNIX socket paths are limited to about 100
    bytes, and the daemon and the client share the checkout as their
    working directory.
    """
    path = Path(RUN_DIR_NAME)
    path.mkdir(exist_ok=True)
    return path


def code_digest() -> str:
    """BLAKE2b over the program and benchmark sources (ledger key)."""
    digest = hashlib.blake2b(digest_size=8)
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


class CounterLedger:
    """Deterministic work counters, checked to repeat exactly across runs.

    The first run of a given source tree records each input's counters in
    the checkout's run directory; every later run of the same tree must
    reproduce them exactly.  A recorded value is never replaced, so a
    counter that moved keeps failing until its record is deleted.  Keyed
    by :func:`code_digest`, so a changed program starts a fresh record
    instead of tripping over the old one.
    """

    def __init__(self, directory: Path, digest: str) -> None:
        self.path = directory / f"counters-{digest}.json"
        self.mismatches: List[str] = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                self._known: Dict[str, Dict[str, float]] = json.load(handle)
        except (OSError, ValueError):
            self._known = {}
        self._seen: Dict[str, Dict[str, float]] = {}

    def check(self, key: str, counters: Dict[str, float]) -> bool:
        """Record new ``counters`` for ``key``; False if a recorded value moved."""
        known = self._known.get(key, {})
        ok = True
        for name, value in counters.items():
            if name in known and known[name] != value:
                self.mismatches.append(
                    f"{key}: {name} = {value}, earlier runs gave {known[name]}"
                )
                ok = False
        self._seen.setdefault(key, {}).update(counters)
        return ok

    def save(self) -> None:
        merged = dict(self._known)
        for key, counters in self._seen.items():
            merged[key] = {**counters, **merged.get(key, {})}
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, sort_keys=True, indent=1)
        os.replace(tmp, self.path)


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def safe_ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def first_mismatch(label: str, got, want) -> Optional[str]:
    """A readable message when ``got != want``, else ``None``."""
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            problem = first_mismatch(f"{label}.{key}", got.get(key), want.get(key))
            if problem is not None:
                return problem
    return f"{label}: got {got!r}, pinned {want!r}"
