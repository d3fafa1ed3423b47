"""In-process span tracing for the benchmark's traced run.

The benchmark adds no tracing inside ``src/``.  Instead, :class:`Tracer`
wraps the *public* functions of each layer from the outside: it finds
every reference to the original function object among the loaded
``repro`` modules (``from x import f`` copies included) and swaps in a
wrapper that records a span around each call.  :meth:`Tracer.restore`
puts the originals back.

A span is ``(id, name, layer, start, end, parent, unit)``; spans of one
benchmark unit share its unit id.  Spans stay in memory and are written
out once, at the end, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The name of the synthetic span around one benchmark unit.  Its self
#: time (unit wall minus every layer span inside it) is *unattributed*.
UNIT_LAYER = "unattributed"


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    unit: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with function wrapping from the outside."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._unit = "setup"
        self._patches: List[Tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------- #

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, layer, 0.0, 0.0, parent, self._unit)
        self.spans.append(record)
        self._stack.append(record.span_id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def unit(self, unit_id: str) -> Iterator[Span]:
        """The root span of one benchmark unit; children share its id."""
        previous, self._unit = self._unit, unit_id
        try:
            with self.span("unit", UNIT_LAYER) as record:
                yield record
        finally:
            self._unit = previous

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[Span]) -> Span:
        """Record a span measured elsewhere (e.g. read from an artifact)."""
        record = Span(
            len(self.spans), name, layer, start, end,
            parent.span_id if parent is not None else None,
            parent.unit if parent is not None else self._unit,
        )
        self.spans.append(record)
        return record

    # ---- wrapping ----------------------------------------------------- #

    def _wrapper(self, function: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name, layer):
                return function(*args, **kwargs)

        return traced

    def wrap_function(self, function: Callable, name: str, layer: str) -> None:
        """Wrap every module-level reference to ``function`` in ``repro``
        (the defining module's and each ``from x import f`` copy)."""
        wrapper = self._wrapper(function, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def wrap_method(self, owner: type, attr: str, name: str, layer: str) -> None:
        """Wrap ``owner.attr`` (a method, or ``__init__`` of a class)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, layer))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- analysis ----------------------------------------------------- #

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by child spans (nested, so a sum)."""
        return span.duration - sum(c.duration for c in self.children(span))

    def layer_self_times(self, unit_ids: Optional[List[str]] = None) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            if unit_ids is not None and span.unit not in unit_ids:
                continue
            totals[span.layer] = totals.get(span.layer, 0.0) + self.self_time(span)
        return totals

    def total(self, name: str, unit_ids: Optional[List[str]] = None) -> float:
        return sum(
            s.duration for s in self.spans
            if s.name == name and (unit_ids is None or s.unit in unit_ids)
        )

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def coverage(layer_times: Dict[str, float], unit_wall: float) -> float:
    """Share of unit wall time inside some layer span."""
    if unit_wall <= 0:
        return 0.0
    attributed = sum(t for layer, t in layer_times.items() if layer != UNIT_LAYER)
    return attributed / unit_wall
