"""Reproducible random-number streams.

Every stochastic component of the simulator (PU placement, SU placement,
PU activity, backoff timers, ...) draws from its own named child stream so
that changing one component's consumption pattern does not perturb the
others.  See :class:`repro.rng.streams.StreamFactory`;
:class:`repro.rng.rows.RowStream` serves a stream's per-slot rows of
uniforms from a forward-only buffer.
"""

from repro.rng.rows import RowStream
from repro.rng.streams import StreamFactory, derive_seed

__all__ = ["RowStream", "StreamFactory", "derive_seed"]
