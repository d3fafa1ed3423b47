"""Forward-only streams of uniform rows over one named generator.

The slot engine draws one row of ``width`` uniforms per stream per slot
(``generator.random(width)``), and its frozen-slot fast-forward wants to
look several slots ahead before deciding how many to skip.
:class:`RowStream` serves both from the same buffer: rows are generated
in blocks, looked at (:meth:`RowStream.peek`), and consumed
(:meth:`RowStream.take` / :meth:`RowStream.skip`) strictly in order, and
no row is ever generated twice.

Consumption contract
--------------------
The ``k``-th row served equals the ``k``-th of sequential
``generator.random(width)`` calls — a ``(rows, width)`` fill consumes a
generator exactly like ``rows`` sequential ``random(width)`` calls — and
:meth:`RowStream.sync` leaves the generator exactly where those calls
would have: at the state before the first buffered draw, advanced by
``rows consumed x width`` outputs (one 64-bit output per double).  That
needs a bit generator with ``advance``; :class:`repro.rng.StreamFactory`
always builds PCG64.  Between the first draw and the next ``sync`` the
stream owns the generator: nothing else may draw from it.

Generator stand-ins without a PCG-style ``bit_generator`` (scripted test
doubles) are served without look-ahead: each row is generated when first
needed, so only rows peeked and never consumed before a ``sync`` are lost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["BLOCK_BYTES", "RowStream"]

#: Cap on one stream's buffered look-ahead, in bytes of float64 rows.
#: Blocks start at one row and double per refill up to this size, so a
#: short run generates little beyond what it consumes.
BLOCK_BYTES = 1 << 20


class RowStream:
    """Rows of ``width`` uniforms from ``generator``, served forward-only.

    Examples
    --------
    >>> from repro.rng import StreamFactory
    >>> generator = StreamFactory(3).stream("rows")
    >>> reference = StreamFactory(3).stream("rows")
    >>> stream = RowStream(generator, 4)
    >>> bool((stream.take(2) == reference.random((2, 4))).all())
    True
    >>> stream.skip(5)
    >>> stream.sync()
    >>> _ = reference.random((5, 4))
    >>> generator.bit_generator.state == reference.bit_generator.state
    True
    """

    def __init__(self, generator: np.random.Generator, width: int) -> None:
        self._generator = generator
        self._width = int(width)
        self._bit_generator = getattr(generator, "bit_generator", None)
        self._look_ahead = hasattr(self._bit_generator, "advance")
        self._max_rows = max(1, BLOCK_BYTES // (8 * max(self._width, 1)))
        # One reused buffer: rows [_next, _end) are generated, unconsumed.
        self._buffer = np.empty((0, self._width))
        self._next = 0
        self._end = 0
        self._block_rows = 1
        # Generator state before the first draw since the last sync, and
        # the rows consumed since then.
        self._anchor: Optional[dict] = None
        self._consumed = 0
        self._rows_generated = 0

    @property
    def block_rows(self) -> int:
        """The block cap in rows: ``BLOCK_BYTES`` of rows, at least one."""
        return self._max_rows

    @property
    def rows_generated(self) -> int:
        """Rows the generator actually produced (skipped rows excluded).

        A deterministic work count: rows consumed plus the unconsumed tail
        of the last block before each sync.
        """
        return self._rows_generated

    def _refill(self, count: int) -> None:
        """Move the unconsumed rows to the buffer front; fill to ``count``."""
        start = self._next
        available = self._end - start
        rows = count - available
        if self._look_ahead:
            if self._anchor is None:
                self._anchor = self._bit_generator.state
            rows = max(rows, self._block_rows - available)
            self._block_rows = min(self._block_rows * 2, self._max_rows)
        total = available + rows
        buffer = self._buffer
        if buffer.shape[0] < total:
            # Allocated once per run in practice: untouched pages of a
            # capped block cost no memory until a long run fills them.
            grown = np.empty((max(total, self._max_rows), self._width))
            grown[:available] = buffer[start:self._end]
            self._buffer = buffer = grown
        elif available:
            buffer[:available] = buffer[start:self._end]
        if self._look_ahead:
            self._generator.random(out=buffer[available:total])
        else:
            buffer[available:total] = self._generator.random((rows, self._width))
        self._rows_generated += rows
        self._next = 0
        self._end = total

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` rows, shape ``(count, width)``, not consumed.

        The returned array is a view into the stream's reused buffer: it
        is valid until the next call on this stream and must not be
        written to.
        """
        if self._next + count > self._end:
            self._refill(count)
        return self._buffer[self._next:self._next + count]

    def take(self, count: int = 1) -> np.ndarray:
        """Consume and return the next ``count`` rows (see :meth:`peek`)."""
        start = self._next
        if start + count > self._end:
            self._refill(count)
            start = 0
        self._next = end = start + count
        self._consumed += count
        return self._buffer[start:end]

    def skip(self, count: int) -> None:
        """Consume ``count`` rows without looking at them.

        Buffered rows are dropped; rows beyond the buffer are never
        generated — the generator jumps over them with ``advance`` (a
        stand-in without it draws and discards them).
        """
        buffered = min(count, self._end - self._next)
        self._next += buffered
        beyond = count - buffered
        if beyond and self._look_ahead:
            if self._anchor is None:
                self._anchor = self._bit_generator.state
            self._bit_generator.advance(beyond * self._width)
        elif beyond:
            self._generator.random((beyond, self._width))
            self._rows_generated += beyond
        self._consumed += count

    def sync(self) -> None:
        """Put the generator where sequential draws would have left it.

        Drops the unconsumed look-ahead and frees the buffer, so after a
        sync the generator is free for direct use and a finished run holds
        no rows; the next :meth:`take` starts a new block.
        """
        anchor = self._anchor
        if anchor is not None:
            bit_generator = self._bit_generator
            bit_generator.state = anchor
            bit_generator.advance(self._consumed * self._width)
            if anchor.get("has_uint32"):
                # advance() clears the buffered 32-bit half-word, which
                # double draws never touch; sequential random() calls keep it.
                state = bit_generator.state
                state["has_uint32"] = anchor["has_uint32"]
                state["uinteger"] = anchor["uinteger"]
                bit_generator.state = state
            self._anchor = None
            self._consumed = 0
        self._buffer = np.empty((0, self._width))
        self._next = 0
        self._end = 0
        self._block_rows = 1
