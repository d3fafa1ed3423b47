"""Tests for the named random-stream factory."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rng.rows as rows_module
from repro.rng import RowStream, StreamFactory, derive_seed
from repro.rng.rows import BLOCK_BYTES


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "pu-activity") == derive_seed(7, "pu-activity")

    def test_name_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_returns_64_bit_value(self):
        value = derive_seed(123456789, "stream")
        assert 0 <= value < 2**64

    @given(st.integers(), st.text(max_size=50))
    def test_stable_under_any_inputs(self, seed, name):
        assert derive_seed(seed, name) == derive_seed(seed, name)


class TestStreamFactory:
    def test_same_name_same_state(self):
        factory = StreamFactory(42)
        a = factory.stream("x").random(5)
        b = factory.stream("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        factory = StreamFactory(42)
        a = factory.stream("x").random(5)
        b = factory.stream("y").random(5)
        assert not np.allclose(a, b)

    def test_request_order_irrelevant(self):
        first = StreamFactory(1)
        second = StreamFactory(1)
        a1 = first.stream("a").random()
        _ = second.stream("b").random()
        a2 = second.stream("a").random()
        assert a1 == a2

    def test_spawn_changes_streams(self):
        factory = StreamFactory(5)
        child = factory.spawn("rep-0")
        assert factory.stream("x").random() != child.stream("x").random()

    def test_spawn_deterministic(self):
        a = StreamFactory(5).spawn("rep-1").stream("x").random()
        b = StreamFactory(5).spawn("rep-1").stream("x").random()
        assert a == b

    def test_seed_property_and_repr(self):
        factory = StreamFactory(9)
        assert factory.seed == 9
        assert "9" in repr(factory)


@pytest.mark.parametrize("seed", [0, 1, 2**63, -5])
def test_factory_accepts_any_integer_seed(seed):
    StreamFactory(seed).stream("s").random()


_ROW_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("take"), st.integers(0, 40)),
        st.tuples(st.just("peek"), st.integers(0, 40)),
        st.tuples(st.just("skip"), st.integers(0, 600)),
        st.tuples(st.just("sync"), st.just(0)),
    ),
    max_size=25,
)


class TestRowStream:
    """A RowStream is indistinguishable from sequential random(width) calls."""

    # Small caps (4 and 3 rows per block) make takes and skips cross
    # block boundaries constantly; width 0 exercises the empty-row edge.
    @pytest.mark.parametrize(
        "width, block_bytes",
        [(0, BLOCK_BYTES), (1, BLOCK_BYTES), (7, BLOCK_BYTES), (7, 224), (300, 7200)],
    )
    @settings(deadline=None)
    @given(ops=_ROW_OPS, seed=st.integers(0, 2**32), half_word=st.booleans())
    def test_rows_and_state_match_sequential_draws(
        self, width, block_bytes, ops, seed, half_word
    ):
        saved_cap = rows_module.BLOCK_BYTES
        rows_module.BLOCK_BYTES = block_bytes
        try:
            self._check(width, ops, seed, half_word)
        finally:
            rows_module.BLOCK_BYTES = saved_cap

    def _check(self, width, ops, seed, half_word):
        generator = StreamFactory(seed).stream("rows")
        reference = StreamFactory(seed).stream("rows")
        if half_word:
            # A pending 32-bit half-word must survive the sync untouched.
            generator.integers(0, 7, dtype=np.uint32)
            reference.integers(0, 7, dtype=np.uint32)
        stream = RowStream(generator, width)
        for op, count in ops:
            if op == "take":
                np.testing.assert_array_equal(
                    stream.take(count), reference.random((count, width))
                )
            elif op == "peek":
                saved = reference.bit_generator.state
                expected = reference.random((count, width))
                reference.bit_generator.state = saved
                np.testing.assert_array_equal(stream.peek(count), expected)
            elif op == "skip":
                stream.skip(count)
                reference.random((count, width))
            else:
                stream.sync()
                assert generator.bit_generator.state == reference.bit_generator.state
        stream.sync()
        assert generator.bit_generator.state == reference.bit_generator.state
        # After a sync the generator is free for direct use.
        assert generator.random() == reference.random()

    def test_block_is_capped(self):
        width = 2000
        stream = RowStream(StreamFactory(1).stream("rows"), width)
        assert stream.block_rows * width * 8 <= BLOCK_BYTES
        for _ in range(5 * stream.block_rows):
            stream.take(1)
        # Blocks ramp up from one row, never beyond the cap, and nothing
        # is generated twice: consumed rows plus at most one block.
        assert stream.rows_generated <= 6 * stream.block_rows

    def test_skip_beyond_buffer_generates_nothing(self):
        stream = RowStream(StreamFactory(1).stream("rows"), 50)
        stream.skip(10_000)
        assert stream.rows_generated == 0
        stream.take(1)
        assert stream.rows_generated == 1
