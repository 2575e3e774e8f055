"""Tests for the streaming primitives (send_items_to / ItemCollector) and
payload fragmentation accounting."""

import pytest

from repro.congest import (
    ItemCollector,
    fragment_payload,
    int_bits,
    run_protocol,
    send_items_to,
)
from repro.errors import ProtocolError
from repro.graph import generators as gen


def test_int_bits():
    assert int_bits(0) == 2
    assert int_bits(1) == 2
    assert int_bits(-1) == 2
    assert int_bits(255) == 9
    assert int_bits(-256) == 10


def test_fragment_payload_rounds():
    bits, rounds = fragment_payload(5, budget=48)
    assert rounds == 1
    big = tuple(range(50))
    bits, rounds = fragment_payload(big, budget=48)
    assert rounds == -(-bits // 48) > 1


def test_streaming_between_two_nodes():
    # Node 1 streams three items to node 0; node 0 collects them.
    def program(ctx):
        if ctx.node == 1:
            yield from send_items_to(ctx, 0, [(10,), (20,), (30,)], tag="data")
            return None
        collector = ItemCollector("data", [1])
        while not collector.complete:
            inbox = yield
            collector.absorb(inbox)
        return collector.items_from(1)

    result = run_protocol(gen.path(2), program)
    assert result.outputs[0] == [(10,), (20,), (30,)]
    # One item per round plus the end marker.
    assert result.rounds >= 4


def test_streaming_returns_per_round_inbox_copies():
    # Node 0 ticks to node 1 every round while node 1 streams three items
    # plus the end marker.  The scheduler refills one inbox dict per node
    # in place, so each returned inbox must be that round's own copy.
    def program(ctx):
        if ctx.node == 1:
            observed = yield from send_items_to(
                ctx, 0, [(10,), (20,), (30,)], tag="data"
            )
            return [inbox.get(0) for inbox in observed]
        for r in range(4):
            ctx.send(1, ("tick", r))
            yield
        yield
        return None

    result = run_protocol(gen.path(2), program)
    assert result.outputs[1] == [("tick", r) for r in range(4)]


def test_streaming_empty_list_sends_only_end_marker():
    def program(ctx):
        if ctx.node == 1:
            yield from send_items_to(ctx, 0, [], tag="data")
            return None
        collector = ItemCollector("data", [1])
        while not collector.complete:
            inbox = yield
            collector.absorb(inbox)
        return collector.items_from(1)

    result = run_protocol(gen.path(2), program)
    assert result.outputs[0] == []


def test_collector_rejects_item_after_end():
    collector = ItemCollector("t", [5])
    collector.absorb({5: ("t/end", None)})
    assert collector.complete
    with pytest.raises(ProtocolError):
        collector.absorb({5: ("t", 1)})


def test_collector_ignores_foreign_senders_and_tags():
    collector = ItemCollector("t", [5])
    collector.absorb({6: ("t", 1)})       # unknown sender
    collector.absorb({5: ("other", 1)})   # unknown tag
    collector.absorb({5: "not-a-tuple"})
    assert not collector.complete
    collector.absorb({5: ("t", 42)})
    collector.absorb({5: ("t/end", None)})
    assert collector.complete
    assert collector.items_from(5) == [42]


def test_concurrent_streams_interleave():
    # Both leaves of a star stream to the center simultaneously.
    def program(ctx):
        if ctx.node == 0:
            collector = ItemCollector("s", [1, 2])
            while not collector.complete:
                inbox = yield
                collector.absorb(inbox)
            return (collector.items_from(1), collector.items_from(2))
        items = [(ctx.node, i) for i in range(3)]
        yield from send_items_to(ctx, 0, items, tag="s")
        return None

    result = run_protocol(gen.star(2), program)
    left, right = result.outputs[0]
    assert left == [(1, 0), (1, 1), (1, 2)]
    assert right == [(2, 0), (2, 1), (2, 2)]
