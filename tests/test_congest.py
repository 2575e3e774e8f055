"""Tests for the CONGEST simulator: model enforcement, primitives, metrics."""

import pytest

from repro.congest import (
    Simulation,
    broadcast_from_root,
    default_budget,
    flood_value,
    idle,
    leader_election,
    payload_bits,
    run_protocol,
)
from repro.errors import CongestError, MessageTooLargeError, ProtocolError
from repro.graph import Graph
from repro.graph import generators as gen
from repro.obs import SendEvent, Tracer


# ----------------------------------------------------------------------
# Payload accounting
# ----------------------------------------------------------------------

def test_payload_bits_monotone_in_content():
    assert payload_bits(0) < payload_bits(2 ** 40)
    assert payload_bits((1, 2)) < payload_bits((1, 2, 3))
    assert payload_bits(None) < payload_bits(("x", 1))
    assert payload_bits(frozenset({1, 2})) > payload_bits(frozenset())
    assert payload_bits(True) >= 3
    # Strings are protocol-constant tags: flat cost.
    assert payload_bits("ab") == payload_bits("a")


def test_payload_rejects_unserializable():
    with pytest.raises(CongestError):
        payload_bits([1, 2])  # lists are not in the payload algebra
    with pytest.raises(CongestError):
        payload_bits({"a": 1})


def test_default_budget_scales_logarithmically():
    assert default_budget(2) == 48
    assert default_budget(1 << 20) == 80
    assert default_budget(1) == 48


# ----------------------------------------------------------------------
# Simulator semantics
# ----------------------------------------------------------------------

def test_messages_delivered_next_round():
    def program(ctx):
        ctx.send_all(("hello", ctx.node))
        inbox = yield
        return sorted(inbox)

    result = run_protocol(gen.path(3), program)
    assert result.outputs == {0: [1], 1: [0, 2], 2: [1]}
    assert result.rounds == 2
    assert result.metrics.total_messages == 4


def test_send_to_non_neighbor_rejected():
    def program(ctx):
        ctx.send(99, "x")
        yield

    with pytest.raises(CongestError, match="0 is not adjacent to 99"):
        run_protocol(gen.path(2), program)


def test_double_send_same_round_rejected():
    def program(ctx):
        ctx.send(ctx.neighbors[0], "a")
        ctx.send(ctx.neighbors[0], "b")
        yield

    with pytest.raises(CongestError, match="node 0 already sent to 1"):
        run_protocol(gen.path(2), program)


def test_oversized_message_rejected():
    def program(ctx):
        ctx.send_all(tuple(range(100)))  # ~100 ints: far over budget
        yield

    with pytest.raises(MessageTooLargeError):
        run_protocol(gen.path(2), program)


def test_budget_below_one_rejected():
    # Only None selects default_budget(n); 0, negative and non-integer
    # budgets are refused instead of silently running with the default
    # (or with a float budget).
    def program(ctx):
        yield
        return ctx.node

    for bad in (0, -5, 48.5, "64", True):
        with pytest.raises(CongestError, match="at least 1"):
            run_protocol(gen.path(4), program, budget=bad)
    assert run_protocol(gen.path(4), program, budget=1).metrics.budget_bits == 1
    assert run_protocol(gen.path(4), program).metrics.budget_bits == \
        default_budget(4)


def test_send_outside_round_rejected():
    contexts = []

    def program(ctx):
        contexts.append(ctx)
        return ctx.node
        yield

    run_protocol(gen.path(2), program)
    with pytest.raises(CongestError, match="send outside of a round"):
        contexts[0].send(1, "late")


def test_inboxes_are_reused_buffers():
    # The rule every node program follows: the inbox dict is refilled in
    # place next round, so a program copies what it needs before yielding.
    def program(ctx):
        ctx.send_all(("round", 1))
        inbox = yield
        kept, copied = inbox, dict(inbox)
        ctx.send_all(("round", 2))
        yield
        return kept == copied

    result = run_protocol(gen.path(2), program)
    assert result.outputs == {0: False, 1: False}


def test_nonterminating_protocol_detected():
    def program(ctx):
        while True:
            yield

    with pytest.raises(ProtocolError):
        run_protocol(gen.path(2), program, max_rounds=10)


def test_empty_network_rejected():
    with pytest.raises(CongestError):
        Simulation(Graph(), lambda ctx: iter(()))


def test_single_node_runs():
    def program(ctx):
        return ctx.n
        yield  # pragma: no cover

    result = run_protocol(Graph([7]), program)
    assert result.outputs == {7: 1}


def test_metrics_recorded():
    def program(ctx):
        ctx.send_all(("m", 1))
        inbox = yield
        return len(inbox)

    result = run_protocol(gen.cycle(4), program)
    metrics = result.metrics
    assert metrics.total_messages == 8
    assert metrics.max_message_bits <= metrics.budget_bits
    assert metrics.total_bits > 0
    assert "rounds=" in metrics.summary()


def test_unanimous_helper():
    def program(ctx):
        return "ok"
        yield  # pragma: no cover

    result = run_protocol(gen.path(2), program)
    assert result.unanimous() == "ok"

    def program2(ctx):
        return ctx.node
        yield  # pragma: no cover

    with pytest.raises(ProtocolError):
        run_protocol(gen.path(2), program2).unanimous()


def test_trace_records_messages():
    def program(ctx):
        ctx.send_all(("ping", ctx.node))
        inbox = yield
        return len(inbox)

    tracer = Tracer()
    result = Simulation(gen.path(3), program, tracer=tracer).run()
    assert result.outputs[1] == 2
    sends = [e for e in tracer.events if isinstance(e, SendEvent)]
    # 4 directed sends in round 1.
    assert len(sends) == 4
    assert {e.round for e in sends} == {1}
    assert sorted(e.sender for e in sends) == [0, 1, 1, 2]
    assert not tracer.truncated


def test_trace_respects_limit():
    def program(ctx):
        for _ in range(5):
            ctx.send_all(("x",))
            yield
        return None

    tracer = Tracer(max_events=3)
    Simulation(gen.path(2), program, tracer=tracer).run()
    assert len(tracer.events) == 3
    assert tracer.truncated


def test_round_number_visible_to_nodes():
    def program(ctx):
        first = ctx.round_number
        yield
        second = ctx.round_number
        return (first, second)

    result = run_protocol(gen.path(2), program)
    assert result.outputs[0] == (1, 2)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------

def test_leader_election_elects_min_id():
    def program(ctx):
        leader = yield from leader_election(ctx, True, rounds=ctx.n)
        return leader

    g = gen.random_connected_graph(8, 4, seed=3)
    result = run_protocol(g, program)
    assert all(out == 0 for out in result.outputs.values())


def test_leader_election_respects_participation():
    # Nodes 0 and 3 do not participate; P4 splits into components {1,2}.
    def program(ctx):
        participating = ctx.node in (1, 2)
        leader = yield from leader_election(ctx, participating, rounds=ctx.n)
        return leader

    result = run_protocol(gen.path(4), program)
    assert result.outputs[0] is None and result.outputs[3] is None
    assert result.outputs[1] == 1 and result.outputs[2] == 1


def test_leader_election_components_do_not_leak():
    # P5 with only endpoints participating: each is its own leader even
    # though the middle vertices physically connect them.
    def program(ctx):
        participating = ctx.node in (0, 4)
        leader = yield from leader_election(ctx, participating, rounds=ctx.n)
        return leader

    result = run_protocol(gen.path(5), program)
    assert result.outputs[0] == 0
    assert result.outputs[4] == 4


def test_broadcast_from_root():
    def program(ctx):
        value = yield from broadcast_from_root(
            ctx, is_root=ctx.node == 2, value=("v", 42), rounds=ctx.n
        )
        return value

    result = run_protocol(gen.path(5), program)
    assert all(out == ("v", 42) for out in result.outputs.values())


def test_flood_value_collects_everything():
    def program(ctx):
        values = yield from flood_value(ctx, ("id", ctx.node), rounds=3 * ctx.n)
        return len(values)

    g = gen.cycle(5)
    result = run_protocol(g, program)
    assert all(out == 5 for out in result.outputs.values())


def test_idle_keeps_lockstep():
    def program(ctx):
        yield from idle(ctx, 5)
        return ctx.round_number

    result = run_protocol(gen.path(2), program)
    assert result.outputs[0] == result.outputs[1] == 6
