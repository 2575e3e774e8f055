"""Adversarial inbox ordering (the dynamic RL002 cross-check) and the
runtime hardening that rides along: payload path errors, undelivered
message accounting, and the double-run guard."""

import pytest

from repro.algebra import compile_formula
from repro.congest import INBOX_ORDERS, Simulation, run_protocol
from repro.congest.messages import payload_bits
from repro.distributed import build_elimination_tree, decide_pipeline
from repro.errors import CongestError, PayloadTypeError
from repro.graph import generators as gen
from repro.mso import formulas
from repro.runconfig import RunConfig
from repro.treedepth import treedepth

SEEDS = [1, 7, 1234]


def networks():
    yield gen.path(6)
    yield gen.star(5)
    yield gen.cycle(7)
    yield gen.random_bounded_treedepth(12, 3, seed=5)


# -- shuffle mode is a no-op for conforming protocols ------------------------

def test_elimination_tree_invariant_under_shuffle():
    for g in networks():
        d = treedepth(g)
        baseline = build_elimination_tree(g, d)
        assert baseline.accepted
        reference = {
            v: (out.parent, out.depth, out.children, out.bag)
            for v, out in baseline.outputs.items()
        }
        for seed in SEEDS:
            shuffled = build_elimination_tree(
                g, d, config=RunConfig(inbox_order="shuffle", seed=seed)
            )
            assert shuffled.accepted
            assert {
                v: (out.parent, out.depth, out.children, out.bag)
                for v, out in shuffled.outputs.items()
            } == reference


@pytest.mark.parametrize("order", ["shuffle", "sorted", "reversed"])
def test_decision_invariant_under_adversarial_orders(order):
    automaton = compile_formula(formulas.triangle_free(), ())
    for g in networks():
        d = treedepth(g)
        baseline = decide_pipeline(automaton, g, d=d)
        for seed in SEEDS:
            outcome = decide_pipeline(
                automaton, g, d=d,
                config=RunConfig(inbox_order=order, seed=seed),
            )
            assert outcome.accepted == baseline.accepted
            assert outcome.total_rounds == baseline.total_rounds


def test_invalid_inbox_order_rejected():
    with pytest.raises(CongestError):
        Simulation(gen.path(2), _echo_program, inbox_order="chaos")
    assert "arrival" in INBOX_ORDERS and "shuffle" in INBOX_ORDERS


def test_shuffle_actually_permutes_inboxes():
    """An order-sensitive probe must observe different inboxes under
    different shuffle seeds (otherwise the cross-check checks nothing)."""
    g = gen.star(9)  # center sees 9 messages: 9! orderings
    observed = set()
    for seed in range(6):
        result = run_protocol(
            g, _first_sender_program, inbox_order="shuffle", seed=seed
        )
        observed.add(result.outputs[0])
    assert len(observed) > 1


def _echo_program(ctx):
    yield
    return None


def _first_sender_program(ctx):
    ctx.send_all(("ping", ctx.node))
    inbox = yield
    for sender in inbox:  # deliberately order-sensitive probe
        return sender
    return None


# -- payload hardening -------------------------------------------------------

@pytest.mark.parametrize(
    "payload,path,type_name",
    [
        ([1, 2], "payload", "list"),
        ((1, ("a", 2.5)), "payload[1][1]", "float"),
        ((1, {"k": 1}), "payload[1]", "dict"),
        (({1, 2},), "payload[0]", "set"),
        ((1, (frozenset(((2, b"x"),)),)), "payload[1][0]{0}[1]", "bytes"),
    ],
)
def test_payload_bits_names_offending_subvalue(payload, path, type_name):
    with pytest.raises(PayloadTypeError) as exc:
        payload_bits(payload)
    assert exc.value.path == path
    assert exc.value.type_name == type_name
    assert path in str(exc.value)


def test_payload_type_error_is_congest_error():
    assert issubclass(PayloadTypeError, CongestError)


def test_payload_bits_accepts_full_algebra():
    assert payload_bits(("ok", 3, frozenset((1, 2)), None, True)) > 0


# -- runtime metrics edge cases ----------------------------------------------

def _dead_letter_program(ctx):
    ctx.send_all(("lost", 1))
    if False:
        yield
    return ctx.node


def test_undelivered_messages_are_counted():
    g = gen.path(3)
    result = run_protocol(g, _dead_letter_program)
    # Every node halts in the sweep where its sends were queued: none of
    # the 2*|E| messages can be delivered.
    assert result.undelivered == 2 * g.num_edges()
    assert result.metrics.undelivered_messages == result.undelivered
    assert "undelivered" in result.metrics.summary()


def test_clean_protocols_have_no_undelivered_messages():
    g = gen.random_bounded_treedepth(10, 3, seed=2)
    result = build_elimination_tree(g, treedepth(g))
    assert result.accepted


def test_simulation_cannot_run_twice():
    sim = Simulation(gen.path(3), _echo_program)
    sim.run()
    with pytest.raises(CongestError):
        sim.run()  # rerunning would silently reuse exhausted generators
