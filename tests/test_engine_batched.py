"""Differential tests: the batched scheduler vs the naive baseline.

The batched engine must be *byte-identical* to the naive engine for
single-shard runs: same outputs, same round/message/bit metrics, same
crash sets — across every inbox order, with and without fault injection,
and through every distributed pipeline.
"""

import dataclasses

import pytest

from repro.algebra import compile_formula
from repro.congest import (
    ENGINES,
    INBOX_ORDERS,
    NodeContext,
    node_program,
    run_protocol,
)
from repro.distributed import count_pipeline, decide_pipeline, optimize_pipeline
from repro.faults import FaultPlan
from repro.graph import generators as gen
from repro.mso import formulas, vertex_set


@node_program
def gossip_min_program(ctx: NodeContext):
    """Three rounds of neighbor gossip; output the minimum id seen."""
    best = ctx.node
    for _ in range(3):
        ctx.send_all(("min", best))
        inbox = yield
        for payload in inbox.values():
            if isinstance(payload, tuple) and len(payload) == 2 \
                    and payload[0] == "min":
                best = min(best, payload[1])
    return best


@node_program
def chatter_program(ctx: NodeContext):
    """Tuple traffic of varying width; output total messages received."""
    total = 0
    for i in range(5):
        ctx.send_all(("tick", i, ctx.node))
        inbox = yield
        total += len(inbox)
    return total


def _snapshot(result):
    return (
        result.outputs,
        dataclasses.asdict(result.metrics),
        result.crashed,
    )


def test_engines_registered():
    assert set(ENGINES) == {"naive", "batched"}


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "naive"])
@pytest.mark.parametrize("inbox_order", INBOX_ORDERS)
def test_batched_identical_across_inbox_orders(inbox_order, engine):
    g = gen.random_bounded_treedepth(14, 3, seed=2)
    for program in (gossip_min_program, chatter_program):
        naive = run_protocol(
            g, program, inbox_order=inbox_order, seed=7, engine="naive"
        )
        batched = run_protocol(
            g, program, inbox_order=inbox_order, seed=7, engine=engine
        )
        assert _snapshot(naive) == _snapshot(batched)
        assert batched.engine == engine
        assert batched.replay_args()["engine"] == engine


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "naive"])
def test_batched_identical_under_faults(engine):
    g = gen.random_bounded_treedepth(14, 3, seed=2)
    plan = FaultPlan(
        seed=5, drop_rate=0.1, duplicate_rate=0.05, delay_rate=0.05,
        max_delay=2,
    )
    naive = run_protocol(g, gossip_min_program, seed=3, faults=plan,
                         engine="naive")
    batched = run_protocol(g, gossip_min_program, seed=3, faults=plan,
                           engine=engine)
    assert _snapshot(naive) == _snapshot(batched)


def test_pipelines_identical_across_engines():
    g = gen.random_bounded_treedepth(12, 3, seed=5)
    decide_automaton = compile_formula(formulas.triangle_free())
    s = vertex_set("S")
    opt_automaton = compile_formula(formulas.independent_set(s), (s,))
    formula, variables = formulas.triangle_assignment()
    count_automaton = compile_formula(formula, variables)

    runs = {}
    for engine in ENGINES:
        decided = decide_pipeline(decide_automaton, g, 3, seed=1,
                                  engine=engine)
        optimized = optimize_pipeline(opt_automaton, g, 3, seed=1,
                                      engine=engine)
        counted = count_pipeline(count_automaton, g, 3, seed=1, engine=engine)
        runs[engine] = (
            decided.accepted, decided.total_rounds, decided.total_messages,
            decided.max_message_bits,
            optimized.value, optimized.witness, optimized.total_rounds,
            counted.count, counted.total_rounds,
        )
    for engine in ENGINES:
        assert runs[engine] == runs["naive"], engine


def test_unknown_engine_rejected():
    g = gen.path(4)
    with pytest.raises(Exception):
        run_protocol(g, gossip_min_program, engine="warp")
