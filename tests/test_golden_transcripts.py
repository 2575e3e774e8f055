"""Pinned CONGEST transcripts: corpus cases, the engine-bench smoke grid,
and the round scheduler itself.

``tests/golden_transcripts.json`` holds three families of cells:

* ``corpus/*`` and ``bench_engine/*`` record, per case, the answer and the
  wire-level signature of a pipeline run — rounds, messages, max payload
  bits, class count — plus a SHA-256 over every message sent (round,
  sender, receiver, bits, payload).  Refactors of the automaton layer
  change only node-local computation, so they must reproduce these bytes
  exactly.  Each case runs on a fresh in-memory cache: class ids are
  assigned in first-encounter order, so a shared codec would make the
  class count depend on which cases ran before.
* ``scheduler/*`` pin the round scheduler.  Two toy programs under every
  inbox order, under drop/duplicate/delay faults and under a
  crash+restart plan record their outputs, the full
  :class:`~repro.congest.metrics.RoundMetrics`, the crashed nodes and the
  send hash; the pipelines record their whole result and send hash.
  The toy-program cells and the three plain pipeline cells were generated
  by the per-message reference scheduler the simulator used to carry
  beside the batched one, so they stand in for that second scheduler as
  the reference.  The other ``pipeline-*`` cells pin the shared checking
  path (elimination, crash checks, retry wrapping, budget, early return
  on td > d) as it was before the pipelines were merged into one driver:
  decide/optimize/count under drop+duplicate faults with retry, count
  under a 64-bit budget, decide on a td-exceeded input, and one accepting
  and one rejecting optmarked run.

Regenerate (only when a transcript change is intended and explained)::

    PYTHONPATH=src python tests/test_golden_transcripts.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Any, Dict

import pytest

from repro.algebra import compile_formula
from repro.algebra.cache import AutomatonCache
from repro.api import Session
from repro.congest import INBOX_ORDERS, NodeContext, node_program, run_protocol
from repro.congest.parallel import shard_seed
from repro.distributed import (
    count_pipeline,
    decide_pipeline,
    optimize_pipeline,
    optmarked_distributed,
)
from repro.faults import CrashFault, FaultPlan, RetryPolicy
from repro.graph import generators as gen
from repro.mso import formulas, vertex_set
from repro.obs import Tracer, use_tracer
from repro.runconfig import RunConfig
from repro.testkit.corpus import iter_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_transcripts.json")
CORPUS = os.path.join(HERE, "corpus")

#: The ``benchmarks/bench_engine.py --smoke`` grid: one point per experiment.
BENCH_POINTS = {"E1": {"n": 12, "d": 3}, "E6": {"n": 12, "d": 3}}


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


PROGRAMS = {"gossip_min": gossip_min_program, "chatter": chatter_program}

#: Fault cells: (program, simulation seed, plan).
FAULT_CELLS = {
    "gossip_min-faults": ("gossip_min", 3, FaultPlan(
        seed=5, drop_rate=0.1, duplicate_rate=0.05, delay_rate=0.05,
        max_delay=2,
    )),
    "chatter-crash-restart": ("chatter", 3, FaultPlan(crashes=(
        CrashFault(node=3, at_round=2, restart_round=4),
        CrashFault(node=7, at_round=3),
    ))),
}

PIPELINES = (
    "decide", "optimize", "count",
    "decide-retry", "optimize-retry", "count-retry", "count-budget64",
    "decide-td-exceeded", "optmarked-accept", "optmarked-reject",
)

#: Marked sets for the optmarked cells: a maximum independent set of the
#: pipeline graph, and an independent set that is not maximum.
OPTMARKED = {
    "accept": frozenset({2, 4, 6, 7, 8, 9, 10, 11}),
    "reject": frozenset({2, 4}),
}


class _TranscriptTracer(Tracer):
    """A tracer that also hashes every send in delivery order."""

    def __init__(self) -> None:
        super().__init__()
        self.digest = hashlib.sha256()

    def on_send(self, sender, receiver, bits, payload) -> None:
        self.digest.update(
            repr((self.round, sender, receiver, bits, payload)).encode()
        )
        super().on_send(sender, receiver, bits, payload)


def _canon(value: Any) -> Any:
    """``value`` as JSON-native data: sets sorted, dict keys as strings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): _canon(v)
                for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((_canon(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _corpus_case(case) -> Dict[str, Any]:
    tracer = _TranscriptTracer()
    session = Session(
        case.graph, case.d, seed=case.seed,
        cache=AutomatonCache(persist=False),
    )
    # Installed rather than passed, so certify's verifier is hashed too.
    with use_tracer(tracer):
        if case.workload == "optimize":
            result = session.optimize(case.formula, sense=case.sense)
            answer = [result.verdict, result.value]
        elif case.workload == "count":
            result = session.count(case.formula)
            answer = [result.verdict, result.count]
        elif case.workload == "certify":
            result = session.certify(case.formula)
            answer = [result.verdict]
        else:
            result = session.decide(case.formula)
            answer = [result.verdict]
    return {
        "answer": answer,
        "rounds": result.rounds,
        "messages": result.messages,
        "max_payload_bits": result.max_payload_bits,
        "num_classes": result.num_classes,
        "transcript_sha256": tracer.digest.hexdigest(),
    }


def _bench_point(name: str) -> Dict[str, Any]:
    params = BENCH_POINTS[name]
    seed = shard_seed(0, 0)
    graph = gen.random_bounded_treedepth(
        params["n"], depth=params["d"], seed=seed % 1000
    )
    cache = AutomatonCache(persist=False)
    tracer = _TranscriptTracer()
    if name == "E1":
        automaton, codec = cache.automaton_with_codec(
            formulas.h_free(gen.triangle()), (), d=params["d"], labels=()
        )
        out = decide_pipeline(automaton, graph, params["d"],
                              config=RunConfig(codec=codec, trace=tracer))
        answer = [out.accepted]
    else:
        formula, variables = formulas.triangle_assignment()
        automaton, codec = cache.automaton_with_codec(
            formula, variables, d=params["d"], labels=()
        )
        out = count_pipeline(automaton, graph, params["d"],
                             config=RunConfig(codec=codec, trace=tracer))
        answer = [out.count]
    return {
        "answer": answer,
        "rounds": out.total_rounds,
        "messages": out.total_messages,
        "max_payload_bits": out.max_message_bits,
        "num_classes": out.num_classes,
        "transcript_sha256": tracer.digest.hexdigest(),
    }


def _protocol_cell(program: str, **knobs: Any) -> Dict[str, Any]:
    tracer = _TranscriptTracer()
    result = run_protocol(gen.random_bounded_treedepth(14, 3, seed=2),
                          PROGRAMS[program], tracer=tracer, **knobs)
    return {
        "outputs": _canon(result.outputs),
        "metrics": _canon(result.metrics),
        "crashed": _canon(result.crashed),
        "transcript_sha256": tracer.digest.hexdigest(),
    }


def _pipeline_cell(name: str) -> Dict[str, Any]:
    workload, _, variant = name.partition("-")
    graph, d = gen.random_bounded_treedepth(12, 3, seed=5), 3
    knobs: Dict[str, Any] = {"seed": 1}
    if variant == "retry":
        knobs.update(
            faults=FaultPlan(seed=3, drop_rate=0.01, duplicate_rate=0.02),
            retry=RetryPolicy(attempts=4),
        )
    elif variant == "budget64":
        knobs["budget"] = 64
    elif variant == "td-exceeded":
        graph, d = gen.path(20), 2
    tracer = _TranscriptTracer()
    config = RunConfig(trace=tracer, **knobs)
    s = vertex_set("S")
    if workload == "decide":
        out = decide_pipeline(compile_formula(formulas.triangle_free()),
                              graph, d, config=config)
    elif workload == "optimize":
        out = optimize_pipeline(compile_formula(formulas.independent_set(s),
                                                (s,)),
                                graph, d, config=config)
    elif workload == "optmarked":
        # No config: the run records through the installed tracer.
        with use_tracer(tracer):
            out = optmarked_distributed(
                compile_formula(formulas.independent_set(s), (s,)),
                graph, d, marked=OPTMARKED[variant],
            )
    else:
        formula, variables = formulas.triangle_assignment()
        out = count_pipeline(compile_formula(formula, variables),
                             graph, d, config=config)
    return {
        "result": _canon(out),
        "transcript_sha256": tracer.digest.hexdigest(),
    }


def _scheduler_cell(name: str) -> Dict[str, Any]:
    if name.startswith("pipeline-"):
        return _pipeline_cell(name[len("pipeline-"):])
    if name in FAULT_CELLS:
        program, seed, plan = FAULT_CELLS[name]
        return _protocol_cell(program, seed=seed, faults=plan)
    program, order = name.split("/")
    return _protocol_cell(program, inbox_order=order, seed=7)


def _scheduler_names():
    orders = [f"{p}/{order}" for p in PROGRAMS for order in INBOX_ORDERS]
    return (orders + sorted(FAULT_CELLS)
            + [f"pipeline-{name}" for name in PIPELINES])


def _keys():
    corpus = [f"corpus/{os.path.basename(p)}" for p, _, _ in iter_corpus(CORPUS)]
    return (sorted(corpus)
            + [f"bench_engine/{name}" for name in BENCH_POINTS]
            + [f"scheduler/{name}" for name in _scheduler_names()])


def _observe(key: str) -> Dict[str, Any]:
    kind, name = key.split("/", 1)
    if kind == "bench_engine":
        return _bench_point(name)
    if kind == "scheduler":
        return _scheduler_cell(name)
    case = next(c for p, c, _ in iter_corpus(CORPUS)
                if os.path.basename(p) == name)
    return _corpus_case(case)


def _load_fixture() -> Dict[str, Dict[str, Any]]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def test_fixture_covers_corpus_and_bench_grid():
    assert sorted(_load_fixture()) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_transcript_matches_fixture(key):
    assert _observe(key) == _load_fixture()[key]


def test_scheduler_cells_exercise_faults():
    """The fault cells must actually inject what they are named after."""
    fixture = _load_fixture()
    faults = fixture["scheduler/gossip_min-faults"]["metrics"]
    assert {"fault-drop", "fault-duplicate", "fault-delay"} <= set(
        faults["faults_injected"])
    crash = fixture["scheduler/chatter-crash-restart"]
    assert crash["metrics"]["faults_injected"]["fault-restart"] == 1
    assert crash["crashed"] == {"7": 3}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_transcripts.py --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump({"format": "repro-golden-transcripts/2",
                   "cases": {key: _observe(key) for key in _keys()}},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
