"""Pinned CONGEST transcripts: every corpus case and the engine-bench smoke grid.

``tests/golden_transcripts.json`` records, per case, the answer and the
wire-level signature of a batched run — rounds, messages, max payload
bits, class count — plus a SHA-256 over every message sent (round,
sender, receiver, bits, payload).  Refactors of the automaton layer
change only node-local computation, so they must reproduce these bytes
exactly.  Each case runs on a fresh in-memory cache: class ids are
assigned in first-encounter order, so a shared codec would make the
class count depend on which cases ran before.

Regenerate (only when a transcript change is intended and explained)::

    PYTHONPATH=src python tests/test_golden_transcripts.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict

import pytest

from repro.algebra.cache import AutomatonCache
from repro.api import Session
from repro.congest.parallel import shard_seed
from repro.distributed import count_pipeline, decide_pipeline
from repro.graph import generators as gen
from repro.mso import formulas
from repro.obs import Tracer, use_tracer
from repro.testkit.corpus import iter_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_transcripts.json")
CORPUS = os.path.join(HERE, "corpus")

#: Execution knobs every pinned run uses.
RUN_OPTIONS: Dict[str, Any] = {"engine": "batched"}

#: The ``benchmarks/bench_engine.py --smoke`` grid: one point per experiment.
BENCH_POINTS = {"E1": {"n": 12, "d": 3}, "E6": {"n": 12, "d": 3}}


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


def _corpus_case(case) -> Dict[str, Any]:
    tracer = _TranscriptTracer()
    session = Session(
        case.graph, case.d, seed=case.seed,
        cache=AutomatonCache(persist=False), **RUN_OPTIONS,
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
        out = decide_pipeline(automaton, graph, params["d"], codec=codec,
                              tracer=tracer, **RUN_OPTIONS)
        answer = [out.accepted]
    else:
        formula, variables = formulas.triangle_assignment()
        automaton, codec = cache.automaton_with_codec(
            formula, variables, d=params["d"], labels=()
        )
        out = count_pipeline(automaton, graph, params["d"], codec=codec,
                             tracer=tracer, **RUN_OPTIONS)
        answer = [out.count]
    return {
        "answer": answer,
        "rounds": out.total_rounds,
        "messages": out.total_messages,
        "max_payload_bits": out.max_message_bits,
        "num_classes": out.num_classes,
        "transcript_sha256": tracer.digest.hexdigest(),
    }


def _keys():
    corpus = [f"corpus/{os.path.basename(p)}" for p, _, _ in iter_corpus(CORPUS)]
    return sorted(corpus) + [f"bench_engine/{name}" for name in BENCH_POINTS]


def _observe(key: str) -> Dict[str, Any]:
    kind, name = key.split("/", 1)
    if kind == "bench_engine":
        return _bench_point(name)
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_transcripts.py --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump({"format": "repro-golden-transcripts/1",
                   "options": RUN_OPTIONS,
                   "cases": {key: _observe(key) for key in _keys()}},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
