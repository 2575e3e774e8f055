"""One timed query through ``repro.api.Session`` and what it reports."""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from workloads import answer, table_entries

_REFERENCE_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}


def reference_work(iterations: int = 200_000) -> int:
    """A fixed pure-Python loop (about 30 ms), timed before each query.

    The shared host's speed drifts by up to half for minutes at a time,
    for every process on it, so a query's seconds differ between runs of
    the same code.  Its time over this loop's time, both measured in the
    same stretch of the run, does not.  The loop allocates no containers,
    so the program's heap cannot slow it through the garbage collector.
    """
    table = _REFERENCE_TABLE
    acc = 0
    for i in range(iterations):
        acc = (acc + table[i & 1023] * i) % 1_000_003
    return acc


def timed_query(session, kind: str, phi, query_id: str,
                tracer: Optional[Any] = None,
                reference: bool = False) -> Dict[str, Any]:
    """Run ``session.decide``/``count`` once; ``tracer`` is (rec, instr).

    Returns wall and CPU seconds, the answer, the Result's CONGEST cost
    and cache counters, and, when traced, the per-layer attribution.
    With ``reference``, ``reference_work`` is timed just before the query
    (``ref_wall``, ``ref_cpu``).
    """
    sample: Dict[str, Any] = {"query_id": query_id}
    if reference:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        reference_work()
        sample["ref_wall"] = time.perf_counter() - wall0
        sample["ref_cpu"] = time.process_time() - cpu0
    entries_before = table_entries(session.cache) if tracer else 0
    if tracer:
        rec, instr = tracer
        rec.reset_query(query_id)
        instr.install()
        rec.enter("api.query")
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    error = None
    result = None
    try:
        result = session.decide(phi) if kind == "decide" \
            else session.count(phi)
    except Exception as exc:  # counted in error_ratio, never fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    sample.update(wall=wall, cpu=cpu, error=error)
    if tracer:
        rec.exit()
        instr.remove()
    if result is not None:
        sample.update(
            answer=answer(kind, result),
            rounds=result.rounds,
            messages=result.messages,
            bits=result.max_payload_bits,
            classes=result.num_classes,
            hits=result.cache_hits,
            misses=result.cache_misses,
        )
    if tracer:
        sample["trace"] = rec.summary()
        sample["trace"]["table_entries_new"] = (
            table_entries(session.cache) - entries_before
        )
    return sample
