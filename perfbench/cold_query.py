"""One cold query in a fresh interpreter: the unit of the cold-fo workload.

Reads ``{"graph", "formula", "query_id", "trace"}`` as JSON on stdin and
writes one JSON sample on stdout.  ``ready`` is the monotonic clock after
imports and graph construction, so the parent can charge interpreter
start-up to set-up time rather than to the query.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> None:
    spec = json.load(sys.stdin)
    from repro.algebra.cache import AutomatonCache
    from repro.api import Session

    from query import timed_query
    from workloads import D, formula, graph_from_json

    graph = graph_from_json(spec["graph"])
    phi = formula(spec["formula"])
    session = Session(graph, D, cache=AutomatonCache(persist=False),
                      record=False)
    tracer = None
    if spec["trace"]:
        from tracing import Instrumentation, Recorder

        rec = Recorder()
        tracer = (rec, Instrumentation(rec))
    ready = time.monotonic()
    sample = timed_query(session, "decide", phi, spec["query_id"], tracer,
                         reference=True)
    sample["ready"] = ready
    sample["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        sample["spans"] = tracer[0].spans
        sample["missing"] = tracer[1].missing
    sys.stdout.write(json.dumps(sample) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the materialized tower is not
    # part of the query, and the sample is already written.
    os._exit(0)


if __name__ == "__main__":
    main()
