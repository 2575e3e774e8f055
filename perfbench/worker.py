"""Runs one workload in its own process and prints its figures as JSON.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR``
with ``src`` on ``PYTHONPATH`` (``run.py`` sets this up).

One client, closed loop: the next query starts when the previous one
has returned.  The loop runs whole cycles over the workload's (formula,
graph) pairs for about ``SECONDS``, so every pair is weighted equally.
With tracing on, cycles alternate between untraced and traced, which
gives the tracing overhead on the same inputs in the same run.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
#: Warm set-up (compile plus one warming pass) is repeated this many
#: times with a fresh cache, and its median reported.
SETUP_REPEATS = 3


def main(argv: List[str]) -> int:
    name, seed, seconds, trace, out_dir = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    )
    start = time.perf_counter()
    import repro.api  # noqa: F401  (import time is set-up time)

    from workloads import WORKLOADS, make_inputs

    import_s = time.perf_counter() - start
    workload = WORKLOADS[name]
    start = time.perf_counter()
    inputs = make_inputs(workload, seed)
    inputs_s = time.perf_counter() - start
    run = (_run_cold if workload.cold else _run_warm)(
        name, workload, inputs, seed, seconds, trace
    )
    run["setup_s"] += import_s + inputs_s
    report = summarize(name, inputs, run, trace)
    if trace:
        _write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl", run)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


# ----------------------------------------------------------------------
# The closed loops
# ----------------------------------------------------------------------

def _cycles(seconds: float, trace: bool):
    """Cycle numbers filling about ``seconds``; an even count if tracing.

    The count is fixed after the first cycle from its duration, so a run
    ends within half a cycle of ``seconds`` and weights every pair alike.
    """
    step = 2 if trace else 1
    start = time.perf_counter()
    yield 0
    first = time.perf_counter() - start
    total = max(step, step * round(seconds / (first * step)))
    yield from range(1, total)


def _run_warm(name, workload, inputs, seed, seconds, trace) -> Dict[str, Any]:
    from repro.algebra.cache import AutomatonCache
    from repro.api import Session

    from query import timed_query
    from workloads import D, formula

    phis = [formula(pair.formula) for pair in workload.pairs]
    samples: List[Dict[str, Any]] = []
    prepare_s = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        cache = AutomatonCache(persist=False)
        sessions = [Session(graph, D, cache=cache, record=False)
                    for graph, _ in inputs]
        warming = [
            timed_query(session, workload.kind, phi, f"setup{repeat}/{i}")
            for i, (session, phi) in enumerate(zip(sessions, phis))
        ]
        prepare_s.append(time.perf_counter() - start)
        for i, sample in enumerate(warming):
            sample.update(pair=i, traced=False, setup=True)
            sample["cache_ok"] = i > 0 or sample.get("misses", 0) >= 1
            samples.append(sample)
    tracer = None
    if trace:
        from tracing import Instrumentation, Recorder

        rec = Recorder()
        tracer = (rec, Instrumentation(rec))
    for cycle in _cycles(seconds, trace):
        traced = trace and cycle % 2 == 1
        for i, (session, phi) in enumerate(zip(sessions, phis)):
            sample = timed_query(
                session, workload.kind, phi, f"{name}/{seed}/{cycle}/{i}",
                tracer if traced else None, reference=True,
            )
            sample.update(pair=i, traced=traced, setup=False)
            sample["cache_ok"] = sample.get("misses", 0) == 0
            samples.append(sample)
    return {
        "samples": samples,
        "setup_s": statistics.median(prepare_s),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer[0].spans if tracer else [],
        "missing": tracer[1].missing if tracer else [],
    }


def _run_cold(name, workload, inputs, seed, seconds, trace) -> Dict[str, Any]:
    from workloads import graph_to_json

    graphs = [graph_to_json(graph) for graph, _ in inputs]
    samples: List[Dict[str, Any]] = []
    startup_s = []
    spans: List[Dict[str, Any]] = []
    missing: List[str] = []
    for cycle in _cycles(seconds, trace):
        traced = trace and cycle % 2 == 1
        for i, pair in enumerate(workload.pairs):
            spec = json.dumps({
                "graph": graphs[i], "formula": pair.formula,
                "query_id": f"{name}/{seed}/{cycle}/{i}", "trace": traced,
            })
            spawned = time.monotonic()
            sample = _cold_child(spec)
            sample.update(pair=i, traced=traced, setup=False)
            if "ready" in sample:
                startup_s.append(sample["ready"] - spawned)
            sample["cache_ok"] = sample.get("misses", 0) >= 1
            spans.extend(sample.pop("spans", ()))
            missing = sample.pop("missing", missing)
            samples.append(sample)
    return {
        "samples": samples,
        "setup_s": statistics.median(startup_s) if startup_s else 0.0,
        "peak_rss_kb": max(s.get("maxrss_kb", 0) for s in samples),
        "spans": spans,
        "missing": missing,
    }


def _cold_child(spec: str) -> Dict[str, Any]:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold_query.py")], input=spec,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"wall": CHILD_TIMEOUT_S, "cpu": 0.0,
                "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"wall": 0.0, "cpu": 0.0,
                "error": f"child exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

def _first_per_pair(samples):
    """One successful sample per pair, for the figures that are exact."""
    seen: Dict[int, Dict[str, Any]] = {}
    for sample in samples:
        if sample["error"] is None:
            seen.setdefault(sample["pair"], sample)
    return [seen[i] for i in sorted(seen)]


def summarize(name, inputs, run, trace) -> Dict[str, Any]:
    samples = run["samples"]
    wrong = errors = cache_violations = 0
    for sample in samples:
        if sample["error"] is not None:
            errors += 1
        elif sample["answer"] != inputs[sample["pair"]][1]:
            wrong += 1
        if sample["error"] is None and not sample["cache_ok"]:
            cache_violations += 1
    timed = [s for s in samples
             if not s["setup"] and not s["traced"] and s["error"] is None]
    walls = [s["wall"] for s in timed]
    per_pair = _first_per_pair(s for s in samples if not s["setup"])
    e2e = {
        "setup_s": run["setup_s"],
        "query_p50_ref": _ratio_of_medians(timed, "wall", "ref_wall"),
        "query_cpu_p50_ref": _ratio_of_medians(timed, "cpu", "ref_cpu"),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "rounds_mean": _mean(s["rounds"] for s in per_pair),
        "messages_mean": _mean(s["messages"] for s in per_pair),
        "max_payload_bits": max((s["bits"] for s in per_pair), default=0),
    }
    report: Dict[str, Any] = {
        "workload": name,
        "attempted": len(samples),
        "failed": wrong + errors + cache_violations,
        "wrong_answers": wrong,
        "errors": errors,
        "error_ratio": errors / len(samples) if samples else 1.0,
        "cache_violations": cache_violations,
        "timed_queries": len(walls),
        "e2e": e2e,
        "all_queries": {
            "query_s_p50": statistics.median(walls) if walls else 0.0,
            "query_cpu_s_p50": (
                statistics.median(s["cpu"] for s in timed) if timed else 0.0
            ),
            "queries_per_s": len(walls) / sum(walls) if walls else 0.0,
        },
        "error_examples": sorted({s["error"] for s in samples
                                  if s["error"]})[:3],
    }
    if len(walls) >= 100:
        report["query_s_p90"] = statistics.quantiles(walls, n=10)[-1]
    if trace:
        report["layers"], report["predictions"] = _layers(
            name, samples, walls
        )
        report["missing_boundaries"] = run["missing"]
    return report


def _ratio_of_medians(samples, key, ref_key) -> float:
    """Median query time over median ``reference_work`` time in the run.

    Both are taken over the same stretch of the run, one reference just
    before each query, so the host's speed at the time divides out; see
    ``query.reference_work``.
    """
    if not samples:
        return 0.0
    return (statistics.median(s[key] for s in samples)
            / statistics.median(s[ref_key] for s in samples))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _layers(name, samples, untraced_walls):
    traced = [s for s in samples
              if s["traced"] and s["error"] is None and "trace" in s]
    if not traced:
        return {}, []
    records = [s["trace"] for s in traced]
    per_pair = [s["trace"] for s in _first_per_pair(traced)]

    def median_layer(layer):
        return statistics.median(t["layers"].get(layer, 0.0) for t in records)

    def pair_mean(get):
        return _mean(get(t) for t in per_pair)

    def share(layer):
        total = sum(t["query_s"] for t in records)
        return sum(t["layers"].get(layer, 0.0) for t in records) / total

    sends = sum(t["sends"] for t in records)
    protocol_s = sum(t["run_protocol_s"] for t in records)
    lookups = sum(s["hits"] + s["misses"] for s in traced)
    layers = {
        "api.self_s": median_layer("api"),
        "algebra.compile_s": median_layer("algebra.compile"),
        "algebra.minimize_s": median_layer("algebra.minimize"),
        "algebra.transition_s": median_layer("algebra.transition"),
        "algebra.transition_calls": pair_mean(
            lambda t: t["calls"].get("algebra.transition", 0)),
        "algebra.transition_share": share("algebra.transition"),
        "algebra.table_entries_new": pair_mean(
            lambda t: t["table_entries_new"]),
        "algebra.cache_hit_ratio": (
            sum(s["hits"] for s in traced) / lookups if lookups else 0.0
        ),
        "algebra.classes": _mean(
            s["classes"] for s in _first_per_pair(traced)),
        "elimination.s": median_layer("elimination"),
        "elimination.rounds": pair_mean(
            lambda t: t["facts"].get("elimination.rounds", 0)),
        "elimination.messages": pair_mean(
            lambda t: t["facts"].get("elimination.messages", 0)),
        "protocol.s": median_layer("protocol"),
        "protocol.pipeline_s": median_layer("pipeline"),
        "protocol.rounds": pair_mean(
            lambda t: t["facts"].get("protocol.rounds", 0)),
        "protocol.messages": pair_mean(
            lambda t: t["facts"].get("protocol.messages", 0)),
        "congest.s": median_layer("congest"),
        "congest.share": share("congest"),
        "congest.sends": pair_mean(lambda t: t["sends"]),
        "congest.resumes": pair_mean(
            lambda t: t["calls"].get("elimination.resume", 0)
            + t["calls"].get("protocol.resume", 0)),
        "congest.sends_per_s": sends / protocol_s if protocol_s else 0.0,
        "obs.report_s": median_layer("obs"),
        "trace.overhead_s": (
            statistics.median(s["wall"] for s in traced)
            - statistics.median(untraced_walls)
            if untraced_walls else 0.0
        ),
    }
    predictions = [
        ("api.self_s is about 0 (share <= 0.02)", share("api") <= 0.02),
        ("obs.report_s under 1% of the query", share("obs") < 0.01),
    ]
    if name == "cold-fo":
        predictions += [
            ("algebra.transition_s >= 90% of the query",
             layers["algebra.transition_share"] >= 0.90),
            ("algebra.cache_hit_ratio = 0",
             layers["algebra.cache_hit_ratio"] == 0.0),
        ]
    else:
        predictions += [
            ("algebra.cache_hit_ratio = 1",
             layers["algebra.cache_hit_ratio"] == 1.0),
            ("algebra.table_entries_new = 0",
             layers["algebra.table_entries_new"] == 0),
        ]
    if name == "warm-decide":
        predictions.append(("algebra.transition_s <= 10% of the query",
                            layers["algebra.transition_share"] <= 0.10))
    if name == "warm-count":
        predictions.append(("congest.s <= 10% of the query",
                            layers["congest.share"] <= 0.10))
    layers["predictions_failed"] = sum(1 for _, ok in predictions if not ok)
    return layers, [{"prediction": p, "ok": ok} for p, ok in predictions]


def _write_spans(path: Path, run: Dict[str, Any]) -> None:
    """The span log plus each traced query's hot-boundary aggregates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span in run["spans"]:
            out.write(json.dumps(span) + "\n")
        for sample in run["samples"]:
            if "trace" in sample:
                out.write(json.dumps({
                    "query": sample.get("query_id"),
                    "pair": sample["pair"],
                    "calls": sample["trace"]["calls"],
                    "layers": sample["trace"]["layers"],
                }) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
