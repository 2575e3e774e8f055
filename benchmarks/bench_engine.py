"""Engine benchmark: the cold naive path against the warm batched path.

Replays the E1 (decision rounds vs n) and E6 (counting) workloads in
two modes:

* ``naive``   — what every run cost before the execution engine: a cold
  ``compile_formula`` per grid point (no table reuse between points)
  and the round-by-round naive scheduler.
* ``batched`` — the engine path: one shared, pre-warmed
  :class:`repro.algebra.cache.AutomatonCache` (compiled automata with
  warm id-keyed transition tables and join memos, stable class ids)
  and the batched scheduler.

Both modes run the exact same grid through
:func:`repro.congest.parallel.run_sweep`, so per-point seeds are the
sweep's deterministic shard seeds.  The two schedulers are
byte-identical, so verdicts *and* rounds are cross-checked between
modes — a speedup that changes an answer is a bug, not a result.

Method: CPU time (``time.process_time``), so other processes on a
shared host do not count.  One *sample* of a mode runs the whole grid
``inner`` times, with ``inner`` calibrated per mode so every sample
takes at least ``MIN_SAMPLE_S`` (200 ms); the
``repeats`` samples of the two modes are interleaved (naive, batched,
naive, batched, ...) so slow stretches of the host hit both modes
alike.  Reported: per-sweep medians, ``speedup`` = naive median over
batched median, and each mode's spread ((max - min) / median over its
samples).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py             # full grid
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke     # CI gate

The full run writes ``BENCH_engine.json`` at the repo root and fails if
either experiment's speedup drops below 1.5x; ``--smoke`` shrinks the
grid and only requires batched to not be slower, which is the CI perf
gate (``repro bench check`` then compares it with the committed
baseline).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

from repro.algebra import AutomatonCache, compile_formula
from repro.congest.parallel import run_sweep
from repro.distributed import count_pipeline, decide_pipeline
from repro.graph import generators as gen
from repro.mso import formulas

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Minimum CPU seconds per timed sample of one mode.
MIN_SAMPLE_S = 0.2

# Shared state for the (module-level, hence picklable) sweep workers.
_CACHE: AutomatonCache = AutomatonCache(persist=False)


def _decide_formula():
    return formulas.h_free(gen.triangle())


def _count_formula():
    return formulas.triangle_assignment()


def _graph(params):
    return gen.random_bounded_treedepth(
        params["n"], depth=params["d"], seed=params["seed"] % 1000
    )


def decide_naive_worker(params):
    automaton = compile_formula(_decide_formula())  # cold per point
    out = decide_pipeline(automaton, _graph(params), params["d"],
                          engine="naive")
    return {"verdict": out.accepted, "rounds": out.total_rounds}


def decide_batched_worker(params):
    automaton, codec = _CACHE.automaton_with_codec(
        _decide_formula(), (), d=params["d"], labels=()
    )
    out = decide_pipeline(automaton, _graph(params), params["d"],
                          codec=codec, engine="batched")
    return {"verdict": out.accepted, "rounds": out.total_rounds}


def count_naive_worker(params):
    formula, variables = _count_formula()
    automaton = compile_formula(formula, variables)  # cold per point
    out = count_pipeline(automaton, _graph(params), params["d"],
                         engine="naive")
    return {"verdict": out.count, "rounds": out.total_rounds}


def count_batched_worker(params):
    formula, variables = _count_formula()
    automaton, codec = _CACHE.automaton_with_codec(
        formula, variables, d=params["d"], labels=()
    )
    out = count_pipeline(automaton, _graph(params), params["d"],
                         codec=codec, engine="batched")
    return {"verdict": out.count, "rounds": out.total_rounds}


EXPERIMENTS = {
    "E1": (decide_naive_worker, decide_batched_worker),
    "E6": (count_naive_worker, count_batched_worker),
}


def _grid(smoke):
    sizes = (12,) if smoke else (16, 32, 64)
    return [{"n": n, "d": 3} for n in sizes]


def _sample(worker, grid, inner):
    """CPU seconds per sweep over ``inner`` sweeps, and the last results."""
    results = None
    start = time.process_time()
    for _ in range(inner):
        results = run_sweep(worker, grid, seed=0)
    return (time.process_time() - start) / inner, results


def _spread(samples):
    return round((max(samples) - min(samples)) / statistics.median(samples), 4)


def run_experiment(name, grid, repeats):
    workers = dict(zip(("naive", "batched"), EXPERIMENTS[name]))
    # Pre-warm the cache, exactly what a prior process would have left
    # on disk, then calibrate on one sweep per mode.
    run_sweep(workers["batched"], grid, seed=0)
    inner = {
        mode: max(1, math.ceil(MIN_SAMPLE_S / max(_sample(worker, grid, 1)[0],
                                                1e-6)))
        for mode, worker in workers.items()
    }
    samples = {mode: [] for mode in workers}
    results = {}
    for _ in range(repeats):
        for mode, worker in workers.items():
            seconds, results[mode] = _sample(worker, grid, inner[mode])
            samples[mode].append(seconds)
    for a, b in zip(results["naive"], results["batched"]):
        if a.value != b.value:
            raise SystemExit(
                f"{name}: batched mode changed the answer at "
                f"{a.shard.params!r}: {a.value!r} != {b.value!r}"
            )
    naive = statistics.median(samples["naive"])
    batched = statistics.median(samples["batched"])
    return {
        "grid": [dict(point) for point in grid],
        "repeats": repeats,
        "inner": inner,
        "naive_seconds": round(naive, 4),
        "batched_seconds": round(batched, 4),
        "naive_spread": _spread(samples["naive"]),
        "batched_spread": _spread(samples["batched"]),
        "speedup": round(naive / batched, 2),
        "checks": [r.value for r in results["naive"]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small grid, lenient threshold (CI perf gate)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="interleaved samples per mode (median is "
                             "kept; default 5)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (full runs only; default "
                             "BENCH_engine.json at the repo root)")
    args = parser.parse_args(argv)

    threshold = 1.0 if args.smoke else 1.5
    repeats = args.repeats or 5
    grid = _grid(args.smoke)

    report = {
        "benchmark": "engine",
        "mode": "smoke" if args.smoke else "full",
        "method": "process_time, interleaved modes, median of samples "
                  f">= {MIN_SAMPLE_S}s",
        "threshold_speedup": threshold,
        "experiments": {},
    }
    failed = []
    for name in EXPERIMENTS:
        result = run_experiment(name, grid, repeats)
        report["experiments"][name] = result
        slow = result["speedup"] < threshold
        if slow:
            failed.append(name)
        print(f"{name}: naive {result['naive_seconds']}s "
              f"(spread {result['naive_spread']}), "
              f"batched {result['batched_seconds']}s "
              f"(spread {result['batched_spread']}), "
              f"speedup {result['speedup']}x, need >= {threshold}x "
              f"[{result['repeats']} samples of {result['inner']} sweeps; "
              f"{'SLOW' if slow else 'ok'}]")

    if not args.smoke or args.out:
        out = args.out or os.path.join(REPO_ROOT, "BENCH_engine.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")

    if failed:
        print(f"FAIL: {', '.join(failed)} below threshold")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
