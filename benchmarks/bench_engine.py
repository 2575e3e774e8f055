"""Engine benchmark: the cold first query against the warm repeat query.

Replays the E1 (decision rounds vs n) and E6 (counting) workloads in
two modes on the one CONGEST scheduler:

* ``cold`` — a fresh ``compile_formula`` per grid point, so no
  transition table or class id is reused between points;
* ``warm`` — one shared, pre-warmed
  :class:`repro.algebra.cache.AutomatonCache` (compiled automata with
  warm id-keyed transition tables and join memos, stable class ids).

Both modes run the exact same grid through
:func:`repro.congest.parallel.run_sweep`, so per-point seeds are the
sweep's deterministic shard seeds.  Verdicts *and* rounds are
cross-checked between modes (the script exits non-zero if they differ)
and recorded as ``checks``, which ``repro bench check`` compares with the
committed baseline.

Method: CPU time (``time.process_time``), so other processes on a
shared host do not count.  One *sample* of a mode runs the whole grid
``inner`` times, with ``inner`` calibrated per mode so every sample
takes at least ``MIN_SAMPLE_S`` (200 ms); the
``repeats`` samples of the two modes are interleaved (cold, warm,
cold, warm, ...) so slow stretches of the host hit both modes alike.
Reported: per-sweep medians (``cold_seconds``, ``warm_seconds``) and
each mode's spread ((max - min) / median over its samples).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py             # full grid
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke     # CI gate

The full run writes ``BENCH_engine.json`` at the repo root; ``--smoke``
runs a one-point grid whose ``--out`` file ``repro bench check`` gates
against the committed smoke baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

from repro.algebra import (
    AutomatonCache,
    compile_formula,
    compile_with_singletons,
)
from repro.congest.parallel import run_sweep
from repro.distributed import count_pipeline, decide_pipeline
from repro.graph import generators as gen
from repro.mso import formulas
from repro.runconfig import RunConfig

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


def decide_cold_worker(params):
    automaton = compile_formula(_decide_formula())  # cold per point
    out = decide_pipeline(automaton, _graph(params), params["d"])
    return {"verdict": out.accepted, "rounds": out.total_rounds}


def decide_warm_worker(params):
    automaton, codec = _CACHE.automaton_with_codec(
        _decide_formula(), (), d=params["d"], labels=()
    )
    out = decide_pipeline(automaton, _graph(params), params["d"],
                          config=RunConfig(codec=codec))
    return {"verdict": out.accepted, "rounds": out.total_rounds}


def count_cold_worker(params):
    formula, variables = _count_formula()
    automaton = compile_with_singletons(formula, variables)  # cold per point
    out = count_pipeline(automaton, _graph(params), params["d"])
    return {"verdict": out.count, "rounds": out.total_rounds}


def count_warm_worker(params):
    formula, variables = _count_formula()
    automaton, codec = _CACHE.automaton_with_codec(
        formula, variables, d=params["d"], labels=(), singletons=True
    )
    out = count_pipeline(automaton, _graph(params), params["d"],
                         config=RunConfig(codec=codec))
    return {"verdict": out.count, "rounds": out.total_rounds}


EXPERIMENTS = {
    "E1": (decide_cold_worker, decide_warm_worker),
    "E6": (count_cold_worker, count_warm_worker),
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
    workers = dict(zip(("cold", "warm"), EXPERIMENTS[name]))
    # Pre-warm the cache, exactly what a prior process would have left
    # on disk, then calibrate on one sweep per mode.
    run_sweep(workers["warm"], grid, seed=0)
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
    for a, b in zip(results["cold"], results["warm"]):
        if a.value != b.value:
            raise SystemExit(
                f"{name}: warm mode changed the answer at "
                f"{a.shard.params!r}: {a.value!r} != {b.value!r}"
            )
    return {
        "grid": [dict(point) for point in grid],
        "repeats": repeats,
        "inner": inner,
        "cold_seconds": round(statistics.median(samples["cold"]), 4),
        "warm_seconds": round(statistics.median(samples["warm"]), 4),
        "cold_spread": _spread(samples["cold"]),
        "warm_spread": _spread(samples["warm"]),
        "checks": [r.value for r in results["cold"]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="one-point grid (the CI gate's input)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="interleaved samples per mode (median is "
                             "kept; default 5)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (full runs only; default "
                             "BENCH_engine.json at the repo root)")
    args = parser.parse_args(argv)

    repeats = args.repeats or 5
    grid = _grid(args.smoke)

    report = {
        "benchmark": "engine",
        "mode": "smoke" if args.smoke else "full",
        "method": "process_time, interleaved modes, median of samples "
                  f">= {MIN_SAMPLE_S}s",
        "experiments": {},
    }
    for name in EXPERIMENTS:
        result = run_experiment(name, grid, repeats)
        report["experiments"][name] = result
        print(f"{name}: cold {result['cold_seconds']}s "
              f"(spread {result['cold_spread']}), "
              f"warm {result['warm_seconds']}s "
              f"(spread {result['warm_spread']}), "
              f"cold/warm "
              f"{result['cold_seconds'] / result['warm_seconds']:.2f}x "
              f"[{result['repeats']} samples of {result['inner']} sweeps]")

    if not args.smoke or args.out:
        out = args.out or os.path.join(REPO_ROOT, "BENCH_engine.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
