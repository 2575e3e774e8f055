"""The repository's benchmark: cold and warm queries through ``repro.api``.

Run from the repository root::

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload warm-count --seed 3 --seconds 10
    python3 perfbench/run.py --workload cold-fo --trace 1

Each workload runs in its own process (``worker.py``) against the source
tree in ``src/``, with one client in a closed loop and the ``Session``
defaults.  Every answer is checked against ground truth computed with
``repro.graph.properties``; a wrong answer, an error, or a cache lookup
that contradicts the workload (a miss on a warm query, a hit on a cold
one) makes the run fail.

Query speed is reported as ``query_p50_ref`` and ``query_cpu_p50_ref``:
the median query time divided by the median time of a fixed loop run
just before each query (``query.reference_work``), because the speed of
a shared host drifts by up to half between runs.  The median seconds
(``query_s_p50``, ``query_cpu_s_p50``, ``queries_per_s``) are printed
beside them.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones, attributed from spans around the program's public
functions (see ``tracing.py``) and written to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKER_TIMEOUT_S = 170



def _units(section: str) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _program_env() -> Dict[str, str]:
    """The workload's environment: this tree's source, no shared state.

    ``REPRO_*`` settings are dropped and the on-disk automaton cache is
    disabled, so a cache warmed by earlier runs cannot warm a cold query.
    A fixed hash seed makes set iteration, and with it the materialized
    table counts, repeat exactly across runs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", REPRO_NO_CACHE="1")
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int
                 ) -> Dict[str, Any]:
    """Run one workload's worker and return its report.

    The worker gets a process group of its own, so a timeout also stops
    the cold-query child it may be waiting on.
    """
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), name, str(seed),
         str(seconds), str(trace), str(OUT)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_program_env(), cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(
                f"workload {name} exceeded {WORKER_TIMEOUT_S} s"
            ) from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        raise RuntimeError(f"workload {name} exited {proc.returncode}")
    return json.loads(lines[-1])


def _print_report(report: Dict[str, Any], seed: int, trace: int,
                  e2e_units: Dict[str, str], layer_units: Dict[str, str]
                  ) -> None:
    name = report["workload"]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}) ==")
    rows = [(k, report["e2e"][k], unit) for k, unit in e2e_units.items()]
    rows += [(k, v, "1/s" if k.endswith("per_s") else "s")
             for k, v in report["all_queries"].items()]
    if "query_s_p90" in report:
        rows.append(("query_s_p90", report["query_s_p90"], "s"))
    else:
        rows.append(("query_s_p90", "n/a", "(< 100 queries)"))
    rows += [
        ("timed_queries", report["timed_queries"], "count"),
        ("wrong_answers", report["wrong_answers"], "count"),
        ("error_ratio", report["error_ratio"], "ratio"),
        ("cache_violations", report["cache_violations"], "count"),
    ]
    if trace:
        rows += [(k, report["layers"][k], unit)
                 for k, unit in layer_units.items()]
    for key, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<28} {shown:>14} {unit}")
    for check in report.get("predictions", ()):
        verdict = "ok" if check["ok"] else "FAILED"
        print(f"  prediction: {check['prediction']}: {verdict}")
    if report.get("missing_boundaries"):
        print("  unattributed (boundary not found): "
              + ", ".join(report["missing_boundaries"]))
    for example in report["error_examples"]:
        print(f"  error: {example}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    e2e_units, layer_units = _units("end_to_end"), _units("per_layer")
    units = layer_units if args.trace else e2e_units
    correct = True
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        _print_report(report, args.seed, args.trace, e2e_units, layer_units)
        correct = correct and report["failed"] == 0 \
            and report["timed_queries"] > 0
        attempted += report["attempted"]
        failed += report["failed"]
        values = report["layers"] if args.trace else report["e2e"]
        prefix = "" if len(names) == 1 else f"{name}:"
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
