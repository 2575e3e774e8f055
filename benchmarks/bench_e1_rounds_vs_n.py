"""E1 — Theorem 6.1's headline: decision round count is independent of n.

Series: for d in {2, 3} and growing n, the total CONGEST rounds of the
full pipeline (Algorithm 2 + decision convergecast) for two catalog
formulas.  Expected shape: each (d, formula) row is *flat* in n, while the
graph keeps growing.
"""

from repro.algebra import compile_formula
from repro.distributed import decide_pipeline
from repro.graph import generators as gen
from repro.mso import formulas
from repro.obs import Tracer
from repro.runconfig import RunConfig

from reporting import record_phase_table, record_table

SIZES = (16, 32, 64, 128)
# Formulas whose automata stay small at boundary size 2^d (see E13 for the
# ablation: literal quantifier chains blow up doubly-exponentially).
FORMULAS = {
    "triangle-free": formulas.h_free(gen.triangle()),
    "acyclic": formulas.acyclic(),
}


def run_series():
    rows = []
    for d in (2, 3):
        for name, formula in FORMULAS.items():
            automaton = compile_formula(formula, ())
            rounds = []
            for n in SIZES:
                g = gen.random_bounded_treedepth(n, depth=d, seed=n)
                outcome = decide_pipeline(automaton, g, d=d)
                assert not outcome.treedepth_exceeded
                rounds.append(outcome.total_rounds)
            rows.append((d, name) + tuple(rounds) + (
                "FLAT" if len(set(rounds)) == 1 else "varies",
            ))
    return rows


def test_e1_rounds_vs_n(benchmark):
    rows = run_series()
    record_table(
        "E1",
        "decision rounds vs n (expect flat rows)",
        ("d", "formula") + tuple(f"n={n}" for n in SIZES) + ("shape",),
        rows,
    )
    # All round counts must be independent of n.
    for row in rows:
        assert row[-1] == "FLAT", row

    automaton = compile_formula(formulas.h_free(gen.triangle()), ())
    g = gen.random_bounded_treedepth(64, depth=3, seed=64)
    tracer = Tracer(events=False)
    decide_pipeline(automaton, g, d=3, config=RunConfig(trace=tracer))
    record_phase_table(
        "E1", "per-phase rounds/bits (triangle-free, n=64, d=3)", tracer
    )
    benchmark(lambda: decide_pipeline(automaton, g, d=3))
