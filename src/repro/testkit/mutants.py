"""The harness's own sensitivity check: a deliberately broken reference.

A differential oracle that never fires is indistinguishable from one that
cannot fire.  :func:`mutant_reference` is a drop-in replacement for
:func:`~repro.testkit.oracles.sequential_reference` whose ``optimize``
answer carries one planted off-by-one: Algorithm 1's dynamic-programming
tables (:func:`repro.algebra.engine.optimize`) with the glue-step update
reading ``w = w1 + w2 + 1`` instead of ``w = w1 + w2``.  The mutation is
*silent* — nothing raises, every state stays well-formed — it just
inflates the optimum by one per glue step, so

    differential_check(case, reference=mutant_reference)

must report ``verdict`` discrepancies on any optimize case whose forest
has at least one parent/child edge (two vertices suffice), and the
shrinker must carry such a failure down to a tiny graph.  The mutation
test in ``tests/test_testkit_mutation.py`` pins exactly that, which is
the evidence that the oracle, the shrinker, and the replay pipeline are
alive end to end.
"""

from __future__ import annotations

from typing import Optional

from ..algebra.cache import AutomatonCache
from .cases import Case
from .oracles import Reference, sequential_reference

__all__ = ["mutant_reference", "mutant_optimize_value"]


def mutant_optimize_value(case: Case, cache: AutomatonCache) -> Optional[int]:
    """The planted-off-by-one optimum for an ``optimize`` case.

    The mutated tables add 1 per glue step.  An n-vertex forest has
    exactly n - 1 glue steps (one per parent/child edge, one per extra
    root), and every candidate weight passes through all of them.  So the
    mutant optimum is the honest sequential one plus n - 1, or ``None``
    when no set qualifies.
    """
    n = case.graph.num_vertices()
    if n == 0:
        return None
    honest = sequential_reference(case, cache)
    if not honest.verdict:
        return None
    return honest.value + n - 1


def mutant_reference(case: Case, cache: AutomatonCache) -> Reference:
    """A reference with a silent off-by-one in the optimize glue tables.

    Non-``optimize`` workloads delegate to the honest reference, so the
    mutation check isolates the optimize oracle path.
    """
    if case.workload != "optimize":
        return sequential_reference(case, cache)
    value = mutant_optimize_value(case, cache)
    if value is None:
        return Reference(verdict=False)
    return Reference(verdict=True, value=value)
