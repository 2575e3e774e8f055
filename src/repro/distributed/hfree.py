"""Corollary 7.3: H-freeness on bounded expansion in O(log n) rounds.

Pipeline (the paper's proof, executable):

1. a low treedepth decomposition with parameter p = |V(H)| (Theorem 7.2;
   simulated per DESIGN §4 — we charge the O(log n) rounds its distributed
   construction costs, with the constant configurable);
2. for every index set I of at most p parts, decide H-freeness of
   G_I = G[∪_{i∈I} V_i] with the Theorem 6.1 machinery — every connected
   component of G_I has treedepth at most the decomposition's bound, and
   any copy of connected H lies inside one component of one G_I;
3. reject iff some run finds a copy.

Round accounting: runs for different components of one G_I are genuinely
parallel (disjoint vertex sets), so one I costs the max over its
components; the (f(p) choose <=p) = O_p(1) index sets are multiplexed
sequentially, so the total is their sum — still O_p(log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..algebra import compile_formula
from ..errors import ProtocolError
from ..expansion import LowTreedepthDecomposition, union_graph
from ..graph import Graph
from ..mso import formulas
from ..runconfig import RunConfig
from .model_checking import decide_pipeline


@dataclass
class HFreenessResult:
    """Outcome of the Corollary 7.3 pipeline."""

    h_free: bool
    decomposition_rounds: int
    checking_rounds: int
    subsets_checked: int
    runs: int
    max_message_bits: int

    @property
    def total_rounds(self) -> int:
        return self.decomposition_rounds + self.checking_rounds


def decide_h_freeness(
    graph: Graph,
    pattern: Graph,
    decomposition: LowTreedepthDecomposition,
    decomposition_round_constant: int = 1,
    budget: Optional[int] = None,
) -> HFreenessResult:
    """Decide whether ``graph`` is ``pattern``-free using ``decomposition``.

    ``pattern`` must be connected (the corollary's hypothesis).
    ``decomposition_round_constant`` scales the charged O(log n) cost of
    the distributed decomposition (Theorem 7.2's hidden constant).
    """
    if not pattern.is_connected():
        raise ProtocolError("Corollary 7.3 requires a connected pattern H")
    p = pattern.num_vertices()
    if decomposition.p < p:
        raise ProtocolError(
            f"decomposition parameter {decomposition.p} < |V(H)| = {p}"
        )
    n = graph.num_vertices()
    decomposition_rounds = decomposition_round_constant * max(
        1, math.ceil(math.log2(max(2, n)))
    )
    formula = formulas.contains_subgraph(pattern)
    automaton = compile_formula(formula, ())
    config = RunConfig(budget=budget)

    # Treedepth budget for the per-union runs: the elimination-tree
    # protocol needs d with 2^d >= depth; td(G_I) <= bound, so d = bound
    # always suffices (Algorithm 2's d is a promise, not a measurement).
    checking_rounds = 0
    runs = 0
    max_bits = 0
    found = False
    for index_set in decomposition.union_subsets(p):
        sub = union_graph(graph, decomposition, index_set)
        if sub.num_vertices() == 0:
            continue
        bound = decomposition.treedepth_bound(len(index_set))
        subset_rounds = 0
        for component in sub.connected_components():
            piece = sub.induced_subgraph(component)
            if piece.num_vertices() < p:
                continue  # too small to host H; a real run would accept
            # Doubling search on the promise d: Algorithm 2 costs O(4^d)
            # rounds, so starting at d=1 and growing until the protocol
            # stops reporting "td > d" keeps the cost O(4^{td}) instead of
            # O(4^{bound}); the failed attempts' rounds are charged too.
            outcome = None
            attempt_rounds = 0
            for d in range(1, bound + 1):
                outcome = decide_pipeline(automaton, piece, d=d, config=config)
                attempt_rounds += outcome.total_rounds
                if not outcome.treedepth_exceeded:
                    break
            runs += 1
            assert outcome is not None
            if outcome.treedepth_exceeded:
                raise ProtocolError(
                    "low treedepth decomposition guarantee violated: "
                    f"component of parts {index_set} has treedepth > {bound}"
                )
            subset_rounds = max(subset_rounds, attempt_rounds)
            max_bits = max(max_bits, outcome.max_message_bits)
            if outcome.accepted:  # the automaton decides contains-H
                found = True
        checking_rounds += subset_rounds
    return HFreenessResult(
        h_free=not found,
        decomposition_rounds=decomposition_rounds,
        checking_rounds=checking_rounds,
        subsets_checked=sum(1 for _ in decomposition.union_subsets(p)),
        runs=runs,
        max_message_bits=max_bits,
    )
