"""Workload definitions: seeded inputs, the queries, and ground truth.

Every workload is a cycle of (formula, graph) pairs at treedepth promise
d = 3.  Each graph's seed is derived from the run's ``--seed``, so the
same seed gives the same inputs; the program only receives the graphs.
Each cycle contains both verdicts: ``edge_prob = 0`` draws a tree (no
triangle, 2-colorable), ``edge_prob = 0.5`` draws contain triangles for
every seed (checked at generation time).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, NamedTuple, Tuple

D = 3


class Pair(NamedTuple):
    formula: str
    family: str  # "random" or "two-branch", see make_graph
    n: int
    edge_prob: float


class Workload(NamedTuple):
    kind: str    # "decide" or "count"
    cold: bool   # a fresh interpreter and an empty cache per query
    pairs: Tuple[Pair, ...]


# The automaton work of a query grows with the variety of subtrees the
# graph shows.  On random_bounded_treedepth draws at n = 10-24 the shape
# of the elimination tree is itself random, and between seeds the cost
# of a cold triangle_free query varies 15x (0.15-19 s) and that of a
# count 3x, so no run that fits in a minute gives a steady median.
# cold-fo and warm-count therefore draw from "two-branch" graphs, whose
# tree shape is fixed and whose edges are random: there the cost varies
# about 1.5x.  warm-decide's cost is set by n and m alone, so it keeps
# random_bounded_treedepth.  Each cycle holds one cheaper tree and, in
# cold-fo, one slower k_colorable(2) query, so the median falls among
# the queries of one kind rather than between two.
WORKLOADS: Dict[str, Workload] = {
    "cold-fo": Workload("decide", True, (
        Pair("triangle_free", "two-branch", 21, 0.5),
        Pair("triangle_free", "two-branch", 21, 0.5),
        Pair("triangle_free", "two-branch", 21, 0.0),
        Pair("k_colorable_2", "two-branch", 21, 0.5),
        Pair("triangle_free", "two-branch", 21, 0.5),
        Pair("triangle_free", "two-branch", 21, 0.5),
    )),
    "warm-decide": Workload("decide", False, (
        Pair("h_free_triangle", "random", 2048, 0.5),
        Pair("h_free_triangle", "random", 2048, 0.0),
        Pair("h_free_triangle", "random", 2048, 0.5),
    )),
    "warm-count": Workload("count", False, (
        Pair("triangle_count", "two-branch", 21, 0.5),
        Pair("triangle_count", "two-branch", 21, 0.5),
        Pair("triangle_count", "two-branch", 21, 0.0),
        Pair("triangle_count", "two-branch", 21, 0.5),
    )),
}


def graph_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def make_graph(pair: Pair, seed: int):
    """The pair's graph; every edge joins an ancestor and a descendant.

    ``random`` is ``random_bounded_treedepth(n, 3, edge_prob, seed)``.
    ``two-branch`` fixes the elimination tree instead: root 0, children
    1 and 2, and (n - 3) / 2 leaves under each child, numbered level by
    level; tree edges are kept and each leaf is also joined to the root
    with probability ``edge_prob``.
    """
    from repro.graph import Graph, generators

    if pair.family == "random":
        return generators.random_bounded_treedepth(
            pair.n, D, pair.edge_prob, seed
        )
    rng = random.Random(seed)
    graph = Graph(range(pair.n), [(0, 1), (0, 2)])
    for leaf in range(3, pair.n):
        graph.add_edge(1 + (leaf - 3) % 2, leaf)
        if rng.random() < pair.edge_prob:
            graph.add_edge(0, leaf)
    return graph


def ground_truth(formula: str, graph) -> Any:
    """The answer, computed independently of the automaton pipeline."""
    from repro.graph import generators, properties

    if formula == "triangle_free":
        return not properties.has_subgraph(graph, generators.triangle())
    if formula == "k_colorable_2":
        return properties.is_k_colorable(graph, 2)
    if formula == "h_free_triangle":
        # has_subgraph enumerates O(n^3) embeddings on a triangle-free
        # graph (about 10 s at n = 2048); counting is O(m * degree).
        return properties.count_triangles(graph) == 0
    if formula == "triangle_count":
        return 6 * properties.count_triangles(graph)  # ordered triples
    raise ValueError(f"unknown formula {formula!r}")


def make_inputs(workload: Workload, seed: int) -> List[Tuple[Any, Any]]:
    """(graph, expected answer) per pair, with both verdicts present."""
    inputs = []
    for index, pair in enumerate(workload.pairs):
        graph = make_graph(pair, graph_seed(seed, index))
        inputs.append((graph, ground_truth(pair.formula, graph)))
    verdicts = {bool(expected) for _, expected in inputs}
    if verdicts != {True, False}:
        raise RuntimeError(
            f"seed {seed}: the graph set does not contain both verdicts"
        )
    return inputs


def formula(name: str):
    from repro.graph import generators
    from repro.mso import formulas

    if name == "triangle_free":
        return formulas.triangle_free()
    if name == "k_colorable_2":
        return formulas.k_colorable(2)
    if name == "h_free_triangle":
        return formulas.h_free(generators.triangle())
    if name == "triangle_count":
        return formulas.triangle_assignment()[0]
    raise ValueError(f"unknown formula {name!r}")


def answer(kind: str, result) -> Any:
    return result.verdict if kind == "decide" else result.count


def graph_to_json(graph) -> Dict[str, Any]:
    return {"n": graph.num_vertices(), "edges": [list(e) for e in graph.edges()]}


def graph_from_json(data: Dict[str, Any]):
    from repro.graph import Graph

    return Graph(range(data["n"]), [tuple(e) for e in data["edges"]])


def table_entries(cache) -> int:
    return sum(entry["table_entries"] for entry in cache.stats()["entries"])
