"""Unit tests for individual automata and symbol machinery."""

import pytest

from repro.algebra import (
    BaseStructure,
    BaseSymbol,
    ComplementAutomaton,
    ConstAutomaton,
    EdgeWitnessAutomaton,
    GraphDegreesAutomaton,
    NonEmptyAutomaton,
    ProductAutomaton,
    ProjectionAutomaton,
    SingletonAutomaton,
    base_structure,
    enumerate_symbol_choices,
    extend_symbol,
    owned_items,
    symbol_for_assignment,
)
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.mso import Sort, Var, vertex_set
from repro.treedepth import EliminationForest


def chain_forest():
    # Path 0-1-2 with elimination chain 0 -> 1 -> 2.
    return EliminationForest({0: None, 1: 0, 2: 1})


def make_symbol(depth, anc_edges, vbits=(), ebits=None, labels=()):
    structure = BaseStructure(
        depth=depth,
        anc_edges=tuple(anc_edges),
        vlabels=frozenset(labels),
        elabels=tuple((p, frozenset()) for p in anc_edges),
    )
    ebits = ebits or {}
    return BaseSymbol(
        structure=structure,
        vbits=frozenset(vbits),
        ebits=tuple((p, frozenset(ebits.get(p, ()))) for p in anc_edges),
    )


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------

def test_base_structure_from_graph():
    g = gen.path(3)
    forest = chain_forest()
    s2 = base_structure(g, forest, 2)
    assert s2.depth == 3
    assert s2.anc_edges == (2,)  # edge to vertex 1 at position 2
    s0 = base_structure(g, forest, 0)
    assert s0.depth == 1 and s0.anc_edges == ()


def test_owned_items():
    g = gen.path(3)
    forest = chain_forest()
    v, edges = owned_items(g, forest, 2)
    assert v == 2
    assert edges == [(2, (1, 2))]


def test_symbol_for_assignment_sets_bits():
    g = gen.path(3)
    forest = chain_forest()
    structure = base_structure(g, forest, 2)
    v, edges = owned_items(g, forest, 2)
    s = Var("S", Sort.VERTEX_SET)
    m = Var("M", Sort.EDGE_SET)
    symbol = symbol_for_assignment(
        structure, (s, m), v, edges,
        {s: frozenset({2}), m: frozenset({(1, 2)})},
    )
    assert symbol.vbits == {0}
    assert symbol.edge_bits_at(2) == {1}


def test_enumerate_symbol_choices_counts():
    g = gen.path(3)
    forest = chain_forest()
    structure = base_structure(g, forest, 2)
    v, edges = owned_items(g, forest, 2)
    s = Var("S", Sort.VERTEX_SET)
    m = Var("M", Sort.EDGE_SET)
    choices = list(enumerate_symbol_choices(structure, (s, m), v, edges))
    # vertex in/out of S x edge in/out of M.
    assert len(choices) == 4
    chosen_sets = {tuple(c.chosen) for c in choices}
    assert len(chosen_sets) == 4


def test_extend_symbol_vertex_and_edge():
    symbol = make_symbol(3, (1, 2))
    vertex_exts = list(extend_symbol(symbol, 0, Sort.VERTEX_SET))
    assert len(vertex_exts) == 2
    edge_exts = list(extend_symbol(symbol, 0, Sort.EDGE_SET))
    assert len(edge_exts) == 4  # 2 ancestor-edge slots


# ----------------------------------------------------------------------
# Atomic automata, driven by hand
# ----------------------------------------------------------------------

def run_chain(automaton, symbols):
    """Run a chain graph: deepest symbol first; each is glued then forgotten."""
    state = None
    for depth in range(len(symbols), 0, -1):
        sym = symbols[depth - 1]
        leaf = automaton.leaf(sym)
        if state is None:
            state = leaf
        else:
            state = automaton.glue(depth, state, leaf)
        state = automaton.forget(depth, state)
    return state


def test_singleton_automaton():
    s = Var("S", Sort.VERTEX_SET)
    aut = SingletonAutomaton((s,), 0)
    symbols = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(0,))]
    state = run_chain(aut, symbols)
    assert aut.accepts(state)
    both = [make_symbol(1, (), vbits=(0,)), make_symbol(2, (1,), vbits=(0,))]
    assert not aut.accepts(run_chain(aut, both))
    none = [make_symbol(1, ()), make_symbol(2, (1,))]
    assert not aut.accepts(run_chain(aut, none))


def test_edge_witness_adjacency():
    x = Var("X", Sort.VERTEX_SET)
    y = Var("Y", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((x, y), x=0, y=1)
    # Chain 0-1: vertex 1 (deeper) in X, vertex 0 in Y, edge present.
    symbols = [make_symbol(1, (), vbits=(1,)), make_symbol(2, (1,), vbits=(0,))]
    assert aut.accepts(run_chain(aut, symbols))
    # No edge between them (anc_edges empty).
    no_edge = [make_symbol(1, (), vbits=(1,)), make_symbol(2, (), vbits=(0,))]
    assert not aut.accepts(run_chain(aut, no_edge))
    # Edge present but bits on the same endpoint only.
    same = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(0, 1))]
    assert not aut.accepts(run_chain(aut, same))


def test_edge_witness_with_filter():
    e = Var("E", Sort.EDGE_SET)
    x = Var("X", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((e, x), x=1, y=None, edge_filter=0)
    # Edge in E, deeper endpoint in X.
    hit = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(1,), ebits={1: (0,)})]
    assert aut.accepts(run_chain(aut, hit))
    # Edge not in E.
    miss = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(1,))]
    assert not aut.accepts(run_chain(aut, miss))
    # Edge in E, ancestor endpoint in X (resolved at the ancestor's forget).
    anc = [make_symbol(1, (), vbits=(1,)), make_symbol(2, (1,), ebits={1: (0,)})]
    assert aut.accepts(run_chain(aut, anc))


def test_graph_degrees_automaton():
    aut = GraphDegreesAutomaton((), frozenset({0, 1}), cap=2)
    # Chain 0-1-2 (path): middle vertex has degree 2 -> violated.
    symbols = [
        make_symbol(1, ()),
        make_symbol(2, (1,)),
        make_symbol(3, (2,)),
    ]
    assert not aut.accepts(run_chain(aut, symbols))
    # Single edge: both endpoints degree 1 -> fine.
    ok = [make_symbol(1, ()), make_symbol(2, (1,))]
    assert aut.accepts(run_chain(aut, ok))


def test_pending_glue_boundary_mismatch_raises():
    x = Var("X", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((x,), x=0, y=None)
    s1 = aut.leaf(make_symbol(2, (1,)))
    s2 = aut.leaf(make_symbol(3, (1,)))
    with pytest.raises(ReproError):
        aut.glue(2, s1, s2)


def test_pending_glue_double_base_raises():
    x = Var("X", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((x,), x=0, y=None)
    s1 = aut.leaf(make_symbol(2, (1,)))
    with pytest.raises(ReproError):
        aut.glue(2, s1, s1)


# ----------------------------------------------------------------------
# Composites
# ----------------------------------------------------------------------

def test_product_and_complement():
    t = ConstAutomaton((), True)
    f = ConstAutomaton((), False)
    sym = make_symbol(1, ())
    both = ProductAutomaton((), [t, f], conjunctive=True)
    either = ProductAutomaton((), [t, f], conjunctive=False)
    s_both = both.forget(1, both.leaf(sym))
    s_either = either.forget(1, either.leaf(sym))
    assert not both.accepts(s_both)
    assert either.accepts(s_either)
    neg = ComplementAutomaton((), f)
    assert neg.accepts(neg.forget(1, neg.leaf(sym)))


def test_product_requires_children():
    with pytest.raises(ReproError):
        ProductAutomaton((), [], conjunctive=True)


def test_projection_scope_discipline():
    s = vertex_set("S")
    inner = NonEmptyAutomaton((s,), 0)
    proj = ProjectionAutomaton(inner, s)
    assert proj.scope == ()
    wrong = vertex_set("T")
    with pytest.raises(ReproError):
        ProjectionAutomaton(inner, wrong)


def test_projection_exists_nonempty():
    s = vertex_set("S")
    inner = NonEmptyAutomaton((s,), 0)
    proj = ProjectionAutomaton(inner, s)
    sym = make_symbol(1, ())
    state = proj.forget(1, proj.leaf(sym))
    assert proj.accepts(state)  # some subset of one vertex is nonempty


def test_intern_and_num_classes():
    """States are hash-consed: one id per distinct value, dense from 0."""
    aut = ConstAutomaton((), True)
    sym = make_symbol(1, ())
    first = aut.leaf(sym)
    assert aut.num_classes() == 1
    assert aut.leaf(sym) == first == 0
    # Every ConstAutomaton transition yields the value 0: still one class.
    assert aut.forget(1, aut.glue(1, first, first)) == first
    assert aut.num_classes() == 1
    assert aut.state_of(first) == 0
