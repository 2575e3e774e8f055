"""Hash-consed state ids and the id-keyed transition tables.

Every :class:`~repro.algebra.automata.TreeAutomaton` interns its states
into dense integer ids and memoizes ``leaf`` / ``glue`` / ``forget`` in
id-keyed tables; the whole-table joins the distributed protocols replay
(``fold_decide``, ``merge_counts``, ``fold_forget_counts``) are memoized
on top.  These tests pin that the ids round-trip to canonical values,
that the memoized joins agree with the transition-by-transition
reference loops of :mod:`repro.algebra.engine`, and that the tables
survive pickling through the automaton cache.
"""

import pickle

import pytest

from repro.algebra import (
    ComplementAutomaton,
    base_structure,
    check,
    compile_formula,
    count,
    enumerate_symbol_choices,
    owned_items,
    run_states,
    symbol_for_assignment,
)
from repro.algebra import automata
from repro.algebra.cache import _table_entries
from repro.algebra.compiler import compile_with_singletons
from repro.graph import generators as gen
from repro.graph import properties
from repro.mso import formulas, vertex_set
from repro.treedepth import best_heuristic_forest


@pytest.fixture
def graph():
    return gen.random_bounded_treedepth(14, 3, seed=6)


@pytest.fixture
def forest(graph):
    return best_heuristic_forest(graph)


def _fold_run(automaton, graph, forest):
    """The decision replay through the memoized ``fold_decide`` join."""
    after = {}
    for v in forest.bottom_up_order():
        k = forest.depth_of(v)
        vertex_item, edge_items = owned_items(graph, forest, v)
        symbol = symbol_for_assignment(
            base_structure(graph, forest, v), automaton.scope,
            vertex_item, edge_items, {},
        )
        after[v] = automaton.fold_decide(
            k, automaton.leaf(symbol),
            tuple(after.pop(c) for c in forest.children(v)),
        )
    total = None
    for root in forest.roots():
        sid = after.pop(root)
        total = sid if total is None else automaton.glue(0, total, sid)
    return total


def _joined_count(automaton, graph, forest):
    """COUNT replay through ``merge_counts`` / ``fold_forget_counts``."""
    tables = {}
    for v in forest.bottom_up_order():
        k = forest.depth_of(v)
        vertex_item, edge_items = owned_items(graph, forest, v)
        leaf = {}
        for choice in enumerate_symbol_choices(
            base_structure(graph, forest, v), automaton.scope,
            vertex_item, edge_items,
        ):
            sid = automaton.leaf(choice.symbol)
            leaf[sid] = leaf.get(sid, 0) + 1
        table = tuple(leaf.items())
        for child in forest.children(v):
            table = automaton.merge_counts(k, table, tables.pop(child))
        tables[v] = automaton.fold_forget_counts(k, table)
    roots = forest.roots()
    combined = tables[roots[0]]
    for root in roots[1:]:
        combined = automaton.merge_counts(0, combined, tables[root])
    return sum(c for sid, c in combined if automaton.accepts(sid))


def test_id_round_trip(graph, forest):
    automaton = compile_formula(formulas.triangle_free())
    sid = run_states(automaton, graph, forest)
    assert 0 <= sid < automaton.num_classes()
    state = automaton.state_of(sid)
    # An independently compiled twin numbers the same run identically.
    twin = compile_formula(formulas.triangle_free())
    assert run_states(twin, graph, forest) == sid
    assert twin.state_of(sid) == state
    # The public, memoized acceptance agrees with the value-level hook
    # of the automaton that owns the ids (the complement delegates).
    assert automaton.accepts(sid) == (not automaton._inner._accepts(state))


def test_run_states_matches_state_level(graph, forest):
    reference = compile_formula(formulas.triangle_free())
    memoized = compile_formula(formulas.triangle_free())
    expected = run_states(reference, graph, forest)
    assert _fold_run(memoized, graph, forest) == expected
    # A second replay is served by the join memo and agrees.
    assert _fold_run(memoized, graph, forest) == expected


def test_check_matches_state_level(graph, forest):
    phi = formulas.triangle_free()
    expected = properties.count_triangles(graph) == 0
    assert check(phi, graph, forest) == expected
    automaton = compile_formula(phi)
    assert automaton.accepts(_fold_run(automaton, graph, forest)) == expected


def test_count_matches_state_level(graph, forest):
    formula, variables = formulas.triangle_assignment()
    expected = count(formula, graph, forest, variables)
    assert expected == 6 * properties.count_triangles(graph)
    automaton = compile_with_singletons(formula, variables)
    assert _joined_count(automaton, graph, forest) == expected
    # The reference loop on the warmed automaton still agrees.
    assert count(formula, graph, forest, variables,
                 automaton=automaton) == expected


def test_glue_and_forget_tables(graph, forest):
    automaton = compile_formula(formulas.triangle_free())
    first = run_states(automaton, graph, forest)  # populate the tables
    assert _table_entries(automaton) > 0
    # Re-running hits the tables, never changes the answers.
    before = _table_entries(automaton)
    assert run_states(automaton, graph, forest) == first
    assert _table_entries(automaton) == before


def test_pickle_round_trip(graph, forest):
    automaton = compile_formula(formulas.triangle_free())
    expected = run_states(automaton, graph, forest)
    clone = pickle.loads(pickle.dumps(automaton))
    # The clone keeps the learned tables and the id assignment.
    assert _table_entries(clone) == _table_entries(automaton)
    assert clone.num_classes() == automaton.num_classes()
    assert run_states(clone, graph, forest) == expected
    assert _table_entries(clone) == _table_entries(automaton)


def test_digest_memoizes_identical_subtrees(graph, forest):
    formula, variables = formulas.triangle_assignment()
    automaton = compile_with_singletons(formula, variables)
    _joined_count(automaton, graph, forest)
    symbol = next(iter(automaton._leaf_table))
    k, leaf = symbol.depth, automaton.leaf(symbol)
    table = ((leaf, 2),)
    folded = automaton.fold_forget_counts(k, table)
    entries = automaton.table_entries()
    # An equal (not identical) table hits the memo: same object back,
    # no new table entries.
    assert automaton.fold_forget_counts(k, ((leaf, 2),)) is folded
    assert automaton.table_entries() == entries
    # The counts are part of the key, not only the state ids.
    assert automaton.fold_forget_counts(k, ((leaf, 3),)) is not folded


def test_num_classes_shared_with_inner(graph, forest):
    inner = compile_formula(formulas.triangle_free())
    negated = ComplementAutomaton(inner.scope, inner)
    sid = run_states(negated, graph, forest)
    # The complement adds no id space or tables of its own.
    assert negated.num_classes() == inner.num_classes()
    assert negated.table_entries() == 0
    assert negated.state_of(sid) == inner.state_of(sid)
    assert negated.accepts(sid) != inner.accepts(sid)


def test_join_memo_is_bounded(graph, forest, monkeypatch):
    formula, variables = formulas.triangle_assignment()
    expected = 6 * properties.count_triangles(graph)
    monkeypatch.setattr(automata, "JOIN_MEMO_LIMIT", 4)
    automaton = compile_with_singletons(formula, variables)
    for _ in range(2):
        # An emptied memo only costs recomputation, never an answer.
        assert _joined_count(automaton, graph, forest) == expected
        assert len(automaton._joins) <= 4
        assert len(automaton._digests) <= 2 * 4


def test_join_memo_is_not_persisted(graph, forest):
    formula, variables = formulas.triangle_assignment()
    automaton = compile_with_singletons(formula, variables)
    expected = _joined_count(automaton, graph, forest)
    entries = automaton.table_entries()
    assert automaton._joins
    clone = pickle.loads(pickle.dumps(automaton))
    assert not clone._joins and not clone._digests
    assert clone.table_entries() == entries
    assert _joined_count(clone, graph, forest) == expected


def test_optimize_unaffected(graph, forest):
    """Sequential optimize runs the reference loops over state ids."""
    from repro.algebra import optimize

    s = vertex_set("S")
    phi = formulas.independent_set(s)
    plain = compile_formula(phi, (s,))
    result = optimize(phi, graph, forest, s, maximize=True, automaton=plain)
    assert result.value is not None
