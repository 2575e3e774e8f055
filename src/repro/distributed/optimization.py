"""Theorem 6.1 (optimization): distributed max-φ / min-φ in CONGEST.

Bottom-up phase (Lemma 4.6): every node enumerates the intersections of
the free set variable with its *owned* items (itself + its ancestor
edges), builds its leaf OPT table, merges its children's tables, and
streams the forgotten table to its parent **one (class id, weight) entry
per round** — this is exactly the paper's "each step requires |𝒞| rounds"
accounting, realized by the CONGEST budget instead of assumed.

Top-down phase (the ARGOPT walk of Algorithm 1, lines 11-26): the root
picks the best accepting class; every node, told its subtree's optimal
class, replays its locally stored back-pointers to recover which of its
owned items are selected and which class each child must realize.

Every node ends up knowing exactly its own part of the optimum solution —
the "S is selected" output format of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Generator, List, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.symbols import BaseSymbol, SymbolChoice, enumerate_symbol_choices
from ..congest import Inbox, ItemCollector, NodeContext, node_program
from ..errors import ProtocolError
from ..graph import Graph, Vertex, canonical_edge
from ..runconfig import RunConfig
from .model_checking import ClassCodec, local_base_symbol, run_checking


@dataclass
class NodeSelection:
    """A node's local slice of the optimal solution."""

    feasible: bool
    vertex_selected: bool = False
    edge_positions: Tuple[int, ...] = ()
    optimum: Optional[int] = None  # set at the root only


def better(sign: int, candidate: int, incumbent: Optional[int]) -> bool:
    """Is ``candidate`` strictly better than ``incumbent`` (None: no entry)?"""
    return incumbent is None or sign * candidate > sign * incumbent


def leaf_opt_table(
    ctx: NodeContext,
    automaton: TreeAutomaton,
    base: BaseSymbol,
    owned_edges: List[Tuple[int, Tuple[Vertex, Vertex]]],
    sign: int,
) -> Tuple[Dict[int, int], Dict[int, SymbolChoice]]:
    """A node's leaf OPT table over the choices of its owned items.

    Maps each leaf state to the best weight of a choice reaching it, and
    to that choice; the first strictly better choice wins.
    """
    edge_weights: Dict[int, int] = dict(ctx.input.get("edge_weights", {}))

    def weight_of(chosen: Tuple[Any, ...]) -> int:
        total = 0
        for item in chosen:
            if isinstance(item, tuple):
                pos = next(p for p, e in owned_edges if e == item)
                total += edge_weights.get(pos, 1)
            else:
                total += ctx.input.get("weight", 1)
        return total

    table: Dict[int, int] = {}
    leaf_choice: Dict[int, SymbolChoice] = {}
    for choice in enumerate_symbol_choices(
        base.structure, automaton.scope, ctx.node, owned_edges
    ):
        state = automaton.leaf(choice.symbol)
        w = weight_of(choice.chosen[0])
        if better(sign, w, table.get(state)):
            table[state] = w
            leaf_choice[state] = choice
    return table, leaf_choice


def optimization_program(
    automaton: TreeAutomaton,
    codec: ClassCodec,
    maximize: bool,
):
    """Node program factory for the optimization protocol.

    OPT tables are merged through the automaton's digest-memoized
    :meth:`~TreeAutomaton.merge_opt` / :meth:`~TreeAutomaton.fold_forget_opt`
    joins over state ids, fed in class-id order so ties break the same
    way on every node; back-pointers and the ARGOPT walk operate on the
    same ids.
    """
    sign = 1 if maximize else -1

    @node_program
    def program(ctx: NodeContext) -> Generator[None, Inbox, NodeSelection]:
        depth: int = ctx.input["depth"]
        children: Tuple[Vertex, ...] = tuple(ctx.input["children"])
        parent: Optional[Vertex] = ctx.input["parent"]
        bag: Tuple[Vertex, ...] = tuple(ctx.input["bag"])
        positions: Tuple[int, ...] = tuple(ctx.input["anc_edge_positions"])

        # -- local leaf table over owned-item choices ---------------------
        base = local_base_symbol(ctx, automaton.scope)
        owned_edges = [
            (pos, canonical_edge(bag[pos - 1], ctx.node)) for pos in positions
        ]
        table, leaf_choice = leaf_opt_table(ctx, automaton, base, owned_edges, sign)

        # -- receive children's tables (streamed) -------------------------
        with ctx.phase("table-streaming"):
            collector = ItemCollector("opt", children)
            while not collector.complete:
                inbox = yield
                collector.absorb(inbox)
            glue_back: List[Tuple[Vertex, Dict[int, Tuple[int, int]]]] = []
            for child in children:
                child_table = {
                    codec.decode(class_id): weight
                    for class_id, weight in collector.items_from(child)
                }
                merged_pairs, back_pairs = automaton.merge_opt(
                    depth,
                    tuple(
                        (s1, table[s1])
                        for s1 in sorted(table, key=codec.encode)
                    ),
                    tuple(
                        (s2, child_table[s2])
                        for s2 in sorted(child_table, key=codec.encode)
                    ),
                    sign,
                )
                table = dict(merged_pairs)
                glue_back.append((child, dict(back_pairs)))

            forget_pairs, fback_pairs = automaton.fold_forget_opt(
                depth,
                tuple((s, table[s]) for s in sorted(table, key=codec.encode)),
                sign,
            )
            forget_table: Dict[int, int] = dict(forget_pairs)
            forget_back: Dict[int, int] = dict(fback_pairs)

            # -- stream the forgotten table up ------------------------------
            if parent is not None:
                entries = [
                    (codec.encode(s), w)
                    for s, w in sorted(
                        forget_table.items(), key=lambda kv: codec.encode(kv[0])
                    )
                ]
                for class_id, weight in entries:
                    ctx.send(parent, ("opt", (class_id, weight)))
                    yield
                ctx.send(parent, ("opt/end", None))

        # -- ARGOPT: top-down class pick + back-pointer replay -------------
        with ctx.phase("argopt"):
            optimum: Optional[int] = None
            if parent is not None:
                my_class: Optional[int] = None
                infeasible = False
                while my_class is None and not infeasible:
                    inbox = yield
                    if parent in inbox:
                        payload = inbox[parent]
                        if isinstance(payload, tuple) and payload:
                            if payload[0] == "pick":
                                my_class = codec.decode(payload[1])
                            elif payload[0] == "infeasible":
                                infeasible = True
                if infeasible:
                    for child in children:
                        # Children still yield awaiting pick/infeasible.
                        ctx.send(child, ("infeasible", None))  # repro: noqa[RL003]
                    return NodeSelection(feasible=False)
            else:
                best: Optional[int] = None
                for s in sorted(forget_table, key=codec.encode):
                    if automaton.accepts(s) and better(
                        sign, forget_table[s],
                        None if best is None else forget_table[best],
                    ):
                        best = s
                if best is None:
                    for child in children:
                        # Children still yield awaiting pick/infeasible.
                        ctx.send(child, ("infeasible", None))  # repro: noqa[RL003]
                    return NodeSelection(feasible=False)
                my_class = best
                optimum = forget_table[best]

            # -- replay local back-pointers, inform children ---------------
            state = forget_back[my_class]
            child_picks: Dict[Vertex, int] = {}
            for child, back in reversed(glue_back):
                left, right = back[state]
                child_picks[child] = right
                state = left
            for child in children:
                # Children still yield awaiting their pick, so this delivers.
                ctx.send(child, ("pick", codec.encode(child_picks[child])))  # repro: noqa[RL003]
        choice = leaf_choice[state]
        selected = choice.chosen[0]
        vertex_selected = any(not isinstance(item, tuple) for item in selected)
        selected_positions = tuple(
            pos
            for pos, e in owned_edges
            if any(isinstance(item, tuple) and item == e for item in selected)
        )
        return NodeSelection(
            feasible=True,
            vertex_selected=vertex_selected,
            edge_positions=selected_positions,
            optimum=optimum,
        )

    return program


@dataclass
class DistributedOptimization:
    """Outcome of the full optimization pipeline."""

    feasible: bool
    treedepth_exceeded: bool
    value: Optional[int]
    witness: FrozenSet[Any]
    total_rounds: int
    elimination_rounds: int
    optimization_rounds: int
    max_message_bits: int
    num_classes: int
    total_messages: int = 0


def optimize_pipeline(
    automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    maximize: bool = True,
    config: Optional[RunConfig] = None,
) -> DistributedOptimization:
    """Run Algorithm 2 followed by the optimization protocol.

    ``automaton`` must be compiled with scope = (S,), the free set variable.
    ``config`` carries the run knobs, as for
    :func:`.model_checking.run_checking`: both phases share the adversary,
    and any crash raises :class:`~repro.errors.FaultToleranceExceeded` — an
    optimum computed on a partial network proves nothing about the whole
    one.
    """
    if len(automaton.scope) != 1 or not automaton.scope[0].sort.is_set:
        raise ProtocolError("optimization needs scope = one free set variable")
    run = run_checking(
        automaton, graph, d,
        lambda codec: optimization_program(automaton, codec, maximize),
        phase="optimization",
        max_rounds=500_000,  # runaway guard only; progression is data-driven
        config=config,
    )
    feasible = False
    witness: set = set()
    value: Optional[int] = None
    if run.checking is not None:
        selections: Dict[Vertex, NodeSelection] = run.checking.outputs
        feasible = all(sel.feasible for sel in selections.values())
    if feasible:
        var = automaton.scope[0]
        for v, sel in selections.items():
            if sel.optimum is not None:
                value = sel.optimum
            if var.sort.is_vertex_kind and sel.vertex_selected:
                witness.add(v)
            if not var.sort.is_vertex_kind:
                bag = run.elimination.outputs[v].bag
                for pos in sel.edge_positions:
                    witness.add(canonical_edge(bag[pos - 1], v))
    return DistributedOptimization(
        feasible=feasible,
        treedepth_exceeded=run.treedepth_exceeded,
        value=value,
        witness=frozenset(witness),
        optimization_rounds=run.checking_rounds,
        **run.totals(),
    )
