"""Section 6 (counting): distributed count-φ in CONGEST.

Same convergecast shape as the optimization protocol, with COUNT tables
(class → number of partial assignments) in place of OPT tables.  Counts
can exceed the message budget (e.g. #independent-sets is exponential), so
each count is streamed in base-2^CHUNK digits — the honest Θ(k / log n)
cost of a k-bit value.  For the paper's headline examples (triangles,
perfect matchings on sparse graphs) counts are polynomial and fit in one
or two chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.symbols import enumerate_symbol_choices
from ..congest import Inbox, ItemCollector, NodeContext, node_program
from ..errors import ProtocolError
from ..graph import Graph, Vertex, canonical_edge
from ..runconfig import RunConfig
from .model_checking import ClassCodec, local_base_symbol, run_checking

_CHUNK_BITS = 8


def _count_to_digits(count: int) -> List[int]:
    if count == 0:
        return [0]
    digits = []
    while count:
        digits.append(count & ((1 << _CHUNK_BITS) - 1))
        count >>= _CHUNK_BITS
    return digits


def _digits_to_count(digits: List[int]) -> int:
    total = 0
    for i, digit in enumerate(digits):
        total |= digit << (_CHUNK_BITS * i)
    return total


def counting_program(automaton: TreeAutomaton, codec: ClassCodec):
    """Node program factory for the counting convergecast.

    COUNT tables are (state id, count) pairs merged through the
    automaton's digest-memoized :meth:`~TreeAutomaton.merge_counts` /
    :meth:`~TreeAutomaton.fold_forget_counts` joins, so identical
    subtree merges collapse to one dictionary hit.  Counts stay Python
    big-ints throughout.
    """

    @node_program
    def program(ctx: NodeContext) -> Generator[None, Inbox, Optional[int]]:
        depth: int = ctx.input["depth"]
        children: Tuple[Vertex, ...] = tuple(ctx.input["children"])
        parent: Optional[Vertex] = ctx.input["parent"]
        bag: Tuple[Vertex, ...] = tuple(ctx.input["bag"])
        positions: Tuple[int, ...] = tuple(ctx.input["anc_edge_positions"])

        base = local_base_symbol(ctx, automaton.scope)
        owned_edges = [
            (pos, canonical_edge(bag[pos - 1], ctx.node)) for pos in positions
        ]
        leaf: Dict[int, int] = {}
        for choice in enumerate_symbol_choices(
            base.structure, automaton.scope, ctx.node, owned_edges
        ):
            sid = automaton.leaf(choice.symbol)
            leaf[sid] = leaf.get(sid, 0) + 1
        table = tuple(leaf.items())

        with ctx.phase("count-streaming"):
            collector = ItemCollector("cnt", children)
            while not collector.complete:
                inbox = yield
                collector.absorb(inbox)
            for child in children:
                # Entries are framed as a header item (0, class_id) followed by
                # digit items (1, digit) in little-endian order — each message
                # stays small even when |C_reachable| is large.
                child_table: Dict[int, int] = {}
                current_state = None
                digit_index = 0
                for kind, value in collector.items_from(child):
                    if kind == 0:
                        current_state = codec.decode(value)
                        digit_index = 0
                    else:
                        if current_state is None:
                            raise ProtocolError("count digit before its header")
                        child_table[current_state] = child_table.get(
                            current_state, 0
                        ) | (value << (_CHUNK_BITS * digit_index))
                        digit_index += 1
                table = automaton.merge_counts(
                    depth, table, tuple(child_table.items())
                )
            forgotten = dict(automaton.fold_forget_counts(depth, table))

            if parent is not None:
                for s in sorted(forgotten, key=codec.encode):
                    ctx.send(parent, ("cnt", (0, codec.encode(s))))
                    yield
                    for digit in _count_to_digits(forgotten[s]):
                        ctx.send(parent, ("cnt", (1, digit)))
                        yield
                # Parent still yields awaiting cnt/end, so this delivers.
                ctx.send(parent, ("cnt/end", None))  # repro: noqa[RL003]
                return None
        return sum(c for s, c in forgotten.items() if automaton.accepts(s))

    return program


@dataclass
class DistributedCount:
    """Outcome of the counting pipeline (count known at the root)."""

    count: Optional[int]
    treedepth_exceeded: bool
    total_rounds: int
    elimination_rounds: int
    counting_rounds: int
    max_message_bits: int
    num_classes: int
    total_messages: int = 0


def count_pipeline(
    automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    config: Optional[RunConfig] = None,
) -> DistributedCount:
    """Run Algorithm 2 followed by the counting convergecast.

    ``config`` carries the run knobs, as for
    :func:`.model_checking.run_checking`; any crash raises
    :class:`~repro.errors.FaultToleranceExceeded` — a count over a partial
    network is not the count.
    """
    if not automaton.scope:
        raise ProtocolError("counting needs at least one free variable")
    run = run_checking(
        automaton, graph, d,
        lambda codec: counting_program(automaton, codec),
        phase="counting",
        max_rounds=500_000,
        config=config,
    )
    count = None
    if run.checking is not None:
        counts = [c for c in run.checking.outputs.values() if c is not None]
        if len(counts) != 1:
            raise ProtocolError("exactly one node (the root) should hold the count")
        count = counts[0]
    return DistributedCount(
        count=count,
        treedepth_exceeded=run.treedepth_exceeded,
        counting_rounds=run.checking_rounds,
        **run.totals(),
    )
