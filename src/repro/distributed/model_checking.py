"""Theorem 6.1 (decision): distributed MSO model checking in CONGEST.

Given the elimination tree from Algorithm 2 (each node knows parent,
children, depth, bag, and which ancestors it is adjacent to), the bottom-up
phase of Algorithm 1 is executed as a convergecast:

* every node builds its Base symbol locally (its depth, its ancestor-edge
  positions, its own labels — all local knowledge),
* a leaf sends the class of Forget(Glue-chain(Base)) to its parent,
* an internal node waits for the classes of all children, glues them with
  its Base symbol, forgets itself, and forwards one class id,
* the root applies the acceptance predicate and floods the verdict down.

Each message is a single class id: log₂|𝒞| bits, a constant for fixed
(φ, d) — the O(log |𝒞|)-bit messages of the paper's proof.  The protocol
is data-driven, so it takes depth(T) + depth(T) ≤ 2·2^d rounds after the
tree is built.

The shared automaton object plays the role of the common-knowledge
"algorithm": both endpoints of an edge use the same class-id table, the
distributed analogue of hard-coding 𝒞 and ⊙_f into every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Generator, List, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.symbols import BaseStructure, BaseSymbol
from ..congest import (
    Inbox,
    NodeContext,
    NodeProgram,
    SimulationResult,
    node_program,
    run_protocol,
)
from ..errors import FaultToleranceExceeded, ProtocolError, ReproError
from ..graph import Graph, Vertex, canonical_edge
from ..mso import syntax as sx
from ..obs import maybe_phase
from ..runconfig import RunConfig
from .elimination import DistributedEliminationResult, build_elimination_tree


class ClassCodec:
    """Shared class-id table: the simulated 'constant-size' 𝒞 encoding.

    Maps the automaton's state ids to wire class ids in first-encounter
    order, so the ids on the wire depend only on the order in which the
    protocols send classes, never on how the automaton numbers states.
    """

    def __init__(self, automaton: TreeAutomaton):
        self._automaton = automaton
        self._by_id: List[int] = []
        self._ids: Dict[int, int] = {}

    def encode(self, sid: int) -> int:
        class_id = self._ids.get(sid)
        if class_id is None:
            class_id = self._ids[sid] = len(self._by_id)
            self._by_id.append(sid)
        return class_id

    def decode(self, class_id: int) -> int:
        return self._by_id[class_id]

    @property
    def num_classes(self) -> int:
        return len(self._by_id)


def local_base_symbol(ctx: NodeContext, scope: Tuple[sx.Var, ...]) -> BaseSymbol:
    """Build the node's Base symbol from purely local inputs.

    ``ctx.input`` carries: depth, bag, anc_edge_positions, labels,
    edge_labels (ancestor position -> labels), and per-variable membership
    bits when the run checks a fixed assignment (optmarked / labeled runs).
    """
    depth = ctx.input["depth"]
    positions = tuple(ctx.input["anc_edge_positions"])
    elabels = tuple(
        (pos, frozenset(ctx.input.get("edge_labels", {}).get(pos, ())))
        for pos in positions
    )
    structure = BaseStructure(
        depth=depth,
        anc_edges=positions,
        vlabels=frozenset(ctx.input.get("labels", ())),
        elabels=elabels,
    )
    vbits = frozenset(ctx.input.get("vbits", ()))
    ebits = tuple(
        (pos, frozenset(ctx.input.get("ebits", {}).get(pos, ())))
        for pos in positions
    )
    return BaseSymbol(structure=structure, vbits=vbits, ebits=ebits)


def decision_program(automaton: TreeAutomaton, codec: ClassCodec):
    """Node program factory for the bottom-up decision convergecast.

    Each node's Forget(Glue-chain(·)) replay goes through the
    automaton's memoized :meth:`~TreeAutomaton.fold_decide`, so nodes
    with the same leaf class and child classes cost one dictionary hit.
    """

    @node_program(rounds="20 + 6*2**d + 2*n")
    def program(ctx: NodeContext) -> Generator[None, Inbox, bool]:
        depth: int = ctx.input["depth"]
        children: Tuple[Vertex, ...] = tuple(ctx.input["children"])
        parent: Optional[Vertex] = ctx.input["parent"]

        sid = automaton.leaf(local_base_symbol(ctx, automaton.scope))
        pending = set(children)
        child_states: Dict[Vertex, int] = {}
        # Bottom-up phase: wait for every child's class.
        with ctx.phase("convergecast"):
            while pending:
                inbox = yield
                for sender, payload in inbox.items():
                    if (
                        sender in pending
                        and isinstance(payload, tuple)
                        and payload
                        and payload[0] == "class"
                    ):
                        child_states[sender] = codec.decode(payload[1])
                        pending.discard(sender)
            sid = automaton.fold_decide(
                depth, sid, tuple(child_states[c] for c in children)
            )
            if parent is not None:
                ctx.send(parent, ("class", codec.encode(sid)))
        # Top-down verdict flood.
        with ctx.phase("verdict-flood"):
            if parent is None:
                verdict = automaton.accepts(sid)
                for child in children:
                    # Children still yield awaiting the verdict flood.
                    ctx.send(child, ("verdict", verdict))  # repro: noqa[RL003]
                return verdict
            while True:
                inbox = yield
                if parent in inbox:
                    payload = inbox[parent]
                    if isinstance(payload, tuple) and payload and payload[0] == "verdict":
                        verdict = payload[1]
                        for child in children:
                            ctx.send(child, ("verdict", verdict))
                        return verdict

    return program


@dataclass
class DistributedDecision:
    """Result of the full Theorem 6.1 decision pipeline."""

    accepted: bool
    treedepth_exceeded: bool
    total_rounds: int
    elimination_rounds: int
    checking_rounds: int
    max_message_bits: int
    num_classes: int
    total_messages: int = 0


def node_inputs_from_elimination(
    graph: Graph,
    elim: DistributedEliminationResult,
    assignment: Optional[Dict[sx.Var, Any]] = None,
    scope: Tuple[sx.Var, ...] = (),
) -> Dict[Vertex, Dict[str, Any]]:
    """Package each node's local knowledge for the checking protocols.

    ``assignment`` fixes scope variables: a set-sorted variable takes a
    ``set`` or ``frozenset`` of vertices (edges for edge sets), an
    element-sorted one a single vertex (edge).  Edges are ``(u, v)``
    pairs in either order.  Any other value for a set variable raises
    :class:`~repro.errors.ReproError`.
    """
    inputs: Dict[Vertex, Dict[str, Any]] = {}
    members = _assignment_members(assignment or {}, scope)
    for v, out in elim.outputs.items():
        edge_labels = {}
        weights_edges = {}
        for pos in out.anc_edge_positions:
            ancestor = out.bag[pos - 1]
            edge_labels[pos] = tuple(sorted(graph.edge_labels(ancestor, v)))
            weights_edges[pos] = graph.edge_weight(ancestor, v)
        vbits = frozenset(
            i
            for i, var in enumerate(scope)
            if var.sort.is_vertex_kind and v in members[i]
        )
        ebits = {
            pos: frozenset(
                i
                for i, var in enumerate(scope)
                if not var.sort.is_vertex_kind
                and canonical_edge(out.bag[pos - 1], v) in members[i]
            )
            for pos in out.anc_edge_positions
        }
        inputs[v] = {
            "depth": out.depth,
            "parent": out.parent,
            "children": out.children,
            "bag": out.bag,
            "anc_edge_positions": out.anc_edge_positions,
            "labels": tuple(sorted(graph.vertex_labels(v))),
            "edge_labels": edge_labels,
            "weight": graph.vertex_weight(v),
            "edge_weights": weights_edges,
            "vbits": vbits,
            "ebits": ebits,
        }
    return inputs


def _assignment_members(
    assignment: Dict[sx.Var, Any], scope: Tuple[sx.Var, ...]
) -> List[FrozenSet[Any]]:
    """The items each scope variable is assigned, in scope order; edges
    in canonical orientation."""
    members: List[FrozenSet[Any]] = []
    for var in scope:
        value = assignment.get(var, frozenset())
        if isinstance(value, (set, frozenset)):
            items = frozenset(value)
        elif var.sort.is_set:
            raise ReproError(
                f"set variable {var.name} must be assigned a set or "
                f"frozenset, not {type(value).__name__}"
            )
        else:
            items = frozenset({value})
        if not var.sort.is_vertex_kind:
            items = frozenset(canonical_edge(*edge) for edge in items)
        members.append(items)
    return members


@dataclass
class CheckingRun:
    """One pass of the checking pipeline: Algorithm 2, then a convergecast.

    ``checking`` is ``None`` when Algorithm 2 reported td(G) > d, in which
    case no checking protocol ran.
    """

    elimination: DistributedEliminationResult
    checking: Optional[SimulationResult]
    codec: ClassCodec

    @property
    def treedepth_exceeded(self) -> bool:
        return self.checking is None

    @property
    def checking_rounds(self) -> int:
        return 0 if self.checking is None else self.checking.rounds

    def totals(self) -> Dict[str, int]:
        """The figures every pipeline result reports, summed over phases."""
        elim, sim = self.elimination, self.checking
        return {
            "total_rounds": elim.rounds + self.checking_rounds,
            "elimination_rounds": elim.rounds,
            "max_message_bits": max(
                elim.max_message_bits, sim.metrics.max_message_bits if sim else 0
            ),
            "num_classes": self.codec.num_classes if sim else 0,
            "total_messages": elim.total_messages
            + (sim.metrics.total_messages if sim else 0),
        }


def run_checking(
    automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    make_program: Callable[[ClassCodec], NodeProgram],
    *,
    phase: str,
    max_rounds: int,
    assignment: Optional[Dict[sx.Var, Any]] = None,
    config: Optional[RunConfig] = None,
) -> CheckingRun:
    """The one checking pipeline: Algorithm 2, then one convergecast.

    Builds the elimination tree, and unless Algorithm 2 reports
    td(G) > d, runs ``make_program(codec)`` over it under the harness
    phase ``phase``.  Every node must stay alive end to end: a crash in
    either protocol raises :class:`~repro.errors.FaultToleranceExceeded`,
    since an answer computed on a partial network says nothing about the
    whole one.

    ``config`` carries the run knobs.  ``faults`` subjects both protocols
    to the same adversary; ``retry`` wraps both in the redundancy-lockstep
    synchronizer, scaling the budget and ``max_rounds``; ``codec`` shares
    class ids across runs; ``budget`` defaults to
    :func:`~repro.congest.default_budget`.  Both protocols are launched
    through :meth:`RunConfig.launch <repro.runconfig.RunConfig.launch>`.
    """
    cfg = RunConfig.of(config)
    elim = build_elimination_tree(graph, d, config=cfg)
    if elim.crashed:
        raise FaultToleranceExceeded(
            f"nodes {sorted(map(repr, elim.crashed))} crashed during "
            f"elimination; the {phase} needs the whole network",
            round=elim.rounds,
        )
    codec = cfg.codec if cfg.codec is not None else ClassCodec(automaton)
    if not elim.accepted:
        return CheckingRun(elim, None, codec)
    inputs = node_inputs_from_elimination(graph, elim, assignment, automaton.scope)
    program, run_kwargs = cfg.launch(
        make_program(codec), graph.num_vertices(), max_rounds
    )
    with maybe_phase(run_kwargs["tracer"], phase):
        result = run_protocol(graph, program, inputs=inputs, **run_kwargs)
    if result.crashed:
        raise FaultToleranceExceeded(
            f"nodes {sorted(map(repr, result.crashed))} crashed during the "
            f"{phase} convergecast; its outcome cannot be trusted",
            round=result.rounds,
        )
    return CheckingRun(elim, result, codec)


def decide_pipeline(
    formula_automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    assignment: Optional[Dict[sx.Var, Any]] = None,
    config: Optional[RunConfig] = None,
) -> DistributedDecision:
    """Run the full pipeline: Algorithm 2, then the decision convergecast.

    ``formula_automaton`` must be compiled for the scope matching
    ``assignment`` (empty scope for closed formulas).  When a tracer is
    given (or installed), the run is attributed to the ``elimination`` and
    ``decision`` harness phases with the protocols' finer spans nested
    inside.  ``config`` carries the run knobs (see :func:`run_checking`):
    with bounded transient loss plus ``retry`` the returned verdict equals
    the faultless one or the run fails closed.
    """
    run = run_checking(
        formula_automaton, graph, d,
        lambda codec: decision_program(formula_automaton, codec),
        phase="decision",
        max_rounds=20 + 6 * (2 ** d) + 2 * graph.num_vertices(),
        assignment=assignment,
        config=config,
    )
    accepted = False
    if run.checking is not None:
        outputs = run.checking.outputs
        if len(set(outputs.values())) != 1:
            raise ProtocolError(f"verdicts disagree: {outputs}")
        accepted = bool(next(iter(outputs.values())))
    return DistributedDecision(
        accepted=accepted,
        treedepth_exceeded=run.treedepth_exceeded,
        checking_rounds=run.checking_rounds,
        **run.totals(),
    )
