"""Bottom-up tree automata over the treedepth algebra.

An automaton assigns every w-terminal graph (assembled from Base / Glue /
Forget symbols) a *state*; states are exactly the paper's homomorphism
classes (Definition 4.1): condition 1 holds because acceptance is a
function of the state, condition 2 because ``glue``/``forget`` are the
update functions ⊙_f.  The set of classes 𝒞 is materialized lazily.

Every state is **hash-consed** into a dense integer id the first time a
transition produces it, and the public transition API — ``leaf``,
``glue``, ``forget``, ``accepts`` — works on those ids only, backed by
id-keyed dict tables.  ``num_classes`` is therefore |𝒞_reachable| and a
state id is already the O(log |𝒞|)-bit message encoding used by the
CONGEST protocols.  Subclasses implement the value-level hooks
``_leaf`` / ``_glue`` / ``_forget`` / ``_accepts``; a hook is called at
most once per distinct argument tuple.

Atomic automata implement the MSO atoms; composites implement the logical
connectives over their children's ids:

* ``ProductAutomaton``    — conjunction / disjunction (states are tuples
  of child ids),
* ``ComplementAutomaton`` — negation (flip acceptance; it delegates
  its transitions to the inner automaton and shares its ids, which is
  sound because every automaton here is deterministic),
* ``ProjectionAutomaton`` — existential set/element quantification:
  the projected variable's bits are guessed at each Base symbol and the
  automaton is re-determinized on the fly by the subset construction
  (states are frozensets of inner ids).

The base class also owns the whole-table joins the counting and
optimization protocols replay (``merge_counts``, ``fold_forget_counts``,
``merge_opt``, ``fold_forget_opt``) and the decision node fold
(``fold_decide``), memoized by table digest so identical subtree joins
cost one dictionary hit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ReproError
from ..mso.syntax import Sort, Var
from .symbols import BaseSymbol

State = Hashable

#: A COUNT table: (state id, number of partial assignments) pairs.
CountTable = Tuple[Tuple[int, int], ...]
#: An OPT table: (state id, best weight) pairs.
OptTable = Tuple[Tuple[int, int], ...]

#: Join-memo entries an automaton keeps before it empties the memo.
JOIN_MEMO_LIMIT = 1 << 9


class TreeAutomaton(ABC):
    """Deterministic bottom-up automaton over Base/Glue/Forget symbols."""

    def __init__(self, scope: Sequence[Var]):
        self.scope: Tuple[Var, ...] = tuple(scope)
        self._states: List[State] = []  # id -> canonical state value
        self._ids: Dict[State, int] = {}  # state value -> id
        self._leaf_table: Dict[BaseSymbol, int] = {}
        self._glue_table: Dict[Tuple[int, int, int], int] = {}
        self._forget_table: Dict[Tuple[int, int], int] = {}
        self._accepting: Dict[int, bool] = {}
        self._digests: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._joins: Dict[Tuple[Any, ...], Any] = {}

    # -- hash-consing ---------------------------------------------------
    def _id(self, state: State) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = self._ids[state] = len(self._states)
            self._states.append(state)
        return sid

    def state_of(self, sid: int) -> State:
        """The canonical state value behind id ``sid``."""
        return self._states[sid]

    def num_classes(self) -> int:
        """|𝒞_reachable|: homomorphism classes materialized so far."""
        return len(self._states)

    def table_entries(self) -> int:
        """Materialized states and transitions (a warm-ness measure)."""
        return (
            len(self._states) + len(self._leaf_table) + len(self._glue_table)
            + len(self._forget_table)
        )

    def __getstate__(self) -> Dict[str, Any]:
        # The join memo is a per-process speed-up: never persisted.
        state = self.__dict__.copy()
        state["_digests"] = {}
        state["_joins"] = {}
        return state

    # -- public transition API (ids in, ids out) -------------------------
    def leaf(self, symbol: BaseSymbol) -> int:
        """State id of the one-vertex graph introduced by ``symbol``."""
        sid = self._leaf_table.get(symbol)
        if sid is None:
            sid = self._leaf_table[symbol] = self._id(self._leaf(symbol))
        return sid

    def glue(self, boundary: int, i: int, j: int) -> int:
        """State id after identity-gluing two graphs with ``boundary`` terminals."""
        key = (boundary, i, j)
        sid = self._glue_table.get(key)
        if sid is None:
            states = self._states
            sid = self._glue_table[key] = self._id(
                self._glue(boundary, states[i], states[j])
            )
        return sid

    def forget(self, boundary: int, i: int) -> int:
        """State id after the deepest of ``boundary`` terminals becomes interior."""
        key = (boundary, i)
        sid = self._forget_table.get(key)
        if sid is None:
            sid = self._forget_table[key] = self._id(
                self._forget(boundary, self._states[i])
            )
        return sid

    def accepts(self, sid: int) -> bool:
        """Is state ``sid`` an accepting class?  (Boundary must be empty.)"""
        verdict = self._accepting.get(sid)
        if verdict is None:
            verdict = self._accepting[sid] = bool(
                self._accepts(self._states[sid])
            )
        return verdict

    # -- digest-memoized table joins --------------------------------------
    #
    # Each join iterates in the order of the tables it is given, so dict
    # insertion order — and with it the order of first ClassCodec.encode
    # calls downstream — is a function of the inputs alone.  A memo hit
    # returns what the same loop produced earlier, so it is
    # indistinguishable from a recomputation.  The memo keys carry the
    # counts and weights, so traffic over ever-new graphs would grow it
    # without bound: it is emptied once it holds JOIN_MEMO_LIMIT entries,
    # left out of table_entries and pickles.

    def _join_memo(self) -> Dict[Tuple[Any, ...], Any]:
        """The join memo, emptied first when full.  Call it before taking
        any digest: the digests go with it, since keys name tables by
        digest."""
        if len(self._joins) >= JOIN_MEMO_LIMIT:
            self._joins.clear()
            self._digests.clear()
        return self._joins

    def _digest(self, table: Tuple[Tuple[int, int], ...]) -> int:
        """A small interned id naming one exact ordered table."""
        digest = self._digests.get(table)
        if digest is None:
            digest = self._digests[table] = len(self._digests)
        return digest

    def merge_counts(
        self, boundary: int, table: CountTable, child: CountTable
    ) -> CountTable:
        """COUNT merge: ``merged[glue(s1, s2)] += c1 * c2``."""
        joins = self._join_memo()
        key = ("cnt", boundary, self._digest(table), self._digest(child))
        out = joins.get(key)
        if out is None:
            merged: Dict[int, int] = {}
            get = merged.get
            for s1, c1 in table:
                for s2, c2 in child:
                    s = self.glue(boundary, s1, s2)
                    merged[s] = get(s, 0) + c1 * c2
            out = joins[key] = tuple(merged.items())
        return out

    def fold_forget_counts(self, boundary: int, table: CountTable) -> CountTable:
        """COUNT forget: ``forgotten[forget(s)] += c``."""
        joins = self._join_memo()
        key = ("fcnt", boundary, self._digest(table))
        out = joins.get(key)
        if out is None:
            forgotten: Dict[int, int] = {}
            get = forgotten.get
            for s, c in table:
                fs = self.forget(boundary, s)
                forgotten[fs] = get(fs, 0) + c
            out = joins[key] = tuple(forgotten.items())
        return out

    def merge_opt(
        self, boundary: int, table: OptTable, child: OptTable, sign: int
    ) -> Tuple[OptTable, Tuple[Tuple[int, Tuple[int, int]], ...]]:
        """OPT merge with back-pointers; the first strictly better pair wins.

        The tables must already be in the caller's iteration order (the
        protocols sort by class id): the memo key is the exact ordered
        content, so the tie-breaking winner is reproduced bit-for-bit.
        """
        joins = self._join_memo()
        key = ("opt", sign, boundary, self._digest(table), self._digest(child))
        out = joins.get(key)
        if out is None:
            merged: Dict[int, int] = {}
            back: Dict[int, Tuple[int, int]] = {}
            for s1, w1 in table:
                for s2, w2 in child:
                    s = self.glue(boundary, s1, s2)
                    w = w1 + w2
                    incumbent = merged.get(s)
                    if incumbent is None or sign * w > sign * incumbent:
                        merged[s] = w
                        back[s] = (s1, s2)
            out = joins[key] = (
                tuple(merged.items()), tuple(back.items())
            )
        return out

    def fold_forget_opt(
        self, boundary: int, table: OptTable, sign: int
    ) -> Tuple[OptTable, Tuple[Tuple[int, int], ...]]:
        """OPT forget with back-pointers (same tie rule as the merge)."""
        joins = self._join_memo()
        key = ("fopt", sign, boundary, self._digest(table))
        out = joins.get(key)
        if out is None:
            forgotten: Dict[int, int] = {}
            back: Dict[int, int] = {}
            for s, w in table:
                fs = self.forget(boundary, s)
                incumbent = forgotten.get(fs)
                if incumbent is None or sign * w > sign * incumbent:
                    forgotten[fs] = w
                    back[fs] = s
            out = joins[key] = (
                tuple(forgotten.items()), tuple(back.items())
            )
        return out

    def fold_decide(
        self, boundary: int, leaf: int, child_ids: Tuple[int, ...]
    ) -> int:
        """Forget(Glue-chain(leaf, children)): one decision node's replay."""
        joins = self._join_memo()
        key = ("dec", boundary, leaf, child_ids)
        sid = joins.get(key)
        if sid is None:
            sid = leaf
            for cid in child_ids:
                sid = self.glue(boundary, sid, cid)
            sid = joins[key] = self.forget(boundary, sid)
        return sid

    # -- to implement ---------------------------------------------------
    @abstractmethod
    def _leaf(self, symbol: BaseSymbol) -> State: ...

    @abstractmethod
    def _glue(self, boundary: int, s1: State, s2: State) -> State: ...

    @abstractmethod
    def _forget(self, boundary: int, s: State) -> State: ...

    @abstractmethod
    def _accepts(self, state: State) -> bool:
        """Is the state value accepting?  (Boundary must be empty.)"""


# ----------------------------------------------------------------------
# Scan automata: state is a single monoid value over owned items
# ----------------------------------------------------------------------

class ScanAutomaton(TreeAutomaton):
    """Base for atoms that fold a commutative monoid over owned items.

    An *item* is the owned vertex ``("v", bits, labels)`` or an owned edge
    ``("e", bits, labels)``; the ancestry structure is irrelevant to these
    atoms, so Forget is the identity.
    """

    def _leaf(self, symbol: BaseSymbol) -> State:
        value = self._identity()
        value = self._combine(value, self._item_value("v", symbol.vbits, symbol.structure.vlabels))
        for pos, bits in symbol.ebits:
            labels = symbol.structure.edge_labels_at(pos)
            value = self._combine(value, self._item_value("e", bits, labels))
        return value

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return self._combine(s1, s2)

    def _forget(self, boundary: int, s: State) -> State:
        return s

    @abstractmethod
    def _identity(self) -> State: ...

    @abstractmethod
    def _combine(self, a: State, b: State) -> State: ...

    @abstractmethod
    def _item_value(self, kind: str, bits: FrozenSet[int], labels: FrozenSet[str]) -> State: ...


class ConstAutomaton(ScanAutomaton):
    """The constant true/false formula."""

    def __init__(self, scope: Sequence[Var], value: bool):
        super().__init__(scope)
        self._value = value

    def _identity(self) -> State:
        return 0

    def _combine(self, a: State, b: State) -> State:
        return 0

    def _item_value(self, kind, bits, labels) -> State:
        return 0

    def _accepts(self, state: State) -> bool:
        return self._value


class SingletonAutomaton(ScanAutomaton):
    """|X_i| = 1 (counts capped at 2)."""

    def __init__(self, scope: Sequence[Var], index: int):
        super().__init__(scope)
        self._index = index

    def _identity(self) -> State:
        return 0

    def _combine(self, a: State, b: State) -> State:
        return min(2, a + b)

    def _item_value(self, kind, bits, labels) -> State:
        return 1 if self._index in bits else 0

    def _accepts(self, state: State) -> bool:
        return state == 1


class IntersectsAutomaton(ScanAutomaton):
    """Some item lies in both X_i and X_j (=, ∈ under singletons)."""

    def __init__(self, scope: Sequence[Var], i: int, j: int):
        super().__init__(scope)
        self._i, self._j = i, j

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        return self._i in bits and self._j in bits

    def _accepts(self, state: State) -> bool:
        return bool(state)


class SubsetAutomaton(ScanAutomaton):
    """X_a ⊆ X_{b₁} ∪ … ∪ X_{b_m}: tracks whether a violation was seen."""

    def __init__(self, scope: Sequence[Var], a: int, bs: Sequence[int]):
        super().__init__(scope)
        self._a = a
        self._bs = tuple(bs)

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        return self._a in bits and not any(b in bits for b in self._bs)

    def _accepts(self, state: State) -> bool:
        return not state


class NonEmptyAutomaton(ScanAutomaton):
    """X_i ≠ ∅."""

    def __init__(self, scope: Sequence[Var], index: int):
        super().__init__(scope)
        self._index = index

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        return self._index in bits

    def _accepts(self, state: State) -> bool:
        return bool(state)


class HasLabelAutomaton(ScanAutomaton):
    """Some item of X_i carries ``label`` (``universal=False``) or every
    item of X_i carries it (``universal=True``)."""

    def __init__(self, scope: Sequence[Var], index: int, label: str, universal: bool):
        super().__init__(scope)
        self._index = index
        self._label = label
        self._universal = universal

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        if self._index not in bits:
            return False
        has = self._label in labels
        return (not has) if self._universal else has

    def _accepts(self, state: State) -> bool:
        # Universal mode tracks violations; existential mode tracks witnesses.
        return not state if self._universal else bool(state)


class AllVerticesInAutomaton(ScanAutomaton):
    """Every vertex of G lies in the union of the given variables."""

    def __init__(self, scope: Sequence[Var], indices: Sequence[int]):
        super().__init__(scope)
        self._indices = tuple(indices)

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        return kind == "v" and not any(i in bits for i in self._indices)

    def _accepts(self, state: State) -> bool:
        return not state


class AllEdgesInAutomaton(ScanAutomaton):
    """Every edge of G lies in the union of the given edge-set variables."""

    def __init__(self, scope: Sequence[Var], indices: Sequence[int]):
        super().__init__(scope)
        self._indices = tuple(indices)

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        return kind == "e" and not any(i in bits for i in self._indices)

    def _accepts(self, state: State) -> bool:
        return not state


# ----------------------------------------------------------------------
# Pending automata: requirements on boundary vertices resolved at Forget
# ----------------------------------------------------------------------

class PendingAutomaton(TreeAutomaton):
    """Base for atoms about edges between owned items and boundary vertices.

    State: ``(flag, pend, last)`` where ``pend`` has one entry per boundary
    position (requirements aimed at that ancestor), and ``last`` carries the
    information about the deepest boundary vertex gathered from its own Base
    symbol — available exactly when that vertex is about to be forgotten.
    """

    def _leaf(self, symbol: BaseSymbol) -> State:
        flag, contributions = self._leaf_contributions(symbol)
        pend = [self._empty_pend()] * symbol.depth
        for position, entry in contributions:
            pend[position - 1] = self._merge_pend(pend[position - 1], entry)
        return (flag, tuple(pend), self._last_info(symbol))

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        flag1, pend1, last1 = s1
        flag2, pend2, last2 = s2
        if len(pend1) != boundary or len(pend2) != boundary:
            raise ReproError("glue: boundary size mismatch")
        if last1 is not None and last2 is not None:
            raise ReproError("glue: two Base symbols for one boundary vertex")
        pend = tuple(self._merge_pend(a, b) for a, b in zip(pend1, pend2))
        return (flag1 or flag2, pend, last1 if last1 is not None else last2)

    def _forget(self, boundary: int, s: State) -> State:
        flag, pend, last = s
        if last is None:
            raise ReproError("forget: boundary vertex bits unknown")
        flag = self._resolve(flag, pend[boundary - 1], last)
        return (flag, pend[: boundary - 1], None)

    # -- hooks ----------------------------------------------------------
    @abstractmethod
    def _leaf_contributions(self, symbol: BaseSymbol) -> Tuple[bool, List[Tuple[int, Any]]]:
        """(initial flag, [(position, pend entry), ...]) for a Base symbol."""

    @abstractmethod
    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        """What the Forget of this vertex needs to know about it."""

    @abstractmethod
    def _empty_pend(self) -> Any: ...

    @abstractmethod
    def _merge_pend(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def _resolve(self, flag: bool, pend_entry: Any, last: Hashable) -> bool:
        """Fold the forgotten vertex's pending requirements into the flag."""


class EdgeWitnessAutomaton(PendingAutomaton):
    """∃ edge (optionally restricted to edge-set X_e) with one endpoint in
    X_x and the other in X_y (``y=None``: other endpoint unconstrained).

    Implements ``adj``, ``inc``, ``EdgeCross`` uniformly; the flag means
    "witness found".  Pend entries are the sets of bits that, if present on
    the ancestor, complete a witness.
    """

    def __init__(
        self,
        scope: Sequence[Var],
        x: int,
        y: Optional[int],
        edge_filter: Optional[int] = None,
    ):
        super().__init__(scope)
        self._x = x
        self._y = y
        self._edge_filter = edge_filter

    def _leaf_contributions(self, symbol: BaseSymbol):
        flag = False
        contributions: List[Tuple[int, FrozenSet[int]]] = []
        for position, ebits in symbol.ebits:
            if self._edge_filter is not None and self._edge_filter not in ebits:
                continue
            if self._y is None:
                if self._x in symbol.vbits:
                    flag = True
                else:
                    contributions.append((position, frozenset({self._x})))
            else:
                needed = set()
                if self._x in symbol.vbits:
                    needed.add(self._y)
                if self._y in symbol.vbits:
                    needed.add(self._x)
                if needed:
                    contributions.append((position, frozenset(needed)))
        return flag, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        relevant = {self._x}
        if self._y is not None:
            relevant.add(self._y)
        return frozenset(symbol.vbits & relevant)

    def _empty_pend(self):
        return frozenset()

    def _merge_pend(self, a, b):
        return a | b

    def _resolve(self, flag, pend_entry, last):
        return flag or bool(pend_entry & last)

    def _accepts(self, state: State) -> bool:
        return bool(state[0])


class IncCountsAutomaton(PendingAutomaton):
    """Every vertex (optionally restricted to X_within) has a capped count
    of incident X_e edges inside ``allowed`` (the paper's degree-constraint
    workhorse: matchings, 2-factors, cycle supports, cubic subgraphs)."""

    def __init__(
        self,
        scope: Sequence[Var],
        e: int,
        allowed: FrozenSet[int],
        within: Optional[int],
        cap: int = 3,
    ):
        super().__init__(scope)
        self._e = e
        self._allowed = allowed
        self._within = within
        self._cap = cap

    def _leaf_contributions(self, symbol: BaseSymbol):
        contributions = [
            (position, 1)
            for position, ebits in symbol.ebits
            if self._e in ebits
        ]
        return False, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        in_scope = self._within is None or self._within in symbol.vbits
        own = sum(1 for _, ebits in symbol.ebits if self._e in ebits)
        return (in_scope, min(self._cap, own))

    def _empty_pend(self):
        return 0

    def _merge_pend(self, a, b):
        return min(self._cap, a + b)

    def _resolve(self, flag, pend_entry, last):
        in_scope, own = last
        total = min(self._cap, own + pend_entry)
        return flag or (in_scope and total not in self._allowed)

    def _accepts(self, state: State) -> bool:
        return not state[0]


class IncParityAutomaton(PendingAutomaton):
    """Every vertex (optionally within X_within) has X_e-degree of the
    given parity — degree sums become XORs, so the pend entries are bits."""

    def __init__(
        self,
        scope: Sequence[Var],
        e: int,
        even: bool,
        within: Optional[int],
    ):
        super().__init__(scope)
        self._e = e
        self._target = 0 if even else 1
        self._within = within

    def _leaf_contributions(self, symbol: BaseSymbol):
        contributions = [
            (position, 1)
            for position, ebits in symbol.ebits
            if self._e in ebits
        ]
        return False, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        in_scope = self._within is None or self._within in symbol.vbits
        own = sum(1 for _, ebits in symbol.ebits if self._e in ebits) % 2
        return (in_scope, own)

    def _empty_pend(self):
        return 0

    def _merge_pend(self, a, b):
        return (a + b) % 2

    def _resolve(self, flag, pend_entry, last):
        in_scope, own = last
        return flag or (in_scope and (own + pend_entry) % 2 != self._target)

    def _accepts(self, state: State) -> bool:
        return not state[0]


class CliqueAutomaton(PendingAutomaton):
    """X induces a clique.

    On an elimination forest any clique lies on one root path, so it
    suffices to track: (a) at most one subtree chunk may contain an
    interior X-vertex (two incomparable X-vertices are never adjacent);
    (b) an X-vertex must be adjacent to every X-ancestor, enforced with
    "ancestor must not be in X" demands at its non-adjacent positions.

    The base-class flag slot holds ``(violated, has_interior_x)``.
    """

    def __init__(self, scope: Sequence[Var], x: int):
        super().__init__(scope)
        self._x = x

    def _leaf_contributions(self, symbol: BaseSymbol):
        contributions = []
        if self._x in symbol.vbits:
            adjacent = set(symbol.anc_edges)
            for position in range(1, symbol.depth):
                if position not in adjacent:
                    contributions.append((position, True))
        return (False, False), contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        return self._x in symbol.vbits

    def _empty_pend(self):
        return False

    def _merge_pend(self, a, b):
        return a or b

    def _resolve(self, flag, pend_entry, last):
        violated, has_interior = flag
        if last and pend_entry:
            # This vertex is in X but some X-descendant is not adjacent
            # to it.
            violated = True
        return (violated, has_interior or last)

    # The combined flag is a pair, so the OR-merge of the base class is
    # overridden: two chunks with interior X-vertices are incomparable.
    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        (v1, h1), pend1, last1 = s1
        (v2, h2), pend2, last2 = s2
        if len(pend1) != boundary or len(pend2) != boundary:
            raise ReproError("glue: boundary size mismatch")
        if last1 is not None and last2 is not None:
            raise ReproError("glue: two Base symbols for one boundary vertex")
        violated = v1 or v2 or (h1 and h2)
        pend = tuple(a or b for a, b in zip(pend1, pend2))
        return (
            (violated, h1 or h2),
            pend,
            last1 if last1 is not None else last2,
        )

    def _accepts(self, state: State) -> bool:
        return not state[0][0]


class EndpointsInAutomaton(PendingAutomaton):
    """Every edge of X_e has both endpoints in X_x (violation-tracking)."""

    def __init__(self, scope: Sequence[Var], e: int, x: int):
        super().__init__(scope)
        self._e = e
        self._x = x

    def _leaf_contributions(self, symbol: BaseSymbol):
        flag = False
        contributions: List[Tuple[int, bool]] = []
        for position, ebits in symbol.ebits:
            if self._e not in ebits:
                continue
            if self._x not in symbol.vbits:
                flag = True
            contributions.append((position, True))
        return flag, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        return self._x in symbol.vbits

    def _empty_pend(self):
        return False

    def _merge_pend(self, a, b):
        return a or b

    def _resolve(self, flag, pend_entry, last):
        return flag or (pend_entry and not last)

    def _accepts(self, state: State) -> bool:
        return not state[0]


class GraphDegreesAutomaton(PendingAutomaton):
    """Every vertex's G-degree, capped at ``cap``, lies in ``allowed``.

    Degree of v = (edges from v to ancestors, seen at Base_v) +
    (edges from descendants to v, accumulated as capped pending counts).
    """

    def __init__(self, scope: Sequence[Var], allowed: FrozenSet[int], cap: int):
        super().__init__(scope)
        self._allowed = allowed
        self._cap = cap

    def _leaf_contributions(self, symbol: BaseSymbol):
        return False, [(position, 1) for position in symbol.anc_edges]

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        return min(self._cap, len(symbol.anc_edges))

    def _empty_pend(self):
        return 0

    def _merge_pend(self, a, b):
        return min(self._cap, a + b)

    def _resolve(self, flag, pend_entry, last):
        total = min(self._cap, last + pend_entry)
        return flag or total not in self._allowed

    def _accepts(self, state: State) -> bool:
        return not state[0]


class ContainsPatternAutomaton(TreeAutomaton):
    """G contains a fixed pattern H (optionally induced).

    The state tracks a *found* flag plus a set of partial-embedding items.
    An item is ``(placed, demands)``:

    * ``placed`` — the pattern vertices already embedded into forgotten
      graph vertices (each Base symbol may host at most one pattern vertex,
      so distinctness is automatic);
    * ``demands`` — obligations aimed at boundary positions, each
      ``(position, source, target, positive)``: the Base hosting pattern
      vertex ``source`` promised/forbade pattern vertex ``target`` at that
      ancestor.  Positive demands certify a pattern edge whose graph edge
      (owned by the deeper endpoint) was verified at promise time; negative
      demands encode induced-mode non-edges.

    At ``Forget`` the deepest boundary vertex's own hosting choice (carried
    like the pending automata's ``last`` slot) is checked against all
    demands at its position, and completeness of its pattern neighborhood
    is enforced.  Items violating anything simply die; an item placing all
    of V(H) raises the absorbing ``found`` flag.

    This is the Corollary 7.3 φ_H decided without one projection blowup
    per pattern vertex.
    """

    def __init__(
        self,
        scope: Sequence[Var],
        num_vertices: int,
        edges: FrozenSet[Tuple[int, int]],
        induced: bool,
    ):
        super().__init__(scope)
        self._h_vertices = tuple(range(num_vertices))
        self._h_edges = edges
        self._induced = induced
        self._neighbors: Dict[int, FrozenSet[int]] = {
            a: frozenset(
                b
                for b in self._h_vertices
                if (min(a, b), max(a, b)) in edges and a != b
            )
            for a in self._h_vertices
        }

    # Item = (placed: frozenset[int], demands: frozenset[(pos, src, tgt, pos?)])
    # State = (found: bool, items: frozenset[Item], last: Optional[int|-1])
    # ``last`` = the pattern vertex hosted by the deepest boundary vertex
    # (-1 for "hosts nothing"); None when its Base is not in this chunk.
    # Because hosting is a per-item choice, ``last`` lives inside items:
    # item = (placed, demands, host) with host ∈ {None, -1, 0..n-1}.

    def _leaf(self, symbol: BaseSymbol) -> State:
        items = set()
        positions = symbol.anc_edges
        # Choice: host nothing.
        items.add((frozenset(), frozenset(), -1))
        for b0 in self._h_vertices:
            for promises in self._promise_maps(b0, positions):
                demands = set()
                for target, position in promises:
                    demands.add((position, b0, target, True))
                if self._induced:
                    for position in positions:
                        for other in self._h_vertices:
                            if other == b0 or other in self._neighbors[b0]:
                                continue
                            demands.add((position, b0, other, False))
                items.add((frozenset(), frozenset(demands), b0))
        return (False, frozenset(items), True)

    def _promise_maps(self, b0: int, positions: Tuple[int, ...]):
        """Injective partial maps from N_H(b0) into adjacent positions."""
        neighbors = sorted(self._neighbors[b0])

        def recurse(i: int, used: Tuple[int, ...], acc: Tuple[Tuple[int, int], ...]):
            if i == len(neighbors):
                yield acc
                return
            # Option: do not promise this neighbor here.
            yield from recurse(i + 1, used, acc)
            for position in positions:
                if position not in used:
                    yield from recurse(
                        i + 1, used + (position,), acc + ((neighbors[i], position),)
                    )

        yield from recurse(0, (), ())

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        found1, items1, base1 = s1
        found2, items2, base2 = s2
        if found1 or found2:
            return (True, frozenset(), False)
        if base1 and base2:
            raise ReproError("glue: two Base symbols for one boundary vertex")
        merged = set()
        for placed1, demands1, host1 in items1:
            for placed2, demands2, host2 in items2:
                if placed1 & placed2:
                    continue  # a pattern vertex embedded twice
                host = host1 if base1 else host2
                merged.add((placed1 | placed2, demands1 | demands2, host))
        return (False, frozenset(merged), base1 or base2)

    def _forget(self, boundary: int, s: State) -> State:
        found, items, has_base = s
        if found:
            return (True, frozenset(), False)
        if not has_base:
            raise ReproError("forget: boundary vertex's Base missing")
        survivors = set()
        for placed, demands, host in items:
            here = [d for d in demands if d[0] == boundary]
            rest = frozenset(d for d in demands if d[0] != boundary)
            b0 = None if host == -1 else host
            ok = True
            sources = set()
            for _, src, tgt, positive in here:
                if positive:
                    if b0 != tgt:
                        ok = False
                        break
                    sources.add(src)
                else:
                    if b0 == tgt:
                        ok = False
                        break
            if not ok:
                continue
            if b0 is None:
                survivors.add((placed, rest, None))
                continue
            if b0 in placed:
                continue  # pattern vertex hosted twice
            promised = {tgt for _, src, tgt, positive in demands
                        if positive and src == b0}
            if not self._neighbors[b0] <= (sources | promised):
                continue  # some pattern edge of b0 can never be realized
            new_placed = placed | {b0}
            if any(
                positive and tgt in new_placed
                for _, _, tgt, positive in rest
            ):
                continue  # a promise names an already-placed vertex: dead
            if len(new_placed) == len(self._h_vertices):
                return (True, frozenset(), False)
            survivors.add((new_placed, rest, None))
        # Re-open the 'host' slot for the next boundary vertex: at this
        # boundary the deeper vertex is gone, its parent's Base is pending.
        return (False, frozenset(survivors), False)

    def _accepts(self, state: State) -> bool:
        return bool(state[0])


# ----------------------------------------------------------------------
# Composites
# ----------------------------------------------------------------------

class ProductAutomaton(TreeAutomaton):
    """Componentwise product over tuples of child state ids; acceptance
    is all/any of the children."""

    def __init__(
        self,
        scope: Sequence[Var],
        children: Sequence[TreeAutomaton],
        conjunctive: bool,
    ):
        super().__init__(scope)
        if not children:
            raise ReproError("product of zero automata")
        self._children = list(children)
        self._conjunctive = conjunctive

    def _leaf(self, symbol: BaseSymbol) -> State:
        return tuple(child.leaf(symbol) for child in self._children)

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return tuple(
            child.glue(boundary, a, b)
            for child, a, b in zip(self._children, s1, s2)
        )

    def _forget(self, boundary: int, s: State) -> State:
        return tuple(
            child.forget(boundary, a) for child, a in zip(self._children, s)
        )

    def _accepts(self, state: State) -> bool:
        verdicts = (
            child.accepts(a) for child, a in zip(self._children, state)
        )
        return all(verdicts) if self._conjunctive else any(verdicts)


class ComplementAutomaton(TreeAutomaton):
    """Negation: the inner automaton's ids and tables, flipped acceptance.

    Every automaton here is deterministic, so the complement needs no id
    space of its own: its transitions *are* the inner ones.
    """

    # Every transition is delegated, so no value-level hook ever runs.
    _leaf = _glue = _forget = _accepts = None

    def __init__(self, scope: Sequence[Var], inner: TreeAutomaton):
        super().__init__(scope)
        self._inner = inner

    def state_of(self, sid: int) -> State:
        return self._inner.state_of(sid)

    def num_classes(self) -> int:
        return self._inner.num_classes()

    def leaf(self, symbol: BaseSymbol) -> int:
        return self._inner.leaf(symbol)

    def glue(self, boundary: int, i: int, j: int) -> int:
        return self._inner.glue(boundary, i, j)

    def forget(self, boundary: int, i: int) -> int:
        return self._inner.forget(boundary, i)

    def accepts(self, sid: int) -> bool:
        return not self._inner.accepts(sid)


class ProjectionAutomaton(TreeAutomaton):
    """∃X_i: guess the projected variable's bits at each Base symbol and
    re-determinize by the subset construction (frozensets of inner ids)."""

    def __init__(self, inner: TreeAutomaton, var: Var):
        if not inner.scope or inner.scope[-1] != var:
            raise ReproError("projection must remove the innermost scope variable")
        super().__init__(inner.scope[:-1])
        self._inner = inner
        self._var = var
        self._index = len(self.scope)

    def _leaf(self, symbol: BaseSymbol) -> State:
        return frozenset(
            self._inner.leaf(extended)
            for extended in extend_symbol(symbol, self._index, self._var.sort)
        )

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return frozenset(
            self._inner.glue(boundary, a, b) for a in s1 for b in s2
        )

    def _forget(self, boundary: int, s: State) -> State:
        return frozenset(self._inner.forget(boundary, a) for a in s)

    def _accepts(self, state: State) -> bool:
        return any(self._inner.accepts(a) for a in state)


def extend_symbol(symbol: BaseSymbol, index: int, sort: Sort) -> Iterator[BaseSymbol]:
    """All extensions of ``symbol`` with membership bits for one new
    variable of the given sort at scope position ``index``."""
    if sort.is_vertex_kind:
        yield BaseSymbol(symbol.structure, symbol.vbits, symbol.ebits)
        yield BaseSymbol(symbol.structure, symbol.vbits | {index}, symbol.ebits)
        return
    positions = [pos for pos, _ in symbol.ebits]
    bits_by_pos = dict(symbol.ebits)
    for mask in range(1 << len(positions)):
        ebits = tuple(
            (
                pos,
                bits_by_pos[pos] | ({index} if mask >> slot & 1 else frozenset()),
            )
            for slot, pos in enumerate(positions)
        )
        yield BaseSymbol(symbol.structure, symbol.vbits, ebits)
