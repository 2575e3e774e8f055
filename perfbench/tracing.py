"""Layer attribution for the traced benchmark run.

Spans are recorded from the benchmark's side only: the public functions
at each layer boundary of ``repro`` are wrapped while a traced query
runs, and restored afterwards, so an untraced query executes the
unmodified program.

Each timed call is a *frame* on one stack.  When a frame closes, its
duration is charged to its parent frame as covered time, so every
frame's self time is its duration minus the time its children took, and
summing self time per layer partitions the query's wall time exactly.
Boundaries crossed up to millions of times per query (automaton
transitions, node-program resumes) are aggregated per query as a call
count plus summed time; the others become spans with name, start, end,
parent and query id, kept in memory and written out when the run ends.
Message sends are only counted: their cost stays in the node program
that sends, as the scheduler's time is ``run_protocol`` minus resumes.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Frame name -> the layer its self time belongs to.
LAYER_OF = {
    "api.query": "api",
    "algebra.compile": "algebra.compile",
    "algebra.minimize": "algebra.minimize",
    "algebra.transition": "algebra.transition",
    "distributed.pipeline": "pipeline",
    "distributed.elimination": "elimination",
    "elimination.resume": "elimination",
    "protocol.resume": "protocol",
    "congest.run_protocol": "congest",
    "obs.report": "obs",
}

class Recorder:
    """The frame stack, this query's aggregates, and the span log.

    A frame is ``[start, covered, name, span_id]``; hot frames carry only
    the first two.  ``acc[name]`` is ``[self_s, total_s, calls]``.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[list] = []
        self.in_transition = False
        self._next_span = 0
        self.reset_query(None)

    def reset_query(self, query_id: Optional[str]) -> None:
        self.query_id = query_id
        self.acc: Dict[str, List[float]] = {
            name: [0.0, 0.0, 0] for name in LAYER_OF
        }
        self.sends = 0
        self.facts: Dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([clock(), 0.0, name, self._next_span])
        self._next_span += 1

    def exit(self) -> None:
        frame = self.stack.pop()
        start, covered, name, span_id = frame
        end = clock()
        self._charge(self.acc[name], end - start, covered)
        parent = next((f[3] for f in reversed(self.stack) if len(f) > 2),
                      None)
        self.spans.append({
            "name": name, "id": span_id, "parent": parent,
            "query": self.query_id, "start": start, "end": end,
            "self": end - start - covered,
        })

    def close_hot(self, acc: List[float]) -> None:
        start, covered = self.stack.pop()
        self._charge(acc, clock() - start, covered)

    def _charge(self, acc: List[float], duration: float,
                covered: float) -> None:
        acc[0] += duration - covered
        acc[1] += duration
        acc[2] += 1
        if self.stack:
            self.stack[-1][1] += duration

    def fact(self, key: str, value: int) -> None:
        self.facts[key] = self.facts.get(key, 0) + value

    def summary(self) -> Dict[str, Any]:
        """This query's layer self times, call counts and facts."""
        layers: Dict[str, float] = {}
        for name, (self_s, _, _) in self.acc.items():
            layer = LAYER_OF[name]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return {
            "query_s": self.acc["api.query"][1],
            "layers": layers,
            "calls": {name: acc[2] for name, acc in self.acc.items()},
            "sends": self.sends,
            "facts": dict(self.facts),
            "run_protocol_s": self.acc["congest.run_protocol"][1],
        }


# ----------------------------------------------------------------------
# Wrappers around the program's public functions
# ----------------------------------------------------------------------

def _timed(rec: Recorder, name: str, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            rec.exit()
    return wrapper


def _transition(rec: Recorder, func: Callable) -> Callable:
    """Times only the outermost transition; nested ones pass through.

    A transition has no timed children, so its time is added to the
    parent frame directly, without a frame of its own: this is the
    hottest wrapper, called about 300k times per warm-count query.
    """
    stack = rec.stack

    def wrapper(self, *args):
        if rec.in_transition:
            return func(self, *args)
        rec.in_transition = True
        start = clock()
        try:
            return func(self, *args)
        finally:
            duration = clock() - start
            rec.in_transition = False
            acc = rec.acc["algebra.transition"]
            acc[0] += duration
            acc[1] += duration
            acc[2] += 1
            if stack:
                stack[-1][1] += duration
    return wrapper


def _send(rec: Recorder, func: Callable) -> Callable:
    def wrapper(self, neighbor, payload):
        rec.sends += 1
        return func(self, neighbor, payload)
    return wrapper


def _resumed(rec: Recorder, acc: List[float], gen):
    """Drive the node program ``gen``, timing each resume into ``acc``."""
    stack = rec.stack
    value = None
    while True:
        stack.append([clock(), 0.0])
        try:
            out = gen.send(value)
        except StopIteration as stop:
            rec.close_hot(acc)
            return stop.value
        except BaseException:
            rec.close_hot(acc)
            raise
        rec.close_hot(acc)
        value = yield out


def _run_protocol(rec: Recorder, resume: str, phase: Optional[str],
                  func: Callable) -> Callable:
    """Times the scheduler and every resume of the program it drives.

    ``phase`` names the checking phase, whose rounds and messages are
    taken from the simulation result; elimination's come from
    ``build_elimination_tree``.
    """
    def wrapper(graph, program, *args, **kwargs):
        acc = rec.acc[resume]

        def traced_program(ctx):
            return _resumed(rec, acc, program(ctx))

        rec.enter("congest.run_protocol")
        try:
            result = func(graph, traced_program, *args, **kwargs)
        finally:
            rec.exit()
        if phase is not None:
            rec.fact(f"{phase}.rounds", result.rounds)
            rec.fact(f"{phase}.messages", result.metrics.total_messages)
        return result
    return wrapper


def _elimination(rec: Recorder, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        rec.enter("distributed.elimination")
        try:
            elim = func(*args, **kwargs)
        finally:
            rec.exit()
        rec.fact("elimination.rounds", elim.rounds)
        rec.fact("elimination.messages", elim.total_messages)
        return elim
    return wrapper


class Instrumentation:
    """Installs the wrappers for one query and restores the originals.

    A boundary the program no longer has is listed in ``missing``
    rather than failing the run, so a refactor shows up as an
    unattributed layer instead of a crash.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: List[str] = []
        self._plan: List[Tuple[Any, str, Callable]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._build_plan()

    def _owner(self, module: str, attr: str) -> Any:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{module}.{attr}")
            return None
        return owner

    def _add(self, module: str, attr: str, make: Callable) -> None:
        owner = self._owner(module, attr)
        if owner is not None:
            self._plan.append((owner, attr, make))

    def _add_method(self, module: str, cls: str, attr: str,
                    make: Callable) -> None:
        owner = self._owner(module, cls)
        if owner is None:
            return
        if attr not in vars(getattr(owner, cls)):
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        self._plan.append((getattr(owner, cls), attr, make))

    def _build_plan(self) -> None:
        rec = self.rec
        self._add_method("repro.algebra.cache", "AutomatonCache",
                         "automaton_with_codec",
                         lambda f: _timed(rec, "algebra.compile", f))
        automata = self._owner("repro.algebra.automata", "TreeAutomaton")
        pending = [automata.TreeAutomaton] if automata else []
        seen = set()
        while pending:
            cls = pending.pop()
            if cls not in seen:
                seen.add(cls)
                pending.extend(cls.__subclasses__())
                for attr in ("leaf", "glue", "forget"):
                    if attr in cls.__dict__:
                        self._plan.append(
                            (cls, attr, lambda f: _transition(rec, f)))
        self._add_method("repro.congest.runtime", "NodeContext", "send",
                         lambda f: _send(rec, f))
        self._add("repro.distributed.elimination", "run_protocol",
                  lambda f: _run_protocol(rec, "elimination.resume", None, f))
        for module in ("repro.distributed.model_checking",
                       "repro.distributed.counting"):
            self._add(module, "run_protocol",
                      lambda f: _run_protocol(rec, "protocol.resume",
                                              "protocol", f))
            self._add(module, "build_elimination_tree",
                      lambda f: _elimination(rec, f))
            for attr in ("engine_automaton", "minimization_stats"):
                self._add(module, attr,
                          lambda f: _timed(rec, "algebra.minimize", f))
        for attr in ("decide_pipeline", "count_pipeline"):
            self._add("repro.api", attr,
                      lambda f: _timed(rec, "distributed.pipeline", f))
        self._add("repro.api", "minimization_stats",
                  lambda f: _timed(rec, "algebra.minimize", f))
        self._add("repro.api", "build_report",
                  lambda f: _timed(rec, "obs.report", f))

    def install(self) -> None:
        for owner, attr, make in self._plan:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
