"""Tests for the ``repro fuzz`` command and the fuzz runner.

Exit codes mirror ``repro faults``: 0 conformant, 1 discrepancies, 2
treedepth-promise violations, 3 harness errors (64 for usage errors, via
the shared ReproError handler in ``main``).
"""

import json

import pytest

from repro.algebra.cache import AutomatonCache
from repro.cli import main
from repro.faults import FaultPlan
from repro.graph import generators as gen
from repro.mso import formulas
from repro.obs.registry import MetricsRegistry, registry, set_registry
from repro.testkit import Case, CaseGenerator, FuzzConfig, run_fuzz, save_case
from repro.testkit.oracles import Reference


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def test_fuzz_smoke_is_clean(capsys):
    assert main(["fuzz", "--cases", "6", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    assert "6 cases" in out
    assert "0 discrepancies" in out


def test_fuzz_counts_cases_in_registry():
    run_fuzz(FuzzConfig(cases=4, seed=1))
    counter = registry().get("repro_fuzz_cases_total")
    assert counter.value(source="generated") == 4


def test_fuzz_replays_corpus_first(tmp_path, capsys):
    case = CaseGenerator(3).case()
    save_case(case, str(tmp_path))
    assert main(["fuzz", "--cases", "2", "--seed", "3",
                 "--corpus", str(tmp_path)]) == 0
    assert "(1 replayed)" in capsys.readouterr().out


def test_fuzz_replay_single_file(tmp_path, capsys):
    case = Case(graph=gen.path(4), d=3, formula=formulas.acyclic(),
                workload="decide", seed=5)
    path = save_case(case, str(tmp_path), meta={"kinds": ["verdict"]})
    assert main(["fuzz", "--replay", path]) == 0
    out = capsys.readouterr().out
    assert "conformant" in out
    assert "pinned kinds: verdict" in out


def test_fuzz_replay_faulty_case_round_trips(tmp_path, capsys):
    # A case with a lossy plan exercises Session.from_replay through the
    # replay round-trip oracle (FaultPlan and RetryPolicy reconstructed
    # from their JSON encodings).
    case = Case(graph=gen.cycle(5), d=3, formula=formulas.triangle_free(),
                workload="decide", seed=7,
                plan=FaultPlan(seed=11, drop_rate=0.05), retry_attempts=3)
    path = save_case(case, str(tmp_path))
    assert main(["fuzz", "--replay", path]) == 0
    assert "conformant" in capsys.readouterr().out


def test_fuzz_replay_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else", "case": {}}))
    assert main(["fuzz", "--replay", str(bad)]) == 64  # usage error


def test_fuzz_failure_writes_replay_files_and_exits_1(tmp_path, capsys):
    # A broken reference makes every case a failure; the runner must
    # shrink and emit content-addressed replay files.
    wrong = lambda case, _cache: Reference(verdict=not case.formula)
    config = FuzzConfig(cases=3, seed=2, corpus_dir=str(tmp_path),
                        max_shrinks=1, shrink_budget=40,
                        reference=wrong, metamorphic_every=0)
    report = run_fuzz(config)
    assert not report.ok
    assert report.discrepancies
    assert len(report.shrunk) == 1
    assert report.replay_files
    for path in report.replay_files:
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["format"] == "repro-testkit-case/1"
        assert payload["meta"]["kinds"]


def test_session_from_replay_round_trip():
    import json as _json

    from repro.api import Session
    from repro.faults import RetryPolicy

    g = gen.cycle(6)
    session = Session(g, 3, seed=9, inbox_order="shuffle",
                      faults=FaultPlan(seed=2, drop_rate=0.02),
                      retry=RetryPolicy(attempts=3),
                      cache=AutomatonCache(persist=False))
    result = session.decide(formulas.triangle_free())
    encoded = _json.loads(_json.dumps(session._replay_json()))
    assert encoded["retry"] == {"attempts": 3}
    rebuilt = Session.from_replay(g, 3, encoded,
                                  cache=AutomatonCache(persist=False))
    again = rebuilt.decide(formulas.triangle_free())
    assert again.verdict == result.verdict
    assert again.rounds == result.rounds
    assert again.messages == result.messages
    # Live replay_args (with real FaultPlan/RetryPolicy objects) also work.
    live = Session.from_replay(g, 3, result.replay_args,
                               cache=AutomatonCache(persist=False))
    assert live.decide(formulas.triangle_free()).verdict == result.verdict


def test_session_from_replay_rejects_unknown_keys():
    from repro.api import Session
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="unknown replay"):
        Session.from_replay(gen.path(2), 1, {"inbox_orders": "sorted"})
    with pytest.raises(ReproError, match="retry"):
        Session.from_replay(gen.path(2), 1, {"retry": {"copies": 3}})
