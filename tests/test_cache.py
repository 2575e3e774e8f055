"""Tests for the compile-and-cache layer (:mod:`repro.algebra.cache`).

The acceptance bar: two compilations of the same formula — in fresh
caches, with or without a disk round-trip — must serialize to identical
transition-table bytes; cache hits must not change verdicts; bumping the
cache version must invalidate on-disk entries.
"""

import pytest

from repro.algebra import (
    CACHE_VERSION,
    AutomatonCache,
    cache_key,
    cached_compile,
    default_cache,
    set_default_cache,
    transition_table_bytes,
)
from repro.api import Session
from repro.graph import generators as gen
from repro.mso import formulas


@pytest.fixture(scope="module")
def network():
    return gen.random_bounded_treedepth(12, 3, seed=5)


def _warmed_cache(directory, network, version=CACHE_VERSION):
    """A fresh cache whose triangle_free entry was warmed by one run."""
    cache = AutomatonCache(directory, version=version)
    session = Session(network, d=3, cache=cache)
    result = session.decide(formulas.triangle_free())
    return cache, result


# -- cache keys -------------------------------------------------------------

def test_cache_key_is_stable_and_label_order_insensitive():
    phi = formulas.triangle_free()
    key = cache_key(phi, (), d=3, labels=("a", "b"))
    assert key == cache_key(phi, (), d=3, labels=("b", "a"))
    assert key != cache_key(phi, (), d=4, labels=("a", "b"))
    assert key != cache_key(phi, (), d=3, labels=("a", "b"), singletons=True)
    assert key != cache_key(formulas.acyclic(), (), d=3, labels=("a", "b"))
    assert key != cache_key(phi, (), d=3, labels=("a", "b"),
                            version=CACHE_VERSION + 1)


# -- table bytes ------------------------------------------------------------

def test_double_compile_yields_identical_table_bytes(tmp_path, network):
    cache_a, result_a = _warmed_cache(tmp_path / "a", network)
    cache_b, result_b = _warmed_cache(tmp_path / "b", network)
    automaton_a = cache_a.automaton(formulas.triangle_free(), d=3)
    automaton_b = cache_b.automaton(formulas.triangle_free(), d=3)
    assert automaton_a is not automaton_b
    assert transition_table_bytes(automaton_a) \
        == transition_table_bytes(automaton_b)
    assert result_a.verdict == result_b.verdict
    assert result_a.rounds == result_b.rounds


def test_disk_roundtrip_preserves_warm_tables(tmp_path, network):
    cache_a, _ = _warmed_cache(tmp_path, network)
    warmed = transition_table_bytes(
        cache_a.automaton(formulas.triangle_free(), d=3)
    )

    cache_b = AutomatonCache(tmp_path)
    automaton = cache_b.automaton(formulas.triangle_free(), d=3)
    assert cache_b.disk_loads == 1
    assert cache_b.misses == 0
    assert transition_table_bytes(automaton) == warmed


# -- hits do not change verdicts --------------------------------------------

def test_cache_hits_keep_verdicts_identical_across_seeds(tmp_path, network):
    cache = AutomatonCache(tmp_path)
    phi = formulas.k_colorable(2)
    cold = Session(network, d=3, cache=cache, seed=0).decide(phi)
    assert cache.misses == 1
    verdicts = [cold.verdict]
    for seed in (1, 2, 3):
        warm = Session(network, d=3, cache=cache, seed=seed).decide(phi)
        verdicts.append(warm.verdict)
    assert cache.hits >= 3
    assert len(set(verdicts)) == 1
    # Same seed, warm cache: the whole execution replays identically.
    again = Session(network, d=3, cache=cache, seed=0).decide(phi)
    assert (again.verdict, again.rounds, again.messages) \
        == (cold.verdict, cold.rounds, cold.messages)


# -- invalidation -----------------------------------------------------------

def test_version_bump_misses_stale_disk_entries(tmp_path, network):
    _warmed_cache(tmp_path, network)
    assert list(tmp_path.glob("*.pkl"))

    bumped = AutomatonCache(tmp_path, version=CACHE_VERSION + 1)
    bumped.automaton(formulas.triangle_free(), d=3)
    assert bumped.disk_loads == 0
    assert bumped.misses == 1


def test_invalidate_drops_memory_and_disk(tmp_path, network):
    cache, _ = _warmed_cache(tmp_path, network)
    phi = formulas.triangle_free()
    assert cache.invalidate(phi, d=3)
    assert not list(tmp_path.glob("*.pkl"))
    cache.automaton(phi, d=3)
    assert cache.misses == 2  # the Session miss + the recompile
    assert not cache.invalidate(formulas.acyclic(), d=3)


def test_clear_empties_cache_directory(tmp_path, network):
    cache, _ = _warmed_cache(tmp_path, network)
    assert cache.clear() >= 1
    assert not list(tmp_path.glob("*.pkl"))


def test_save_warm_rewrites_only_grown_entries(tmp_path, network):
    cache = AutomatonCache(tmp_path)
    session = Session(network, d=3, cache=cache)
    session.decide(formulas.triangle_free())  # decide() already saves warm
    assert cache.save_warm() == 0  # nothing grew since
    # A different graph exercises new table entries on the same automaton.
    other = gen.random_bounded_treedepth(16, 3, seed=8)
    Session(other, d=3, cache=cache).decide(formulas.triangle_free())
    assert cache.save_warm() == 0  # facade saved again; still clean


def test_counts_on_new_graphs_do_not_rewrite_a_warm_entry(tmp_path):
    """Join-memo growth is not table growth: once the transitions are
    warm, counting on new graphs leaves the persisted entry alone."""
    cache = AutomatonCache(tmp_path)
    phi = formulas.triangle_assignment()[0]
    Session(gen.star(3), d=3, cache=cache).count(phi)  # warms the tables
    (automaton, _), = cache._memory.values()
    joins = len(automaton._joins)
    stores = []
    cache._store = lambda key, entry: stores.append(key)
    for leaves in (4, 5, 6):
        assert Session(gen.star(leaves), d=3, cache=cache).count(phi).count == 0
    assert len(automaton._joins) > joins  # the new graphs did join anew
    assert stores == []


def test_version_bump_still_answers_correctly(tmp_path, network):
    # Invalidation must cost only a recompile, never a different verdict.
    _, stale = _warmed_cache(tmp_path, network)
    bumped_cache, fresh = _warmed_cache(tmp_path, network,
                                        version=CACHE_VERSION + 1)
    assert fresh.verdict == stale.verdict
    assert bumped_cache.misses == 1
    # Both generations coexist on disk under distinct keys.
    assert len(list(tmp_path.glob("*.pkl"))) == 2


def test_repro_no_cache_disables_persistence(tmp_path, network, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cache = AutomatonCache(tmp_path)
    assert cache.persist is False
    session = Session(network, d=3, cache=cache)
    result = session.decide(formulas.triangle_free())
    baseline = Session(network, d=3,
                       cache=AutomatonCache(persist=False))
    assert result.verdict == baseline.decide(formulas.triangle_free()).verdict
    assert not list(tmp_path.glob("*.pkl"))  # computed, never touched disk
    # In-memory memoization keeps working.
    session.decide(formulas.triangle_free())
    assert cache.hits >= 1


def test_repro_no_cache_skips_stale_disk_entries(tmp_path, network,
                                                 monkeypatch):
    _warmed_cache(tmp_path, network)  # persisted by a normal cache
    assert list(tmp_path.glob("*.pkl"))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    isolated = AutomatonCache(tmp_path)
    isolated.automaton(formulas.triangle_free(), d=3)
    assert isolated.disk_loads == 0  # never read, even though files exist
    assert isolated.misses == 1


def test_cached_compile_uses_default_cache(tmp_path):
    previous = default_cache()
    try:
        set_default_cache(AutomatonCache(tmp_path))
        first = cached_compile(formulas.triangle_free(), (), d=3)
        second = cached_compile(formulas.triangle_free(), (), d=3)
        assert first is second
        assert default_cache().hits == 1
    finally:
        set_default_cache(previous)


# -- stats ------------------------------------------------------------------

def test_stats_reports_entries_counters_and_state_counts(tmp_path, network):
    cache, _ = _warmed_cache(tmp_path, network)
    Session(network, d=3, cache=cache).decide(formulas.acyclic())
    stats = cache.stats()
    assert stats["directory"] == str(tmp_path)
    assert stats["persist"] is True
    assert stats["memory_entries"] == 2
    assert stats["disk_entries"] >= 1
    assert stats["disk_bytes"] > 0
    assert stats["misses"] == 2
    assert len(stats["entries"]) == 2
    assert all(e["table_entries"] > 0 for e in stats["entries"])
    # Each entry's class count is its automaton's materialized state ids,
    # and every id sits in the tables that table_entries counts.
    assert all(
        0 < e["classes"] < e["table_entries"] for e in stats["entries"]
    )


def test_stats_counts_disk_footprint_only_when_persisting(network):
    cache = AutomatonCache(persist=False)
    Session(network, d=3, cache=cache).decide(formulas.acyclic())
    stats = cache.stats()
    assert stats["persist"] is False
    assert stats["disk_entries"] == 0
    assert stats["disk_bytes"] == 0
    assert stats["memory_entries"] == 1


def test_cache_stats_cli(tmp_path, network, monkeypatch, capsys):
    from repro.cli import main

    _warmed_cache(tmp_path / "cli", network)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "automaton cache:" in out
    assert "on disk" in out
    assert "hits" in out
