"""RunConfig: the single validated configuration surface.

Covers the from_kwargs funnel (None-means-default, the
config-vs-kwargs clash) that Session's keywords go through,
inbox-order validation, the JSON replay round-trip (including refusal
of retired options such as ``engine``), and the Session/pipeline
integration points: pipelines take run knobs only as ``config=``.
"""

import dataclasses
import inspect
import json

import pytest

from repro.algebra import compile_formula
from repro.api import Result, RunConfig, Session
from repro.distributed import (
    build_elimination_tree,
    count_pipeline,
    decide_pipeline,
    optimize_pipeline,
    optmarked_distributed,
)
from repro.congest import run_protocol
from repro.errors import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import generators as gen
from repro.mso import formulas
from repro.runconfig import REPLAY_FIELDS

#: The run knobs pipelines used to take one keyword each.
PER_KNOB_KEYWORDS = (
    "budget", "tracer", "inbox_order", "seed", "faults", "retry", "codec",
)


def test_defaults():
    cfg = RunConfig()
    assert cfg.inbox_order == "arrival"
    assert cfg.seed is None
    assert cfg.faults is None


def test_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3


def test_unknown_engine_typed():
    # ``engine`` is no RunConfig field: asking for one is a TypeError
    # that names the offending keyword, never a silently ignored option.
    with pytest.raises(TypeError) as exc:
        RunConfig(engine="warp")
    assert "engine" in str(exc.value)


def test_unknown_inbox_order():
    with pytest.raises(ReproError):
        RunConfig(inbox_order="chaotic")


def test_from_kwargs_none_means_default():
    cfg = RunConfig.from_kwargs(budget=None, seed=None, inbox_order=None)
    assert cfg == RunConfig()


def test_from_kwargs_config_passthrough():
    cfg = RunConfig(seed=9, inbox_order="sorted")
    assert RunConfig.from_kwargs(cfg) is cfg


def test_from_kwargs_clash_rejected():
    cfg = RunConfig(seed=9)
    with pytest.raises(ReproError, match="not both"):
        RunConfig.from_kwargs(cfg, inbox_order="sorted")
    # None-valued kwargs do not clash: they mean "unspecified".
    assert RunConfig.from_kwargs(cfg, inbox_order=None) is cfg


def test_from_kwargs_unknown_key():
    with pytest.raises(ReproError, match="unknown run configuration"):
        RunConfig.from_kwargs(warp_factor=9)


def test_with_overrides_revalidates():
    cfg = RunConfig()
    assert cfg.with_overrides(inbox_order="sorted").inbox_order == "sorted"
    with pytest.raises(ReproError):
        cfg.with_overrides(inbox_order="chaotic")


def test_json_round_trip():
    cfg = RunConfig(
        seed=7, inbox_order="sorted",
        faults=FaultPlan(seed=3, drop_rate=0.1),
        retry=RetryPolicy(attempts=2), budget=64,
    )
    encoded = json.loads(json.dumps(cfg.to_json()))
    decoded = RunConfig.from_json(encoded)
    assert decoded.replay_args() == cfg.replay_args()


def test_from_json_rejects_unknown_keys():
    with pytest.raises(ReproError, match="unknown replay"):
        RunConfig.from_json({"seed": 1, "warp": True})


def test_from_json_rejects_nonreplay_fields():
    # trace/cache/codec hold live objects and must never round-trip.
    assert set(RunConfig(seed=1).to_json()) == set(REPLAY_FIELDS)
    with pytest.raises(ReproError):
        RunConfig.from_json({"trace": True})


def test_session_accepts_config():
    g = gen.random_bounded_treedepth(12, 3, seed=4)
    cfg = RunConfig(seed=5, inbox_order="reversed")
    session = Session(g, 3, config=cfg)
    assert session.inbox_order == "reversed"
    assert session.seed == 5
    result = session.decide(formulas.triangle_free())
    assert isinstance(result, Result)
    assert result.replay_args["inbox_order"] == "reversed"


def test_session_config_kwargs_clash():
    g = gen.path(4)
    with pytest.raises(ReproError, match="not both"):
        Session(g, 2, seed=1, config=RunConfig())


def test_session_replay_round_trip():
    g = gen.random_bounded_treedepth(12, 3, seed=4)
    first = Session(
        g, 3, seed=11, inbox_order="shuffle",
    ).decide(formulas.triangle_free())
    replay = json.loads(json.dumps(dict(first.replay_args)))
    second = Session.from_replay(g, 3, replay).decide(
        formulas.triangle_free()
    )
    assert second.replay_args["inbox_order"] == "shuffle"
    assert (first.verdict, first.rounds, first.messages,
            first.max_payload_bits) == \
           (second.verdict, second.rounds, second.messages,
            second.max_payload_bits)


def test_pipelines_accept_config():
    # Pipelines take run knobs only as one config=; it runs the same
    # schedule as a Session given the same knobs.
    g = gen.random_bounded_treedepth(12, 3, seed=4)
    automaton = compile_formula(formulas.triangle_free())
    cfg = RunConfig(seed=2, inbox_order="reversed")
    via_config = decide_pipeline(automaton, g, 3, config=cfg)
    via_session = Session(g, 3, config=cfg).decide(formulas.triangle_free())
    assert via_config.accepted == via_session.verdict
    assert via_config.total_rounds == via_session.rounds
    assert via_config.total_messages == via_session.messages


def test_pipelines_have_no_per_knob_keywords():
    for entry in (decide_pipeline, optimize_pipeline, count_pipeline,
                  optmarked_distributed, build_elimination_tree):
        params = inspect.signature(entry).parameters
        assert "config" in params, entry.__name__
        assert not set(params) & set(PER_KNOB_KEYWORDS), entry.__name__
    automaton = compile_formula(formulas.triangle_free())
    for knob in PER_KNOB_KEYWORDS:
        with pytest.raises(TypeError, match=knob):
            decide_pipeline(automaton, gen.path(4), 2, **{knob: None})
    with pytest.raises(ReproError, match="must be a RunConfig"):
        decide_pipeline(automaton, gen.path(4), 2, config={"seed": 1})


def test_pipeline_and_session_share_run_defaults():
    # Pipelines and Session share the RunConfig defaults.
    g = gen.random_bounded_treedepth(10, 3, seed=1)
    formula, variables = formulas.triangle_assignment()
    automaton = compile_formula(formula, variables)
    default_run = count_pipeline(automaton, g, 3)
    config_run = count_pipeline(automaton, g, 3, config=RunConfig())
    assert default_run == config_run
    assert Session(g, 3).config == RunConfig()


def test_replay_of_removed_engine_fails_loudly():
    # The engine knob was retired with the second scheduler; a replay
    # carrying any engine name is refused by the strict unknown-key
    # check, never run on a silently different setup.
    g = gen.path(4)
    for name in ("naive", "batched", "vectorized"):
        with pytest.raises(ReproError, match="unknown replay"):
            RunConfig.from_json({"seed": 1, "engine": name})
        with pytest.raises(ReproError, match="unknown replay"):
            Session.from_replay(g, 2, {"engine": name})


def test_replay_of_removed_minimize_option_fails_loudly():
    # The minimize knob was retired; an old replay carrying it must be
    # refused by the strict unknown-key check, never run differently.
    g = gen.path(4)
    for value in (None, False, True):
        with pytest.raises(ReproError, match="unknown replay"):
            RunConfig.from_json({"seed": 1, "minimize": value})
        with pytest.raises(ReproError, match="unknown replay"):
            Session.from_replay(g, 2, {"minimize": value})


def test_unknown_engine_everywhere():
    # ``engine`` is an option of no execution surface any more.
    g = gen.path(4)
    with pytest.raises(TypeError, match="engine"):
        Session(g, 2, engine="batched")
    automaton = compile_formula(formulas.triangle_free())
    with pytest.raises(TypeError, match="engine"):
        decide_pipeline(automaton, g, 2, engine="batched")
    with pytest.raises(TypeError, match="engine"):
        RunConfig(engine="batched")
    with pytest.raises(ReproError, match="unknown run configuration"):
        RunConfig.from_kwargs(engine="batched")
    with pytest.raises(TypeError, match="engine"):
        run_protocol(g, lambda ctx: iter(()), engine="batched")
