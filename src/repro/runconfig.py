"""One frozen configuration object for every execution surface.

Every pipeline in :mod:`repro.distributed` and the :class:`repro.api.Session`
facade share the same execution knobs — seed, inbox order, fault plan,
retry policy, bit budget, tracing, automaton cache, class codec.
:class:`RunConfig` is the single place those knobs are named and
validated: pipelines take one as ``config=``, and Session's keyword
surface funnels through :meth:`RunConfig.from_kwargs`, so an invalid
``inbox_order=`` fails identically (and typed) everywhere.

``to_json`` / ``from_json`` are the replay contract:
``Result.replay_args`` and fuzz-corpus replay files store exactly this
encoding, and :meth:`repro.api.Session.from_replay` reconstructs a
byte-identical run from it.  Only the replayable fields are serialized —
``trace`` / ``cache`` / ``codec`` hold live objects and stay local.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from .congest.runtime import INBOX_ORDERS
from .errors import ReproError

__all__ = ["RunConfig", "resolve_tracer"]


def resolve_tracer(trace: Any) -> Optional[Any]:
    """A concrete tracer for a ``RunConfig.trace`` value.

    Pipeline semantics: an explicit :class:`~repro.obs.Tracer` records
    into itself, ``True`` requests a fresh one, anything falsy falls back
    to the process-installed tracer (or none).
    """
    from .obs import Tracer, current_tracer

    if isinstance(trace, Tracer):
        return trace
    if trace:
        return Tracer()
    return current_tracer()

#: The replayable subset of fields, in their canonical JSON order.
REPLAY_FIELDS = ("seed", "inbox_order", "faults", "retry", "budget")


@dataclass(frozen=True)
class RunConfig:
    """Validated execution knobs shared by Session and every pipeline.

    Parameters mirror the historical keyword arguments:

    * ``seed`` / ``inbox_order`` — the simulator's adversarial delivery
      knobs (see :class:`repro.congest.Simulation`);
    * ``faults`` / ``retry`` — a :class:`repro.faults.FaultPlan`
      adversary and :class:`repro.faults.RetryPolicy` reliability layer;
    * ``budget`` — per-edge per-round bit budget override;
    * ``trace`` — ``True`` for a fresh :class:`repro.obs.Tracer`, or a
      Tracer instance to record into;
    * ``cache`` — an :class:`repro.algebra.cache.AutomatonCache`
      (Session-level; pipelines receive compiled automata directly);
    * ``codec`` — a :class:`repro.distributed.model_checking.ClassCodec`
      to share class ids across runs (pipeline-level).
    """

    seed: Optional[int] = None
    inbox_order: str = "arrival"
    faults: Optional[Any] = None
    retry: Optional[Any] = None
    budget: Optional[int] = None
    trace: Any = None
    cache: Optional[Any] = None
    codec: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.inbox_order not in INBOX_ORDERS:
            raise ReproError(
                f"unknown inbox order {self.inbox_order!r}; "
                f"choose from {INBOX_ORDERS}"
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_kwargs(
        cls,
        config: Optional["RunConfig"] = None,
        **kwargs: Any,
    ) -> "RunConfig":
        """Normalize Session's keyword surface into one validated config.

        ``config`` (when given) is taken whole; keyword arguments must
        then all be ``None`` — mixing both surfaces would make it
        ambiguous which value wins.  Without ``config``, keywords with
        value ``None`` fall back to the dataclass defaults, so
        ``from_kwargs(inbox_order=None)`` means the default ``"arrival"``,
        exactly like omitting the keyword — the defaults a pipeline run
        without ``config`` uses too.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ReproError(
                f"unknown run configuration key(s): {sorted(unknown)}"
            )
        if config is not None:
            clashes = sorted(k for k, v in kwargs.items() if v is not None)
            if clashes:
                raise ReproError(
                    "pass either config= or individual keyword arguments, "
                    f"not both (got config plus {clashes})"
                )
            return cls.of(config)
        return cls(**{k: v for k, v in kwargs.items() if v is not None})

    @classmethod
    def of(cls, config: Optional["RunConfig"]) -> "RunConfig":
        """``config`` itself, or the defaults when it is ``None``."""
        if config is None:
            return cls()
        if not isinstance(config, cls):
            raise ReproError(
                f"config must be a RunConfig, not {type(config).__name__}"
            )
        return config

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    # -- replay serialization ---------------------------------------------

    def replay_args(self) -> Dict[str, Any]:
        """The replayable fields with live objects (Session kwargs)."""
        return {name: getattr(self, name) for name in REPLAY_FIELDS}

    def to_json(self) -> Dict[str, Any]:
        """JSON-native replay encoding (inverse of :meth:`from_json`)."""
        replay = self.replay_args()
        if replay["faults"] is not None:
            replay["faults"] = replay["faults"].to_dict()
        if replay["retry"] is not None:
            replay["retry"] = {"attempts": replay["retry"].attempts}
        return replay

    @classmethod
    def from_json(cls, replay: Mapping[str, Any]) -> "RunConfig":
        """Decode :meth:`to_json` output (or live replay_args) strictly.

        Unknown keys are rejected — a replay file with a field this
        version cannot reproduce must fail loudly, not silently drift.
        """
        from .faults import FaultPlan, RetryPolicy

        kwargs: Dict[str, Any] = dict(replay)
        unknown = set(kwargs) - set(REPLAY_FIELDS)
        if unknown:
            raise ReproError(
                f"unknown replay argument(s): {sorted(unknown)}"
            )
        faults = kwargs.get("faults")
        if isinstance(faults, Mapping):
            kwargs["faults"] = FaultPlan.from_dict(dict(faults))
        retry = kwargs.get("retry")
        if isinstance(retry, Mapping):
            try:
                kwargs["retry"] = RetryPolicy(attempts=int(retry["attempts"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"malformed retry encoding {retry!r}: {exc}"
                ) from exc
        provided = {k: v for k, v in kwargs.items() if v is not None}
        return cls(**provided)
