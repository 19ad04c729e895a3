"""`ProfileSpec` — the declarative description of one profiling run.

The paper's PP tool is a single pipeline: instrument a program, attach
runtime state, run it, collect the profile.  Every driver in this repo
(the `PP` facade, the sharded runner, the benchmark harness, the table
experiments, the CLI) describes such a run with the same handful of
knobs, so those knobs live here as one frozen, JSON-round-trippable
value.  A spec is pure data: it names *what* to profile, never holds
programs, machines, or runtime tables — :class:`repro.session.session.
ProfileSession` turns a spec into a run.

Validation happens at construction: an unknown mode or placement, or a
field of the wrong type (say, from a hand-edited manifest), is a
:class:`ProfileSpecError` the moment the spec is built, not a silent
fallback or a ``TypeError`` deep inside a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Tuple

from repro.machine.counters import Event

#: The six profiling configurations of Table 1 (plus the qpt-style
#: edge-profiling comparator and the §6.1 frequency-only baseline),
#: and the multi-iteration path mode (``kflow``: paths crossing up to
#: ``k`` loop backedges, after D'Elia & Demetrescu).
MODES = (
    "baseline",
    "flow_hw",
    "flow_freq",
    "context_hw",
    "context_flow",
    "edge",
    "kflow",
)

#: Counter-increment placement strategies ([BL94] vs naive).
PLACEMENTS = ("simple", "spanning_tree")

#: Execution engines (see :mod:`repro.machine`): the reference
#: interpreter and the predecoded block engine.  ``ProfileSpec.engine``
#: is one of these or ``None`` (defer to the Machine default /
#: ``REPRO_ENGINE``).
ENGINES = ("simple", "fast")

#: Human-facing run labels (``ProfileRun.label``), per mode.
LABELS = {
    "baseline": "base",
    "flow_hw": "flow+hw",
    "flow_freq": "flow",
    "context_hw": "context+hw",
    "context_flow": "context+flow",
    "edge": "edge",
    "kflow": "kflow+hw",
}


class ProfileSpecError(ValueError):
    """A profiling spec is malformed (unknown mode, placement or event, a
    field of the wrong type)."""


def _is_int(value) -> bool:
    """An integer in the JSON sense: ``True`` and ``False`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of(value, item_ok) -> bool:
    """Is ``value`` a list or tuple whose every item passes ``item_ok``?"""
    return isinstance(value, (list, tuple)) and all(item_ok(item) for item in value)


def _coerce_event(value, name: str) -> Event:
    if isinstance(value, Event):
        return value
    try:
        if isinstance(value, str):
            return Event[value]
        return Event(value)
    except (KeyError, ValueError):
        raise ProfileSpecError(
            f"unknown {name} {value!r}; options: {[e.name for e in Event]}"
        ) from None


@dataclass(frozen=True)
class ProfileSpec:
    """Everything that determines one profiling run, as pure data.

    * ``mode`` — one of :data:`MODES`;
    * ``pic0_event``/``pic1_event`` — what the two PIC registers count;
    * ``placement`` — counter placement (``spanning_tree`` or ``simple``);
    * ``engine`` — execution engine override, one of :data:`ENGINES`
      (``None`` defers to the Machine default / ``REPRO_ENGINE``);
    * ``by_site`` — site-sensitive CCT records (§4.1);
    * ``read_at_backedges`` — extra counter reads at loop backedges
      (context mode, §4.2);
    * ``functions`` — restrict instrumentation to these functions
      (``None`` instruments everything);
    * ``inputs`` — the input set: one integer-argument tuple per run
      of ``main``;
    * ``k`` — iteration span for ``kflow`` mode (paths cross up to
      ``k`` loop backedges; defaults to 1 there, must be ``None`` for
      every other mode).
    """

    mode: str = "baseline"
    pic0_event: Event = Event.INSTRS
    pic1_event: Event = Event.DC_MISS
    placement: str = "spanning_tree"
    engine: Optional[str] = None
    by_site: bool = True
    read_at_backedges: bool = False
    functions: Optional[Tuple[str, ...]] = None
    inputs: Tuple[Tuple[int, ...], ...] = ((),)
    k: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ProfileSpecError(
                f"unknown mode {self.mode!r}; options: {MODES}"
            )
        if self.placement not in PLACEMENTS:
            raise ProfileSpecError(
                f"unknown placement {self.placement!r}; options: {PLACEMENTS}"
            )
        if self.engine is not None and self.engine not in ENGINES:
            raise ProfileSpecError(
                f"unknown engine {self.engine!r}; options: {ENGINES}"
            )
        object.__setattr__(
            self, "pic0_event", _coerce_event(self.pic0_event, "pic0_event")
        )
        object.__setattr__(
            self, "pic1_event", _coerce_event(self.pic1_event, "pic1_event")
        )
        for flag in ("by_site", "read_at_backedges"):
            if not isinstance(getattr(self, flag), bool):
                raise ProfileSpecError(
                    f"{flag} must be true or false, got {getattr(self, flag)!r}"
                )
        if self.functions is not None:
            if not _is_list_of(self.functions, lambda name: isinstance(name, str)):
                raise ProfileSpecError(
                    f"functions must be a list of function names or null, "
                    f"got {self.functions!r}"
                )
            object.__setattr__(self, "functions", tuple(self.functions))
        if not _is_list_of(self.inputs, lambda args: _is_list_of(args, _is_int)):
            raise ProfileSpecError(
                f"inputs must be a list of integer argument lists, got {self.inputs!r}"
            )
        object.__setattr__(
            self, "inputs", tuple(tuple(args) for args in self.inputs)
        )
        if self.mode == "kflow":
            if self.k is None:
                object.__setattr__(self, "k", 1)
            if not _is_int(self.k):
                raise ProfileSpecError(
                    f"k must be an integer >= 1 for kflow mode, got {self.k!r}"
                )
            if self.k < 1:
                raise ProfileSpecError(
                    f"k must be an integer >= 1 for kflow mode, got {self.k}"
                )
        elif self.k is not None:
            raise ProfileSpecError(
                f"k only applies to kflow mode, not {self.mode!r} (got k={self.k!r})"
            )

    # -- derived structure -----------------------------------------------------

    @property
    def label(self) -> str:
        return LABELS[self.mode]

    @property
    def needs_paths(self) -> bool:
        """Does this mode carry Ball–Larus path instrumentation?"""
        return self.mode in ("flow_hw", "flow_freq", "context_flow", "kflow")

    @property
    def needs_context(self) -> bool:
        """Does this mode carry CCT instrumentation?"""
        return self.mode in ("context_hw", "context_flow")

    @property
    def needs_edges(self) -> bool:
        return self.mode == "edge"

    @property
    def path_mode(self) -> str:
        """What the path probes record: HW metrics or frequency only."""
        return "hw" if self.mode in ("flow_hw", "kflow") else "freq"

    @property
    def per_context(self) -> bool:
        """Are path counters stored in the current CCT record?"""
        return self.mode == "context_flow"

    def with_inputs(self, inputs: Sequence[Sequence[int]]) -> "ProfileSpec":
        """The same configuration over a different input set."""
        return replace(self, inputs=tuple(tuple(args) for args in inputs))

    # -- serialization ---------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 of the canonical JSON encoding of this spec.

        The profile store's compatibility key: two runs are diffable
        iff their spec digests agree, because the digest pins every
        knob that shapes the profile — mode, events, placement,
        instrumentation scope, and the input set.
        """
        import hashlib
        import json

        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()

    def to_json(self) -> dict:
        """A JSON-safe description; inverse of :meth:`from_json`.

        ``k`` is emitted only when set (kflow mode), so the digests and
        manifests of the pre-kflow modes are byte-for-byte unchanged.
        """
        raw = {
            "mode": self.mode,
            "pic0_event": self.pic0_event.name,
            "pic1_event": self.pic1_event.name,
            "placement": self.placement,
            "engine": self.engine,
            "by_site": self.by_site,
            "read_at_backedges": self.read_at_backedges,
            "functions": None if self.functions is None else list(self.functions),
            "inputs": [list(args) for args in self.inputs],
        }
        if self.k is not None:
            raw["k"] = self.k
        return raw

    @classmethod
    def from_json(cls, raw: dict) -> "ProfileSpec":
        """Rebuild a spec from :meth:`to_json` (unknown keys ignored)."""
        if not isinstance(raw, dict):
            raise ProfileSpecError(f"profile spec must be an object, got {raw!r}")
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in raw.items() if key in known}
        return cls(**kwargs)


__all__ = ["ENGINES", "LABELS", "MODES", "PLACEMENTS", "ProfileSpec", "ProfileSpecError"]
