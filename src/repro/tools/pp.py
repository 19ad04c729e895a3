"""PP — the Path Profiler (§5), as a facade over :mod:`repro.session`.

``PP`` holds a profiler *configuration* (machine config, PIC events,
default placement, engine) and turns it into declarative
:class:`~repro.session.ProfileSpec` values that one shared
:class:`~repro.session.ProfileSession` executes.  One method per
profiling configuration of Table 1 survives for convenience:

* :meth:`PP.baseline` — the uninstrumented run (free-running counters);
* :meth:`PP.flow_hw` — hardware metrics along intraprocedural paths
  ("Flow and HW");
* :meth:`PP.context_hw` — hardware metrics per calling context
  ("Context and HW");
* :meth:`PP.context_flow` — path frequencies per calling context
  ("Context and Flow");
* :meth:`PP.flow_freq` — plain path profiling (the §6.1 baseline);
* :meth:`PP.edge_profile` — the qpt-style edge-profiling comparator;
* :meth:`PP.kflow` — hardware metrics along paths spanning up to k
  loop iterations (multi-iteration Ball–Larus; k=1 equals flow_hw).

Each is a one-liner: build a spec with :meth:`PP.spec`, run it with
:meth:`PP.run`.  Drivers that want the pipeline directly (sharding,
benchmarks, experiments) use the session layer themselves.

Every run clones the input program (:meth:`~repro.ir.function.Program.clone`)
before instrumenting, so one program object can be profiled under
every configuration.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.function import Program
from repro.machine.config import MachineConfig
from repro.machine.counters import Event
from repro.session import ProfileRun, ProfileSession, ProfileSpec, clone_program

__all__ = ["PP", "ProfileRun", "clone_program"]


class PP:
    """The profiler front end; see the module docstring."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        pic0_event: Event = Event.INSTRS,
        pic1_event: Event = Event.DC_MISS,
        placement: str = "spanning_tree",
        engine: Optional[str] = None,
    ):
        self.config = config or MachineConfig()
        self.pic0_event = pic0_event
        self.pic1_event = pic1_event
        self.placement = placement
        #: Execution engine for every machine this profiler creates
        #: (None defers to the Machine default / ``REPRO_ENGINE``).
        self.engine = engine
        self.session = ProfileSession(config=self.config)

    # -- the declarative core --------------------------------------------------

    def spec(
        self,
        mode: str,
        placement: Optional[str] = None,
        functions: Optional[Sequence[str]] = None,
        **overrides,
    ) -> ProfileSpec:
        """A :class:`ProfileSpec` carrying this profiler's defaults."""
        return ProfileSpec(
            mode=mode,
            pic0_event=self.pic0_event,
            pic1_event=self.pic1_event,
            placement=placement if placement is not None else self.placement,
            engine=self.engine,
            functions=None if functions is None else tuple(functions),
            **overrides,
        )

    def run(
        self, spec: ProfileSpec, program: Program, args: Sequence = ()
    ) -> ProfileRun:
        """Execute one spec through the shared session pipeline."""
        return self.session.run(spec, program, args)

    # -- the six named configurations ------------------------------------------

    def baseline(self, program: Program, args: Sequence = ()) -> ProfileRun:
        return self.run(self.spec("baseline"), program, args)

    def flow_hw(
        self,
        program: Program,
        args: Sequence = (),
        functions: Optional[Sequence[str]] = None,
    ) -> ProfileRun:
        return self.run(self.spec("flow_hw", functions=functions), program, args)

    def flow_freq(
        self,
        program: Program,
        args: Sequence = (),
        functions: Optional[Sequence[str]] = None,
        placement: Optional[str] = None,
    ) -> ProfileRun:
        return self.run(
            self.spec("flow_freq", placement=placement, functions=functions),
            program,
            args,
        )

    def context_hw(
        self,
        program: Program,
        args: Sequence = (),
        functions: Optional[Sequence[str]] = None,
        read_at_backedges: bool = False,
        by_site: bool = True,
    ) -> ProfileRun:
        return self.run(
            self.spec(
                "context_hw",
                functions=functions,
                read_at_backedges=read_at_backedges,
                by_site=by_site,
            ),
            program,
            args,
        )

    def context_flow(
        self,
        program: Program,
        args: Sequence = (),
        functions: Optional[Sequence[str]] = None,
        by_site: bool = True,
    ) -> ProfileRun:
        return self.run(
            self.spec("context_flow", functions=functions, by_site=by_site),
            program,
            args,
        )

    def edge_profile(
        self,
        program: Program,
        args: Sequence = (),
        placement: str = "simple",
        functions: Optional[Sequence[str]] = None,
    ) -> ProfileRun:
        return self.run(
            self.spec("edge", placement=placement, functions=functions),
            program,
            args,
        )

    def kflow(
        self,
        program: Program,
        args: Sequence = (),
        k: int = 1,
        functions: Optional[Sequence[str]] = None,
    ) -> ProfileRun:
        return self.run(self.spec("kflow", functions=functions, k=k), program, args)
