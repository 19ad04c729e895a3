"""`ProfileSession` — the one pipeline every profiling driver runs.

A session owns the full clone → instrument → attach-runtime → run →
collect pipeline for any :class:`~repro.session.spec.ProfileSpec`.
The `PP` facade, the sharded runner, the benchmark harness, the table
experiments, and the CLI all delegate here, so this module is the
*only* place under ``src/repro`` (outside the instrument package
itself) that calls :func:`~repro.instrument.pathinstr.instrument_paths`
/ :func:`~repro.instrument.cctinstr.instrument_context` /
:func:`~repro.instrument.edgeinstr.instrument_edges` — the
single-pipeline invariant DESIGN.md documents.

Observability comes for free at this layer: every phase of the
pipeline (``clone``, ``instrument``, ``machine``, ``run``, ``collect``)
emits a structured ``phase`` event with its wall time — and, for the
run phase, the simulated instruction count and the number of blocks
the run decoded — through the session's
:class:`~repro.tools.runlog.RunLog`.  The ``machine`` phase builds the
machine and attaches the runtimes; decoding happens inside ``run``,
when the run first reaches each block.  A session built without a log
path swallows the events, keeping the pipeline unconditional.

The session allocates one :class:`~repro.machine.memory.MemoryMap`
and reuses its region bases for every run, instead of constructing a
fresh map at each call site the way the pre-session drivers did.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.cct.runtime import CCTRuntime
from repro.instrument.cctinstr import ContextInstrumentation, instrument_context
from repro.instrument.edgeinstr import EdgeInstrumentation, instrument_edges
from repro.instrument.kflowinstr import instrument_kpaths
from repro.instrument.pathinstr import FlowInstrumentation, instrument_paths
from repro.instrument.tables import ProfilingRuntime
from repro.ir.function import Program
from repro.machine.config import MachineConfig
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine, RunResult
from repro.profiles.pathprofile import PathProfile, collect_path_profile
from repro.session.spec import ProfileSpec

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle with repro.tools
    from repro.tools.runlog import RunLog

#: Pipeline phases, in execution order (the ``phase`` field of the
#: JSONL events a session emits).  A run given a ``store=`` sink emits
#: one additional ``store`` phase after ``collect``.
PHASES = ("clone", "instrument", "machine", "run", "collect")


def clone_program(program: Program) -> Program:
    """Copy a program so instrumentation can edit it freely.

    A thin name over :meth:`Program.clone`: the session and the PGO
    cycle call it through this module-level name, which is where a
    caller can wrap the clone phase.
    """
    return program.clone()


@dataclass
class ProfileRun:
    """Everything one profiling run produced."""

    label: str
    program: Program
    machine: Machine
    result: RunResult
    flow: Optional[FlowInstrumentation] = None
    edges: Optional[EdgeInstrumentation] = None
    context: Optional[ContextInstrumentation] = None
    cct: Optional[CCTRuntime] = None
    path_profile: Optional[PathProfile] = None
    #: Run id in the :class:`~repro.store.ProfileStore` this run was
    #: persisted to, when the session was given a ``store=`` sink.
    stored_as: Optional[str] = None

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def return_value(self):
        return self.result.return_value

    def overhead_vs(self, baseline: "ProfileRun") -> float:
        """Run-time ratio against a baseline run (Table 1's "x base")."""
        return self.cycles / baseline.cycles if baseline.cycles else float("inf")


@dataclass
class Instrumented:
    """An instrumented clone plus everything needed to attach a run.

    ``program`` is instrumented once and shared by every run built
    from this bundle; ``path_runtime`` is the *pristine*
    post-instrumentation profiling runtime.  :meth:`runtimes`
    materializes the per-run state: the pipeline's single run uses the
    pristine tables directly, repeated benchmark passes ask for
    ``fresh=True`` copies.
    """

    spec: ProfileSpec
    program: Program
    flow: Optional[FlowInstrumentation] = None
    context: Optional[ContextInstrumentation] = None
    edges: Optional[EdgeInstrumentation] = None
    path_runtime: Optional[ProfilingRuntime] = None
    cct_base: int = 0

    def runtimes(
        self, fresh: bool = False
    ) -> Tuple[Optional[ProfilingRuntime], Optional[CCTRuntime]]:
        """The ``(path_runtime, cct_runtime)`` pair for one run.

        ``fresh=True`` deep-copies the pristine profiling tables
        (empty counters, identical geometry and base addresses) so one
        instrumented program can back many independent runs.
        """
        path_runtime = self.path_runtime
        if fresh and path_runtime is not None:
            path_runtime = copy.deepcopy(path_runtime)
        cct = None
        if self.spec.needs_context:
            cct = CCTRuntime(
                self.cct_base,
                collect_hw=self.spec.mode == "context_hw",
                profiling=path_runtime if self.spec.per_context else None,
                by_site=self.spec.by_site,
            )
        return path_runtime, cct


class ProfileSession:
    """Runs :class:`ProfileSpec` values through the canonical pipeline."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        memory: Optional[MemoryMap] = None,
        log: Optional["RunLog"] = None,
    ):
        # Imported here, not at module top: repro.tools.__init__ pulls
        # in the PP facade, which itself imports this package.
        from repro.tools.runlog import RunLog

        self.config = config or MachineConfig()
        #: One memory map per session: every run reuses its region
        #: bases rather than allocating a fresh map per call site.
        self.memory = memory or MemoryMap()
        self.log = log or RunLog(None)

    # -- observability ---------------------------------------------------------

    def _phase(self, name: str, started: float, spec: ProfileSpec, **fields):
        self.log.emit(
            "phase",
            phase=name,
            mode=spec.mode,
            seconds=round(time.perf_counter() - started, 6),
            **fields,
        )

    # -- the pipeline ----------------------------------------------------------

    def instrument(self, spec: ProfileSpec, program: Program) -> Instrumented:
        """Phases 1–2: clone ``program`` and instrument it for ``spec``."""
        started = time.perf_counter()
        target = clone_program(program)
        self._phase("clone", started, spec)

        started = time.perf_counter()
        flow = context = edges = None
        path_runtime = None
        if spec.needs_paths:
            path_runtime = ProfilingRuntime(self.memory.profiling.base)
            if spec.mode == "kflow":
                # k=1 delegates to the flow_hw pass wholesale, which is
                # what makes k=1 kflow profiles byte-identical to it.
                flow = instrument_kpaths(
                    target,
                    k=spec.k,
                    placement=spec.placement,
                    runtime=path_runtime,
                    functions=spec.functions,
                )
            else:
                # Flow first so path commits precede CctExit (see cctinstr).
                flow = instrument_paths(
                    target,
                    mode=spec.path_mode,
                    placement=spec.placement,
                    runtime=path_runtime,
                    functions=spec.functions,
                    per_context=spec.per_context,
                )
        if spec.needs_context:
            context = instrument_context(
                target,
                functions=spec.functions,
                read_at_backedges=spec.read_at_backedges,
            )
        if spec.needs_edges:
            path_runtime = ProfilingRuntime(self.memory.profiling.base)
            edges = instrument_edges(
                target,
                placement=spec.placement,
                runtime=path_runtime,
                functions=spec.functions,
            )
        self._phase("instrument", started, spec)
        return Instrumented(
            spec=spec,
            program=target,
            flow=flow,
            context=context,
            edges=edges,
            path_runtime=path_runtime,
            cct_base=self.memory.cct.base,
        )

    def run(
        self,
        spec: ProfileSpec,
        program: Program,
        args: Optional[Sequence[int]] = None,
        *,
        store=None,
        workload: Optional[str] = None,
    ) -> ProfileRun:
        """The full pipeline: one profiling run of ``program``.

        ``args`` defaults to the spec's first input tuple, so a spec
        describing a single run is self-contained; the sharded runner
        passes each input of the set explicitly.

        ``store`` (a :class:`~repro.store.ProfileStore`) persists the
        finished run — keyed under ``workload``, defaulting to the
        code fingerprint — as a sixth ``store`` phase; the resulting
        run id lands in :attr:`ProfileRun.stored_as`.
        """
        if args is None:
            args = spec.inputs[0] if spec.inputs else ()
        inst = self.instrument(spec, program)

        started = time.perf_counter()
        machine = Machine(
            inst.program,
            copy.deepcopy(self.config),
            pic0_event=spec.pic0_event,
            pic1_event=spec.pic1_event,
            engine=spec.engine,
        )
        machine.path_runtime, machine.cct_runtime = inst.runtimes()
        self._phase("machine", started, spec, engine=machine.engine)

        started = time.perf_counter()
        result = machine.run(*args)
        self._phase(
            "run",
            started,
            spec,
            instructions=result.instructions,
            cycles=result.cycles,
            decoded_blocks=machine.codegen_stats["decoded_blocks"],
        )

        started = time.perf_counter()
        profile = None
        if inst.flow is not None:
            profile = collect_path_profile(
                inst.flow,
                cct_runtime=machine.cct_runtime if spec.per_context else None,
            )
        self._phase("collect", started, spec)
        profile_run = ProfileRun(
            spec.label,
            inst.program,
            machine,
            result,
            flow=inst.flow,
            edges=inst.edges,
            context=inst.context,
            cct=machine.cct_runtime,
            path_profile=profile,
        )
        if store is not None:
            from repro.store.store import code_fingerprint

            started = time.perf_counter()
            if workload is None:
                workload = f"inline:{code_fingerprint(program)[:12]}"
            profile_run.stored_as = store.save_run(
                spec, profile_run, workload=workload, program=program
            )
            self._phase(
                "store", started, spec, run_id=profile_run.stored_as, workload=workload
            )
        return profile_run


__all__ = [
    "Instrumented",
    "PHASES",
    "ProfileRun",
    "ProfileSession",
    "clone_program",
]
