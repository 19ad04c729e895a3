"""Differential check: the compiled engine vs the reference loop.

For every SPEC95-like workload, run the simulator under
``engine="simple"`` (the reference if/elif interpreter) and
``engine="fast"`` (the predecoded block engine) uninstrumented and in
every profiling configuration — path-instrumented ("Flow and HW"),
plain path frequencies, CCT-instrumented ("Context and HW", also with
backedge reads), combined flow+context, edge counting and k-iteration
paths — and require bit-identical counter snapshots, return values,
per-region miss attribution, path profiles (counts *and* per-path
metrics), every profiling table (counts, metrics and quarantined
commits) and exact CCT state (:func:`~repro.cct.merge.strict_form`:
every record, slot, address, and serialized byte).  Setjmp/longjmp
programs and simulated faults (missing runtimes, a bad ``icall``
index, call-depth overflow) must agree the same way, down to the
fault's message.

This is the acceptance gate for the engine's fused instrumentation
probes: any divergence in any of the sixteen counters, any path count,
or any CCT record on any workload is a bug in the compiled engine.
"""

import dataclasses

import pytest

from repro.cct.merge import strict_form
from repro.edit.layout import assign_layout
from repro.instrument.cctinstr import instrument_context
from repro.instrument.pathinstr import instrument_paths
from repro.ir.asm import parse_program
from repro.ir.instructions import Instruction, Kind
from repro.machine import engine
from repro.machine.config import MachineConfig
from repro.machine.counters import Event
from repro.machine.vm import Machine, MachineError
from repro.tools.pp import PP
from repro.tools.shard_runner import spec_for_workload, shard_run
from repro.workloads.suite import SPEC95, build_workload
from tests import test_machine_vm

SCALE = 0.25


def _facts(run):
    return (
        dict(run.result.counters),
        run.result.return_value,
        run.result.region_misses,
    )


def _profile_facts(run):
    """Everything a profiling run collected, in comparable form."""
    facts = {}
    if run.path_profile is not None:
        facts["paths"] = {
            fname: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
            for fname, fpp in run.path_profile.functions.items()
        }
    if run.machine.path_runtime is not None:
        facts["tables"] = [
            (table.name, table.counts, table.metrics, table.out_of_range)
            for table in run.machine.path_runtime.tables
        ]
    if run.cct is not None:
        facts["cct"] = strict_form(run.cct)
    return facts


def _assert_identical(name, config, simple_run, fast_run):
    simple_counters, simple_rv, simple_rm = _facts(simple_run)
    fast_counters, fast_rv, fast_rm = _facts(fast_run)
    diverging = {
        event: (simple_counters[event], fast_counters[event])
        for event in Event
        if simple_counters.get(event) != fast_counters.get(event)
    }
    assert not diverging, f"{name}/{config}: counter divergence {diverging}"
    assert simple_rv == fast_rv, f"{name}/{config}: return value"
    assert simple_rm == fast_rm, f"{name}/{config}: region misses"
    simple_profiles = _profile_facts(simple_run)
    fast_profiles = _profile_facts(fast_run)
    assert simple_profiles.get("paths") == fast_profiles.get("paths"), (
        f"{name}/{config}: path profiles diverge"
    )
    assert simple_profiles.get("tables") == fast_profiles.get("tables"), (
        f"{name}/{config}: profiling tables diverge"
    )
    assert simple_profiles.get("cct") == fast_profiles.get("cct"), (
        f"{name}/{config}: CCT state diverges"
    )


#: Every profiling configuration, as ``(mode, ProfileSpec overrides)``:
#: the three instrumented ones of Table 1 plus plain path frequencies,
#: CCT backedge reads, edge counting and two-iteration paths.
MODES = (
    ("flow_hw", {}),
    ("flow_freq", {}),
    ("context_hw", {}),
    ("context_hw", {"read_at_backedges": True}),
    ("context_flow", {}),
    ("edge", {"placement": "simple"}),
    ("kflow", {"k": 2}),
)


def _run_mode(pp, mode, overrides, program):
    return pp.run(pp.spec(mode, **overrides), program)


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree(name):
    program = build_workload(name, SCALE)
    simple = PP(engine="simple")
    fast = PP(engine="fast")
    _assert_identical(name, "base", simple.baseline(program), fast.baseline(program))
    for mode, overrides in MODES:
        _assert_identical(
            name,
            f"{mode}{overrides or ''}",
            _run_mode(simple, mode, overrides, program),
            _run_mode(fast, mode, overrides, program),
        )


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree_kflow(name):
    """Multi-iteration path profiling across every span: the
    k-iteration probes (packed path+layer register, cycle commits at
    back-edges, layer-indexed exit commits) must survive fusion into
    the fast engine's segments with bit-identical counters and k-path
    tables."""
    program = build_workload(name, SCALE)
    simple = PP(engine="simple")
    fast = PP(engine="fast")
    for k in (1, 4):  # k=2 runs in MODES
        _assert_identical(
            name, f"kflow[k={k}]", simple.kflow(program, k=k), fast.kflow(program, k=k)
        )


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree_under_sharding(name):
    """The sharded driver is engine-transparent: splitting two runs of
    a workload across two shards yields identical merged CCTs and
    counter totals regardless of which execution engine the workers
    use."""
    base = spec_for_workload(name, scale=SCALE, runs=2, mode="context_hw")
    simple, fast = (
        shard_run(dataclasses.replace(base, engine=engine), 2, jobs=1)
        for engine in ("simple", "fast")
    )
    diverging = {
        event: (simple.counters[event], fast.counters[event])
        for event in Event
        if simple.counters[event] != fast.counters[event]
    }
    assert not diverging, f"{name}/sharded: counter divergence {diverging}"
    assert simple.return_values == fast.return_values, f"{name}/sharded: returns"
    assert strict_form(simple.cct) == strict_form(fast.cct), f"{name}/sharded: cct"


#: The caught arm calls again at the depth the longjmp unwound, so the
#: fast engine reuses ``thrower``'s frame for ``leaf``, which reads
#: ``r3``, written there only by ``thrower``, and must see 0.
_UNWIND_THEN_CALL_ASM = """
func main(0) regs=8 {
entry:
    setjmp r0, r1
    cbr r0, caught, try
try:
    call r2, thrower(r1)
    ret 0
caught:
    call r3, leaf(r0)
    ret r3
}
func thrower(1) regs=4 {
entry:
    const r3, 5
    call r1, deeper(r0)
    ret r1
}
func deeper(1) regs=4 {
entry:
    longjmp r0, 42
}
func leaf(1) regs=4 {
entry:
    add r1, r0, r3
    ret r1
}
"""


def _assert_longjmp_agrees(asm, mode, value):
    program = parse_program(asm.replace("longjmp r0, 42", f"longjmp r0, {value}"))
    simple, fast = (
        _run_mode(PP(engine=name), mode, {}, program) for name in ("simple", "fast")
    )
    _assert_identical("setjmp", f"{mode}[{value}]", simple, fast)
    assert fast.return_value == (value or 1)


@pytest.mark.parametrize("value", [42, 0])
@pytest.mark.parametrize("mode", ["baseline", "flow_hw", "context_hw", "context_flow"])
def test_engines_agree_on_setjmp_longjmp(mode, value):
    """A longjmp that unwinds two frames back to a setjmp resume point:
    counters, interrupted path commits and the CCT unwind all agree."""
    _assert_longjmp_agrees(test_machine_vm.TestSetjmpLongjmp.ASM, mode, value)


@pytest.mark.parametrize("value", [42, 0])
@pytest.mark.parametrize("mode", ["baseline", "flow_hw", "context_hw", "context_flow"])
def test_engines_agree_on_call_after_longjmp(mode, value):
    """The same unwind through directly called frames, then a call at
    the unwound depth and its return."""
    _assert_longjmp_agrees(_UNWIND_THEN_CALL_ASM, mode, value)


def _fault_facts(program, engine_name, config=None, error=MachineError):
    """The fault message and the machine state at the raise."""
    machine = Machine(program, config, engine=engine_name)
    with pytest.raises(error) as raised:
        machine.run()
    return str(raised.value), machine.counters.snapshot(), dict(machine.region_misses)


def _bad_icall_program():
    """Ten stores, then an indirect call through an out-of-range index."""
    return parse_program(
        """
        func main(0) regs=4 {
        entry:
            alloc r0, 80
            const r1, 0
            br loop
        loop:
            store r1, [r0+0]
            add r0, r0, 8
            add r1, r1, 1
            lt r2, r1, 10
            cbr r2, loop, out
        out:
            const r3, 9
            icall r1, *r3(5)
            ret r1
        }
        """
    )


def _recursive_program():
    return parse_program(
        """
        func main(0) regs=4 {
        entry:
            call r0, main()
            ret r0
        }
        """
    )


def _indirect_recursive_program():
    """``main`` calls itself through the function table."""
    return parse_program(
        """
        program entry=main table=[main]
        func main(0) regs=4 {
        entry:
            const r1, 0
            icall r0, *r1()
            ret r0
        }
        """
    )


def _paths_without_runtime():
    program = build_workload("130.li", SCALE)
    instrument_paths(program)
    return program


def _cct_without_runtime():
    program = build_workload("130.li", SCALE)
    instrument_context(program)
    return program


def _too_many_args_program():
    return parse_program(
        """
        func main(0) regs=2 {
        entry:
            const r0, 1
            call r1, one(r0, r0)
            ret r1
        }
        func one(1) regs=2 {
        entry:
            ret r0
        }
        """
    )


def _indirect_too_many_args_program():
    """One icall site passing two arguments: its first target takes
    both, its second takes one, which only the run can tell."""
    return parse_program(
        """
        program entry=main table=[two, one]
        func main(0) regs=4 {
        entry:
            const r0, 1
            const r2, 0
            br loop
        loop:
            icall r1, *r2(r0, r0)
            add r2, r2, 1
            br loop
        }
        func two(2) regs=2 {
        entry:
            ret r1
        }
        func one(1) regs=2 {
        entry:
            ret r0
        }
        """
    )


@pytest.mark.parametrize(
    "build, config, error, message",
    [
        (
            _paths_without_runtime,
            None,
            MachineError,
            "program contains path/edge instrumentation but no profiling runtime",
        ),
        (
            _cct_without_runtime,
            None,
            MachineError,
            "program contains CCT instrumentation but no CCT runtime",
        ),
        (_bad_icall_program, None, MachineError, "indirect call through bad index 9"),
        (
            _recursive_program,
            MachineConfig(max_call_depth=32),
            MachineError,
            "call stack overflow",
        ),
        # 32 frames of 64 KB fill the stack region long before the
        # depth limit: the call past them is the memory fault.
        (
            _recursive_program,
            MachineConfig(frame_words=1 << 16),
            MemoryError,
            "simulated stack exhausted",
        ),
        (_too_many_args_program, None, MachineError, "main: too many args for one"),
        (
            _indirect_recursive_program,
            MachineConfig(max_call_depth=32),
            MachineError,
            "call stack overflow",
        ),
        (
            _indirect_recursive_program,
            MachineConfig(frame_words=1 << 16),
            MemoryError,
            "simulated stack exhausted",
        ),
        (
            _indirect_too_many_args_program,
            None,
            MachineError,
            "main: too many args for one",
        ),
    ],
    ids=[
        "no-path-runtime",
        "no-cct-runtime",
        "bad-icall",
        "call-depth",
        "stack-exhausted",
        "too-many-args",
        "icall-depth",
        "icall-stack-exhausted",
        "icall-too-many-args",
    ],
)
def test_engines_agree_on_faults(build, config, error, message):
    """Both engines raise the same fault with the same counters."""
    simple = _fault_facts(build(), "simple", config, error)
    fast = _fault_facts(build(), "fast", config, error)
    assert simple == fast
    assert simple[0].startswith(message)


#: The instructions a fast-engine closure handler may stand for: the
#: ones that change the frame stack or the jump buffers.
FRAME_KINDS = frozenset({Kind.CALL, Kind.ICALL, Kind.RET, Kind.SETJMP, Kind.LONGJMP})


def test_closure_handlers_only_change_frames(monkeypatch):
    """Decode every suite program in every mode: each closure handler
    the fast engine builds is a call, return, setjmp or longjmp; every
    other instruction is generated segment code."""
    built = []
    make_handler = engine._make_handler

    def recording(*args):
        built.append(next(a for a in args if isinstance(a, Instruction)).kind)
        return make_handler(*args)

    monkeypatch.setattr(engine, "_make_handler", recording)
    pp = PP(engine="fast")
    for name in SPEC95:
        program = build_workload(name, SCALE)
        for mode, overrides in (("baseline", {}),) + MODES:
            inst = pp.session.instrument(pp.spec(mode, **overrides), program)
            machine = Machine(inst.program, engine="fast")
            machine.path_runtime, machine.cct_runtime = inst.runtimes()
            # Lay the program out as Machine.run does before decoding.
            machine.layout = assign_layout(inst.program)
            for function in inst.program.functions.values():
                for block in function.blocks:
                    machine._decoded_block(function, block.name)
    assert built and set(built) <= FRAME_KINDS, sorted(set(built) - FRAME_KINDS)


# ---------------------------------------------------------------------------
# Call and return hand-offs: every call's frame comes from a per-depth
# pool, and calls and returns skip the block lookup whether the call is
# direct or indirect and whether a tracer is attached, so every path
# around them must still match the simple engine.
# ---------------------------------------------------------------------------


def _run_both(program, **signal):
    """The simple engine's result, once the fast engine's matches it in
    counters, region misses, return value and signals delivered."""
    results, facts = [], []
    for engine_name in ("simple", "fast"):
        machine = Machine(program, engine=engine_name)
        if signal:
            machine.install_signal(**signal)
        result = machine.run()
        results.append(result)
        facts.append(
            (
                result.counters,
                result.region_misses,
                result.return_value,
                machine.signals_delivered,
            )
        )
    assert facts[0] == facts[1]
    return results[0]


#: ``dirty`` writes a register that ``clean``, with fewer registers,
#: only reads.
_SIBLINGS = """
func dirty(1) regs=8 {
entry:
    const r3, 99
    const r7, 5
    ret r3
}
func clean(0) regs=4 {
entry:
    ret r3
}
"""

#: ``main`` calls ``dirty`` then ``clean`` from two direct call sites,
#: three times over, and sums what ``clean`` returns.
_DIRECT_SIBLINGS = """
func main(0) regs=6 {
entry:
    const r4, 0
    const r5, 0
    br loop
loop:
    call r0, dirty(r4)
    call r1, clean()
    add r5, r5, r1
    add r4, r4, 1
    lt r2, r4, 3
    cbr r2, loop, out
out:
    ret r5
}
"""

#: The same six calls from one icall site whose target alternates
#: between ``dirty`` (index 0) and ``clean`` (index 1); ``main`` sums
#: what ``clean`` returns.
_INDIRECT_SIBLINGS = """
program entry=main table=[dirty, clean]
func main(0) regs=8 {
entry:
    const r4, 0
    const r5, 0
    br loop
loop:
    and r6, r4, 1
    icall r1, *r6()
    mul r7, r1, r6
    add r5, r5, r7
    add r4, r4, 1
    lt r2, r4, 6
    cbr r2, loop, out
out:
    ret r5
}
"""


@pytest.mark.parametrize(
    "main_asm", [_DIRECT_SIBLINGS, _INDIRECT_SIBLINGS], ids=["call", "icall"]
)
def test_reused_frame_starts_with_zeroed_registers(main_asm):
    """Sibling calls run at one depth, where the fast engine reuses the
    frame: ``clean`` reads a register only ``dirty`` ever wrote, and
    must see 0 every time, also when one icall site alternates between
    the two and so between their register counts."""
    program = parse_program(main_asm + _SIBLINGS)
    assert _run_both(program).return_value == 0


#: ``f`` stores 7 into global 0; the first signal handler run copies
#: global 0 plus one into global 1, which ``main`` returns after the
#: call.  The value ``main`` returns pins where the first signal landed:
#: 1 before ``f`` ran, 8 after it returned, 0 when none came in time.
_SIGNAL_ASM = """
program entry=main globals=2
func main(0) regs=4 {
entry:
    call r0, f()
    const r1, 65536
    load r2, [r1+8]
    ret r2
}
func f(0) regs=4 {
entry:
    const r1, 65536
    const r2, 7
    store r2, [r1+0]
    ret r2
}
func tick(0) regs=4 {
entry:
    const r1, 65536
    load r3, [r1+8]
    cbr r3, done, first
first:
    load r2, [r1+0]
    add r2, r2, 1
    store r2, [r1+8]
    br done
done:
    ret 0
}
"""


@pytest.mark.parametrize(
    "period, landed",
    [(1, 1), (5, 8)],
    ids=["after-call-handoff", "after-return-handoff"],
)
def test_engines_agree_on_signal_after_handoff(period, landed):
    """A signal falling due on the segment a call hands off to is
    delivered before the callee's first instruction, and one falling
    due on the segment a return hands back to before the caller
    resumes, exactly where the simple engine takes them."""
    program = parse_program(_SIGNAL_ASM)
    assert _run_both(program, handler="tick", period=period).return_value == landed


def test_tracer_runs_keep_the_oracle_exact():
    """With a tracer attached calls and returns still hand off, and
    report each enter and exit around the hand-off (``130.li`` calls
    through its function table too): the oracle's path counts on the
    fast engine equal the simple engine's and the instrumented
    program's."""
    from repro.profiles.oracle import PathOracle

    flow = instrument_paths(build_workload("130.li", SCALE), mode="freq")
    numberings = {name: info.numbering for name, info in flow.functions.items()}
    oracles = {}
    for engine_name in ("simple", "fast"):
        machine = Machine(build_workload("130.li", SCALE), engine=engine_name)
        machine.tracer = oracles[engine_name] = PathOracle(numberings)
        machine.run()
    machine = Machine(flow.program, engine="fast")
    machine.path_runtime = flow.runtime
    machine.run()
    for name in flow.functions:
        counts = oracles["fast"].function_counts(name)
        assert counts == oracles["simple"].function_counts(name), name
        assert counts == flow.path_counts(name), name
