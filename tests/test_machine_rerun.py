"""A rerun sees the program and the machine as they are now, and a
finished run leaves nothing for the cyclic collector.

``Machine.run`` lays the program out and decodes it afresh at the start
of every run, so no edit has to be announced to the engines.  Each
rerun test drives one reused ``simple`` machine and one reused ``fast``
machine through the same sequence of runs and edits; after every run
the two must agree on every counter, the return value and the
per-region D-cache misses.

A fast-engine run empties its decodings when it ends, on return and on
raise alike, so reference counting frees its machine, program and
segment closures as soon as the caller drops them: the lifetime tests
check that with the cyclic collector switched off.
"""

import copy
import gc
import weakref

import pytest

from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime
from repro.ir.asm import parse_program
from repro.ir.instructions import Binop, Imm
from repro.machine import engine
from repro.machine.caches import SetAssociativeCache
from repro.machine.config import MachineConfig
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine, MachineError
from repro.tools.pp import PP
from repro.workloads.suite import build_workload
from tests import test_machine_vm
from tests.test_engine_differential import _SIGNAL_ASM, _UNWIND_THEN_CALL_ASM

_LOOP = """
func main(0) regs=4 {
entry:
    const r0, 0
    const r1, 10
    br spin
spin:
    add r0, r0, 1
    sub r1, r1, 1
    cbr r1, spin, done
done:
    ret r0
}
"""

#: Alternates between two heap words one D-cache size apart: they
#: conflict in the default direct-mapped D-cache but share a set of a
#: 2-way one of the same size.
_MEMORY = """
func main(0) regs=8 {{
entry:
    alloc r5, {words}
    const r0, 0
    const r1, 100
    br loop
loop:
    store r1, [r5+0]
    load r4, [r5+{size}]
    add r0, r0, r4
    load r4, [r5+0]
    add r0, r0, r4
    sub r1, r1, 1
    cbr r1, loop, done
done:
    ret r0
}}
""".format(
    size=MachineConfig().dcache_size, words=MachineConfig().dcache_size // 8 + 1
)


def _machines(text, config=None):
    """One simple and one fast machine sharing one parsed program."""
    program = parse_program(text)
    return program, [
        Machine(program, config, engine=name) for name in ("simple", "fast")
    ]


def _run_both(machines):
    """Run each machine once; return the return value they agree on."""
    simple, fast = (machine.run() for machine in machines)
    assert dict(fast.counters) == dict(simple.counters)
    assert fast.return_value == simple.return_value
    assert fast.region_misses == simple.region_misses
    return simple.return_value


def test_in_place_field_edit_is_seen():
    """The same instruction object, its field changed between runs."""
    program, machines = _machines(_LOOP)
    assert _run_both(machines) == 10
    program.functions["main"].block("entry").instrs[1].value = 3
    assert _run_both(machines) == 3


def test_inserted_instruction_is_laid_out_and_run():
    """A longer block moves every later address; the rerun lays the
    program out again instead of reading the old addresses."""
    program, machines = _machines(_LOOP)
    assert _run_both(machines) == 10
    spin = program.functions["main"].block("spin")
    spin.instrs.insert(0, Binop("add", 0, 0, Imm(2)))
    assert _run_both(machines) == 30


@pytest.mark.parametrize("model", ["dcache", "l2"])
def test_swapped_cache_is_used(model):
    """A cache model set between runs is the one the rerun reaches: a
    2-way D-cache in place of the direct-mapped one the first run's
    generated tag test read, or a fresh L2 behind the D-cache miss
    path."""
    config = MachineConfig(l2_enabled=True)
    _program, machines = _machines(_MEMORY, config)
    expected = sum(range(1, 101))
    assert _run_both(machines) == expected
    for machine in machines:
        if model == "dcache":
            machine.dcache = SetAssociativeCache(config.dcache_size, config.dcache_line, 2)
        else:
            machine.l2 = SetAssociativeCache(config.l2_size, config.l2_line, config.l2_assoc)
    assert _run_both(machines) == expected
    for machine in machines:
        assert 0 < getattr(machine, model).misses < 100


def test_rerun_decodes_afresh_and_compiles_nothing():
    """The rerun drops the first run's decodings and decodes every block
    again, but takes each code object from the compile cache."""
    _program, machines = _machines(_MEMORY)
    fast = machines[1]
    _run_both(machines)
    first = dict(fast.codegen_stats)
    previous = list(fast._decoded.values())
    _run_both(machines)
    second = fast.codegen_stats
    assert second["decoded_blocks"] == 2 * first["decoded_blocks"]
    assert (
        second["compile_cache_hits"] - first["compile_cache_hits"]
        == first["decoded_blocks"]
    )
    assert not any(decoded in previous for decoded in fast._decoded.values())
    # A finished run's decodings are emptied but keep their source.
    assert all(decoded.source and not decoded.steps for decoded in previous)


def test_runtime_swap_rebinds_fused_probes():
    """Fused probes bind table objects at decode time; attaching a
    fresh runtime (the benchmark's per-pass reset) must re-bind, not
    keep counting into the old runtime's tables."""
    program = parse_program(_LOOP)
    pristine = ProfilingRuntime(MemoryMap().profiling.base)
    flow = instrument_paths(
        program, mode="freq", placement="simple", runtime=pristine
    )
    table_index = flow.functions["main"].table.table_id

    machine = Machine(program, engine="fast")
    first = copy.deepcopy(pristine)
    machine.path_runtime = first
    machine.run()
    first_counts = dict(first.tables[table_index].counts)
    assert first_counts

    second = copy.deepcopy(pristine)
    machine.path_runtime = second
    machine.run()
    assert dict(second.tables[table_index].counts) == first_counts
    assert dict(first.tables[table_index].counts) == first_counts


# ---------------------------------------------------------------------------
# Lifetime: a finished run is freed by reference counting alone.
# ---------------------------------------------------------------------------


@pytest.fixture
def segments(monkeypatch):
    """Weak references to the first segment function of every block the
    fast engine decodes, with the cyclic collector off for the test."""
    refs = []
    decode_block = engine.decode_block

    def recording(machine, function, block):
        decoded = decode_block(machine, function, block)
        refs.append(weakref.ref(decoded.steps[0]))
        return decoded

    monkeypatch.setattr(engine, "decode_block", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def _assert_freed(refs, segments, engine_name):
    """The run's machine, program and segment functions are gone."""
    assert [ref() for ref in refs] == [None] * len(refs)
    assert bool(segments) == (engine_name == "fast")
    assert not any(ref() is not None for ref in segments)


@pytest.mark.parametrize("engine_name", ["simple", "fast"])
@pytest.mark.parametrize(
    "mode, overrides",
    [
        ("baseline", {}),
        ("flow_hw", {}),
        ("context_hw", {}),
        ("context_flow", {}),
        ("edge", {"placement": "simple"}),
        ("kflow", {"k": 2}),
    ],
    ids=["baseline", "flow_hw", "context_hw", "context_flow", "edge", "kflow2"],
)
def test_profile_run_is_freed_without_the_collector(
    engine_name, mode, overrides, segments
):
    """Dropping a ``ProfileRun`` frees its machine, its instrumented
    clone and every decoding, with no ``gc.collect()``."""
    pp = PP(engine=engine_name)
    run = pp.run(pp.spec(mode, **overrides), build_workload("130.li", 0.1))
    refs = [weakref.ref(run.machine), weakref.ref(run.program)]
    del run
    _assert_freed(refs, segments, engine_name)


@pytest.mark.parametrize("engine_name", ["simple", "fast"])
@pytest.mark.parametrize(
    "asm, config, signal, fault",
    [
        (
            "func main(0) regs=4 {\nentry:\n    call r0, main()\n    ret r0\n}\n",
            MachineConfig(max_call_depth=32),
            None,
            "call stack overflow",
        ),
        (test_machine_vm.TestSetjmpLongjmp.ASM, None, None, None),
        (_UNWIND_THEN_CALL_ASM, None, None, None),
        (_SIGNAL_ASM, None, {"handler": "tick", "period": 5}, None),
    ],
    ids=["call-depth", "setjmp", "call-after-longjmp", "signal"],
)
def test_machine_run_is_freed_without_the_collector(
    engine_name, asm, config, signal, fault, segments
):
    """A run that raises, unwinds through a longjmp or takes a signal
    is freed once the machine and the ``ExceptionInfo`` are dropped."""
    machine = Machine(parse_program(asm), config, engine=engine_name)
    if signal is not None:
        machine.install_signal(**signal)
    refs = [weakref.ref(machine), weakref.ref(machine.program)]
    if fault is None:
        machine.run()
    else:
        with pytest.raises(MachineError, match=fault) as raised:
            machine.run()
        del raised
    del machine
    _assert_freed(refs, segments, engine_name)
