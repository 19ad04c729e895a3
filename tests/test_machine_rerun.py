"""A rerun sees the program and the machine as they are now.

``Machine.run`` lays the program out and decodes it afresh at the start
of every run, so no edit has to be announced to the engines.  Each test
drives one reused ``simple`` machine and one reused ``fast`` machine
through the same sequence of runs and edits; after every run the two
must agree on every counter, the return value and the per-region
D-cache misses.
"""

import copy

import pytest

from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime
from repro.ir.asm import parse_program
from repro.ir.instructions import Binop, Imm
from repro.machine.caches import SetAssociativeCache
from repro.machine.config import MachineConfig
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine

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
