"""Decode-cache invalidation through block edit generations.

The fast engine validates cached decodings against
``Block.edit_gen`` — a monotonic counter bumped by every splice site —
instead of ``id(block.instrs)``: a rebound list can reuse the id of a
garbage-collected predecessor and validate a stale decoding, and an
in-place mutation never changes the id at all.  These tests pin the
cases the id scheme got wrong, plus the bulk bump of
``Machine.invalidate_decoded`` and the runtime-identity eviction that
fused probes rely on.
"""

import copy

from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime
from repro.ir.asm import parse_program
from repro.ir.function import Block
from repro.ir.instructions import Const
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


def test_note_edit_is_monotonic_across_blocks():
    a, b = Block("a", []), Block("b", [])
    assert a.edit_gen == 0 and b.edit_gen == 0
    a.note_edit()
    first = a.edit_gen
    b.note_edit()
    a.note_edit()
    assert 0 < first < b.edit_gen < a.edit_gen


def test_in_place_mutation_with_note_edit_is_picked_up():
    """Same list object, same length — only the generation changes.

    Under the old ``id(instrs) + len`` validation the second run would
    execute the stale decoding and still return 10."""
    program = parse_program(_LOOP)
    machine = Machine(program, engine="fast")
    assert machine.run().return_value == 10

    entry = program.functions["main"].block("entry")
    original_list = entry.instrs
    entry.instrs[1] = Const(entry.instrs[1].dst, 3)  # r1 = 3 iterations
    entry.note_edit()
    assert entry.instrs is original_list
    assert len(entry.instrs) == 3
    assert machine.run().return_value == 3


def _facts(result):
    return dict(result.counters), result.return_value, dict(result.region_misses)


def test_note_edit_redecodes_only_the_edited_block():
    """The per-run sweep evicts exactly the blocks whose generation
    moved: the rest of the program keeps its decodings, and the rerun
    still matches the reference interpreter on every counter."""
    program = parse_program(_LOOP)
    machine = Machine(program, engine="fast")
    simple = Machine(program, engine="simple")
    first = machine.run()
    assert _facts(first) == _facts(simple.run())
    before = dict(machine.codegen_stats)

    entry = program.functions["main"].block("entry")
    entry.instrs[0] = Const(entry.instrs[0].dst, 7)  # r0 starts at 7
    entry.note_edit()
    second = machine.run()
    assert _facts(second) == _facts(simple.run())
    assert second.return_value == first.return_value + 7
    assert machine.codegen_stats["decoded_blocks"] == before["decoded_blocks"] + 1
    assert (
        machine.codegen_stats["source_cache_misses"]
        == before["source_cache_misses"] + 1
    )


def test_invalidate_decoded_reaches_other_machines():
    """An in-place mutation the editor never saw, published through one
    machine's ``invalidate_decoded``, reaches every machine simulating
    the same program — none of them reuses its stale decoding."""
    program = parse_program(_LOOP)
    publisher = Machine(program, engine="fast")
    bystander = Machine(program, engine="fast")
    reference = Machine(program, engine="simple")
    assert publisher.run().return_value == bystander.run().return_value == 10
    reference.run()

    program.functions["main"].block("entry").instrs[1].value = 4
    publisher.invalidate_decoded()
    expected = reference.run()
    assert expected.return_value == 4
    assert _facts(bystander.run()) == _facts(expected)


def test_instrumentation_splices_bump_generations():
    program = parse_program(_LOOP)
    main = program.functions["main"]
    before = {block.name: block.edit_gen for block in main.blocks}
    runtime = ProfilingRuntime(MemoryMap().profiling.base)
    instrument_paths(program, mode="freq", placement="simple", runtime=runtime)
    changed = [
        block.name
        for block in main.blocks
        if block.name in before and block.edit_gen != before[block.name]
    ]
    assert "entry" in changed and "done" in changed


def test_invalidate_decoded_bumps_every_generation():
    program = parse_program(_LOOP)
    machine = Machine(program, engine="fast")
    machine.run()
    main = program.functions["main"]
    before = {block.name: block.edit_gen for block in main.blocks}
    machine.invalidate_decoded()
    for block in main.blocks:
        assert block.edit_gen != before[block.name]
        assert block._decode_cache is None
    assert machine.run().return_value == 10


def test_runtime_swap_evicts_fused_probe_bindings():
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
