"""CounterTable hash-path behaviour (§2's fallback for path-rich functions).

Functions with more potential paths than ``ARRAY_PATH_LIMIT`` get a
hash table: counters live in ``HASH_BUCKETS`` buckets of
``1 + slot_words`` words (key word first), every update pays a
key-compare load plus three charged instructions (hash multiply, mask,
compare), and distinct indices can collide into one bucket's simulated
slot.  The fast engine never fuses hash-table hooks — its segment code
makes the simple engine's own runtime call for them — so both engines
must drive the exact same traffic.  The combined mode's per-context
commits follow the function's table spec the same way: fused for an
array spec, the runtime call for a hash spec.
"""

from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import (
    ARRAY_PATH_LIMIT,
    HASH_BUCKETS,
    ProfilingRuntime,
    TableKind,
)
from repro.ir.asm import parse_program
from repro.ir.instructions import Kind
from repro.machine.counters import Event
from repro.machine.memory import WORD, MemoryMap
from repro.machine.vm import Machine

_TRIVIAL = """
func main(0) regs=1 {
entry:
    const r0, 0
    ret r0
}
"""


def _machine():
    return Machine(parse_program(_TRIVIAL))


def _runtime():
    return ProfilingRuntime(MemoryMap().profiling.base)


def _hash_table(runtime, metric_slots=0):
    return runtime.new_table(
        "many", HASH_BUCKETS + 64, metric_slots=metric_slots, kind=TableKind.HASH
    )


def _many_path_source():
    """14 sequential diamonds: 2**14 paths, beyond the array limit."""
    lines = ["func main(1) regs=8 {", "entry:", "    const r1, 0", "    br d0"]
    for d in range(14):
        nxt = f"d{d + 1}" if d < 13 else "out"
        lines += [
            f"d{d}:",
            f"    and r2, r0, {1 << d}",
            f"    cbr r2, t{d}, f{d}",
            f"t{d}:",
            "    add r1, r1, 1",
            f"    br {nxt}",
            f"f{d}:",
            f"    br {nxt}",
        ]
    lines += ["out:", "    ret r1", "}"]
    return "\n".join(lines)


def test_colliding_indices_share_a_bucket_slot():
    """Indices 0 and HASH_BUCKETS hash to the same bucket: the logical
    counts stay separate (keyed by index), but both RMW the same
    simulated slot — the aliasing a real open hash table exhibits."""
    table = _hash_table(_runtime())
    assert table._slot_addr(0) == table._slot_addr(HASH_BUCKETS)
    machine = _machine()
    table.bump(machine, 0)
    table.bump(machine, HASH_BUCKETS)
    assert table.counts == {0: 1, HASH_BUCKETS: 1}
    # The shared counter word (key word first) saw both writes.
    assert machine.memory.read(table._slot_addr(0) + WORD) == 1


def test_hash_update_pays_key_compare_traffic():
    """One hash bump = one extra load (key compare) and three charged
    instructions over the identical array-table bump."""
    array_machine, hash_machine = _machine(), _machine()
    runtime = _runtime()
    array = runtime.new_table("arr", 64, kind=TableKind.ARRAY)
    hashed = _hash_table(_runtime())
    array.bump(array_machine, 3)
    hashed.bump(hash_machine, 3)
    arr, hsh = array_machine.counters.snapshot(), hash_machine.counters.snapshot()
    assert hsh[Event.LOADS] == arr[Event.LOADS] + 1
    assert hsh[Event.DC_READ] == arr[Event.DC_READ] + 1
    assert hsh[Event.INSTRS] == arr[Event.INSTRS] + 3
    assert hsh[Event.STORES] == arr[Event.STORES]
    assert array.counts == hashed.counts == {3: 1}


def test_out_of_range_updates_are_quarantined():
    """Bad indices (longjmp-interrupted paths) count into
    ``out_of_range`` and issue no memory traffic at all."""
    table = _hash_table(_runtime(), metric_slots=2)
    machine = _machine()
    before = machine.counters.snapshot()
    table.bump(machine, -1)
    table.bump(machine, table.capacity)
    table.accumulate(machine, table.capacity + 7, (5, 9))
    assert table.out_of_range == 3
    assert not table.counts and not table.metrics
    assert machine.counters.snapshot() == before


def test_fast_engine_never_fuses_hash_tables():
    """_fuse_plan must refuse every hook that targets a hash table."""
    from repro.machine.engine import _TABLE_KINDS, _fuse_plan

    program = parse_program(_many_path_source())
    runtime = _runtime()
    flow = instrument_paths(program, mode="hw", placement="simple", runtime=runtime)
    table = flow.functions["main"].table
    assert table.kind is TableKind.HASH
    machine = Machine(program, engine="fast")
    machine.path_runtime = runtime
    hooks = [
        instr
        for function in program.functions.values()
        for block in function.blocks
        for instr in block.instrs
        if instr.kind in _TABLE_KINDS
    ]
    assert hooks
    assert all(_fuse_plan(machine, instr) is None for instr in hooks)


def _combined_source():
    """``main`` calls ``few`` (2 paths, an array spec) and ``many`` (the
    14-diamond function, a hash spec) from two sites each, so each
    function collects paths in two calling contexts."""
    many = _many_path_source().replace("func main(1)", "func many(1)")
    return (
        """
func main(1) regs=4 {
entry:
    call r1, many(r0)
    call r2, few(r0)
    add r3, r1, r2
    call r1, few(r3)
    call r2, many(r3)
    add r3, r3, r1
    add r3, r3, r2
    ret r3
}
func few(1) regs=2 {
entry:
    and r1, r0, 1
    cbr r1, odd, even
odd:
    ret 1
even:
    ret 2
}
"""
        + many
    )


def test_fast_engine_fuses_array_spec_context_commits():
    """In the combined mode, per-context commits (``table == -1``) fuse
    when the function's spec is an array, and a function beyond the
    array limit keeps the runtime call; both engines then build the same
    per-record tables at the same CCT heap addresses, with the same
    counts, CCT, counters and simulated memory."""
    from repro.cct.merge import strict_form
    from repro.machine.engine import _fuse_plan
    from repro.tools.pp import PP

    pp = PP(engine="fast")
    spec = pp.spec("context_flow")
    inst = pp.session.instrument(spec, parse_program(_combined_source()))
    machine = Machine(inst.program, engine="fast")
    machine.path_runtime, machine.cct_runtime = inst.runtimes()
    specs = machine.path_runtime.specs
    assert specs["few"][2] is TableKind.ARRAY
    assert specs["many"][2] is TableKind.HASH
    for name in ("few", "many"):
        commits = [
            instr
            for block in inst.program.functions[name].blocks
            for instr in block.instrs
            if instr.kind == Kind.PATH_COMMIT
        ]
        assert commits and all(c.table == ProfilingRuntime.CONTEXT_TABLE for c in commits)
        plans = [_fuse_plan(machine, c, name) for c in commits]
        if name == "few":
            assert all(plan is not None for plan in plans)
        else:
            assert all(plan is None for plan in plans)

    facts = {}
    for engine in ("simple", "fast"):
        pp = PP(engine=engine)
        program = parse_program(_combined_source())
        run = pp.run(pp.spec("context_flow"), program, (0b1011001110001,))
        assert run.machine.engine == engine
        tables = [
            (
                record.id,
                record.addr,
                name,
                table.kind,
                table.base,
                table.capacity,
                dict(table.counts),
                table.out_of_range,
            )
            for record in run.cct.records
            for name, table in record.path_tables.items()
        ]
        facts[engine] = (
            tables,
            strict_form(run.cct),
            run.result.counters,
            run.result.region_misses,
            run.return_value,
            # Simulated memory: each counter word at its slot address.
            dict(run.machine.memory._store),
        )
    assert facts["simple"] == facts["fast"]
    kinds = [(name, kind) for _, _, name, kind, *_ in facts["fast"][0]]
    assert sorted(kinds, key=str) == sorted(
        [("main", TableKind.ARRAY)]
        + [("few", TableKind.ARRAY), ("many", TableKind.HASH)] * 2,  # two contexts
        key=str,
    )


def test_hash_table_profiles_identical_across_engines():
    """Hash-table instrumented runs (hw mode: accumulate with metrics)
    are bit-identical between the simple and fast engines."""
    source = _many_path_source()
    results = {}
    for engine in ("simple", "fast"):
        program = parse_program(source)
        runtime = ProfilingRuntime(MemoryMap().profiling.base)
        flow = instrument_paths(program, mode="hw", placement="simple", runtime=runtime)
        assert flow.functions["main"].table.kind is TableKind.HASH
        machine = Machine(program, engine=engine)
        machine.path_runtime = runtime
        result = machine.run(0b10101010101010)
        results[engine] = (
            result.counters,
            result.return_value,
            dict(result.region_misses),
            flow.path_counts("main"),
            flow.functions["main"].table.metric_totals(),
        )
    assert results["simple"] == results["fast"]
    assert results["simple"][1] == 7  # seven taken diamonds


def test_array_limit_is_the_hash_cutover():
    runtime = _runtime()
    assert runtime.new_table("a", ARRAY_PATH_LIMIT).kind is TableKind.ARRAY
    assert runtime.new_table("b", ARRAY_PATH_LIMIT + 1).kind is TableKind.HASH
