"""The fast engine's process-wide decode plans.

A plan is everything decoding a block produces that depends only on
the block's content and the run context: the generated source and
each segment's argument recipe.  It is cached under a
key of that content (:func:`repro.machine.engine._plan_key`) and bound
afresh on every decode.  These tests check the hazards of such a
cache: that the key keeps apart values that compare equal but differ,
and machine state the source bakes in (table geometry, cost-model form
and geometry); that a decode served by a plan is the decode a cold one
makes and matches the simple engine; that cached keys and plans hold
nothing of a machine, program or runtime, so the collector need not
look at them; and that the cache stays bounded.
"""

import copy
import gc

import pytest

from repro.cct.merge import strict_form
from repro.edit.layout import assign_layout
from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime, TableKind
from repro.ir.asm import parse_program
from repro.ir.function import Block, Function, Program
from repro.ir.instructions import Alloc, Binop, Const, Imm, Load, Ret, Store
from repro.lang import compile_source
from repro.machine import engine
from repro.machine.branch import TwoBitPredictor
from repro.machine.caches import SetAssociativeCache
from repro.machine.config import MachineConfig
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine
from repro.tools.pp import PP
from repro.workloads.suite import SPEC95, build_workload
from tests.test_engine_differential import MODES, _assert_identical


@pytest.fixture(autouse=True)
def _empty_plan_cache():
    engine._plans.clear()
    yield
    engine._plans.clear()


def _stats(machine):
    stats = machine.codegen_stats
    return stats["source_cache_hits"], stats["source_cache_misses"], stats["decoded_blocks"]


def _sources(machine):
    return {key: decoded.source for key, decoded in machine._decoded.items()}


# ---------------------------------------------------------------------------
# Values that compare equal but differ
# ---------------------------------------------------------------------------


def _constant_program(value, returned: int) -> Program:
    """One block that puts ``value`` in r1 by ``const`` and in r3 by a
    stored immediate read back, then returns register ``returned``."""
    instrs = [
        Const(1, value),
        Alloc(2, Imm(1)),
        Store(Imm(value), 2, 0),
        Load(3, 2, 0),
        Ret(returned),
    ]
    return Program({"main": Function("main", num_regs=4, blocks=[Block("entry", instrs)])})


#: Pairs of constants that ``==`` (and so a tuple key) cannot tell apart.
EQUAL_BUT_DIFFERENT = [(1, 1.0), (1, True), (1.0, True), (0.0, -0.0), (-0.0, 0.0)]


@pytest.mark.parametrize("returned", [1, 3])
@pytest.mark.parametrize("first,second", EQUAL_BUT_DIFFERENT)
def test_equal_constants_of_another_type_or_sign_get_their_own_plan(
    first, second, returned
):
    """Two blocks at one address that differ only in ``1``/``1.0``/
    ``True`` or in the sign of a zero: the second must not be served the
    first one's plan, whose recipe binds the first value."""
    for value in (first, second):
        fast = Machine(_constant_program(value, returned), engine="fast")
        result = fast.run()
        simple = Machine(_constant_program(value, returned), engine="simple").run()
        assert repr(result.return_value) == repr(simple.return_value) == repr(value)
        assert result.counters == simple.counters
    assert _stats(fast) == (0, 1, 1)
    # The same value again is a hit.
    again = Machine(_constant_program(second, returned), engine="fast")
    assert repr(again.run().return_value) == repr(second)
    assert _stats(again) == (1, 0, 1)


def _operand_program(b) -> Program:
    """``r1 = 5 + b`` for ``b`` a register number or an immediate."""
    instrs = [Const(2, 5), Const(3, 7), Binop("add", 1, 2, b), Ret(1)]
    return Program({"main": Function("main", num_regs=4, blocks=[Block("entry", instrs)])})


def test_an_immediate_and_a_register_of_one_number_get_their_own_plan():
    """``add r1, r2, r3`` and ``add r1, r2, 3`` differ only in whether
    the operand 3 is a register or an immediate: the generated source
    differs, so they must not share a plan."""
    for b, expected in ((3, 12), (Imm(3), 8), (3, 12)):
        fast = Machine(_operand_program(b), engine="fast")
        simple = Machine(_operand_program(b), engine="simple")
        assert fast.run().return_value == simple.run().return_value == expected


# ---------------------------------------------------------------------------
# Machine state the generated source bakes in, changed between runs
# ---------------------------------------------------------------------------

_LOOP = """
func main(0) regs=8 {
entry:
    const r0, 0
    const r1, 40
    br loop
loop:
    and r2, r1, 3
    cbr r2, odd, even
odd:
    add r0, r0, r1
    br next
even:
    add r0, r0, 1
    br next
next:
    sub r1, r1, 1
    cbr r1, loop, done
done:
    ret r0
}
"""


def _reruns(mode, swaps):
    """One simple and one fast machine run the path-instrumented loop
    once per runtime ``swaps`` makes from the pristine one; after every
    run they must agree on counters, return value, region misses and
    every table."""
    program = parse_program(_LOOP)
    pristine = ProfilingRuntime(MemoryMap().profiling.base)
    instrument_paths(program, mode=mode, placement="simple", runtime=pristine)
    machines = [Machine(program, engine=name) for name in ("simple", "fast")]
    for swap in swaps:
        results = []
        for machine in machines:
            machine.path_runtime = swap(pristine)
            result = machine.run()
            tables = [
                (t.kind, t.capacity, dict(t.counts), dict(t.metrics), t.out_of_range)
                for t in machine.path_runtime.tables
            ]
            results.append((result.counters, result.return_value, result.region_misses, tables))
        assert results[0] == results[1]
    return machines[1]


def _retabled(kind=None, capacity=None):
    """A fresh runtime whose tables are the pristine one's with another
    kind or capacity."""

    def swap(pristine):
        runtime = ProfilingRuntime(MemoryMap().profiling.base)
        for table in pristine.tables:
            runtime.new_table(
                table.name,
                capacity if capacity is not None else table.capacity,
                table.metric_slots,
                kind if kind is not None else table.kind,
            )
        return runtime

    return swap


@pytest.mark.parametrize("mode", ["freq", "hw"])
@pytest.mark.parametrize(
    "swap",
    [_retabled(kind=TableKind.HASH), _retabled(capacity=2), _retabled(capacity=4096)],
    ids=["hash", "array-2", "array-4096"],
)
def test_table_swapped_between_runs_is_planned_for(mode, swap):
    """An array table's capacity and base are recipe constants and its
    stride a literal; a hash table takes the runtime call.  A table of
    another kind or capacity must not reach the first run's plans."""
    fast = _reruns(mode, [copy.deepcopy, swap, copy.deepcopy])
    hits, misses, decoded = _stats(fast)
    assert hits + misses == decoded
    # The third run's tables are the first run's again: all hits.
    assert hits >= decoded // 3


_CALLS = """
fn work(n) {
    var i = 0; var sum = 0;
    while (i < n) { if (i % 3 == 0) { sum = sum + i; } i = i + 1; }
    return sum;
}
fn main() {
    var i = 0; var out = 0;
    while (i < 6) { out = out + work(i); i = i + 1; }
    return out;
}
"""


@pytest.mark.parametrize("kind", [TableKind.HASH, TableKind.ARRAY])
def test_per_context_spec_swapped_between_runs_is_planned_for(kind):
    """A per-context commit fuses when its function's spec is an array
    (with the spec's stride a literal) and takes the runtime call for a
    hash; no global table carries that spec, so the key holds it."""
    pp = PP()
    inst = pp.session.instrument(pp.spec("context_flow"), compile_source(_CALLS))
    machines = [Machine(inst.program, engine=name) for name in ("simple", "fast")]
    for swapped in (False, True, False):
        results = []
        for machine in machines:
            path, cct = inst.runtimes(fresh=True)
            if swapped:
                capacity, slots, _kind = path.specs["work"]
                path.specs["work"] = (capacity + 1, slots + 1, kind)
            machine.path_runtime, machine.cct_runtime = path, cct
            result = machine.run()
            results.append((result.counters, result.return_value, result.region_misses))
        assert results[0] == results[1]


class _AlwaysTaken:
    """A predictor stub of another class: generated code calls it."""

    def predict_and_update(self, address, taken):
        return taken


class _AlwaysHit:
    """An I-cache stub of another class: generated code calls it."""

    misses = 0

    def access(self, address):
        return True


@pytest.mark.parametrize(
    "model,make",
    [
        ("icache", lambda c: SetAssociativeCache(2 * c.icache_line, c.icache_line, 2)),
        ("icache", lambda c: _AlwaysHit()),
        ("predictor", lambda c: TwoBitPredictor(2)),
        ("predictor", lambda c: _AlwaysTaken()),
    ],
    ids=["icache-one-set", "icache-stub", "predictor-two-slots", "predictor-stub"],
)
def test_model_swapped_between_runs_is_planned_for(model, make):
    """I-cache sets and predictor slots are recipe constants under an
    inline model's geometry; a model of another class takes the call
    form.  Another geometry or class must not reach earlier plans (the
    loop spans two I-cache lines and a dozen predictor slots, so those
    plans would index past the new model's state)."""
    config = MachineConfig()
    program = parse_program(_LOOP)
    machines = [Machine(program, engine=name) for name in ("simple", "fast")]
    for swapped in (False, True):
        results = []
        for machine in machines:
            if swapped:
                setattr(machine, model, make(config))
            result = machine.run()
            results.append((result.counters, result.return_value, result.region_misses))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# A plan hit decodes what a cold decode does
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["099.go", "130.li", "147.vortex"])
def test_plan_hits_decode_what_cold_decodes_do(name):
    """Every mode, twice: the first run of each plans every block, the
    second is served only by plans.  Both match the simple engine in
    every fact, and every block's source is byte-identical."""
    program = build_workload(name, 0.1)
    simple, fast = PP(engine="simple"), PP(engine="fast")
    for mode, overrides in (("baseline", {}),) + MODES:
        engine._plans.clear()
        spec = fast.spec(mode, **overrides)
        expected = simple.run(simple.spec(mode, **overrides), program)
        cold = fast.run(spec, program)
        warm = fast.run(spec, program)
        label = f"{mode}{overrides or ''}"
        _assert_identical(name, label, expected, cold)
        _assert_identical(name, label, expected, warm)
        cold_stats, warm_stats = _stats(cold.machine), _stats(warm.machine)
        assert cold_stats[0] + cold_stats[1] == cold_stats[2] > 0
        assert warm_stats == (warm_stats[2], 0, warm_stats[2]), label
        assert _sources(warm.machine) == _sources(cold.machine), label
        if cold.cct is not None:
            assert strict_form(warm.cct) == strict_form(cold.cct)


# ---------------------------------------------------------------------------
# What the cache holds
# ---------------------------------------------------------------------------

#: The only types a cached key or plan may hold: atoms and tuples.
_HELD = (tuple, bytes, str, int, float, type(None))


def _walk(value):
    yield value
    if value.__class__ is tuple:
        for item in value:
            yield from _walk(item)


def test_keys_and_plans_hold_only_atoms_and_untracked_tuples():
    program = build_workload("124.m88ksim", 0.05)
    pp = PP(engine="fast")
    for mode, overrides in (("baseline", {}),) + MODES:
        pp.run(pp.spec(mode, **overrides), program)
    assert engine._plans
    gc.collect()
    for key, plan in engine._plans.items():
        for value in (*_walk(key), *_walk(plan)):
            assert value.__class__ in _HELD, type(value)
            assert not gc.is_tracked(value), type(value)


# ---------------------------------------------------------------------------
# Bounds and assumptions
# ---------------------------------------------------------------------------


def test_cache_keeps_the_most_recent_plans_within_its_cap(monkeypatch):
    monkeypatch.setattr(engine, "PLAN_CACHE_CAP", 8)
    n = 12
    lines = ["func main(0) regs=4 {", "entry:", "    const r0, 0", "    br b0"]
    for i in range(n):
        nxt = f"b{i + 1}" if i + 1 < n else "done"
        lines += [f"b{i}:", f"    add r0, r0, {i}", f"    br {nxt}"]
    lines += ["done:", "    ret r0", "}"]
    text = "\n".join(lines)

    first = Machine(parse_program(text), engine="fast").run()
    assert first.return_value == sum(range(n))
    assert len(engine._plans) == 8
    machine = Machine(parse_program(text), engine="fast")
    assert machine.run().counters == first.counters
    # Each block was evicted before its next use, so no decode hit.
    assert _stats(machine) == (0, n + 2, n + 2)
    assert len(engine._plans) == 8


def test_layout_places_each_instruction_icost_words_after_the_last():
    """A key holds a block's first address and each instruction's
    ``icost``; the addresses generation reads must follow from them."""
    for name in SPEC95:
        inst = PP().session.instrument(PP().spec("context_flow"), build_workload(name, 0.05))
        layout = assign_layout(inst.program)
        for function in inst.program.functions.values():
            for block in function.blocks:
                addrs = layout.block_addrs[(function.name, block.name)]
                address = addrs[0]
                for instr, actual in zip(block.instrs, addrs):
                    assert actual == address
                    address += 4 * instr.icost
