"""The fast engine's process-wide compile cache.

Generated segment source binds every block-specific constant (operand
values such as immediates and path increments, addresses, I-cache
lines, block and function names, table bases and capacities, CCT proc
ids) as a maker parameter, so blocks of the same shape emit
byte-identical source and share one code object through
:func:`repro.machine.engine._compile_block`.  These tests check that
sharing happens, that it never crosses a config constant the source
bakes in or merges constants that compare equal but differ (``0.0`` and
``-0.0``), that the cache stays bounded yet holds the profile loop's
working set, and that shared code still reports each block under its
own names.
"""

import dataclasses

import pytest

from repro.ir.asm import parse_program
from repro.ir.function import Block, Function, Program
from repro.ir.instructions import (
    Alloc,
    Binop,
    Call,
    Const,
    FBinop,
    Imm,
    KPathAdd,
    Load,
    PathAdd,
    Ret,
    Store,
)
from repro.machine import engine
from repro.machine.config import MachineConfig
from repro.machine.vm import Machine
from repro.session import MODES, ProfileSession, ProfileSpec
from repro.tools.pp import PP
from repro.workloads.suite import SPEC95, build_workload
from tests.test_engine_differential import _assert_identical

#: ``f`` and ``g`` have the same body under different block names, so
#: they sit at different addresses with different successor names.
TWINS = """
program entry=main globals=64

func main(1) regs=8 {
entry:
    call r1, f(r0)
    call r2, g(r0)
    add r3, r1, r2
    ret r3
}

func f(1) regs=12 {
entry:
    alloc r5, 4
    const r1, 0
    const r2, 0.5
    br loop
loop:
    lt r3, r1, r0
    cbr r3, body, done
body:
    fmul r2, r2, 1.5
    fadd r2, r2, 0.25
    and r4, r1, 3
    cbr r4, odd, even
odd:
    store r1, [r5+0]
    load r6, [r5+8]
    br next
even:
    store r2, [r5+8]
    br next
next:
    add r1, r1, 1
    br loop
done:
    ret r1
}

func g(1) regs=12 {
start:
    alloc r5, 4
    const r1, 0
    const r2, 0.5
    br head
head:
    lt r3, r1, r0
    cbr r3, work, out
work:
    fmul r2, r2, 1.5
    fadd r2, r2, 0.25
    and r4, r1, 3
    cbr r4, left, right
left:
    store r1, [r5+0]
    load r6, [r5+8]
    br tail
right:
    store r2, [r5+8]
    br tail
tail:
    add r1, r1, 1
    br head
out:
    ret r1
}
"""

ARG = 40


def _sources(machine):
    """``(function, block) -> generated source`` of every block the
    machine's last run decoded."""
    return {key: decoded.source for key, decoded in machine._decoded.items()}


def _compiles(machine):
    """The ``compile()`` calls the machine's decodes made."""
    stats = machine.codegen_stats
    return stats["decoded_blocks"] - stats["compile_cache_hits"]


@pytest.fixture(autouse=True)
def _cold_compile_cache():
    """Empty the plan and compile caches around each test: a plan hit
    skips the compiles these tests count."""
    engine._plans.clear()
    engine._compile_block.cache_clear()
    yield
    engine._plans.clear()
    engine._compile_block.cache_clear()


class TestIdenticalBodies:
    @pytest.mark.parametrize("mode", ["baseline", "flow_hw", "context_hw", "context_flow"])
    def test_twins_compile_once_and_match_simple(self, mode):
        simple_run = getattr(PP(engine="simple"), mode)(parse_program(TWINS), (ARG,))
        fast_run = getattr(PP(engine="fast"), mode)(parse_program(TWINS), (ARG,))
        _assert_identical("twins", mode, simple_run, fast_run)

        functions = fast_run.program.functions
        f_blocks, g_blocks = functions["f"].blocks, functions["g"].blocks
        assert len(f_blocks) == len(g_blocks)
        sources = _sources(fast_run.machine)
        for f_block, g_block in zip(f_blocks, g_blocks):
            assert sources["f", f_block.name] == sources["g", g_block.name]

        # Exactly one compile() per distinct source text.
        distinct = set(sources.values())
        info = engine._compile_block.cache_info()
        assert info.misses == len(distinct)
        assert fast_run.machine.codegen_stats["compile_cache_hits"] >= len(g_blocks)
        assert _compiles(fast_run.machine) == len(distinct)


#: Each variant changes one constant the generated source bakes in.
#: The direct-mapped D-cache's tag test bakes its line bits and set
#: mask, the store-buffer push its depth and drain; a set-associative
#: D-cache switches loads and stores to the call form.  Write-allocate
#: is not here: the inline form leaves it to the miss call.
VARIANTS = {
    "default": {},
    "icache_miss_penalty": {"icache_miss_penalty": 9},
    "mispredict_penalty": {"mispredict_penalty": 7},
    "fp_latencies": {"fp_latencies": {"fadd": 2, "fsub": 3, "fmul": 5, "fdiv": 12}},
    "dcache_size": {"dcache_size": 4 * 1024},
    "dcache_line": {"dcache_line": 64},
    "dcache_assoc": {"dcache_assoc": 2},
    "store_buffer_depth": {"store_buffer_depth": 3},
    "store_drain_cycles": {"store_drain_cycles": 3},
}


class TestConfigConstants:
    def test_interleaved_configs_never_share_baked_code(self):
        sources = {}
        for round_ in range(2):
            for label, overrides in VARIANTS.items():
                config = dataclasses.replace(MachineConfig(), **overrides)
                fast = Machine(
                    parse_program(TWINS), dataclasses.replace(config), engine="fast"
                )
                fast_result = fast.run(ARG)
                simple = Machine(
                    parse_program(TWINS), dataclasses.replace(config), engine="simple"
                )
                simple_result = simple.run(ARG)
                assert fast_result.counters == simple_result.counters, label
                assert fast_result.return_value == simple_result.return_value, label
                assert fast_result.region_misses == simple_result.region_misses, label
                if round_ == 0:
                    sources[label] = _sources(fast)
                else:
                    # A later machine with the same config generates the
                    # same source and reuses its code.
                    assert _sources(fast) == sources[label], label
                    assert _compiles(fast) == 0, label

        for label in VARIANTS:
            if label == "default":
                continue
            baked = [
                key
                for key in sources[label]
                if sources[label][key] != sources["default"][key]
            ]
            assert baked, f"{label} is not baked into any generated source"

    def test_write_allocate_is_baked_only_into_the_call_form(self):
        """The inline D-cache form leaves write-allocate to its miss
        call; the call form of a set-associative D-cache passes the
        flag to ``access`` as a literal."""

        def generated(**overrides):
            machine = Machine(parse_program(TWINS), MachineConfig(**overrides), engine="fast")
            machine.run(ARG)
            return _sources(machine)

        assert generated() == generated(dcache_write_allocate=True)
        plain = generated(dcache_assoc=2)
        allocating = generated(dcache_assoc=2, dcache_write_allocate=True)
        split = [key for key in plain if plain[key] != allocating[key]]
        assert ("f", "odd") in split and ("g", "left") in split
        assert ("f", "loop") not in split


class TestCacheBound:
    def test_cache_never_exceeds_its_cap(self):
        cap = engine.COMPILE_CACHE_CAP
        assert engine._compile_block.cache_info().maxsize == cap
        # Immediates are parameters, so each block gets its own shape
        # instead: a move over a register pair no other block uses.
        n = cap + 44
        lines = ["func main(0) regs=64 {", "entry:", "    const r0, 0", "    br b0"]
        for i in range(n):
            nxt = f"b{i + 1}" if i + 1 < n else "done"
            lines += [
                f"b{i}:",
                f"    mov r{1 + i % 62}, r{1 + i // 62}",
                f"    add r0, r0, {i}",
                f"    br {nxt}",
            ]
        lines += ["done:", "    ret r0", "}"]
        text = "\n".join(lines)

        result = Machine(parse_program(text), engine="fast").run()
        assert result.return_value == sum(range(n))
        info = engine._compile_block.cache_info()
        assert info.misses >= n
        assert info.currsize <= cap

        again = Machine(parse_program(text), engine="fast").run()
        assert again.counters == result.counters
        assert engine._compile_block.cache_info().currsize <= cap

    def test_profile_loop_compiles_each_shape_once(self):
        """The cap holds the profile loop's working set: once every
        suite program has been profiled in every mode, profiling fresh
        clones of them all again compiles nothing.  A code generation
        change that grows the working set past the cap fails here."""
        programs = [build_workload(name, 0.05) for name in SPEC95]
        specs = [
            ProfileSpec(mode=mode, engine="fast", **({"k": 2} if mode == "kflow" else {}))
            for mode in MODES
        ]
        session = ProfileSession()

        def compiles_per_round():
            before = engine._compile_block.cache_info().misses
            for program in programs:
                for spec in specs:
                    session.run(spec, program)
            return engine._compile_block.cache_info().misses - before

        engine._compile_block.cache_clear()
        assert compiles_per_round() > 0
        assert compiles_per_round() == 0


#: ``f`` and ``g`` differ only in operand values: constants, binop and
#: fbinop immediates, alloc sizes and load/store offsets.
IMMEDIATE_TWINS = """
program entry=main globals=64

func main(1) regs=8 {
entry:
    call r1, f(r0)
    call r2, g(r0)
    add r3, r1, r2
    ret r3
}

func f(1) regs=8 {
entry:
    alloc r5, 4
    const r1, 3
    const r2, 0.5
    add r3, r0, 7
    fmul r2, r2, 1.5
    store r3, [r5+8]
    store 11, [r5+16]
    load r4, [r5+8]
    load r6, [r5+16]
    add r4, r4, r6
    add r4, r4, r1
    ret r4
}

func g(1) regs=8 {
entry:
    alloc r5, 6
    const r1, 4
    const r2, 2.5
    add r3, r0, 9
    fmul r2, r2, 0.75
    store r3, [r5+24]
    store 13, [r5+32]
    load r4, [r5+24]
    load r6, [r5+32]
    add r4, r4, r6
    add r4, r4, r1
    ret r4
}
"""


def _path_twins() -> Program:
    """``f`` and ``g`` differ only in their path increments."""

    def function(name, instrs):
        return Function(name, num_regs=4, blocks=[Block("entry", instrs)])

    def body(name, add, values):
        return function(
            name, [Const(1, 0), PathAdd(1, add), KPathAdd(1, 2, values), Ret(1)]
        )

    main = function(
        "main", [Call("f", [], 1), Call("g", [], 2), Binop("add", 3, 1, 2), Ret(3)]
    )
    return Program(
        {"main": main, "f": body("f", 3, (4, 6)), "g": body("g", 5, (8, 10))}
    )


class TestOperandValuesAreParameters:
    def _assert_twins_share_code(self, machine):
        sources = _sources(machine)
        assert sources["f", "entry"] == sources["g", "entry"]
        assert _compiles(machine) == len(set(sources.values()))

    def test_blocks_differing_only_in_immediates_compile_once(self):
        machine = Machine(parse_program(IMMEDIATE_TWINS), engine="fast")
        fast = machine.run(ARG)
        simple = Machine(parse_program(IMMEDIATE_TWINS), engine="simple").run(ARG)
        assert fast.counters == simple.counters
        assert fast.return_value == simple.return_value == (ARG + 7 + 11 + 3) + (
            ARG + 9 + 13 + 4
        )
        self._assert_twins_share_code(machine)

    def test_blocks_differing_only_in_path_increments_compile_once(self):
        machine = Machine(_path_twins(), engine="fast")
        fast = machine.run()
        simple = Machine(_path_twins(), engine="simple").run()
        assert fast.counters == simple.counters
        # f: 0 + 3, layer 3 % 2 = 1 adds 6; g: 0 + 5, layer 1 adds 10.
        assert fast.return_value == simple.return_value == (3 + 6) + (5 + 10)
        self._assert_twins_share_code(machine)


#: Floats that compare equal but differ (the zeros), or that have no
#: plain literal (the non-finite ones).
ODD_FLOATS = (0.0, -0.0, float("inf"), float("-inf"), float("nan"))


def _odd_float_program(returned: int) -> Program:
    """One block puts every odd float in registers through each operand
    path (``const``, an ``fmul`` immediate, a stored immediate read
    back), then returns register ``returned``."""
    n = len(ODD_FLOATS)
    instrs = [Const(1, 1.0), Alloc(2, Imm(n))]
    for j, value in enumerate(ODD_FLOATS):
        instrs.append(Const(3 + j, value))
        instrs.append(FBinop("fmul", 3 + n + j, 1, Imm(value)))
        instrs.append(Store(Imm(value), 2, 8 * j))
    for j in range(n):
        instrs.append(Load(3 + 2 * n + j, 2, 8 * j))
    instrs.append(Ret(returned))
    main = Function("main", num_regs=3 + 3 * n, blocks=[Block("entry", instrs)])
    return Program({"main": main})


class TestOddFloatConstants:
    @pytest.mark.parametrize("returned", range(3, 3 + 3 * len(ODD_FLOATS)))
    def test_fast_returns_the_exact_value_simple_does(self, returned):
        expected = ODD_FLOATS[(returned - 3) % len(ODD_FLOATS)]
        results = {
            name: Machine(_odd_float_program(returned), engine=name).run()
            for name in ("simple", "fast")
        }
        assert results["fast"].counters == results["simple"].counters
        for result in results.values():
            assert repr(result.return_value) == repr(expected)


class _BlockRecorder:
    def __init__(self):
        self.events = []

    def on_enter(self, name, site):
        self.events.append(("enter", name))

    def on_exit(self, name, value):
        self.events.append(("exit", name, value))

    def on_block(self, name, block):
        self.events.append(("block", name, block))


class TestTracerThroughSharedCode:
    def test_on_block_reports_each_twin_under_its_own_names(self):
        seen = {}
        for engine_name in ("simple", "fast"):
            machine = Machine(parse_program(TWINS), engine=engine_name)
            machine.tracer = seen[engine_name] = _BlockRecorder()
            machine.run(ARG)
        assert seen["fast"].events == seen["simple"].events
        assert machine.codegen_stats["compile_cache_hits"] >= len(
            machine.program.functions["g"].blocks
        )
        g_blocks = {e[2] for e in seen["fast"].events if e[0] == "block" and e[1] == "g"}
        f_blocks = {e[2] for e in seen["fast"].events if e[0] == "block" and e[1] == "f"}
        assert g_blocks == {"start", "head", "work", "left", "right", "tail", "out"}
        assert f_blocks == {"entry", "loop", "body", "odd", "even", "next", "done"}
