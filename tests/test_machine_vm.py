"""The interpreter: semantics and the cost model."""

import pytest

from repro.ir.asm import parse_program
from repro.machine.config import MachineConfig
from repro.machine.counters import Event
from repro.machine.vm import Machine, MachineError


def run(asm: str, *args, config=None):
    program = parse_program(asm)
    machine = Machine(program, config)
    return machine.run(*args), machine


class TestArithmetic:
    def test_simple_expression(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 6
                mul r1, r0, 7
                ret r1
            }
            """
        )
        assert result.return_value == 42

    def test_immediates(self):
        result, _ = run(
            """
            func main(1) regs=4 {
            entry:
                add r1, r0, 100
                ret r1
            }
            """,
            5,
        )
        assert result.return_value == 105

    def test_float_ops(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 1.5
                const r1, 2.0
                fmul r2, r0, r1
                ret r2
            }
            """
        )
        assert result.return_value == 3.0

    def test_division_by_zero_yields_zero(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 9
                const r1, 0
                div r2, r0, r1
                ret r2
            }
            """
        )
        assert result.return_value == 0


class TestControlFlow:
    def test_branching(self):
        asm = """
        func main(1) regs=4 {
        entry:
            gt r1, r0, 10
            cbr r1, big, small
        big:
            ret 1
        small:
            ret 0
        }
        """
        assert run(asm, 20)[0].return_value == 1
        assert run(asm, 5)[0].return_value == 0

    def test_loop_sums(self):
        result, _ = run(
            """
            func main(1) regs=8 {
            entry:
                const r1, 0
                const r2, 0
                br head
            head:
                lt r3, r2, r0
                cbr r3, body, done
            body:
                add r1, r1, r2
                add r2, r2, 1
                br head
            done:
                ret r1
            }
            """,
            10,
        )
        assert result.return_value == 45


class TestCalls:
    def test_direct_call(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                call r0, sq(9)
                ret r0
            }
            func sq(1) regs=4 {
            entry:
                mul r1, r0, r0
                ret r1
            }
            """
        )
        assert result.return_value == 81

    def test_recursion(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                call r0, fact(6)
                ret r0
            }
            func fact(1) regs=4 {
            entry:
                le r1, r0, 1
                cbr r1, base, rec
            base:
                ret 1
            rec:
                sub r2, r0, 1
                call r3, fact(r2)
                mul r3, r3, r0
                ret r3
            }
            """
        )
        assert result.return_value == 720

    def test_registers_are_per_frame(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r1, 77
                call r0, clobber(1)
                ret r1
            }
            func clobber(1) regs=4 {
            entry:
                const r1, 0
                ret r1
            }
            """
        )
        assert result.return_value == 77

    def test_indirect_call(self):
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, 1
                icall r1, *r0(5)
                ret r1
            }
            func inc(1) regs=4 {
            entry:
                add r1, r0, 1
                ret r1
            }
            func dec(1) regs=4 {
            entry:
                sub r1, r0, 1
                ret r1
            }
            """
        )
        assert program.function_index("inc") == 0
        assert program.function_index("dec") == 1
        machine = Machine(program)
        assert machine.run().return_value == 4  # dec(5)

    def test_bad_indirect_index(self):
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, 9
                icall r1, *r0(5)
                ret r1
            }
            """
        )
        with pytest.raises(MachineError, match="indirect"):
            Machine(program).run()

    def test_stack_overflow(self):
        config = MachineConfig(max_call_depth=32)
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                call r0, main()
                ret r0
            }
            """
        )
        with pytest.raises(MachineError, match="overflow"):
            Machine(program, config).run()

    def test_wrong_arity_to_entry(self):
        program = parse_program("func main(1) regs=2 {\nentry:\n ret r0\n}")
        with pytest.raises(MachineError, match="takes"):
            Machine(program).run()


class TestSetjmpLongjmp:
    ASM = """
    func main(0) regs=8 {
    entry:
        setjmp r0, r1
        cbr r0, caught, try
    try:
        call r2, thrower(r1)
        ret 0
    caught:
        ret r0
    }
    func thrower(1) regs=4 {
    entry:
        call r1, deeper(r0)
        ret r1
    }
    func deeper(1) regs=4 {
    entry:
        longjmp r0, 42
    }
    """

    def test_unwinds_to_setjmp(self):
        result, _ = run(self.ASM)
        assert result.return_value == 42

    def test_zero_value_becomes_one(self):
        asm = self.ASM.replace("longjmp r0, 42", "longjmp r0, 0")
        result, _ = run(asm)
        assert result.return_value == 1

    def test_dead_jmpbuf_rejected(self):
        result, machine = run(self.ASM)  # plant a live machine
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, 5
                longjmp r0, 1
            }
            """
        )
        with pytest.raises(MachineError, match="handle"):
            Machine(program).run()


class TestCostModel:
    def test_instructions_counted(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 1
                add r0, r0, 1
                ret r0
            }
            """
        )
        assert result[Event.INSTRS] == 3
        assert result[Event.CYCLES] >= 3

    def test_load_miss_penalty(self):
        config = MachineConfig()
        result, machine = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 65536
                load r1, [r0]
                load r2, [r0]
                ret r1
            }
            """,
            config=config,
        )
        assert result[Event.DC_READ] == 2
        assert result[Event.DC_READ_MISS] == 1  # second hits
        assert result[Event.LOADS] == 2

    def test_conflict_misses(self):
        # Two addresses one dcache-size apart, alternating.
        result, _ = run(
            """
            func main(0) regs=8 {
            entry:
                const r0, 65536
                const r1, 81920
                const r2, 0
                br head
            head:
                lt r3, r2, 8
                cbr r3, body, done
            body:
                load r4, [r0]
                load r5, [r1]
                add r2, r2, 1
                br head
            done:
                ret r2
            }
            """
        )
        assert result[Event.DC_READ_MISS] == 16  # every access misses

    def test_write_no_allocate(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 65536
                store 7, [r0]
                load r1, [r0]
                ret r1
            }
            """
        )
        assert result[Event.DC_WRITE_MISS] == 1
        assert result[Event.DC_READ_MISS] == 1  # write did not allocate
        assert result.return_value == 7

    def test_store_buffer_stalls_on_burst(self):
        body = "\n".join(f"    store {i}, [r0+{8 * i}]" for i in range(32))
        result, _ = run(
            f"""
            func main(0) regs=4 {{
            entry:
                const r0, 65536
            {body}
                ret r0
            }}
            """
        )
        assert result[Event.SB_STALL] > 0
        assert result[Event.STORES] == 32

    def test_branch_events(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 1
                cbr r0, yes, no
            yes:
                ret r0
            no:
                ret r0
            }
            """
        )
        assert result[Event.BRANCHES] == 1
        assert result[Event.BR_TAKEN] == 1

    def test_fp_stalls(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                const r0, 1.0
                fadd r1, r0, r0
                fdiv r2, r1, r0
                ret 0
            }
            """
        )
        config = MachineConfig()
        expected = (config.fp_latencies["fadd"] - 1) + (config.fp_latencies["fdiv"] - 1)
        assert result[Event.FP_STALL] == expected

    def test_icache_warm_after_first_iteration(self):
        result, _ = run(
            """
            func main(0) regs=8 {
            entry:
                const r0, 0
                br head
            head:
                lt r1, r0, 50
                cbr r1, body, done
            body:
                add r0, r0, 1
                br head
            done:
                ret r0
            }
            """
        )
        assert result[Event.IC_REF] > 100
        assert result[Event.IC_MISS] <= 4  # one cold miss per line

    def test_instruction_budget(self):
        config = MachineConfig(max_instructions=100)
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, 0
                br spin
            spin:
                add r0, r0, 1
                br spin
            }
            """
        )
        with pytest.raises(MachineError, match="budget"):
            Machine(program, config).run()

    @pytest.mark.parametrize("engine", ["simple", "fast"])
    def test_budget_overshoot_bounded_in_huge_block(self, engine):
        # A single straight-line block far larger than the budget: the
        # run must still fail, and the overshoot past the budget must
        # stay bounded (per-instruction for the simple engine, at most
        # one codegen segment for the fast engine) rather than letting
        # the whole block retire before the check fires.
        from repro.machine.engine import SEGMENT_CAP

        body = "\n".join("add r0, r0, 1" for _ in range(2000))
        program = parse_program(
            f"func main(0) regs=4 {{\nentry:\n const r0, 0\n{body}\n ret r0\n}}"
        )
        config = MachineConfig(max_instructions=100)
        machine = Machine(program, config, engine=engine)
        with pytest.raises(MachineError, match="budget"):
            machine.run()
        overshoot = machine.counters[Event.INSTRS] - config.max_instructions
        assert 0 <= overshoot <= SEGMENT_CAP

    @pytest.mark.parametrize("engine", ["simple", "fast"])
    def test_budget_overshoot_bounded_in_hot_loop(self, engine):
        # A long loop of short blocks with a biased branch: the budget
        # trips mid-iteration, and neither engine may retire more than
        # one codegen segment past it.
        from repro.machine.engine import SEGMENT_CAP

        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, 0
                const r1, 10000
                br head
            head:
                cbr r1, body, exit
            body:
                add r0, r0, 3
                and r2, r0, 7
                cbr r2, cont, rare
            rare:
                add r0, r0, 11
                br cont
            cont:
                sub r1, r1, 1
                br head
            exit:
                ret r0
            }
            """
        )
        config = MachineConfig(max_instructions=200)
        machine = Machine(program, config, engine=engine)
        with pytest.raises(MachineError, match="budget"):
            machine.run()
        overshoot = machine.counters[Event.INSTRS] - config.max_instructions
        assert 0 <= overshoot <= SEGMENT_CAP

    def test_alloc(self):
        result, _ = run(
            """
            func main(0) regs=4 {
            entry:
                alloc r0, 8
                store 5, [r0+16]
                load r1, [r0+16]
                ret r1
            }
            """
        )
        assert result.return_value == 5

    def test_missing_runtime_raises(self):
        program = parse_program("func main(0) regs=4 {\nentry:\n ret\n}")
        from repro.ir.instructions import PathCommit

        program.functions["main"].entry.instrs.insert(0, PathCommit(0, 0, 0))
        with pytest.raises(MachineError, match="runtime"):
            Machine(program).run()


class TestDeterminism:
    def test_same_program_same_counters(self, corpus_name):
        from tests.conftest import compile_corpus

        first = Machine(compile_corpus(corpus_name)).run()
        second = Machine(compile_corpus(corpus_name)).run()
        assert first.counters == second.counters
        assert first.return_value == second.return_value


class TestEngineDispatch:
    ASM = """
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

    def test_engines_match_on_small_program(self):
        simple = Machine(parse_program(self.ASM), engine="simple").run()
        fast = Machine(parse_program(self.ASM), engine="fast").run()
        assert simple.counters == fast.counters
        assert simple.return_value == fast.return_value == 10

    def test_unknown_engine_rejected(self):
        with pytest.raises(MachineError, match="unknown engine 'turbo'"):
            Machine(parse_program(self.ASM), engine="turbo").run()

    def test_retired_trace_engine_rejected(self):
        with pytest.raises(MachineError, match="unknown engine 'trace'"):
            Machine(parse_program(self.ASM), engine="trace").run()

    @pytest.mark.parametrize("engine", ["simple", "fast"])
    def test_repro_engine_env_sets_the_default(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        machine = Machine(parse_program(self.ASM))
        assert machine.engine == engine
        result = machine.run()
        explicit = Machine(parse_program(self.ASM), engine=engine).run()
        assert result.counters == explicit.counters
        assert result.return_value == explicit.return_value == 10

    def test_repro_engine_env_rejects_retired_trace(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "trace")
        machine = Machine(parse_program(self.ASM))
        with pytest.raises(MachineError, match="unknown engine 'trace'"):
            machine.run()

    def test_tracer_sees_identical_events_on_both_engines(self):
        # The fast engine reports block entries from generated segment
        # code; callers, returns and every block must arrive in exactly
        # the order the reference interpreter reports them.
        from tests.conftest import compile_corpus

        class Recorder:
            def __init__(self):
                self.events = []

            def on_enter(self, fname, site):
                self.events.append(("enter", fname, site))

            def on_exit(self, fname, value):
                self.events.append(("exit", fname, value))

            def on_block(self, fname, bname):
                self.events.append(("block", fname, bname))

        seen = {}
        for engine in ("simple", "fast"):
            machine = Machine(compile_corpus("calls"), engine=engine)
            machine.tracer = Recorder()
            result = machine.run()
            seen[engine] = (machine.tracer.events, dict(result.counters))
        assert any(kind == "enter" for kind, *_ in seen["simple"][0][1:])
        assert seen["fast"] == seen["simple"]

    def test_run_survives_block_splicing(self):
        # Editing a block between runs: the second run has to see the
        # spliced instructions, not the first run's decoded segments.
        program = parse_program(self.ASM)
        machine = Machine(program, engine="fast")
        first = machine.run()
        assert first.return_value == 10

        from repro.ir.instructions import Const

        done = program.functions["main"].block("done")
        done.instrs.insert(0, Const(0, 99))
        second = machine.run()
        assert second.return_value == 99
