"""The IR cleanup passes: folding, propagation, dead-block removal."""

import pytest
from hypothesis import given, settings

from repro.ir.asm import parse_program
from repro.ir.instructions import Kind
from repro.machine.counters import Event
from repro.machine.vm import Machine
from repro.opt.cleanup import (
    cleanup_function,
    cleanup_program,
    fold_constants,
    merge_blocks,
    remove_unreachable_blocks,
)
from repro.tools.pp import clone_program

from tests.conftest import compile_corpus
from tests.test_property_endtoend import programs


def _kinds(function):
    return [i.kind for i in function.instructions()]


class TestConstantFolding:
    def test_arith_chain_folds(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 6
                const r1, 7
                mul r2, r0, r1
                add r3, r2, 8
                ret r3
            }
            """
        )
        main = program.functions["main"]
        fold_constants(main)
        assert Kind.BINOP not in _kinds(main)
        assert Machine(program).run().return_value == 50

    def test_copy_propagation(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 9
                mov r1, r0
                add r2, r1, 1
                ret r2
            }
            """
        )
        main = program.functions["main"]
        fold_constants(main)
        assert Kind.BINOP not in _kinds(main)
        assert Machine(program).run().return_value == 10

    def test_known_branch_becomes_jump(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 1
                cbr r0, yes, no
            yes:
                ret 1
            no:
                ret 0
            }
            """
        )
        main = program.functions["main"]
        cleanup_function(main)
        assert Kind.CBR not in _kinds(main)
        assert not any(b.name == "no" for b in main.blocks)
        assert Machine(program).run().return_value == 1

    def test_redefinition_blocks_folding(self):
        program = parse_program(
            """
            func main(1) regs=8 {
            entry:
                const r1, 5
                mov r1, r0
                add r2, r1, 1
                ret r2
            }
            """
        )
        main = program.functions["main"]
        fold_constants(main)
        assert Machine(program).run(10).return_value == 11

    def test_copy_source_redefinition(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 3
                mov r1, r0
                const r0, 99
                add r2, r1, 0
                ret r2
            }
            """
        )
        fold_constants(program.functions["main"])
        assert Machine(program).run().return_value == 3

    def test_copy_source_redefined_by_unknown_move(self):
        program = parse_program(
            """
            func main(2) regs=8 {
            entry:
                mov r2, r0
                mov r0, r1
                add r3, r2, 0
                ret r3
            }
            """
        )
        fold_constants(program.functions["main"])
        assert Machine(program).run(3, 4).return_value == 3

    def test_float_values_not_folded_through_int_ops(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 1.5
                fadd r1, r0, r0
                ret r1
            }
            """
        )
        fold_constants(program.functions["main"])
        assert Machine(program).run().return_value == 3.0

    def test_calls_invalidate_destinations(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 1
                call r0, seven()
                add r1, r0, 1
                ret r1
            }
            func seven(0) regs=2 {
            entry:
                ret 7
            }
            """
        )
        cleanup_program(program)
        assert Machine(program).run().return_value == 8


class TestUnreachableRemoval:
    def test_orphans_dropped(self):
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                ret 1
            island:
                br island2
            island2:
                ret 2
            }
            """
        )
        removed = remove_unreachable_blocks(program.functions["main"])
        assert removed == 2
        assert len(program.functions["main"].blocks) == 1

    def test_superblock_orphans_cleaned(self):
        """After superblock formation, unreachable originals go away."""
        from repro.opt.superblock import form_superblock
        from repro.tools.pp import PP

        program = compile_corpus("loop")
        run = PP().flow_freq(program)
        result = form_superblock(
            program.functions["main"], run.path_profile.functions["main"]
        )
        assert result is not None
        before = len(program.functions["main"].blocks)
        removed = remove_unreachable_blocks(program.functions["main"])
        after = len(program.functions["main"].blocks)
        assert after == before - removed
        assert Machine(program).run().return_value == 666  # sum(0..36)


class TestCleanupPreservesSemantics:
    def test_corpus(self, corpus_name):
        program = compile_corpus(corpus_name)
        reference = Machine(clone_program(program)).run()
        cleanup_program(program)
        optimized = Machine(program).run()
        assert optimized.return_value == reference.return_value
        assert optimized[Event.INSTRS] <= reference[Event.INSTRS]

    def test_parameter_reassigned_after_copy(self):
        from repro.lang import compile_source

        program = compile_source(
            "global data[256];\n"
            "fn f(a) {\n"
            "    var x = a;\n"
            "    a = data[0];\n"
            "    return x & 65535;\n"
            "}\n"
            "fn main() {\n"
            "    return f(1);\n"
            "}\n"
        )
        reference = Machine(clone_program(program)).run()
        cleanup_program(program)
        optimized = Machine(program).run()
        assert reference.return_value == 1
        assert optimized.return_value == 1
        assert optimized[Event.INSTRS] <= reference[Event.INSTRS]

    @given(programs())
    @settings(max_examples=50, deadline=None)
    def test_property_random_programs(self, source):
        from repro.lang import compile_source

        program = compile_source(source)
        reference = Machine(clone_program(program)).run()
        cleanup_program(program)
        optimized = Machine(program).run()
        assert optimized.return_value == reference.return_value
        assert optimized[Event.INSTRS] <= reference[Event.INSTRS]


class TestMergeBlocks:
    def test_chain_of_jumps_collapses(self):
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, 1
                br mid
            mid:
                add r0, r0, 2
                br tail
            tail:
                ret r0
            }
            """
        )
        main = program.functions["main"]
        assert merge_blocks(main) == 2
        assert len(main.blocks) == 1
        assert Kind.BR not in _kinds(main)
        assert Machine(program).run().return_value == 3

    def test_multi_predecessor_target_kept(self):
        program = parse_program(
            """
            func main(1) regs=4 {
            entry:
                cbr r0, yes, no
            yes:
                br join
            no:
                br join
            join:
                ret 5
            }
            """
        )
        main = program.functions["main"]
        assert merge_blocks(main) == 0
        assert len(main.blocks) == 4

    def test_entry_and_self_loops_never_merged_away(self):
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                br back
            back:
                br entry
            }
            """
        )
        main = program.functions["main"]
        # back may fold into entry, but entry (the function's front
        # door) and the resulting self-loop must both survive.
        merge_blocks(main)
        assert main.entry.name == "entry"
        assert any(
            i.kind == Kind.BR for i in main.instructions()
        )  # the loop edge is still there

    def test_probe_blocks_never_merged(self):
        """Instrumentation pseudo-instructions pin their blocks: the
        measured path counts must still equal the oracle's after a
        merge pass over the instrumented body."""
        from repro.instrument.pathinstr import instrument_paths
        from repro.instrument.tables import ProfilingRuntime
        from repro.machine.memory import MemoryMap
        from repro.profiles.oracle import PathOracle

        source = compile_corpus("nested_loops")
        probe = instrument_paths(clone_program(source), mode="freq")
        numberings = {n: i.numbering for n, i in probe.functions.items()}
        oracle = PathOracle(numberings)
        clean = Machine(clone_program(source))
        clean.tracer = oracle
        clean.run()

        program = clone_program(source)
        runtime = ProfilingRuntime(MemoryMap().profiling.base)
        flow = instrument_paths(program, mode="freq", runtime=runtime)
        merged = sum(merge_blocks(f) for f in program.functions.values())
        machine = Machine(program)
        machine.path_runtime = runtime
        machine.run()
        for name in flow.functions:
            assert flow.path_counts(name) == oracle.function_counts(name), (
                name,
                merged,
            )

    def test_merge_rebinds_only_the_absorbing_block(self):
        program = parse_program(
            """
            func main(1) regs=8 {
            entry:
                cbr r0, left, right
            left:
                const r1, 1
                br tail
            tail:
                add r1, r1, 2
                ret r1
            right:
                ret 9
            }
            """
        )
        main = program.functions["main"]
        before = {b.name: b.instrs for b in main.blocks}
        assert merge_blocks(main) == 1
        assert not any(b.name == "tail" for b in main.blocks)
        assert main.block("left").instrs is not before["left"]
        # The untouched blocks keep their instruction lists.
        assert main.block("entry").instrs is before["entry"]
        assert main.block("right").instrs is before["right"]
        assert Machine(clone_program(program)).run(1).return_value == 3
        assert Machine(clone_program(program)).run(0).return_value == 9

    def test_merge_renumbers_surviving_call_sites(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                call r0, seven()
                br tail
            tail:
                call r1, seven()
                add r2, r0, r1
                ret r2
            }
            func seven(0) regs=2 {
            entry:
                ret 7
            }
            """
        )
        main = program.functions["main"]
        before = main.block("entry").instrs
        assert merge_blocks(main) == 1
        assert main.block("entry").instrs is not before
        sites = [c.site for c in main.call_sites()]
        assert sites == [0, 1]
        assert Machine(program).run().return_value == 14

    def test_cleanup_fixpoint_includes_merging(self):
        program = parse_program(
            """
            func main(0) regs=8 {
            entry:
                const r0, 1
                cbr r0, hot, cold
            hot:
                const r1, 20
                br tail
            tail:
                add r2, r1, 1
                ret r2
            cold:
                ret 0
            }
            """
        )
        main = program.functions["main"]
        cleanup_function(main)
        # Folding kills the branch, unreachable removal drops cold,
        # merging splices the straightline chain: one block remains.
        assert len(main.blocks) == 1
        assert Kind.BR not in _kinds(main)
        assert Machine(program).run().return_value == 21
