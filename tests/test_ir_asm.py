"""Assembler and disassembler tests, including round trips."""

import pytest

from repro.ir.asm import AsmError, parse_program
from repro.ir.disasm import format_instruction, format_program
from repro.ir.instructions import Imm, Kind
from repro.machine.vm import Machine
from repro.workloads.suite import build_workload, workload_names

SUITE_NAMES = workload_names("SPEC95")

FULL_PROGRAM = """
# every assembler form in one program
program entry=main globals=32

func main(0) regs=16 {
entry:
    const r0, 5
    const r1, 2.5
    mov r2, r0
    add r3, r0, 7
    sub r3, r3, r0
    fadd r4, r1, 0.5
    load r5, [r0+8]
    store r5, [r0]
    store 42, [r0+16]
    alloc r6, 10
    setjmp r7, r8
    cbr r7, thrown, normal
normal:
    call r9, helper(r0, 3)
    icall r10, *r0(r9)
    call noresult(r9)
    longjmp r8, 1
thrown:
    ret r9
}

func helper(2) regs=8 {
entry:
    ge r2, r0, r1
    cbr r2, big, small
big:
    ret r0
small:
    ret r1
}

func noresult(1) regs=4 {
entry:
    ret
}
"""


class TestParsing:
    def test_full_program_parses(self):
        program = parse_program(FULL_PROGRAM)
        assert program.entry == "main"
        assert program.globals_size == 32
        assert set(program.functions) == {"main", "helper", "noresult"}

    def test_instruction_kinds(self):
        program = parse_program(FULL_PROGRAM)
        kinds = [i.kind for i in program.functions["main"].instructions()]
        for expected in (
            Kind.CONST, Kind.MOVE, Kind.BINOP, Kind.FBINOP, Kind.LOAD,
            Kind.STORE, Kind.ALLOC, Kind.SETJMP, Kind.CBR, Kind.CALL,
            Kind.ICALL, Kind.LONGJMP, Kind.RET,
        ):
            assert expected in kinds

    def test_immediate_store(self):
        program = parse_program(FULL_PROGRAM)
        stores = [
            i for i in program.functions["main"].instructions()
            if i.kind == Kind.STORE
        ]
        assert isinstance(stores[1].src, Imm)
        assert stores[1].src.value == 42

    def test_call_forms(self):
        program = parse_program(FULL_PROGRAM)
        calls = [
            i for i in program.functions["main"].instructions()
            if i.kind in (Kind.CALL, Kind.ICALL)
        ]
        assert calls[0].dst == 9 and calls[0].callee == "helper"
        assert calls[1].dst == 10 and calls[1].func == 0
        assert calls[2].dst is None and calls[2].callee == "noresult"

    def test_call_sites_assigned(self):
        program = parse_program(FULL_PROGRAM)
        sites = [c.site for c in program.functions["main"].call_sites()]
        assert sites == [0, 1, 2]

    def test_negative_offsets_and_values(self):
        program = parse_program(
            """
            func main(0) regs=4 {
            entry:
                const r0, -17
                ret r0
            }
            """
        )
        const = next(program.functions["main"].instructions())
        assert const.value == -17

    def test_float_literal(self):
        program = parse_program(
            "func main(0) regs=2 {\nentry:\n const r0, 1.5e3\n ret r0\n}"
        )
        const = next(program.functions["main"].instructions())
        assert const.value == 1500.0


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            parse_program("func main(0) regs=2 {\nentry:\n zorp r0\n ret\n}")

    def test_error_carries_line_number(self):
        try:
            parse_program("func main(0) regs=2 {\nentry:\n zorp r0\n ret\n}")
        except AsmError as error:
            assert error.line == 3
        else:  # pragma: no cover
            pytest.fail("expected AsmError")

    def test_bad_register(self):
        with pytest.raises(AsmError, match="register"):
            parse_program("func main(0) regs=2 {\nentry:\n mov rX, r0\n ret\n}")

    def test_unexpected_character(self):
        with pytest.raises(AsmError):
            parse_program("func main(0) { entry: ret ~ }")

    def test_validation_runs_by_default(self):
        from repro.ir.function import IRValidationError

        with pytest.raises(IRValidationError):
            parse_program("func main(0) regs=2 {\nentry:\n br nowhere\n}")

    def test_validation_can_be_skipped(self):
        program = parse_program(
            "func main(0) regs=2 {\nentry:\n br nowhere\n}", validate=False
        )
        assert "main" in program.functions


class TestRoundTrip:
    def test_format_then_parse_is_identity(self, corpus_name):
        from tests.conftest import compile_corpus

        original = compile_corpus(corpus_name)
        text = format_program(original)
        reparsed = parse_program(text)
        assert format_program(reparsed) == text

    def test_full_program_round_trip(self):
        program = parse_program(FULL_PROGRAM)
        text = format_program(program)
        assert format_program(parse_program(text)) == text

    def test_function_table_round_trips(self):
        text = FULL_PROGRAM.replace(
            "program entry=main globals=32",
            "program entry=main globals=32 table=[helper, noresult]",
        )
        program = parse_program(text)
        assert program.function_table == ["helper", "noresult"]
        formatted = format_program(program)
        assert "table=[helper, noresult]" in formatted.splitlines()[0]
        assert parse_program(formatted).function_table == ["helper", "noresult"]

    def test_empty_function_table_parses(self):
        program = parse_program(
            "program entry=main table=[]\nfunc main(0) regs=2 {\nentry:\n ret\n}"
        )
        assert program.function_table == []
        assert "table" not in format_program(program)

    def test_function_table_names_are_validated(self):
        from repro.ir.function import IRValidationError

        with pytest.raises(IRValidationError, match="nosuch"):
            parse_program(
                "program table=[nosuch]\nfunc main(0) regs=2 {\nentry:\n ret\n}"
            )

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_program_runs_identically_after_round_trip(self, name):
        # The indirect-dispatch programs (124.m88ksim, 130.li, 134.perl)
        # call through Program.function_table, which the header carries.
        original = build_workload(name, 0.1)
        reparsed = parse_program(format_program(original))
        assert reparsed.function_table == original.function_table
        before = Machine(original).run()
        after = Machine(reparsed).run()
        assert after.return_value == before.return_value
        assert after.counters == before.counters

    def test_pseudo_instructions_format(self):
        from repro.ir.instructions import (
            CctEnter, EdgeCount, HwcAccum, HwcZero, PathAdd, PathCommit,
        )

        assert format_instruction(PathAdd(3, 7)) == "!path.add r3, 7"
        assert "table2" in format_instruction(PathCommit(3, 1, 2))
        assert format_instruction(HwcZero()) == "!hwc.zero"
        assert "13" not in format_instruction(HwcAccum(1, 0, 0))
        assert "slots=4" in format_instruction(CctEnter("f", 4))
        assert "edge.count" in format_instruction(EdgeCount(5, 1))
