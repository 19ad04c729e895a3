"""Unit tests for functions, blocks, programs, and validation."""

import dataclasses

import pytest

from repro.ir import instructions as ir
from repro.ir.asm import parse_program
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.disasm import format_program
from repro.ir.function import (
    Block,
    Function,
    IRValidationError,
    Program,
    validate_function,
    validate_program,
)
from repro.ir.instructions import Br, Call, Cbr, Const, Imm, Ret, copy_instruction
from repro.machine.vm import Machine
from repro.workloads.suite import build_workload, workload_names
from tests.conftest import compile_corpus


def _simple_function(name="f"):
    fb = FunctionBuilder(name, num_params=1, num_regs=8)
    fb.block("entry")
    fb.ret(0)
    return fb.finish()


class TestFunctionStructure:
    def test_entry_is_first_block(self):
        fb = FunctionBuilder("f")
        fb.block("start")
        fb.br("other")
        fb.block("other")
        fb.ret()
        function = fb.finish()
        assert function.entry.name == "start"

    def test_block_lookup(self):
        function = _simple_function()
        assert function.block("entry").name == "entry"
        with pytest.raises(KeyError):
            function.block("missing")

    def test_duplicate_block_rejected(self):
        function = Function("f")
        function.add_block(Block("a", [Ret(None)]))
        with pytest.raises(IRValidationError):
            function.add_block(Block("a", [Ret(None)]))

    def test_params_exceed_registers(self):
        with pytest.raises(IRValidationError):
            Function("f", num_params=9, num_regs=8)

    def test_max_register_used(self):
        fb = FunctionBuilder("f", num_params=2, num_regs=16)
        fb.block("entry")
        fb.emit(Const(7, 1))
        fb.ret(7)
        assert fb.finish().max_register_used() == 7

    def test_call_site_numbering_in_block_order(self):
        fb = FunctionBuilder("f", num_regs=8)
        fb.block("entry")
        fb.call("g", want_result=False)
        fb.call("h", want_result=False)
        fb.br("next")
        fb.block("next")
        fb.call("g", want_result=False)
        fb.ret()
        function = fb.finish()
        assert [c.site for c in function.call_sites()] == [0, 1, 2]

    def test_size_weights_icost(self):
        from repro.ir.instructions import HwcAccum

        function = Function("f")
        function.add_block(Block("entry", [HwcAccum(0, 0, 0), Ret(None)]))
        assert function.size_in_instructions() == HwcAccum(0, 0, 0).icost + 1


class TestValidation:
    def test_empty_function_rejected(self):
        with pytest.raises(IRValidationError):
            validate_function(Function("f"))

    def test_empty_block_rejected(self):
        function = Function("f")
        function.add_block(Block("entry", []))
        with pytest.raises(IRValidationError, match="empty"):
            validate_function(function)

    def test_missing_terminator_rejected(self):
        function = Function("f")
        function.add_block(Block("entry", [Const(0, 1)]))
        with pytest.raises(IRValidationError, match="terminator"):
            validate_function(function)

    def test_terminator_mid_block_rejected(self):
        function = Function("f")
        function.add_block(Block("entry", [Ret(None), Const(0, 1), Ret(None)]))
        with pytest.raises(IRValidationError, match="not last"):
            validate_function(function)

    def test_register_out_of_range_rejected(self):
        function = Function("f", num_regs=4)
        function.add_block(Block("entry", [Const(4, 1), Ret(None)]))
        with pytest.raises(IRValidationError, match="out of"):
            validate_function(function)

    def test_unknown_branch_target_rejected(self):
        function = Function("f")
        function.add_block(Block("entry", [Br("nowhere")]))
        with pytest.raises(IRValidationError, match="unknown block"):
            validate_function(function)

    def test_cbr_with_identical_arms_rejected(self):
        function = Function("f")
        function.add_block(Block("entry", [Cbr(0, "entry", "entry")]))
        with pytest.raises(IRValidationError, match="identical"):
            validate_function(function)

    def test_call_to_unknown_function_rejected(self):
        program = Program()
        function = Function("f")
        function.add_block(Block("entry", [Call("ghost", []), Ret(None)]))
        program.add_function(function)
        with pytest.raises(IRValidationError, match="unknown function"):
            validate_function(function, program)

    def test_program_entry_must_exist(self):
        program = Program(entry="main")
        program.add_function(_simple_function("f"))
        with pytest.raises(IRValidationError, match="entry"):
            validate_program(program)

    def test_function_table_entries_must_exist(self):
        program = Program(entry="f")
        program.add_function(_simple_function("f"))
        program.function_table.append("ghost")
        with pytest.raises(IRValidationError, match="function table"):
            validate_program(program)


class TestProgram:
    def test_duplicate_function_rejected(self):
        program = Program()
        program.add_function(_simple_function("f"))
        with pytest.raises(IRValidationError):
            program.add_function(_simple_function("f"))

    def test_function_index_registers_once(self):
        program = Program()
        assert program.function_index("a") == 0
        assert program.function_index("b") == 1
        assert program.function_index("a") == 0
        assert program.function_table == ["a", "b"]


class TestBuilderDiscipline:
    def test_emit_without_block_fails(self):
        fb = FunctionBuilder("f")
        with pytest.raises(IRValidationError):
            fb.emit(Const(0, 1))

    def test_emit_after_terminator_fails(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.ret()
        with pytest.raises(IRValidationError, match="terminated"):
            fb.emit(Const(0, 1))

    def test_new_block_requires_terminated_previous(self):
        fb = FunctionBuilder("f")
        fb.block("a")
        with pytest.raises(IRValidationError, match="not terminated"):
            fb.block("b")

    def test_finish_requires_termination(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.emit(Const(0, 1))
        with pytest.raises(IRValidationError):
            fb.finish()

    def test_register_exhaustion(self):
        fb = FunctionBuilder("f", num_regs=2)
        fb.block("entry")
        fb.const(1)
        fb.const(2)
        with pytest.raises(IRValidationError, match="out of registers"):
            fb.const(3)

    def test_program_builder_validates(self):
        pb = ProgramBuilder(entry="main")
        fb = pb.function("main")
        fb.block("entry")
        fb.call("ghost", want_result=False)
        fb.ret(Imm(0))
        pb.add(fb)
        with pytest.raises(IRValidationError):
            pb.finish()


#: One instance of every instruction class, with list fields non-empty.
INSTRUCTION_SAMPLES = (
    ir.Const(1, 2.5),
    ir.Move(1, 2),
    ir.Binop("add", 1, 2, Imm(3)),
    ir.FBinop("fmul", 1, 2, 3),
    ir.Load(1, 2, 8),
    ir.Store(Imm(4), 2, 16),
    ir.Alloc(1, Imm(4)),
    ir.Br("next"),
    ir.Cbr(1, "then", "else"),
    ir.Call("f", [1, Imm(2)], 3, 0),
    ir.ICall(4, [Imm(1), 2], None, 1),
    ir.Ret(Imm(0)),
    ir.Setjmp(1, 2),
    ir.Longjmp(1, Imm(1)),
    ir.FrameLoad(1, 2),
    ir.FrameStore(1, 2),
    ir.PathReset(5),
    ir.PathAdd(5, 3),
    ir.PathCommit(5, 2, 0, 1),
    ir.HwcZero(),
    ir.HwcAccum(5, 2, 0, True, None),
    ir.HwcSave(),
    ir.HwcRestore(),
    ir.EdgeCount(3, 0),
    ir.CctEnter("f", 2),
    ir.CctCall(1),
    ir.CctExit(),
    ir.CctProbe(),
    ir.KPathAdd(5, 2, (0, 4)),
    ir.KHwcCycle(5, 2, (1, 3), 2, 0, 0),
    ir.KHwcExit(5, 2, (0, 1), 0),
)

#: A program with a branch, a call, an indirect-call table and a
#: function table: every kind of edit the clone tests make.
EDITABLE = """
program entry=main table=[f]

func main(1) regs=8 {
entry:
    const r1, 0
    cbr r0, yes, no
yes:
    call r1, f(r0)
    br no
no:
    ret r1
}

func f(1) regs=4 {
entry:
    add r1, r0, 1
    ret r1
}
"""


def _snapshot(program: Program):
    """The listing plus every instruction's full repr (the listing omits
    fields such as a call's site)."""
    return format_program(program), [
        repr(instr)
        for function in program.functions.values()
        for instr in function.instructions()
    ]


def _assert_clone_runs_like(original: Program, clone: Program, *args) -> None:
    assert format_program(clone) == format_program(original)
    for engine in ("simple", "fast"):
        want = Machine(original, engine=engine).run(*args)
        got = Machine(clone, engine=engine).run(*args)
        assert got.counters == want.counters, engine
        assert repr(got.return_value) == repr(want.return_value), engine


class TestClone:
    @pytest.mark.parametrize("name", workload_names())
    def test_suite_clone_runs_like_original(self, name):
        original = build_workload(name, 0.25)
        _assert_clone_runs_like(original, original.clone())

    def test_corpus_clone_runs_like_original(self, corpus_name):
        original = compile_corpus(corpus_name)
        _assert_clone_runs_like(original, original.clone())

    @pytest.mark.parametrize(
        "edit",
        [
            "retarget_cbr",
            "set_call_site",
            "append_call_arg",
            "splice_instrs",
            "add_block",
            "extend_function_table",
        ],
    )
    def test_editing_the_clone_leaves_the_original_alone(self, edit):
        original = parse_program(EDITABLE)
        before = _snapshot(original)
        clone = original.clone()
        main = clone.functions["main"]
        entry, yes = main.block("entry"), main.block("yes")
        if edit == "retarget_cbr":
            entry.instrs[-1].then = "no"
            entry.instrs[-1].els = "yes"
        elif edit == "set_call_site":
            yes.instrs[0].site = 7
        elif edit == "append_call_arg":
            yes.instrs[0].args.append(Imm(9))
        elif edit == "splice_instrs":
            entry.instrs[1:1] = [Const(2, 5)]
        elif edit == "add_block":
            main.add_block(Block("extra", [Ret(None)]))
        else:
            clone.function_table.append("main")
        assert _snapshot(clone) != before
        assert _snapshot(original) == before

    def test_shared_instruction_stays_shared(self):
        shared = Const(1, 7)
        function = Function(
            "main",
            num_regs=4,
            blocks=[
                Block("a", [shared, Br("b")]),
                Block("b", [shared, Ret(1)]),
            ],
        )
        clone = Program({"main": function}).clone()
        a, b = clone.functions["main"].blocks
        assert a.instrs[0] is b.instrs[0]
        assert a.instrs[0] is not shared
        a.instrs[0].value = 8
        assert shared.value == 7

    def test_clone_copies_every_field(self):
        # A field added to Program, Function or Block must be copied by
        # Program.clone() (or deliberately shared); these sets make
        # adding one fail here until clone() is revisited.
        program = parse_program(EDITABLE)
        fields = {"functions", "entry", "globals_size", "function_table"}
        assert set(vars(program)) == fields
        assert set(vars(program.clone())) == fields
        assert Function.__slots__ == (
            "name", "num_params", "num_regs", "blocks", "_block_index",
        )
        assert Block.__slots__ == ("name", "instrs")


def _instruction_classes(cls=ir.Instruction):
    for sub in cls.__subclasses__():
        yield sub
        yield from _instruction_classes(sub)


class TestCopyInstruction:
    def test_samples_cover_every_instruction_class(self):
        assert {type(i) for i in INSTRUCTION_SAMPLES} == set(_instruction_classes())

    @pytest.mark.parametrize(
        "instr", INSTRUCTION_SAMPLES, ids=lambda i: type(i).__name__
    )
    def test_copy_equals_source_and_shares_no_container(self, instr):
        copy = copy_instruction(instr)
        assert copy is not instr
        assert type(copy) is type(instr)
        assert copy == instr
        for field in dataclasses.fields(instr):
            value = getattr(instr, field.name)
            if isinstance(value, (list, dict, set)):
                assert getattr(copy, field.name) is not value, field.name
