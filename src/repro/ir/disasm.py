"""Disassembler: renders IR back to the assembly syntax of :mod:`repro.ir.asm`.

Instrumentation pseudo-instructions have no assembler syntax (they are
only ever machine-generated); they print as ``!mnemonic`` lines so a
dump of an instrumented function is still readable.
"""

from __future__ import annotations

from typing import List, Union

from repro.ir.function import Block, Function, Program
from repro.ir.instructions import Imm, Instruction, Kind, Operand


def _operand(value: Union[Operand, None]) -> str:
    if value is None:
        return ""
    if isinstance(value, Imm):
        return repr(value.value)
    return f"r{value}"


def format_instruction(instr: Instruction) -> str:
    kind = instr.kind
    if kind == Kind.CONST:
        return f"const r{instr.dst}, {instr.value!r}"
    if kind == Kind.MOVE:
        return f"mov r{instr.dst}, r{instr.src}"
    if kind in (Kind.BINOP, Kind.FBINOP):
        return f"{instr.op} r{instr.dst}, r{instr.a}, {_operand(instr.b)}"
    if kind == Kind.LOAD:
        return f"load r{instr.dst}, [r{instr.base}+{instr.offset}]"
    if kind == Kind.STORE:
        return f"store {_operand(instr.src)}, [r{instr.base}+{instr.offset}]"
    if kind == Kind.ALLOC:
        return f"alloc r{instr.dst}, {_operand(instr.size)}"
    if kind == Kind.BR:
        return f"br {instr.target}"
    if kind == Kind.CBR:
        return f"cbr r{instr.cond}, {instr.then}, {instr.els}"
    if kind == Kind.CALL:
        args = ", ".join(_operand(a) for a in instr.args)
        prefix = f"call r{instr.dst}, " if instr.dst is not None else "call "
        return f"{prefix}{instr.callee}({args})"
    if kind == Kind.ICALL:
        args = ", ".join(_operand(a) for a in instr.args)
        prefix = f"icall r{instr.dst}, " if instr.dst is not None else "icall "
        return f"{prefix}*r{instr.func}({args})"
    if kind == Kind.RET:
        if instr.value is None:
            return "ret"
        return f"ret {_operand(instr.value)}"
    if kind == Kind.SETJMP:
        return f"setjmp r{instr.dst}, r{instr.env}"
    if kind == Kind.LONGJMP:
        return f"longjmp r{instr.env}, {_operand(instr.value)}"
    if kind == Kind.FRAME_LOAD:
        return f"!frame.load r{instr.dst}, slot{instr.slot}"
    if kind == Kind.FRAME_STORE:
        return f"!frame.store r{instr.src}, slot{instr.slot}"
    # --- instrumentation pseudo-instructions ---
    if kind == Kind.PATH_RESET:
        return f"!path.reset r{instr.reg}"
    if kind == Kind.PATH_ADD:
        return f"!path.add r{instr.reg}, {instr.value}"
    if kind == Kind.PATH_COMMIT:
        tail = "" if instr.reset_to is None else f", reset={instr.reset_to}"
        return f"!path.commit r{instr.reg}+{instr.end} -> table{instr.table}{tail}"
    if kind == Kind.HWC_ZERO:
        return "!hwc.zero"
    if kind == Kind.HWC_ACCUM:
        tail = "" if instr.reset_to is None else f", reset={instr.reset_to}"
        rz = "" if instr.rezero else ", norezero"
        return f"!hwc.accum r{instr.reg}+{instr.end} -> table{instr.table}{rz}{tail}"
    if kind == Kind.HWC_SAVE:
        return "!hwc.save"
    if kind == Kind.HWC_RESTORE:
        return "!hwc.restore"
    if kind == Kind.EDGE_COUNT:
        return f"!edge.count {instr.edge} -> table{instr.table}"
    if kind == Kind.CCT_ENTER:
        return f"!cct.enter {instr.proc}, slots={instr.nslots}"
    if kind == Kind.CCT_CALL:
        return f"!cct.call slot={instr.slot}"
    if kind == Kind.CCT_EXIT:
        return "!cct.exit"
    if kind == Kind.CCT_PROBE:
        return "!cct.probe"
    raise ValueError(f"cannot format instruction kind {kind!r}")


def format_block(block: Block, indent: str = "    ") -> str:
    lines: List[str] = [f"{block.name}:"]
    lines.extend(indent + format_instruction(i) for i in block.instrs)
    return "\n".join(lines)


def format_function(function: Function) -> str:
    header = f"func {function.name}({function.num_params}) regs={function.num_regs} {{"
    body = "\n".join(format_block(b) for b in function.blocks)
    return f"{header}\n{body}\n}}"


def format_program(program: Program) -> str:
    header = f"program entry={program.entry} globals={program.globals_size}"
    if program.function_table:
        header += f" table=[{', '.join(program.function_table)}]"
    functions = "\n\n".join(
        format_function(f) for f in program.functions.values()
    )
    return f"{header}\n\n{functions}\n"
