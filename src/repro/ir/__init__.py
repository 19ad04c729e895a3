"""Intermediate representation for the profiling substrate.

The paper instruments SPARC executables with EEL.  Our substitute is a
small register-machine IR: programs are collections of functions, each a
list of basic blocks over a finite register file.  Instrumentation passes
splice extra instructions into this IR exactly as EEL splices native
code, and the machine simulator (:mod:`repro.machine`) executes it while
maintaining hardware performance counters.
"""

from repro.ir.instructions import (
    BINARY_OPS,
    FLOAT_OPS,
    Alloc,
    Binop,
    Br,
    Call,
    Cbr,
    CctCall,
    CctEnter,
    CctExit,
    Const,
    EdgeCount,
    FBinop,
    HwcAccum,
    HwcRestore,
    HwcSave,
    HwcZero,
    ICall,
    Imm,
    Instruction,
    Kind,
    Load,
    Longjmp,
    Move,
    PathAdd,
    PathCommit,
    PathReset,
    Ret,
    Setjmp,
    Store,
    copy_instruction,
    is_terminator,
)
from repro.ir.function import (
    Block,
    Function,
    IRValidationError,
    Program,
    validate_function,
    validate_program,
)
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.asm import AsmError, parse_program
from repro.ir.disasm import format_block, format_function, format_instruction, format_program

__all__ = [
    "Alloc",
    "AsmError",
    "BINARY_OPS",
    "Binop",
    "Block",
    "Br",
    "Call",
    "Cbr",
    "CctCall",
    "CctEnter",
    "CctExit",
    "Const",
    "EdgeCount",
    "FBinop",
    "FLOAT_OPS",
    "Function",
    "FunctionBuilder",
    "HwcAccum",
    "HwcRestore",
    "HwcSave",
    "HwcZero",
    "ICall",
    "IRValidationError",
    "Imm",
    "Instruction",
    "Kind",
    "Load",
    "Longjmp",
    "Move",
    "PathAdd",
    "PathCommit",
    "PathReset",
    "Program",
    "ProgramBuilder",
    "Ret",
    "Setjmp",
    "Store",
    "copy_instruction",
    "format_block",
    "format_function",
    "format_instruction",
    "format_program",
    "is_terminator",
    "parse_program",
    "validate_function",
    "validate_program",
]
