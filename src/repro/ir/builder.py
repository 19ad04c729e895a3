"""Convenience builders for constructing IR programmatically.

The workload generators and tests construct thousands of functions; the
builder keeps that code readable while enforcing block discipline
(every block sealed with exactly one terminator).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.ir.function import Block, Function, IRValidationError, Program, validate_program
from repro.ir.instructions import (
    Alloc,
    Binop,
    Br,
    Call,
    Cbr,
    Const,
    FBinop,
    ICall,
    Imm,
    Instruction,
    Load,
    Longjmp,
    Move,
    Operand,
    Ret,
    Setjmp,
    Store,
    is_terminator,
)


class FunctionBuilder:
    """Builds one function block by block.

    Usage::

        fb = FunctionBuilder("f", num_params=1)
        fb.block("entry")
        t = fb.binop("add", fb.reg(), 0, Imm(1))
        fb.ret(t)
        function = fb.finish()
    """

    def __init__(self, name: str, num_params: int = 0, num_regs: int = 32):
        self.function = Function(name, num_params=num_params, num_regs=num_regs)
        self._current: Optional[Block] = None
        self._next_reg = num_params

    # -- registers ---------------------------------------------------------

    def reg(self) -> int:
        """Allocate a fresh register index."""
        if self._next_reg >= self.function.num_regs:
            raise IRValidationError(
                f"function {self.function.name!r}: out of registers "
                f"({self.function.num_regs})"
            )
        reg = self._next_reg
        self._next_reg += 1
        return reg

    # -- blocks ------------------------------------------------------------

    def block(self, name: str) -> str:
        """Start (and switch to) a new block; returns its name."""
        if self._current is not None and (
            not self._current.instrs or not is_terminator(self._current.instrs[-1])
        ):
            raise IRValidationError(
                f"block {self._current.name!r} not terminated before "
                f"starting {name!r}"
            )
        self._current = self.function.add_block(Block(name))
        return name

    def emit(self, instr: Instruction) -> Instruction:
        if self._current is None:
            raise IRValidationError("no current block; call block() first")
        if self._current.instrs and is_terminator(self._current.instrs[-1]):
            raise IRValidationError(
                f"block {self._current.name!r} already terminated"
            )
        self._current.instrs.append(instr)
        return instr

    # -- instruction helpers -------------------------------------------------

    def const(self, value: Union[int, float], dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.reg()
        self.emit(Const(dst, value))
        return dst

    def move(self, dst: int, src: int) -> int:
        self.emit(Move(dst, src))
        return dst

    def binop(self, op: str, a: int, b: Operand, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.reg()
        self.emit(Binop(op, dst, a, b))
        return dst

    def fbinop(self, op: str, a: int, b: Operand, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.reg()
        self.emit(FBinop(op, dst, a, b))
        return dst

    def load(self, base: int, offset: int = 0, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.reg()
        self.emit(Load(dst, base, offset))
        return dst

    def store(self, src: Operand, base: int, offset: int = 0) -> None:
        self.emit(Store(src, base, offset))

    def alloc(self, size: Operand, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.reg()
        self.emit(Alloc(dst, size))
        return dst

    def br(self, target: str) -> None:
        self.emit(Br(target))

    def cbr(self, cond: int, then: str, els: str) -> None:
        self.emit(Cbr(cond, then, els))

    def call(
        self,
        callee: str,
        args: Optional[List[Operand]] = None,
        dst: Optional[int] = None,
        want_result: bool = True,
    ) -> Optional[int]:
        if want_result and dst is None:
            dst = self.reg()
        self.emit(Call(callee, list(args or []), dst))
        return dst

    def icall(
        self,
        func: int,
        args: Optional[List[Operand]] = None,
        dst: Optional[int] = None,
        want_result: bool = True,
    ) -> Optional[int]:
        if want_result and dst is None:
            dst = self.reg()
        self.emit(ICall(func, list(args or []), dst))
        return dst

    def ret(self, value: Union[Operand, None] = None) -> None:
        self.emit(Ret(value))

    def setjmp(self, env: int, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.reg()
        self.emit(Setjmp(dst, env))
        return dst

    def longjmp(self, env: int, value: Operand) -> None:
        self.emit(Longjmp(env, value))

    # -- finish --------------------------------------------------------------

    def finish(self) -> Function:
        if self._current is not None and (
            not self._current.instrs or not is_terminator(self._current.instrs[-1])
        ):
            raise IRValidationError(
                f"final block {self._current.name!r} is not terminated"
            )
        self.function.assign_call_sites()
        return self.function


class ProgramBuilder:
    """Builds a whole program and validates it on finish."""

    def __init__(self, entry: str = "main", globals_size: int = 0):
        self.program = Program(entry=entry, globals_size=globals_size)

    def function(self, name: str, num_params: int = 0, num_regs: int = 32) -> FunctionBuilder:
        builder = FunctionBuilder(name, num_params=num_params, num_regs=num_regs)
        return builder

    def add(self, builder_or_function: Union[FunctionBuilder, "Function"]) -> None:
        if isinstance(builder_or_function, FunctionBuilder):
            self.program.add_function(builder_or_function.finish())
        else:
            self.program.add_function(builder_or_function)

    def finish(self, validate: bool = True) -> Program:
        if validate:
            validate_program(self.program)
        return self.program
